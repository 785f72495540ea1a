"""The Kan rows, the enriched-hom builder and the relative box-horn search
against their definitions, on small random complexes and the canned
corpus."""

import collections.abc
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from kanforge import simplicial as sp
from kanforge import nerves as nv
from kanforge import determinants as dt
from kanforge import examples as ex

from reference import (canon, canon_transported_hom, definitional_alpha_bijective,
                       definitional_faces_compatible, definitional_kan_row,
                       definitional_tuples, position_pull,
                       recursive_map_search, reference_enriched_hom0,
                       reference_hom1_enriched, Ticks, tuple_rows)


# -- Kan rows on small random complexes ----------------------------------------
#
# A spec is (sizes, faces): sizes[k] cells at level k, and faces[k][i][c]
# the target of d_i on cell c of level k, a place of level k - 1 or, from
# sizes[k - 1] on, one of two cells outside it.  Degeneracies are left
# empty: no Kan row reads them.

OUTSIDE = 2


def complex_from_spec(spec, places):
    """The complex of spec, with string ids ("c<k>.<place>", outside
    cells "z<k>.<n>") or as Places levels with list operators (outside
    cells at places n and n + 1)."""
    sizes, faces = spec
    dim = len(sizes) - 1
    if places:
        levels = [sp.Places(n, lambda k=k: lambda c: "c%d.%d" % (k, c))
                  for k, n in enumerate(sizes)]
        face = {(k, i): list(col) for k in range(1, dim + 1)
                for i, col in enumerate(faces[k])}
        return sp.TruncatedSSet(dim, levels, face, {})

    def cell(k, c):
        return ("c%d.%d" if c < sizes[k] else "z%d.%d") % (k, c)

    levels = [[cell(k, c) for c in range(n)] for k, n in enumerate(sizes)]
    face = {(k, i): {cell(k, c): cell(k - 1, t) for c, t in enumerate(col)}
            for k in range(1, dim + 1) for i, col in enumerate(faces[k])}
    return sp.TruncatedSSet(dim, levels, face, {})


@st.composite
def specs(draw):
    dim = draw(st.integers(1, 3))
    sizes = [draw(st.integers(0, 3 if k < 3 else 4)) for k in range(dim + 1)]
    faces = [None]
    for k in range(1, dim + 1):
        below = sizes[k - 1]
        # mostly inside level k - 1, so that rows can be onto
        targets = list(range(below)) * 4 + list(range(below, below + OUTSIDE))
        faces.append([[draw(st.sampled_from(targets)) for _ in range(sizes[k])]
                      for _ in range(k + 1)])
    return sizes, faces


def standard_spec(n, dim, rewire=None):
    """The spec of standard_simplex(n, dim), its levels in order;
    rewire = (k, i, cell, target) sends d_i of that cell of level k to
    the target id of level k - 1, or outside it when target is None."""
    x = sp.standard_simplex(n, dim)
    place = [{c: p for p, c in enumerate(x.level(k))} for k in range(dim + 1)]
    sizes = [len(x.level(k)) for k in range(dim + 1)]
    faces = [None] + [[[place[k - 1][x.face[k, i][c]] for c in x.level(k)]
                       for i in range(k + 1)] for k in range(1, dim + 1)]
    if rewire is not None:
        k, i, cell, target = rewire
        faces[k][i][place[k][cell]] = \
            sizes[k - 1] if target is None else place[k - 1][target]
    return sizes, faces


DELTA2 = standard_spec(2, 2)
FACE_OUTSIDE = standard_spec(2, 2, (2, 0, "012", None))
# d_0(012) = 01 breaks the dd identities on level 2
DD_BROKEN = standard_spec(2, 2, (2, 0, "012", "01"))
# two 2-simplices with one boundary, and two edges with the same ends
TWO_FILLERS = ([1, 2, 2], [None, [[0, 0], [0, 0]],
                           [[0, 0], [0, 1], [1, 1]]])
EMPTY_LEVEL = ([2, 0, 0], [None, [[], []], [[], [], []]])
EMPTY_BELOW = ([0, 2], [None, [[0, 1], [1, 1]]])


def spec_features(spec):
    """Which of the four shapes the Kan-row oracle must meet spec has."""
    sizes, faces = spec
    outside = any(t >= sizes[k - 1] for k in range(1, len(sizes))
                  for col in faces[k] for t in col)
    out = {"face outside": outside,
           "empty level": 0 in sizes}
    x = complex_from_spec(spec, places=False)
    out["dd broken"] = any(not definitional_faces_compatible(x, m)
                           for m in range(1, x.dim) if not outside)
    out["non-injective horn"] = any(
        not inj for m in range(x.dim)
        for _, inj in definitional_kan_row(x, m)[0].values())
    return out


def test_fixed_specs_cover_the_four_shapes():
    assert spec_features(FACE_OUTSIDE)["face outside"]
    assert spec_features(DD_BROKEN)["dd broken"]
    assert spec_features(TWO_FILLERS)["non-injective horn"]
    assert spec_features(EMPTY_LEVEL)["empty level"]
    assert spec_features(EMPTY_BELOW)["empty level"]
    assert spec_features(EMPTY_BELOW)["face outside"]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(spec=specs(), places=st.booleans())
@example(spec=DELTA2, places=False)
@example(spec=DELTA2, places=True)
@example(spec=FACE_OUTSIDE, places=False)
@example(spec=FACE_OUTSIDE, places=True)
@example(spec=DD_BROKEN, places=False)
@example(spec=DD_BROKEN, places=True)
@example(spec=TWO_FILLERS, places=False)
@example(spec=TWO_FILLERS, places=True)
@example(spec=EMPTY_LEVEL, places=False)
@example(spec=EMPTY_LEVEL, places=True)
@example(spec=EMPTY_BELOW, places=False)
@example(spec=EMPTY_BELOW, places=True)
def test_kan_rows_match_their_definition(spec, places):
    x = complex_from_spec(spec, places)
    for m in range(x.dim):
        assert sp.faces_compatible(x, m) == definitional_faces_compatible(x, m)
        assert sp.alpha_bijective(x, m) == definitional_alpha_bijective(x, m)
        row = sp.kan_status(x, m)
        assert (row.flags, row.witness, row.minimal) == \
            definitional_kan_row(x, m)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=specs(), places=st.booleans())
@example(spec=FACE_OUTSIDE, places=False)
@example(spec=FACE_OUTSIDE, places=True)
@example(spec=TWO_FILLERS, places=True)
@example(spec=EMPTY_BELOW, places=True)
def test_tuple_counts_match_their_definition(spec, places):
    """compatible_tuples(..., count=True) on every level and for every
    skip is the number of tuples it lists and of the tuples filtered from
    the product, faces outside level m included."""
    x = complex_from_spec(spec, places)
    for m in range(x.dim + 1):
        cells, fcols = x.level(m), sp.face_cols(x, m)
        for skip in [None] + list(range(m + 2)):
            count = sp.compatible_tuples(len(cells), fcols, m, skip, count=True)
            listed = sp.compatible_tuples(len(cells), fcols, m, skip)
            assert count == len(tuple_rows(cells, listed))
            assert count == len(definitional_tuples(x, m, skip))


# face values of every kind compatible_tuples may be handed, none equal
# to another
HASHABLES = [0, 1, "0", (0,), (0, "a"), None, 2.5]


@st.composite
def face_columns(draw):
    """(n, fcols, m): m + 1 face columns over n places, their values
    drawn from a small pool of mixed hashables, so that faces meet."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3 if m == 3 else 4))
    pool = draw(st.lists(st.sampled_from(HASHABLES), min_size=1, max_size=3,
                         unique=True))
    fcols = [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
             for _ in range(m + 1)]
    return n, fcols, m


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=face_columns())
def test_compatible_tuples_match_the_product_on_any_face_columns(case):
    """The columns of compatible_tuples, read as tuples, and its count
    are the tuples of places filtered from itertools.product, in its
    order, for every skip."""
    n, fcols, m = case
    for skip in [None] + list(range(m + 2)):
        slots = [j for j in range(m + 2) if j != skip]
        want = []
        for combo in itertools.product(range(n), repeat=len(slots)):
            t = dict(zip(slots, combo))
            # a level of vertices has no faces, so no conditions
            if not m or all(fcols[i][t[j]] == fcols[j - 1][t[i]]
                            for i in slots for j in slots if i < j):
                want.append(tuple(map(t.get, range(m + 2))))
        cols = sp.compatible_tuples(n, fcols, m, skip)
        assert len(cols) == m + 2
        assert [j for j, col in enumerate(cols) if col is None] == \
            ([] if skip is None else [skip])
        assert tuple_rows(range(n), cols) == want
        assert sp.compatible_tuples(n, fcols, m, skip, count=True) == len(want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=specs(), places=st.booleans(), reverse=st.booleans())
@example(spec=TWO_FILLERS, places=False, reverse=True)
@example(spec=TWO_FILLERS, places=True, reverse=True)
@example(spec=FACE_OUTSIDE, places=True, reverse=False)
def test_face_index_matches_its_definition(spec, places, reverse):
    """face_index(k) and face_index(k, skip) group level k by its face
    tuples (with None in slot skip), each list sorted, and are built
    once.  With reverse, every level lists its cells in descending
    order, so level order is not sorted order."""
    x = complex_from_spec(spec, places)
    if reverse:
        x = sp.TruncatedSSet(x.dim, [list(cells)[::-1] for cells in x.levels],
                             x.face, x.degen)
    for k in range(1, x.dim + 1):
        cells = x.level(k)
        faces = [tuple(x.face[k, i][c] for i in range(k + 1)) for c in cells]
        for skip in [None] + list(range(k + 1)):
            keys = [f if skip is None else f[:skip] + (None,) + f[skip + 1:]
                    for f in faces]
            want = {key: sorted(c for c, other in zip(cells, keys)
                                if other == key) for key in keys}
            got = x.face_index(k, skip)
            assert got == want
            assert x.face_index(k, skip) is got


def test_string_and_places_forms_agree():
    for spec in (DELTA2, FACE_OUTSIDE, DD_BROKEN, TWO_FILLERS):
        a = complex_from_spec(spec, places=False)
        b = complex_from_spec(spec, places=True)
        for m in range(a.dim):
            ra, rb = sp.kan_status(a, m), sp.kan_status(b, m)
            assert (ra.flags, ra.minimal) == (rb.flags, rb.minimal)
            assert sp.alpha_bijective(a, m) == sp.alpha_bijective(b, m)


# -- the map search against a product brute force and the recursion ----------


def inside(spec):
    """spec with every face outside its level folded into it (t mod the
    level's size), and a level whose level below is empty emptied: a
    source whose faces lie in the levels of the search."""
    sizes, faces = list(spec[0]), [None]
    for k in range(1, len(sizes)):
        below = sizes[k - 1]
        if not below:
            sizes[k] = 0
        faces.append([[t % below for t in col[:sizes[k]]]
                      for col in spec[1][k]])
    return sizes, faces


@st.composite
def search_cases(draw):
    """A map_search input: the levels 0..d of a source drawn by specs()
    (faces kept inside), d the lesser dimension of source and target,
    in string or Places form.  Some cells of level k >= 1 are forced
    from a cell of level k - 1 through a drawn table into the target's
    level k; with pins, some cells are pinned to drawn sets of target
    cells; with a base point, one vertex is pinned to one target vertex
    as enumerate_maps pins a base.  Returns (levels, index, pins,
    x, y)."""
    places = draw(st.booleans())
    x = complex_from_spec(inside(draw(specs())), places)
    y = complex_from_spec(draw(specs()), places)
    d = min(x.dim, y.dim)
    index = {k: y.face_index(k) for k in range(1, d + 1)}
    index[0] = {(): list(y.level(0))}
    levels = []
    for k in range(d + 1):
        forced, free = [], []
        faces = x.face_table(k)
        for cell in x.level(k):
            if k and y.level(k) and draw(st.integers(0, 3)) == 0:
                a = draw(st.sampled_from(list(x.level(k - 1))))
                images = [draw(st.sampled_from(list(y.level(k))))
                          for _ in y.level(k - 1)]
                degen = images if places else dict(zip(y.level(k - 1), images))
                forced.append((cell, k - 1, a, degen))
            else:
                free.append((cell, tuple((k - 1, f) for f in faces[cell])
                             if k else ()))
        levels.append((k, forced, free))
    pins = {}
    if draw(st.booleans()):
        for k, _, free in levels:
            for cell, _ in free:
                if draw(st.booleans()):
                    pins[k, cell] = draw(st.sets(st.sampled_from(
                        list(y.level(k)) or [None])))
    if draw(st.booleans()) and x.level(0) and y.level(0):
        base = (0, draw(st.sampled_from(list(x.level(0)))))
        yb = draw(st.sampled_from(list(y.level(0))))
        pins[base] = {yb}.intersection(pins.get(base, (yb,)))
    return levels, index, pins, x, y


def brute_force_maps(levels, pins, x, y):
    """Every levelwise assignment of the source cells to target cells,
    level by level an itertools.product over the cells of each level,
    kept when each forced cell is the image of its presentation, each
    free cell with faces goes to a cell whose faces are the images of
    its faces, and each pinned free cell to an allowed cell."""
    found = [{}]
    for k, forced, free in levels:
        cells = [cell for cell, *_ in forced] + [cell for cell, _ in free]
        faces_of = y.face_table(k)
        grown = []
        for f in found:
            for images in itertools.product(y.level(k), repeat=len(cells)):
                g = dict(f)
                g[k] = dict(zip(cells, images))
                if all(g[k][c] == degen[g[src][a]]
                       for c, src, a, degen in forced) and all(
                        faces_of[g[k][c]] == tuple(g[lvl][f_] for lvl, f_ in fs)
                        for c, fs in free if fs) and all(
                        g[k][c] in pins[k, c] for c, _ in free
                        if (k, c) in pins):
                    grown.append(g)
        found = grown
    return found


def as_items(maps):
    """Each map as its levels and their (cell, image) items, in order."""
    return [[(lvl, list(comp.items())) for lvl, comp in f.items()]
            for f in maps]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=search_cases())
def test_map_search_matches_brute_force_and_recursion(case):
    """map_search gives the maps of an itertools.product brute force, as
    a set, and the maps of the recursive search in tests/reference.py,
    in its order (key order within each map included), on the same
    number of budget ticks."""
    levels, index, pins, x, y = case
    counts = {"loop": 0, "recursion": 0}

    def ticker(name):
        def tick(*fields, n=1):
            counts[name] += n
        return tick

    got = sp.map_search(levels, index, ticker("loop"), pins)
    want = recursive_map_search(levels, index, ticker("recursion"), pins)
    assert as_items(got) == as_items(want)
    assert counts["loop"] == counts["recursion"]
    assert sorted(map(canon, got)) == \
        sorted(map(canon, brute_force_maps(levels, pins, x, y)))


# -- the enriched homs against the builder keyed by sorted map items -----------


def assert_same_sset(got, want):
    assert got.dim == want.dim
    assert got.levels == want.levels
    assert got.face == want.face
    assert got.degen == want.degen


ENRICHED_CASES = [(x, g, 1) for x in ("s1", "t11")
                  for g in ex.CANNED_TWO_GROUPS] + [("s1", "oneobj-z2", 3)]


@pytest.mark.parametrize("xname,gname,n_max", ENRICHED_CASES)
def test_enriched_hom0_matches_canon_keyed_builder(xname, gname, n_max):
    x, ng = ex.build(xname), nv.nerve_2group(ex.build(gname), 3)
    maps, sources = dt._hom0_maps(x, ng, n_max)
    want = canon_transported_hom(maps, position_pull(sources), "h")
    assert_same_sset(dt.enriched_hom0(x, ng, n_max), want)


@pytest.mark.parametrize("gname", ex.CANNED_TWO_GROUPS)
@pytest.mark.parametrize("n_max", [1, 2])
def test_hom1_enriched_matches_canon_keyed_builder(gname, n_max):
    x = nv.p2_star(ex.build("s1"), 2)
    ns = nv.segal_nerve(ex.build(gname), 2, 3)
    maps, sources = dt._hom1_maps(x, ns, n_max)
    # the maps of each level in the order of the sorted items of their
    # images' ids
    for found in maps:
        key = [canon({pq: dict(zip(comp, map(sp.namer(ns.level(*pq)),
                                             comp.values())))
                      for pq, comp in f.items()}) for f in found]
        assert key == sorted(key)
    want = canon_transported_hom(maps, position_pull(sources), "H")
    assert_same_sset(dt.hom1_enriched(x, ns, n_max), want)


# -- both enriched homs against the builders on quotients and pair ids --------


def pointed(y_sset):
    """Y with its first vertex as base point."""
    return sp.build_sset(y_sset.dim, y_sset.levels,
                         lambda name, k, i: getattr(y_sset, name)[k, i],
                         y_sset.coskeletal_at, y_sset.level(0)[0])


def hom0_cases():
    spaces = ("s1", "t11", "delta2-reduced")
    cases = [(x, g, lambda g=g: nv.nerve_2group(ex.build(g), 3), 1)
             for x in spaces for g in ex.CANNED_TWO_GROUPS]
    cases += [("s1", "oneobj-z2", lambda: nv.nerve_2group(
        ex.build("oneobj-z2"), 3), n) for n in (2, 3)]
    cases += [("delta2-reduced", "nerve-z2", lambda: ex.build("nerve-z2"), 2),
              ("s1", "nerve-z3", lambda: ex.build("nerve-z3"), 2)]
    # targets with more than one vertex (one of them pointed) or none
    cases += [(x, c, lambda c=c: nv.nerve_category(ex.build(c), 3), n)
              for c in ("indiscrete-2", "indiscrete-3", "groupoid-z2",
                        "poset-interval") for x in spaces for n in (1, 2)]
    cases += [("s1", "pointed-indiscrete-3", lambda: pointed(
        nv.nerve_category(ex.build("indiscrete-3"), 3)), 2),
              ("s1", "empty", lambda: sp.constant_sset([], 3), 2)]
    return [pytest.param(x, make, n, id="%s-%s-%d" % (x, g, n))
            for x, g, make, n in cases]


@pytest.mark.parametrize("xname,target,n_max", hom0_cases())
def test_enriched_hom0_matches_the_quotient_builder(xname, target, n_max):
    x, y = ex.build(xname), target()
    assert_same_sset(dt.enriched_hom0(x, y, n_max),
                     reference_enriched_hom0(x, y, n_max))


def test_enriched_hom0_refuses_a_source_that_is_not_reduced():
    with pytest.raises(dt.DeterminantError):
        dt.enriched_hom0(ex.build("delta1"), ex.build("nerve-z2"), 1)


@pytest.mark.parametrize("gname", ex.CANNED_TWO_GROUPS)
@pytest.mark.parametrize("n_max", [1, 2])
def test_hom1_enriched_matches_the_pair_id_builder(gname, n_max):
    x = nv.p2_star(ex.build("s1"), 2)
    ns = nv.segal_nerve(ex.build(gname), 2, 3)
    assert_same_sset(dt.hom1_enriched(x, ns, n_max),
                     reference_hom1_enriched(x, ns, n_max))


# -- the relative box-horn search against a depth-first one ---------------------


def depth_first_relative_horn(tables, q, k, tick):
    """The relative box-horn search over the same tables, one boundary
    tuple after another, one candidate at a time, ticking every
    candidate of every tuple: it does not stop at the first horn without
    a filler."""
    acols, cands, horn_keys, vfaces = tables
    slots = [j for j in range(q + 1) if j != k]

    def rec(t, partial):
        m = len(partial)
        if m == q:
            a = tuple(col[t] for col in acols)
            return (a, tuple(partial)) in horn_keys[k]
        good = True
        for b in cands[slots[m]][t]:
            tick("relative box-horn")
            if any(vfaces[b][slots[i]] != vfaces[partial[i]][slots[m] - 1]
                   for i in range(m)):
                continue
            good = rec(t, partial + [b]) and good
        return good

    return all([rec(t, []) for t in range(len(acols[0]))])


def unfilled(tables, k, drop):
    """tables with the horns at places `drop` of the sorted horn keys of
    index k left without a filler."""
    acols, cands, horn_keys, vfaces = tables
    keys = sorted(horn_keys[k], key=repr)
    lost = {keys[i] for i in drop if i < len(keys)}
    return acols, cands, [keys - lost if j == k else keys
                          for j, keys in enumerate(horn_keys)], vfaces


@pytest.mark.parametrize("name", ex.CANNED_TWO_GROUPS)
def test_relative_horn_search_matches_depth_first_search(name):
    ns = nv.segal_nerve(ex.build(name), 2, 3)
    seen = set()
    for p in (1, 2):
        tables = nv._relative_horn_tables(ns, p, 2)
        for k in range(3):
            n = len(tables[2][k])
            for drop in ((), (0,), (n // 2,), (n - 1,), tuple(range(0, n, 3))):
                case = unfilled(tables, k, drop)
                got, want = Ticks(), Ticks()
                ok = nv._relative_horn_extension(case, k, got)
                assert ok == depth_first_relative_horn(case, 2, k, want)
                assert got == want
                seen.add(ok)
    # the search both succeeds and finds a horn without a filler
    assert seen == {True, False}


@st.composite
def horn_tables(draw):
    """Relative box-horn tables for q = 2 on up to six cells of
    X_{p,1} with random vertical faces, up to four boundary tuples with
    random candidate lists, and every horn filled but a few."""
    cells = list(range(draw(st.integers(1, 6))))
    vfaces = {b: (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
              for b in cells}
    rows = [[draw(st.lists(st.sampled_from(cells), unique=True, max_size=4))
             for _ in range(3)] for _ in range(draw(st.integers(0, 4)))]
    acols = [["a"] * len(rows), list(range(len(rows)))]
    cands = [list(col) for col in zip(*rows)] or [[], [], []]
    leaves = sorted((a, (b, c)) for a in zip(*acols)
                    for b in cells for c in cells)
    horn_keys = []
    for _ in range(3):
        lost = draw(st.sets(st.sampled_from(leaves), max_size=3)) if leaves \
            else set()
        horn_keys.append(set(leaves) - lost)
    return acols, cands, horn_keys, vfaces


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables=horn_tables())
def test_relative_horn_search_matches_depth_first_search_on_random_tables(tables):
    for k in range(3):
        got, want = Ticks(), Ticks()
        ok = nv._relative_horn_extension(tables, k, got)
        assert ok == depth_first_relative_horn(tables, 2, k, want)
        assert got == want


class CountedReads(collections.abc.Mapping):
    """A read-only view of a table that counts the reads of its values."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.table[key]

    def __iter__(self):
        return iter(self.table)

    def __len__(self):
        return len(self.table)


def test_relative_horn_search_ticks_each_depth_before_building_it():
    # the second slot's bucket is the only reader of the vertical faces,
    # so a guard that fires on the second tick stops the search before
    # it reads one
    ns = nv.segal_nerve(ex.build("oneobj-z2"), 2, 3)
    acols, cands, horn_keys, vfaces = nv._relative_horn_tables(ns, 2, 2)
    for k in range(3):
        reads = CountedReads(vfaces)
        calls = []

        def tick(search, n=1):
            calls.append(n)
            if len(calls) == 2:
                raise sp.SearchBudgetExceeded(search)

        with pytest.raises(sp.SearchBudgetExceeded):
            nv._relative_horn_extension((acols, cands, horn_keys, reads),
                                        k, tick)
        assert reads.reads == 0 and calls[0] > 0
        # unguarded, the second depth reads them
        assert nv._relative_horn_extension((acols, cands, horn_keys, reads),
                                           k, Ticks())
        assert reads.reads > 0
