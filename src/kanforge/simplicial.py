"""Finite truncated simplicial sets.

A TruncatedSSet stores explicit finite levels up to a cutoff dimension
together with total face/degeneracy maps.  All predicates (simplicial
identities, Kan extension, coskeletality, minimality) are decided by
exhaustive scans over the stored range; every report records the range
it actually checked.

Face/degeneracy identities used throughout (the duals of the generating
relations of the simplex category):

    d_i d_j = d_{j-1} d_i            i < j
    s_i s_j = s_{j+1} s_i            i <= j
    d_i s_j = s_{j-1} d_i            i < j
    d_i s_j = id                     i in {j, j+1}
    d_i s_j = s_j d_{i-1}            i > j + 1
"""

import collections
import functools
import math
import operator
import os
from itertools import (chain, combinations_with_replacement, compress, groupby,
                       repeat)

from .groups import FiniteGroup, bijective, components, equivalence_classes


class SimplicialError(Exception):
    pass


class DimensionOutOfRange(SimplicialError):
    pass


class BadHornIndex(SimplicialError):
    pass


class NotCoskeletal(SimplicialError):
    pass


class NotSubcomplex(SimplicialError):
    pass


class NotKan(SimplicialError):
    pass


class SearchBudgetExceeded(SimplicialError):
    pass


class MalformedBudget(SimplicialError):
    pass


DEFAULT_BUDGET = 10 ** 7


def enumeration_budget():
    """The enumeration cap: KANFORGE_BUDGET if set, else DEFAULT_BUDGET.
    A value that is not a non-negative integer raises MalformedBudget."""
    raw = os.environ.get("KANFORGE_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise MalformedBudget(
            "KANFORGE_BUDGET=%r is not a non-negative integer" % raw)
    return cap


class ValidationReport:
    def __init__(self, violations, checked):
        self.violations = violations
        self.checked = checked

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok, checked=%r)" % (self.checked,)
        return "ValidationReport(%d violations)" % len(self.violations)


class TruncatedSSet:
    """Levelwise finite simplicial set truncated at `dim`.

    levels[k]   list of simplex ids (strings), 0 <= k <= dim
    face[k,i]   dict id -> id, level k -> level k-1, 1 <= k <= dim, 0 <= i <= k
    degen[k,j]  dict id -> id, level k -> level k+1, 0 <= k < dim, 0 <= j <= k
    coskeletal_at  optional c asserting the object is c-coskeletal
    base        optional 0-simplex id (pointed variant)

    A derived complex (nerve_2group, segal_nerve's lines, and what
    coskeletal_extend and loop_space make of them) may instead hold a
    level as Places and each operator out of it as the list of its target
    places; ids are made only for output (named_lists).

    The complex holds the level lists and operator dicts it is given, not
    copies: a builder hands over tables it has just made, or shares those
    of the object they came from.  Nothing writes into a table after
    construction.  It is read only through its levels, its operator
    tables (d_i of a cell c of level k is face[k, i][c], s_j of it
    degen[k, j][c]) and the caches built from them once each:
    face_table, face_index, face_codes and the memoised Kan rows.
    """

    def __init__(self, dim, levels, face, degen, coskeletal_at=None, base=None):
        if dim < 0:
            raise DimensionOutOfRange("dimension %d is negative" % dim)
        self.dim = dim
        self.levels = levels
        self.face = face
        self.degen = degen
        self.coskeletal_at = coskeletal_at
        self.base = base
        self._face_tables = {}
        self._face_indexes = {}
        self._face_codes = {}
        self._faces_compatible = {}
        self._alpha = {}
        self._kan_rows = {}

    # -- basic access ----------------------------------------------------

    def level(self, k):
        if not (0 <= k <= self.dim):
            raise DimensionOutOfRange("no level %d in a %d-truncation" % (k, self.dim))
        return self.levels[k]

    def face_table(self, k):
        """dict id -> (d_0 x, .., d_k x) over level k (0 <= k <= dim),
        built once (the object is immutable); empty at level 0, which
        has no faces."""
        table = self._face_tables.get(k)
        if table is None:
            if not (0 <= k <= self.dim):
                raise DimensionOutOfRange(
                    "no level %d in a %d-truncation" % (k, self.dim))
            table = self._face_tables[k] = tabulate_faces(
                self.levels[k], [self.face[k, i] for i in range(k + 1) if k])
        return table

    def face_index(self, k, skip=None):
        """dict face tuple -> the cells of level k (1 <= k <= dim) with
        that tuple, each list sorted.  With skip, the key is the horn
        horn_alpha(self, k - 1, skip) gives the cell, None in slot skip.
        Built once per (k, skip) (the object is immutable)."""
        index = self._face_indexes.get((k, skip))
        if index is None:
            if not (1 <= k <= self.dim):
                raise DimensionOutOfRange(
                    "no faces of level %d in a %d-truncation" % (k, self.dim))
            faces = self.face_table(k) if skip is None else \
                horn_alpha(self, k - 1, skip)
            index = self._face_indexes[k, skip] = group_cells(
                faces, faces.values())
        return index

    def deg_base(self, n, a):
        """The totally degenerate n-simplex s_0^n(a)."""
        x = a
        for k in range(n):
            x = self.degen[k, 0][x]
        return x

    def is_reduced(self):
        return len(self.levels[0]) == 1

    def degenerate_ids(self, k):
        """Ids in level k that are in the image of some degeneracy."""
        return set().union(*[column(self.levels[k - 1], (self.degen[k - 1, j],))
                             for j in range(k)])

    def nondegenerate_counts(self):
        return [len(self.levels[k]) - len(self.degenerate_ids(k))
                for k in range(self.dim + 1)]

    # -- validation -------------------------------------------------------

    def validate(self):
        errs = []
        sets = [set(l) for l in self.levels]
        for name, k, i in operator_keys(self.dim):
            step = STEPS[name]
            errs += totality_failures(
                LABELS[name], "(%d,%d)" % (k, i),
                getattr(self, name).get((k, i)), self.levels[k],
                sets[k + step], k + step)
        if errs:
            return ValidationReport(errs, "totality only (maps missing)")
        d, s = self.face, self.degen
        # (name, level, identities tagged (i, j)) in the order reported,
        # with the identities of the module docstring
        checks = [("dd", k, dd_identities(d, k))
                  for k in range(2, self.dim + 1)]
        checks += [("ss", k, [((s[k, j], s[k + 1, i]),
                               (s[k, i], s[k + 1, j + 1]), (i, j))
                              for j in range(k + 1) for i in range(j + 1)])
                   for k in range(self.dim - 1)]
        checks += [("ds", k, [((s[k, j], d[k + 1, i]),
                               () if j <= i <= j + 1 else
                               (d[k, i], s[k - 1, j - 1]) if i < j else
                               (d[k, i - 1], s[k - 1, j]), (i, j))
                              for j in range(k + 1) for i in range(k + 2)])
                   for k in range(self.dim)]
        for name, k, identities in checks:
            errs += ["%s identity fails at %s (k=%d,i=%d,j=%d)"
                     % (name, x, k, i, j)
                     for x, (i, j) in identity_failures(self.levels[k],
                                                        identities)]
        if not errs:
            # faces land in their levels and the dd identities hold
            self._faces_compatible.update(dict.fromkeys(range(self.dim), True))
        if self.base is not None and self.base not in sets[0]:
            errs.append("base %s is not a 0-simplex" % self.base)
        if self.coskeletal_at is not None and not errs:
            # faces_compatible holds, so alpha^m is decided by count
            c = self.coskeletal_at
            for m in range(max(c, 0), self.dim):
                if alpha_bijective(self, m) != (True, True):
                    errs.append("coskeletal_at=%d violated: alpha^%d not bijective" % (c, m))
        return ValidationReport(errs, "identities in dims <= %d" % self.dim)


# -- operator tables ---------------------------------------------------------
#
# Every derived complex is built by build_sset, which fills the tables
# listed by operator_keys; validate requires the same keys.

# each operator table, the step from its source level to its target
# level, and its name in reports
STEPS = {"face": -1, "degen": 1}
LABELS = {"face": "face", "degen": "degeneracy"}


def operator_keys(dim):
    """(table, k, i) for every operator a dim-truncation carries: faces
    (k, i) for 1 <= k <= dim, then degeneracies (k, j) for k < dim, each
    with 0 <= i <= k, in that order."""
    return [(name, k, i) for name, step in STEPS.items()
            for k in range(dim + 1) if 0 <= k + step <= dim
            for i in range(k + 1)]


def build_sset(dim, levels, op, coskeletal_at=None, base=None):
    """The TruncatedSSet whose table `table` holds op(table, k, i) at
    (k, i) for each key of operator_keys(dim).  It holds the lists of
    `levels` and the dicts op returns as they are, not copies."""
    tables = {name: {} for name in STEPS}
    for name, k, i in operator_keys(dim):
        tables[name][k, i] = op(name, k, i)
    return TruncatedSSet(dim, list(levels), tables["face"], tables["degen"],
                         coskeletal_at, base)


def truncate(x_sset, dim):
    """The truncation of X at dim <= X.dim: levels 0..dim and the
    operators among them, with X's coskeletal flag and base.  It shares
    X's level lists and operator tables."""
    if not 0 <= dim <= x_sset.dim:
        raise DimensionOutOfRange(
            "cannot truncate a %d-truncation at %d" % (x_sset.dim, dim))
    return build_sset(dim, x_sset.levels[:dim + 1],
                      lambda name, k, i: getattr(x_sset, name)[k, i],
                      x_sset.coskeletal_at, x_sset.base)


class Places(list):
    """A level held as its places 0 .. n - 1, each cell its own place;
    names() makes the function place -> string id.  Every object that
    shares the level list shares its names."""

    def __init__(self, n, names):
        super().__init__(range(n))
        self.names = names


def namer(cells):
    """cell -> its string id, over the cells of one level: the cell
    itself, unless the level is Places."""
    return cells.names() if isinstance(cells, Places) else lambda c: c


def named_lists(x_sset):
    """(ids, images, base): the string ids of each level k, of the images
    of level k under each operator (table name, k, i) and of the base, as
    lists in level order; a list table is read through the ids of its
    target level, and no dict table is built."""
    ids = [list(map(namer(cells), cells)) for cells in x_sset.levels]
    images = {}
    for name, step in STEPS.items():
        for (k, i), mp in getattr(x_sset, name).items():
            chain = (mp, ids[k + step]) if isinstance(
                x_sset.levels[k + step], Places) else (mp,)
            images[name, k, i] = column(x_sset.levels[k], chain)
    base = None if x_sset.base is None else \
        namer(x_sset.levels[0])(x_sset.base)
    return ids, images, base


def named(x_sset):
    """X with every cell under its string id, in the same level order
    and operator key order; X itself when no level is Places."""
    if not any(isinstance(cells, Places) for cells in x_sset.levels):
        return x_sset
    ids, images, base = named_lists(x_sset)
    tables = {name: {(k, i): dict(zip(ids[k], images[name, k, i]))
                     for k, i in getattr(x_sset, name)} for name in STEPS}
    return TruncatedSSet(x_sset.dim, ids, tables["face"], tables["degen"],
                         x_sset.coskeletal_at, base)


def tabled(cells, images):
    """The operator table out of the level cells with these images, in
    level order: the list itself over Places, else a dict cell -> image."""
    return images if isinstance(cells, Places) else dict(zip(cells, images))


def cells_at(cells, places):
    """The cells of the level cells at these places, as a list: places
    itself over Places."""
    return places if isinstance(cells, Places) else column(places, (cells,))


def sublevel(cells, keep):
    """The cells keep of the level cells, in their order, as a level:
    Places under their ids when cells is Places, else keep itself."""
    return keep if not isinstance(cells, Places) else Places(
        len(keep), lambda: list(map(namer(cells), keep)).__getitem__)


# -- column-wise checks --------------------------------------------------
#
# A whole level goes through the operator dicts at once; the cells are
# walked one by one only to name a failure.

_UNDEFINED = object()


def column(cells, chain):
    """The images of cells under the tables of chain (dicts, or lists
    over places), first to last, as one list."""
    for mp in chain:
        cells = list(map(mp.__getitem__, cells))
    return cells


def relabel(cells, mp, src=None, dst=None):
    """{src[c]: dst[mp[c]]} over cells, src and dst the identity where
    None, one column at a time.  Where src sends two cells to one key,
    the key keeps its first place and takes the last image."""
    keys = cells if src is None else column(cells, (src,))
    chain = (mp,) if dst is None else (mp, dst)
    return dict(zip(keys, column(cells, chain)))


def group_cells(cells, keys):
    """dict key -> the cells with that key, each list sorted; keys are
    zipped with cells and come in order of first appearance."""
    index = {}
    for c, key in zip(cells, keys):
        index.setdefault(key, []).append(c)
    for group in index.values():
        group.sort()
    return index


def product_columns(lists):
    """The elements of itertools.product(*lists), in its order, as one
    column per factor and no tuple per element (product_column of each
    factor on its own slot)."""
    sizes = list(map(len, lists))
    return [product_column(xs, sizes, (n,)) for n, xs in enumerate(lists)]


def product_column(table, sizes, slots):
    """The column, over itertools.product(*map(range, sizes)) in its
    order, whose entry at (i_0, .., i_k) is the entry of table at the
    indexes i_n of the slots n in `slots` (increasing): table lists one
    value per element of the product of those slots' sizes, in product
    order.  Built by list repetition from the last slot out: each entry
    repeats by the product of the sizes after the last slot, each block
    of a slot's entries by the product of the sizes between it and the
    next slot, and the whole by the product of the sizes before the
    first."""
    if 0 in sizes:
        return []
    block = math.prod(sizes[slots[-1] + 1:] if slots else sizes)
    col = list(chain.from_iterable(map(repeat, table,
                                       repeat(block, len(table)))))
    for n in reversed(range(len(slots) - 1)):
        block *= sizes[slots[n + 1]]
        gap = math.prod(sizes[slots[n] + 1:slots[n + 1]])
        if gap > 1:
            col = list(chain.from_iterable(map(operator.mul, map(
                col.__getitem__, map(slice, range(0, len(col), block),
                                     range(block, len(col) + block, block))),
                repeat(gap))))
            block *= gap
    return col * math.prod(sizes[:slots[0]] if slots else ())


def tabulate_faces(cells, maps):
    """dict cell -> (m_0 cell, .., m_n cell) over cells, zipped from one
    column per map; empty when there are no maps."""
    return dict(zip(cells, zip(*[column(cells, (mp,)) for mp in maps])))


def totality_failures(name, key, mp, cells, target, level):
    """The violations of the operator dict mp (the `name` map `key`, or
    None when missing) on cells: a cell it is undefined on, or one it
    sends outside the set target of level `level`; in cell order."""
    if mp is None:
        return ["missing %s map %s" % (name, key)]
    if isinstance(mp, list):
        # a list table is defined on the places 0 .. len(mp) - 1
        mp = dict(enumerate(mp))
    images = list(map(mp.get, cells, repeat(_UNDEFINED)))
    if target.issuperset(images):
        return []
    return ["%s %s undefined on %s" % (name, key, x) if y is _UNDEFINED
            else "%s %s(%s) lands outside level %s" % (name, key, x, level)
            for x, y in zip(cells, images) if y not in target]


def identity_failures(cells, identities):
    """(cell, tag) for each cell on which an identity (lhs, rhs, tag)
    fails, the two chains of dicts sending it to different cells; sorted
    by (cell position, identity index).  Both sides are computed a whole
    column at a time, and the cells are walked only where they differ."""
    bad = []
    for n, (lhs, rhs, _) in enumerate(identities):
        got, want = column(cells, lhs), column(cells, rhs)
        if got != want:
            bad += [(pos, n) for pos, (a, b) in enumerate(zip(got, want))
                    if a != b]
    return [(cells[pos], identities[n][2]) for pos, n in sorted(bad)]


def dd_identities(face, k):
    """d_i d_j = d_{j-1} d_i on level k for i < j, tagged (i, j), over
    face dicts keyed (level, index)."""
    return [((face[k, j], face[k - 1, i]), (face[k, i], face[k - 1, j - 1]),
             (i, j)) for j in range(1, k + 1) for i in range(j)]


# -- boundary / horn tuples ---------------------------------------------


def compatible_tuples(n, fcols, m, skip=None, count=False):
    """All (m+2)-tuples (a_0..a_{m+1}) of places of a level of n cells
    with d_i a_j = d_{j-1} a_i for i < j, slot `skip` (if given) left
    out: one column of places per slot, None at skip, the tuples in
    lexicographic order; with count=True only their number.

    fcols[i][c] is d_i of place c (0 <= i <= m), any hashable; it is not
    read when m == 0, where there are no conditions.  The candidates for
    slot j are bucketed by the faces the earlier slots force on them,
    each bucket in place order.  Every tuple is extended one slot at a
    time: a new row keeps the row it extends, and the earlier columns
    are gathered once through those links.  In count mode the rows stop
    two slots short, and the last two slots are counted together: per
    row, the candidates for the next slot, grouped by the face d_{last-1}
    that the last slot reads off them, each group weighing its size
    times the size of the last slot's bucket for that face.
    """
    slots = [j for j in range(m + 2) if j != skip]
    if count and not m:
        return n ** len(slots)
    cols, rows = [], 1
    for j in slots[:-2] if count else slots:
        prior = slots[:len(cols)] if m else []
        bucket = {}
        for key, a in zip(_zipped([fcols[i] for i in prior], n), range(n)):
            bucket.setdefault(key, []).append(a)
        hits = list(map(bucket.get, _row_keys(fcols, cols, prior, j, rows),
                        repeat(())))
        link = [r for r, hit in enumerate(hits) for _ in hit]
        cols = [list(map(col.__getitem__, link)) for col in cols]
        cols.append(list(chain.from_iterable(hits)))
        rows = len(link)
    if not count:
        if skip is not None:
            cols.insert(skip, None)
        return cols
    nxt, last = slots[-2:]
    prior = slots[:-2]
    # the last slot's bucket sizes, keyed by its faces at prior + [nxt]
    sizes = collections.Counter(zip(*[fcols[i] for i in prior + [nxt]]))
    # the next slot's candidates by key, grouped by their face d_{last-1}
    groups = {}
    for key, c in collections.Counter(zip(*[fcols[i] for i in prior],
                                          fcols[last - 1])).items():
        groups.setdefault(key[:-1], []).append((key[-1], c))
    return sum([c * sizes.get(key + (face,), 0)
                for key2, key in zip(*[_row_keys(fcols, cols, prior, j, rows)
                                       for j in (nxt, last)])
                for face, c in groups.get(key2, ())])


def _zipped(cols, n):
    """The tuples across cols, n empty ones when there are no cols."""
    return zip(*cols) if cols else repeat((), n)


def _row_keys(fcols, cols, prior, j, rows):
    """Per row, the faces d_{j-1} a_i of its places a_i in the prior
    slots, which slot j's candidates must have as their faces d_i."""
    return _zipped([map(fcols[j - 1].__getitem__, col)
                    for col in cols[:len(prior)]], rows)


def boundary_tuples(x_sset, m):
    """The maps from the boundary of the (m+1)-simplex: the (m+2)-tuples
    (a_0..a_{m+1}) of m-simplices with d_i a_j = d_{j-1} a_i for i < j,
    as compatible_tuples lists them, one column of places of level m per
    slot, read off the face codes of level m (face_cols)."""
    if not (0 <= m <= x_sset.dim):
        raise DimensionOutOfRange("boundary tuples need level %d" % m)
    return compatible_tuples(len(x_sset.levels[m]), face_cols(x_sset, m), m)


def horn_tuples(x_sset, m, k):
    """The maps out of the k-horn of the (m+1)-simplex, as
    boundary_tuples lists them with slot k left out (its column None)."""
    if not (0 <= m <= x_sset.dim):
        raise DimensionOutOfRange("horn tuples need level %d" % m)
    if not (0 <= k <= m + 1):
        raise BadHornIndex("horn index %d out of range for m=%d" % (k, m))
    return compatible_tuples(len(x_sset.levels[m]), face_cols(x_sset, m), m,
                             skip=k)


def face_cols(x_sset, m):
    """The face columns of level m as compatible_tuples reads them: the
    columns of the face codes of level m over level m - 1 (none at
    level 0)."""
    return face_codes(x_sset, m - 1).cols if m else []


def horn_alpha(x_sset, m, k):
    """alpha^{m,k}: level[m+1] -> horn tuples (None in slot k)."""
    if m + 1 > x_sset.dim:
        raise DimensionOutOfRange("alpha^{%d,%d} needs level %d" % (m, k, m + 1))
    return {x: t[:k] + (None,) + t[k + 1:]
            for x, t in x_sset.face_table(m + 1).items()}


class KanRow:
    """Kan status of one dimension: per horn index k, surjectivity and
    injectivity of alpha^{m,k}, and the minimality condition in
    dimension m."""

    def __init__(self, m, flags, witness, minimal):
        self.m = m
        self.flags = flags          # k -> (surjective, injective)
        self.witness = witness
        self.minimal = minimal

    @property
    def kan(self):
        return all(s for s, _ in self.flags.values())


class FaceCodes:
    """Level m+1 of a complex through its faces, as places in level m.

    n       the base: |level m|, plus one place per face value outside
            level m (taken in order of first appearance)
    inside  whether every face of level m+1 lies in level m
    cols    cols[i][c], the place of d_i of the c-th cell of level m+1
    codes   codes[c], the face tuple of that cell packed into one int,
            the sum of cols[i][c] * n ** (m + 1 - i)

    Two cells have the same face tuple iff they have the same code, and
    the same faces away from slot k iff codes - cols[k] * n ** (m + 1 - k)
    agree."""

    def __init__(self, n, inside, cols, codes):
        self.n = n
        self.inside = inside
        self.cols = cols
        self.codes = codes


def face_codes(x_sset, m):
    """The FaceCodes of level m+1 over level m, built once per
    (immutable) complex and m.  Where both levels are Places and every
    face table is a list of places of level m, the tables are the
    columns themselves; otherwise one rank dict over level m gives each
    face its place."""
    fc = x_sset._face_codes.get(m)
    if fc is None:
        below, cells = x_sset.levels[m], x_sset.levels[m + 1]
        tables = [x_sset.face[m + 1, i] for i in range(m + 2)]
        n = len(below)
        inside = isinstance(below, Places) and isinstance(cells, Places) \
            and all(_holds_places(t, len(cells), n) for t in tables)
        if inside:
            cols = tables
        else:
            rank = dict(zip(below, range(n)))
            n, cols = len(rank), []
            for table in tables:
                faces = column(cells, (table,))
                try:
                    cols.append(list(map(rank.__getitem__, faces)))
                except KeyError:
                    for a in faces:
                        rank.setdefault(a, len(rank))
                    cols.append(list(map(rank.__getitem__, faces)))
            n, inside = len(rank), len(rank) == n
        fc = x_sset._face_codes[m] = FaceCodes(n, inside, cols, _pack(cols, n))
    return fc


def _holds_places(table, size, n):
    """Whether table is a list of size places 0 .. n - 1."""
    if not isinstance(table, list) or len(table) != size:
        return False
    try:
        return not table or (min(table) >= 0 and max(table) < n)
    except TypeError:       # an entry that is not a number
        return False


def _pack(cols, n):
    """sum_i cols[i][c] * n ** (len(cols) - 1 - i) for each c, a column
    at a time."""
    codes = cols[0]
    for col in cols[1:]:
        codes = [a * n + b for a, b in zip(codes, col)]
    return codes


def faces_compatible(x_sset, m):
    """Whether every face tuple of level m+1 is a boundary tuple of
    level m: its entries lie in level m and d_i a_j = d_{j-1} a_i for
    i < j (the dd identities on level m+1).  Then the image of alpha^m,
    and with slot k dropped that of alpha^{m,k}, lies among the
    compatible tuples, so alpha is onto iff the image is as large as
    their count.  Read from the face codes of levels m+1 and m: each dd
    identity is two gathers of one face column of level m through
    another of level m+1.  Decided once per (immutable) complex and m."""
    ok = x_sset._faces_compatible.get(m)
    if ok is None:
        fc = face_codes(x_sset, m)
        cols, ok = fc.cols, fc.inside
        if ok and m:
            below = face_codes(x_sset, m - 1).cols
            ok = all(list(map(below[i].__getitem__, cols[j])) ==
                     list(map(below[j - 1].__getitem__, cols[i]))
                     for j in range(1, m + 2) for i in range(j))
        x_sset._faces_compatible[m] = ok
    return ok


def alpha_bijective(x_sset, m):
    """(surjective, injective) for alpha^m: x -> (d_0 x, .., d_{m+1} x)
    on level m+1, whose image is the set of face codes.  When
    faces_compatible holds the image lies among the boundary tuples,
    which are distinct, so alpha^m is onto iff the image is as large as
    their count; otherwise some face tuple is not a boundary tuple, so
    the image is not the set of boundary tuples, and no tuple is
    listed.  Decided once per (immutable) complex and m."""
    flags = x_sset._alpha.get(m)
    if flags is None:
        fc = face_codes(x_sset, m)
        image = len(set(fc.codes))
        surj = faces_compatible(x_sset, m) and image == compatible_tuples(
            len(x_sset.levels[m]), face_cols(x_sset, m), m, count=True)
        flags = x_sset._alpha[m] = (surj, image == len(fc.codes))
    return flags


def alpha_injective(x_sset, m):
    """Whether alpha^m is one-to-one: the face codes of level m+1 are
    distinct (read from alpha_bijective's flags once decided)."""
    flags = x_sset._alpha.get(m)
    if flags is not None:
        return flags[1]
    codes = face_codes(x_sset, m).codes
    return len(set(codes)) == len(codes)


def kan_status(x_sset, m):
    """Decide surjectivity/injectivity of alpha^{m,k} for 0 <= k <= m+1,
    and minimality in dimension m.

    Per k, the cells of level m+1 are keyed by their horn, the face code
    less its slot k, codes - cols[k] * n ** (m + 1 - k): a repeated key
    breaks injectivity, and, if the two cells' k-th faces differ,
    minimality.  When faces_compatible holds, alpha^{m,k} is onto iff
    the count of horn tuples equals the number of keys; the horns are
    listed, to name the first one without a filler, only when the count
    is larger or the condition fails.

    If level m+1 is not stored but the complex carries a coskeletal flag,
    the complex is extended first.  The row is computed once per (immutable)
    complex and m; later calls return the same KanRow.
    """
    row = x_sset._kan_rows.get(m)
    if row is not None:
        return row
    x = _ensure_depth(x_sset, m + 1)
    counted = faces_compatible(x, m)
    flags, witness = {}, {}
    minimal = True
    for k in range(m + 2):
        surj, inj, minimal_k = _horn_flags(x, m, k, counted, witness)
        flags[k] = (surj, inj)
        minimal = minimal and minimal_k
    row = x_sset._kan_rows[m] = KanRow(m, flags, witness, minimal)
    return row


def _horn_flags(x, m, k, counted, witness):
    """(surjective, injective, minimal at k) for alpha^{m,k} on level
    m+1 of x, as kan_status decides them, with a witness of each failure
    put in `witness`.  The keys of one k are freed before the next k
    makes its own."""
    fc = face_codes(x, m)
    col = fc.cols[k]

    def horn_keys():
        return map(operator.sub, fc.codes,
                   map(operator.mul, col, repeat(fc.n ** (m + 1 - k))))

    seen = set(horn_keys())
    inj = len(seen) == len(col)
    minimal = True
    if not inj:
        keys = list(horn_keys())
        # each cell against the first cell with its horn, by place; the
        # witness is the last repeat
        at = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        first = list(map(at.__getitem__, keys))
        rep = next(c for c in range(len(keys) - 1, -1, -1) if first[c] != c)
        cells = x.levels[m + 1]
        witness[(k, "inj")] = (cells[first[rep]], cells[rep])
        minimal = list(map(col.__getitem__, first)) == col
    surj = counted and len(seen) == compatible_tuples(
        len(x.levels[m]), face_cols(x, m), m, skip=k, count=True)
    if not surj:
        # each horn packed as fc packs the face tuples, place 0 at slot k
        horns = horn_tuples(x, m, k)
        zeros = [0] * len(horns[k - 1])     # slot k - 1 is not skipped
        codes = _pack([zeros if col is None else col for col in horns], fc.n)
        t = next((t for t, key in enumerate(codes) if key not in seen), None)
        surj = t is None
        if not surj:
            witness[(k, "surj")] = tuple(
                None if col is None else x.levels[m][col[t]] for col in horns)
    return surj, inj, minimal


def _ensure_depth(x_sset, depth):
    if x_sset.dim >= depth:
        return x_sset
    c = x_sset.coskeletal_at
    if c is not None and c <= x_sset.dim + 1:
        return coskeletal_extend(x_sset, depth)
    raise DimensionOutOfRange(
        "need level %d but truncation stops at %d (%s)" % (
            depth, x_sset.dim, "no coskeletal flag" if c is None else
            "coskeletal_at=%d extends only from level %d" % (c, c - 1)))


def minimality_at(x_sset, m):
    """Minimality condition in dimension m: simplices of level m+1 whose
    faces agree away from slot k also agree at slot k.  Read from the
    memoised Kan row, whose pass over each alpha^{m,k} decides it."""
    return kan_status(x_sset, m).minimal


class ClassifyReport:
    def __init__(self, n, n_coskeletal, weakly_n_coskeletal, n_minimal,
                 n_kan_groupoid, checked_dims, detail):
        self.n = n
        self.n_coskeletal = n_coskeletal
        self.weakly_n_coskeletal = weakly_n_coskeletal
        self.n_minimal = n_minimal
        self.n_kan_groupoid = n_kan_groupoid
        self.checked_dims = checked_dims
        self.detail = detail

    def __repr__(self):
        return ("ClassifyReport(n=%d, cosk=%s, weak=%s, min=%s, kan_grpd=%s, dims=%s)"
                % (self.n, self.n_coskeletal, self.weakly_n_coskeletal,
                   self.n_minimal, self.n_kan_groupoid, self.checked_dims))


def classify(x_sset, n):
    """Coskeletal / weakly coskeletal / minimal / n-Kan-groupoid flags,
    over the stored range only; n_kan_groupoid and checked_dims are
    kan_groupoid's."""
    x = x_sset
    top = x.dim - 1      # largest m with level m+1 stored
    detail = {("alpha", m): alpha_bijective(x, m) for m in range(n, top + 1)}
    cosk = all(s and i for s, i in detail.values())
    detail.update((("minimal", m), minimality_at(x, m))
                  for m in range(n, top + 1))
    minimal = all(detail["minimal", m] for m in range(n, top + 1))
    detail.update((("kan", m), kan_status(x, m).flags)
                  for m in range(1, min(n + 1, top) + 1))
    groupoid, checked = kan_groupoid(x, n)
    return ClassifyReport(n, cosk, weakly_coskeletal(x, n), minimal,
                          groupoid, checked, detail)


def weakly_coskeletal(x_sset, n):
    """Whether alpha^n is one-to-one and alpha^m bijective for every
    stored n < m (level m+1 stored)."""
    return (n >= x_sset.dim or alpha_injective(x_sset, n)) and all(
        alpha_bijective(x_sset, m) == (True, True)
        for m in range(n + 1, x_sset.dim))


def kan_groupoid(x_sset, n):
    """(n_kan_groupoid, checked_dims) of classify: weakly n-coskeletal,
    Kan extension in dimensions 1..n+1 and minimality in dimension n,
    each over the stored range (a minimality past it counts as held).
    The onto-ness of alpha^n, which only n_coskeletal reads, is not
    decided."""
    top = x_sset.dim - 1
    ok = weakly_coskeletal(x_sset, n) and all(
        kan_status(x_sset, m).kan for m in range(1, min(n + 1, top) + 1)) \
        and (n > top or minimality_at(x_sset, n))
    return ok, "alpha on %d..%d, kan on 1..%d" % (n, top, min(n + 1, top))


# -- coskeletal machinery -------------------------------------------------


def _tuple_id(parts):
    return "(" + ",".join(parts) + ")"


def _tuple_names(below, cols):
    """place -> _tuple_id of the ids of its faces cols[i][place] below."""
    name = namer(below)
    return list(map(_tuple_id, zip(*[map(name, c) for c in cols]))).__getitem__


def coskeletal_extend(x_sset, to_dim):
    """Extend levels above the stored cutoff with boundary tuples, in the
    order boundary_tuples lists them: a complex on Places stays on Places
    (list tables, ids made on demand by _tuple_names), one on string ids
    gets _tuple_id ids and dicts.

    New faces are the columns boundary_tuples gives, mapped through
    level m when it holds string ids; new degeneracies follow
    s_i(a) = (b_0..b_{m+1}) with b_k = s_{i-1} d_k a for k < i,
    b_k = a for k in {i, i+1} and b_k = s_i d_{k-1} a for k > i+1,
    one lookup of tuples built a column at a time.
    """
    if x_sset.coskeletal_at is None:
        raise NotCoskeletal("complex carries no coskeletal flag")
    if x_sset.coskeletal_at > x_sset.dim + 1:
        raise NotCoskeletal("flag %d exceeds stored dim+1" % x_sset.coskeletal_at)
    if to_dim <= x_sset.dim:
        return x_sset
    # the new levels and maps are added to shallow copies of the
    # input's, and each complex built on the way holds copies of its own
    levels = list(x_sset.levels)
    face = dict(x_sset.face)
    degen = dict(x_sset.degen)
    cur = x_sset
    for new_dim in range(x_sset.dim + 1, to_dim + 1):
        m = new_dim - 1
        cols = [cells_at(levels[m], col) for col in boundary_tuples(cur, m)]
        if isinstance(levels[m], Places):
            cells = Places(len(cols[0]), functools.partial(
                _tuple_names, levels[m], cols))
        else:
            cells = list(map(_tuple_id, zip(*cols)))
        levels.append(cells)
        for i, col in enumerate(cols):
            face[new_dim, i] = tabled(cells, col)
        # s_j a is a boundary tuple when the identities hold; its id is
        # spelled out only when it is not
        id_of = dict(zip(zip(*cols), cells))
        for j in range(m + 1):
            parts = list(zip(*[
                levels[m] if k in (j, j + 1) else column(levels[m], (
                    face[m, k - (k > j)], degen[m - 1, j - (k < j)]))
                for k in range(m + 2)]))
            images = list(map(id_of.get, parts))
            if None in images:
                name = namer(levels[m])
                images = [_tuple_id(map(name, t)) if c is None else c
                          for t, c in zip(parts, images)]
            degen[m, j] = tabled(levels[m], images)
        cur = TruncatedSSet(new_dim, list(levels), dict(face), dict(degen),
                            coskeletal_at=x_sset.coskeletal_at, base=x_sset.base)
    return cur


def csq_prime(x_sset, n):
    """Quotient level n+1 by the equal-faces relation and rebuild the
    levels above coskeletally.  Returns (Y, level_maps) where level_maps
    sends old ids to new ids on levels 0..n+1 (a class to its least id)."""
    if n + 1 > x_sset.dim:
        raise DimensionOutOfRange("csq' needs level %d" % (n + 1))
    x = named(x_sset)
    # classes of the equal-faces relation on level n+1
    rep = {}
    for cls in x.face_index(n + 1).values():
        for s in cls:
            rep[s] = cls[0]
    levels = x.levels[:n + 1] + [sorted(set(rep.values()))]

    def op(name, k, i):
        # the operators into and out of level n+1 go through the classes
        mp = getattr(x, name)[k, i]
        if k == n + 1:
            return relabel(x.level(k), mp, src=rep)
        if name == "degen" and k == n:
            return relabel(x.level(k), mp, dst=rep)
        return mp

    out = build_sset(n + 1, levels, op, coskeletal_at=n + 1, base=x.base)
    if x.dim > n + 1:
        out = coskeletal_extend(out, x.dim)
    maps = {k: {s: s for s in x.levels[k]} for k in range(n + 1)}
    maps[n + 1] = dict(rep)
    return out, maps


# -- loop spaces -----------------------------------------------------------


def loop_space(x_sset, variant="plain", base=None):
    """Combinatorial loop space.

    plain:   level n = simplices of level n+1 whose last face is the
             totally degenerate base.
    reduced: input must be reduced; additionally every iterated face
             d_{i_j} (indices 0 <= i_j <= top-1 at each step) lands on
             the degenerate 1-simplex.

    Level n lists the simplices it keeps in their order in level n+1
    (sublevel).
    """
    x = x_sset
    if x.dim < 2:
        raise DimensionOutOfRange("loop space needs dim >= 2")
    if variant == "reduced" and not x.is_reduced():
        raise SimplicialError("reduced loop space needs a reduced complex")
    a = base if base is not None else x.base
    if a is None and x.is_reduced():
        a = x.level(0)[0]
    if a not in x.level(0):
        raise SimplicialError("no base point" if a is None else
                              "base %s is not a 0-simplex" % a)
    dim = x.dim - 1
    keep = []
    star1 = x.deg_base(1, a)
    for n in range(dim + 1):
        bn = x.deg_base(n, a)
        lvl = []
        for s in x.level(n + 1):
            if x.face[n + 1, n + 1][s] != bn:
                continue
            if variant == "reduced" and n == 0 and s != star1:
                # level 0 of the reduced variant is the degenerate loop only
                continue
            if variant == "reduced" and n >= 1:
                frontier = {s}
                for k in range(n + 1, 1, -1):       # d_i, 0 <= i <= k - 1
                    frontier = {x.face[k, i][t] for t in frontier
                                for i in range(k)}
                if frontier != {star1}:
                    continue
            lvl.append(s)
        keep.append(lvl)
    sets = [set(l) for l in keep]
    if not all(sets[n - 1].issuperset(column(keep[n], (x.face[n + 1, i],)))
               for n in range(1, dim + 1) for i in range(n + 1)):
        raise SimplicialError("loop space not closed under faces")
    levels = [sublevel(x.level(n + 1), keep[n]) for n in range(dim + 1)]
    # a kept simplex of x -> its cell in the loop space
    cell = [dict(zip(keep[n], levels[n])) for n in range(dim + 1)]
    return build_sset(dim, levels, lambda name, k, i: tabled(
        levels[k], column(keep[k], (getattr(x, name)[k + 1, i],
                                    cell[k + STEPS[name]]))),
                      base=cell[0][star1])


# -- homotopy groups -------------------------------------------------------


def pi0(x_sset):
    """Coequalizer of d_0, d_1 : level 1 -> level 0, as the sorted least
    vertex of each component."""
    edges = x_sset.face_table(1).values() if x_sset.dim >= 1 else ()
    return sorted(set(components(x_sset.level(0), edges).values()))


def pi(x_sset, m, base=None):
    """Combinatorial homotopy group in dimension m >= 1 at the base.

    Requires Kan certification in dimensions 1..m+1 (extending a flagged
    coskeletal complex when the top level is missing); refuses otherwise.
    """
    return pi_with_classes(x_sset, m, base)[0]


def pi_with_classes(x_sset, m, base=None):
    """Like pi() but also returns the sphere -> class-representative map."""
    a = base if base is not None else x_sset.base
    if m == 0:
        return pi0(x_sset), {}
    if a not in x_sset.level(0):
        raise SimplicialError("pi_m needs a base 0-simplex" if a is None
                              else "base %s is not a 0-simplex" % a)
    x = _ensure_depth(x_sset, m + 2) if (
        x_sset.coskeletal_at is not None and x_sset.dim < m + 2) else x_sset
    if x.dim < m + 1:
        raise DimensionOutOfRange("pi_%d needs level %d" % (m, m + 1))
    certified_to = min(m + 1, x.dim - 1)
    for mm in range(1, certified_to + 1):
        if not kan_status(x, mm).kan:
            raise NotKan("Kan extension fails in dimension %d" % mm)
    if certified_to < m:
        raise NotKan("cannot certify Kan up to dimension %d (range stops at %d)"
                     % (m, certified_to))

    spheres, related, products = _pi_cells(x, m, a)
    d = [x.face[m + 1, i] for i in range(m + 2)]
    rel = set(zip(column(related, (d[m + 1],)), column(related, (d[m],))))
    classes = equivalence_classes(
        spheres, lambda s, t: (s, t) in rel,
        lambda law, s: NotKan("homotopy relation not %s%s"
                              % (law, "" if s is None else " at %s" % s)))
    reps = sorted(set(classes.values()))

    # product via the filler condition: for z in level m+1 with
    # d_{m+1} z = x, d_{m-1} z = y and lower faces at the base,
    # x*y = d_m z.
    table = {}
    for key, val in zip(zip(column(products, (d[m + 1], classes)),
                            column(products, (d[m - 1], classes))),
                        column(products, (d[m], classes))):
        if table.setdefault(key, val) != val:
            raise NotKan("product not well defined at %r" % (key,))
    for p in reps:
        for q in reps:
            if (p, q) not in table:
                raise NotKan("product undefined at (%s, %s)" % (p, q))
    unit = classes[x.deg_base(m, a)]
    g = FiniteGroup(reps, table, unit, name="pi_%d" % m)
    errs = g.validate()
    if errs:
        raise NotKan("group axioms fail: %s" % errs[0])
    return g, classes


def _pi_cells(x, m, a):
    """What pi_m at the vertex a reads, in level order: the spheres (all
    faces s_0^{m-1} a), the (m+1)-simplices z relating two spheres (d_i z
    = s_0^m a for i < m, d_m z and d_{m+1} z spheres) and those
    multiplying them (d_i z = s_0^m a for i < m - 1, d_{m-1} z, d_m z
    and d_{m+1} z spheres).  Each test filters a column of faces."""
    def where(k, cells, tests):
        for i, test in tests:
            cells = list(compress(cells, map(test, column(
                cells, (x.face[k, i],)))))
        return cells

    bm, bm1 = [functools.partial(operator.eq, x.deg_base(n, a))
               for n in (m, m - 1)]
    spheres = where(m, x.level(m), [(i, bm1) for i in range(m + 1)])
    sphere = set(spheres).__contains__
    based = where(m + 1, x.level(m + 1), [(i, bm) for i in range(m - 1)])
    related = where(m + 1, based, [(m - 1, bm), (m, sphere),
                                   (m + 1, sphere)])
    products = where(m + 1, based, [(i, sphere) for i in (m + 1, m - 1, m)])
    return spheres, related, products


# -- standard complexes ----------------------------------------------------


def _monotone_maps(k, n):
    """Nondecreasing maps [k] -> [n], as tuples of their values, in
    lexicographic order."""
    return list(combinations_with_replacement(range(n + 1), k + 1))


def _mid(t):
    return "".join(str(v) for v in t)


def standard_simplex(n, dim):
    """The n-simplex truncated at `dim`; simplices are digit strings of
    nondecreasing vertex sequences."""
    maps = [_monotone_maps(k, n) for k in range(dim + 1)]
    levels = [[_mid(t) for t in ts] for ts in maps]

    def op(name, k, i):
        # d_i drops vertex i, s_i repeats it
        cut = (i, i + 1) if name == "face" else (i + 1, i)
        return dict(zip(levels[k], [_mid(t[:cut[0]] + t[cut[1]:])
                                    for t in maps[k]]))

    return build_sset(dim, levels, op, coskeletal_at=0 if n == 0 else n)


def generated_subcomplex(x_sset, seeds):
    """Ids per level of the smallest subcomplex containing the seeds.

    seeds: dict level -> iterable of ids.
    """
    keep = [set() for _ in range(x_sset.dim + 1)]
    stack = []
    for k, ids in seeds.items():
        for s in ids:
            if s not in keep[k]:
                keep[k].add(s)
                stack.append((k, s))
    while stack:
        k, s = stack.pop()
        if k >= 1:
            for i in range(k + 1):
                t = x_sset.face[k, i][s]
                if t not in keep[k - 1]:
                    keep[k - 1].add(t)
                    stack.append((k - 1, t))
        if k < x_sset.dim:
            for j in range(k + 1):
                t = x_sset.degen[k, j][s]
                if t not in keep[k + 1]:
                    keep[k + 1].add(t)
                    stack.append((k + 1, t))
    return [sorted(l) for l in keep]


def is_subcomplex(x_sset, ids_per_level):
    sets = [set(l) for l in ids_per_level]
    while len(sets) < x_sset.dim + 1:
        sets.append(set())
    for k in range(x_sset.dim + 1):
        cells = list(sets[k])
        if not set(x_sset.levels[k]).issuperset(cells) or not all(
                sets[k + step].issuperset(column(cells, (ops[k, i],)))
                for ops, step in ((x_sset.face, -1), (x_sset.degen, 1))
                if 0 <= k + step <= x_sset.dim for i in range(k + 1)):
            return False
    return True


def boundary_simplex(n, dim):
    """The boundary of the n-simplex, as a subcomplex of it."""
    full = standard_simplex(n, dim)
    seeds = {}
    if n >= 1:
        faces = [t for t in _monotone_maps(n - 1, n)
                 if len(set(t)) == n]  # injective (n-1)-faces
        seeds[n - 1] = [_mid(t) for t in faces]
    else:
        seeds[0] = []
    ids = generated_subcomplex(full, seeds)
    return restrict_to_subcomplex(full, ids)


def horn_complex(n, k, dim):
    """The k-horn of the n-simplex: the facets are the injective maps
    missing exactly one vertex, and the one missing vertex k is dropped."""
    full = standard_simplex(n, dim)
    faces = [t for t in _monotone_maps(n - 1, n)
             if len(set(t)) == n and (set(range(n + 1)) - set(t)) != {k}]
    ids = generated_subcomplex(full, {n - 1: [_mid(t) for t in faces]})
    return restrict_to_subcomplex(full, ids)


def restrict_to_subcomplex(x_sset, ids_per_level):
    if not is_subcomplex(x_sset, ids_per_level):
        raise NotSubcomplex("ids are not closed under faces/degeneracies")
    levels = [sorted(l) for l in ids_per_level]
    base = x_sset.base if x_sset.base in set(levels[0]) else None
    return build_sset(x_sset.dim, levels, lambda name, k, i: relabel(
        levels[k], getattr(x_sset, name)[k, i]), base=base)


def pair_id(a, b):
    """The id (a|b) of the pair of cells a, b in a product."""
    return "(%s|%s)" % (a, b)


def product(x_sset, y_sset):
    """Levelwise product with pair ids (x|y) of the (named) cells, each
    level in product order, x major (product_columns): the pull of the
    enriched homs (determinants._pull) reads a cell's pair off its
    position."""
    x_sset, y_sset = named(x_sset), named(y_sset)
    dim = min(x_sset.dim, y_sset.dim)
    cols = [product_columns([x_sset.level(k), y_sset.level(k)])
            for k in range(dim + 1)]
    levels = [list(map(pair_id, xs, ys)) for xs, ys in cols]

    def op(name, k, i):
        xs, ys = cols[k]
        return dict(zip(levels[k], map(
            pair_id, column(xs, (getattr(x_sset, name)[k, i],)),
            column(ys, (getattr(y_sset, name)[k, i],)))))

    base = None
    if x_sset.base is not None and y_sset.base is not None:
        base = pair_id(x_sset.base, y_sset.base)
    cosk = None
    if x_sset.coskeletal_at is not None and y_sset.coskeletal_at is not None:
        cosk = max(x_sset.coskeletal_at, y_sset.coskeletal_at)
    return build_sset(dim, levels, op, coskeletal_at=cosk, base=base)


def quotient_by_subcomplex(x_sset, ids_per_level):
    """Collapse a subcomplex to a point levelwise; class representatives
    are the least ids."""
    if not is_subcomplex(x_sset, ids_per_level):
        raise NotSubcomplex("quotient needs a subcomplex")
    sets = [set(l) for l in ids_per_level]
    while len(sets) < x_sset.dim + 1:
        sets.append(set())
    rep = []
    for k in range(x_sset.dim + 1):
        r = min(sets[k], default=None)
        rep.append({s: (r if s in sets[k] else s) for s in x_sset.level(k)})
    levels = [sorted(set(rep[k].values())) for k in range(x_sset.dim + 1)]
    base = min(sets[0], default=None)
    return build_sset(x_sset.dim, levels, lambda name, k, i: relabel(
        x_sset.level(k), getattr(x_sset, name)[k, i], rep[k],
        rep[k + STEPS[name]]), base=base)


def sq0_subcomplex(x_sset):
    """The subcomplex generated by all vertices (totally degenerate part)."""
    return generated_subcomplex(x_sset, {0: x_sset.level(0)})


def reduce_by_vertices(x_sset):
    """X / sq_0 X: identify all totally degenerate simplices levelwise."""
    return quotient_by_subcomplex(x_sset, sq0_subcomplex(x_sset))


def sphere(m, dim):
    """Delta^m / boundary, truncated at `dim`."""
    full = standard_simplex(m, dim)
    if m == 0:
        return full
    bnd = boundary_simplex(m, dim)
    ids = [sorted(bnd.level(k)) for k in range(dim + 1)]
    return quotient_by_subcomplex(full, ids)


def constant_sset(points, dim):
    return build_sset(dim, [points] * (dim + 1),
                      lambda *_: dict(zip(points, points)), coskeletal_at=0)


# -- simplicial map enumeration -------------------------------------------


class SSetMap:
    """Levelwise map between truncated simplicial sets."""

    def __init__(self, src, dst, components):
        self.src = src
        self.dst = dst
        self.components = components    # level -> dict id -> id

    def __call__(self, k, s):
        return self.components[k][s]

    def is_iso(self):
        return all(bijective(comp.values(), self.dst.level(k))
                   for k, comp in self.components.items())


def budget_ticker(message):
    """The budget guard of one search: a tick(*fields, n=1) that counts
    n evaluations per call and raises SearchBudgetExceeded once the
    count passes the cap, enumeration_budget() read once when the guard
    is made, with the text message.format(*fields, cap=<the cap>).
    Every message ends "exceeded {cap} evaluations"."""
    cap = enumeration_budget()
    count = 0

    def tick(*fields, n=1):
        nonlocal count
        count += n
        if count > cap:
            raise SearchBudgetExceeded(message.format(*fields, cap=cap))
    return tick


def completion_schedule(order, constraints):
    """The forward-checking schedule of a backtracking search.

    `order` lists the free variables in the order the search assigns
    them; `constraints` yields (constraint, variables) pairs, and a
    variable not in `order` counts as assigned before the search.
    Returns a dict that maps each variable of `order` to the constraints
    whose last variable it is, and None to the constraints with no free
    variable, each list in the order given.  A search that tests
    schedule[v] right after assigning v, and schedule[None] once before
    its first choice, tests every constraint once, when it first becomes
    decidable (Haralick & Elliott, AI 14, 1980).  It prunes the same
    tree as a search that retests every complete constraint after every
    assignment.
    """
    rank = {v: i for i, v in enumerate(order)}
    schedule = {v: [] for v in order}
    schedule[None] = []
    for con, variables in constraints:
        last = max((rank[v] for v in variables if v in rank), default=None)
        schedule[None if last is None else order[last]].append(con)
    return schedule


def scheduled_search(order, candidates, schedule, holds, assign, emit, tick):
    """The backtracking core of the determinant searches.

    Assigns the variables of `order` in turn, each value of
    candidates(v) stored as assign[v] while the subtree below it runs.
    `schedule` is a completion_schedule over `order` and holds(con)
    tests one of its constraints: schedule[None] at the root, schedule[v]
    right after each value of v.  tick() is called once per node entered
    and emit() once per leaf, i.e. per complete assignment that passed
    every constraint.
    """
    last = len(order)

    def rec(i):
        tick()
        if i == 0 and not all(holds(con) for con in schedule[None]):
            return
        if i == last:
            emit()
            return
        v = order[i]
        checks = schedule[v]
        for val in candidates(v):
            assign[v] = val
            for con in checks:
                if not holds(con):
                    break
            else:
                rec(i + 1)
            del assign[v]

    rec(0)


def map_search(levels, index, tick, pins=None):
    """The one forced/free search for simplicial and bisimplicial maps.

    `levels` lists the source's levels in assignment order, each as
    (level, forced, free).  A forced cell comes as (cell, source level,
    a, degen): one fixed degeneracy presentation of it, from the earlier
    level holding a, and its image is degen[image of a].  A free cell
    comes as (cell, faces), `faces` a tuple of (level, cell) pairs of
    at most two earlier levels, one run of two or more per level, and
    takes each cell of index[level][images of its faces] in turn; when
    pinned, only those in the collection pins[(level, cell)].

    Precondition: source and target satisfy the simplicial identities,
    and the faces of every level lie in levels of the search.  Then every
    degeneracy presentation of a cell gives the same image, and the faces
    of a forced image are the images of the cell's faces, by induction
    on the level (if s_j a = s_i b with j < i, then a = s_{i-1} d_j b
    and b = s_j d_{i-1} a), so neither is checked.

    Forward checking: the face key of each free cell (an itemgetter per
    level) is tested right after the last of its faces is set, forced
    cells first (completion_schedule).  One loop walks the free cells of
    all levels, each with an iterator over its candidates, forward past
    a candidate that passes (entering a level draws up its lists), back
    from an exhausted one.  tick(n=count) counts one evaluation per list
    drawn up and per candidate of each list opened (run to its end).

    Returns the maps in search order, each a dict level -> dict cell ->
    image with the levels in the order given, forced cells first.
    """
    pins = pins or {}
    comps = {lvl: {} for lvl, _, _ in levels}
    order = [(lvl, cell[0]) for lvl, forced, free in levels
             for cell in forced + free]

    def reader(faces):
        # a function of no arguments: the images of faces, as one tuple
        parts = [functools.partial(operator.itemgetter(*[c for _, c in run]),
                                   comps[lvl])
                 for lvl, run in groupby(faces, operator.itemgetter(0))]
        if len(parts) < 2:
            return parts[0] if parts else tuple
        first, second = parts
        return lambda: first() + second()

    readers = {(lvl, cell): reader(faces)
               for lvl, _, free in levels for cell, faces in free}
    schedule = completion_schedule(
        order, (((index[lvl], readers[lvl, cell]), faces)
                for lvl, _, free in levels for cell, faces in free if faces))
    # per level: image dict, forced cells, their constraints, free cells'
    # range; per free cell: image dict, cell, constraints, the level to
    # enter after it (None but for a level's last), how to draw its list
    plan, frees = [], []
    for li, (lvl, forced, free) in enumerate(levels):
        plan.append((comps[lvl], [(c, comps[src], a, degen)
                                  for c, src, a, degen in forced],
                     [con for c, *_ in forced for con in schedule[lvl, c]],
                     len(frees), len(frees) + len(free)))
        frees += [(comps[lvl], c, schedule[lvl, c],
                   li + 1 if pos == len(free) else None,
                   index.get(lvl), readers[lvl, c], pins.get((lvl, c)))
                  for pos, (c, _) in enumerate(free, 1)]
    cand_lists = [None] * len(frees)
    its = [None] * len(frees)
    results = []

    def open_from(li):
        # enter levels li, li + 1, .. up to one with a free cell and open
        # its first candidates (the cell, or -1 when none is opened)
        for comp, forced, forced_checks, start, stop in plan[li:]:
            for cell, src, a, degen in forced:
                comp[cell] = degen[src[a]]
            for idx, key in forced_checks:
                if key() not in idx:
                    return -1
            for g in range(start, stop):
                _, _, _, _, idx, key, pin = frees[g]
                cands = idx.get(key(), ())
                if pin is not None:
                    cands = [v for v in cands if v in pin]
                if not cands:
                    tick(n=g + 1 - start)
                    return -1
                cand_lists[g] = cands
            if start < stop:
                tick(n=stop - start + len(cand_lists[start]))
                its[start] = iter(cand_lists[start])
                return start
        results.append({lvl: dict(comp) for lvl, comp in comps.items()})
        return -1

    g = open_from(0)
    while g >= 0:
        comp, cell, checks, after, _, _, _ = frees[g]
        for v in its[g]:
            comp[cell] = v
            for idx, key in checks:
                if key() not in idx:
                    break
            else:
                break
        else:
            g -= 1
            continue
        if after is not None:
            # a cell opened lies past g; on -1, g's next candidate is due
            g = max(g, open_from(after))
        else:
            g += 1
            tick(n=len(cand_lists[g]))
            its[g] = iter(cand_lists[g])
    return results


def lift_by_faces(x_sset, y_sset, comps, levels):
    """Extend the levelwise dicts comps, X -> Y, upward over `levels`, in
    order: a cell of X at level k goes to the one cell of Y's
    face_index(k) whose faces are the images under comps[k - 1] of its
    own faces.  Returns the first level where some cell has no such
    target cell or more than one, or None when every level lifts."""
    for k in levels:
        below, idx = comps[k - 1], y_sset.face_index(k)
        comps[k] = lifted = {}
        for a, faces in x_sset.face_table(k).items():
            cands = idx.get(tuple([below[f] for f in faces]), ())
            if len(cands) != 1:
                return k
            lifted[a] = cands[0]
    return None


def enumerate_maps(x_sset, y_sset, upto=None, pins=None):
    """All simplicial maps tau_d(X) -> tau_d(Y) at d = min dim (or `upto`),
    in deterministic order, by map_search over the levels 0..d.

    Precondition: X and Y satisfy the simplicial identities (the CLI
    validates a loaded source first).  Each degenerate simplex of X is
    forced from its first presentation s_j a (least j); the others are
    chosen in level order from the simplices of Y with the faces
    assigned so far.  `pins` maps (level, simplex of X) to the images
    allowed for it, as in map_search (a degenerate simplex follows its
    presentation and ignores a pin); when both complexes carry a base
    point, X's base vertex is also pinned to Y's.
    Raises SearchBudgetExceeded past the evaluation cap.
    """
    d = min(x_sset.dim, y_sset.dim) if upto is None else upto
    if y_sset.dim < d:
        y_sset = _ensure_depth(y_sset, d)
    if x_sset.dim < d:
        raise DimensionOutOfRange("source truncation too shallow")
    tick = budget_ticker("map enumeration exceeded {cap} evaluations")
    index = {k: y_sset.face_index(k) for k in range(1, d + 1)}
    index[0] = {(): list(y_sset.level(0))}
    levels = []
    for k in range(d + 1):
        forced = {}
        for j in range(k):
            y_deg = y_sset.degen[(k - 1, j)]
            below = x_sset.level(k - 1)
            for a, sa in zip(below, column(below, (x_sset.degen[k - 1, j],))):
                forced.setdefault(sa, (sa, k - 1, a, y_deg))
        faces = x_sset.face_table(k)
        level = x_sset.level(k)
        levels.append((k, [forced[s] for s in level if s in forced],
                       [(s, tuple([(k - 1, f) for f in faces[s]]) if k else ())
                        for s in level if s not in forced]))
    pins = dict(pins or {})
    if x_sset.base is not None and y_sset.base is not None:
        key = (0, x_sset.base)
        pins[key] = {y_sset.base}.intersection(pins.get(key, (y_sset.base,)))
    return [SSetMap(x_sset, y_sset, comps)
            for comps in map_search(levels, index, tick, pins)]


def find_isomorphism(x_sset, y_sset):
    """An isomorphism X -> Y of truncations, or None."""
    d = min(x_sset.dim, y_sset.dim)
    for k in range(d + 1):
        if len(x_sset.level(k)) != len(y_sset.level(k)):
            return None
    for f in enumerate_maps(x_sset, y_sset, upto=d):
        if f.is_iso():
            return f
    return None
