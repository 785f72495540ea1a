"""Additive functions, determinants and their representability oracles.

Every enumeration here is paired with an independent oracle: additive
functions against simplicial maps into the group nerve, determinants
against maps into the 2-group nerve, Segal determinants against
bisimplicial maps through the (p+q <= 3)-truncation.  The bijections are
constructed explicitly and verified, never assumed.
"""

import collections
import itertools
import operator

from . import simplicial as sp
from . import catalg as ca
from . import nerves as nv
from .groups import FiniteGroup, bijective


class DeterminantError(Exception):
    pass


# -- simplicial map front ends ----------------------------------------------


def hom_sset(x_sset, y_sset):
    """All simplicial maps at d = X.dim (Y extended coskeletally when
    flagged and shallower), in key order: images over sorted cells,
    level by level (_key_sorted)."""
    return _key_sorted(sp.enumerate_maps(x_sset, y_sset, upto=x_sset.dim))


def _key_sorted(maps):
    """The SSetMaps maps, all of one source, in _key_order."""
    maps[:] = [maps[i] for i in _key_order([f.components for f in maps])]
    return maps


def _key_order(found, names=None):
    """The places of the maps of found, all of one source, sorted by
    their _image_keys over one _cell_orders list."""
    keys = _image_keys(found, _cell_orders(found[:1]), names)
    return sorted(range(len(found)), key=keys.__getitem__)


def _cell_orders(found):
    """One fixed cell order per level of the maps found (each a dict
    level -> dict cell -> image), as (level, sorted cells) pairs in
    level order; every map of found has the levels and cells of the
    first, as the maps of one source do.  Every sort of maps, and every
    map key, reads images over these orders (_image_rows)."""
    return [(lvl, sorted(cells)) for lvl, cells in sorted(found[0].items())] \
        if found else []


def _image_rows(found, orders, names=None):
    """Per (level, cells) of orders, the images of those cells under each
    map of found (a dict level -> dict cell -> image) as one tuple, each
    under names[level] when given."""
    out = []
    for lvl, cells in orders:
        dicts = [f[lvl] for f in found]
        # itemgetter of one item returns it bare, not in a tuple
        rows = map(operator.itemgetter(*cells), dicts) if len(cells) > 1 \
            else [tuple(map(d.__getitem__, cells)) for d in dicts]
        out.append(list(rows) if names is None else
                   [tuple(map(names[lvl], row)) for row in rows])
    return out


def _image_keys(found, orders, names=None):
    """One key per map of found, its _image_rows: over _cell_orders,
    maps sorted by it come in the order of their sorted (cell, image)
    items, level by level, and equal keys are equal maps."""
    return list(zip(*_image_rows(found, orders, names)))


def _transported_hom(maps, sources, prefix):
    """An enriched hom as a TruncatedSSet.

    Level n names the maps of maps[n] (each a dict level -> dict cell ->
    image) prefix + "n_i", in list order.  They are maps out of a product
    X x Delta^n, whose levels sources[n] lists as (level, cells, k): the
    cells in product order and the dimension k of the Delta coordinate.
    d_i (s_j) sends a map f of level n to the map of level n - 1 (n + 1)
    that is f precomposed with X x vert, vert the coface delta_i
    (codegeneracy sigma_j) [n_to] -> [n], nv._delta (nv._sigma); _pull
    gives X x vert on the positions of each level.

    Each level's maps are held as one image column per position of each
    source level and keyed by one zip of all the columns; their
    precomposites, unbuilt, by one zip of the columns at the positions
    that the pull sends the positions of level n_to to.
    """
    n_max = len(maps) - 1
    levels = [["%s%d_%d" % (prefix, n, i) for i in range(len(maps[n]))]
              for n in range(n_max + 1)]
    cols = [[list(zip(*rows)) for rows in _image_rows(
        found, [(lvl, cells) for lvl, cells, _ in source])]
        for found, source in zip(maps, sources)]
    ranks = [dict(zip(zip(*itertools.chain(*cols[n])), levels[n]))
             for n in range(n_max + 1)]

    def op(name, n, i):
        if not maps[n]:
            return {}
        n_to = n + sp.STEPS[name]
        vert = nv._delta(i, n) if name == "face" else nv._sigma(i, n)
        return dict(zip(levels[n], map(ranks[n_to].__getitem__, zip(*[
            col[p] for col, (_, cells, k) in zip(cols[n], sources[n_to])
            for p in _pull(len(cells), k, n_to, n, vert)]))))

    return sp.build_sset(n_max, levels, op)


def _pull(size, k, n_to, n, vert):
    """The positions that X x vert sends the `size` cells of a level of
    X x Delta^{n_to} to, in the same level of X x Delta^n: vert is a
    monotone map [n_to] -> [n] as the tuple of its values and k the
    dimension of the level's Delta coordinate.  Both levels list their
    cells in product order, X major (sp.product, _bi_product_p1), so
    (x, phi_j) at position i m_to + j goes to (x, vert . phi_j) at
    i m + post[j]: m_to and m count the k-simplices of Delta^{n_to} and
    Delta^n, and post[j] is the position of vert . phi_j among those of
    Delta^n, in the order of sp._monotone_maps, which
    sp.standard_simplex lists."""
    at = {t: j for j, t in enumerate(sp._monotone_maps(k, n))}
    post = [at[tuple(map(vert.__getitem__, t))]
            for t in sp._monotone_maps(k, n_to)]
    return [i * len(at) + j for i in range(size // len(post)) for j in post]


def enriched_hom0(x_sset, y_sset, n_max):
    """The reduced enriched hom as a truncated simplicial set: level n
    names the maps (X x Delta^n)/(* x Delta^n) -> Y, built by
    _transported_hom from _hom0_maps."""
    return _transported_hom(*_hom0_maps(x_sset, y_sset, n_max), "h")


def _hom0_maps(x_sset, y_sset, n_max):
    """The maps of each level of enriched_hom0, in key order
    (_key_sorted), and their sources, as _transported_hom reads them.

    Level n's maps are those X x Delta^n -> Y constant on * x Delta^n.
    In level k of sp.product(X, Delta^n) the cells (s_0^k *, phi) are one
    run, X major; each is pinned to the s_0^k v, v a vertex of Y (its
    base, when Y has one).  Delta^n is connected and the search checks
    faces, so a map sends the whole run to one s_0^k v: the maps found
    are those out of the quotient by * x Delta^n, with no quotient built.
    They are sorted by the ids of their images, so a Y on places is
    named first."""
    if not x_sset.is_reduced():
        raise DeterminantError("enriched hom needs a reduced source")
    d = x_sset.dim
    y_sset = sp._ensure_depth(sp.named(y_sset), d)
    star = x_sset.level(0)[0]
    verts = y_sset.level(0) if y_sset.base is None else [y_sset.base]
    maps, sources = [], []
    for n in range(n_max + 1):
        prod = sp.product(x_sset, sp.standard_simplex(n, d))
        pins = {}
        for k in range(d + 1):
            m = len(prod.level(k)) // len(x_sset.level(k))
            i = x_sset.level(k).index(x_sset.deg_base(k, star))
            pins.update(dict.fromkeys(
                [(k, c) for c in prod.level(k)[i * m:(i + 1) * m]],
                {y_sset.deg_base(k, v) for v in verts}))
        maps.append([f.components for f in _key_sorted(
            sp.enumerate_maps(prod, y_sset, upto=d, pins=pins))])
        sources.append([(k, prod.level(k), k) for k in range(d + 1)])
    return maps, sources


# -- additive functions ------------------------------------------------------


def enumerate_additive(x_sset, group):
    """All D : level 1 -> H with D(degenerate loop) = e and
    D(d1 a) = D(d2 a) * D(d0 a) for every 2-simplex a, by
    sp.scheduled_search over the free edges; each 2-simplex is tested
    once, right after its last free edge is set."""
    if not x_sset.is_reduced():
        raise DeterminantError("additive functions need a reduced complex")
    if x_sset.dim < 2:
        raise sp.DimensionOutOfRange("additive functions need dim >= 2")
    loop0 = x_sset.deg_base(1, x_sset.level(0)[0])
    edges = list(x_sset.level(1))
    cons = [(d1, d2, d0) for d0, d1, d2 in x_sset.face_table(2).values()]
    tick = sp.budget_ticker("additive enumeration exceeded {cap} evaluations")
    out = []
    assign = {loop0: group.unit}
    frees = [e for e in edges if e != loop0]

    checks = sp.completion_schedule(frees, ((con, con) for con in cons))

    def holds(con):
        m, l, r = con
        return assign[m] == group.mul(assign[l], assign[r])

    sp.scheduled_search(frees, lambda e: group.elements, checks, holds, assign,
                        lambda: out.append(dict(assign)), tick)
    return out


def additive_vs_hom(x_sset, group):
    """The explicit bijection between additive functions and maps into
    the group nerve; returns (adds, homs, ok)."""
    ner = nv.nerve_category(ca.one_object_groupoid(group),
                            max(2, x_sset.dim))
    adds = enumerate_additive(x_sset, group)
    homs = hom_sset(x_sset, ner)
    star = x_sset.level(0)[0]
    upper = range(2, x_sset.dim + 1)
    orders = [(k, sorted(x_sset.level(k))) for k in range(x_sset.dim + 1)]
    # one_object_groupoid lists one morphism per element, in order
    cell1 = dict(zip(group.elements, ner.level(1)))

    def image(d_fun):
        # f^D level by level; None if a simplex has no image
        comps = {0: {star: ner.level(0)[0]},
                 1: {e: cell1[d_fun[e]] for e in x_sset.level(1)}}
        return comps if sp.lift_by_faces(x_sset, ner, comps, upper) is None \
            else None

    lifted = [image(d) for d in adds]
    return adds, homs, None not in lifted and bijective(
        _image_keys(lifted, orders),
        _image_keys([f.components for f in homs], orders))


# -- determinants into a 2-group ---------------------------------------------


def _natural(ix, h0, h1, h2, s, t):
    """The naturality square over a 2-cell A, on the ints of ix: edge
    morphisms h_i : D(d_i A) -> D'(d_i A) carry s = T(A) to t = T'(A)
    when h_1 . s = t . (h_2 (x) h_0)."""
    comp = ix.comp_rows
    return comp[h1][s] == comp[t][ix.tm[h2][h0]]


def _associative(ix, x01, x12, x23, t0, t1, t2, t3):
    """The associativity square over a 3-simplex, on the ints of ix: its
    edges A_01, A_12, A_23 have D-values x01, x12, x23 and its faces d_i
    have T-values t_i, and t_2 . (id_x01 (x) t_0) . a_{x01,x12,x23} =
    t_1 . (t_3 (x) id_x23)."""
    comp = ix.comp_rows
    return (comp[t2][comp[ix.left[x01][t0]][ix.assoc[x01][x12][x23]]]
            == comp[t1][ix.right[x23][t3]])


class _TStage:
    """The T stage of both determinant searches, planned once on a
    reduced simplicial set: X itself, or the row X_{0,*} of a
    bisimplicial X.

    T(s_0 s_0 *) is forced to l_1^{-1}; the other 2-cells are free, in
    level order, each valued in its hom-set t(D d_2, D d_0) -> D d_1 of
    g.int_index.tri_cands.  One sp.completion_schedule over the free
    2-cells holds the associativity square of each 3-simplex (its faces,
    then its edges A_01 = d_2 d_2, A_12 = d_0 d_3, A_23 = d_0 d_1) and
    the naturality squares `squares`, each (top, bottom, e_0, e_1, e_2):
    T(top) carried to T(bottom) by the morphisms on the edges e_i."""

    def __init__(self, row, ix, squares=()):
        self.ix = ix
        self.forced = row.deg_base(2, row.level(0)[0])
        self.frees = [t for t in row.level(2) if t != self.forced]
        self.faces = faces = row.face_table(2)
        cons = []
        for f0, f1, f2, f3 in (row.face_table(3).values()
                               if row.dim >= 3 else ()):
            cons.append(((False, (f0, f1, f2, f3, faces[f2][2], faces[f3][0],
                                  faces[f1][0])), (f0, f1, f2, f3)))
        cons += [((True, sq), sq[:2]) for sq in squares]
        self.schedule = sp.completion_schedule(self.frees, cons)

    def hom_set(self, d, cell):
        """The T candidates of a 2-cell under the int D-assignment d."""
        f0, f1, f2 = self.faces[cell]
        return self.ix.tri_cands[d[f0]][d[f1]][d[f2]]

    def run(self, d, h, emit, tick):
        """Search T for the int D-assignment d (1-cells -> objects) and
        h (square edges -> morphisms); emit(t) at each determinant, t
        the int T-assignment, forced cell first."""
        ix = self.ix
        t = {self.forced: ix.lunit_inv[ix.unit]}

        def holds(con):
            square, cells = con
            if square:
                top, bot, e0, e1, e2 = cells
                return _natural(ix, h[e0], h[e1], h[e2], t[top], t[bot])
            f0, f1, f2, f3, a01, a12, a23 = cells
            return _associative(ix, d[a01], d[a12], d[a23],
                                t[f0], t[f1], t[f2], t[f3])

        sp.scheduled_search(self.frees, lambda c: self.hom_set(d, c),
                            self.schedule, holds, t, lambda: emit(t), tick)


def enumerate_determinants(x_sset, g):
    """All (D, T) on a reduced complex of dim >= 3: D on edges valued in
    objects, T on triangles valued in morphisms, subject to the
    compatibility (T(A) : D(d_2 A) (x) D(d_0 A) -> D(d_1 A)), unit
    (D(s_0 *) = 1, T(s_0 s_0 *) = l_1^{-1}) and associativity conditions
    (one square per tetrahedron).

    Two stages of sp.scheduled_search on the ints of g.int_index.  D
    goes edge by edge, and each free triangle is tested once, right
    after its last free edge is set (sp.completion_schedule), for a
    non-empty hom-set: a D that fails it has no T, so only
    D-assignments without a determinant are cut.  At each leaf of D the
    shared _TStage searches T.  Each result is mapped back to the ids of
    X and g at its leaf.  The degeneracy forcing (T(s_i A) = s_i(D A))
    is re-derived, then asserted."""
    if not x_sset.is_reduced():
        raise DeterminantError("determinants need a reduced complex")
    if x_sset.dim < 3:
        raise sp.DimensionOutOfRange("determinants need dim >= 3")
    ix = g.int_index
    objs, mors = ix.objects, ix.morphisms
    stage = _TStage(x_sset, ix)
    loop0 = x_sset.deg_base(1, x_sset.level(0)[0])
    edges = [e for e in x_sset.level(1) if e != loop0]
    tick = sp.budget_ticker("determinant enumeration exceeded {cap} evaluations")
    results = []
    d_assign = {loop0: ix.unit}
    tri_checks = sp.completion_schedule(
        edges, ((t, stage.faces[t]) for t in stage.frees))

    def emit(t_assign):
        results.append(({e: objs[x] for e, x in d_assign.items()},
                        {t: mors[f] for t, f in t_assign.items()}))

    sp.scheduled_search(edges, lambda e: range(len(objs)), tri_checks,
                        lambda t: stage.hom_set(d_assign, t), d_assign,
                        lambda: stage.run(d_assign, {}, emit, tick), tick)
    # assert the degeneracy forcing on every result, the inverse unitors
    # re-derived from g once per object
    s0, s1 = x_sset.degen[1, 0], x_sset.degen[1, 1]
    l_inv = {x: g.mor_inverse(g.l(x)) for x in g.base.objects}
    r_inv = {x: g.mor_inverse(g.r(x)) for x in g.base.objects}
    for d_fun, t_fun in results:
        for e in x_sset.level(1):
            if t_fun[s0[e]] != l_inv[d_fun[e]]:
                raise DeterminantError("degeneracy forcing fails (s0)")
            if t_fun[s1[e]] != r_inv[d_fun[e]]:
                raise DeterminantError("degeneracy forcing fails (s1)")
    return results


def determinants_vs_hom(x_sset, g):
    """The bijection f -> (f_1, f_2) between maps into the 2-group nerve
    and determinants; returns (dets, homs, ok).  A cell of the nerve's
    level 1 (2) is read as the object X_01 (the morphism al_012) of its
    structure: level q holds one place per monoidal_simplices(g, q)."""
    ng = nv.nerve_2group(g, max(3, x_sset.dim))
    dets = enumerate_determinants(x_sset, g)
    homs = hom_sset(x_sset, ng)
    obj, mor = [[st[pos] for st in nv.monoidal_simplices(g, q)]
                for q, pos in ((1, 1), (2, 3))]
    # a determinant as {1: D, 2: T}, and a map as its (D, T), keyed by
    # their values over the sorted edges and triangles
    orders = [(q, sorted(x_sset.level(q))) for q in (1, 2)]
    names = {1: obj.__getitem__, 2: mor.__getitem__}
    return dets, homs, bijective(
        _image_keys([f.components for f in homs], orders, names),
        _image_keys([{1: d, 2: t} for d, t in dets], orders))


def pi0_det(x_sset, g, dets):
    """Classes of the determinants dets (as enumerate_determinants(x_sset,
    g) lists them) under their morphisms, by _transport_classes on X.
    Returns the classes, each the sorted indices into dets."""
    ix = g.int_index
    return _transport_classes(x_sset, ix, [
        (tuple([ix.obj_int[d[e]] for e in x_sset.level(1)]),
         tuple([ix.mor_int[t[c]] for c in x_sset.level(2)]), ())
        for d, t in dets])


def _transport_classes(row, ix, dets, moved=lambda rest, h: rest):
    """The classes of dets under their morphisms, each the sorted indices
    of its members, by least member.  row is X, or the row X_{0,*} of a
    bisimplicial X, and a determinant is (d, t, rest): its D over
    row.level(1) and T over row.level(2) on the ints of ix, and the rest.
    A morphism h out of it picks a morphism out of D(v) on each v of
    level 1 (the unit's identity on the degenerate loop) and moves it to
    D'(v) = tgt h_v, T'(A) = h_1 . T(A) . (h_2 (x) h_0)^-1 (h_i on d_i A)
    and moved(rest, h).  One pass per class lists the morphisms out of
    its least member D, a tick each, and certifies, else
    DeterminantError: every target is listed, each Hom(D, D') is an
    Aut(D)-torsor, Aut(D) closes under composition, no class overlaps."""
    comp, tm, inv, tgt = ix.comp_rows, ix.tm, ix.inv, ix.tgt
    outs = [list(itertools.chain(*homs)) for homs in ix.homs]
    loop0 = row.deg_base(1, row.level(0)[0])
    at = {v: n for n, v in enumerate(row.level(1))}
    faces = [tuple(map(at.__getitem__, row.face_table(2)[c]))
             for c in row.level(2)]
    index = {det: n for n, det in enumerate(dets)}
    tick = sp.budget_ticker("determinant transport exceeded {cap} evaluations")
    classes, seen = [], set()
    for n, (d, t, rest) in enumerate(dets):
        if n in seen:
            continue
        targets, auts = [], set()
        for h in itertools.product(*[[ix.unit_ident] if v == loop0
                                     else outs[x]
                                     for v, x in zip(row.level(1), d)]):
            tick()
            m = index.get((tuple(map(tgt.__getitem__, h)), tuple([
                comp[comp[h[f1]][s]][inv[tm[h[f2]][h[f0]]]]
                for (f0, f1, f2), s in zip(faces, t)]), moved(rest, h)))
            if m is None:
                raise DeterminantError("transported determinant not listed")
            targets.append(m)
            if m == n:
                auts.add(h)
        counts = collections.Counter(targets)
        if set(counts.values()) != {len(auts)}:
            raise DeterminantError("the morphisms out of a determinant do "
                                   "not number |class| x |Aut|")
        if any(tuple(map(operator.getitem, map(comp.__getitem__, a), b))
               not in auts for a in auts for b in auts):
            raise DeterminantError("determinant automorphisms do not compose")
        if seen.intersection(counts):
            raise DeterminantError("determinant classes overlap")
        seen.update(counts)
        classes.append(sorted(counts))
    return classes


# -- the homotopy group comparison -------------------------------------------


def grho_check(g):
    """pi_0(G) = pi_1(N G) via the identity on objects and
    pi_1(G) = pi_2(N G) via phi -> phi . l_unit^{-1}; both verified as
    group isomorphisms on the nerve's places, and returned under ids."""
    errs = []
    c = g.base
    ng = nv.nerve_2group(g, 4)
    # the cells of ng's levels 1 and 2 by structure: level q lists one
    # cell per monoidal_simplices(g, q)
    cell1 = dict(zip([st[1] for st in nv.monoidal_simplices(g, 1)],
                     ng.level(1)))
    cell2 = dict(zip(nv.monoidal_simplices(g, 2), ng.level(2)))
    p1, cls1 = sp.pi_with_classes(ng, 1)
    p0 = ca.pi0_two_group(g)
    fail = p0.iso_failure(p1, {r: cls1[cell1[r]] for r in p0.elements})
    if fail:
        errs.append("pi0 -> pi1(N) is %s" % fail)
    p2, cls2 = sp.pi_with_classes(ng, 2)
    pi1g = ca.pi1_two_group(g)
    l_inv = g.mor_inverse(g.l(g.unit))
    amap = {}
    for phi in pi1g.elements:
        amap[phi] = cls2[cell2["q2", g.unit, g.unit, c.comp(phi, l_inv)]]
    fail = pi1g.iso_failure(p2, amap)
    if fail == "not bijective":
        errs.append("alpha1 : pi1 -> pi2(N) is not bijective")
    elif fail:
        errs.append("alpha1 is not a homomorphism")
    if not p2.is_abelian():
        errs.append("pi2 of a 2-group nerve must be abelian")
    return errs, (p0, _named_pi(p1, cls1, ng.level(1)),
                  _named_pi(p2, cls2, ng.level(2)), pi1g)


def _named_pi(group, classes, cells):
    """group, with classes on the level cells, under the ids of its cells
    as sp.pi_with_classes gives it on the named complex: each class by
    its least id, the elements sorted."""
    name, rep = sp.namer(cells), {}
    for s, r in classes.items():
        rep[r] = min(rep.get(r, name(s)), name(s))
    return FiniteGroup(sorted(rep.values()), {
        (rep[a], rep[b]): rep[c] for (a, b), c in group.table.items()},
        rep[group.unit], name=group.name)


# -- Segal determinants --------------------------------------------------------


def enumerate_segal_determinants(x_bx, g):
    """All (D, T): D a simplicial map X_{*,1} -> N(sG) (2-truncated), T on
    X_{0,2} valued in morphisms, with the compatibility, unit,
    naturality and associativity conditions.  D comes from
    sp.enumerate_maps into the nerve of g.base on places, which numbers
    objects and morphisms as g.int_index does; for each D with D(s_0 *)
    = 1 the shared _TStage, planned once on the row X_{0,*} with the
    naturality square of each cell of X_{1,2} added, searches T on those
    ints."""
    ix = g.int_index
    nsg = nv.nerve_category(g.base, 2)
    col1_t = _column1_2trunc(x_bx)
    d_maps = _key_sorted(sp.enumerate_maps(col1_t, nsg, upto=col1_t.dim))
    row = x_bx.row(0)
    squares = _x12_squares(x_bx)
    stage = _TStage(row, ix, squares)
    square_edges = {e for sq in squares for e in sq[2:]}
    v_deg1 = row.deg_base(1, row.level(0)[0])
    tick = sp.budget_ticker("segal determinant search exceeded {cap} evaluations")
    results = []
    for dm in d_maps:
        if dm(0, v_deg1) != ix.unit:
            continue
        stage.run(dm.components[0], {e: dm(1, e) for e in square_edges},
                  lambda t: results.append(
                      (dm, {c: ix.morphisms[f] for c, f in t.items()})), tick)
    return results


def _x12_squares(x_bx):
    """The naturality square of each cell z of X_{1,2}, as (top, bottom,
    e_0, e_1, e_2): T(d^h_1 z) is carried to T(d^h_0 z) by D on the
    vertical faces e_j = d^v_j z."""
    if (1, 2) not in x_bx.region:
        return []
    return list(zip(*[sp.column(x_bx.level(1, 2), (table,)) for table in (
        x_bx.hface[1, 2, 1], x_bx.hface[1, 2, 0],
        *[x_bx.vface[1, 2, j] for j in range(3)])]))


def _column1_2trunc(x_bx):
    """The column X_{*,1}, truncated at dimension 2."""
    col1 = x_bx.column(1)
    return sp.truncate(col1, min(col1.dim, 2))


def segal_determinants_vs_hom(x_bx, g, ns):
    """Maps of (p+q <= 3)-truncations into ns, the Segal nerve of g,
    against Segal determinants via F -> (F_{*,1}, F_{0,2}); returns
    (dets, maps, ok)."""
    mu = nv.mu3_region() & set(x_bx.region) & set(ns.region)
    maps = nv.enumerate_bimaps(x_bx, ns, region=mu)
    dets = enumerate_segal_determinants(x_bx, g)
    lv = ns._segal_levels
    # a cell of level (p, 1) of ns as a value of D, a cell of the nerve of
    # g.base on places: the object of a 1-simplex at p = 0, above that the
    # place of the chain of the base morphisms (a 1-simplex morphism has
    # one component, on the pair (0, 1))
    base = nv._category_chains(g.base)
    values = {p: base.places(lv.chains[1].columns(p), lv.fam[1][0]) if p
              else [objs[0] for objs, _ in lv._keys[1]]
              for p in (0, 1, 2) if (p, 1) in mu}
    # F as (F_{*,1}, F_{0,2}), its values named as D- and T-values (T on a
    # cell of X_{0,2}: the pairing morphism of its image), and (D, T),
    # keyed by their values over the sorted cells of those levels
    names = {(p, 1): values[p].__getitem__ for p in values}
    names[0, 2] = lambda c: lv.structs[2][c][3]
    orders = [(pq, sorted(x_bx.level(*pq))) for pq in names]
    return dets, maps, bijective(_image_keys(maps, orders, names), _image_keys(
        [{**{(p, 1): dm.components[p] for p in values}, (0, 2): t}
         for dm, t in dets], orders))


def segal_pi0(x_bx, g, dets):
    """Classes of the Segal determinants dets (as
    enumerate_segal_determinants(x_bx, g) lists them) under their
    morphisms, the homotopies X_{*,1} x Delta^1 -> N(sG) that respect T,
    by _transport_classes on the row X_{0,*}: H on X_{0,1} moves D on
    X_{1,1} to H_{d_0 e} . D(e) . H_{d_1 e}^-1, and D on X_{2,1} to the
    2-chain of its moved faces, from the face index of the nerve D maps
    into.  Returns the classes, each the sorted indices into dets."""
    if not dets:
        return []
    ix = g.int_index
    comp, inv = ix.comp_rows, ix.inv
    col, nsg = dets[0][0].src, dets[0][0].dst
    row, levels = x_bx.row(0), range(1, col.dim + 1)
    # the faces of X_{k,1} as places in X_{k-1,1}; X_{0,1} is row.level(1)
    faces = [[tuple(map({c: n for n, c in enumerate(col.level(k - 1))}
                        .__getitem__, col.face_table(k)[c]))
              for c in col.level(k)] for k in levels]
    chain = {fs: c for c, fs in nsg.face_table(2).items()}

    def moved(rest, h):
        d1 = tuple([comp[comp[h[f0]][f]][inv[h[f1]]]
                    for (f0, f1), f in zip(faces[0], rest[0])])
        return (d1, *[tuple([chain.get(tuple(map(d1.__getitem__, fs)))
                             for fs in level]) for level in faces[1:]])

    return _transport_classes(row, ix, [
        (tuple(map(dm.components[0].__getitem__, row.level(1))),
         tuple([ix.mor_int[t[c]] for c in row.level(2)]),
         tuple(tuple(map(dm.components[k].__getitem__, col.level(k)))
               for k in levels)) for dm, t in dets], moved)


def hom1_enriched(x_bx, ns, n_max):
    """The direction-1 enriched hom into the Segal nerve ns, as an
    n_max-truncated simplicial set: level n = bisimplicial maps
    X x p1*(Delta^n) -> ns over the region the two share."""
    return _transported_hom(*_hom1_maps(x_bx, ns, n_max), "H")


def _hom1_maps(x_bx, ns, n_max):
    """The maps of each level of hom1_enriched, in order, and their
    sources, as _transported_hom reads them."""
    region = set(x_bx.region) & set(ns.region)
    top = max(p for p, q in region)
    prods = [_bi_product_p1(x_bx, sp.standard_simplex(n, top), region)
             for n in range(n_max + 1)]
    # each level's maps in the order of their images' ids (over the
    # sorted cells of each level), which the nerve may hold as places
    names = {pq: sp.namer(ns.level(*pq)) for pq in region}
    maps = [[found[i] for i in _key_order(found, names)] for found in (
        nv.enumerate_bimaps(prod, ns, region=region) for prod in prods)]
    return maps, [[(pq, prod.level(*pq), pq[0]) for pq in sorted(region)]
                  for prod in prods]


def _bi_product_p1(x_bx, dn, region):
    """X x p1*(Delta^n) over the region: level (p, q) holds the cells
    (x|phi) of X_{p,q} x Delta^n_p in product order, x major, as _pull
    reads them."""
    cols = {(p, q): sp.product_columns([x_bx.level(p, q), dn.level(p)])
            for (p, q) in region}
    levels = {pq: list(map(sp.pair_id, xs, ys))
              for pq, (xs, ys) in cols.items()}

    def op(name, p, q, i):
        xs, ys = cols[p, q]
        xs = sp.column(xs, (getattr(x_bx, name)[p, q, i],))
        if name[0] == "h":
            ys = sp.column(ys, (getattr(dn, name[1:])[p, i],))
        return dict(zip(levels[p, q], map(sp.pair_id, xs, ys)))

    return nv.build_bisimplicial(region, levels, op)
