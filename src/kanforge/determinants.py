"""Additive functions, determinants and their representability oracles.

Every enumeration here is paired with an independent oracle: additive
functions against simplicial maps into the group nerve, determinants
against maps into the 2-group nerve, Segal determinants against
bisimplicial maps through the (p+q <= 3)-truncation.  The bijections are
constructed explicitly and verified, never assumed.
"""

from . import simplicial as sp
from . import catalg as ca
from . import nerves as nv
from .groups import FiniteGroup


class DeterminantError(Exception):
    pass


# -- simplicial map front ends ----------------------------------------------


def hom_sset(x_sset, y_sset, budget=None):
    """All simplicial maps at d = X.dim (Y extended coskeletally when
    flagged and shallower), in deterministic order."""
    maps = sp.enumerate_maps(x_sset, y_sset, upto=x_sset.dim, budget=budget)
    return sorted(maps, key=lambda f: f.key())


def _post_delta(i, phi):
    """delta_i . phi on digit strings."""
    return "".join(str(v if v < i else v + 1) for v in (int(c) for c in phi))


def _post_sigma(j, phi):
    return "".join(str(v if v <= j else v - 1) for v in (int(c) for c in phi))


class EnrichedHom:
    """The reduced enriched hom: level n = maps (X x Delta^n)/(* x Delta^n) -> Y.

    Materialized as a TruncatedSSet (attribute .sset) whose level-n ids
    index the stored maps (.maps[n])."""

    def __init__(self, x_sset, y_sset, n_max, budget=None):
        if not x_sset.is_reduced():
            raise DeterminantError("enriched hom needs a reduced source")
        self.x = x_sset
        self.y = y_sset
        d = x_sset.dim
        sub = sp.sq0_subcomplex(x_sset)
        self.quots = []
        self._pairs = []        # per n: id (a|b) of X x Delta^n -> (a, b)
        self._collapsed = []    # per n, k: collapsed id -> its class id
        for n in range(n_max + 1):
            dn = sp.standard_simplex(n, d)
            self._pairs.append({_pair_id(a, b): (a, b) for k in range(d + 1)
                                for a in x_sset.level(k) for b in dn.level(k)})
            ids = [[_pair_id(a, b) for a in sub[k] for b in dn.level(k)]
                   for k in range(d + 1)]
            self.quots.append(sp.quotient_by_subcomplex(
                sp.product(x_sset, dn), ids))
            # the quotient relabels every collapsed cell to the least id
            # of its level
            self._collapsed.append([dict.fromkeys(l, min(l, default=None))
                                    for l in ids])

        self.maps = []
        for n in range(n_max + 1):
            found = sp.enumerate_maps(self.quots[n], y_sset, upto=d,
                                      budget=budget)
            found.sort(key=lambda f: f.key())
            self.maps.append(found)
        self.sset = _transported_hom(
            [[f.components for f in found] for found in self.maps],
            self._pull, "h")

    def _pull(self, n_to, n, post):
        """dict level -> dict cell of Q_{n_to} -> cell of Q_n: the class
        of (x, phi) goes to the class of (x, post(phi)), the map
        Q_{n_to} -> Q_n that X x post induces."""
        out = {}
        for k in range(self.x.dim + 1):
            row = out[k] = {}
            collapsed = self._collapsed[n][k]
            for qid in self.quots[n_to].level(k):
                a, b = self._pairs[n_to][qid]
                pid = _pair_id(a, post(b))
                row[qid] = collapsed.get(pid, pid)
        return out


def _pair_id(a, b):
    """The id of the pair (a, b) in sp.product."""
    return "(%s|%s)" % (a, b)


def _canon(comps):
    """A map given as dict level -> dict cell -> image, as a sortable
    key that does not depend on dict order."""
    return tuple((lvl, tuple(sorted(cells.items())))
                 for lvl, cells in sorted(comps.items()))


def _transported_hom(maps, pull, prefix):
    """An enriched hom as a TruncatedSSet.

    Level n names the maps of maps[n] (each a dict level -> dict cell ->
    image) prefix + "n_i", in list order.  d_i (s_j) sends a map f of
    level n to the map of level n - 1 (n + 1) that is f precomposed with
    pull(n_to, n, post), post = delta_i (sigma_j) acting on the simplex
    coordinate; pull returns a dict level -> dict cell -> cell.
    """
    n_max = len(maps) - 1
    levels = [["%s%d_%d" % (prefix, n, i) for i in range(len(maps[n]))]
              for n in range(n_max + 1)]
    ranks = [{_canon(f): i for i, f in enumerate(found)} for found in maps]

    def op(name, n, i):
        n_to = n + sp.STEPS[name]
        post = _post_delta if name == "face" else _post_sigma
        moved = pull(n_to, n, lambda phi: post(i, phi))
        return {levels[n][idx]: levels[n_to][ranks[n_to][_canon(
            {lvl: {cell: f[lvl][img] for cell, img in row.items()}
             for lvl, row in moved.items()})]]
            for idx, f in enumerate(maps[n])}

    return sp.build_sset(n_max, levels, op)


def enriched_hom0(x_sset, y_sset, n_max, budget=None):
    """The enriched hom as a truncated simplicial set."""
    return EnrichedHom(x_sset, y_sset, n_max, budget=budget).sset


# -- additive functions ------------------------------------------------------


def enumerate_additive(x_sset, group, budget=None):
    """All D : level 1 -> H with D(degenerate loop) = e and
    D(d1 a) = D(d2 a) * D(d0 a) for every 2-simplex a, by
    sp.scheduled_search over the free edges; each 2-simplex is tested
    once, right after its last free edge is set."""
    if not x_sset.is_reduced():
        raise DeterminantError("additive functions need a reduced complex")
    if x_sset.dim < 2:
        raise sp.DimensionOutOfRange("additive functions need dim >= 2")
    star = x_sset.level(0)[0]
    loop0 = x_sset.s(0, 0, star)
    edges = list(x_sset.level(1))
    cons = [(x_sset.d(2, 1, a), x_sset.d(2, 2, a), x_sset.d(2, 0, a))
            for a in x_sset.level(2)]
    tick = sp.budget_ticker(budget, "additive enumeration exceeded cap")
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


def additive_vs_hom(x_sset, group, budget=None):
    """The explicit bijection between additive functions and maps into
    the group nerve; returns (adds, homs, ok)."""
    h_grpd = ca.one_object_groupoid(group)
    ner = nv.nerve_category(h_grpd, max(2, x_sset.dim))
    adds = enumerate_additive(x_sset, group, budget=budget)
    homs = hom_sset(x_sset, ner, budget=budget)
    star = x_sset.level(0)[0]
    by_faces = {k: {ner.faces(k, s): s for s in ner.level(k)}
                for k in range(2, x_sset.dim + 1)}

    def image(d_fun):
        # f^D level by level, as a map key; None if a simplex has no image
        comps = {0: {star: "*"},
                 1: {e: ner._chain1["m%s" % (d_fun[e],)]
                     for e in x_sset.level(1)}}
        for k in range(2, x_sset.dim + 1):
            comps[k] = {}
            for a in x_sset.level(k):
                img = by_faces[k].get(tuple(
                    comps[k - 1][x_sset.d(k, i, a)] for i in range(k + 1)))
                if img is None:
                    return None
                comps[k][a] = img
        return tuple(tuple(sorted(comps[k].items())) for k in sorted(comps))

    return adds, homs, _bijective([image(d) for d in adds],
                                  [f.key() for f in homs])


def _bijective(images, keys):
    """Whether images, the key of each source element's image (None
    where none could be built), is a bijection onto the oracle's keys:
    both lists free of duplicates and equal as sets."""
    distinct = set(images)
    return (None not in distinct and len(distinct) == len(images) == len(keys)
            and distinct == set(keys))


# -- determinants into a 2-group ---------------------------------------------


def _natural(ix, h0, h1, h2, s, t):
    """The naturality square over a 2-cell A, on the ints of ix: edge
    morphisms h_i : D(d_i A) -> D'(d_i A) carry s = T(A) to t = T'(A)
    when h_1 . s = t . (h_2 (x) h_0)."""
    comp = ix.comp_rows
    return comp[h1][s] == comp[t][ix.tm[(h2, h0)]]


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
        self.forced = row.s(1, 0, row.s(0, 0, row.level(0)[0]))
        self.frees = [t for t in row.level(2) if t != self.forced]
        self.faces = faces = row.face_table(2)
        cons = []
        for h in (row.level(3) if row.dim >= 3 else ()):
            f0, f1, f2, f3 = row.faces(3, h)
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


def enumerate_determinants(x_sset, g, budget=None):
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
    loop0 = x_sset.s(0, 0, x_sset.level(0)[0])
    edges = [e for e in x_sset.level(1) if e != loop0]
    tick = sp.budget_ticker(budget, "determinant enumeration exceeded cap")
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
    # assert the degeneracy forcing on every result
    for d_fun, t_fun in results:
        for e in x_sset.level(1):
            s0e, s1e = x_sset.s(1, 0, e), x_sset.s(1, 1, e)
            if t_fun[s0e] != g.mor_inverse(g.l(d_fun[e])):
                raise DeterminantError("degeneracy forcing fails (s0)")
            if t_fun[s1e] != g.mor_inverse(g.r(d_fun[e])):
                raise DeterminantError("degeneracy forcing fails (s1)")
    return results


def _det_key(d_fun, t_fun):
    """A determinant (D, T) as a key that does not depend on dict order."""
    return tuple(sorted(d_fun.items())), tuple(sorted(t_fun.items()))


def determinants_vs_hom(x_sset, g, budget=None):
    """The bijection f -> (f_1, f_2) between maps into the 2-group nerve
    and determinants; returns (dets, homs, ok)."""
    ng = nv.nerve_2group(g, max(3, x_sset.dim))
    dets = enumerate_determinants(x_sset, g, budget=budget)
    homs = hom_sset(x_sset, ng, budget=budget)
    struct1, struct2 = ng._struct[1], ng._struct[2]
    images = [_det_key({e: struct1[f(1, e)][1] for e in x_sset.level(1)},
                       {t: struct2[f(2, t)][3] for t in x_sset.level(2)})
              for f in homs]
    return dets, homs, _bijective(images, [_det_key(*det) for det in dets])


def det_morphisms(x_sset, g, det1, det2, budget=None):
    """All H : level 1 -> morphisms with H(A) : D(A) -> D'(A),
    H(degenerate loop) = id and the naturality square over every
    triangle, by sp.scheduled_search over the free edges on the ints of
    g.int_index: each edge ranges over its hom-set (IntIndex.homs, id
    order) and each triangle is tested once, right after its last free
    edge is set.  Each result is mapped back to ids."""
    ix = g.int_index
    oi, mi, mors, homs = ix.obj_int, ix.mor_int, ix.morphisms, ix.homs
    (d1, t1), (d2, t2) = det1, det2
    s1 = {t: mi[f] for t, f in t1.items()}
    s2 = {t: mi[f] for t, f in t2.items()}
    loop0 = x_sset.s(0, 0, x_sset.level(0)[0])
    edges = [e for e in x_sset.level(1) if e != loop0]
    assign = {loop0: ix.unit_ident}
    out = []
    tick = sp.budget_ticker(budget, "determinant morphism search exceeded cap")

    tri_faces = x_sset.face_table(2)
    tri_checks = sp.completion_schedule(edges, tri_faces.items())

    def nat_ok(t):
        h0, h1, h2 = [assign[f] for f in tri_faces[t]]
        return _natural(ix, h0, h1, h2, s1[t], s2[t])

    sp.scheduled_search(
        edges, lambda e: homs[oi[d1[e]]][oi[d2[e]]], tri_checks, nat_ok,
        assign, lambda: out.append({e: mors[h] for e, h in assign.items()}),
        tick)
    return out


def pi0_det(x_sset, g, dets=None, budget=None):
    """Classes of determinants under the exists-a-morphism relation;
    symmetry and transitivity are verified, not assumed."""
    if dets is None:
        dets = enumerate_determinants(x_sset, g, budget=budget)
    classes = _relation_classes(
        len(dets), lambda i, j: det_morphisms(x_sset, g, dets[i], dets[j],
                                              budget=budget), "determinant")
    return classes, dets


def _relation_classes(n, related, what):
    """The classes of the relation related(i, j) on range(n), each the
    sorted indices related to its least member, once the relation is
    verified reflexive, symmetric and transitive (else DeterminantError,
    naming the relation by `what`)."""
    rel = [[bool(related(i, j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        if not rel[i][i]:
            raise DeterminantError("%s relation not reflexive" % what)
        for j in range(n):
            if rel[i][j] != rel[j][i]:
                raise DeterminantError("%s relation not symmetric" % what)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rel[i][j] and rel[j][k] and not rel[i][k]:
                    raise DeterminantError("%s relation not transitive" % what)
    classes = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        cls = [j for j in range(n) if rel[i][j]]
        seen.update(cls)
        classes.append(cls)
    return classes


# -- the homotopy group comparison -------------------------------------------


def grho_check(g, budget=None):
    """pi_0(G) = pi_1(N G) via the identity on objects and
    pi_1(G) = pi_2(N G) via phi -> phi . l_unit^{-1}; both verified as
    group isomorphisms by table comparison."""
    errs = []
    c = g.base
    ng = nv.nerve_2group(g, 4)
    p1, cls1 = sp.pi_with_classes(ng, 1)
    p0 = ca.pi0_two_group(g)
    obj_id = {x: _obj_simplex_id(x) for x in c.objects}
    mapping = {r: cls1[obj_id[r]] for r in p0.elements}
    if len(set(mapping.values())) != len(p1.elements) or \
            set(mapping.values()) != set(p1.elements):
        errs.append("pi0 -> pi1(N) is not bijective")
    else:
        for a in p0.elements:
            for b in p0.elements:
                if mapping[p0.mul(a, b)] != p1.mul(mapping[a], mapping[b]):
                    errs.append("pi0 -> pi1(N) is not a homomorphism")
                    break
    p2, cls2 = sp.pi_with_classes(ng, 2)
    pi1g = ca.pi1_two_group(g)
    l_inv = g.mor_inverse(g.l(g.unit))
    amap = {}
    for phi in pi1g.elements:
        st = nv._q2_struct(g, g.unit, g.unit, c.comp(phi, l_inv))
        amap[phi] = cls2[nv._struct_id(st)]
    if len(set(amap.values())) != len(p2.elements) or \
            set(amap.values()) != set(p2.elements):
        errs.append("alpha1 : pi1 -> pi2(N) is not bijective")
    else:
        for a in pi1g.elements:
            for b in pi1g.elements:
                if amap[pi1g.mul(a, b)] != p2.mul(amap[a], amap[b]):
                    errs.append("alpha1 is not a homomorphism")
                    break
    if not p2.is_abelian():
        errs.append("pi2 of a 2-group nerve must be abelian")
    return errs, (p0, p1, p2, pi1g)


def _obj_simplex_id(x):
    return nv._struct_id(("q1", x))


# -- Segal determinants --------------------------------------------------------


def enumerate_segal_determinants(x_bx, g, budget=None):
    """All (D, T): D a simplicial map X_{*,1} -> N(sG) (2-truncated), T on
    X_{0,2} valued in morphisms, with the compatibility, unit,
    naturality and associativity conditions.  D comes from
    sp.enumerate_maps; for each D with D(s_0 *) = 1 the shared _TStage,
    planned once on the row X_{0,*} with the naturality square of each
    cell of X_{1,2} added, searches T on the ints of g.int_index."""
    ix = g.int_index
    oi, mi, mors = ix.obj_int, ix.mor_int, ix.morphisms
    nsg = nv.nerve_category(g.base, 2)
    col1_t = _column1_2trunc(x_bx)
    d_maps = sp.enumerate_maps(col1_t, nsg, upto=col1_t.dim, budget=budget)
    d_maps.sort(key=lambda f: f.key())
    row = x_bx.row(0)
    squares = _x12_squares(x_bx)
    stage = _TStage(row, ix, squares)
    square_edges = {e for sq in squares for e in sq[2:]}
    v_deg1 = row.s(0, 0, row.level(0)[0])
    tick = sp.budget_ticker(budget, "segal determinant search exceeded cap")
    results = []
    for dm in d_maps:
        if dm(0, v_deg1) != g.unit:
            continue
        stage.run({e: oi[dm(0, e)] for e in row.level(1)},
                  {e: mi[nsg._mor1[dm(1, e)]] for e in square_edges},
                  lambda t: results.append(
                      (dm, {c: mors[f] for c, f in t.items()})), tick)
    return results


def _x12_squares(x_bx):
    """The naturality square of each cell z of X_{1,2}, as (top, bottom,
    e_0, e_1, e_2): T(d^h_1 z) is carried to T(d^h_0 z) by D on the
    vertical faces e_j = d^v_j z."""
    if (1, 2) not in x_bx.region:
        return []
    return [(x_bx.dh(1, 2, 1, z), x_bx.dh(1, 2, 0, z))
            + tuple(x_bx.dv(1, 2, j, z) for j in range(3))
            for z in x_bx.level(1, 2)]


def _column1_2trunc(x_bx):
    """The column X_{*,1}, truncated at dimension 2."""
    col1 = x_bx.column(1)
    return sp.truncate(col1, min(col1.dim, 2))


def segal_determinants_vs_hom(x_bx, g, ns=None, budget=None):
    """Maps of (p+q <= 3)-truncations against Segal determinants via
    F -> (F_{*,1}, F_{0,2}); returns (dets, maps, ok)."""
    if ns is None:
        ns = nv.segal_nerve(g, 2, 3)
    mu = nv.mu3_region() & set(x_bx.region) & set(ns.region)
    maps = nv.enumerate_bimaps(x_bx, ns, region=mu, budget=budget)
    dets = enumerate_segal_determinants(x_bx, g, budget=budget)
    # the objects of level (0, q) as structural simplices, and the cells
    # of level (p, 1), p >= 1, as chains of base-groupoid morphisms, read
    # from the nerve's int tables (which give its level order)
    lv = ns._segal_levels
    structs = {q: dict(zip(ns.level(0, q), lv.structs[q]))
               for q in (1, 2) if (0, q) in mu}
    # a 1-simplex morphism has one component, on the pair (0, 1)
    base_of = [lv.base_mor[f] for (f,) in lv.fam[1]]
    chains = {p: dict(zip(ns.level(p, 1), zip(
        *[map(base_of.__getitem__, col) for col in lv.chain_columns(p, 1)])))
              for p in (1, 2) if (p, 1) in mu}
    # canonical key: the chain assignment on columns p <= 2, then T
    det_keys = [tuple(tuple(sorted(dm.components[p].items()))
                      for p in (0, 1, 2) if p in dm.components)
                + (tuple(sorted(t_fun.items())),) for dm, t_fun in dets]

    def d_value(p, img):
        # a cell of level (p, 1) of the nerve as a value of D
        return structs[1][img][1] if p == 0 else nv._chain_id(chains[p][img])

    def image(f):
        parts = tuple(tuple(sorted((e, d_value(p, f[(p, 1)][e]))
                                   for e in x_bx.level(p, 1)))
                      for p in (0, 1, 2) if (p, 1) in mu)
        return parts + (tuple(sorted((xi, structs[2][f[(0, 2)][xi]][3])
                                     for xi in x_bx.level(0, 2))),)

    return dets, maps, _bijective([image(f) for f in maps], det_keys)


def segal_det_morphisms(x_bx, g, det1, det2, budget=None):
    """Homotopies X_{*,1} x Delta^1 -> N(sG) from det1 to det2, pointed
    and compatible with the T data: the naturality square of each cell
    of X_{1,2}, on the ints of g.int_index.  The map search is pinned at
    the two ends and the base cylinder, and every map it returns is still
    checked in full."""
    ix = g.int_index
    mi = ix.mor_int
    nsg = nv.nerve_category(g.base, 2)
    col1_t = _column1_2trunc(x_bx)
    top = col1_t.dim
    d1 = sp.standard_simplex(1, top)
    prod = sp.product(col1_t, d1)
    dm1, t1 = det1
    dm2, t2 = det2
    base_cell = {k: x_bx.sv(k, 0, 0, x_bx.level(k, 0)[0])
                 for k in range(top + 1)}
    unit_chain = {k: nsg.deg_base(k, g.unit) for k in range(top + 1)}
    # the ends and the base cylinder are pinned to the values `good`
    # demands, so the search skips the homotopies it would reject
    pins = {}

    def pin(k, e, phi, value):
        key = (k, _pair_id(e, phi))
        pins[key] = {value}.intersection(pins.get(key, (value,)))

    for k in range(top + 1):
        for e in col1_t.level(k):
            pin(k, e, "1" * (k + 1), dm1(k, e))
            pin(k, e, "0" * (k + 1), dm2(k, e))
        for phi in d1.level(k):
            pin(k, base_cell[k], phi, unit_chain[k])
    homotopies = sp.enumerate_maps(prod, nsg, upto=top, budget=budget,
                                   pins=pins)
    squares = [(mi[t1[top]], mi[t2[bot]], edges)
               for top, bot, *edges in _x12_squares(x_bx)]

    def good(h):
        def ev(k, e, phi):
            return h(k, _pair_id(e, phi))
        # the delta_1 end restricts to det1 and the delta_0 end to det2;
        # the degenerate-base cylinder maps to identity chains
        return (all(ev(k, e, "1" * (k + 1)) == dm1(k, e)
                    and ev(k, e, "0" * (k + 1)) == dm2(k, e)
                    for k in range(top + 1) for e in col1_t.level(k))
                and all(ev(k, base_cell[k], phi) == unit_chain[k]
                        for k in range(top + 1) for phi in d1.level(k))
                and all(_natural(ix, *[mi[nsg._mor1[ev(1, e, "01")]]
                                       for e in edges], s, t)
                        for s, t, edges in squares))

    return [h for h in homotopies if good(h)]


def segal_pi0(x_bx, g, budget=None):
    """Classes of Segal determinants under the exists-a-morphism
    relation, with symmetry/transitivity verified."""
    dets = enumerate_segal_determinants(x_bx, g, budget=budget)
    classes = _relation_classes(
        len(dets), lambda i, j: segal_det_morphisms(
            x_bx, g, dets[i], dets[j], budget=budget), "segal determinant")
    return classes, dets


def hom1_enriched(x_bx, g, n_max=2, ns=None, budget=None):
    """The direction-1 enriched hom into the Segal nerve, as a truncated
    simplicial set: level n = bisimplicial maps X x p1*(Delta^n) -> N_S(G)."""
    if ns is None:
        ns = nv.segal_nerve(g, 2, 3)
    region = set(x_bx.region) & set(ns.region)
    prods = []
    pair_tables = []
    for n in range(n_max + 1):
        dn = sp.standard_simplex(n, max(p for p, q in region))
        prod, pairs = _bi_product_p1(x_bx, dn, region)
        prods.append(prod)
        pair_tables.append(pairs)
    maps = [sorted(nv.enumerate_bimaps(prods[n], ns, region=region,
                                       budget=budget), key=_canon)
            for n in range(n_max + 1)]

    def pull(n_to, n, post):
        # the cell (x|phi) of the level-n_to source goes to (x|post(phi))
        out = {}
        for (p, q) in sorted(region):
            row = out[(p, q)] = {}
            for cell in prods[n_to].level(p, q):
                x, phi = pair_tables[n_to][(p, q, cell)]
                row[cell] = _pair_id(x, post(phi))
        return out

    return _transported_hom(maps, pull, "H")


def _bi_product_p1(x_bx, dn, region):
    """X x p1*(Delta^n) over the region, with a pair decode table."""
    cols = {(p, q): sp.pair_columns(x_bx.level(p, q), dn.level(p))
            for (p, q) in region}
    levels = {pq: list(map(_pair_id, xs, ys)) for pq, (xs, ys) in cols.items()}
    pairs = {pq + (cell,): xy for pq, (xs, ys) in cols.items()
             for cell, xy in zip(levels[pq], zip(xs, ys))}

    def op(name, p, q, i):
        xs, ys = cols[p, q]
        xs = sp.column(xs, (getattr(x_bx, name)[p, q, i],))
        if name[0] == "h":
            ys = sp.column(ys, (getattr(dn, name[1:])[p, i],))
        return dict(zip(levels[p, q], map(_pair_id, xs, ys)))

    return nv.build_bisimplicial(region, levels, op), pairs
