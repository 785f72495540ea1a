"""Differential tests: the face-indexed fast paths and the scheduled
searches against the simple references they replace."""

import itertools

import pytest

from kanforge import simplicial as sp
from kanforge import nerves as nv
from kanforge import catalg as ca
from kanforge import determinants as dt
from kanforge import examples as ex
from kanforge import groups as gr

# brute force walks |level|^(slots) candidates; larger cases are left out
PRODUCT_CAP = 300000


def reference_tuples(cells, face, m, skip=None):
    """Every tuple of cells (None at skip) with d_i a_j = d_{j-1} a_i for
    i < j, by filtering itertools.product in level order."""
    slots = [j for j in range(m + 2) if j != skip]
    out = []
    for combo in itertools.product(cells, repeat=len(slots)):
        t = [None] * (m + 2)
        for j, a in zip(slots, combo):
            t[j] = a
        if m >= 1 and any(face(i, t[j]) != face(j - 1, t[i])
                          for i in slots for j in slots if i < j):
            continue
        out.append(tuple(t))
    return out


def complexes():
    out = [("delta%d" % n, sp.standard_simplex(n, 2)) for n in range(4)]
    out += [("delta1-3", sp.standard_simplex(1, 3)),
            ("boundary-delta2", sp.boundary_simplex(2, 3)),
            ("boundary-delta3", sp.boundary_simplex(3, 2)),
            ("horn-2-1", sp.horn_complex(2, 1, 3)),
            ("horn-3-0", sp.horn_complex(3, 0, 2)),
            ("delta1xdelta1", sp.product(sp.standard_simplex(1, 2),
                                         sp.standard_simplex(1, 2))),
            ("delta1xdelta2", sp.product(sp.standard_simplex(1, 2),
                                         sp.standard_simplex(2, 2)))]
    out += [("nerve-%s" % name, nv.nerve_2group(g, 2))
            for name, g in ex.canned_two_groups()]
    return out


def cases():
    for name, x in complexes():
        for m in range(x.dim + 1):
            if len(x.level(m)) ** (m + 2) <= PRODUCT_CAP:
                yield pytest.param(x, m, id="%s-m%d" % (name, m))


@pytest.mark.parametrize("x,m", list(cases()))
def test_boundary_and_horn_tuples_match_brute_force(x, m):
    def face(i, a):
        return x.d(m, i, a)

    assert sp.boundary_tuples(x, m) == reference_tuples(x.level(m), face, m)
    for k in range(m + 2):
        assert sp.horn_tuples(x, m, k) == \
            reference_tuples(x.level(m), face, m, skip=k)


@pytest.mark.parametrize("name", ["disc-z2", "oneobj-z2"])
def test_h_boundary_tuples_match_brute_force(name):
    ns = nv.segal_nerve(ex.build(name), 2, 3)
    for (p, q) in sorted(ns.region):
        if p == 0 or len(ns.level(p - 1, q)) ** (p + 1) > PRODUCT_CAP:
            continue

        def face(i, a):
            return ns.dh(p - 1, q, i, a)

        assert nv._h_boundary_tuples(ns, p, q) == \
            reference_tuples(ns.level(p - 1, q), face, p - 1)


def reference_vmap_mor(lv, phi, q_from, q_to, mid):
    """Reindex one morphism of the q_from-simplex groupoid directly
    through _phi_star."""
    st, fam, _ = lv.mor[q_from][mid]
    new_src = nv._phi_star(lv.g, phi, q_from, q_to, st)
    objs, _ = nv._struct_to_dict(lv.g, q_to, new_src)
    unit = lv.g.base.id_of(lv.g.unit)
    new_fam = {(i, j): unit if phi[i] == phi[j] else fam[(phi[i], phi[j])]
               for (i, j) in objs}
    return nv._fam_id(nv._struct_id(new_src), new_fam)


@pytest.mark.parametrize("name", ["oneobj-z2", "disc-z2-x-oneobj-z2"])
def test_vmap_tables_match_phi_star(name):
    lv = nv._SegalLevels(ex.build(name), 3)
    for q in range(1, 4):
        for phi, q_from, q_to in \
                [(nv._delta(i, q), q, q - 1) for i in range(q + 1)] + \
                [(nv._sigma(j, q - 1), q - 1, q) for j in range(q)]:
            table = lv.vmap_mor_table(phi, q_from, q_to)
            assert set(table) == set(lv.mor[q_from])
            for mid, img in table.items():
                assert img == reference_vmap_mor(lv, phi, q_from, q_to, mid)


@pytest.mark.parametrize("name", [n for n, _ in ex.canned_two_groups()])
def test_segal_nerve_levels_and_operators(name):
    ns = nv.segal_nerve(ex.build(name), 2, 3)
    assert ns.validate() == []
    lv = ns._segal_levels
    for (p, q) in ns.region:
        assert len(ns.level(p, q)) == lv.level_size(p, q)
    own = {pq: {id(x) for x in ids} for pq, ids in ns.levels.items()}
    for ops, target in [(ns.hface, lambda p, q: (p - 1, q)),
                        (ns.vface, lambda p, q: (p, q - 1)),
                        (ns.hdegen, lambda p, q: (p + 1, q)),
                        (ns.vdegen, lambda p, q: (p, q + 1))]:
        for (p, q, _), mp in ops.items():
            dst = target(p, q)
            assert set(mp) == set(ns.level(p, q))
            # each value is the target level's own id object
            assert all(id(v) in own[dst] for v in mp.values())


# -- the searches against references that recheck every constraint ------------
#
# Each reference is the search as it stood before completion schedules:
# after every assignment it retests every constraint whose variables are
# all assigned.  It returns its results and the budget ticks it used.


def reference_maps(x, y, upto):
    d = upto
    if y.dim < d:
        y = sp._ensure_depth(y, d)
    ticks = [0]
    indices = {k: sp._candidate_index(y, k) for k in range(1, d + 1)}
    pres_at = []
    for k in range(d + 1):
        pres = {}
        for j in range(k):
            for a, sa in x.degen[(k - 1, j)].items():
                pres.setdefault(sa, []).append((j, a))
        pres_at.append(pres)
    supports = [dict() for _ in range(d + 1)]
    for k in range(1, d + 1):
        for s in x.level(k):
            for f in set(x.faces(k, s)):
                supports[k - 1].setdefault(f, []).append((k, s))
    results = []
    comps = [dict() for _ in range(d + 1)]

    def forward_ok(k, s):
        for (k2, hi) in supports[k].get(s, ()):
            want = tuple(comps[k2 - 1].get(f) for f in x.faces(k2, hi))
            if None not in want and want not in indices[k2]:
                return False
        return True

    def assign_level(k):
        if k > d:
            results.append(sp.SSetMap(x, y, {kk: dict(comps[kk])
                                             for kk in range(d + 1)}))
            return
        frees = []
        for s in x.level(k):
            if s not in pres_at[k]:
                frees.append(s)
                continue
            vals = {y.s(k - 1, j, comps[k - 1][a]) for (j, a) in pres_at[k][s]}
            if len(vals) != 1:
                comps[k] = {}
                return
            v = vals.pop()
            if y.faces(k, v) != tuple(comps[k - 1][f] for f in x.faces(k, s)):
                comps[k] = {}
                return
            comps[k][s] = v
        if k < d and not all(forward_ok(k, s) for s in list(comps[k])):
            comps[k] = {}
            return
        cand_lists = []
        for s in frees:
            ticks[0] += 1
            if k == 0:
                cands = list(y.level(0))
            else:
                want = tuple(comps[k - 1][f] for f in x.faces(k, s))
                cands = indices[k].get(want, [])
            if not cands:
                comps[k] = {}
                return
            cand_lists.append(cands)

        def choose(idx):
            if idx == len(frees):
                assign_level(k + 1)
                return
            s = frees[idx]
            for v in cand_lists[idx]:
                ticks[0] += 1
                comps[k][s] = v
                if k >= d or forward_ok(k, s):
                    choose(idx + 1)
                del comps[k][s]

        choose(0)
        comps[k] = {}

    assign_level(0)
    if x.base is not None and y.base is not None:
        results = [f for f in results if f(0, x.base) == y.base]
    return results, ticks[0]


def reference_additive(x, group):
    loop0 = x.s(0, 0, x.level(0)[0])
    cons = [x.faces(2, a) for a in x.level(2)]     # D(d1 a) = D(d2 a) D(d0 a)
    frees = [e for e in x.level(1) if e != loop0]
    assign = {loop0: group.unit}
    out, ticks = [], [0]

    def rec(i):
        ticks[0] += 1
        if i == len(frees):
            out.append(dict(assign))
            return
        for val in group.elements:
            assign[frees[i]] = val
            if all(assign[f1] == group.mul(assign[f2], assign[f0])
                   for (f0, f1, f2) in cons
                   if f0 in assign and f1 in assign and f2 in assign):
                rec(i + 1)
            del assign[frees[i]]

    rec(0)
    return out, ticks[0]


def reference_determinants(x, g):
    c = g.base
    loop0 = x.s(0, 0, x.level(0)[0])
    loop1 = x.s(1, 0, loop0)
    edges = [e for e in x.level(1) if e != loop0]
    tris = [t for t in x.level(2) if t != loop1]
    d_assign = {loop0: g.unit}
    t_assign = {loop1: g.mor_inverse(g.l(g.unit))}
    out, ticks = [], [0]

    def assoc_ok(h):
        fs = x.faces(3, h)
        if any(f not in t_assign for f in fs):
            return True
        xi0, xi1, xi2, xi3 = [t_assign[f] for f in fs]
        x01 = d_assign[x.d(2, 2, fs[2])]
        x12 = d_assign[x.d(2, 0, fs[3])]
        x23 = d_assign[x.d(2, 0, fs[1])]
        lhs = c.comp(xi2, c.comp(g.tm(c.id_of(x01), xi0), g.a(x01, x12, x23)))
        return lhs == c.comp(xi1, g.tm(xi3, c.id_of(x23)))

    def rec_t(i):
        ticks[0] += 1
        if i == len(tris):
            out.append((dict(d_assign), dict(t_assign)))
            return
        f0, f1, f2 = x.faces(2, tris[i])
        src = g.t(d_assign[f2], d_assign[f0])
        for m in sorted(c.morphisms):
            if c.src[m] != src or c.tgt[m] != d_assign[f1]:
                continue
            t_assign[tris[i]] = m
            if all(assoc_ok(h) for h in x.level(3)):
                rec_t(i + 1)
            del t_assign[tris[i]]

    def rec_d(i):
        ticks[0] += 1
        if i == len(edges):
            rec_t(0)
            return
        for obj in c.objects:
            d_assign[edges[i]] = obj
            rec_d(i + 1)
            del d_assign[edges[i]]

    rec_d(0)
    return out, ticks[0]


def reference_det_morphisms(x, g, det1, det2):
    c = g.base
    (d1, t1), (d2, t2) = det1, det2
    loop0 = x.s(0, 0, x.level(0)[0])
    edges = [e for e in x.level(1) if e != loop0]
    assign = {loop0: c.id_of(g.unit)}
    out, ticks = [], [0]

    def nat_ok(t):
        fs = x.faces(2, t)
        if any(f not in assign for f in fs):
            return True
        h0, h1, h2 = [assign[f] for f in fs]
        return c.comp(h1, t1[t]) == c.comp(t2[t], g.tm(h2, h0))

    def rec(i):
        ticks[0] += 1
        if i == len(edges):
            out.append(dict(assign))
            return
        for h in c.hom(d1[edges[i]], d2[edges[i]]):
            assign[edges[i]] = h
            if all(nat_ok(t) for t in x.level(2)):
                rec(i + 1)
            del assign[edges[i]]

    rec(0)
    return out, ticks[0]


def reference_segal_determinants(x_bx, g):
    c = g.base
    nsg = nv.nerve_category(c, 2)
    col1 = x_bx.column(1)
    col1_t = sp.TruncatedSSet(2, [col1.level(k) for k in range(3)],
                              {k: v for k, v in col1.face.items() if k[0] <= 2},
                              {k: v for k, v in col1.degen.items() if k[0] <= 1},
                              base=col1.base)
    d_maps, map_ticks = reference_maps(col1_t, nsg, 2)
    d_maps.sort(key=lambda f: f.key())
    v_deg1 = x_bx.vdegen[(0, 0, 0)][x_bx.level(0, 0)[0]]
    v_deg2 = x_bx.vdegen[(0, 1, 0)][v_deg1]
    x02 = list(x_bx.level(0, 2))
    frees = [xi for xi in x02 if xi != v_deg2]
    out, ticks = [], [0]
    for dm in d_maps:
        if dm(0, v_deg1) != g.unit:
            continue
        t_assign = {}

        def cands(xi):
            src = g.t(dm(0, x_bx.dv(0, 2, 2, xi)), dm(0, x_bx.dv(0, 2, 0, xi)))
            tgt = dm(0, x_bx.dv(0, 2, 1, xi))
            return [m for m in sorted(c.morphisms)
                    if c.src[m] == src and c.tgt[m] == tgt]

        def nat_ok(z):
            top, bot = x_bx.dh(1, 2, 1, z), x_bx.dh(1, 2, 0, z)
            if top not in t_assign or bot not in t_assign:
                return True
            h0, h1, h2 = [nsg._mor1[dm(1, x_bx.dv(1, 2, i, z))]
                          for i in range(3)]
            return c.comp(h1, t_assign[top]) == \
                c.comp(t_assign[bot], g.tm(h2, h0))

        def assoc_ok(h):
            fs = [x_bx.dv(0, 3, i, h) for i in range(4)]
            if any(f not in t_assign for f in fs):
                return True
            x01 = dm(0, x_bx.dv(0, 2, 2, fs[3]))
            x12 = dm(0, x_bx.dv(0, 2, 0, fs[3]))
            x23 = dm(0, x_bx.dv(0, 2, 0, fs[1]))
            xi0, xi1, xi2, xi3 = [t_assign[f] for f in fs]
            lhs = c.comp(xi2, c.comp(g.tm(c.id_of(x01), xi0),
                                     g.a(x01, x12, x23)))
            return lhs == c.comp(xi1, g.tm(xi3, c.id_of(x23)))

        unit = g.mor_inverse(g.l(g.unit))
        if unit not in cands(v_deg2):
            continue
        t_assign[v_deg2] = unit

        def rec(i):
            ticks[0] += 1
            if i == len(frees):
                out.append((dm, dict(t_assign)))
                return
            for m in cands(frees[i]):
                t_assign[frees[i]] = m
                if all(nat_ok(z) for z in x_bx.level(1, 2)) and \
                        all(assoc_ok(h) for h in x_bx.level(0, 3)):
                    rec(i + 1)
                del t_assign[frees[i]]

        rec(0)
    # the map search counts its own ticks against the same cap
    return out, max(ticks[0], map_ticks)


def assert_ticks(run, ticks):
    """run(budget) succeeds with `ticks` evaluations and not with fewer."""
    run(ticks)
    with pytest.raises(sp.SearchBudgetExceeded):
        run(ticks - 1)


def map_keys(maps):
    return [f.key() for f in maps]


def group_cases():
    return [pytest.param(x, ex.build(h), id="%s-%s" % (sn, h))
            for sn, x in ex.reduced_test_spaces() for h in ("z2", "z3", "s3")]


def two_group_cases():
    return [pytest.param(x, g, id="%s-%s" % (sn, gn))
            for sn, x in ex.reduced_test_spaces()
            for gn, g in ex.canned_two_groups()]


@pytest.mark.parametrize("x,h", group_cases())
def test_additive_and_maps_into_group_nerve_match_reference(x, h):
    want, ticks = reference_additive(x, h)
    assert dt.enumerate_additive(x, h) == want
    assert_ticks(lambda b: dt.enumerate_additive(x, h, budget=b), ticks)
    ner = nv.nerve_category(ca.one_object_groupoid(h), max(2, x.dim))
    want, ticks = reference_maps(x, ner, x.dim)
    assert map_keys(sp.enumerate_maps(x, ner, upto=x.dim)) == map_keys(want)
    assert_ticks(lambda b: sp.enumerate_maps(x, ner, upto=x.dim, budget=b),
                 ticks)


@pytest.mark.parametrize("x,g", two_group_cases())
def test_determinant_searches_match_reference(x, g):
    ng = nv.nerve_2group(g, 3)
    want, ticks = reference_maps(x, ng, x.dim)
    assert map_keys(sp.enumerate_maps(x, ng, upto=x.dim)) == map_keys(want)
    assert_ticks(lambda b: sp.enumerate_maps(x, ng, upto=x.dim, budget=b),
                 ticks)
    dets, ticks = reference_determinants(x, g)
    assert dt.enumerate_determinants(x, g) == dets
    assert_ticks(lambda b: dt.enumerate_determinants(x, g, budget=b), ticks)
    for det1 in dets:
        for det2 in dets:
            want, ticks = reference_det_morphisms(x, g, det1, det2)
            assert dt.det_morphisms(x, g, det1, det2) == want
            assert_ticks(lambda b: dt.det_morphisms(x, g, det1, det2,
                                                    budget=b), ticks)


def coskeleton_fixtures():
    full = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(2)), 3)
    tau2 = sp.TruncatedSSet(2, full.levels[:3],
                            {k: v for k, v in full.face.items() if k[0] <= 2},
                            {k: v for k, v in full.degen.items() if k[0] <= 1},
                            coskeletal_at=2, base=full.base)
    ext = sp.coskeletal_extend(tau2, 3)
    y, _ = sp.csq_prime(full, 1)
    return [(ext, full), (full, y), (full, full)]


def test_find_isomorphism_maps_match_reference():
    for x, y in coskeleton_fixtures():
        d = min(x.dim, y.dim)
        want, _ = reference_maps(x, y, d)
        got = sp.enumerate_maps(x, y, upto=d)
        assert map_keys(got) == map_keys(want)
        iso = sp.find_isomorphism(x, y)
        assert iso is not None
        assert iso.key() == next(f for f in want if f.is_iso()).key()


def test_base_pinned_before_the_map_search():
    def based(x, i):
        return sp.TruncatedSSet(x.dim, x.levels, x.face, x.degen,
                                base=x.level(0)[i])

    x = based(sp.standard_simplex(2, 2), 1)
    y = based(ex.build("nerve-indiscrete3"), 2)
    want, ticks = reference_maps(x, y, 2)
    assert want and map_keys(sp.enumerate_maps(x, y)) == map_keys(want)
    # the pinned search skips the other images of the base vertex
    sp.enumerate_maps(x, y, budget=ticks - 1)


@pytest.mark.parametrize("name", [n for n, _ in ex.canned_two_groups()])
def test_segal_determinants_match_reference(name):
    g = ex.build(name)
    x_bx = nv.p2_star(ex.build("s1"), 2)
    want, ticks = reference_segal_determinants(x_bx, g)
    got = dt.enumerate_segal_determinants(x_bx, g)
    assert [(dm.key(), t) for dm, t in got] == \
        [(dm.key(), t) for dm, t in want]
    assert_ticks(lambda b: dt.enumerate_segal_determinants(x_bx, g, budget=b),
                 ticks)


def test_search_budgets_pinned():
    # the fewest evaluations each search needs, as counted before
    # completion schedules: an unchanged count means an unchanged tree
    t12, g = ex.build("t12"), ex.build("oneobj-z3")
    assert_ticks(lambda b: dt.enumerate_determinants(t12, g, budget=b), 2210)
    ng = nv.nerve_2group(g, 3)
    assert_ticks(lambda b: dt.hom_sset(t12, ng, budget=b), 3382)
