"""Differential tests: the face-indexed fast paths and the scheduled
searches against the simple references they replace."""

import functools
import itertools

import pytest

from kanforge import simplicial as sp
from kanforge import nerves as nv
from kanforge import catalg as ca
from kanforge import determinants as dt
from kanforge import examples as ex
from kanforge import groups as gr
from kanforge import serialize as io

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


def dd_broken_delta2():
    """standard_simplex(2, 3) with d_0(012) rewired to 01: the face
    tuples of levels 2 and 3 break the dd identity, so the Kan rows and
    classify cannot decide onto-ness by counting."""
    x = sp.standard_simplex(2, 3)
    face = dict(x.face)
    face[(2, 0)] = dict(face[(2, 0)], **{"012": "01"})
    return sp.TruncatedSSet(x.dim, x.levels, face, x.degen)


def empty_complex():
    """The 2-truncated simplicial set with no cells, which validates."""
    return sp.TruncatedSSet(
        2, [[], [], []], {(k, i): {} for k in (1, 2) for i in range(k + 1)},
        {(k, j): {} for k in (0, 1) for j in range(k + 1)})


def topless_delta2():
    """standard_simplex(2, 2) with level 2 emptied, as a file that skips
    validation may give it: every horn of level 1 lacks a filler."""
    x = sp.standard_simplex(2, 2)
    face = {key: ({} if key[0] == 2 else mp) for key, mp in x.face.items()}
    return sp.TruncatedSSet(x.dim, x.levels[:2] + [[]], face, x.degen)


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
                                         sp.standard_simplex(2, 2))),
            ("dd-broken-delta2", dd_broken_delta2()),
            ("empty", empty_complex()),
            ("topless-delta2", topless_delta2())]
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


@pytest.mark.parametrize("x,m", list(cases()))
def test_tuple_counts_match_listings(x, m):
    cells, faces = x.level(m), x.face_table(m)
    for skip in [None] + list(range(m + 2)):
        assert sp.compatible_tuples(cells, faces, m, skip, count=True) == \
            len(sp.compatible_tuples(cells, faces, m, skip))


@pytest.mark.parametrize("name", ["disc-z2", "oneobj-z2"])
def test_h_boundary_tuple_counts_match_listings(name):
    ns = nv.segal_nerve(ex.build(name), 2, 3)
    for (p, q) in sorted(ns.region):
        if p == 0 or len(ns.level(p - 1, q)) ** (p + 1) > PRODUCT_CAP:
            continue
        args = (ns.level(p - 1, q), ns.face_table(p - 1, q, "h"), p - 1)
        assert sp.compatible_tuples(*args, count=True) == \
            len(nv._h_boundary_tuples(ns, p, q))


# -- the 2-group nerve against the struct-keyed reindexing it replaces --------


def reference_monoidal_simplices(m, q):
    """Structural q-simplices, enumerated on ids."""
    c = m.base
    if q == 0:
        return [("q0",)]
    if q == 1:
        return [("q1", x) for x in c.objects]
    if q == 2:
        out = []
        for x01 in c.objects:
            for x12 in c.objects:
                srcobj = m.t(x01, x12)
                for xi in c.morphisms:
                    if c.src[xi] == srcobj:
                        out.append(("q2", x01, x12, xi))
        return out
    out = []
    two = {}
    for st in reference_monoidal_simplices(m, 2):
        two.setdefault((st[1], st[2]), []).append(st[3])
    for x01 in c.objects:
        for x12 in c.objects:
            for x23 in c.objects:
                for xi3 in two.get((x01, x12), []):       # al_012
                    x02 = c.tgt[xi3]
                    for xi0 in two.get((x12, x23), []):   # al_123
                        x13 = c.tgt[xi0]
                        for xi1 in two.get((x02, x23), []):   # al_023
                            x03 = c.tgt[xi1]
                            for xi2 in two.get((x01, x13), []):   # al_013
                                if c.tgt[xi2] != x03:
                                    continue
                                lhs = c.comp(xi2,
                                             c.comp(m.tm(c.id_of(x01), xi0),
                                                    m.a(x01, x12, x23)))
                                rhs = c.comp(xi1, m.tm(xi3, c.id_of(x23)))
                                if lhs == rhs:
                                    out.append(("q3", x01, x12, x23,
                                                xi0, xi1, xi2, xi3))
    return out


def reference_struct_to_dict(m, q, st):
    c = m.base
    if q == 0:
        return {}, {}
    if q == 1:
        return {(0, 1): st[1]}, {}
    if q == 2:
        _, x01, x12, xi = st
        objs = {(0, 1): x01, (1, 2): x12, (0, 2): c.tgt[xi]}
        return objs, {(0, 1, 2): xi}
    _, x01, x12, x23, xi0, xi1, xi2, xi3 = st
    objs = {(0, 1): x01, (1, 2): x12, (2, 3): x23,
            (0, 2): c.tgt[xi3], (1, 3): c.tgt[xi0], (0, 3): c.tgt[xi1]}
    return objs, {(1, 2, 3): xi0, (0, 2, 3): xi1, (0, 1, 3): xi2,
                  (0, 1, 2): xi3}


def reference_dict_to_struct(m, q, objs, als):
    if q == 0:
        return ("q0",)
    if q == 1:
        return ("q1", objs[(0, 1)])
    if q == 2:
        return ("q2", objs[(0, 1)], objs[(1, 2)], als[(0, 1, 2)])
    return ("q3", objs[(0, 1)], objs[(1, 2)], objs[(2, 3)],
            als[(1, 2, 3)], als[(0, 2, 3)], als[(0, 1, 3)], als[(0, 1, 2)])


def reference_phi_star(m, phi, q_from, q_to, st):
    """Reindex a structural simplex along a monotone map [q_to] -> [q_from]."""
    objs, als = reference_struct_to_dict(m, q_from, st)

    def obj(i, j):
        if phi[i] == phi[j]:
            return m.unit
        return objs[(phi[i], phi[j])]

    new_objs = {}
    new_als = {}
    for i in range(q_to + 1):
        for j in range(i + 1, q_to + 1):
            new_objs[(i, j)] = obj(i, j)
    for i in range(q_to + 1):
        for j in range(i + 1, q_to + 1):
            for k in range(j + 1, q_to + 1):
                yik = obj(i, k)
                if phi[i] == phi[j]:
                    new_als[(i, j, k)] = m.mor_inverse(m.l(yik))
                elif phi[j] == phi[k]:
                    new_als[(i, j, k)] = m.mor_inverse(m.r(yik))
                else:
                    new_als[(i, j, k)] = als[(phi[i], phi[j], phi[k])]
    return reference_dict_to_struct(m, q_to, new_objs, new_als)


def reference_nerve_2group(g, to_dim):
    cap = min(to_dim, 3)
    structs = {q: reference_monoidal_simplices(g, q) for q in range(cap + 1)}
    ids = {q: [nv._struct_id(st) for st in structs[q]] for q in range(cap + 1)}
    lookup = {q: {st: nv._struct_id(st) for st in structs[q]}
              for q in range(cap + 1)}
    levels = [["*"] if q == 0 else ids[q] for q in range(cap + 1)]
    face = {}
    degen = {}
    for q in range(1, cap + 1):
        for i in range(q + 1):
            phi = nv._delta(i, q)
            mp = {}
            for st in structs[q]:
                img = reference_phi_star(g, phi, q, q - 1, st)
                mp[nv._struct_id(st)] = "*" if q == 1 else lookup[q - 1][img]
            face[(q, i)] = mp
    for q in range(cap):
        for j in range(q + 1):
            phi = nv._sigma(j, q)
            mp = {}
            for st in structs[q]:
                img = reference_phi_star(g, phi, q, q + 1, st)
                mp[nv._struct_id(st)] = lookup[q + 1][img]
            degen[(q, j)] = mp
    out = sp.TruncatedSSet(cap, levels, face, degen, coskeletal_at=3, base="*")
    if to_dim > cap:
        out = sp.coskeletal_extend(out, to_dim)
    out._struct = {q: dict(zip(ids[q], structs[q])) for q in range(cap + 1)}
    return out


def unitor_twisted_two_group():
    """K(Z/2, Z/2) with the coboundary associator w = dc of the 2-cochain
    c(x, y) = [x != 0 and y == 0]: l_x = c(0, x) = id and r_x = c(x, 0),
    so r_1 is not an identity while l_1 is."""
    els = (0, 1)

    def mor(x, a):
        return "k%d_%d" % (x, a)

    def c(x, y):
        return int(x != 0 and y == 0)

    def dc(x, y, z):
        return (c(y, z) + c((x + y) % 2, z) + c(x, (y + z) % 2) + c(x, y)) % 2

    objs = ["o%d" % x for x in els]
    morphs = [mor(x, a) for x in els for a in els]
    src = {mor(x, a): objs[x] for x in els for a in els}
    comp = {(mor(x, b), mor(x, a)): mor(x, (a + b) % 2)
            for x in els for a in els for b in els}
    base = ca.FinGroupoid(objs, morphs, src, dict(src),
                          {objs[x]: mor(x, 0) for x in els}, comp,
                          inv={f: f for f in morphs}, name="K(Z2,Z2)")
    tobj = {(objs[x], objs[y]): objs[(x + y) % 2] for x in els for y in els}
    tmor = {(mor(x, a), mor(y, b)): mor((x + y) % 2, (a + b) % 2)
            for x in els for a in els for y in els for b in els}
    assoc = {(objs[x], objs[y], objs[z]): mor((x + y + z) % 2, dc(x, y, z))
             for x in els for y in els for z in els}
    lunit = {objs[x]: mor(x, c(0, x)) for x in els}
    runit = {objs[x]: mor(x, c(x, 0)) for x in els}
    m = ca.MonoidalStructure(base, tobj, tmor, objs[0], assoc, lunit, runit,
                             name="K(Z2,Z2)-dc")
    return ca.certify_two_group(m)


def reference_vmap_mor(lv, phi, q_from, q_to, m):
    """Reindex morphism m of the q_from-simplex groupoid directly
    through _phi_star; its string id."""
    st = lv.structs[q_from][lv.src[q_from][m]]
    fam = dict(zip(nv._pairs(q_from),
                   [lv.base_mor[f] for f in lv.fam[q_from][m]]))
    new_src = reference_phi_star(lv.g, phi, q_from, q_to, st)
    objs, _ = reference_struct_to_dict(lv.g, q_to, new_src)
    unit = lv.g.base.id_of(lv.g.unit)
    new_fam = {(i, j): unit if phi[i] == phi[j] else fam[(phi[i], phi[j])]
               for (i, j) in objs}
    return reference_fam_id(nv._struct_id(new_src), new_fam)


@pytest.mark.parametrize("name", ["oneobj-z2", "disc-z2-x-oneobj-z2"])
def test_vmap_tables_match_phi_star(name):
    lv = nv._SegalLevels(ex.build(name), 3)
    for q in range(1, 4):
        for phi, q_from, q_to in \
                [(nv._delta(i, q), q, q - 1) for i in range(q + 1)] + \
                [(nv._sigma(j, q - 1), q - 1, q) for j in range(q)]:
            table = lv.vmap_mor_table(phi, q_from, q_to)
            assert len(table) == len(lv.mor_names[q_from])
            for m, img in enumerate(table):
                assert lv.mor_names[q_to][img] == \
                    reference_vmap_mor(lv, phi, q_from, q_to, m)


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


# -- the Segal nerve against the string-keyed build it replaces ----------------
#
# reference_q_simplex_morphisms, ReferenceSegalLevels, reference_segal_nerve
# and reference_q_simplex_groupoid keep the construction on string ids:
# every morphism is composed and reindexed through its "f(src|m0,m1,..)" id.


def reference_q_simplex_morphisms(g, q, structs):
    c = g.base
    out = {}
    for st in structs:
        objs, als = reference_struct_to_dict(g, q, st)
        pairs = sorted(objs)
        fams = []
        cand = [[f for f in c.morphisms if c.src[f] == objs[p]] for p in pairs]

        def rec(i, fam):
            if i == len(pairs):
                new_objs = {p: c.tgt[fam[p]] for p in pairs}
                new_als = {}
                for (a, b, k2) in als:
                    f_ik, f_ij, f_jk = fam[(a, k2)], fam[(a, b)], fam[(b, k2)]
                    be = c.comp(c.comp(f_ik, als[(a, b, k2)]),
                                g.mor_inverse(g.tm(f_ij, f_jk)))
                    if c.src[be] != g.t(new_objs[(a, b)], new_objs[(b, k2)]) \
                            or c.tgt[be] != new_objs[(a, k2)]:
                        return
                    new_als[(a, b, k2)] = be
                fams.append((dict(fam),
                             reference_dict_to_struct(g, q, new_objs, new_als)))
                return
            for f in cand[i]:
                fam[pairs[i]] = f
                rec(i + 1, fam)
                del fam[pairs[i]]

        rec(0, {})
        out[st] = fams
    return out


def reference_fam_id(src_id, fam):
    return "f(%s|%s)" % (src_id, ",".join("%s" % (fam[p],) for p in sorted(fam)))


class ReferenceSegalLevels:
    def __init__(self, g, qmax):
        self.g = g
        self.qmax = qmax = min(qmax, 3)
        self.structs = {q: reference_monoidal_simplices(g, q)
                        for q in range(qmax + 1)}
        self.ids = {q: [nv._struct_id(st) for st in self.structs[q]]
                    for q in range(qmax + 1)}
        self.sid = {q: dict(zip(self.ids[q], self.structs[q]))
                    for q in range(qmax + 1)}
        self.mor, self.src, self.tgt = {}, {}, {}
        for q in range(qmax + 1):
            fams = reference_q_simplex_morphisms(g, q, self.structs[q])
            sid_of = dict(zip(self.structs[q], self.ids[q]))
            table, src, tgt = {}, {}, {}
            for st, sid_ in zip(self.structs[q], self.ids[q]):
                for fam, tst in fams[st]:
                    mid = reference_fam_id(sid_, fam)
                    table[mid] = (st, fam, tst)
                    src[mid] = sid_
                    tgt[mid] = sid_of[tst]
            self.mor[q], self.src[q], self.tgt[q] = table, src, tgt
        self._vmap_mor = {}

    def level_size(self, p, q):
        counts = dict.fromkeys(self.ids[q], 1)
        for _ in range(p):
            nxt = dict.fromkeys(self.ids[q], 0)
            for mid, src in self.src[q].items():
                nxt[self.tgt[q][mid]] += counts[src]
            counts = nxt
        return sum(counts.values())

    def chains(self, p, q):
        mids = sorted(self.mor[q])
        out_by_src = {}
        for mid in mids:
            out_by_src.setdefault(self.src[q][mid], []).append(mid)
        cur = [(mid,) for mid in mids]
        for _ in range(p - 1):
            cur = [c + (mid,) for c in cur
                   for mid in out_by_src.get(self.tgt[q][c[-1]], ())]
        return cur

    def compose(self, q, m2, m1):
        fam1, fam2 = self.mor[q][m1][1], self.mor[q][m2][1]
        c = self.g.base
        fam = {p: c.comp(fam2[p], fam1[p]) for p in fam1}
        mid = reference_fam_id(self.src[q][m1], fam)
        assert mid in self.mor[q]
        return mid

    def identity(self, q, sid_):
        objs, _ = reference_struct_to_dict(self.g, q, self.sid[q][sid_])
        c = self.g.base
        return reference_fam_id(sid_, {p: c.id_of(objs[p]) for p in objs})

    def vmap_obj(self, phi, q_from, q_to, sid_):
        return nv._struct_id(reference_phi_star(self.g, phi, q_from, q_to,
                                          self.sid[q_from][sid_]))

    def vmap_mor(self, phi, q_from, q_to, mid):
        key = (phi, q_from, q_to, mid)
        if key not in self._vmap_mor:
            fam = self.mor[q_from][mid][1]
            unit_id = self.g.base.id_of(self.g.unit)
            new_fam = {(i, j): unit_id if phi[i] == phi[j]
                       else fam[(phi[i], phi[j])]
                       for i in range(q_to + 1) for j in range(i + 1, q_to + 1)}
            self._vmap_mor[key] = reference_fam_id(
                self.vmap_obj(phi, q_from, q_to, self.src[q_from][mid]),
                new_fam)
        return self._vmap_mor[key]


def reference_segal_nerve(g, pmax, qmax, level_budget=50000):
    lv = ReferenceSegalLevels(g, qmax)
    region = set()
    for q in range(lv.qmax + 1):
        for p in range(pmax + 1):
            if lv.level_size(p, q) > level_budget:
                break
            if not ((p == 0 or (p - 1, q) in region) and
                    (q == 0 or (p, q - 1) in region)):
                break
            region.add((p, q))
    levels, chains = {}, {}
    for (p, q) in region:
        if p == 0:
            levels[(p, q)] = list(lv.ids[q])
            continue
        chains[(p, q)] = cs = lv.chains(p, q)
        levels[(p, q)] = [c[0] if p == 1 else nv._chain_id(c) for c in cs]

    def cell(p, c):
        return c[0] if p == 1 else nv._chain_id(c)

    def vmap(p, q, phi, q_to):
        if p == 0:
            return {x: lv.vmap_obj(phi, q, q_to, x) for x in levels[(p, q)]}
        return {x: cell(p, tuple(lv.vmap_mor(phi, q, q_to, m) for m in c))
                for x, c in zip(levels[(p, q)], chains[(p, q)])}

    hface, vface, hdegen, vdegen = {}, {}, {}, {}
    for (p, q) in region:
        ids = levels[(p, q)]
        if p >= 1 and (p - 1, q) in region:
            for i in range(p + 1):
                mp = {}
                for x, c in zip(ids, chains[(p, q)]):
                    if p == 1:
                        mp[x] = lv.tgt[q][x] if i == 0 else lv.src[q][x]
                        continue
                    if i == 0:
                        nc = c[1:]
                    elif i == p:
                        nc = c[:-1]
                    else:
                        nc = c[:i - 1] + (lv.compose(q, c[i], c[i - 1]),) \
                            + c[i + 1:]
                    mp[x] = cell(p - 1, nc)
                hface[(p, q, i)] = mp
        if q >= 1 and (p, q - 1) in region:
            for i in range(q + 1):
                vface[(p, q, i)] = vmap(p, q, nv._delta(i, q), q - 1)
        if (p + 1, q) in region:
            for j in range(p + 1):
                mp = {}
                if p == 0:
                    for x in ids:
                        mp[x] = lv.identity(q, x)
                else:
                    for x, c in zip(ids, chains[(p, q)]):
                        if j == 0:
                            nc = (lv.identity(q, lv.src[q][c[0]]),) + c
                        else:
                            nc = c[:j] + (lv.identity(q, lv.tgt[q][c[j - 1]]),) \
                                + c[j:]
                        mp[x] = cell(p + 1, nc)
                hdegen[(p, q, j)] = mp
        if (p, q + 1) in region:
            for j in range(q + 1):
                vdegen[(p, q, j)] = vmap(p, q, nv._sigma(j, q), q + 1)
    return nv.BisimplicialTrunc(region, levels, hface, vface, hdegen, vdegen)


def reference_q_simplex_groupoid(g, q):
    lv = ReferenceSegalLevels(g, q)
    objects = list(lv.ids[q])
    morphs = [reference_fam_id(sid_, fam)
              for st, sid_ in zip(lv.structs[q], lv.ids[q])
              for fam, _ in reference_q_simplex_morphisms(g, q, [st])[st]]
    comp = {(m2, m1): lv.compose(q, m2, m1)
            for m2 in morphs for m1 in morphs if lv.tgt[q][m1] == lv.src[q][m2]}
    ident = {x: lv.identity(q, x) for x in objects}
    return ca.FinGroupoid(objects, morphs, lv.src[q], lv.tgt[q], ident, comp)


def assert_same_bisimplicial(got, want):
    """Equal regions, level lists and operator dicts, orders included."""
    assert got.region == want.region
    assert sorted(got.levels) == sorted(want.levels)
    for key, ids in want.levels.items():
        assert got.levels[key] == ids
    for attr in ("hface", "vface", "hdegen", "vdegen"):
        ops, want_ops = getattr(got, attr), getattr(want, attr)
        assert sorted(ops) == sorted(want_ops)
        for key, mp in want_ops.items():
            assert list(ops[key].items()) == list(mp.items())


def segal_case(name, pmax, qmax, budget, build=None, id=None):
    """A Segal nerve to compare with the reference: the 2-group `name`
    (ex.build(name) unless a builder is given) over (pmax, qmax)."""
    return pytest.param(build or functools.partial(ex.build, name), pmax, qmax,
                        budget, id=id or "%s-%d-%d" % (name, pmax, qmax))


SEGAL_CASES = [segal_case(name, 2, 3, 50000)
               for name, _ in ex.canned_two_groups()] + [
    segal_case("inflated-disc-z2", 2, 2, 50000),
    # level budgets that clip the region
    segal_case("oneobj-z2", 2, 3, 5000, id="oneobj-z2-budget-5000"),
    segal_case("oneobj-z3", 2, 3, 100, id="oneobj-z3-budget-100"),
    segal_case("disc-z2-x-oneobj-z2", 3, 3, 100,
               id="disc-z2-x-oneobj-z2-3-3-budget-100"),
    segal_case("oneobj-z2", 3, 2, 50000),
    # chains of 3 and 4 arrows: a chain's place sums a weight per slot
    segal_case("oneobj-z2", 4, 1, 50000),
    segal_case("inflated-disc-z2", 4, 1, 50000),
    segal_case("oneobj-z3", 4, 2, 5000, id="oneobj-z3-4-2-budget-5000"),
    segal_case("disc-z2-x-oneobj-z2", 4, 2, 5000,
               id="disc-z2-x-oneobj-z2-4-2-budget-5000"),
    segal_case("unitor-twisted", 3, 2, 50000, build=unitor_twisted_two_group),
    segal_case("unitor-twisted", 4, 2, 5000, build=unitor_twisted_two_group,
               id="unitor-twisted-4-2-budget-5000"),
    segal_case("disc-s3", 4, 1, 50000,
               build=lambda: ca.discrete_two_group(gr.symmetric(3))),
    segal_case("disc-s3", 3, 3, 2000,
               build=lambda: ca.discrete_two_group(gr.symmetric(3)),
               id="disc-s3-3-3-budget-2000")]


@pytest.mark.parametrize("build,pmax,qmax,budget", SEGAL_CASES)
def test_segal_nerve_matches_string_keyed_reference(build, pmax, qmax, budget):
    g = build()
    assert_same_bisimplicial(nv.segal_nerve(g, pmax, qmax, level_budget=budget),
                             reference_segal_nerve(g, pmax, qmax,
                                                   level_budget=budget))


@pytest.mark.parametrize("name", [n for n, _ in ex.canned_two_groups()])
def test_q_simplex_groupoid_matches_reference(name):
    g = ex.build(name)
    # q = 3 only where the reference's all-pairs composition loop is small
    for q in range(4 if name in ("disc-z2", "disc-z3", "oneobj-z2") else 3):
        got, want = nv.q_simplex_groupoid(g, q), reference_q_simplex_groupoid(g, q)
        assert got.objects == want.objects
        assert got.morphisms == want.morphisms
        assert (got.src, got.tgt, got.ident) == (want.src, want.tgt, want.ident)
        assert got.comp_table == want.comp_table
        assert got.inv_table == want.inv_table


def relabelled_two_group(g, obj_id, mor_id):
    """g with its i-th object renamed obj_id(i) and its i-th morphism
    mor_id(i)."""
    c = g.base
    obj = {x: obj_id(i) for i, x in enumerate(c.objects)}
    mor = {f: mor_id(i) for i, f in enumerate(c.morphisms)}
    base = ca.FinGroupoid(
        [obj[x] for x in c.objects], [mor[f] for f in c.morphisms],
        {mor[f]: obj[c.src[f]] for f in c.morphisms},
        {mor[f]: obj[c.tgt[f]] for f in c.morphisms},
        {obj[x]: mor[c.id_of(x)] for x in c.objects},
        {(mor[b], mor[a]): mor[ba] for (b, a), ba in c.comp_table.items()})
    mon = ca.MonoidalStructure(
        base,
        {(obj[x], obj[y]): obj[xy] for (x, y), xy in g.tensor_obj.items()},
        {(mor[a], mor[b]): mor[ab] for (a, b), ab in g.tensor_mor.items()},
        obj[g.unit],
        {(obj[x], obj[y], obj[z]): mor[a]
         for (x, y, z), a in g.assoc.items()},
        {obj[x]: mor[l] for x, l in g.lunit.items()},
        {obj[x]: mor[r] for x, r in g.runit.items()})
    return ca.certify_two_group(mon)


@pytest.mark.parametrize("name", ["oneobj-z3", "disc-z2-x-oneobj-z2"])
def test_segal_determinants_vs_hom_ids_with_separators(name):
    g = ex.build(name)
    # ';' and ',' separate the parts of the Segal nerve's chain and
    # family ids
    h = relabelled_two_group(g, lambda i: "o;%d," % i,
                             lambda i: "m,%d;%d" % (i, i))
    # the rows of p2_star are constant; those of a Segal nerve carry
    # morphisms of order 3
    for x in (nv.p2_star(ex.build("s1"), 2),
              nv.restrict_region(nv.segal_nerve(ex.build("oneobj-z3"), 2, 3),
                                 nv.mu3_region())):
        dets, maps, ok = dt.segal_determinants_vs_hom(x, g)
        dets2, maps2, ok2 = dt.segal_determinants_vs_hom(x, h)
        assert ok and ok2
        assert (len(dets2), len(maps2)) == (len(dets), len(maps))


def test_segal_nerve_rejects_ids_that_run_together():
    # the families (x, x, "x,x") and ("x,x", x, x) of one 2-simplex would
    # both be named f(..|x,x,x,x)
    g = relabelled_two_group(ex.build("oneobj-z3"), lambda i: "o",
                             lambda i: ["x", "x,x", "y"][i])
    with pytest.raises(nv.NerveError):
        nv.segal_nerve(g, 2, 2)


# -- the bimap face index and the Kan-row memo against per-call rebuilds ------


def reference_bimaps(x_bx, y_bx, region=None):
    """enumerate_bimaps with its face index of Y rebuilt on every call,
    every degeneracy presentation and the faces of every forced cell
    checked, and after every assignment every free cell of a later level
    whose faces are all assigned retested against the index; returns the
    maps and the budget ticks used."""
    region = set(region) if region is not None else set(x_bx.region)
    region &= set(y_bx.region)
    order = sorted(region, key=lambda pq: (pq[0] + pq[1], pq[0]))
    ticks = [0]

    def face_key(bx, p, q, s):
        hk = tuple(bx.dh(p, q, i, s) for i in range(p + 1)) \
            if (p >= 1 and (p - 1, q) in region) else ()
        vk = tuple(bx.dv(p, q, i, s) for i in range(q + 1)) \
            if (q >= 1 and (p, q - 1) in region) else ()
        return (hk, vk)

    index = {}
    for (p, q) in order:
        idx = {}
        for s in y_bx.level(p, q):
            idx.setdefault(face_key(y_bx, p, q, s), []).append(s)
        for v in idx.values():
            v.sort()
        index[(p, q)] = idx
    pres = {}
    for (p, q) in order:
        pr = {}
        if p >= 1 and (p - 1, q) in region:
            for j in range(p):
                for a, sa in x_bx.hdegen[(p - 1, q, j)].items():
                    pr.setdefault(sa, []).append(("h", j, (p - 1, q), a))
        if q >= 1 and (p, q - 1) in region:
            for j in range(q):
                for a, sa in x_bx.vdegen[(p, q - 1, j)].items():
                    pr.setdefault(sa, []).append(("v", j, (p, q - 1), a))
        pres[(p, q)] = pr
    comps = {k: {} for k in order}
    results = []

    def level_key(pq, s, get=dict.__getitem__):
        p, q = pq
        hk = tuple(get(comps[(p - 1, q)], x_bx.dh(p, q, i, s))
                   for i in range(p + 1)) if (p >= 1 and (p - 1, q) in region) else ()
        vk = tuple(get(comps[(p, q - 1)], x_bx.dv(p, q, i, s))
                   for i in range(q + 1)) if (q >= 1 and (p, q - 1) in region) else ()
        return (hk, vk)

    def forward_ok(idx_lvl):
        for pq in order[idx_lvl + 1:]:
            for s in x_bx.level(*pq):
                if s in pres[pq]:
                    continue
                hk, vk = level_key(pq, s, get=dict.get)
                if None not in hk + vk and (hk, vk) not in index[pq]:
                    return False
        return True

    def assign(idx_lvl):
        if idx_lvl == len(order):
            results.append({k: dict(v) for k, v in comps.items()})
            return
        pq = order[idx_lvl]
        p, q = pq
        forced, frees = {}, []
        for s in x_bx.level(p, q):
            if s in pres[pq]:
                vals = set()
                for (hv, j, src_pq, a) in pres[pq][s]:
                    img = comps[src_pq][a]
                    op = y_bx.sh if hv == "h" else y_bx.sv
                    vals.add(op(src_pq[0], src_pq[1], j, img))
                if len(vals) != 1:
                    return
                v = vals.pop()
                if face_key(y_bx, p, q, v) != level_key(pq, s):
                    return
                forced[s] = v
            else:
                frees.append(s)
        comps[pq].update(forced)
        if not forward_ok(idx_lvl):
            comps[pq] = {}
            return
        cand = []
        for s in frees:
            ticks[0] += 1
            cands = index[pq].get(level_key(pq, s), [])
            if not cands:
                comps[pq] = {}
                return
            cand.append(cands)

        def choose(i):
            if i == len(frees):
                assign(idx_lvl + 1)
                return
            for v in cand[i]:
                ticks[0] += 1
                comps[pq][frees[i]] = v
                if forward_ok(idx_lvl):
                    choose(i + 1)
                del comps[pq][frees[i]]

        choose(0)
        comps[pq] = {}

    assign(0)
    return results, ticks[0]


def reversed_ids(g):
    """g renamed so that monoidal_simplices order is not id order."""
    return relabelled_two_group(g, lambda i: "o%d" % (99 - i),
                                lambda i: "m%d" % (99 - i))


@pytest.mark.parametrize("g", [pytest.param(g, id=n) for n, g in
                               ex.canned_two_groups()] +
                         [pytest.param(
                             reversed_ids(ex.build("disc-z2-x-oneobj-z2")),
                             id="disc-z2-x-oneobj-z2-reversed-ids")])
def test_bimaps_with_cached_index_match_reference(g):
    x = nv.p2_star(ex.build("s1"), 2)
    ns = nv.segal_nerve(g, 2, 3)
    mu = nv.mu3_region() & x.region & ns.region
    # mu - {(1, 0)} is not downward closed: level (1, 1) loses its
    # vertical faces from the index key
    for region in (mu, mu - {(1, 0)}, None, mu):
        want, ticks = reference_bimaps(x, ns, region)
        # the second call on a region reads the index cached on ns
        for _ in range(2):
            assert nv.enumerate_bimaps(x, ns, region=region) == want
        assert_ticks(lambda b: nv.enumerate_bimaps(x, ns, region=region,
                                                   budget=b), ticks)


def nerve_fixtures():
    """(name, 2-group, largest to_dim compared)."""
    out = [(name, g, 4) for name, g in ex.canned_two_groups()]
    out += [("disc-z4", ex.build("disc-z4"), 4),
            ("inflated-disc-z2", ex.build("inflated-disc-z2"), 3),
            ("disc-s3", ca.discrete_two_group(gr.symmetric(3)), 4),
            ("disc-z2-x-oneobj-z2-reversed-ids",
             reversed_ids(ex.build("disc-z2-x-oneobj-z2")), 4),
            ("unitor-twisted", unitor_twisted_two_group(), 4)]
    return [pytest.param(g, d, id=name) for name, g, d in out]


def test_unitor_twisted_fixture_tells_l_from_r():
    g = unitor_twisted_two_group()
    assert g.validate() == []
    assert all(g.l(x) == g.base.id_of(x) for x in g.base.objects)
    assert g.r("o1") != g.base.id_of("o1")
    assert g.int_index.lunit_inv != g.int_index.runit_inv
    ng = nv.nerve_2group(g, 4)
    assert ng.validate().ok
    assert sp.classify(ng, 2).n_kan_groupoid


@pytest.mark.parametrize("g,top", nerve_fixtures())
def test_simplex_keys_match_monoidal_simplices_reference(g, top):
    ix = g.int_index
    for q in range(4):
        want = reference_monoidal_simplices(g, q)
        assert nv.monoidal_simplices(g, q) == want
        keys = []
        for st in want:
            objs, als = reference_struct_to_dict(g, q, st)
            keys.append((tuple(ix.obj_int[objs[pr]] for pr in nv._pairs(q)),
                         tuple(ix.mor_int[als[t]] for t in nv._triples(q))))
        assert nv._simplex_keys(g, q) == keys


@pytest.mark.parametrize("g,top", nerve_fixtures())
def test_nerve_2group_matches_phi_star_reference(g, top):
    for to_dim in range(1, top + 1):
        got, want = nv.nerve_2group(g, to_dim), reference_nerve_2group(g, to_dim)
        assert got.levels == want.levels
        for ops in ("face", "degen"):
            assert list(getattr(got, ops)) == list(getattr(want, ops))
            for key, mp in getattr(want, ops).items():
                assert list(getattr(got, ops)[key].items()) == list(mp.items())
        assert got._struct == want._struct
        assert (got.dim, got.coskeletal_at, got.base) == \
            (want.dim, want.coskeletal_at, want.base)
        assert io.dumps(got) == io.dumps(want)


def reference_kan_status(x_sset, m):
    """kan_status without the memo."""
    x = sp._ensure_depth(x_sset, m + 1)
    flags, witness = {}, {}
    for k in range(m + 2):
        seen = {}
        inj = True
        for s, t in sp.horn_alpha(x, m, k).items():
            if t in seen:
                inj = False
                witness[(k, "inj")] = (seen[t], s)
            else:
                seen[t] = s
        surj = True
        for h in sp.horn_tuples(x, m, k):
            if h not in seen:
                surj = False
                witness[(k, "surj")] = h
                break
        flags[k] = (surj, inj)
    return flags, witness


def kan_cases():
    out = [(name, x, m) for name, x in complexes() if x.coskeletal_at is None
           for m in range(x.dim)]
    # m = dim needs the coskeletal extension
    out += [("nerve4-%s" % name, nv.nerve_2group(g, 3), m)
            for name, g in ex.canned_two_groups()[:3] for m in range(4)]
    out += [("segal-row2-oneobj-z2",
             nv.segal_nerve(ex.build("oneobj-z2"), 2, 3).row(2), 2)]
    return [pytest.param(x, m, id="%s-m%d" % (name, m)) for name, x, m in out]


def reference_minimality_at(x_sset, m):
    """minimality_at as a pass of its own over each alpha^{m,k}."""
    x = sp._ensure_depth(x_sset, m + 1)
    table = x.face_table(m + 1)
    for k in range(m + 2):
        seen = {}
        for t in table.values():
            missing = t[k]
            key = t[:k] + (None,) + t[k + 1:]
            if key in seen and seen[key] != missing:
                return False
            seen.setdefault(key, missing)
    return True


def reference_faces_compatible(x_sset, m):
    """Every face tuple of level m+1 is a boundary tuple of level m."""
    x = sp._ensure_depth(x_sset, m + 1)
    return set(sp.boundary_alpha(x, m).values()) <= \
        set(sp.boundary_tuples(x, m))


@pytest.mark.parametrize("x,m", kan_cases())
def test_kan_status_memo_matches_reference(x, m, monkeypatch):
    want = reference_kan_status(x, m)
    minimal = reference_minimality_at(x, m)
    compatible = reference_faces_compatible(x, m)
    calls = {"count": 0, "list": 0, "coskeletal_extend": 0}
    tuples, extend = sp.compatible_tuples, sp.coskeletal_extend

    def counted_tuples(*args, count=False, **kwargs):
        calls["count" if count else "list"] += 1
        return tuples(*args, count=count, **kwargs)

    def counted_extend(*args):
        calls["coskeletal_extend"] += 1
        return extend(*args)

    monkeypatch.setattr(sp, "compatible_tuples", counted_tuples)
    monkeypatch.setattr(sp, "coskeletal_extend", counted_extend)
    row = sp.kan_status(x, m)
    assert (row.m, row.flags, row.witness) == (m,) + want
    assert row.minimal == minimal
    # a miss counts the horn tuples of each k, and lists them only to
    # name the missing horn of a k that is not onto; when a face tuple
    # of level m+1 is not compatible, it lists them for every k instead;
    # an extension lists the boundary tuples of each level it adds
    not_onto = sum(not surj for surj, _ in want[0].values())
    added = max(m + 1 - x.dim, 0)
    expect = {"count": m + 2, "list": not_onto + added} if compatible else \
        {"count": 0, "list": m + 2 + added}
    expect["coskeletal_extend"] = 1 if added else 0
    assert calls == expect
    # a hit returns the same row and neither counts, lists nor extends
    assert sp.kan_status(x, m) is row
    assert sp.minimality_at(x, m) is row.minimal
    assert calls == expect


@pytest.mark.parametrize("x,m", kan_cases())
def test_faces_compatible_matches_reference(x, m):
    x = sp._ensure_depth(x, m + 1)
    assert sp.faces_compatible(x, m) == reference_faces_compatible(x, m)


def reference_classify(x, n):
    """classify with alpha^m read from boundary_alpha and the Kan rows
    from reference_kan_status; returns the report's fields."""
    detail = {}
    top = x.dim - 1

    def alpha_bij(m):
        image = list(sp.boundary_alpha(x, m).values())
        tuples = sp.boundary_tuples(x, m)
        return set(image) == set(tuples), len(set(image)) == len(image)

    for m in range(n, top + 1):
        detail[("alpha", m)] = alpha_bij(m)
    cosk = all(s and i for s, i in detail.values())
    weak = (n > top or detail[("alpha", n)][1]) and \
        all(s and i for (_, m), (s, i) in detail.items() if m > n)
    for m in range(n, top + 1):
        detail[("minimal", m)] = reference_minimality_at(x, m)
    minimal = all(detail[("minimal", m)] for m in range(n, top + 1))
    kan_ok = True
    for m in range(1, min(n + 1, top) + 1):
        flags, _ = reference_kan_status(x, m)
        detail[("kan", m)] = flags
        kan_ok = kan_ok and all(s for s, _ in flags.values())
    groupoid = weak and kan_ok and detail.get(("minimal", n)) is not False
    checked = "alpha on %d..%d, kan on 1..%d" % (n, top, min(n + 1, top))
    return cosk, weak, minimal, groupoid, checked, detail


def classify_fields(x, n):
    rep = sp.classify(x, n)
    return (rep.n_coskeletal, rep.weakly_n_coskeletal, rep.n_minimal,
            rep.n_kan_groupoid, rep.checked_dims, rep.detail)


@pytest.mark.parametrize("x,m", kan_cases())
def test_classify_matches_alpha_reference(x, m):
    assert classify_fields(x, m) == reference_classify(x, m)


@pytest.mark.parametrize("name", [n for n, _ in ex.canned_two_groups()])
def test_kan_rows_and_classify_on_segal_rows_match_reference(name):
    ns = nv.segal_nerve(ex.build(name), 2, 3)
    for p in range(3):
        row = ns.row(p)
        for m in range(row.dim):
            got = sp.kan_status(row, m)
            assert (got.flags, got.witness) == reference_kan_status(row, m)
        for n in (1, 2):
            assert classify_fields(row, n) == reference_classify(row, n)


# -- both validators against their per-cell definition ------------------------


def reference_validate(x):
    """TruncatedSSet.validate as one lookup per cell, identity and index;
    alpha^m bijective read from boundary_alpha and boundary_tuples."""
    errs = []
    for k in range(1, x.dim + 1):
        for i in range(k + 1):
            m = x.face.get((k, i))
            if m is None:
                errs.append("missing face map (%d,%d)" % (k, i))
                continue
            for s in x.levels[k]:
                if s not in m:
                    errs.append("face (%d,%d) undefined on %s" % (k, i, s))
                elif m[s] not in x.levels[k - 1]:
                    errs.append("face (%d,%d)(%s) lands outside level %d"
                                % (k, i, s, k - 1))
    for k in range(x.dim):
        for j in range(k + 1):
            m = x.degen.get((k, j))
            if m is None:
                errs.append("missing degeneracy map (%d,%d)" % (k, j))
                continue
            for s in x.levels[k]:
                if s not in m:
                    errs.append("degeneracy (%d,%d) undefined on %s"
                                % (k, j, s))
                elif m[s] not in x.levels[k + 1]:
                    errs.append("degeneracy (%d,%d)(%s) lands outside level %d"
                                % (k, j, s, k + 1))
    if errs:
        return errs, "totality only (maps missing)"
    d, sd = x.d, x.s
    for k in range(2, x.dim + 1):
        for s in x.levels[k]:
            for j in range(1, k + 1):
                for i in range(j):
                    if d(k - 1, i, d(k, j, s)) != d(k - 1, j - 1, d(k, i, s)):
                        errs.append("dd identity fails at %s (k=%d,i=%d,j=%d)"
                                    % (s, k, i, j))
    for k in range(x.dim - 1):
        for s in x.levels[k]:
            for j in range(k + 1):
                for i in range(j + 1):
                    if sd(k + 1, i, sd(k, j, s)) != \
                            sd(k + 1, j + 1, sd(k, i, s)):
                        errs.append("ss identity fails at %s (k=%d,i=%d,j=%d)"
                                    % (s, k, i, j))
    for k in range(x.dim):
        for s in x.levels[k]:
            for j in range(k + 1):
                for i in range(k + 2):
                    if i == j or i == j + 1:
                        want = s
                    elif i < j:
                        want = sd(k - 1, j - 1, d(k, i, s))
                    else:
                        want = sd(k - 1, j, d(k, i - 1, s))
                    if d(k + 1, i, sd(k, j, s)) != want:
                        errs.append("ds identity fails at %s (k=%d,i=%d,j=%d)"
                                    % (s, k, i, j))
    if x.base is not None and x.base not in x.levels[0]:
        errs.append("base %s is not a 0-simplex" % x.base)
    if x.coskeletal_at is not None and not errs:
        c = x.coskeletal_at
        for m in range(max(c, 0), x.dim):
            image = list(sp.boundary_alpha(x, m).values())
            if set(image) != set(sp.boundary_tuples(x, m)) or \
                    len(set(image)) != len(image):
                errs.append("coskeletal_at=%d violated: alpha^%d not bijective"
                            % (c, m))
    return errs, "identities in dims <= %d" % x.dim


def reference_bisimplicial_validate(bx):
    """BisimplicialTrunc.validate as one lookup per cell, identity and
    index, rows and columns by reference_validate; it checks only that
    the face dicts are defined before it reads the identities, so an
    id outside its level makes it raise."""
    errs = []
    region = bx.region
    for p, q in sorted(region):
        here = bx.levels.get((p, q))
        if here is None:
            errs.append("missing level (%d,%d)" % (p, q))
            continue
        if p >= 1 and (p - 1, q) in region:
            for i in range(p + 1):
                mp = bx.hface.get((p, q, i))
                if mp is None or any(s not in mp for s in here):
                    errs.append("hface (%d,%d,%d) incomplete" % (p, q, i))
        if q >= 1 and (p, q - 1) in region:
            for i in range(q + 1):
                mp = bx.vface.get((p, q, i))
                if mp is None or any(s not in mp for s in here):
                    errs.append("vface (%d,%d,%d) incomplete" % (p, q, i))
    if errs:
        return errs
    dh, dv, sh, sv = bx.dh, bx.dv, bx.sh, bx.sv
    for p, q in sorted(region):
        for s in bx.levels[(p, q)]:
            if p >= 2 and (p - 2, q) in region:
                for j in range(1, p + 1):
                    for i in range(j):
                        if dh(p - 1, q, i, dh(p, q, j, s)) != \
                                dh(p - 1, q, j - 1, dh(p, q, i, s)):
                            errs.append("h dd fails at %s" % s)
            if q >= 2 and (p, q - 2) in region:
                for j in range(1, q + 1):
                    for i in range(j):
                        if dv(p, q - 1, i, dv(p, q, j, s)) != \
                                dv(p, q - 1, j - 1, dv(p, q, i, s)):
                            errs.append("v dd fails at %s" % s)
            if p >= 1 and q >= 1 and (p - 1, q - 1) in region:
                for i in range(p + 1):
                    for j in range(q + 1):
                        if dv(p - 1, q, j, dh(p, q, i, s)) != \
                                dh(p, q - 1, i, dv(p, q, j, s)):
                            errs.append("dh dv do not commute at %s" % s)
    for p in sorted({p for p, _ in region}):
        errs += ["row %d: %s" % (p, e)
                 for e in reference_validate(bx.row(p))[0][:3]]
    for q in sorted({q for _, q in region}):
        errs += ["column %d: %s" % (q, e)
                 for e in reference_validate(bx.column(q))[0][:3]]
    for p, q in sorted(region):
        if {(p + 1, q + 1), (p + 1, q), (p, q + 1)} <= region:
            for s in bx.levels[(p, q)]:
                for i in range(p + 1):
                    for j in range(q + 1):
                        if sv(p + 1, q, j, sh(p, q, i, s)) != \
                                sh(p, q + 1, i, sv(p, q, j, s)):
                            errs.append("sh sv do not commute at %s" % s)
    for p, q in sorted(region):
        if p >= 1 and {(p - 1, q + 1), (p, q + 1), (p - 1, q)} <= region:
            for s in bx.levels[(p, q)]:
                for i in range(p + 1):
                    for j in range(q + 1):
                        if sv(p - 1, q, j, dh(p, q, i, s)) != \
                                dh(p, q + 1, i, sv(p, q, j, s)):
                            errs.append("dh sv do not commute at %s" % s)
        if q >= 1 and {(p + 1, q - 1), (p + 1, q), (p, q - 1)} <= region:
            for s in bx.levels[(p, q)]:
                for i in range(q + 1):
                    for j in range(p + 1):
                        if sh(p, q - 1, j, dv(p, q, i, s)) != \
                                dv(p + 1, q, i, sh(p, q, j, s)):
                            errs.append("dv sh do not commute at %s" % s)
    return errs


OUTSIDE = "nowhere"


def rewirings(tables, levels):
    """(name, key, cell, image, in_level) for every single-entry change
    of the operator dicts tables[name][key], key = (*level, index): the
    entry of each cell rewired to every other cell of its target level,
    and to an id outside it.  levels maps (name, level) to the cells of
    the target level."""
    for name, table in tables.items():
        for key, mp in sorted(table.items()):
            target = levels(name, key[:-1])
            for cell, old in mp.items():
                for image in target + [OUTSIDE]:
                    if image != old:
                        yield name, key, cell, image, image != OUTSIDE


def rewired(tables, name, key, cell, image):
    out = dict(tables)
    out[name] = dict(tables[name])
    out[name][key] = {**tables[name][key], cell: image}
    return out


def sset_mutations(x):
    tables = {"face": x.face, "degen": x.degen}
    step = {"face": -1, "degen": 1}
    for name, key, cell, image, _ in rewirings(
            tables, lambda name, lvl: x.levels[lvl[0] + step[name]]):
        t = rewired(tables, name, key, cell, image)
        yield sp.TruncatedSSet(x.dim, x.levels, t["face"], t["degen"],
                               coskeletal_at=x.coskeletal_at, base=x.base)


@pytest.mark.parametrize("x", [pytest.param(x, id=name)
                               for name, x in complexes()])
def test_validate_matches_per_cell_definition(x):
    rep = x.validate()
    assert (rep.violations, rep.checked) == reference_validate(x)


@pytest.mark.parametrize("x", [
    pytest.param(sp.standard_simplex(2, 3), id="delta2"),
    pytest.param(sp.horn_complex(2, 1, 2), id="horn-2-1"),
    pytest.param(nv.nerve_2group(ex.build("disc-z2"), 3), id="nerve-disc-z2")])
def test_validate_matches_per_cell_definition_on_every_rewiring(x):
    kinds = set()
    for y in sset_mutations(x):
        rep = y.validate()
        assert (rep.violations, rep.checked) == reference_validate(y)
        kinds.update(v.split(" ", 1)[0] for v in rep.violations)
    # every kind of violation occurs among the rewirings
    assert {"face", "degeneracy", "dd", "ss", "ds"} <= kinds


def bisimplicial_mutations(bx):
    """(rewired copy, None) for each rewiring within the target level,
    and (copy, its one totality violation) for each rewiring outside."""
    tables = {name: getattr(bx, name)
              for name in nv.BisimplicialTrunc.OPERATORS}

    def target(name, lvl):
        step = nv.BisimplicialTrunc.OPERATORS[name]
        return tuple(a + b for a, b in zip(lvl, step))

    for name, key, cell, image, in_level in rewirings(
            tables, lambda name, lvl: bx.levels[target(name, lvl)]):
        t = rewired(tables, name, key, cell, image)
        yield nv.BisimplicialTrunc(bx.region, bx.levels, t["hface"],
                                   t["vface"], t["hdegen"], t["vdegen"]), \
            None if in_level else "%s (%d,%d,%d)(%s) lands outside level " \
            "(%d,%d)" % ((name,) + key + (cell,) + target(name, key[:2]))


@pytest.mark.parametrize("bx", [
    pytest.param(nv.p2_star(sp.sphere(1, 2), 2), id="p2star-s1"),
    pytest.param(nv.box(sp.standard_simplex(1, 1), sp.standard_simplex(1, 1)),
                 id="box-delta1-delta1")])
def test_bisimplicial_validate_matches_per_cell_definition(bx):
    assert bx.validate() == reference_bisimplicial_validate(bx) == []
    kinds, raised = set(), 0
    for y, outside in bisimplicial_mutations(bx):
        got = y.validate()
        kinds.update(e.split(" do not ")[0] if " do not " in e
                     else e.split(" ", 1)[0] for e in got)
        try:
            want = reference_bisimplicial_validate(y)
        except KeyError:
            want = None
            raised += 1
        if outside:
            # an id outside its level is one totality violation, where
            # the per-cell definition raises or reports through a row
            # or column
            assert got == [outside]
            assert want is None or want
        else:
            # the h and v dd identities are reported once, by the
            # columns and rows
            assert got == [e for e in want
                           if not e.startswith(("h dd", "v dd"))]
    assert raised
    assert {"dh dv", "sh sv", "dh sv", "dv sh", "row", "column", "hface",
            "vface", "hdegen", "vdegen"} <= kinds


# -- the Segal checks against references that read every cell -----------------


def reference_row_map(x_bx, phi, k, l):
    """Components of X_{k,*} -> X_{l,*} induced by a monotone [l]->[k],
    on every cell of every vertical level the two rows share."""
    depth = min(max(q for (pp, q) in x_bx.region if pp == r) for r in (k, l))
    steps = nv._h_operator_steps(phi, k)
    comp = {}
    for q in range(depth + 1):
        mp = {s: s for s in x_bx.level(k, q)}
        for kind, p, i in steps:
            op = (x_bx.hface if kind == "d" else x_bx.hdegen)[(p, q, i)]
            mp = {s: op[t] for s, t in mp.items()}
        comp[q] = mp
    return comp


def reference_pi_iso(pik, pil, comp, m):
    gk, _ = pik
    gl, cls_l = pil
    mapping = {s: cls_l[comp[m][s]] for s in gk.elements}
    if len(set(mapping.values())) != len(gl.elements) or \
            set(mapping.values()) != set(gl.elements):
        return False
    return all(mapping[gk.mul(a, b)] == gl.mul(mapping[a], mapping[b])
               for a in gk.elements for b in gk.elements)


def reference_boundary_horn_extension(x_bx, p, q, k, tick):
    """The boundary-horn search with per-cell face calls, ticking once
    per candidate tried."""
    if (p - 1, q) not in x_bx.region or (p - 1, q - 1) not in x_bx.region:
        return True
    idx = {}
    for x in x_bx.level(p - 1, q):
        fx = tuple(x_bx.dv(p - 1, q, j, x) for j in range(q + 1))
        idx.setdefault(fx[:k] + (None,) + fx[k + 1:], []).append(x)
    horns = sp.compatible_tuples(x_bx.level(p - 1, q - 1),
                                 x_bx.face_table(p - 1, q - 1, "v"), q - 1,
                                 skip=k)
    row_faces = {row: tuple(tuple(None if a is None
                                  else x_bx.dh(p - 1, q - 1, i, a)
                                  for a in row) for i in range(p))
                 for row in horns} if p - 1 >= 1 else {}
    targets = sp.compatible_tuples(horns, row_faces, p - 1)

    def lift(tgt, i, partial):
        if i == p + 1:
            return True
        for cand in idx.get(tgt[i], []):
            tick("boundary-horn lift")
            if p - 1 >= 1 and any(
                    x_bx.dh(p - 1, q, i - 1, partial[a]) !=
                    x_bx.dh(p - 1, q, a, cand) for a in range(i)):
                continue
            if lift(tgt, i + 1, partial + [cand]):
                return True
        return False

    return all(lift(tgt, 0, []) for tgt in targets)


def reference_relative_horn_extension(x_bx, p, q, k, tick):
    """The relative box-horn search with its index of level (p, q) and
    every a-tuple's candidate lists rebuilt per horn index k."""
    if any(t not in x_bx.region for t in [(p, q), (p - 1, q), (p, q - 1)]):
        return True
    bidx = {}
    for b, hkey in x_bx.face_table(p, q - 1, "h").items():
        bidx.setdefault(hkey, []).append(b)
    full_idx = {}
    for x in x_bx.level(p, q):
        hkey = tuple(x_bx.dh(p, q, i, x) for i in range(p + 1))
        vkey = tuple(x_bx.dv(p, q, j, x) for j in range(q + 1) if j != k)
        full_idx.setdefault((hkey, vkey), []).append(x)
    slots = [j for j in range(q + 1) if j != k]
    for a_tuple in nv._h_boundary_tuples(x_bx, p, q):
        cand_lists = []
        for j in slots:
            want = tuple(x_bx.dv(p - 1, q, j, a_tuple[i]) for i in range(p + 1))
            cand_lists.append(bidx.get(want, []))

        def rec(m, partial):
            if m == q:
                return bool(full_idx.get((a_tuple, tuple(partial)), []))
            j = slots[m]
            for cand in cand_lists[m]:
                tick("relative box-horn")
                if q - 1 >= 1 and any(
                        x_bx.dv(p, q - 1, slots[mi], cand) !=
                        x_bx.dv(p, q - 1, j - 1, partial[mi])
                        for mi in range(m)):
                    continue
                partial.append(cand)
                good = rec(m + 1, partial)
                partial.pop()
                if not good:
                    return False
            return True
        if not rec(0, []):
            return False
    return True


def reference_fibrancy(x_bx, n=2):
    """segal_fibrancy_check with full row maps and per-k relative-horn
    indices; returns the report items and the search ticks."""
    items = []
    if not x_bx.is_pre_monoid():
        return [("pre-monoid", False, "row 0 is not a point")], 0
    pmax = max(p for p, q in x_bx.region if q == 0)
    rows = {p: x_bx.row(p) for p in range(pmax + 1)}
    for p, r in rows.items():
        cls = sp.classify(r, n)
        items.append(("row-%d-kan-groupoid" % p, bool(cls.n_kan_groupoid),
                      "dims %s" % cls.checked_dims))
    pis = {}
    for p, r in rows.items():
        pis[p] = {}
        for m in (1, 2):
            try:
                pis[p][m] = sp.pi_with_classes(r, m)
            except sp.SimplicialError as exc:
                pis[p][m] = None
                items.append(("row-%d-pi%d-available" % (p, m), True,
                              "skipped: %s" % exc))
    for k in range(pmax + 1):
        for l in range(pmax + 1):
            for phi in sp._monotone_maps(l, k):
                comp = reference_row_map(x_bx, phi, k, l)
                for m in (1, 2):
                    if pis[k][m] is None or pis[l][m] is None:
                        continue
                    ok = reference_pi_iso(pis[k][m], pis[l][m], comp, m)
                    items.append(("weq-phi%s-pi%d" % (phi, m), bool(ok), ""))
    ticks = [0]

    def tick(search):
        ticks[0] += 1

    for k in range(3):
        items.append(("(iii)-k%d" % k, bool(
            reference_boundary_horn_extension(x_bx, 2, 2, k, tick)), ""))
    for p in (1, 2):
        for k in range(3):
            items.append(("(iv)-p%d-k%d" % (p, k), bool(
                reference_relative_horn_extension(x_bx, p, 2, k, tick)), ""))
    return items, ticks[0]


def fibrancy_cases():
    out = [pytest.param(lambda g=g: nv.segal_nerve(g, 2, 3), id=name)
           for name, g in ex.canned_two_groups()]
    # level (2, 3) dropped: pi_2 of row 2 is not checked
    out.append(pytest.param(
        lambda: nv.segal_nerve(ex.build("oneobj-z2"), 2, 3, level_budget=5000),
        id="oneobj-z2-clipped"))
    out.append(pytest.param(lambda: nv.p2_star(sp.sphere(1, 3), 2),
                            id="p2-star-s1-not-fibrant"))
    return out


@pytest.mark.parametrize("build", fibrancy_cases())
def test_fibrancy_matches_full_row_map_reference(build):
    x_bx = build()
    want, ticks = reference_fibrancy(x_bx)
    rep = nv.segal_fibrancy_check(x_bx)
    assert rep.items == want
    assert ticks > 0
    assert_ticks(lambda b: nv.segal_fibrancy_check(x_bx, budget=b), ticks)


def test_fibrancy_reference_cases_cover_skips_and_failures():
    clipped = nv.segal_nerve(ex.build("oneobj-z2"), 2, 3, level_budget=5000)
    items, _ = reference_fibrancy(clipped)
    assert ("row-2-pi2-available", True, "skipped: pi_2 needs level 3") in items
    items, _ = reference_fibrancy(nv.p2_star(sp.sphere(1, 3), 2))
    assert not all(ok for _, ok, _ in items)


def test_bimap_index_skips_levels_without_free_cells():
    x = nv.p2_star(ex.build("s1"), 2)
    ns = nv.segal_nerve(ex.build("oneobj-z2"), 2, 3)
    assert (2, 3) in x.region & ns.region
    assert nv.mu3_determined(x, ns)
    # every cell of X_{2,3} is degenerate, so Y's 32,768-cell level
    # (2, 3) is read only at the forced images
    assert [key for key in ns._face_tables if key[:2] == (2, 3)] == []
    assert [key for key in ns._face_indexes if key[:2] == (2, 3)] == []


@pytest.mark.parametrize("name", [n for n, _ in ex.canned_two_groups()])
def test_bimaps_from_p1_products_match_reference(name):
    # the sources hom1_enriched builds: X x p1*(Delta^n) has free cells
    # at (n', q) for n' <= n and q <= 1
    x = nv.p2_star(ex.build("s1"), 2)
    ns = nv.segal_nerve(ex.build(name), 2, 3)
    region = x.region & ns.region
    for n in (1, 2):
        dn = sp.standard_simplex(n, max(p for p, _ in region))
        prod, _ = dt._bi_product_p1(x, dn, region)
        want, ticks = reference_bimaps(prod, ns, region)
        assert want
        assert nv.enumerate_bimaps(prod, ns, region=region) == want
        assert_ticks(lambda b: nv.enumerate_bimaps(prod, ns, region=region,
                                                   budget=b), ticks)


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

    def forward_ok():
        # every free triangle whose edges are all assigned has a morphism
        # t(D d2, D d0) -> D d1
        for t in tris:
            fs = x.faces(2, t)
            if all(f in d_assign for f in fs) and not c.hom(
                    g.t(d_assign[fs[2]], d_assign[fs[0]]), d_assign[fs[1]]):
                return False
        return True

    def rec_d(i):
        ticks[0] += 1
        if i == len(edges):
            rec_t(0)
            return
        for obj in c.objects:
            d_assign[edges[i]] = obj
            if forward_ok():
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


def reference_column1(x_bx):
    """The column X_{*,1}, truncated at dimension 2."""
    col1 = x_bx.column(1)
    return sp.TruncatedSSet(2, [col1.level(k) for k in range(3)],
                            {k: v for k, v in col1.face.items() if k[0] <= 2},
                            {k: v for k, v in col1.degen.items() if k[0] <= 1},
                            base=col1.base)


def reference_segal_determinants(x_bx, g):
    c = g.base
    nsg = nv.nerve_category(c, 2)
    col1_t = reference_column1(x_bx)
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


def reference_segal_det_morphisms(x_bx, g, det1, det2):
    # every homotopy of the column, then the endpoint, pointedness and
    # id-level naturality filters
    c = g.base
    nsg = nv.nerve_category(c, 2)
    col1_t = reference_column1(x_bx)
    d1 = sp.standard_simplex(1, 2)
    (dm1, t1), (dm2, t2) = det1, det2
    out = []
    for h in sp.enumerate_maps(sp.product(col1_t, d1), nsg, upto=2):
        def ev(k, e, phi):
            return h(k, "(%s|%s)" % (e, phi))
        if any(ev(k, e, "1" * (k + 1)) != dm1(k, e) or
               ev(k, e, "0" * (k + 1)) != dm2(k, e)
               for k in range(3) for e in col1_t.level(k)):
            continue
        if any(ev(k, x_bx.sv(k, 0, 0, x_bx.level(k, 0)[0]), phi) !=
               nsg.deg_base(k, g.unit) for k in range(3) for phi in d1.level(k)):
            continue
        good = True
        for z in x_bx.level(1, 2):
            top, bot = x_bx.dh(1, 2, 1, z), x_bx.dh(1, 2, 0, z)
            h0, h1, h2 = [nsg._mor1[ev(1, x_bx.dv(1, 2, j, z), "01")]
                          for j in range(3)]
            if c.comp(h1, t1[top]) != c.comp(t2[bot], g.tm(h2, h0)):
                good = False
                break
        if good:
            out.append(h)
    return out


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
    # the canned 2-groups are all symmetric; in Disc(S3) the order of the
    # factors of a tensor and of the associator's arguments shows
    groups = ex.canned_two_groups() + [
        ("disc-s3", ca.discrete_two_group(gr.symmetric(3)))]
    return [pytest.param(x, g, id="%s-%s" % (sn, gn))
            for sn, x in ex.reduced_test_spaces() for gn, g in groups]


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


def segal_determinant_cases():
    out = [pytest.param("s1", g, id=name)
           for name, g in ex.canned_two_groups()]
    # the reduced 2-simplex has two independent edges, so D takes values
    # that need not commute in Disc(S3) (in s1 and t11 all edges have one
    # D value there); in the unitor-twisted 2-group l and r differ
    out += [pytest.param("delta2-reduced",
                         ca.discrete_two_group(gr.symmetric(3)),
                         id="delta2-reduced-disc-s3"),
            pytest.param("delta2-reduced", unitor_twisted_two_group(),
                         id="delta2-reduced-unitor-twisted")]
    return out


@pytest.mark.parametrize("space,g", segal_determinant_cases())
def test_segal_determinants_match_reference(space, g):
    x_bx = nv.p2_star(ex.build(space), 2)
    want, ticks = reference_segal_determinants(x_bx, g)
    got = dt.enumerate_segal_determinants(x_bx, g)
    assert [(dm.key(), t) for dm, t in got] == \
        [(dm.key(), t) for dm, t in want]
    assert_ticks(lambda b: dt.enumerate_segal_determinants(x_bx, g, budget=b),
                 ticks)


def segal_det_morphism_cases():
    # Disc(S3): every fourth determinant with itself (from the ninth on,
    # some have D values that do not commute, so the order of tm's
    # factors shows) and a few with their neighbour; the unitor-twisted
    # 2-group has homotopies between distinct determinants
    return [pytest.param(ca.discrete_two_group(gr.symmetric(3)),
                         lambda n: [(i, i) for i in range(0, n, 4)]
                         + [(i, i + 1) for i in range(0, n - 1, 12)],
                         id="delta2-reduced-disc-s3"),
            pytest.param(unitor_twisted_two_group(),
                         lambda n: itertools.product(range(n), repeat=2),
                         id="delta2-reduced-unitor-twisted")]


@pytest.mark.parametrize("g,pairs", segal_det_morphism_cases())
def test_segal_det_morphisms_match_reference(g, pairs):
    x_bx = nv.p2_star(ex.build("delta2-reduced"), 2)
    dets, _ = reference_segal_determinants(x_bx, g)
    found = 0
    for i, j in pairs(len(dets)):
        got = dt.segal_det_morphisms(x_bx, g, dets[i], dets[j])
        want = reference_segal_det_morphisms(x_bx, g, dets[i], dets[j])
        assert map_keys(got) == map_keys(want)
        found += len(got)
    assert found


def test_search_budgets_pinned():
    # the fewest evaluations each search needs, as counted before
    # completion schedules: an unchanged count means an unchanged tree
    t12, g = ex.build("t12"), ex.build("oneobj-z3")
    assert_ticks(lambda b: dt.enumerate_determinants(t12, g, budget=b), 2210)
    ng = nv.nerve_2group(g, 3)
    assert_ticks(lambda b: dt.hom_sset(t12, ng, budget=b), 3382)


# -- both kinds of map against their definition -------------------------------
#
# Independent of map_search and of the references above: every levelwise
# function, kept when it commutes with every face and degeneracy.


def definitional_maps(levels, targets, ops):
    """The set of canonical keys of all levelwise functions from
    levels[l] to targets[l] (l in sorted order) that commute with every
    (src level, dst level, x operator, y operator) of ops, by filtering
    itertools.product."""
    names = sorted(levels)
    size = 1
    for l in names:
        size *= len(targets[l]) ** len(levels[l])
    assert size <= PRODUCT_CAP
    out = set()
    for combo in itertools.product(*[
            itertools.product(targets[l], repeat=len(levels[l]))
            for l in names]):
        comp = {l: dict(zip(levels[l], images))
                for l, images in zip(names, combo)}
        if all(y_op[comp[src][s]] == comp[dst][x_op[s]]
               for src, dst, x_op, y_op in ops for s in levels[src]):
            out.add(tuple((l, tuple(sorted(comp[l].items())))
                          for l in names))
    return out


def definitional_sset_maps(x, y, d):
    """The maps tau_d X -> tau_d Y by definition, base to base when both
    complexes have one."""
    ops = [(k, k - 1, x.face[(k, i)], y.face[(k, i)])
           for k in range(1, d + 1) for i in range(k + 1)]
    ops += [(k, k + 1, x.degen[(k, j)], y.degen[(k, j)])
            for k in range(d) for j in range(k + 1)]
    maps = definitional_maps({k: x.level(k) for k in range(d + 1)},
                             {k: y.level(k) for k in range(d + 1)}, ops)
    if x.base is not None and y.base is not None:
        maps = {key for key in maps if dict(key[0][1])[x.base] == y.base}
    return maps


def definitional_bimaps(x_bx, y_bx):
    """The bisimplicial maps X -> Y over their common region, by
    definition: every operator between two levels of the region."""
    region = x_bx.region & y_bx.region
    ops = []
    for (p, q) in region:
        for i in range(p + 1):
            if p >= 1 and (p - 1, q) in region:
                ops.append(((p, q), (p - 1, q), x_bx.hface[(p, q, i)],
                            y_bx.hface[(p, q, i)]))
            if (p + 1, q) in region:
                ops.append(((p, q), (p + 1, q), x_bx.hdegen[(p, q, i)],
                            y_bx.hdegen[(p, q, i)]))
        for i in range(q + 1):
            if q >= 1 and (p, q - 1) in region:
                ops.append(((p, q), (p, q - 1), x_bx.vface[(p, q, i)],
                            y_bx.vface[(p, q, i)]))
            if (p, q + 1) in region:
                ops.append(((p, q), (p, q + 1), x_bx.vdegen[(p, q, i)],
                            y_bx.vdegen[(p, q, i)]))
    return definitional_maps({l: x_bx.level(*l) for l in region},
                             {l: y_bx.level(*l) for l in region}, ops)


def group_nerve(n, dim):
    return nv.nerve_category(ca.one_object_groupoid(gr.cyclic(n)), dim)


def definitional_sset_cases():
    # two copies of N(Z/2), based at the second copy's vertex
    two = sp.disjoint_union(group_nerve(2, 2), group_nerve(2, 2))
    two = sp.TruncatedSSet(two.dim, two.levels, two.face, two.degen,
                           base="R:*")
    return [pytest.param(sp.sphere(1, 2), group_nerve(2, 2), id="s1-nz2"),
            pytest.param(sp.standard_simplex(1, 2), group_nerve(2, 2),
                         id="delta1-nz2"),
            pytest.param(sp.sphere(1, 2), group_nerve(3, 2), id="s1-nz3"),
            # a free 2-simplex, with faces at the degenerate edge
            pytest.param(sp.sphere(2, 2),
                         nv.nerve_2group(ex.build("oneobj-z3"), 2),
                         id="s2-nerve-oneobj-z3"),
            pytest.param(sp.sphere(1, 2), two, id="s1-two-nz2-based")]


@pytest.mark.parametrize("x,y", definitional_sset_cases())
def test_sset_maps_match_their_definition(x, y):
    want = definitional_sset_maps(x, y, 2)
    got = [tuple(enumerate(f.key())) for f in sp.enumerate_maps(x, y)]
    # several maps, and degenerate edges whose images the search forces
    assert len(want) > 1 and x.degenerate_ids(1)
    assert len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize("x,y", definitional_sset_cases())
def test_pins_narrow_the_candidates(x, y):
    # a pin keeps, in order, the maps whose pinned image it allows: it
    # narrows the face-keyed candidates and never bypasses their faces
    maps = sp.enumerate_maps(x, y)
    for k in range(x.dim + 1):
        degenerate = x.degenerate_ids(k)
        for cell in [s for s in x.level(k) if s not in degenerate]:
            for allowed in (set(y.level(k)), set(y.level(k)[::2])):
                got = sp.enumerate_maps(x, y, pins={(k, cell): allowed})
                assert map_keys(got) == \
                    map_keys([f for f in maps if f(k, cell) in allowed])


def definitional_bimap_cases():
    nz2 = group_nerve(2, 1)
    return [
        pytest.param(nv.box(sp.standard_simplex(1, 1),
                            sp.standard_simplex(0, 1)),
                     nv.box(nz2, nz2), id="box-delta1-delta0"),
        pytest.param(nv.p2_star(sp.sphere(1, 2), 1),
                     nv.segal_nerve(ex.build("disc-z2"), 1, 2),
                     id="p2star-s1-segal-disc-z2"),
        pytest.param(nv.box(sp.sphere(1, 1), sp.sphere(1, 1)),
                     nv.box(nz2, group_nerve(3, 1)), id="box-s1-s1"),
    ]


def bimap_key(f):
    return tuple((l, tuple(sorted(cells.items())))
                 for l, cells in sorted(f.items()))


@pytest.mark.parametrize("x_bx,y_bx", definitional_bimap_cases())
def test_bimaps_match_their_definition(x_bx, y_bx):
    want = definitional_bimaps(x_bx, y_bx)
    got = [bimap_key(f) for f in nv.enumerate_bimaps(x_bx, y_bx)]
    assert len(want) > 1
    assert len(got) == len(set(got))
    assert set(got) == want


# -- determinants against their definition ------------------------------------
#
# Independent of scheduled_search and of reference_determinants: every pair
# of an object per free edge and a morphism per free triangle, kept when it
# meets the conditions of the enumerate_determinants docstring.


def definitional_determinants(x, g):
    """The set of (D, T) keys of the determinants on X in g, by filtering
    itertools.product over D (objects on the free edges) x T (morphisms on
    the free triangles)."""
    c = g.base
    loop0 = x.s(0, 0, x.level(0)[0])
    loop1 = x.s(1, 0, loop0)
    edges = [e for e in x.level(1) if e != loop0]
    tris = [t for t in x.level(2) if t != loop1]
    size = len(c.objects) ** len(edges) * len(c.morphisms) ** len(tris)
    assert size <= PRODUCT_CAP
    # the edges i -> j of a tetrahedron, read off its last face [0, 1, 2]
    # and its first face [1, 2, 3]
    corners = [(x.d(2, 2, x.d(3, 3, h)), x.d(2, 0, x.d(3, 3, h)),
                x.d(2, 0, x.d(3, 0, h)), x.faces(3, h))
               for h in x.level(3)]
    out = set()
    for d_vals, t_vals in itertools.product(
            itertools.product(c.objects, repeat=len(edges)),
            itertools.product(c.morphisms, repeat=len(tris))):
        d_fun = dict(zip(edges, d_vals))
        d_fun[loop0] = g.unit                                # unit
        t_fun = dict(zip(tris, t_vals))
        t_fun[loop1] = g.mor_inverse(g.l(g.unit))
        # compatibility: T(A) : D(d2 A) (x) D(d0 A) -> D(d1 A)
        if not all(c.src[t_fun[a]] == g.t(d_fun[f2], d_fun[f0]) and
                   c.tgt[t_fun[a]] == d_fun[f1]
                   for a, (f0, f1, f2) in x.face_table(2).items()):
            continue
        # associativity: T(d2) . (id (x) T(d0)) . a = T(d1) . (T(d3) (x) id)
        if all(c.comp(t_fun[h2], c.comp(
                   g.tm(c.id_of(d_fun[e01]), t_fun[h0]),
                   g.a(d_fun[e01], d_fun[e12], d_fun[e23]))) ==
               c.comp(t_fun[h1], g.tm(t_fun[h3], c.id_of(d_fun[e23])))
               for e01, e12, e23, (h0, h1, h2, h3) in corners):
            out.add(det_key(d_fun, t_fun))
    return out


def det_key(d_fun, t_fun):
    return (tuple(sorted(d_fun.items())), tuple(sorted(t_fun.items())))


@pytest.mark.parametrize("x,g", [
    pytest.param(ex.build(xn), ex.build(gn), id="%s-%s" % (xn, gn))
    for xn, gn in (("delta2-reduced", "disc-z3"),
                   ("delta2-reduced", "disc-z2-x-oneobj-z2"),
                   ("t11", "disc-z2"), ("t11", "oneobj-z3"),
                   ("s1", "disc-z2"))])
def test_determinants_match_their_definition(x, g):
    want = definitional_determinants(x, g)
    got = [det_key(d, t) for d, t in dt.enumerate_determinants(x, g)]
    assert len(want) > 1
    assert len(got) == len(set(got))
    assert set(got) == want
