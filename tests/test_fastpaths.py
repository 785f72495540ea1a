"""Differential tests: the face-indexed fast paths against the simple
references they replace."""

import itertools

import pytest

from kanforge import simplicial as sp
from kanforge import nerves as nv
from kanforge import examples as ex

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
