import pytest

from kanforge import simplicial as sp
from kanforge import catalg as ca
from kanforge import nerves as nv
from kanforge import groups as gr
from kanforge import examples as ex


def test_nerve_of_interval_is_delta1():
    n = nv.nerve_category(ca.poset_interval_category(), 3)
    assert sp.find_isomorphism(n, sp.standard_simplex(1, 3)) is not None


def test_nerve_levels_z2():
    n = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(2)), 3)
    assert [len(l) for l in n.levels] == [1, 2, 4, 8]


def test_nerve_distinguishes_categories():
    # finite shadow of full faithfulness: non-isomorphic inputs give
    # non-isomorphic nerves
    pairs = [(nv.nerve_category(ca.one_object_groupoid(gr.cyclic(2)), 2),
              nv.nerve_category(ca.indiscrete_groupoid(["a", "b"]), 2)),
             (nv.nerve_category(ca.poset_interval_category(), 2),
              nv.nerve_category(ca.one_object_groupoid(gr.cyclic(2)), 2))]
    for n1, n2 in pairs:
        assert sp.find_isomorphism(n1, n2) is None


def test_groupoid_round_trip():
    for name, grpd in ex.canned_groupoids():
        ner = nv.nerve_category(grpd, 3)
        rec = nv.groupoid_from_nerve(ner)
        assert rec.validate() == []
        again = nv.nerve_category(rec, 2)
        assert sp.find_isomorphism(
            again, nv.nerve_category(grpd, 2)) is not None


def test_groupoid_from_nerve_rejects_delta1():
    with pytest.raises(nv.NotOneKanGroupoid):
        nv.groupoid_from_nerve(sp.standard_simplex(1, 3))


def test_two_group_nerve_level_two():
    o2 = ca.one_object_two_group(gr.cyclic(2))
    n = nv.nerve_2group(o2, 3)
    assert len(n.level(2)) == 2          # morphisms unit(x)unit -> unit
    d2 = ca.discrete_two_group(gr.cyclic(3))
    nd = nv.nerve_2group(d2, 3)
    assert len(nd.level(2)) == 9         # unique pairing per pair


def test_two_group_nerve_is_2_kan_groupoid():
    for _, g in ex.canned_two_groups():
        n = nv.nerve_2group(g, 4)
        assert n.validate().ok
        assert sp.classify(n, 2).n_kan_groupoid


def test_duskin_round_trip():
    for name, g in ex.canned_two_groups():
        n = nv.nerve_2group(g, 4)
        rec = nv.two_group_from_nerve(n)
        assert ca.pi0_two_group(rec).is_isomorphic_to(ca.pi0_two_group(g))
        assert ca.pi1_two_group(rec).is_isomorphic_to(ca.pi1_two_group(g))


def test_duskin_rejects_circle():
    with pytest.raises(nv.NotTwoKanGroupoid):
        nv.two_group_from_nerve(sp.sphere(1, 3))


def test_q_simplex_groupoid_small():
    g = ca.one_object_two_group(gr.cyclic(2))
    g0 = nv.q_simplex_groupoid(g, 0)
    assert len(g0.objects) == 1 and len(g0.morphisms) == 1
    g1 = nv.q_simplex_groupoid(g, 1)
    assert g1.validate() == []
    assert len(g1.objects) == len(g.base.objects)
    assert len(g1.morphisms) == len(g.base.morphisms)
    g2 = nv.q_simplex_groupoid(g, 2)
    assert g2.validate() == []
    assert len(g2.objects) == 2


def test_segal_nerve_structure():
    g = ca.discrete_two_group(gr.cyclic(2))
    ns = nv.segal_nerve(g, 2, 3)
    assert ns.validate() == []
    assert ns.is_pre_monoid()
    # row 0 agrees with the plain nerve levels
    ng = nv.nerve_2group(g, 3)
    assert [len(ns.level(0, q)) for q in range(4)] == \
        [len(l) for l in ng.levels]
    # column 1 is the nerve of the underlying groupoid
    c1 = ns.column(1)
    nsg = nv.nerve_category(g.base, c1.dim)
    assert sp.find_isomorphism(c1, nsg) is not None
    # rows are 2-Kan groupoids, columns 1-Kan groupoids (stored range)
    for p in range(3):
        assert sp.classify(ns.row(p), 2).n_kan_groupoid
    for q in range(3):
        assert sp.classify(ns.column(q), 1).n_kan_groupoid


def test_box_and_diag():
    d1 = sp.standard_simplex(1, 2)
    bx = nv.box(d1, d1)
    assert bx.validate() == []
    dg = nv.diag(bx)
    assert sp.find_isomorphism(dg, sp.product(d1, d1)) is not None


def test_diag_of_segal_nerve_level_count():
    # level 2 of the diagonal = 2-chains in the groupoid of 2-simplices:
    # |morphisms| x out-degree = 16 x 8 for the one-object Z/2 case
    ns = nv.segal_nerve(ca.one_object_two_group(gr.cyclic(2)), 2, 3)
    dg = nv.diag(ns)
    assert len(dg.level(2)) == 128


def test_mu3_determined():
    s1 = sp.sphere(1, 3)
    x = nv.p2_star(s1, 2)
    assert x.validate() == []
    ns = nv.segal_nerve(ca.discrete_two_group(gr.cyclic(2)), 2, 3)
    assert nv.mu3_determined(x, ns)


def test_fibrancy_disc_z2():
    ns = nv.segal_nerve(ca.discrete_two_group(gr.cyclic(2)), 2, 3)
    rep = nv.segal_fibrancy_check(ns)
    assert rep.ok, [l for l, o, _ in rep.items if not o]


def test_fibrancy_searches_under_the_budget(monkeypatch):
    monkeypatch.delenv("KANFORGE_BUDGET", raising=False)
    ns = nv.segal_nerve(ex.build("oneobj-z2"), 2, 3)
    with pytest.raises(sp.SearchBudgetExceeded, match="boundary-horn lift"):
        nv.segal_fibrancy_check(ns, budget=1)
    monkeypatch.setenv("KANFORGE_BUDGET", "10")
    with pytest.raises(sp.SearchBudgetExceeded, match="exceeded 10 "):
        nv.segal_fibrancy_check(ns)
    monkeypatch.delenv("KANFORGE_BUDGET")
    assert nv.segal_fibrancy_check(ns).ok


def test_fibrancy_fails_on_nonfibrant_premonoid():
    # the circle pre-monoid has rows that are not 2-Kan groupoids
    s1 = sp.sphere(1, 3)
    x = nv.p2_star(s1, 2)
    rep = nv.segal_fibrancy_check(x)
    assert not rep.ok


@pytest.mark.parametrize("name,p,m", [("disc-z3", 1, 1), ("oneobj-z3", 1, 2)])
def test_pi_iso_under_map_rejects_an_image_on_one_class(name, p, m):
    # a row's own pi_m (order 3) against itself: the identity image is an
    # isomorphism, an image that sends every representative to one class
    # is not
    pi = sp.pi_with_classes(nv.segal_nerve(ex.build(name), 2, 3).row(p), m)
    group = pi[0]
    assert len(group.elements) == 3
    assert nv._pi_iso_under_map(pi, pi, {s: s for s in group.elements})
    assert not nv._pi_iso_under_map(
        pi, pi, dict.fromkeys(group.elements, group.unit))


def test_derived_objects_share_their_source_tables():
    ns = nv.segal_nerve(ex.build("disc-z2-x-oneobj-z2"), 2, 3)
    for line, at, direction in ((ns.row(1), lambda k: (1, k), "v"),
                                (ns.column(2), lambda k: (k, 2), "h")):
        assert all(line.levels[k] is ns.levels[at(k)]
                   for k in range(line.dim + 1))
        for name in ("face", "degen"):
            table = getattr(ns, direction + name)
            assert getattr(line, name)
            assert all(mp is table[at(k) + (i,)]
                       for (k, i), mp in getattr(line, name).items())
        low = sp.truncate(line, 1)
        assert all(low.levels[k] is line.levels[k] for k in (0, 1))
        assert low.face[1, 0] is line.face[1, 0]
        assert low.degen[0, 0] is line.degen[0, 0]
    small = nv.restrict_region(ns, nv.mu3_region())
    assert small.region == nv.mu3_region() & ns.region
    assert all(small.levels[pq] is ns.levels[pq] for pq in small.region)
    for name in nv.BisimplicialTrunc.OPERATORS:
        ops = getattr(small, name)
        assert ops and all(mp is getattr(ns, name)[key]
                           for key, mp in ops.items())


def test_loop_gamma_all_canned():
    for name, g in ex.canned_two_groups():
        comps, om, nsg = nv.loop_gamma(g)
        for k in range(om.dim + 1):
            assert len(om.level(k)) == len(nsg.level(k))


@pytest.mark.parametrize("build", [
    lambda: nv.nerve_2group(ex.build("disc-z2"), -1),
    lambda: nv.nerve_category(ca.one_object_groupoid(gr.cyclic(2)), -1)],
    ids=["nerve_2group", "nerve_category"])
def test_nerves_reject_a_negative_dimension(build):
    with pytest.raises(sp.DimensionOutOfRange, match="-1 is negative"):
        build()
