import pytest

from kanforge import simplicial as sp
from kanforge import catalg as ca
from kanforge import nerves as nv
from kanforge import groups as gr


def nerve_z2():
    return nv.nerve_category(ca.one_object_groupoid(gr.cyclic(2)), 3)


# -- validation ---------------------------------------------------------------


def test_standard_simplex_valid():
    d2 = sp.standard_simplex(2, 3)
    assert d2.validate().ok
    assert [len(l) for l in d2.levels] == [3, 6, 10, 15]


def test_swapped_face_reports_dd_violation():
    d2 = sp.standard_simplex(2, 3)
    face = {k: dict(v) for k, v in d2.face.items()}
    # swap d_0 and d_1 on one nondegenerate 2-simplex
    face[(2, 0)]["012"], face[(2, 1)]["012"] = \
        face[(2, 1)]["012"], face[(2, 0)]["012"]
    broken = sp.TruncatedSSet(d2.dim, d2.levels, face, d2.degen)
    rep = broken.validate()
    assert not rep.ok
    assert any("dd identity" in v or "ds identity" in v for v in rep.violations)


def test_nerve_z2_levels_and_validity():
    n = nerve_z2()
    assert [len(l) for l in n.levels] == [1, 2, 4, 8]
    assert n.validate().ok


# -- boundary and horn tuples -------------------------------------------------


def test_boundary_tuples_dim0_pairs():
    d1 = sp.standard_simplex(1, 2)
    assert len(sp.boundary_tuples(d1, 0)) == 4


def test_boundary_tuples_nerve_z2():
    n = nerve_z2()
    assert len(sp.boundary_tuples(n, 1)) == 8


def test_boundary_tuples_match_map_enumeration():
    # maps boundary(Delta^2) -> X against the tuple description
    bd = sp.boundary_simplex(2, 2)
    x = nerve_z2()
    maps = sp.enumerate_maps(bd, x, upto=2)
    assert len(maps) == len(sp.boundary_tuples(x, 1))


def test_horn_tuples_counts():
    n3 = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(3)), 3)
    assert len(sp.horn_tuples(n3, 1, 1)) == 9     # composable pairs
    d1 = sp.standard_simplex(1, 2)
    assert len(sp.horn_tuples(d1, 0, 0)) == len(d1.level(0))
    with pytest.raises(sp.BadHornIndex):
        sp.horn_tuples(d1, 1, 3)


def test_horn_alpha_triangle_identity():
    # alpha^{m,k} equals the horn restriction of alpha^m, pointwise
    for x in (sp.standard_simplex(2, 3), nerve_z2()):
        for m in range(x.dim):
            full = sp.boundary_alpha(x, m)
            for k in range(m + 2):
                horn = sp.horn_alpha(x, m, k)
                for s, t in full.items():
                    restricted = list(t)
                    restricted[k] = None
                    assert horn[s] == tuple(restricted)


# -- Kan status ---------------------------------------------------------------


def test_delta1_fails_kan_dim1():
    d1 = sp.standard_simplex(1, 2)
    row = sp.kan_status(d1, 1)
    assert not row.flags[0][0]       # the (s_0(0), e) horn has no filler
    assert row.flags[1][0]


def test_indiscrete_nerve_strict_kan():
    n = nv.nerve_category(ca.indiscrete_groupoid(["a", "b"]), 3)
    row = sp.kan_status(n, 1)
    assert row.kan and row.unique_fillers


def test_kan_report_flags():
    rep = sp.kan_report(nerve_z2())
    assert rep.is_kan_up_to >= 2
    assert rep.strict_from == 1          # unique fillers from dimension 1 up
    rep_d1 = sp.kan_report(sp.standard_simplex(1, 2))
    assert rep_d1.is_kan_up_to == 0


def test_boundary_delta2_tuples_match_map_oracle():
    x = sp.boundary_simplex(2, 2)
    bd = sp.boundary_simplex(2, 2)
    maps = sp.enumerate_maps(bd, x, upto=2)
    tuples = sp.boundary_tuples(x, 1)
    assert len(maps) == len(tuples)
    # exactly one tuple traverses the whole boundary: the nondegenerate
    # edges in their boundary order
    nondeg = [t for t in tuples
              if all(a not in x.degenerate_ids(1) for a in t)]
    assert len(nondeg) == 1


def test_kan_dim0_always_surjective():
    for x in (sp.standard_simplex(1, 2), nerve_z2(), sp.sphere(1, 3)):
        row = sp.kan_status(x, 0)
        assert all(s for s, _ in row.flags.values())


# -- classification ------------------------------------------------------------


def test_category_nerve_weakly_1_coskeletal():
    cat = ca.poset_interval_category()
    n = nv.nerve_category(cat, 3)
    rep = sp.classify(n, 1)
    assert rep.weakly_n_coskeletal
    assert not rep.n_kan_groupoid     # not a groupoid


def test_groupoid_nerve_is_1_kan_groupoid():
    rep = sp.classify(nerve_z2(), 1)
    assert rep.n_kan_groupoid


def test_constant_sset_is_0_kan_groupoid():
    c = sp.constant_sset(["a", "b", "c"], 3)
    assert sp.classify(c, 0).n_kan_groupoid


# -- coskeletal machinery --------------------------------------------------------


def test_coskeletal_extend_nerve():
    full = nerve_z2()
    tau2 = sp.TruncatedSSet(2, full.levels[:3],
                            {k: v for k, v in full.face.items() if k[0] <= 2},
                            {k: v for k, v in full.degen.items() if k[0] <= 1},
                            coskeletal_at=2)
    ext = sp.coskeletal_extend(tau2, 3)
    assert len(ext.level(3)) == 8
    assert ext.validate().ok
    # extension then truncation is the identity on the original levels
    for k in range(3):
        assert ext.levels[k] == tau2.levels[k]


def test_csq0_of_two_points():
    pts = sp.constant_sset(["a", "b"], 0)
    ext = sp.coskeletal_extend(pts, 2)
    assert [len(l) for l in ext.levels] == [2, 4, 8]
    assert ext.validate().ok


def test_delta0_extends_to_singletons():
    d0 = sp.standard_simplex(0, 0)
    ext = sp.coskeletal_extend(d0, 3)
    assert [len(l) for l in ext.levels] == [1, 1, 1, 1]


def test_csq_prime_identifies_equal_faces():
    d2 = sp.standard_simplex(2, 2)
    y, maps = sp.csq_prime(d2, 0)
    # 1-simplices with equal endpoints are identified: 00,11,22 collapse
    # pairwise-distinctly, 01/02/12 stay distinct
    assert len(set(maps[1].values())) == 6
    assert sp.classify(y, 0).weakly_n_coskeletal


def test_csq_prime_on_weakly_coskeletal_is_iso():
    n = nerve_z2()
    y, maps = sp.csq_prime(n, 1)
    assert sp.find_isomorphism(n, y) is not None


# -- shift and loop spaces --------------------------------------------------------


def test_shift_levels_and_retraction():
    n = nerve_z2()
    d = sp.shift(n)
    assert len(d.level(1)) == 4
    assert d.validate().ok
    assert sp.shift_retraction_check(n) == []
    n3 = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(3)), 3)
    assert sp.shift_retraction_check(n3) == []


def test_shift_retraction_names_each_broken_homotopy_identity():
    # s_1 of the last 1-simplex of the Z/3 nerve rewired to the first
    # other 2-simplex: the H(t) identities through it fail, 24 times
    n3 = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(3)), 3)
    edge = n3.level(1)[-1]
    other = next(c for c in n3.level(2) if c != n3.degen[1, 1][edge])
    degen = dict(n3.degen)
    degen[1, 1] = dict(degen[1, 1], **{edge: other})
    broken = sp.TruncatedSSet(n3.dim, n3.levels, n3.face, degen)
    chains1 = ["[m0;m2]", "[m1;m1]", "[m2;m0]"]
    chains2 = {0: ["[m0;m0;m2]", "[m0;m1;m1]", "[m0;m2;m0]", "[m1;m0;m2]",
                   "[m1;m1;m1]", "[m1;m2;m0]", "[m2;m0;m2]", "[m2;m1;m1]",
                   "[m2;m2;m0]"],
               1: ["[m0;m0;m2]", "[m0;m1;m1]", "[m0;m2;m0]", "[m1;m0;m1]",
                   "[m1;m1;m0]", "[m1;m2;m2]", "[m2;m0;m0]", "[m2;m1;m2]",
                   "[m2;m2;m1]"]}
    want = {"homotopy d-identity fails (n=1,t=1,i=1,%s)" % c for c in chains1}
    want |= {"homotopy s-identity fails (n=1,t=1,j=0,%s)" % c for c in chains1}
    want |= {"homotopy d-identity fails (n=2,t=2,i=%d,%s)" % (i, c)
             for i, cs in chains2.items() for c in cs}
    got = sp.shift_retraction_check(broken)
    assert len(got) == len(want) == 24
    assert set(got) == want


def test_shift_of_constant_is_constant():
    c = sp.constant_sset(["a"], 2)
    d = sp.shift(c)
    assert [len(l) for l in d.levels] == [1, 1]


def test_loop_space_of_sphere():
    s1 = sp.sphere(1, 3)
    om = sp.loop_space(s1, variant="plain", base="0")
    assert sorted(om.level(0)) == ["00", "01"]
    omr = sp.loop_space(s1, variant="reduced")
    assert len(omr.level(0)) == 1 and omr.validate().ok


def test_loop_space_of_point():
    d0 = sp.coskeletal_extend(sp.standard_simplex(0, 0), 3)
    om = sp.loop_space(d0, variant="plain", base="0")
    assert all(len(l) == 1 for l in om.levels)


def test_loop_of_group_nerve_is_discrete_on_elements():
    # loops in a 1-type form a homotopy-discrete complex on the group
    n3 = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(3)), 3)
    om = sp.loop_space(n3, variant="plain", base="*")
    assert [len(l) for l in om.levels] == [3, 3, 3]
    assert sp.classify(om, 0).n_kan_groupoid


# -- homotopy groups ----------------------------------------------------------------


def test_pi1_of_group_nerve():
    n3 = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(3)), 3)
    g = sp.pi(n3, 1, base="*")
    assert g.is_isomorphic_to(gr.cyclic(3))


def test_pi0_of_disjoint_union():
    du = sp.disjoint_union(sp.standard_simplex(1, 2), sp.standard_simplex(0, 2))
    assert len(sp.pi0(du)) == 2


def test_pi_refuses_non_kan():
    d1 = sp.standard_simplex(1, 3)
    with pytest.raises(sp.NotKan):
        sp.pi(d1, 1, base="0")


def test_pi2_of_one_object_two_group_nerve():
    g = ca.one_object_two_group(gr.cyclic(2))
    ng = nv.nerve_2group(g, 4)
    assert sp.pi(ng, 2).is_isomorphic_to(gr.cyclic(2))
    assert sp.pi(ng, 2).is_abelian()


# -- builders -----------------------------------------------------------------------


def test_quotient_counts():
    d1 = sp.standard_simplex(1, 3)
    prod = sp.product(d1, d1)
    left = sp.sq0_subcomplex(d1)
    ids = [["(%s|%s)" % (a, b) for a in left[k] for b in d1.level(k)]
           for k in range(4)]
    q = sp.quotient_by_subcomplex(prod, ids)
    assert q.nondegenerate_counts()[:3] == [1, 3, 2]
    assert q.validate().ok


def test_sphere_is_reduced_with_one_loop():
    s1 = sp.sphere(1, 3)
    assert s1.is_reduced()
    assert s1.nondegenerate_counts()[:2] == [1, 1]


def test_quotient_requires_subcomplex():
    d2 = sp.standard_simplex(2, 2)
    with pytest.raises(sp.NotSubcomplex):
        sp.quotient_by_subcomplex(d2, [["0"], ["01"], []])


def test_product_no_nondegenerate_above_two():
    prod = sp.product(sp.standard_simplex(1, 3), sp.standard_simplex(1, 3))
    assert prod.nondegenerate_counts()[3:] == [0]


def test_enumeration_budget_env(monkeypatch):
    monkeypatch.setenv("KANFORGE_BUDGET", "12345")
    assert sp.enumeration_budget() == 12345
    monkeypatch.delenv("KANFORGE_BUDGET")
    assert sp.enumeration_budget() == sp.DEFAULT_BUDGET


@pytest.mark.parametrize("raw", ["lots", "1e6", "-3"])
def test_enumeration_budget_malformed(monkeypatch, raw):
    monkeypatch.setenv("KANFORGE_BUDGET", raw)
    with pytest.raises(sp.MalformedBudget, match=repr(raw)):
        sp.enumeration_budget()


def test_budget_exceeded_raises():
    n3 = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(3)), 3)
    with pytest.raises(sp.SearchBudgetExceeded):
        sp.enumerate_maps(n3, n3, budget=5)
