import pytest

from kanforge import catalg as ca
from kanforge import groups as gr
from kanforge import examples as ex

from reference import translation_bijectivity_check


def test_one_object_groupoid_valid():
    b = ca.one_object_groupoid(gr.cyclic(2))
    assert b.validate() == []


def test_broken_associativity_is_reported():
    b = ca.one_object_groupoid(gr.cyclic(3))
    comp = dict(b.comp_table)
    comp[("m1", "m1")] = "m0"       # break one composite
    broken = ca.FinGroupoid(b.objects, b.morphisms, b.src, b.tgt, b.ident,
                            comp, inv=b.inv_table)
    errs = broken.validate()
    assert any("associativity" in e or "unit" in e for e in errs)


def test_poset_is_category_not_groupoid():
    cat = ca.poset_interval_category()
    assert cat.validate() == []
    as_grpd = ca.FinGroupoid(cat.objects, cat.morphisms, cat.src, cat.tgt,
                             cat.ident, cat.comp_table)
    assert any("inverse" in e for e in as_grpd.validate())


def test_strict_two_groups_validate():
    for g in (ca.discrete_two_group(gr.cyclic(2)),
              ca.one_object_two_group(gr.cyclic(3))):
        assert g.validate() == []
        assert g.certified()


def test_perturbed_associator_rejected():
    g = ca.discrete_two_group(gr.cyclic(2))
    assoc = dict(g.assoc)
    assoc[("o0", "o0", "o1")] = "i0"     # endpoints no longer match
    broken = ca.MonoidalStructure(g.base, g.tensor_obj, g.tensor_mor, g.unit,
                                  assoc, g.lunit, g.runit)
    errs = broken.validate()
    assert errs and any("associator" in e for e in errs)


def test_perturbed_unitor_caught_by_coherence():
    # in OneObj(Z2) redefine l on the object to the non-identity morphism;
    # pentagon/triangle or naturality must reject it
    g = ca.one_object_two_group(gr.cyclic(2))
    lunit = dict(g.lunit)
    lunit["*"] = "m1"
    broken = ca.MonoidalStructure(g.base, g.tensor_obj, g.tensor_mor, g.unit,
                                  g.assoc, lunit, g.runit)
    errs = broken.validate()
    assert errs
    assert any(("triangle" in e) or ("natural" in e) or ("pentagon" in e)
               for e in errs)


def test_certify_failure_names_noninvertible_object():
    # the max monoid on {0,1} as a discrete monoidal groupoid: object 1
    # is not invertible
    objs = ["n0", "n1"]
    morphs = ["e0", "e1"]
    src = {"e0": "n0", "e1": "n1"}
    tgt = dict(src)
    ident = {"n0": "e0", "n1": "e1"}
    comp = {(m, m): m for m in morphs}
    base = ca.FinGroupoid(objs, morphs, src, tgt, ident, comp,
                          inv={m: m for m in morphs})
    mx = {("n0", "n0"): "n0", ("n0", "n1"): "n1",
          ("n1", "n0"): "n1", ("n1", "n1"): "n1"}
    tmor = {(ident[a], ident[b]): ident[mx[(a, b)]]
            for a in objs for b in objs}
    assoc = {(a, b, c): ident[mx[(mx[(a, b)], c)]]
             for a in objs for b in objs for c in objs}
    lunit = {a: ident[a] for a in objs}
    runit = {a: ident[a] for a in objs}
    m = ca.MonoidalStructure(base, mx, tmor, "n0", assoc, lunit, runit)
    assert m.validate() == []
    with pytest.raises(ca.CertifyFailure) as exc:
        ca.certify_two_group(m)
    assert exc.value.obj == "n1"


def test_certify_requires_groupoid_base():
    cat = ca.poset_interval_category()
    tobj = {(x, y): "0" for x in cat.objects for y in cat.objects}
    with pytest.raises(ca.CatError):
        ca.certify_two_group(ca.MonoidalStructure(
            cat, tobj, {}, "0", {}, {}, {}))


def test_pi0_pi1():
    d3 = ca.discrete_two_group(gr.cyclic(3))
    assert ca.pi0_two_group(d3).is_isomorphic_to(gr.cyclic(3))
    assert len(ca.pi1_two_group(d3)) == 1
    o3 = ca.one_object_two_group(gr.cyclic(3))
    assert len(ca.pi0_two_group(o3)) == 1
    assert ca.pi1_two_group(o3).is_isomorphic_to(gr.cyclic(3))


def test_pi1_abelian_for_all_canned():
    for _, g in ex.canned_two_groups():
        assert ca.pi1_two_group(g).is_abelian()


def test_translation_bijectivity():
    for _, g in ex.canned_two_groups():
        assert translation_bijectivity_check(g)


def test_unit_unitors_agree():
    for _, g in ex.canned_two_groups():
        assert g.l(g.unit) == g.r(g.unit)


def test_identity_functor_and_composition():
    g = ca.one_object_two_group(gr.cyclic(3))
    idf = ca.identity_lax(g)
    assert idf.validate() == []
    comp = ca.compose_lax(idf, idf)
    assert comp.validate() == []
    # composition with the identity is the identity on all components
    assert comp.obj_map == idf.obj_map
    assert comp.mor_map == idf.mor_map
    assert comp.m_comp == idf.m_comp


def test_compose_lax_associative():
    g = ca.discrete_two_group(gr.cyclic(2))
    f = ca.identity_lax(g)
    lhs = ca.compose_lax(ca.compose_lax(f, f), f)
    rhs = ca.compose_lax(f, ca.compose_lax(f, f))
    assert lhs.obj_map == rhs.obj_map
    assert lhs.mor_map == rhs.mor_map
    assert lhs.m_comp == rhs.m_comp


def quotient_functor():
    z4, z2 = gr.cyclic(4), gr.cyclic(2)
    d4, d2 = ca.discrete_two_group(z4), ca.discrete_two_group(z2)
    obj = {"o%s" % a: "o%s" % (a % 2) for a in z4.elements}
    mor = {"i%s" % a: "i%s" % (a % 2) for a in z4.elements}
    m = {(x, y): d2.base.id_of(d2.t(obj[x], obj[y]))
         for x in d4.base.objects for y in d4.base.objects}
    return ca.LaxUnitaryFunctor(d4, d2, obj, mor, m, name="q")


def test_quotient_functor_not_weak_equivalence():
    q = quotient_functor()
    assert q.validate() == []
    assert not ca.is_weak_equivalence(q)


def test_identity_is_weak_equivalence():
    g = ca.one_object_two_group(gr.cyclic(2))
    assert ca.is_weak_equivalence(ca.identity_lax(g))


def test_skeleton_inclusion_is_weak_equivalence():
    infl = ex.build("inflated-disc-z2")
    d2 = ca.discrete_two_group(gr.cyclic(2))
    obj = {"o0": "o0_0", "o1": "o1_0"}
    mor = {"i0": infl.base.id_of("o0_0"), "i1": infl.base.id_of("o1_0")}
    m = {(x, y): infl.base.id_of(infl.t(obj[x], obj[y]))
         for x in d2.base.objects for y in d2.base.objects}
    incl = ca.LaxUnitaryFunctor(d2, infl, obj, mor, m, name="skeleton")
    assert incl.validate() == []
    assert ca.is_weak_equivalence(incl)
