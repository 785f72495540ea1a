from unittest import mock

import pytest

from kanforge import catalg as ca
from kanforge import groups as gr
from kanforge import examples as ex
from kanforge import serialize as io

from reference import (LaxUnitaryFunctor, compose_lax, identity_lax,
                       is_weak_equivalence, k22_monoidal, monoidal_errors,
                       translation_bijectivity_check,
                       unitor_twisted_monoidal)


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
        assert isinstance(g, ca.TwoGroup)


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
    idf = identity_lax(g)
    assert idf.validate() == []
    comp = compose_lax(idf, idf)
    assert comp.validate() == []
    # composition with the identity is the identity on all components
    assert comp.obj_map == idf.obj_map
    assert comp.mor_map == idf.mor_map
    assert comp.m_comp == idf.m_comp


def test_compose_lax_associative():
    g = ca.discrete_two_group(gr.cyclic(2))
    f = identity_lax(g)
    lhs = compose_lax(compose_lax(f, f), f)
    rhs = compose_lax(f, compose_lax(f, f))
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
    return LaxUnitaryFunctor(d4, d2, obj, mor, m, name="q")


def test_quotient_functor_not_weak_equivalence():
    q = quotient_functor()
    assert q.validate() == []
    assert not is_weak_equivalence(q)


def test_identity_is_weak_equivalence():
    g = ca.one_object_two_group(gr.cyclic(2))
    assert is_weak_equivalence(identity_lax(g))


def test_skeleton_inclusion_is_weak_equivalence():
    infl = ex.build("inflated-disc-z2")
    d2 = ca.discrete_two_group(gr.cyclic(2))
    obj = {"o0": "o0_0", "o1": "o1_0"}
    mor = {"i0": infl.base.id_of("o0_0"), "i1": infl.base.id_of("o1_0")}
    m = {(x, y): infl.base.id_of(infl.t(obj[x], obj[y]))
         for x in d2.base.objects for y in d2.base.objects}
    incl = LaxUnitaryFunctor(d2, infl, obj, mor, m, name="skeleton")
    assert incl.validate() == []
    assert is_weak_equivalence(incl)


# -- monoidal validation on int rows against the string-keyed reference -----


def rebuilt(m, **changes):
    """A fresh MonoidalStructure with m's data, each field of changes
    (tensor_obj, tensor_mor, assoc, lunit, runit: a dict of entries to
    set, None to delete; unit, base: a value) applied."""
    fields = {}
    for key in ("tensor_obj", "tensor_mor", "assoc", "lunit", "runit"):
        table = dict(getattr(m, key))
        for k, v in changes.get(key, {}).items():
            if v is None:
                del table[k]
            else:
                table[k] = v
        fields[key] = table
    return ca.MonoidalStructure(
        changes.get("base", m.base), fields["tensor_obj"],
        fields["tensor_mor"], changes.get("unit", m.unit), fields["assoc"],
        fields["lunit"], fields["runit"], name=m.name)


def monoid_category(lunit="1", assoc="1"):
    """The commutative monoid {1, e}, e e = e, as a one-object category
    (not a groupoid: e has no inverse), monoidal under its product, with
    the given unitors and associator."""
    mul = {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e",
           ("e", "e"): "e"}
    base = ca.FinCategory(["*"], ["1", "e"], {"1": "*", "e": "*"},
                          {"1": "*", "e": "*"}, {"*": "1"}, mul)
    return ca.MonoidalStructure(base, {("*", "*"): "*"}, mul, "*",
                                {("*", "*", "*"): assoc}, {"*": lunit},
                                {"*": "1"}, name="M(1,e)")


def max_monoid():
    """The max monoid on {0, 1} as a discrete monoidal groupoid (from
    test_certify_failure_names_noninvertible_object)."""
    objs, morphs = ["n0", "n1"], ["e0", "e1"]
    src = {"e0": "n0", "e1": "n1"}
    ident = {"n0": "e0", "n1": "e1"}
    base = ca.FinGroupoid(objs, morphs, src, dict(src), ident,
                          {(m, m): m for m in morphs},
                          inv={m: m for m in morphs})
    mx = {("n0", "n0"): "n0", ("n0", "n1"): "n1",
          ("n1", "n0"): "n1", ("n1", "n1"): "n1"}
    return ca.MonoidalStructure(
        base, mx, {(ident[a], ident[b]): ident[mx[(a, b)]]
                   for a in objs for b in objs}, "n0",
        {(a, b, c): ident[mx[(mx[(a, b)], c)]]
         for a in objs for b in objs for c in objs},
        {a: ident[a] for a in objs}, {a: ident[a] for a in objs})


def oneobj_twisted_tensor(scale_left, scale_right):
    """OneObj(Z/3) with f (x) g = scale_left f + scale_right g: a functor
    (a homomorphism Z/3 x Z/3 -> Z/3) whose unit whiskering is not the
    identity unless its scale is 1."""
    g = ca.one_object_two_group(gr.cyclic(3))
    return rebuilt(g, tensor_mor={
        ("m%d" % a, "m%d" % b): "m%d" % ((scale_left * a + scale_right * b) % 3)
        for a in range(3) for b in range(3)})


def indiscrete_z2():
    """The indiscrete groupoid on {0, 1} under x (x) y = x + y mod 2: every
    diagram commutes, as hom-sets are singletons, and the tensor tells
    isomorphic objects apart."""
    base = ca.indiscrete_groupoid(["0", "1"])

    def one(x, y):
        return "<%s<%s>" % (y, x)

    def add(*xs):
        return str(sum(map(int, xs)) % 2)

    objs = base.objects
    return ca.MonoidalStructure(
        base, {(x, y): add(x, y) for x in objs for y in objs},
        {(f, g): one(add(base.src[f], base.src[g]),
                     add(base.tgt[f], base.tgt[g]))
         for f in base.morphisms for g in base.morphisms}, "0",
        {(x, y, z): one(add(x, y, z), add(x, y, z))
         for x in objs for y in objs for z in objs},
        {x: one(x, x) for x in objs}, {x: one(x, x) for x in objs},
        name="Indisc(Z2)")


# the example ids that build a MonoidalStructure, in id order
MONOIDAL_EXAMPLES = ("disc-z2", "disc-z2-x-oneobj-z2", "disc-z3", "disc-z4",
                     "inflated-disc-z2", "oneobj-z2", "oneobj-z3")


def test_monoidal_examples_are_the_monoidal_example_ids():
    assert MONOIDAL_EXAMPLES == tuple(
        name for name in ex.example_ids()
        if isinstance(ex.build(name), ca.MonoidalStructure))


def monoidal_cases():
    """(name, a function that makes the structure, the message family
    its errors must hold; None for a valid structure)."""
    def d2():
        return ex.build("disc-z2")

    def o2():
        return ca.one_object_two_group(gr.cyclic(2))

    def o3():
        return ca.one_object_two_group(gr.cyclic(3))

    def broken_o3():
        g = o3()
        b3 = g.base
        return rebuilt(g, base=ca.FinGroupoid(
            b3.objects, b3.morphisms, b3.src, b3.tgt, b3.ident,
            {**b3.comp_table, ("m1", "m1"): "m0"}, inv=b3.inv_table))

    out = [(name, lambda name=name: ex.build(name), None)
           for name in MONOIDAL_EXAMPLES]
    out += [
        ("disc-s3", lambda: ca.discrete_two_group(gr.symmetric(3)), None),
        ("unitor-twisted", unitor_twisted_monoidal, None),
        ("max-monoid", max_monoid, None),
        ("monoid-category", monoid_category, None),
        ("indiscrete-z2", indiscrete_z2, None),
        ("base", broken_o3, "associativity fails"),
        ("tensor-obj", lambda: rebuilt(d2(), tensor_obj={("o0", "o1"): None}),
         "tensor undefined on ("),
        ("unit", lambda: rebuilt(d2(), unit="zz"), "unit zz is not an object"),
        ("tensor-mor", lambda: rebuilt(d2(), tensor_mor={("i0", "i1"): None}),
         "tensor undefined on morphisms"),
        ("tensor-mor-ends",
         lambda: rebuilt(d2(), tensor_mor={("i0", "i1"): "i0"}),
         "has wrong endpoints"),
        ("identities", lambda: rebuilt(o2(), tensor_mor={("m0", "m0"): "m1"}),
         "tensor does not preserve identities"),
        ("functorial", lambda: rebuilt(o3(), tensor_mor={("m1", "m1"): "m0"}),
         "tensor not functorial"),
        ("lunit-ends", lambda: rebuilt(d2(), lunit={"o1": "i0"}),
         "left unitor of o1 malformed"),
        ("runit-ends", lambda: rebuilt(d2(), runit={"o0": None}),
         "right unitor of o0 malformed"),
        ("assoc-ends", lambda: rebuilt(d2(), assoc={("o0", "o0", "o1"): "i0"}),
         "associator of (o0,o0,o1) malformed"),
        ("unitor-iso", lambda: monoid_category(lunit="e"),
         "unitor at * not invertible"),
        ("assoc-iso", lambda: monoid_category(assoc="e"),
         "associator at ('*', '*', '*') not invertible"),
        ("lunit-natural", lambda: oneobj_twisted_tensor(1, 2),
         "left unitor not natural"),
        ("runit-natural", lambda: oneobj_twisted_tensor(2, 1),
         "right unitor not natural"),
        ("assoc-natural", lambda: oneobj_twisted_tensor(1, 2),
         "associator not natural"),
        ("pentagon", lambda: k22_monoidal(lambda x, y, z: x * y, lambda x: 0,
                                          lambda x: 0, "xy"), "pentagon fails"),
        ("triangle", lambda: rebuilt(o2(), lunit={"*": "m1"}),
         "triangle fails"),
    ]
    # The derived checks (l_1 = r_1 and the two unit triangles) follow
    # from the checks before them (Kelly, J. Algebra 1, 1964), so no
    # structure that passes those reaches their messages.
    return out


@pytest.mark.parametrize("name,make,family", monoidal_cases(),
                         ids=[case[0] for case in monoidal_cases()])
def test_monoidal_validation_matches_string_keyed_reference(name, make,
                                                            family):
    m = make()
    want = monoidal_errors(m)
    assert m.validate() == want
    if family is None:
        assert want == []
        return
    assert any(family in e for e in want)
    with pytest.raises(ca.CatError) as exc:
        ca.certify_two_group(m)
    assert str(exc.value) == "monoidal validation failed: %s" % want[0]


@pytest.mark.parametrize("name,make,family", [
    case for case in monoidal_cases() if case[2] is not None],
    ids=[case[0] for case in monoidal_cases() if case[2] is not None])
def test_two_group_documents_report_the_first_reference_error(name, make,
                                                              family):
    # the document is written from m's dicts, so entries a mutation
    # dropped are missing from it too
    m = make()
    doc = {"format": 1, "kind": "two_group",
           "base": io.category_to_doc(m.base), "unit_object": m.unit,
           "tensor": {"objects": [[*k, v] for k, v in m.tensor_obj.items()],
                      "morphisms": [[*k, v]
                                    for k, v in m.tensor_mor.items()]},
           "assoc": [[*k, v] for k, v in m.assoc.items()],
           "lunit": m.lunit, "runit": m.runit}
    first = monoidal_errors(m)[0]
    if m.base.validate():
        want = "category axioms fail: %s" % first
    else:
        want = "2-group certification fails: monoidal validation failed: " \
            "%s" % first
    with pytest.raises(io.ParseError) as exc:
        io.two_group_from_doc(doc)
    assert str(exc.value) == want
    with pytest.raises(io.ParseError) as exc:
        io.two_group_from_doc({**doc, "kind": "monoidal"})
    assert str(exc.value) == want.replace(
        "2-group certification fails: monoidal validation failed",
        "monoidal axioms fail")


@pytest.mark.parametrize("name", ["disc-z2", "inflated-disc-z2"])
def test_a_two_group_load_checks_its_base_category_once(name):
    # the loader and MonoidalStructure.validate both ask; the category,
    # never changed once made, answers the second from the first
    doc = io.two_group_to_doc(ex.build(name))
    with mock.patch.object(ca.FinGroupoid, "_check", autospec=True,
                           side_effect=ca.FinGroupoid._check) as check:
        g = io.two_group_from_doc(doc)
    assert check.call_count == 1
    errs = g.base.validate()
    errs.append("a caller's own list")
    assert g.base.validate() == []
