from collections import Counter
from itertools import product

from hypothesis import given, settings, strategies as st

from kanforge import groups as gr

from reference import direct_product, trivial_group


def test_cyclic_tables():
    z4 = gr.cyclic(4)
    assert z4.validate() == []
    assert z4.mul(3, 2) == 1
    assert z4.inv(3) == 1
    assert z4.order_of(2) == 2
    assert z4.is_abelian()


def test_symmetric_group():
    s3 = gr.symmetric(3)
    assert s3.validate() == []
    assert len(s3) == 6
    assert not s3.is_abelian()


def test_isomorphism_search():
    z6 = gr.cyclic(6)
    z23 = direct_product(gr.cyclic(2), gr.cyclic(3))
    assert z6.is_isomorphic_to(z23)
    assert not gr.symmetric(3).is_isomorphic_to(z6)
    assert trivial_group().is_isomorphic_to(gr.cyclic(1))


def test_isomorphism_respects_structure():
    z3 = gr.cyclic(3)
    f = z3.isomorphism_to(gr.cyclic(3))
    for a in z3.elements:
        for b in z3.elements:
            assert f[z3.mul(a, b)] == (f[a] + f[b]) % 3


# -- the shared comparisons ---------------------------------------------------


def test_bijective_wants_one_to_one_and_onto():
    assert gr.bijective([2, 0, 1], [0, 1, 2])
    assert not gr.bijective([0, 0, 1], [0, 1, 2])     # not one-to-one
    assert not gr.bijective([0, 1], [0, 1, 2])        # not onto
    assert not gr.bijective([0, 1, 0, 1], [0, 1])     # onto, two to one
    assert not gr.bijective([0, None], [0, 1])        # an image is missing
    assert gr.bijective([], [])


def test_iso_failure_rejects_z4_onto_z2():
    z4, z2 = gr.cyclic(4), gr.cyclic(2)
    mod2 = {a: a % 2 for a in z4.elements}
    # onto and a homomorphism, but not one-to-one
    assert all(mod2[z4.mul(a, b)] == z2.mul(mod2[a], mod2[b])
               for a in z4.elements for b in z4.elements)
    assert z4.iso_failure(z2, mod2) == "not bijective"
    assert z4.iso_failure(z4, {a: a for a in z4.elements}) is None
    assert z4.iso_failure(z4, {a: -a % 4 for a in z4.elements}) is None
    assert z4.iso_failure(z4, {0: 1, 1: 0, 2: 2, 3: 3}) == "not a homomorphism"
    assert z4.isomorphism_to(z2) is None


def closure(items, pairs):
    """The equivalence relation generated by pairs, by definition: the
    least reflexive, symmetric and transitive set of pairs holding them."""
    rel = {(a, a) for a in items} | set(pairs) | {(b, a) for a, b in pairs}
    while True:
        more = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not more:
            return rel
        rel |= more


@st.composite
def items_and_pairs(draw):
    """Up to 8 items and up to 12 pairs of them."""
    n = draw(st.integers(0, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return list(range(n)), draw(st.lists(pair, max_size=12)) if n else []


@settings(max_examples=200, deadline=None)
@given(items_and_pairs())
def test_components_match_the_generated_equivalence(data):
    items, pairs = data
    rel = closure(items, pairs)
    want = {a: min(b for b in items if (a, b) in rel) for a in items}
    got = gr.components(items, pairs)
    assert got == want and list(got) == items


@st.composite
def relations(draw):
    """A relation on up to 8 items: an equivalence (from a random
    labelling) with a few pairs flipped, some together with their
    mirror, so that each law may be the first to fail."""
    n = draw(st.integers(0, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rel = {(a, b) for a in range(n) for b in range(n) if labels[a] == labels[b]}
    if n:
        flip = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                         st.booleans())
        for a, b, mirror in draw(st.lists(flip, max_size=3)):
            rel ^= {(a, b), (b, a)} if mirror and a != b else {(a, b)}
    return n, rel


class LawFails(Exception):
    pass


def definitional_classes(n, rel):
    """The first law of an equivalence that rel breaks on range(n)
    (with the item for reflexivity), or its classes by least member."""
    for a in range(n):
        if (a, a) not in rel:
            return ("reflexive", a)
    if any((b, a) not in rel for a, b in product(range(n), repeat=2)
           if (a, b) in rel):
        return ("symmetric", None)
    if any((a, c) not in rel for a, b, c in product(range(n), repeat=3)
           if (a, b) in rel and (b, c) in rel):
        return ("transitive", None)
    return {a: min(b for b in range(n) if (a, b) in rel) for a in range(n)}


@settings(max_examples=300, deadline=None)
@given(relations())
def test_equivalence_classes_match_the_definitions(data):
    n, rel = data
    calls = Counter()

    def related(a, b):
        calls[a, b] += 1
        return (a, b) in rel

    try:
        got = gr.equivalence_classes(range(n), related,
                                     lambda law, a: LawFails(law, a))
    except LawFails as exc:
        got = exc.args
    assert got == definitional_classes(n, rel)
    # every pair is evaluated, once
    assert calls == Counter(product(range(n), repeat=2))
