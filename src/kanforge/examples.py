"""The canned corpus: every object the verification drivers exercise,
reachable by a stable id."""

from . import simplicial as sp
from . import catalg as ca
from . import nerves as nv
from . import groups as gr


def _collapsed_cylinder(n, dim):
    """Delta^1 x Delta^n / sq_0 Delta^1 x Delta^n, truncated at dim."""
    d1, dn = sp.standard_simplex(1, dim), sp.standard_simplex(n, dim)
    left = sp.sq0_subcomplex(d1)
    return sp.quotient_by_subcomplex(sp.product(d1, dn), [
        [sp.pair_id(a, b) for a in left[k] for b in dn.level(k)]
        for k in range(dim + 1)])


def _inflated_disc_z2():
    """A 2-group equivalent to Disc(Z/2) with two objects per class:
    within a class the groupoid is indiscrete, the tensor lands on the
    0-copy and every coherence cell is the unique morphism."""
    k = gr.cyclic(2)
    objs = ["o%s_%d" % (e, i) for e in k.elements for i in (0, 1)]
    def dec(o):
        body = o[1:]
        e, i = body.split("_")
        return int(e), int(i)
    morphs = []
    src, tgt = {}, {}
    for a in objs:
        for b in objs:
            if dec(a)[0] == dec(b)[0]:
                m = "u<%s<%s>" % (b, a)
                morphs.append(m)
                src[m], tgt[m] = a, b
    ident = {a: "u<%s<%s>" % (a, a) for a in objs}
    comp = {}
    for g2 in morphs:
        for f in morphs:
            if src[g2] == tgt[f]:
                comp[(g2, f)] = "u<%s<%s>" % (tgt[g2], src[f])
    inv = {m: "u<%s<%s>" % (src[m], tgt[m]) for m in morphs}
    base = ca.FinGroupoid(objs, morphs, src, tgt, ident, comp, inv=inv,
                          name="InflDisc(Z2)")
    def tobj(a, b):
        return "o%d_0" % ((dec(a)[0] + dec(b)[0]) % 2)
    tensor_obj = {(a, b): tobj(a, b) for a in objs for b in objs}
    tensor_mor = {}
    for f in morphs:
        for g2 in morphs:
            sa, ta = src[f], tgt[f]
            sb, tb = src[g2], tgt[g2]
            tensor_mor[(f, g2)] = "u<%s<%s>" % (tobj(ta, tb), tobj(sa, sb))
    unit = "o0_0"
    assoc = {}
    for a in objs:
        for b in objs:
            for c in objs:
                lhs = tobj(tobj(a, b), c)
                rhs = tobj(a, tobj(b, c))
                assoc[(a, b, c)] = "u<%s<%s>" % (rhs, lhs)
    lunit = {a: "u<%s<%s>" % (tobj(unit, a), a) for a in objs}
    runit = {a: "u<%s<%s>" % (tobj(a, unit), a) for a in objs}
    mon = ca.MonoidalStructure(base, tensor_obj, tensor_mor, unit, assoc,
                               lunit, runit, name="InflDisc(Z2)")
    return ca.certify_two_group(mon)


_BUILDERS = {
    # simplicial sets
    "delta1": lambda: sp.standard_simplex(1, 3),
    "delta2": lambda: sp.standard_simplex(2, 3),
    "boundary-delta2": lambda: sp.boundary_simplex(2, 3),
    "horn-2-1": lambda: sp.horn_complex(2, 1, 3),
    "s1": lambda: sp.sphere(1, 3),
    "delta2-reduced": lambda: sp.reduce_by_vertices(sp.standard_simplex(2, 3)),
    "t11": lambda: _collapsed_cylinder(1, 3),
    "t12": lambda: _collapsed_cylinder(2, 4),
    "constant-3": lambda: sp.constant_sset(["a", "b", "c"], 3),
    "nerve-z2": lambda: nv.nerve_category(ca.one_object_groupoid(gr.cyclic(2)), 3),
    "nerve-z3": lambda: nv.nerve_category(ca.one_object_groupoid(gr.cyclic(3)), 3),
    "nerve-indiscrete2": lambda: nv.nerve_category(
        ca.indiscrete_groupoid(["a", "b"]), 3),
    "nerve-indiscrete3": lambda: nv.nerve_category(
        ca.indiscrete_groupoid(["a", "b", "c"]), 3),
    # groups
    "z2": lambda: gr.cyclic(2),
    "z3": lambda: gr.cyclic(3),
    "z4": lambda: gr.cyclic(4),
    "s3": lambda: gr.symmetric(3),
    # categories and groupoids
    "poset-interval": ca.poset_interval_category,
    "groupoid-z2": lambda: ca.one_object_groupoid(gr.cyclic(2)),
    "groupoid-z3": lambda: ca.one_object_groupoid(gr.cyclic(3)),
    "indiscrete-2": lambda: ca.indiscrete_groupoid(["a", "b"]),
    "indiscrete-3": lambda: ca.indiscrete_groupoid(["a", "b", "c"]),
    # 2-groups
    "disc-z2": lambda: ca.discrete_two_group(gr.cyclic(2)),
    "disc-z3": lambda: ca.discrete_two_group(gr.cyclic(3)),
    "disc-z4": lambda: ca.discrete_two_group(gr.cyclic(4)),
    "oneobj-z2": lambda: ca.one_object_two_group(gr.cyclic(2)),
    "oneobj-z3": lambda: ca.one_object_two_group(gr.cyclic(3)),
    "disc-z2-x-oneobj-z2": lambda: ca.product_two_group(
        ca.discrete_two_group(gr.cyclic(2)),
        ca.one_object_two_group(gr.cyclic(2))),
    "inflated-disc-z2": _inflated_disc_z2,
}


def example_ids():
    return sorted(_BUILDERS)


def build(name):
    if name not in _BUILDERS:
        raise KeyError("unknown example %r" % name)
    return _BUILDERS[name]()


# the canned lists, by name; canned_*() build them
CANNED_GROUPOIDS = ("groupoid-z2", "groupoid-z3", "indiscrete-2",
                    "indiscrete-3")
CANNED_TWO_GROUPS = ("disc-z2", "disc-z3", "oneobj-z2", "oneobj-z3",
                     "disc-z2-x-oneobj-z2")
REDUCED_TEST_SPACES = ("s1", "delta2-reduced", "t11")


def canned_groupoids():
    return [(name, build(name)) for name in CANNED_GROUPOIDS]


def canned_two_groups():
    return [(name, build(name)) for name in CANNED_TWO_GROUPS]


def reduced_test_spaces():
    return [(name, build(name)) for name in REDUCED_TEST_SPACES]
