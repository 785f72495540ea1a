import importlib
import inspect
import pkgutil

import pytest

import kanforge
from kanforge import simplicial as sp
from kanforge import catalg as ca
from kanforge import nerves as nv
from kanforge import determinants as dt
from kanforge import groups as gr
from kanforge import examples as ex
from kanforge import serialize as io
from kanforge import cli

from reference import (canon, map_key, permuted, trivial_group,
                       unitor_twisted_monoidal)


def test_additive_counts_on_circle():
    s1 = sp.sphere(1, 3)
    for h, want in ((gr.cyclic(2), 2), (gr.cyclic(3), 3), (gr.symmetric(3), 6)):
        adds, homs, ok = dt.additive_vs_hom(s1, h)
        assert len(adds) == want == len(homs) and ok


def test_additive_two_free_edges():
    x = sp.reduce_by_vertices(sp.standard_simplex(2, 3))
    adds, homs, ok = dt.additive_vs_hom(x, gr.cyclic(3))
    assert len(adds) == 9 and ok


def test_additive_trivial_group():
    s1 = sp.sphere(1, 3)
    adds, _, ok = dt.additive_vs_hom(s1, trivial_group())
    assert len(adds) == 1 and ok


def test_determinants_on_circle_are_objects():
    s1 = sp.sphere(1, 3)
    for g in (ca.discrete_two_group(gr.cyclic(2)),
              ca.discrete_two_group(gr.cyclic(3))):
        dets, homs, ok = dt.determinants_vs_hom(s1, g)
        assert len(dets) == len(g.base.objects) and ok


def test_determinant_forcing_lemma_asserted():
    # enumerate_determinants re-derives T(s_i A) = s_i(D A) and raises if
    # it ever fails; a successful run is the assertion
    s1 = sp.sphere(1, 3)
    g = ca.one_object_two_group(gr.cyclic(2))
    dets = dt.enumerate_determinants(s1, g)
    assert len(dets) == 1
    d_fun, t_fun = dets[0]
    loop = [e for e in s1.level(1) if e != s1.degen[0, 0][s1.level(0)[0]]][0]
    assert t_fun[s1.degen[1, 0][loop]] == g.mor_inverse(g.l(d_fun[loop]))
    # in the unitor-twisted 2-group l_o1 != r_o1, so T(s_0 A) and T(s_1 A)
    # differ where D(A) = o1
    g = ca.certify_two_group(unitor_twisted_monoidal())
    s0, s1_ = s1.degen[1, 0][loop], s1.degen[1, 1][loop]
    twisted = [t_fun for d_fun, t_fun in dt.enumerate_determinants(s1, g)
               if d_fun[loop] == "o1"]
    assert twisted and all(
        (t_fun[s0], t_fun[s1_]) == (g.mor_inverse(g.l("o1")),
                                    g.mor_inverse(g.r("o1")))
        and t_fun[s0] != t_fun[s1_] for t_fun in twisted)


def test_det_classes_identity_and_disc():
    # one object: the lone determinant is its own class; Disc(Z/3) has
    # only identities, so each determinant is a class of its own
    s1 = sp.sphere(1, 3)
    g = ca.one_object_two_group(gr.cyclic(2))
    dets = dt.enumerate_determinants(s1, g)
    assert dt.pi0_det(s1, g, dets) == [[0]]
    d = ca.discrete_two_group(gr.cyclic(3))
    dd = dt.enumerate_determinants(s1, d)
    assert dt.pi0_det(s1, d, dd) == [[0], [1], [2]]


def test_transport_certificates_raise_on_tampered_lists():
    # t11 in oneobj-z2: four determinants in one class, |Aut| = 2
    t11, g = ex.build("t11"), ex.build("oneobj-z2")
    dets = dt.enumerate_determinants(t11, g)
    assert dt.pi0_det(t11, g, dets) == [[0, 1, 2, 3]]
    # a member left out: the transport reaches it
    with pytest.raises(dt.DeterminantError, match="not listed"):
        dt.pi0_det(t11, g, dets[1:])
    # a member listed twice: the transport reaches its later copy only,
    # so the earlier copy has no automorphism
    with pytest.raises(dt.DeterminantError, match="do not number"):
        dt.pi0_det(t11, g, dets + dets[1:2])
    # the other two laws hold for every list under a sound transport, so
    # a rest hook breaks them: on s1 in oneobj-z3 it tags three copies of
    # the one determinant and moves the tags by the morphism H takes on
    # the one free edge, from ids = [id, a, a^2]
    s1, g = ex.build("s1"), ex.build("oneobj-z3")
    ix = g.int_index
    (d, t), = dt.enumerate_determinants(s1, g)
    det = (tuple(ix.obj_int[d[e]] for e in s1.level(1)),
           tuple(ix.mor_int[t[c]] for c in s1.level(2)))
    free = [i for i, e in enumerate(s1.level(1))
            if e != s1.deg_base(1, s1.level(0)[0])]
    ids = sorted(ix.homs[ix.unit][ix.unit], key=lambda f: f != ix.unit_ident)

    def run(moves):
        # moves[tag][k]: the tag that H = ids[k] moves tag to
        return dt._transport_classes(
            s1, ix, [det + (tag,) for tag in range(3)],
            lambda tag, h: moves[tag][ids.index(h[free[0]])])

    assert run([[0, 1, 2], [1, 2, 0], [2, 0, 1]]) == [[0, 1, 2]]
    # Aut of tag 0 is {a}: a torsor count of 1 each, but a . a = a^2
    with pytest.raises(dt.DeterminantError, match="do not compose"):
        run([[1, 0, 2], [1, 0, 2], [1, 0, 2]])
    # tag 0 alone, then tag 1 reaches it
    with pytest.raises(dt.DeterminantError, match="overlap"):
        run([[0, 0, 0], [1, 0, 2], [2, 2, 2]])


def test_pi0_det_matches_mapping_object():
    s1 = sp.sphere(1, 3)
    for g in (ca.one_object_two_group(gr.cyclic(2)),
              ca.discrete_two_group(gr.cyclic(2))):
        dets = dt.enumerate_determinants(s1, g)
        classes = dt.pi0_det(s1, g, dets)
        # the classes alone: sorted indices into dets, each index once
        assert sorted(i for cls in classes for i in cls) == \
            list(range(len(dets)))
        assert all(cls == sorted(cls) for cls in classes)
        ng = nv.nerve_2group(g, 3)
        eh = dt.enriched_hom0(s1, ng, 1)
        assert len(classes) == len(sp.pi0(eh))


def test_grho_all_canned():
    for name, g in ex.canned_two_groups():
        errs, _ = dt.grho_check(g)
        assert errs == [], (name, errs)


def test_enriched_hom_negative_fixture():
    s1 = sp.sphere(1, 3)
    g = ca.one_object_two_group(gr.cyclic(2))
    ng = nv.nerve_2group(g, 3)
    eh = dt.enriched_hom0(s1, ng, 3)
    assert eh.validate().ok
    assert not sp.classify(eh, 1).n_kan_groupoid


def test_enriched_hom_into_one_kan_groupoid_is_constant():
    s1 = sp.sphere(1, 3)
    w = nv.nerve_category(ca.one_object_groupoid(gr.cyclic(3)), 3)
    eh = dt.enriched_hom0(s1, w, 2)
    assert sp.classify(eh, 0).n_kan_groupoid
    assert len(set(len(l) for l in eh.levels)) == 1


def test_hom_sset_point_into_anything():
    pt = sp.coskeletal_extend(sp.standard_simplex(0, 0), 3)
    ng = nv.nerve_2group(ca.discrete_two_group(gr.cyclic(2)), 3)
    maps = dt.hom_sset(pt, ng)
    assert len(maps) == 1


def test_segal_determinants_and_pi0():
    s1 = sp.sphere(1, 3)
    x = nv.p2_star(s1, 2)
    g = ca.discrete_two_group(gr.cyclic(3))
    ns = nv.segal_nerve(g, 2, 3)
    dets, maps, ok = dt.segal_determinants_vs_hom(x, g, ns)
    assert len(dets) == 3 and ok
    classes = dt.segal_pi0(x, g, dets)
    h1 = dt.hom1_enriched(x, ns, 1)
    assert len(classes) == len(sp.pi0(h1)) == 3


def test_segal_identity_determinant_exists():
    g = ca.discrete_two_group(gr.cyclic(2))
    ns = nv.segal_nerve(g, 2, 3)
    dets, maps, ok = dt.segal_determinants_vs_hom(ns, g, ns)
    assert ok and len(dets) >= 1


def test_hom1_is_one_kan_groupoid():
    s1 = sp.sphere(1, 3)
    x = nv.p2_star(s1, 2)
    g = ca.one_object_two_group(gr.cyclic(2))
    ns = nv.segal_nerve(g, 2, 3)
    h1 = dt.hom1_enriched(x, ns, 2)
    assert h1.validate().ok
    assert sp.classify(h1, 1).n_kan_groupoid


def test_budget_guard(monkeypatch):
    s1 = sp.sphere(1, 3)
    monkeypatch.setenv("KANFORGE_BUDGET", "2")
    with pytest.raises(sp.SearchBudgetExceeded):
        dt.enumerate_additive(s1, gr.symmetric(3))


def test_every_budget_message_names_its_cap(monkeypatch):
    # each of the seven guarded searches under a small cap: 2, or 10 for
    # the Segal determinant search, whose column-1 map enumeration takes
    # 4 evaluations on the source here
    monkeypatch.delenv("KANFORGE_BUDGET", raising=False)
    s1, g = ex.build("s1"), ex.build("oneobj-z2")
    x, ns = nv.p2_star(s1, 2), nv.segal_nerve(g, 2, 3)
    t11 = ex.build("t11")
    x11 = nv.p2_star(t11, 2)
    t11_dets = dt.enumerate_determinants(t11, g)
    runs = {
        "map enumeration": (2, lambda: sp.enumerate_maps(s1, s1)),
        "bisimplicial enumeration": (2, lambda: nv.enumerate_bimaps(x, ns)),
        "additive enumeration": (2, lambda: dt.enumerate_additive(
            s1, gr.cyclic(3))),
        "determinant enumeration": (2, lambda: dt.enumerate_determinants(
            s1, g)),
        "determinant transport": (2, lambda: dt.pi0_det(t11, g, t11_dets)),
        "segal determinant search": (
            10, lambda: dt.enumerate_segal_determinants(x11, g)),
        "fibrancy boundary-horn lift search": (
            2, lambda: nv.segal_fibrancy_check(ns)),
    }
    for search, (cap, run) in runs.items():
        monkeypatch.setenv("KANFORGE_BUDGET", str(cap))
        with pytest.raises(sp.SearchBudgetExceeded) as exc:
            run()
        assert str(exc.value) == "%s exceeded %d evaluations" % (search, cap)


def test_every_search_reads_the_one_cap(monkeypatch):
    # the front ends beside the searches' own tick pins (the enriched
    # homs are also pinned, in tests/test_fastpaths.py): each runs a
    # search under KANFORGE_BUDGET, and none takes a cap of its own
    monkeypatch.delenv("KANFORGE_BUDGET", raising=False)
    s1, g = ex.build("s1"), ex.build("oneobj-z2")
    x, ns = nv.p2_star(s1, 2), nv.segal_nerve(g, 2, 3)
    dets = dt.enumerate_determinants(s1, g)
    (sdet,) = dt.enumerate_segal_determinants(x, g)
    runs = {
        "find_isomorphism": lambda: sp.find_isomorphism(s1, s1),
        "enriched_hom0": lambda: dt.enriched_hom0(
            s1, nv.nerve_2group(g, 3), 1),
        "hom1_enriched": lambda: dt.hom1_enriched(x, ns, 1),
        "mu3_determined": lambda: nv.mu3_determined(x, ns),
        "pi0_det": lambda: dt.pi0_det(s1, g, dets),
        "segal_pi0": lambda: dt.segal_pi0(x, g, [sdet]),
        "additive_vs_hom": lambda: dt.additive_vs_hom(s1, gr.cyclic(3)),
        "determinants_vs_hom": lambda: dt.determinants_vs_hom(s1, g),
        "segal_determinants_vs_hom": lambda: dt.segal_determinants_vs_hom(
            x, g, ns),
    }
    monkeypatch.setenv("KANFORGE_BUDGET", "1")
    uncapped = []
    for name, run in runs.items():
        try:
            run()
            uncapped.append(name)
        except sp.SearchBudgetExceeded:
            pass
    assert uncapped == []
    public = [(name, obj) for mod in kanforge_modules()
              for name, obj in vars(mod).items()
              if callable(obj) and not name.startswith("_")
              and getattr(obj, "__module__", None) == mod.__name__]
    assert len(public) > 77
    takes_budget = [name for name, obj in public
                    if "budget" in _parameters(obj)]
    assert takes_budget == []


def kanforge_modules():
    return [importlib.import_module("kanforge." + info.name)
            for info in pkgutil.iter_modules(kanforge.__path__)]


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:      # the exception classes have no signature
        return {}


def pi_replaced(m, change):
    """A stand-in for sp.pi_with_classes that hands pi_m through
    change(group, classes) and every other pi as it is."""
    real = sp.pi_with_classes

    def fake(x, mm, base=None):
        group, classes = real(x, mm, base)
        return change(group, classes) if mm == m else (group, classes)
    return fake


def halved(group, classes):
    """pi / {1, s}, s the element of order 2, with each sphere sent to
    its coset's least member: the comparison into it is onto and a
    homomorphism, but two to one."""
    s = next(a for a in group.elements if group.order_of(a) == 2)
    coset = {a: min(a, group.mul(a, s)) for a in group.elements}
    table = {(coset[a], coset[b]): coset[group.mul(a, b)]
             for a in group.elements for b in group.elements}
    quotient = gr.FiniteGroup(sorted(set(coset.values())), table,
                              coset[group.unit])
    return quotient, {x: coset[c] for x, c in classes.items()}


def unit_moved(group, classes):
    """The group carried along a transposition of its unit and another
    element, the classes left as they are: the comparison into it stays
    bijective and fails to be a homomorphism at several elements."""
    other = next(a for a in group.elements if a != group.unit)
    swap = {a: a for a in group.elements}
    swap[group.unit], swap[other] = other, group.unit
    table = {(swap[a], swap[b]): swap[group.mul(a, b)]
             for a in group.elements for b in group.elements}
    return gr.FiniteGroup(group.elements, table, other), classes


@pytest.mark.parametrize("build,m,want", [
    (ca.discrete_two_group, 1, "pi0 -> pi1(N) is not bijective"),
    (ca.one_object_two_group, 2, "alpha1 : pi1 -> pi2(N) is not bijective")],
    ids=["disc-z4", "oneobj-z4"])
def test_grho_rejects_a_comparison_onto_but_not_one_to_one(
        monkeypatch, build, m, want):
    monkeypatch.setattr(sp, "pi_with_classes", pi_replaced(m, halved))
    errs, (p0, p1, p2, p1g) = dt.grho_check(build(gr.cyclic(4)))
    assert errs == [want]
    assert len((p1, p2)[m - 1]) == 2


@pytest.mark.parametrize("name,m,want", [
    ("disc-z3", 1, "pi0 -> pi1(N) is not a homomorphism"),
    ("oneobj-z3", 2, "alpha1 is not a homomorphism")],
    ids=["disc-z3", "oneobj-z3"])
def test_grho_names_a_failed_homomorphism_once(monkeypatch, name, m, want):
    monkeypatch.setattr(sp, "pi_with_classes", pi_replaced(m, unit_moved))
    errs, _ = dt.grho_check(ex.build(name))
    assert errs == [want]


# -- map order does not depend on the order of the source's levels -----------


def permuted_spaces():
    """(name, space, its permuted copy) for the reduced test spaces and
    t12."""
    spaces = ex.reduced_test_spaces() + [("t12", ex.build("t12"))]
    return [(name, x, permuted(x, seed))
            for seed, (name, x) in enumerate(spaces)]


def keys(maps):
    return [map_key(f) for f in maps]


def test_map_order_does_not_depend_on_level_order(monkeypatch):
    # each sort must equal a sort by the maps' sorted items, on the
    # permuted copy as on the space; `unsorted` counts the searches
    # whose own order differs from that, so the test is not vacuous
    unsorted = {"hom_sset": 0, "enriched_hom0": 0, "segal": 0}
    groups = [ex.build("disc-z2"), ex.build("oneobj-z2")]
    enumerate_maps = sp.enumerate_maps
    for name, x, px in permuted_spaces():
        for g in groups:
            ng = nv.nerve_2group(g, 3)
            searched = keys(sp.enumerate_maps(px, ng, upto=px.dim))
            assert keys(dt.hom_sset(px, ng)) == sorted(searched) == \
                keys(dt.hom_sset(x, ng))
            unsorted["hom_sset"] += searched != sorted(searched)
            if name == "t12":
                continue
            # the products X x Delta^n an enriched hom searches follow
            # the order of X, so the permuted copy's are permuted too;
            # each search's own order is read before the sort
            searches = []

            def spy(*args, **kw):
                found = enumerate_maps(*args, **kw)
                searches.append(list(found))
                return found

            monkeypatch.setattr(sp, "enumerate_maps", spy)
            pmaps, _ = dt._hom0_maps(px, ng, 1)
            monkeypatch.undo()
            maps, _ = dt._hom0_maps(x, ng, 1)
            for n in range(2):
                # an enriched hom sorts by the ids of the images, which
                # the search reads on the named nerve
                searched = keys(searches[n])
                assert list(map(canon, pmaps[n])) == \
                    sorted(map(canon, [f.components for f in searches[n]])) \
                    == list(map(canon, maps[n]))
                unsorted["enriched_hom0"] += searched != sorted(searched)
            peh, eh = dt.enriched_hom0(px, ng, 1), dt.enriched_hom0(x, ng, 1)
            assert (peh.levels, peh.face, peh.degen) == \
                (eh.levels, eh.face, eh.degen)
            bx, pbx = nv.p2_star(x, 2), nv.p2_star(px, 2)
            col = dt._column1_2trunc(pbx)
            searched = keys(sp.enumerate_maps(col, nv.nerve_category(
                g.base, 2), upto=col.dim))
            unsorted["segal"] += searched != sorted(searched)
            got = [(map_key(dm), sorted(t.items()))
                   for dm, t in dt.enumerate_segal_determinants(pbx, g)]
            want = [(map_key(dm), sorted(t.items()))
                    for dm, t in dt.enumerate_segal_determinants(bx, g)]
            assert [k for k, _ in got] == sorted(k for k, _ in got)
            assert sorted(got) == sorted(want)
    assert all(unsorted.values()), unsorted


def test_det_and_add_output_does_not_depend_on_level_order(tmp_path, capsys):
    def path(name, obj):
        out = tmp_path / ("%s.json" % name)
        out.write_text(io.dumps(obj), encoding="utf-8")
        return str(out)

    unsorted = 0
    for name, x, px in permuted_spaces():
        spaces = [path(name, x), path(name + "-permuted", px)]
        for verb, group in (("det", "disc-z2"), ("det", "oneobj-z2"),
                            ("add", "z3")):
            outputs = []
            for space in spaces:
                assert cli.main([verb, space, path(group, ex.build(group))]) \
                    == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]
            if verb == "det":
                dets = dt.enumerate_determinants(px, ex.build(group))
                found = [(sorted(d.items()), sorted(t.items()))
                         for d, t in dets]
                unsorted += found != sorted(found)
    assert unsorted
