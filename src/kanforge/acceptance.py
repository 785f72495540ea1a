"""The acceptance drivers: one named check per exit criterion, each
runnable as `kanforge verify <name>` and asserted by the test suite.

Every check returns (ok, lines); all comparisons are exact.
"""

from . import simplicial as sp
from . import catalg as ca
from . import nerves as nv
from . import determinants as dt
from . import examples as ex
from . import groups as gr


def check_groupoid_nerve():
    """Nerves of groupoids are 1-Kan groupoids and reconstruct their
    groupoid up to isomorphism."""
    lines = []
    ok = True
    for name, grpd in ex.canned_groupoids():
        ner = nv.nerve_category(grpd, 3)
        cls = sp.classify(ner, 1)
        good = cls.n_kan_groupoid
        rec = None
        if good:
            rec = nv.groupoid_from_nerve(ner)
            good = _groupoid_isomorphic(rec, grpd)
        ok &= good
        lines.append("  %-14s 1-kan-groupoid=%s round-trip=%s"
                     % (name, cls.n_kan_groupoid, good))
    return ok, lines


def _groupoid_isomorphic(g1, g2):
    n1 = nv.nerve_category(g1, 2)
    n2 = nv.nerve_category(g2, 2)
    return sp.find_isomorphism(n1, n2) is not None


def check_two_group_nerve():
    """2-group nerves are 2-Kan groupoids; the rebuilt 2-group is weakly
    equivalent to the original (pi0/pi1 isomorphisms)."""
    lines = []
    ok = True
    for name, g in ex.canned_two_groups():
        ner = nv.nerve_2group(g, 4)
        cls = sp.classify(ner, 2)
        good = cls.n_kan_groupoid
        if good:
            rec = nv.two_group_from_nerve(ner)
            good = (ca.pi0_two_group(rec).is_isomorphic_to(ca.pi0_two_group(g))
                    and ca.pi1_two_group(rec).is_isomorphic_to(
                        ca.pi1_two_group(g)))
        ok &= good
        lines.append("  %-22s 2-kan-groupoid=%s weak-equivalent=%s"
                     % (name, cls.n_kan_groupoid, good))
    return ok, lines


def check_grho():
    """pi0(G) = pi1(nerve) and pi1(G) = pi2(nerve) via the explicit
    comparison maps, as group isomorphisms."""
    lines = []
    ok = True
    for name, g in ex.canned_two_groups():
        errs, (p0, p1, p2, p1g) = dt.grho_check(g)
        ok &= not errs
        lines.append("  %-22s %s (|pi1 N|=%d, |pi2 N|=%d)"
                     % (name, "ok" if not errs else "; ".join(errs),
                        len(p1), len(p2)))
    return ok, lines


def check_loop_gamma():
    """The loop-space comparison is a levelwise bijective simplicial map
    onto the nerve of the underlying groupoid."""
    lines = []
    ok = True
    for name, g in ex.canned_two_groups():
        try:
            comps, om, nsg = nv.loop_gamma(g)
            lines.append("  %-22s bijective on levels %s"
                         % (name, [len(l) for l in om.levels]))
        except nv.NerveError as exc:
            ok = False
            lines.append("  %-22s FAILED: %s" % (name, exc))
    return ok, lines


def check_additive():
    """|additive functions| = |maps into the group nerve| with a verified
    bijection, over the reduced corpus and H in {Z/2, Z/3, S3}."""
    lines = []
    ok = True
    groups = [("z2", gr.cyclic(2)), ("z3", gr.cyclic(3)),
              ("s3", gr.symmetric(3))]
    for xname, x in ex.reduced_test_spaces():
        for hname, h in groups:
            adds, homs, good = dt.additive_vs_hom(x, h)
            ok &= good
            lines.append("  %-16s %-3s |add|=%-4d |hom|=%-4d bijection=%s"
                         % (xname, hname, len(adds), len(homs), good))
    return ok, lines


def check_determinants():
    """Determinant sets against maps into the 2-group nerve, and the
    class count against pi0 of the mapping object."""
    lines = []
    ok = True
    for xname, x in ex.reduced_test_spaces():
        for gname, g in ex.canned_two_groups():
            dets, homs, good = dt.determinants_vs_hom(x, g)
            ok &= good
            line = "  %-16s %-22s |det|=%-4d |hom|=%-4d bijection=%s" \
                % (xname, gname, len(dets), len(homs), good)
            if gname in ("disc-z2", "oneobj-z2"):
                classes, _ = dt.pi0_det(x, g, dets=dets)
                ng = nv.nerve_2group(g, 3)
                eh = dt.enriched_hom0(x, ng, 1)
                pieces = len(sp.pi0(eh))
                good2 = len(classes) == pieces
                ok &= good2
                line += " pi0: %d=%d %s" % (len(classes), pieces, good2)
            lines.append(line)
    return ok, lines


def check_segal():
    """Segal determinants against bisimplicial maps through the
    (p+q <= 3)-truncation, with the restriction bijectivity."""
    lines = []
    ok = True
    s1 = ex.build("s1")
    x = nv.p2_star(s1, 2)
    for gname, g in ex.canned_two_groups():
        ns = nv.segal_nerve(g, 2, 3)
        dets, maps, good = dt.segal_determinants_vs_hom(x, g, ns=ns)
        mu_ok = nv.mu3_determined(x, ns)
        ok &= good and mu_ok
        lines.append("  %-22s |det|=%-3d |hom_mu3|=%-3d bijection=%s "
                     "mu3-determined=%s" % (gname, len(dets), len(maps),
                                            good, mu_ok))
        classes, _ = dt.segal_pi0(x, g)
        h1 = dt.hom1_enriched(x, g, n_max=1, ns=ns)
        pieces = len(sp.pi0(h1))
        good2 = len(classes) == pieces
        ok &= good2
        lines.append("    pi0(det)=%d pi0(Hom1)=%d agree=%s"
                     % (len(classes), pieces, good2))
    return ok, lines


def check_simplex_counts():
    """Nondegenerate counts (1,3,2) and (1,6,8,3) of the two collapsed
    cylinders."""
    t11 = ex.build("t11")
    t12 = ex.build("t12")
    c1 = t11.nondegenerate_counts()[:3]
    c2 = t12.nondegenerate_counts()[:4]
    above1 = t11.nondegenerate_counts()[3:]
    above2 = t12.nondegenerate_counts()[4:]
    ok = (c1 == [1, 3, 2] and c2 == [1, 6, 8, 3]
          and all(v == 0 for v in above1) and all(v == 0 for v in above2))
    prod = sp.product(sp.standard_simplex(1, 3), sp.standard_simplex(1, 3))
    squel = all(v == 0 for v in prod.nondegenerate_counts()[3:])
    return ok and squel, [
        "  (d1xd1)/(sq0 d1 x d1) nondegenerate: %s (want [1, 3, 2])" % (c1,),
        "  (d1xd2)/(sq0 d1 x d2) nondegenerate: %s (want [1, 6, 8, 3])" % (c2,),
        "  d1 x d1 has no nondegenerate cells above dim 2: %s" % squel]


def check_negative_fixture():
    """The reduced enriched hom of the circle into the one-object Z/2
    nerve is not a 1-Kan groupoid, while the direction-1 enriched hom
    into the Segal nerve is."""
    s1 = ex.build("s1")
    g = ex.build("oneobj-z2")
    ng = nv.nerve_2group(g, 3)
    eh = dt.enriched_hom0(s1, ng, 3)
    neg = sp.classify(eh, 1).n_kan_groupoid
    x = nv.p2_star(s1, 2)
    ns = nv.segal_nerve(g, 2, 3)
    h1 = dt.hom1_enriched(x, g, n_max=2, ns=ns)
    pos = sp.classify(h1, 1).n_kan_groupoid
    ok = (neg is False) and (pos is True)
    return ok, [
        "  enriched hom into the plain nerve: 1-kan-groupoid=%s (want False)" % neg,
        "  direction-1 hom into the Segal nerve: 1-kan-groupoid=%s (want True)" % pos]


def check_fibrancy():
    """The four pre-monoid fibrancy conditions hold on every canned
    Segal nerve within the stored region."""
    lines = []
    ok = True
    for gname, g in ex.canned_two_groups():
        ns = nv.segal_nerve(g, 2, 3)
        rep = nv.segal_fibrancy_check(ns)
        ok &= rep.ok
        bad = [l for l, o, _ in rep.items if not o]
        lines.append("  %-22s fibrant=%s%s"
                     % (gname, rep.ok, "" if not bad else " failing: %s" % bad))
    return ok, lines


def check_coskeleton():
    """Coskeletal extension of the truncated nerve recovers the directly
    built level, and the weak-coskeletal quotient of an already weakly
    coskeletal complex is an isomorphism."""
    g2 = ca.one_object_groupoid(gr.cyclic(2))
    full = nv.nerve_category(g2, 3)
    tau2 = sp.truncate(full, 2)
    ext = sp.coskeletal_extend(tau2, 3)
    count_ok = len(ext.level(3)) == 8 == len(full.level(3))
    iso_ok = sp.find_isomorphism(ext, full) is not None
    y, maps = sp.csq_prime(full, 1)
    prime_ok = all(
        len(set(maps[k].values())) == len(maps[k]) and
        set(maps[k].values()) == set(y.level(k))
        for k in maps) and sp.find_isomorphism(full, y) is not None
    ok = count_ok and iso_ok and prime_ok
    return ok, [
        "  extension of the 2-truncated nerve has level 3 of size %d (want 8): %s"
        % (len(ext.level(3)), count_ok),
        "  extension isomorphic to the direct nerve: %s" % iso_ok,
        "  csq' on a weakly 1-coskeletal nerve is an isomorphism: %s" % prime_ok]


CRITERIA = [
    ("groupoid-nerve", check_groupoid_nerve),
    ("two-group-nerve", check_two_group_nerve),
    ("grho", check_grho),
    ("loop-gamma", check_loop_gamma),
    ("additive-representability", check_additive),
    ("determinant-representability", check_determinants),
    ("segal-representability", check_segal),
    ("simplex-counts", check_simplex_counts),
    ("negative-fixture", check_negative_fixture),
    ("fibrancy", check_fibrancy),
    ("coskeleton", check_coskeleton),
]


def run(names=None):
    """Run the named criteria (all when names is None); returns
    (all_ok, report_lines)."""
    table = dict(CRITERIA)
    if names is None:
        todo = [name for name, _ in CRITERIA]
    else:
        todo = list(names)
        for name in todo:
            if name not in table:
                raise KeyError("unknown criterion %r" % name)
    all_ok = True
    out = []
    for name in todo:
        ok, lines = table[name]()
        all_ok &= ok
        out.append("%s %s" % ("PASS" if ok else "FAIL", name))
        out.extend(lines)
    return all_ok, out
