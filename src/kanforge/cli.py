"""Command-line front end.

Exit codes: 0 = every requested check passed, 1 = a mathematical check
failed (the violation is printed), 2 = input or usage error.  Reports
are deterministic byte-for-byte for identical inputs; KANFORGE_BUDGET
overrides the enumeration cap, and a malformed value exits 2.
"""

import argparse
import functools
import sys

from . import simplicial as sp
from . import catalg as ca
from . import nerves as nv
from . import determinants as dt
from . import serialize as io
from . import examples as ex
from . import acceptance as ac
from .groups import FiniteGroup


class UsageError(Exception):
    pass


def _load(path, want=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj, kind = io.loads(fh.read())
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except io.ParseError as exc:
        raise UsageError("parse error in %s: %s" % (path, exc))
    if want is not None and kind not in want:
        raise UsageError("%s holds a %r document, expected one of %s"
                         % (path, kind, sorted(want)))
    return obj, kind


def _load_valid_sset(path):
    """A simplicial set document that satisfies the simplicial
    identities, which every verb that reads one takes as given."""
    x, _ = _load(path, want={"sset"})
    report = x.validate()
    if not report.ok:
        raise UsageError("%s: %s" % (path, report.violations[0]))
    return x


def _emit(obj, out_path):
    text = io.dumps(obj)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    obj, kind = _load(args.file)
    violations = obj.validate()
    if kind == "sset":
        violations = violations.violations
    if violations:
        for v in violations:
            print("violation: %s" % v)
        return 1
    print("valid %s" % kind)
    return 0


def cmd_classify(args):
    obj = _load_valid_sset(args.file)
    rep = sp.classify(obj, args.n)
    print(io.canonical_dumps({
        "n": args.n,
        "n_coskeletal": rep.n_coskeletal,
        "weakly_n_coskeletal": rep.weakly_n_coskeletal,
        "n_minimal": rep.n_minimal,
        "n_kan_groupoid": rep.n_kan_groupoid,
        "checked_dims": rep.checked_dims}), end="")
    return 0


def cmd_kan(args):
    obj = _load_valid_sset(args.file)
    try:
        row = sp.kan_status(obj, args.dim)
    except sp.DimensionOutOfRange as exc:
        raise UsageError(str(exc))
    code = 0
    for k in sorted(row.flags):
        surj, inj = row.flags[k]
        print("horn (%d,%d): surjective=%s injective=%s"
              % (args.dim + 1, k, surj, inj))
        if not surj:
            horn = row.witness.get((k, "surj"))
            print("  unfillable horn at k=%d: %s" % (k, list(horn)))
            code = 1
    return code


def cmd_cosq(args):
    obj = _load_valid_sset(args.file)
    if args.prime is not None:
        try:
            out, _maps = sp.csq_prime(obj, args.prime)
        except sp.SimplicialError as exc:
            raise UsageError(str(exc))
    else:
        if args.to_dim is None:
            raise UsageError("cosq needs --to-dim or --prime")
        try:
            out = sp.coskeletal_extend(obj, args.to_dim)
        except sp.NotCoskeletal as exc:
            raise UsageError(str(exc))
    _emit(out, args.output)
    return 0


def cmd_nerve(args):
    obj, kind = _load(args.file, want={"category", "groupoid", "two_group"})
    if kind in ("category", "groupoid"):
        out = nv.nerve_category(obj, args.to_dim)
    else:
        out = nv.nerve_2group(obj, args.to_dim)
    _emit(out, args.output)
    return 0


def cmd_segal_nerve(args):
    obj, _ = _load(args.file, want={"two_group"})
    ns = nv.segal_nerve(obj, args.pmax, args.qmax)
    # serialize the largest full rectangle inside the materialized region
    best = (0, 0)
    for p in range(args.pmax + 1):
        for q in range(args.qmax + 1):
            if nv.rectangle(p, q) <= ns.region and p * q >= best[0] * best[1]:
                best = (p, q)
    rect = nv.restrict_region(ns, nv.rectangle(*best))
    _emit(rect, args.output)
    return 0


def cmd_pi(args):
    obj = _load_valid_sset(args.file)
    if args.m == 0:
        classes = sp.pi0(obj)
        print(io.canonical_dumps({"m": 0, "components": classes}), end="")
        return 0
    try:
        grp = sp.pi(obj, args.m, base=args.base)
    except sp.NotKan as exc:
        print("not computable: %s" % exc)
        return 1
    except sp.SimplicialError as exc:
        raise UsageError(str(exc))
    print(io.canonical_dumps({
        "m": args.m, "order": len(grp), "unit": grp.unit,
        "abelian": grp.is_abelian(),
        "table": [[a, b, grp.mul(a, b)]
                  for a in grp.elements for b in grp.elements]}), end="")
    return 0


def cmd_loop(args):
    obj = _load_valid_sset(args.file)
    try:
        out = sp.loop_space(obj, variant=args.variant, base=args.base)
    except sp.SimplicialError as exc:
        raise UsageError(str(exc))
    _emit(out, args.output)
    return 0


def cmd_det(args):
    x = _load_valid_sset(args.space)
    g, _ = _load(args.group, want={"two_group"})
    try:
        dets, homs, ok = dt.determinants_vs_hom(x, g)
    except sp.SearchBudgetExceeded as exc:
        print("budget exceeded: %s" % exc)
        return 2
    except (dt.DeterminantError, sp.DimensionOutOfRange) as exc:
        # a space that is not reduced, or too shallow for the search
        raise UsageError(str(exc))
    # every determinant is defined on every edge and triangle, so its
    # values over the sorted cells order it as its sorted items would
    edges, tris = sorted(x.level(1)), sorted(x.level(2))
    items = [{"D": d, "T": t} for d, t in sorted(dets, key=lambda p: (
        list(map(p[0].__getitem__, edges)), list(map(p[1].__getitem__, tris))))]
    print(io.canonical_dumps({"count": len(dets), "items": items,
                              "oracle_count": len(homs),
                              "bijection_verified": ok}), end="")
    return 0 if ok else 1


def cmd_add(args):
    x = _load_valid_sset(args.space)
    h, _ = _load(args.group, want={"group"})
    try:
        adds, homs, ok = dt.additive_vs_hom(x, h)
    except sp.SearchBudgetExceeded as exc:
        print("budget exceeded: %s" % exc)
        return 2
    except (dt.DeterminantError, sp.DimensionOutOfRange) as exc:
        # a space that is not reduced, or too shallow for the search
        raise UsageError(str(exc))
    # every additive function is defined on every edge (see cmd_det)
    edges = sorted(x.level(1))
    items = sorted([str(d[e]) for e in edges] for d in adds)
    items = [dict(zip(edges, values)) for values in items]
    print(io.canonical_dumps({"count": len(adds), "items": items,
                              "oracle_count": len(homs),
                              "bijection_verified": ok}), end="")
    return 0 if ok else 1


def cmd_verify(args):
    if args.file is not None:
        if args.names != ["grho"]:
            raise UsageError("--file applies to 'verify grho' only, not to %s"
                             % (" ".join(args.names) or "every criterion"))
        g, _ = _load(args.file, want={"two_group"})
        errs, (p0, p1, p2, p1g) = dt.grho_check(g)
        print("pi0(G) order %d ~ pi1(N G) order %d" % (len(p0), len(p1)))
        print("pi1(G) order %d ~ pi2(N G) order %d" % (len(p1g), len(p2)))
        for a in p1.elements:
            for b in p1.elements:
                print("pi1(N): %s * %s = %s" % (a, b, p1.mul(a, b)))
        for a in p2.elements:
            for b in p2.elements:
                print("pi2(N): %s * %s = %s" % (a, b, p2.mul(a, b)))
        if errs:
            for e in errs:
                print("FAIL %s" % e)
            return 1
        print("PASS grho")
        return 0
    names = None if (not args.names or args.names == ["all"]) else args.names
    for name in names or ():
        if name not in dict(ac.CRITERIA):
            raise UsageError("unknown criterion %r" % name)
    try:
        ok, lines = ac.run(names)
    except sp.SearchBudgetExceeded as exc:
        print("budget exceeded: %s" % exc)
        return 2
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_examples(args):
    if args.action == "list":
        for name in ex.example_ids():
            print(name)
        return 0
    if args.action == "dump":
        if not args.id:
            raise UsageError("examples dump needs an id")
        if args.id not in ex.example_ids():
            raise UsageError("unknown example %r" % args.id)
        _emit(ex.build(args.id), args.output)
        return 0
    raise UsageError("unknown examples action %r" % args.action)


def cmd_roundtrip(args):
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        canon, stable = io.roundtrip_text(text)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (args.file, exc))
    except io.ParseError as exc:
        raise UsageError("parse error: %s" % exc)
    sys.stdout.write(canon)
    if not stable:
        print("round trip is not byte-stable")
        return 1
    return 0


def _dimension(text):
    """argparse type of a dimension: an int that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("dimension %d is negative" % value)
    return value


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it:
    it depends only on this module, and parsing does not change it."""
    p = argparse.ArgumentParser(
        prog="kanforge",
        description="verification toolkit for truncated simplicial sets, "
                    "2-groups, nerves and determinants")
    sub = p.add_subparsers(dest="verb", required=True)

    q = sub.add_parser("validate", help="check every axiom of a serialized object")
    q.add_argument("file")
    q.set_defaults(fn=cmd_validate)

    q = sub.add_parser("classify", help="coskeletal/minimal/Kan-groupoid flags")
    q.add_argument("--n", type=_dimension, required=True)
    q.add_argument("file")
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("kan", help="horn extension status in one dimension")
    q.add_argument("--dim", type=_dimension, required=True)
    q.add_argument("file")
    q.set_defaults(fn=cmd_kan)

    q = sub.add_parser("cosq", help="coskeletal extension or the weak-coskeletal quotient")
    q.add_argument("--to-dim", type=_dimension, default=None)
    q.add_argument("--prime", type=_dimension, default=None)
    q.add_argument("-o", "--output", default=None)
    q.add_argument("file")
    q.set_defaults(fn=cmd_cosq)

    q = sub.add_parser("nerve", help="nerve of a category, groupoid or 2-group")
    q.add_argument("--to-dim", type=_dimension, default=3)
    q.add_argument("-o", "--output", default=None)
    q.add_argument("file")
    q.set_defaults(fn=cmd_nerve)

    q = sub.add_parser("segal-nerve", help="Segal nerve of a 2-group")
    q.add_argument("--pmax", type=_dimension, default=2)
    q.add_argument("--qmax", type=_dimension, default=2)
    q.add_argument("-o", "--output", default=None)
    q.add_argument("file")
    q.set_defaults(fn=cmd_segal_nerve)

    q = sub.add_parser("pi", help="combinatorial homotopy group")
    q.add_argument("--m", type=_dimension, required=True)
    q.add_argument("--base", default=None)
    q.add_argument("file")
    q.set_defaults(fn=cmd_pi)

    q = sub.add_parser("loop", help="combinatorial loop space")
    q.add_argument("--variant", choices=("plain", "reduced"), default="plain")
    q.add_argument("--base", default=None)
    q.add_argument("-o", "--output", default=None)
    q.add_argument("file")
    q.set_defaults(fn=cmd_loop)

    q = sub.add_parser("det", help="determinants of a reduced complex in a 2-group")
    q.add_argument("space")
    q.add_argument("group")
    q.set_defaults(fn=cmd_det)

    q = sub.add_parser("add", help="additive functions of a reduced complex in a group")
    q.add_argument("space")
    q.add_argument("group")
    q.set_defaults(fn=cmd_add)

    q = sub.add_parser("verify", help="run the named acceptance checks (or all)")
    q.add_argument("names", nargs="*")
    q.add_argument("--file", default=None,
                   help="run grho on the 2-group in this file "
                        "(verify grho only)")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("examples", help="list or dump the canned corpus")
    q.add_argument("action", choices=("list", "dump"))
    q.add_argument("id", nargs="?")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(fn=cmd_examples)

    q = sub.add_parser("roundtrip", help="canonicalize and check byte stability")
    q.add_argument("file")
    q.set_defaults(fn=cmd_roundtrip)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        sp.enumeration_budget()
        return args.fn(args)
    except (UsageError, sp.MalformedBudget) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except sp.SearchBudgetExceeded as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
