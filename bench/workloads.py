"""The three benchmark workloads: their operation lists, the seeded
inputs they read, and the fields of each result that are checked.

Every operation goes through a public entry point of kanforge:
`acceptance.run([name])` for the verify workloads and `cli.main(argv)`
for cli-corpus.  Expected values live in expected.json, keyed by the
operation's `key`, which does not depend on the seed.
"""

import contextlib
import io
import json
import os
import random

# The verify-core criteria work on medium-sized levels of nerve_2group(g, 4)
# and query the same objects repeatedly; segal_nerve never runs here.
VERIFY_CORE = ["groupoid-nerve", "two-group-nerve", "grho", "loop-gamma",
               "additive-representability", "determinant-representability",
               "simplex-counts", "coskeleton"]
# segal_nerve, enumerate_bimaps and the fibrancy report dominate here,
# with Kan rows on 32,768-cell rows; the five Segal nerves are rebuilt.
VERIFY_SEGAL = ["segal-representability", "negative-fixture", "fibrancy"]

# The canned corpus as it stands; fixed here so that a new example does
# not silently change the cli-corpus operation list.
CORPUS = ["boundary-delta2", "constant-3", "delta1", "delta2",
          "delta2-reduced", "disc-z2", "disc-z2-x-oneobj-z2", "disc-z3",
          "disc-z4", "groupoid-z2", "groupoid-z3", "horn-2-1",
          "indiscrete-2", "indiscrete-3", "inflated-disc-z2",
          "nerve-indiscrete2", "nerve-indiscrete3", "nerve-z2", "nerve-z3",
          "oneobj-z2", "oneobj-z3", "poset-interval", "s1", "s3", "t11",
          "t12", "z2", "z3", "z4"]
# inflated-disc-z2 is left out of the nerve --to-dim 4 files (its level 4
# has 16,384 cells and takes 23 s to build) and of `verify grho --file`
# (87 s).
SMALL_TWO_GROUPS = ["disc-z2", "disc-z3", "disc-z4", "oneobj-z2",
                    "oneobj-z3", "disc-z2-x-oneobj-z2"]
TWO_GROUPS = SMALL_TWO_GROUPS + ["inflated-disc-z2"]
CATEGORIES = ["poset-interval", "groupoid-z2", "groupoid-z3", "indiscrete-2",
              "indiscrete-3"]
SPACES = ["s1", "delta2-reduced", "t11", "t12"]
GROUPS = ["z2", "z3", "z4", "s3"]
# 18 s in boundary_tuples, longer than a whole pass of everything else.
SLOW_DET = ("t12", "inflated-disc-z2")
# Each pass runs the cli-corpus calls on three copies of the corpus, each
# relabelled and permuted differently: a search's cost depends on the order
# of its candidates (det t12 disc-z3 took 56 to 169 ms), and one ordering
# per seed moved op_p90_ms by a fifth from seed to seed.
COPIES = 3

WORKLOADS = ("verify-core", "verify-segal", "cli-corpus")


class Op:
    """One operation: a criterion name or a CLI argv.

    `key` names it in expected.json; `label` names its span; `output` is
    the file a `nerve -o` call writes."""

    def __init__(self, key, criterion=None, argv=None, output=None):
        self.key = key
        self.criterion = criterion
        self.argv = argv
        self.output = output
        self.label = ("acceptance.%s" % criterion if criterion
                      else "cli.%s" % argv[0])

    def call(self, kf):
        """Run the operation; returns its raw result, unchecked."""
        if self.criterion:
            return kf.acceptance.run([self.criterion])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = kf.cli.main(self.argv)
        return code, buf.getvalue()

    def observe(self, raw):
        """The checked fields of a raw result.  Whole report lines are
        not compared, so that rewording a report is not a failure."""
        if self.criterion:
            ok, _lines = raw
            return {"ok": ok}
        code, text = raw
        verb = self.argv[0]
        seen = {"exit": code}
        if code != 0:
            return seen
        if verb == "classify":
            doc = json.loads(text)
            for flag in ("n_coskeletal", "weakly_n_coskeletal", "n_minimal",
                         "n_kan_groupoid"):
                seen[flag] = doc[flag]
        elif verb == "pi":
            seen["order"] = json.loads(text)["order"]
        elif verb in ("add", "det"):
            doc = json.loads(text)
            for field in ("count", "oracle_count", "bijection_verified"):
                seen[field] = doc[field]
        elif verb == "nerve":
            with open(self.output, encoding="utf-8") as fh:
                seen["level_sizes"] = [len(l) for l in json.load(fh)["levels"]]
        return seen


def verify_ops(names, seed):
    """The seed only permutes the criterion order."""
    names = list(names)
    random.Random(seed).shuffle(names)
    return [Op("criterion %s" % n, criterion=n) for n in names]


def cli_ops(workdir):
    def path(name):
        return os.path.join(workdir, name + ".json")

    ops = []
    files = CORPUS + ["nerve4-%s" % g for g in SMALL_TWO_GROUPS]
    for name in files:
        ops.append(Op("validate %s" % name, argv=["validate", path(name)]))
        ops.append(Op("roundtrip %s" % name, argv=["roundtrip", path(name)]))
    for g in SMALL_TWO_GROUPS:
        out = path("out-nerve4-%s" % g)
        ops.append(Op("nerve4 %s" % g, output=out,
                      argv=["nerve", "--to-dim", "4", "-o", out, path(g)]))
    for c in CATEGORIES + ["inflated-disc-z2"]:
        out = path("out-nerve-%s" % c)
        ops.append(Op("nerve %s" % c, output=out,
                      argv=["nerve", "-o", out, path(c)]))
    for g in SMALL_TWO_GROUPS:
        f = path("nerve4-%s" % g)
        ops.append(Op("classify2 %s" % g, argv=["classify", "--n", "2", f]))
        ops.append(Op("kan2 %s" % g, argv=["kan", "--dim", "2", f]))
        ops.append(Op("pi1 %s" % g, argv=["pi", "--m", "1", f]))
        ops.append(Op("pi2 %s" % g, argv=["pi", "--m", "2", f]))
        ops.append(Op("grho %s" % g,
                      argv=["verify", "grho", "--file", path(g)]))
    for s in SPACES:
        for h in GROUPS:
            ops.append(Op("add %s %s" % (s, h), argv=["add", path(s), path(h)]))
        for g in TWO_GROUPS:
            if (s, g) != SLOW_DET:
                ops.append(Op("det %s %s" % (s, g),
                              argv=["det", path(s), path(g)]))
    return ops


def setup(kf, workload, seed, workdir):
    """Build the workload's inputs (for cli-corpus, write the relabelled
    copies of the corpus into workdir) and return its operation list."""
    if workload == "verify-core":
        return verify_ops(VERIFY_CORE, seed)
    if workload == "verify-segal":
        return verify_ops(VERIFY_SEGAL, seed)
    if workload != "cli-corpus":
        raise ValueError("unknown workload %r" % workload)
    docs = corpus_docs(kf)
    ops = []
    for copy in range(COPIES):
        copydir = os.path.join(workdir, "copy%d" % copy)
        os.makedirs(copydir, exist_ok=True)
        for name, doc in relabelled_corpus(docs, seed, copy):
            with open(os.path.join(copydir, name + ".json"), "w",
                      encoding="utf-8") as fh:
                fh.write(canonical(doc))
        ops += cli_ops(copydir)
    random.Random(seed).shuffle(ops)
    return ops


def corpus_docs(kf):
    """(file name, document) for every cli-corpus input, as dumped."""
    built = {name: kf.examples.build(name) for name in CORPUS}
    objs = [(name, built[name]) for name in CORPUS]
    objs += [("nerve4-%s" % g, kf.nerves.nerve_2group(built[g], 4))
             for g in SMALL_TWO_GROUPS]
    return [(name, json.loads(kf.serialize.dumps(obj))) for name, obj in objs]


def relabelled_corpus(docs, seed, copy):
    rng = random.Random("%d/%d" % (seed, copy))
    return [(name, relabel(doc, rng)) for name, doc in docs]


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False) + "\n"


# -- seeded relabelling --------------------------------------------------------


class _Names:
    """A seeded injective renaming to [A-Za-z0-9_] names.  The program's
    own ids contain ';', '|', '(' and ',', which it splits on, so the
    relabelled ids must not."""

    def __init__(self, rng):
        self.rng = rng
        self.names = {}
        self.used = set()

    def __call__(self, old):
        new = self.names.get(old)
        if new is None:
            new = "x%05x" % self.rng.getrandbits(20)
            while new in self.used:
                new = "x%05x" % self.rng.getrandbits(20)
            self.used.add(new)
            self.names[old] = new
        return new


def relabel(doc, rng):
    """Rename every id of a format-1 document and permute the order of
    each simplicial level together with its aligned operator arrays."""
    r = _Names(rng)
    kind = doc["kind"]
    if kind == "sset":
        return _relabel_sset(doc, r, rng)
    if kind == "group":
        return dict(doc, elements=[r(e) for e in doc["elements"]],
                    table=[[r(v) for v in row] for row in doc["table"]],
                    unit=r(doc["unit"]))
    if kind in ("category", "groupoid"):
        return _relabel_category(doc, r)
    if kind == "two_group":
        t = doc["tensor"]
        return dict(
            doc, base=_relabel_category(doc["base"], r),
            unit_object=r(doc["unit_object"]),
            tensor={"objects": [[r(v) for v in row] for row in t["objects"]],
                    "morphisms": [[r(v) for v in row]
                                  for row in t["morphisms"]]},
            assoc=[[r(v) for v in row] for row in doc["assoc"]],
            lunit={r(k): r(v) for k, v in doc["lunit"].items()},
            runit={r(k): r(v) for k, v in doc["runit"].items()})
    raise ValueError("no relabelling for kind %r" % kind)


def _relabel_sset(doc, r, rng):
    levels = doc["levels"]
    perms = [rng.sample(range(len(l)), len(l)) for l in levels]

    def ops(table):
        out = {}
        for key, arr in table.items():
            perm = perms[int(key.split(".")[0])]
            out[key] = [r(arr[i]) for i in perm]
        return out

    out = dict(doc, levels=[[r(l[i]) for i in perm]
                            for l, perm in zip(levels, perms)],
               face=ops(doc["face"]), degen=ops(doc["degen"]))
    if "base" in doc:
        out["base"] = r(doc["base"])
    return out


def _relabel_category(doc, r):
    out = dict(doc,
               objects=[r(x) for x in doc["objects"]],
               morphisms=[{"id": r(m["id"]), "src": r(m["src"]),
                           "tgt": r(m["tgt"])} for m in doc["morphisms"]],
               identity={r(k): r(v) for k, v in doc["identity"].items()},
               comp=[[r(v) for v in row] for row in doc["comp"]])
    if "inv" in doc:
        out["inv"] = {r(k): r(v) for k, v in doc["inv"].items()}
    return out
