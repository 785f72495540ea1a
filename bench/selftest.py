"""Self-test of the seeded cli-corpus inputs:

    python3 bench/selftest.py [SEED ...]      (default seeds: 1 2)

For each seed it checks that every relabelled document uses only
[A-Za-z0-9_] ids, that the same seed and copy give the same documents
and another seed or copy different ones, and that one pass of
cli-corpus (which runs `validate` and `roundtrip` on every document)
reproduces the values recorded with seed 0 in expected.json.  Exits 1 on
any failure.
"""

import os
import re
import shutil
import sys

import hostclock
import run
import workloads

ID = re.compile(r"^[A-Za-z0-9_]+$")


def ids(doc):
    """Every string value of a document except its kind."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key != "kind":
                yield from ids(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from ids(value)
    elif isinstance(doc, str):
        yield doc


def check_seed(kf, seed, expected):
    problems = []
    dumped = workloads.corpus_docs(kf)
    docs = workloads.relabelled_corpus(dumped, seed, 0)
    for name, doc in docs:
        bad = sorted({s for s in ids(doc) if not ID.match(s)})
        if bad:
            problems.append("%s: ids outside [A-Za-z0-9_]: %s" % (name, bad[:3]))
    if workloads.relabelled_corpus(dumped, seed, 0) != docs:
        problems.append("seed %d does not reproduce its documents" % seed)
    for other in ((seed + 1, 0), (seed, 1)):
        if workloads.relabelled_corpus(dumped, *other) == docs:
            problems.append("seed %d copy 0 and seed %d copy %d give the "
                            "same documents" % ((seed,) + other))
    workdir = os.path.join(run.ROOT, ".bench_work", "selftest-%d" % os.getpid())
    try:
        ops = workloads.setup(kf, "cli-corpus", seed, workdir)
        failed = run.run_passes(ops, expected, 0, lambda op: op.call(kf),
                                hostclock.HostClock()).failures[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        problems.append("%d of %d operations differ from expected.json"
                        % (failed, len(ops)))
    return problems


def main(argv):
    seeds = [int(s) for s in argv] or [1, 2]
    sys.path.insert(0, run.SRC)
    kf = run.Kanforge()
    expected = run.load_expected()
    status = 0
    for seed in seeds:
        problems = check_seed(kf, seed, expected)
        for p in problems:
            print("seed %d: %s" % (seed, p))
        print("seed %d: %s" % (seed, "FAIL" if problems else "ok"))
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
