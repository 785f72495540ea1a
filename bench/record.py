"""Record the checked result fields of every benchmark operation, as the
program at the current commit gives them, into expected.json:

    python3 bench/record.py

Inputs are made with seed 0; run.py checks every other seed against the
same values, since relabelling and reordering must not change them.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    kf = run.Kanforge()
    workdir = os.path.join(run.ROOT, ".bench_work", "record-%d" % os.getpid())
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.setup(kf, workload, 0, workdir):
                seen = op.observe(op.call(kf))
                if expected.setdefault(op.key, seen) != seen:
                    sys.exit("error: corpus copies disagree on %s: %s, %s"
                             % (op.key, expected[op.key], seen))
                print(op.key, seen, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
