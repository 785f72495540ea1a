"""Per-layer tracing for the benchmark's traced run.

Spans are recorded at module-function boundaries by replacing the
module attributes themselves (`kanforge.simplicial.horn_tuples`, not the
re-exports in `kanforge/__init__.py`), so that calls between modules
and within a module both pass through the wrapper.  Each span is
(name, start, end, parent) and is kept in memory; a function's self time
is its span minus the spans of its recorded children.
"""

import functools
import gc
import time

from workloads import VERIFY_CORE, VERIFY_SEGAL

# (module, function, stats beyond .calls, .self_s and .total_s): .distinct
# counts different inputs, .out sums the sizes of the results.
FUNCTIONS = [
    ("simplicial", "horn_tuples", ("distinct", "out")),
    ("simplicial", "boundary_tuples", ("distinct", "out")),
    ("simplicial", "horn_alpha", ("distinct",)),
    ("simplicial", "kan_status", ("distinct",)),
    ("simplicial", "classify", ("distinct",)),
    ("simplicial", "coskeletal_extend", ("distinct",)),
    ("simplicial", "pi_with_classes", ("distinct",)),
    ("simplicial", "enumerate_maps", ("distinct", "out")),
    ("simplicial", "find_isomorphism", ()),
    ("nerves", "nerve_2group", ("distinct", "out")),
    ("nerves", "segal_nerve", ("distinct", "out")),
    ("nerves", "segal_fibrancy_check", ("distinct",)),
    ("nerves", "enumerate_bimaps", ("distinct", "out")),
    ("nerves", "mu3_determined", ("distinct",)),
    ("determinants", "enumerate_additive", ("distinct", "out")),
    ("determinants", "enumerate_determinants", ("distinct", "out")),
    ("determinants", "pi0_det", ("distinct",)),
    ("determinants", "grho_check", ("distinct",)),
    ("determinants", "enumerate_segal_determinants", ("distinct",)),
    ("determinants", "hom1_enriched", ("distinct",)),
    ("determinants", "enriched_hom0", ("distinct",)),
    ("catalg", "certify_two_group", ("distinct",)),
    ("serialize", "loads", ("distinct",)),
    ("serialize", "dumps", ()),
]
# The fibrancy items whose detail says "skipped" are checks that did not
# run (today: level (2,3) dropped by segal_nerve's level budget).
NOT_CHECKED = "nerves.segal_fibrancy_check.not_checked"
CLI_VERBS = ["validate", "roundtrip", "nerve", "classify", "kan", "pi",
             "verify", "add", "det"]

_SCALARS = (int, float, str, bool, type(None))


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = {}
    for mod, fn, extra in FUNCTIONS:
        name = "%s.%s" % (mod, fn)
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
        out[name + ".total_s"] = "s"
        for stat in extra:
            out["%s.%s" % (name, stat)] = "count"
    out[NOT_CHECKED] = "count"
    for crit in VERIFY_CORE + VERIFY_SEGAL:
        out["acceptance.%s.wall_s" % crit] = "s"
    for verb in CLI_VERBS:
        out["cli.%s.wall_s" % verb] = "s"
    for name in ("runtime.gc_s", "host.spin_s", "trace.wall_s",
                 "trace.overhead_s", "trace.self_s"):
        out[name] = "s"
    return out


def result_size(result):
    """Cells of a complex, or the length of a collection."""
    levels = getattr(result, "levels", None)
    if isinstance(levels, dict):
        return sum(len(v) for v in levels.values())
    if isinstance(levels, list):
        return sum(len(v) for v in levels)
    if isinstance(result, (list, tuple, dict, set)):
        return len(result)
    return 0


class Tracer:
    """Records spans, call keys and result sizes while installed."""

    def __init__(self, kf):
        self.kf = kf
        self.spans = []         # [name, start, end, parent index or -1]
        self.stack = []
        self.keys = []          # (span index, input key) per call
        self.keep = []          # every object keyed by identity, kept alive
        self.sizes = {}         # span index -> result size
        self.skipped = {}       # span index -> not-checked fibrancy items
        self.gc_s = 0.0
        self._gc_start = None
        self._restore = []
        self.passes = []        # layer metrics of each pass
        self._pass_start = (0, 0.0)

    # -- installation ----------------------------------------------------

    def install(self):
        for mod, fn, extra in FUNCTIONS:
            module = getattr(self.kf, mod)
            orig = getattr(module, fn)
            self._restore.append((module, fn, orig))
            setattr(module, fn, self._wrap("%s.%s" % (mod, fn), orig,
                                           "distinct" in extra))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for module, fn, orig in reversed(self._restore):
            setattr(module, fn, orig)
        self._restore = []

    def _on_gc(self, phase, _info):
        # collections between operations (no span open) are the
        # benchmark's own, not the program's
        if phase == "start" and self.stack:
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    def _wrap(self, name, fn, keyed):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            if keyed:
                tracer.keys.append((idx, tracer._key(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.sizes[idx] = result_size(result)
            if name == "nerves.segal_fibrancy_check":
                tracer.skipped[idx] = sum(
                    1 for _, _, detail in result.items if "skipped" in detail)
            return result

        return traced

    def _key(self, args, kwargs):
        """Scalars by value, everything else by identity; objects keyed by
        identity are kept alive so that no id is reused within the run."""
        parts = []
        for v in list(args) + [kwargs[k] for k in sorted(kwargs)]:
            if isinstance(v, _SCALARS):
                parts.append(v)
            else:
                self.keep.append(v)
                parts.append(("id", id(v)))
        return tuple(sorted(kwargs)), tuple(parts)

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, op):
        """Run one benchmark operation inside a span named by its label."""
        idx = self._open(op.label)
        try:
            return op.call(self.kf)
        finally:
            self._close(idx)

    # -- aggregation -------------------------------------------------------

    def end_pass(self):
        """Close a pass: aggregate the spans recorded since the last one."""
        first, gc0 = self._pass_start
        last = len(self.spans)
        self.passes.append(self.layer_metrics(first, last, self.gc_s - gc0))
        self._pass_start = (last, self.gc_s)

    def layer_metrics(self, first, last, gc_s):
        """Per-layer metrics of the spans with index in [first, last)."""
        child = {}
        for i in range(first, last):
            parent = self.spans[i][3]
            if parent >= first:
                child[parent] = child.get(parent, 0.0) + \
                    self.spans[i][2] - self.spans[i][1]
        units = metric_units()
        out = {name: 0 for name in units}
        distinct = {}
        for i, key in self.keys:
            if first <= i < last:
                distinct.setdefault(self.spans[i][0], set()).add(key)
        for i in range(first, last):
            name, start, end, parent = self.spans[i]
            dur = end - start
            if name.startswith(("acceptance.", "cli.")):
                out[name + ".wall_s"] += dur
                continue
            out[name + ".calls"] += 1
            out[name + ".self_s"] += dur - child.get(i, 0.0)
            out["trace.self_s"] += dur - child.get(i, 0.0)
            if not self._nested_in_same(i, name, first):
                out[name + ".total_s"] += dur
            if name + ".out" in out:
                out[name + ".out"] += self.sizes.get(i, 0)
            if i in self.skipped:
                out[NOT_CHECKED] += self.skipped[i]
        for name, keys in distinct.items():
            out[name + ".distinct"] = len(keys)
        out["runtime.gc_s"] = gc_s
        return out

    def _nested_in_same(self, i, name, first):
        parent = self.spans[i][3]
        while parent >= first:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
