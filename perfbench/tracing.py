"""Spans and counters around calls into poslim, recorded from outside it.

`install` replaces each traced function under every name a caller looks it
up by: module globals that hold the function (so `poslim.sampling.is_semiorder`
is wrapped as well as `poslim.recognition.is_semiorder`) and class attributes
(`SeededRng.raw`).  A span is (name, start, end, parent, op id); op id -1 is
set-up.  Spans stay in memory in flat arrays and are written out once, when
the benchmark ends.  The library itself is not changed.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from harness import self_times

ROOT_SPAN = "bench.op"
SETUP_OP = -1
COUNTERS = (
    "rng.uniforms",
    "rng.streams",
    "poset.bytes_read",
    "poset.bytes_written",
    "poset.relations",
    "pwl.evaluations",
    "sampling.points",
    "sampling.tuples",
    "recognition.pattern_scans",
    "densities.density.calls",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = SETUP_OP
        self.enabled = True
        self.counts: Counter = Counter()
        self.scanned: set = set()
        self._last_error = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once, at the innermost span it left."""
        if exc is not self._last_error:
            self._last_error = exc
            self.counts[f"{layer}.errors"] += 1

    def run_op(self, op_id: int, fn):
        """Run fn() inside the op's root span, traced even if tracing is off
        outside ops (so that checks between ops are not traced)."""
        self.op_id, self.enabled = op_id, True
        i = self.open(self.name_id(ROOT_SPAN))
        try:
            return fn()
        finally:
            self.close(i)
            self.op_id, self.enabled = SETUP_OP, False

    # -- results --------------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], list[float]]:
        """Per-layer self time and errors, per-function time, and counters.

        `<function>.s` is the time of the outermost spans of that function,
        so a recursive call is not counted twice.
        """
        self_s = self_times(self.start, self.end, self.parent)
        out: dict[str, float] = {}
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        for layer in set(layer_of):
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = 0
        for n in names:
            out[f"{n}.s"] = 0.0
        for i, nid in enumerate(self.name):
            out[f"{layer_of[nid]}.self_s"] += self_s[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                out[f"{names[nid]}.s"] += self.end[i] - self.start[i]
        out.update({c: 0 for c in COUNTERS})
        out.update(self.counts)
        scans = self.counts["recognition.pattern_scans"]
        out["recognition.scans_per_poset"] = (
            scans / len(self.scanned) if self.scanned else 0.0
        )
        out["bench.spans"] = len(self.start)
        return out, self_s

    def write(self, path: Path, self_s: list[float]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span,op,name,parent,start,end,self\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.op[i]},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self_s[i]:.9f}\n"
                )


# -- what is traced -----------------------------------------------------------


def _count_raw(tr, args, kwargs, result):
    tr.counts["rng.streams"] += 1
    tr.counts["rng.uniforms"] += len(result)


def _count_read(tr, args, kwargs, result):
    tr.counts["poset.bytes_read"] += len(_arg(args, kwargs, 0, "text"))
    tr.counts["poset.relations"] += result.pair_count()


def _count_write(tr, args, kwargs, result):
    tr.counts["poset.bytes_written"] += len(result)
    tr.counts["poset.relations"] += _arg(args, kwargs, 0, "p").pair_count()


def _count_eval(tr, args, kwargs, result):
    tr.counts["pwl.evaluations"] += 1


def _count_points(tr, args, kwargs, result):
    tr.counts["sampling.points"] += _arg(args, kwargs, 1, "n")


def _count_tuples(tr, args, kwargs, result):
    n = _arg(args, kwargs, 0, "p").n
    max_q = _arg(args, kwargs, 1, "max_q")
    subsets = _arg(args, kwargs, 2, "subsets")
    tr.counts["sampling.tuples"] += subsets * len(range(2, min(max_q, n) + 1))


def _count_scan(tr, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    tr.counts["recognition.pattern_scans"] += 1
    tr.scanned.add((p.n, hash(p.succ)))


def _count_density(tr, args, kwargs, result):
    tr.counts["densities.density.calls"] += 1


# (module, attribute path, span name, counter hook run after the call).  Spans
# sit where control passes from one module to another, so each layer's self
# time is its own; calls inside one module need no span of their own.
TARGETS = [
    ("rng", "SeededRng.raw", "rng.SeededRng.raw", _count_raw),
    ("rng", "SeededRng.uniforms", "rng.SeededRng.uniforms", None),
    ("rng", "SeededRng.spawn", "rng.SeededRng.spawn", None),
    ("poset", "read_poset", "poset.read_poset", _count_read),
    ("poset", "write_poset", "poset.write_poset", _count_write),
    ("pwl", "value_at", "pwl.value_at", _count_eval),
    ("pwl", "left_limit_at", "pwl.left_limit_at", _count_eval),
    ("pwl", "sup_distance", "pwl.sup_distance", None),
    ("pwl", "normalize", "pwl.normalize", None),
    ("pwl", "check_monotone", "pwl.check_monotone", None),
    ("sampling", "sample_kernel_poset", "sampling.sample_kernel_poset", _count_points),
    ("sampling", "nu_empirical", "sampling.nu_empirical", None),
    ("sampling", "ks_for_target", "sampling.ks_for_target", None),
    ("sampling", "fingerprint", "sampling.fingerprint", None),
    ("sampling", "fingerprint_estimate", "sampling.fingerprint_estimate", _count_tuples),
    ("sampling", "equivalence_test_statistical", "sampling.equivalence_test_statistical", None),
    ("sampling", "random_graph_order", "sampling.random_graph_order", None),
    ("sampling", "converge_diagnostic", "sampling.converge_diagnostic", None),
    ("sampling", "p_for_c", "sampling.p_for_c", None),
    ("measures", "StepCDF.from_jumps", "measures.StepCDF.from_jumps", None),
    ("measures", "StepCDF.from_points", "measures.StepCDF.from_points", None),
    ("measures", "StepCDF.value", "measures.StepCDF.value", None),
    ("measures", "StepCDF.left_limit", "measures.StepCDF.left_limit", None),
    ("measures", "push_h", "measures.push_h", None),
    ("measures", "project_star", "measures.project_star", None),
    ("measures", "equivalent", "measures.equivalent", None),
    ("measures", "read_measure", "measures.read_measure", None),
    ("measures", "write_measure", "measures.write_measure", None),
    ("recognition", "find_two_plus_two", "recognition.find_two_plus_two", _count_scan),
    ("recognition", "find_three_plus_one", "recognition.find_three_plus_one", _count_scan),
    ("recognition", "is_interval_order", "recognition.is_interval_order", None),
    ("recognition", "is_semiorder", "recognition.is_semiorder", None),
    ("recognition", "interval_representation", "recognition.interval_representation", None),
    ("recognition", "write_representation", "recognition.write_representation", None),
    ("densities", "density", "densities.density", _count_density),
    ("densities", "count_maps", "densities.count_maps", None),
    ("semiorders", "gc", "semiorders.gc", None),
    ("semiorders", "f_minus", "semiorders.f_minus", None),
    ("semiorders", "f_plus", "semiorders.f_plus", None),
    ("semiorders", "MonotoneRC.from_points", "semiorders.MonotoneRC.from_points", None),
    ("semiorders", "MonotoneRC.value", "semiorders.MonotoneRC.value", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_sample", "cli.sample", None),
    ("cli", "_cmd_recognize", "cli.recognize", None),
    ("cli", "_cmd_represent", "cli.represent", None),
    ("cli", "_cmd_nu", "cli.nu", None),
    ("cli", "_cmd_converge", "cli.converge", None),
    ("cli", "_cmd_fingerprint", "cli.fingerprint", None),
]


def _wrap(tr: Tracer, fn, span: str, after):
    nid = tr.name_id(span)
    layer = span.split(".", 1)[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.enabled:
            return fn(*args, **kwargs)
        i = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tr.close(i)
            tr.error(layer, exc)
            raise
        tr.close(i)
        if after is not None:
            after(tr, args, kwargs, result)
        return result

    return traced


def install(tr: Tracer) -> None:
    """Wrap every target under each name it is reachable by."""
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "poslim" or name.startswith("poslim."))
    ]
    for mod_name, path, span, after in TARGETS:
        owner = sys.modules[f"poslim.{mod_name}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(tr, raw.__func__, span, after)))
            else:
                setattr(owner, attr, _wrap(tr, raw, span, after))
            continue
        original = getattr(owner, attr)
        wrapped = _wrap(tr, original, span, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
