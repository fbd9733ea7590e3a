"""poslim benchmark: four closed-loop workloads, one client, one thread.

    python3 perfbench/run.py --workload degree-convergence --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 48

Run from the root of a source checkout; poslim is imported from `src/`.
`--seconds` sets the run's work: round(seconds / nominal unit time) work
units, each a fixed list of ops whose seeds derive from `--seed`, so both
sides of a comparison run the same ops, however fast the host is.

A short pure-Python probe that does not touch poslim runs between ops and
around each timed set-up.  Op and set-up times are scaled to the speed at
which the probe takes REFERENCE_PROBE_S, so that the host's speed phases
cancel out; the wall-clock figures are printed beside them.  With `--trace 0`
the last stdout line carries the end-to-end metrics of BENCHMARK.json; with
`--trace 1` it carries the per-layer metrics (span times are wall clock),
and spans are written under `.perfbench_out/`.  `--all` runs every workload
both ways in child processes and prints the metrics, failed ratio and tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS_PER_UNIT = 3  # timed set-ups before each work unit
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    REFERENCE_PROBE_S,
    probe,
    run_op,
    speed_scale,
    summarize,
)
from tracing import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _import_poslim():
    """A fresh import of poslim from this checkout's src/."""
    for name in [m for m in sys.modules if m == "poslim" or m.startswith("poslim.")]:
        del sys.modules[name]
    import poslim
    import poslim.cli  # noqa: F401 - not imported by the package itself

    if Path(poslim.__file__).resolve().parent != SRC / "poslim":
        raise ImportError(f"poslim imported from {poslim.__file__}, not {SRC}")
    return poslim


def git_commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(workload, tmp: Path, tracer: Tracer | None = None):
    """A fresh import of poslim and the workload's set-up; returns its time."""
    t0 = time.perf_counter()
    poslim = _import_poslim()
    if tracer is not None:
        install(tracer)
    state = workload.setup(poslim, tmp)
    return poslim, state, time.perf_counter() - t0


def timed_setups(workload, tmp: Path, kept: dict, reps: int) -> list[float]:
    """Time `reps` more set-ups, scaled by the probes around each, then put
    the kept poslim modules back, so that the ops, and the imports they make
    at call time, use those."""
    times = []
    before = probe()
    for _ in range(reps):
        t = setup(workload, tmp / "setup")[2]
        after = probe()
        times.append(t * speed_scale(before, after))
        before = after
    for name in [m for m in sys.modules if m == "poslim" or m.startswith("poslim.")]:
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return times


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_DIR))
    (tmp / "setup").mkdir()
    try:
        # The first set-up also imports numpy and compiles poslim; it is the
        # one the ops use and the one a traced run traces, and it is not timed.
        poslim, state, _ = setup(workload, tmp, tracer)
        kept = {m: mod for m, mod in sys.modules.items()
                if m == "poslim" or m.startswith("poslim.")}
        if tracer is not None:
            tracer.enabled = False  # from here on, only ops are traced
        units = max(1, round(seconds / workload.nominal_unit_s))
        digest = hashlib.sha256()
        records = []
        setup_times = []
        probes = []
        gc.collect()
        started = time.perf_counter()
        for unit in range(units):
            # Set-ups are timed between units, so that they meet the same
            # phases of the host's speed as the ops do.
            if tracer is None:
                setup_times += timed_setups(workload, tmp, kept, SETUP_REPS_PER_UNIT)
            probes.append(probe())
            for op in workload.ops(poslim, state, seed, unit):
                if tracer is not None:
                    op.run = partial(tracer.run_op, len(records), op.run)
                rec = run_op(op, digest)
                probes.append(probe())
                rec.scale = speed_scale(probes[-2], probes[-1])
                records.append(rec)
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(records)
    wall_clock = summarize([replace(r, scale=1.0) for r in records])
    values = {
        "ops_per_s": summary.ops_per_s,
        "op_p50_s": summary.p50.value,
        "op_tail_s": summary.tail.value,
        "setup_s": statistics.median(setup_times) if setup_times else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    correct = summary.failed == 0
    import numpy

    print(
        f"meta: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, poslim {poslim.__version__}, "
        f"commit {git_commit()}"
    )
    print(
        f"workload {name}: seed {seed}, {units} units of {workload.unit_ops} ops, "
        f"{summary.attempted} attempted, {summary.failed} failed, "
        f"failed_ratio {summary.failed_ratio:.6g}, wall {wall:.3f} s, "
        f"closed loop, 1 client, 1 thread"
    )
    print(f"op_p50_s: {summary.p50.describe()}")
    print(f"op_tail_s: {summary.tail.describe()}")
    print(
        f"host speed: probe median {statistics.median(probes):.6g} s, "
        f"range {min(probes):.6g}-{max(probes):.6g} s over {len(probes)} probes; "
        f"times scaled to a probe of {REFERENCE_PROBE_S} s"
    )
    print(
        f"wall clock, unscaled: ops_per_s {wall_clock.ops_per_s:.6g}, "
        f"op_p50_s {wall_clock.p50.value:.6g}, op_tail_s {wall_clock.tail.value:.6g}"
    )
    if setup_times:
        print(f"setup_s: median of {len(setup_times)} set-ups, "
              f"{SETUP_REPS_PER_UNIT} before each unit")
    print(f"digest {name} seed {seed}: {digest.hexdigest()} over {len(records)} ops")
    for rec in records:
        if rec.failed:
            print(f"FAILED {rec.label}: {rec.reason}")
    if tracer is not None:
        layer, self_s = tracer.metrics()
        layer["bench.traced_ops_per_s"] = summary.ops_per_s
        spans = OUT_DIR / f"spans-{name}-seed{seed}.csv.gz"
        tracer.write(spans, self_s)
        print(f"trace: {len(self_s)} spans written to {spans.relative_to(ROOT)}")
        values = layer
    return {
        "correct": correct,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "values": values,
    }


def emit(result: dict, trace: bool) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": result["values"][m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
        if not math.isfinite(m["value"]):  # only when ops failed
            m["value"] = None
    for name, value in sorted(result["values"].items()) if trace else ():
        if name not in metrics:
            print(f"  {name:44s} {value:>16.6g} (not in BENCHMARK.json)")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process."""
    rows = []
    for name in WORKLOADS:
        got = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                return 1
            got[trace] = (json.loads(lines[-1]), lines)
        rows.append((name, got))
    print(f"seed {seed}, --seconds {seconds}")
    for name, got in rows:
        res, lines = got[0]
        traced, tlines = got[1]
        print(f"\n{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} failed_ratio={res['failed'] / res['attempted']:.6g}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:14s} {m['value']:>14.6g} {m['unit']}")
        untraced_rate = res["metrics"]["ops_per_s"]["value"]
        traced_rate = traced["metrics"]["bench.traced_ops_per_s"]["value"]
        print(f"  tracing overhead: {untraced_rate:.6g} -> {traced_rate:.6g} ops/s "
              f"({100 * (untraced_rate / traced_rate - 1):+.1f}% time per op)")
        digests = [ln for ln in lines + tlines if ln.startswith("digest ")]
        same = len({d.split(": ")[1] for d in digests}) == 1
        print(f"  digest traced == untraced: {same}; {digests[0]}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="every workload, both modes")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=48)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "poslim" / "__init__.py").is_file():
        print(f"error: no poslim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload or --all is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
