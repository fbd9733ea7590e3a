"""Arithmetic of the benchmark: op records, percentiles, self times, seeds,
and the probe that scales times to a reference host speed.

Nothing here imports poslim, so the arithmetic can be tested on its own
(`python3 -m pytest perfbench -q`).
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

TAIL_BEYOND = 10
REFERENCE_PROBE_S = 0.005  # the probe's time at the reference speed

_rnd = random.Random(0)
_PROBE_FRACTIONS = [
    Fraction(_rnd.randrange(1, 10**6), _rnd.randrange(1, 10**6)) for _ in range(300)
]
_PROBE_MASKS = [_rnd.getrandbits(4000) for _ in range(400)]


def _probe_task() -> int:
    x = 0
    for i in range(30_000):
        x += i * i
    s = Fraction(0)
    for f in _PROBE_FRACTIONS:
        s += f * f
    acc = 0
    for m in _PROBE_MASKS:
        acc |= m
        x += (m & acc).bit_count()
    return x


def probe() -> float:
    """Median time of three runs of a fixed pure-Python task: a small-integer
    loop, Fraction arithmetic and bitmask operations on 4000-bit integers,
    the kinds of work poslim's ops are made of.

    It touches nothing of poslim, so its time tracks only the host's speed,
    which on a shared host switches between phases of seconds; the median of
    a few back-to-back runs leaves out a single interruption.  Collection is
    off while it runs, so the program's heap does not enter its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_task()
        times.append(time.perf_counter() - t0)
    if enabled:
        gc.enable()
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two probes to the reference
    speed: REFERENCE_PROBE_S over the mean of the probe times around it."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


def op_seed(workload: str, seed: int, k: int) -> int:
    """Seed of op k, derived by the benchmark and kept below 2**63.

    The library's own seed derivation (`SeededRng.spawn`) is not used, so a
    change to it moves only the workloads that call it themselves.
    """
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def tail_index(count: int, beyond: int = TAIL_BEYOND) -> int:
    """Index, in ascending order, of the highest sample with `beyond` above it.

    With fewer than beyond + 1 samples no such sample exists; the smallest
    one, which has the most samples above it, stands in.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    return max(0, count - beyond - 1)


@dataclass(frozen=True)
class Percentile:
    value: float
    rank: float  # percentile of `value`, 0..100
    count: int  # samples the percentile is taken over
    beyond: int  # samples strictly above it in rank

    def describe(self) -> str:
        return f"p{self.rank:.1f} over {self.count} samples, {self.beyond} beyond"


def tail(latencies: Sequence[float], beyond: int = TAIL_BEYOND) -> Percentile:
    xs = sorted(latencies)
    k = tail_index(len(xs), beyond)
    rank = 100.0 * k / (len(xs) - 1) if len(xs) > 1 else 0.0
    return Percentile(xs[k], rank, len(xs), len(xs) - 1 - k)


def median(latencies: Sequence[float]) -> Percentile:
    xs = sorted(latencies)
    return Percentile(statistics.median(xs), 50.0, len(xs), len(xs) // 2)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> list[float]:
    """Each span's duration minus the durations of its child spans.

    `parents[i]` is the index of span i's parent, or -1 for a root.  Spans
    come from one thread's call stack, so they nest, and the self times of a
    root and all spans below it add up to the root's duration.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


@dataclass
class OpRecord:
    label: str
    elapsed: float  # wall-clock seconds
    failed: bool
    reason: str = ""
    scale: float = 1.0  # speed_scale of the probes around the op

    @property
    def scaled(self) -> float:
        """Elapsed time at the reference speed."""
        return self.elapsed * self.scale

    @property
    def latency(self) -> float:
        """Scaled time, or infinity for a failed op: it misses every limit."""
        return math.inf if self.failed else self.scaled


@dataclass
class Op:
    """One closed-loop op: `run` is timed, `check` is not.

    `check(payload)` returns the exact output bytes that go into the digest,
    or raises CheckFailed; any other exception from it also fails the op.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], bytes]


class CheckFailed(Exception):
    """An op's output did not pass its workload's check."""


def run_op(op: Op, digest) -> OpRecord:
    """Time op.run(), then check its output outside the timed region.

    The op fails when run raises or when its output fails the check.  The
    digest is updated with the label and the checked output bytes.
    """
    error = None
    t0 = time.perf_counter()
    try:
        payload = op.run()
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        error = f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if error is None:
        try:
            out = op.check(payload)
        except CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception as exc:  # noqa: BLE001 - e.g. output that does not parse
            error = f"check raised {type(exc).__name__}: {exc}"
        else:
            digest.update(op.label.encode() + b"\0" + out + b"\0")
    if error is not None:
        digest.update(op.label.encode() + b"\0failed\0")
        return OpRecord(op.label, t1 - t0, True, error)
    return OpRecord(op.label, t1 - t0, False)


@dataclass(frozen=True)
class Summary:
    attempted: int
    failed: int
    busy_s: float
    p50: Percentile
    tail: Percentile

    @property
    def ops_per_s(self) -> float:
        done = self.attempted - self.failed
        return done / self.busy_s if done else 0.0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted


def summarize(records: Sequence[OpRecord]) -> Summary:
    """Completed ops per second of op time, and the latency percentiles, all
    from scaled times.

    Failed ops count as attempted, spend op time and have infinite latency.
    """
    lat = [r.latency for r in records]
    return Summary(
        attempted=len(records),
        failed=sum(r.failed for r in records),
        busy_s=sum(r.scaled for r in records),
        p50=median(lat),
        tail=tail(lat),
    )
