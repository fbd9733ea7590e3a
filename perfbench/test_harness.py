"""Tests of the benchmark's own arithmetic: `python3 -m pytest perfbench -q`."""

import gc
import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    REFERENCE_PROBE_S,
    CheckFailed,
    Op,
    OpRecord,
    op_seed,
    probe,
    run_op,
    self_times,
    speed_scale,
    summarize,
    tail,
    tail_index,
)
from tracing import ROOT_SPAN, Tracer  # noqa: E402
from workloads import CliPipeline, check_fingerprint, realizes  # noqa: E402


# -- the percentile with ten samples beyond it ------------------------------------


@pytest.mark.parametrize(
    "count, index", [(1, 0), (5, 0), (10, 0), (11, 0), (12, 1), (20, 9), (100, 89)]
)
def test_tail_index_leaves_ten_beyond_when_it_can(count, index):
    assert tail_index(count) == index


def test_tail_value_rank_and_count():
    lat = [float(x) for x in range(1, 101)]  # 1..100, shuffled below
    lat = lat[37:] + lat[:37]
    p = tail(lat)
    assert p.value == 90.0
    assert p.beyond == 10 and p.count == 100
    assert p.rank == pytest.approx(100 * 89 / 99)


def test_tail_of_too_few_samples_is_the_smallest():
    p = tail([3.0, 1.0, 2.0])
    assert (p.value, p.beyond, p.rank) == (1.0, 2, 0.0)


def test_tail_of_no_samples_is_an_error():
    with pytest.raises(ValueError):
        tail([])


# -- times scaled to the reference speed -----------------------------------------------


def test_speed_scale_is_reference_over_the_mean_probe():
    ref = REFERENCE_PROBE_S
    assert speed_scale(2 * ref, 2 * ref) == 0.5  # host at half speed
    assert speed_scale(0.8 * ref, 1.2 * ref) == pytest.approx(1.0)
    assert speed_scale(ref / 2, ref / 2) == 2.0


def test_summary_uses_scaled_times():
    # both ops took 1 s at the reference speed, one on a host twice as slow
    records = [OpRecord("a", 1.0, False), OpRecord("b", 2.0, False, scale=0.5)]
    s = summarize(records)
    assert (s.p50.value, s.tail.value, s.ops_per_s) == (1.0, 1.0, 1.0)


def test_probe_is_a_positive_time_and_leaves_collection_as_it_was():
    assert probe() > 0
    gc.disable()
    try:
        probe()
        assert not gc.isenabled()
    finally:
        gc.enable()
    probe()
    assert gc.isenabled()


# -- self time of nested spans ------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_add_up_to_the_op_duration():
    tr = Tracer()
    clock = itertools.count()
    outer = tr.name_id("sampling.outer")
    inner = tr.name_id("pwl.inner")

    def fake_open(nid):
        i = len(tr.start)
        tr.name.append(nid)
        tr.parent.append(tr.stack[-1] if tr.stack else -1)
        tr.op.append(tr.op_id)
        tr.start.append(float(next(clock)))
        tr.end.append(0.0)
        tr.stack.append(i)
        return i

    def fake_close(i):
        tr.end[i] = float(next(clock))
        tr.stack.pop()

    tr.open, tr.close = fake_open, fake_close

    def op():
        i = tr.open(outer)
        for _ in range(2):
            tr.close(tr.open(inner))
        tr.close(i)

    tr.run_op(0, op)
    out, self_s = tr.metrics()
    assert sum(self_s) == 7.0  # the op's root span, bench.op [0, 7]
    # bench.op [0, 7] > outer [1, 6] > inner [2, 3], [4, 5]
    assert out["bench.self_s"] == 2.0
    assert out["sampling.self_s"] == 3.0
    assert out["pwl.self_s"] == 2.0
    assert out["sampling.outer.s"] == 5.0 and out[f"{ROOT_SPAN}.s"] == 7.0


# -- failed ops ----------------------------------------------------------------------


def _op(label, output, check):
    return Op(label, lambda: output, check)


def _fingerprint_check(payload):
    # sizes 1 and 2; here 2-0 has 1 labelling and 2-1 has 2
    check_fingerprint(payload, {"1-0": 1, "2-0": 1, "2-1": 2}, 2)
    return b"ok"


GOOD_FP = {"1-0": {"value": "1"}, "2-0": {"value": "1/2"}, "2-1": {"value": "1/4"}}


def test_corrupted_output_counts_as_a_failed_op():
    digest = hashlib.sha256()
    corrupted = dict(GOOD_FP, **{"2-1": {"value": "1/3"}})
    records = [
        run_op(_op("good", GOOD_FP, _fingerprint_check), digest),
        run_op(_op("corrupted", corrupted, _fingerprint_check), digest),
    ]
    assert [r.failed for r in records] == [False, True]
    s = summarize(records)
    assert (s.attempted, s.failed, s.failed_ratio) == (2, 1, 0.5)
    assert s.tail.value == records[0].elapsed  # the failed op's latency is infinite
    assert s.ops_per_s == 1 / (records[0].elapsed + records[1].elapsed)


def test_raising_op_and_bad_representation_fail():
    def boom():
        raise ValueError("boom")

    digest = hashlib.sha256()
    rec = run_op(Op("raises", boom, lambda p: b""), digest)
    assert rec.failed and "ValueError" in rec.reason

    # 0 < 1 < 2 as a chain; intervals [1/3,1/3], [2/3,2/3], [1,1] realize it
    chain = (0b110, 0b100, 0b000)
    rows = [["1", "1", "1/3", "1/3"], ["2", "2", "2/3", "2/3"], ["3", "3", "1", "1"]]
    assert realizes(chain, rows)
    rows[0][3] = "2/3"  # point 1 no longer below point 2

    def check(payload):
        if not realizes(chain, payload):
            raise CheckFailed("does not realize")
        return b""

    assert run_op(_op("represent", rows, check), digest).failed

    # output that does not even parse fails the op instead of ending the run
    truncated = json.dumps({"points": [["0/1", "0/1", "1/1"]]})[:-3]
    rec = run_op(_op("nu", truncated, CliPipeline._check_nu), digest)
    assert rec.failed and "JSONDecodeError" in rec.reason


def test_same_outputs_give_the_same_digest():
    def digest_of(outputs):
        d = hashlib.sha256()
        for i, out in enumerate(outputs):
            run_op(_op(f"op{i}", out, lambda p: p), d)
        return d.hexdigest()

    assert digest_of([b"a", b"b"]) == digest_of([b"a", b"b"])
    assert digest_of([b"a", b"b"]) != digest_of([b"a", b"c"])


def test_op_seeds_are_deterministic_and_below_2_63():
    seeds = [op_seed("w", 7, k) for k in range(1000)]
    assert seeds == [op_seed("w", 7, k) for k in range(1000)]
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2**63 for s in seeds)
    assert op_seed("w", 8, 0) != seeds[0]
