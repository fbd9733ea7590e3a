"""The stream rule of `rng`: every seed modulo 2**64 keys its own stream."""

import warnings

import numpy as np
import pytest

from poslim import rng
from poslim.errors import InvalidArgument
from poslim.rng import PAIRS, POINTS, SeededRng

EDGE_SEEDS = [2**63 - 1, 2**63, 2**63 + 1, 2**63 + 2, 2**64 - 2, 2**64 - 1, -1, -2, -(2**63)]


def raw(seed, kind=POINTS, count=4, index=0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a key cast through float64 warns
        return SeededRng(seed).raw(kind, count, index).tolist()


def test_stream_rule_is_stated():
    assert rng.STREAM_RULE == 2 and "`STREAM_RULE`" in rng.__doc__


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_key_is_the_seed_modulo_2_64(seed):
    key = np.array([seed % 2**64, (PAIRS << 48) | 9], dtype=np.uint64)
    assert raw(seed, PAIRS, 3, 9) == np.random.Philox(key=key).random_raw(3).tolist()


def test_seeds_across_2_63_give_distinct_streams():
    streams = {tuple(raw(seed)) for seed in EDGE_SEEDS}
    assert len(streams) == len({seed % 2**64 for seed in EDGE_SEEDS}) == 6
    assert raw(2**63 + 1) != raw(2**63 + 2)
    assert raw(-1) == raw(2**64 - 1) and raw(-2) == raw(2**64 - 2)


def test_seeds_below_2_63_keep_their_streams():
    # values of stream rule 1, which keyed these seeds exactly too
    assert raw(7, POINTS, 3) == [16837541480647853296, 4133907819081966339, 2067856820781304966]
    assert raw(2**63 - 1, PAIRS, 2, 5) == [1647560881189800317, 13994289820892750906]
    assert SeededRng(7).spawn(0).seed == 16062774549778026414


def test_spawned_children_above_2_63_are_keyed_exactly():
    children = [SeededRng(7).spawn(t) for t in range(200)]
    high = [c for c in children if c.seed >= 2**63]
    assert len(high) > 50
    for c in high[:20]:
        key = np.array([c.seed, POINTS << 48], dtype=np.uint64)
        assert raw(c.seed, count=2) == np.random.Philox(key=key).random_raw(2).tolist()


@pytest.mark.parametrize("index", [-1, 2**48])
def test_stream_index_out_of_range(index):
    with pytest.raises(InvalidArgument, match="stream index"):
        SeededRng(1).raw(POINTS, 1, index)


@pytest.mark.parametrize("seed", [0, 1, 7, *EDGE_SEEDS[:3]])
@pytest.mark.parametrize("n", [*range(1, 10), 13, 37])
def test_upper_rows_match_raw(seed, n):
    """Row i starts at position i + 1, at every offset within a 4-wide block."""
    r = SeededRng(seed)
    rows = list(r.upper_rows(rng.EDGES, n))
    assert len(rows) == n
    for i, row in enumerate(rows):
        assert row.tolist() == r.uniforms(rng.EDGES, n, i)[i + 1 :].tolist()


@pytest.mark.parametrize("seed", [7, 2**63 + 1])
def test_integers_are_the_top_53_bits_and_uniforms_their_ratio(seed):
    ks = SeededRng(seed).integers(POINTS, 1000, index=3)
    assert ks.dtype == np.int64
    assert ks.tolist() == [r >> 11 for r in raw(seed, POINTS, 1000, 3)]
    us = SeededRng(seed).uniforms(POINTS, 1000, index=3)
    assert us.tolist() == [k / 2**53 for k in ks.tolist()] and rng.UNIT == 2**53


@pytest.mark.parametrize("kind", [POINTS, rng.EDGES, rng.MC_TUPLES])
@pytest.mark.parametrize("index", [0, 5])
def test_a_short_read_is_the_start_of_a_longer_one(kind, index):
    """A worker that reads fewer positions of a stream reads the same ones,
    at every count up to and across 4-output blocks."""
    r = SeededRng(7)
    longer = r.integers(kind, 41, index).tolist()
    for k in range(42):
        assert r.integers(kind, k, index).tolist() == longer[:k]
