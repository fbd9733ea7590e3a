"""Interval-native samples: exact endpoint ranks against the bitmask path."""

import bisect
import itertools
import math
import warnings
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from poslim import densities as de
from poslim import poset as ps
from poslim import pwl
from poslim import recognition as rec
from poslim import sampling as sa
from poslim import semiorders as so
from poslim.errors import InvalidArgument, InvariantError
from poslim.measures import AtomicMeasure, StepKernelMeasure
from poslim.rng import CONDITIONALS, MC_TUPLES, POINTS, UNIT, SeededRng

import reference as ref
from conftest import atomic_measures, monotone_gs, posets, rate_pieces, step_measures

STAIRCASE = so.MonotoneRC.from_points(
    [(0, F(2, 5), F(2, 5)), (F(2, 5), F(2, 5), F(4, 5)), (F(4, 5), F(4, 5), 1), (1, 1, 1)]
)
SHARED_ENDS = AtomicMeasure.from_atoms(
    [(0, F(1, 2), F(1, 2)), (F(1, 2), 1, F(1, 4)), (F(1, 2), F(1, 2), F(1, 4))]
)
ATOMS_ON_BREAKS = StepKernelMeasure.from_cells(
    [(0, F(1, 4), [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2))]), (F(1, 4), F(1, 2), [(F(1, 2), 1)]),
     (F(1, 2), 1, [(1, 1)])]
)
THIRD = F(1, 3)
NEAR_THIRD = THIRD + F(1, 2**80)  # the same float64 as 1/3


def models():
    return st.one_of(
        monotone_gs(),
        st.just(so.MonotoneRC.identity()),
        st.just(ATOMS_ON_BREAKS),
        rate_pieces().map(so.RateFunction.from_pieces),
        step_measures(),
        atomic_measures(),
    )


def assert_matches_masks(p):
    """Degrees, nu, ranks and the lazy masks of p against `interval_poset`."""
    q = ref.interval_poset(p.intervals)
    for sign, masks in (("minus", q.pred), ("plus", q.succ)):
        assert p.degrees(sign).tolist() == [m.bit_count() for m in masks]
        assert sa.nu_empirical(p, sign).points == sa.nu_empirical(q, sign).points
    rank_a, rank_b = (r.tolist() for r in p.ranks)
    assert sorted(rank_a + rank_b) == list(range(2 * p.n))
    for i, j in itertools.product(range(p.n), repeat=2):
        assert (rank_b[i] < rank_a[j]) == q.less(i, j)
    assert [c.tolist() for c in p.cover_pairs()] == [c.tolist() for c in q.cover_pairs()]
    assert ps.write_poset(p) == ps.write_poset(q)
    assert p.pair_count() == q.pair_count()
    assert "succ" not in vars(p) and "pred" not in vars(p)  # still unbuilt
    assert p.succ == q.succ and p.pred == q.pred
    assert p == q and q == p and hash(p) == hash(q)


@given(models(), st.integers(1, 40), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_sample_ranks_match_masks(model, n, seed):
    p = sa.sample_kernel_poset(model, n, SeededRng(seed))
    assert isinstance(p, ps.IntervalSample)
    assert_matches_masks(p)


TIED_MODELS = [
    so.MonotoneRC.identity(),  # a_i = b_i
    so.gc(0),  # the identity again: every interval a point
    so.gc(1),  # every b_i = 1, an antichain
    SHARED_ENDS,
    ATOMS_ON_BREAKS,
]


@given(st.sampled_from(TIED_MODELS), st.integers(1, 60), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_cover_pairs_from_ranks_with_tied_endpoints(model, n, seed):
    """The windows of ranks give the mask reduction, and the writer's bytes,
    where many endpoints tie."""
    p = sa.sample_kernel_poset(model, n, SeededRng(seed))
    assert_matches_masks(p)
    assert ps.read_poset(ps.write_poset(p)) == p


_ENDPOINTS = st.sampled_from(
    [F(0), F(1, 4), THIRD, NEAR_THIRD, F(1, 2), F(1, 2) - F(1, 2**70), F(1)]
)


@given(st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_ranks_with_ties_and_float_collisions(pairs):
    p = ps.IntervalSample([(min(x, y), max(x, y)) for x, y in pairs])
    assert_matches_masks(p)


def test_identity_sample_every_self_pair_ties():
    p = sa.sample_kernel_poset(so.MonotoneRC.identity(), 200, SeededRng(3))
    assert all(a == b for a, b in p.intervals)
    assert sorted(p.degrees("minus").tolist()) == list(range(200))
    assert_matches_masks(p)


def end_order(p):
    """The ends a + b of p in rank order, as indices into a + b."""
    rank = np.concatenate(p.ranks)
    return np.argsort(rank).tolist()


def test_endpoint_order_separates_colliding_floats():
    assert float(THIRD) == float(NEAR_THIRD)
    # index order and float order both put the larger value first
    a = [NEAR_THIRD, F(0), THIRD]
    b = [F(1, 2), THIRD, THIRD]
    p = ps.IntervalSample(list(zip(a, b)))
    order = end_order(p)
    values = a + b
    assert [values[k] for k in order] == sorted(values)
    # at equal values left endpoints come first: a_2 before b_1, b_2
    assert order == [1, 2, 4, 5, 0, 3]
    assert_matches_masks(p)
    assert p.less(1, 0) and p.less(2, 0) and not p.less(1, 2) and not p.less(2, 1)


def test_inexact_end_sorts_below_a_run_of_exact_ones():
    """Four endpoints share the float 0.5 and one of them, b_1, lies below
    it: b_1 ranks below the whole run, not only below its neighbours."""
    low = F(1, 2) - F(1, 2**70)
    p = ps.IntervalSample([(F(1, 2), F(1, 2)), (F(0), low), (F(1, 2), F(1))])
    assert [float(v) for v in (low, *p.intervals[0], p.intervals[2][0])] == [0.5] * 4
    assert end_order(p) == [1, 4, 0, 2, 3, 5]
    assert [r.tolist() for r in p.ranks] == [[2, 0, 3], [4, 1, 5]]
    assert_matches_masks(p)
    assert p.less(1, 0) and p.less(1, 2) and not p.less(0, 2)


TIE_HEAVY = [
    so.MonotoneRC.identity(),  # every interval [x, x]
    so.gc(F(3, 10)),  # a run of b = 1 above x = 7/10
    so.gc(1),  # every b = 1
    STAIRCASE,  # runs of b = 2/5 and b = 4/5, inexact
    ATOMS_ON_BREAKS,  # atoms on cell bounds
    SHARED_ENDS,  # repeated atoms sharing ends
    AtomicMeasure.from_atoms([(THIRD, THIRD, F(1, 2)), (F(0), NEAR_THIRD, F(1, 2))]),
]


@given(st.one_of(models(), st.sampled_from(TIE_HEAVY)), st.integers(1, 60), st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_integer_record_orders_like_its_fractions(model, n, seed):
    """A sample drawn as integers over one denominator has the ranks and
    intervals of the sample built from its `Fraction`s."""
    p = sa.sample_kernel_poset(model, n, SeededRng(seed))
    assert "intervals" not in vars(p)
    den, a, b = p.ends
    assert list(zip(*(map(F, e.tolist(), itertools.repeat(den)) for e in (a, b)))) == list(p.intervals)
    q = ps.IntervalSample(p.intervals)
    assert [r.tolist() for r in p.ranks] == [r.tolist() for r in q.ranks]
    assert q.intervals == p.intervals and q == p


def test_monte_carlo_settles_float_ties_exactly():
    """b_1 and a_2 share the float 0.5; b_1 < a_2 holds iff b_1 lies below."""
    samples, seed = 400, 5
    us = SeededRng(seed).uniforms(MC_TUPLES, 2 * samples).tolist()
    for y, linked in ((F(1, 2) - F(1, 2**70), True), (F(1, 2) + F(1, 2**70), False)):
        mu = AtomicMeasure.from_atoms([(0, y, F(1, 2)), (F(1, 2), 1, F(1, 2))])
        draws = [ref.draw(mu, u) for u in us]
        hits = sum(draws[2 * t][1] < draws[2 * t + 1][0] for t in range(samples))
        est, _ = de.kernel_density_mc(ps.chain(2), mu, samples, seed)
        assert float(y) == 0.5 and est == hits / samples and (hits > 0) == linked


def _grid_near(x):
    """The stream integers k = ceil(x UNIT) - 1, ceil(x UNIT) and ceil(x UNIT) + 1
    inside [0, UNIT]: the uniforms k/UNIT on each side of x."""
    k = math.ceil(x * UNIT)
    return [v for v in (k - 1, k, k + 1) if 0 <= v <= UNIT]


RATE = so.RateFunction.from_pieces([(0, F(1, 2), 8), (F(1, 2), F(3, 4), 0), (F(3, 4), 1, 8)])
RATE_G = so.g_from_rate(RATE)


def columns(*arrays):
    """A `draw_intervals` source of exactly these columns of stream integers."""

    def take(k):
        assert k == len(arrays)
        return [np.array(a, dtype=np.int64) for a in arrays]

    return take


def fractions(ends):
    """The intervals of a `draw_intervals` record (den, a, b), as `Fraction` pairs."""
    return list(ps.IntervalSample.from_ends(*ends).intervals)


def assert_integer_g(g):
    """Draws of g at 0, 1, UNIT - 1, UNIT, next to every breakpoint and at
    random: the reference's intervals, a and b of one dtype, int64 exactly
    when g's line table reads int64 at n = UNIT (reach UNIT below 2^63).
    There den is the table's den times UNIT: the lcm L of g's reduced line
    denominators, on a step g too.  Past it den is the lcm of the lines the
    draws hit, or L on a step g (every piece flat), times UNIT."""
    ks = [0, 1, UNIT - 1, UNIT] + [v for x, _, _ in g.points for v in _grid_near(x)]
    ks += SeededRng(17).integers(POINTS, 300).tolist() + SeededRng(21).integers(POINTS, 200).tolist()
    den, a, b = sa.draw_intervals(g, columns(ks))
    lines = ref.segment_lines(g.points)
    xs = [x for x, _, _ in g.points]
    hit = {bisect.bisect_right(xs, F(k, UNIT)) - 1 for k in ks}
    lcm = math.lcm(*(math.lcm(s.denominator, c.denominator) for s, c in lines))
    hit_lcm = math.lcm(*(math.lcm(s.denominator, c.denominator) for s, c in map(lines.__getitem__, hit)))
    int64 = g.lines.reach * UNIT < 1 << 63
    step = all(s == 0 for s, _ in lines)
    assert den == (lcm if int64 or step else hit_lcm) * UNIT
    assert a.dtype == b.dtype == (np.int64 if int64 else object)
    assert fractions((den, a, b)) == [ref.draw(g, F(k, UNIT)) for k in ks], g


def test_integer_g_evaluation_named():
    on_break = 0
    for g in (so.gc(F(3, 10)), so.gc(F(1, 4)), so.MonotoneRC.identity(), STAIRCASE, RATE_G):
        assert_integer_g(g)
        on_break += sum((x * UNIT).denominator == 1 for x, _, _ in g.points[1:-1])
    assert on_break >= 3  # gc(1/4) and the rate g have inner breakpoints on the grid


@given(monotone_gs())
@settings(max_examples=60, deadline=None)
def test_integer_g_evaluation_random(g):
    assert_integer_g(g)


def _cumulative(weights):
    return list(itertools.accumulate(weights))


@given(step_measures())
@settings(max_examples=40, deadline=None)
def test_step_measure_draws_match_fraction_bisection(mu):
    edges = [*mu.breaks]
    for cond in mu.conditionals:
        edges += _cumulative(p for _, p in cond)
    ks = [0, UNIT] + SeededRng(5).integers(POINTS, 20).tolist()
    ks += [v for x in edges for v in _grid_near(x)]
    pairs = list(itertools.product(ks, repeat=2))
    expected = [ref.draw(mu, F(k1, UNIT), F(k2, UNIT)) for k1, k2 in pairs]
    assert fractions(sa.draw_intervals(mu, columns(*zip(*pairs)))) == expected


@given(atomic_measures())
@settings(max_examples=60, deadline=None)
def test_atomic_draws_match_fraction_bisection(mu):
    ks = [0, UNIT] + SeededRng(6).integers(POINTS, 50).tolist()
    ks += [v for x in _cumulative(w for _, _, w in mu.atoms) for v in _grid_near(x)]
    expected = [ref.draw(mu, F(k, UNIT)) for k in ks]
    assert fractions(sa.draw_intervals(mu, columns(ks))) == expected


CHAINED_ATOMS = AtomicMeasure.from_atoms(  # shared ends, and chains of three
    [(0, F(1, 4), F(1, 4)), (0, F(1, 2), F(1, 8)), (F(1, 2), F(1, 2), F(1, 4)),
     (F(1, 2), 1, F(1, 8)), (F(3, 4), 1, F(1, 4))]
)
LAYOUT_MODELS = (so.gc(F(3, 10)), RATE, ATOMS_ON_BREAKS, CHAINED_ATOMS)


def _name(model):
    return type(model).__name__


@pytest.mark.parametrize("model", LAYOUT_MODELS, ids=_name)
def test_sampler_stream_layout(model):
    """Point i is drawn from position i of POINTS, and of CONDITIONALS for a
    step measure only, as the `rng` docstring says."""
    n = 300
    rng = SeededRng(11)
    u1 = rng.uniforms(POINTS, n).tolist()
    u2 = rng.uniforms(CONDITIONALS, n).tolist()
    p = sa.sample_kernel_poset(model, n, rng)
    assert list(p.intervals) == [ref.draw(model, a, b) for a, b in zip(u1, u2)]


@pytest.mark.parametrize("model", LAYOUT_MODELS, ids=_name)
@pytest.mark.parametrize(
    "q", [ps.chain(3), ps.two_plus_two(), ps.antichain(3)], ids=["chain3", "2+2", "antichain3"]
)
def test_monte_carlo_stream_layout(model, q):
    """Sample t reads positions t*|q|*k .. (t+1)*|q|*k - 1 of MC_TUPLES, k = 2
    for a step measure and 1 otherwise, and counts 1 iff its intervals
    realise every relation of q."""
    samples, seed = 400, 12
    k = 2 if isinstance(model, StepKernelMeasure) else 1
    us = SeededRng(seed).uniforms(MC_TUPLES, samples * q.n * k).tolist()
    pairs = [(i, j) for i in range(q.n) for j in range(q.n) if q.less(i, j)]
    hits = 0
    for t in range(samples):
        starts = [(t * q.n + i) * k for i in range(q.n)]
        iv = [ref.draw(model, *us[s : s + k]) for s in starts]
        hits += all(iv[i][1] < iv[j][0] for i, j in pairs)
    est = hits / samples
    half = 1.96 * math.sqrt(max(est - est * est, 0.0) / samples)
    assert de.kernel_density_mc(q, model, samples, seed) == (est, half)


def test_rank_pattern_code_on_every_drawn_tuple(monkeypatch):
    tuple_codes = sa._tuple_codes
    for model, seed in (
        (so.MonotoneRC.identity(), 1),
        (so.gc(F(3, 10)), 2),
        (STAIRCASE, 3),
        (SHARED_ENDS, 4),
    ):
        p = sa.sample_kernel_poset(model, 30, SeededRng(seed))
        succ = ref.interval_poset(p.intervals).succ
        drawn = []

        def checked(q, tuples):
            codes = tuple_codes(q, tuples)
            if q is p:  # not a catalog pattern's table being built
                assert codes.tolist() == [ref.pattern_code(succ, idx) for idx in tuples.T.tolist()]
                drawn.extend(tuples.T.tolist())
            return codes

        monkeypatch.setattr(sa, "_tuple_codes", checked)
        sa.fingerprint_estimate(p, 5, 400, SeededRng(seed))
        assert len(drawn) == 4 * 400 and all(len(set(idx)) == len(idx) for idx in drawn)
        assert "succ" not in vars(p)


@given(atomic_measures(), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_fingerprints_agree_with_mask_poset(mu, seed):
    p = sa.sample_kernel_poset(mu, 12, SeededRng(seed))
    q = ps.FinitePoset(p.n, p.succ, p.pred)
    assert sa.fingerprint(p, 4) == sa.fingerprint(q, 4)
    fresh = sa.sample_kernel_poset(mu, 12, SeededRng(seed))
    est = sa.fingerprint_estimate(fresh, 4, 300, SeededRng(seed + 1))
    assert "succ" not in vars(fresh)
    assert est == sa.fingerprint_estimate(q, 4, 300, SeededRng(seed + 1))


def test_degree_path_leaves_masks_unbuilt():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 500, SeededRng(9))
    sa.nu_empirical(p, "minus")
    sa.nu_empirical(p, "plus")
    assert "succ" not in vars(p) and "pred" not in vars(p)
    assert isinstance(p.degrees("plus"), np.ndarray)


def _diagnosed_semiorder(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sa.converge_diagnostic([p]).rows[0].semiorder


@given(models(), st.integers(1, 40), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_semiorder_flag_from_ranks_matches_masks(model, n, seed):
    p = sa.sample_kernel_poset(model, n, SeededRng(seed))
    q = ref.interval_poset(p.intervals)
    assert _diagnosed_semiorder(p) == rec.is_semiorder(q)
    assert "succ" not in vars(p) and "pred" not in vars(p)


# a long interval [x, 1] from the first cell next to a chain of short ones: 3+1
LONG_AND_SHORT = StepKernelMeasure.from_cells(
    [(0, F(1, 4), [(F(1, 4), F(1, 2)), (1, F(1, 2))]), (F(1, 4), F(1, 2), [(F(1, 2), 1)]),
     (F(1, 2), F(3, 4), [(F(3, 4), 1)]), (F(3, 4), 1, [(1, 1)])]
)


def test_semiorder_flag_from_ranks_all_four_models():
    models = (
        so.gc(F(3, 10)),
        so.RateFunction.from_pieces([(0, F(1, 2), 8), (F(1, 2), 1, 2)]),
        LONG_AND_SHORT,
        ATOMS_ON_BREAKS,
        SHARED_ENDS,
    )
    seen = set()
    for model, seed in itertools.product(models, range(6)):
        p = sa.sample_kernel_poset(model, 60, SeededRng(seed))
        q = ref.interval_poset(p.intervals)
        semi = rec.is_semiorder(q)
        downs, ups = p.degrees("minus").tolist(), p.degrees("plus").tolist()
        assert rec.semiorder_by_degrees(downs, ups) == semi
        assert _diagnosed_semiorder(p) == semi
        assert "succ" not in vars(p) and "pred" not in vars(p)
        seen.add((type(model).__name__, semi))
    assert ("StepKernelMeasure", False) in seen and ("StepKernelMeasure", True) in seen
    assert {("MonotoneRC", True), ("RateFunction", True), ("AtomicMeasure", True)} <= seen


def assert_precedes_is_less(p, oracle):
    idx = np.arange(p.n)
    table = p.precedes(idx[:, None], idx[None, :])
    assert table.dtype == bool and table.shape == (p.n, p.n)
    assert table.tolist() == [[oracle.less(i, j) for j in range(p.n)] for i in range(p.n)]
    assert bool(p.precedes(0, p.n - 1)) == oracle.less(0, p.n - 1)


@given(posets(max_n=12))
@settings(max_examples=60, deadline=None)
def test_precedes_of_mask_poset_is_less(p):
    assert_precedes_is_less(p, p)


@given(models(), st.integers(1, 30), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_precedes_of_interval_sample_is_less(model, n, seed):
    p = sa.sample_kernel_poset(model, n, SeededRng(seed))
    assert_precedes_is_less(p, ref.interval_poset(p.intervals))
    assert "succ" not in vars(p)


def test_bad_sign_raises_from_both_classes():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 20, SeededRng(1))
    for q in (p, ps.FinitePoset(p.n, p.succ, p.pred)):
        with pytest.raises(InvalidArgument, match="sign"):
            q.degrees("up")
        with pytest.raises(InvalidArgument, match="sign"):
            sa.nu_empirical(q, "up")


def test_sample_consumers_leave_masks_unbuilt():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 40, SeededRng(12))
    assert rec.is_interval_order(p) and rec.is_semiorder(p)
    sa.nu_empirical(p, "minus")
    sa.converge_diagnostic([p, p])
    exact = sa.fingerprint(p, 4)
    est = sa.fingerprint_estimate(p, 4, 200, SeededRng(13))
    assert "succ" not in vars(p) and "pred" not in vars(p)
    plain = ps.FinitePoset(p.n, p.succ, p.pred)
    assert exact == sa.fingerprint(plain, 4)
    assert est == sa.fingerprint_estimate(plain, 4, 200, SeededRng(13))


WIDE_G = so.MonotoneRC.from_points(  # breakpoints over 1021 and 1031: den >= 2^63
    [(0, F(1, 1021), F(1, 1021)), (F(300, 1021), F(500, 1031), F(600, 1031)),
     (F(700, 1031), F(900, 1021), F(900, 1021)), (1, 1, 1)]
)
WIDE_ATOMS = AtomicMeasure.from_atoms(
    [(0, F(1, 1031), F(1, 4)), (F(1, 1031), F(1, 1021), F(1, 4)),
     (F(1, 1021), F(1, 2) - F(1, 2**70), F(1, 4)), (F(1, 2), 1, F(1, 4))]
)


@pytest.mark.parametrize(
    "model, wide",
    [(WIDE_G, True), (WIDE_ATOMS, True), (so.gc(F(3, 10)), False), (CHAINED_ATOMS, False)],
    ids=["g-object", "atoms-object", "g-int64", "atoms-int64"],
)
def test_draw_on_both_sides_of_the_int64_bound(model, wide):
    """Ends over den >= 2^63 are object ints, below it int64; both rank as
    the sample of their `Fraction`s and as the mask reference."""
    for seed in range(3):
        p = sa.sample_kernel_poset(model, 60, SeededRng(seed))
        den, a, b = p.ends
        assert (den >= 2**63) == wide
        assert a.dtype == b.dtype == (object if wide else np.int64)
        q = ps.IntervalSample(p.intervals)
        assert [r.tolist() for r in p.ranks] == [r.tolist() for r in q.ranks]
        assert_matches_masks(p)


PAST_INT64_G = so.MonotoneRC.from_points(  # g of test_segment_lines_past_the_int64_bound
    [(0, F(1, 7), F(1, 7)), (F(3**41 // 2, 3**41), F(2, 3), F(2, 3)), (F(5, 6), 1, 1), (1, 1, 1)]
)
FINE_STEP_G = so.MonotoneRC.from_points(  # a step g: values over 2, rows over m = 2000
    [(0, F(1, 2), F(1, 2)), (F(1, 2000), F(1, 2), 1), (1, 1, 1)]
)


@given(monotone_gs())
@example(so.gc(F(3, 10)))
@example(so.MonotoneRC.identity())
@example(STAIRCASE)
@example(RATE_G)
@example(WIDE_G)
@example(PAST_INT64_G)
@example(so.MonotoneRC.from_points([(0, 1, 1), (F(1, 2), 1, 1), (1, 1, 1)]))  # g = 1 over m = 2
@example(FINE_STEP_G)
@settings(max_examples=60, deadline=None)
def test_threshold_draw_matches_the_fraction_threshold_draw(g):
    """gc, identity, staircase, a rate's g, g over den >= 2^63, g with rows
    past int64, two step gs over rows finer than their values, and random g."""
    assert_integer_g(g)


def test_threshold_draws_build_the_line_table_once(monkeypatch):
    """Two draws from one g compute its lines (`_line`) once, in its line
    table, or never on a step g (STAIRCASE), and give the same den."""
    calls, line = [], pwl._line
    monkeypatch.setattr(pwl, "_line", lambda *a: calls.append(1) or line(*a))
    for shared, built in ((so.gc(F(3, 10)), [1]), (STAIRCASE, []), (PAST_INT64_G, [1])):
        g = so.MonotoneRC.from_points(shared.points)
        calls.clear()
        assert "lines" not in vars(g)
        first = sa.sample_kernel_poset(g, 50, SeededRng(1))
        second = sa.sample_kernel_poset(g, 50, SeededRng(2))
        assert calls == built and first.ends[0] == second.ends[0]


@pytest.mark.parametrize(
    "g", [so.gc(F(7, 100)), so.gc(F(1, 30)), FINE_STEP_G], ids=["gc7/100", "gc1/30", "step"]
)
def test_draws_stay_int64_under_the_exact_reach(g):
    """gc(7/100) and gc(1/30) have reach 107 and 31, and FINE_STEP_G,
    its values over L = 2, reach 2, so 4000 draws stay int64 (reach UNIT
    below 2^63); (2m + 2) den, 202 * 100, 62 * 30 and 4002 * 2, would have
    passed 1024 = 2^63 / UNIT, and so would FINE_STEP_G's values over its
    rows' m = 2000."""
    ks = SeededRng(3).integers(POINTS, 4000)
    den, a, b = sa.draw_intervals(g, columns(ks))
    assert a.dtype == b.dtype == np.int64 and g.lines.reach * UNIT < 1 << 63
    assert (2 * g.rows[0] + 2) * g.lines.den >= 1024
    assert fractions((den, a, b)) == [ref.draw(g, F(k, UNIT)) for k in ks.tolist()]


def test_a_rate_derives_its_g_once(monkeypatch):
    """Draws from one rate function derive g once and give the ends of a
    draw from that g, derived afresh."""
    calls, derive = [], so.g_from_rate
    monkeypatch.setattr(so, "g_from_rate", lambda r: calls.append(1) or derive(r))
    rate = so.RateFunction.from_pieces([(0, F(1, 3), 3), (F(1, 3), 1, F(5, 2))])
    ks = SeededRng(8).integers(POINTS, 300)
    draws = [sa.draw_intervals(rate, columns(ks)) for _ in range(2)]
    assert calls == [1] and rate.g is rate.g
    want = sa.draw_intervals(derive(rate), columns(ks))
    assert fractions(want) == [ref.draw(rate, F(k, UNIT)) for k in ks.tolist()]
    for den, a, b in draws:
        assert den == want[0] and np.array_equal(a, want[1]) and np.array_equal(b, want[2])
    assert rate == so.RateFunction.from_pieces([(0, F(1, 3), 3), (F(1, 3), 1, F(5, 2))])


def lexsort_reference(p):
    """rank_a, rank_b, degrees minus and plus of an `IntervalSample` as a
    `lexsort` of the ends (value, then side) and a sort and binary search
    per degree vector: the reference for the argsort and running count.  It
    stays here, beside the models of `reference`, as the fast reference for
    samples of 10^5 points, past the reach of the pairwise order."""
    n, (_, a, b) = p.n, p.ends
    rank = np.empty(2 * n, dtype=np.int64)
    rank[np.lexsort((np.repeat([0, 1], n), np.concatenate([a, b])))] = np.arange(2 * n)
    rank_a, rank_b = rank[:n], rank[n:]
    minus = np.searchsorted(np.sort(rank_b), rank_a)
    return rank_a, rank_b, minus, n - np.searchsorted(np.sort(rank_a), rank_b)


def assert_matches_lexsort(p):
    got = (*p.ranks, p.degrees("minus"), p.degrees("plus"))
    for x, y in zip(got, lexsort_reference(p), strict=True):
        assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y)


BOUND_MODELS = [WIDE_G, WIDE_ATOMS, so.gc(F(3, 10)), CHAINED_ATOMS]


@given(
    st.one_of(models(), st.sampled_from(TIE_HEAVY), st.sampled_from(BOUND_MODELS)),
    st.integers(1, 60),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_end_order_matches_lexsort_reference(model, n, seed):
    assert_matches_lexsort(sa.sample_kernel_poset(model, n, SeededRng(seed)))


def test_end_order_at_scale_with_every_value_tied_across_sides():
    n = 10**5
    x = np.random.default_rng(5).integers(0, n, n)  # a_i = b_i, and some points share x
    p = ps.IntervalSample.from_ends(n, x, x.copy())
    assert_matches_lexsort(p)
    by_value = np.sort(x)  # i < j iff x_i < x_j
    assert np.array_equal(p.degrees("minus"), np.searchsorted(by_value, x, "left"))
    assert np.array_equal(p.degrees("plus"), n - np.searchsorted(by_value, x, "right"))


def assert_counts_match_lexsort(p):
    """`degree_counts` of both signs is the reference degrees counted by value."""
    _, _, minus, plus = lexsort_reference(p)
    for sign, degrees in (("minus", minus), ("plus", plus)):
        got = p.degree_counts(sign)
        assert got.dtype == np.int64 and np.array_equal(got, np.bincount(degrees, minlength=p.n))


@given(
    st.one_of(models(), st.sampled_from(TIE_HEAVY), st.sampled_from(BOUND_MODELS)),
    st.integers(1, 60),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_degree_counts_match_lexsort_reference(model, n, seed):
    p = sa.sample_kernel_poset(model, n, SeededRng(seed))
    assert_counts_match_lexsort(p)
    assert "_end_order" not in vars(p)  # counted from the sorted ends alone


def test_degree_counts_at_scale_with_every_value_tied_across_sides():
    n = 10**5
    x = np.random.default_rng(5).integers(0, n, n)  # a_i = b_i, and some points share x
    assert_counts_match_lexsort(ps.IntervalSample.from_ends(n, x, x.copy()))


def test_nu_empirical_leaves_end_order_and_masks_unbuilt():
    p = sa.sample_kernel_poset(STAIRCASE, 500, SeededRng(9))
    sa.nu_empirical(p, "minus")
    sa.nu_empirical(p, "plus")
    assert not {"_end_order", "succ", "pred"} & set(vars(p))


@pytest.mark.parametrize("model", [so.gc(F(3, 10)), so.MonotoneRC.identity(), STAIRCASE, WIDE_G])
@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_nu_empirical_rows_match_the_mask_poset(model, sign):
    p = sa.sample_kernel_poset(model, 200, SeededRng(2))
    got = sa.nu_empirical(p, sign).rows
    want = sa.nu_empirical(ps.FinitePoset(p.n, p.succ, p.pred), sign).rows
    assert got[0] == want[0]
    for x, y in zip(got[1:], want[1:], strict=True):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_bad_sign_degree_counts_raises_from_both_classes():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 20, SeededRng(1))
    for q in (p, ps.FinitePoset(p.n, p.succ, p.pred)):
        with pytest.raises(InvalidArgument, match="sign must be 'minus' or 'plus', got 'up'"):
            q.degree_counts("up")


@pytest.mark.parametrize("model", [so.gc(F(3, 10)), WIDE_G], ids=["int64", "object"])
def test_cached_merge_table_is_read_only(model):
    p = sa.sample_kernel_poset(model, 30, SeededRng(4))
    p.degree_counts("minus")
    assert p.ends[1].dtype == (object if model is WIDE_G else np.int64)
    with pytest.raises(ValueError, match="read-only"):
        p._a_upto_b[0] = 7
    assert_counts_match_lexsort(p)


def test_degree_counts_of_object_ends_tied_across_points():
    """Object ends past 2^63 where left ends of some points equal right ends
    of others (a_i = b_j, i != j), and points that share both ends."""
    big = 2**70
    a = np.array([0, big, big, 3 * big, 2 * big, 3 * big, 0], dtype=object)
    b = np.array([big, big, 2 * big, 3 * big, 4 * big, 4 * big, 0], dtype=object)
    p = ps.IntervalSample.from_ends(4 * big, a, b)
    assert_counts_match_lexsort(p)
    assert "_end_order" not in vars(p)
    assert p.degree_counts("minus").tolist() == [2, 2, 0, 1, 2, 0, 0]


def test_converge_diagnostic_sorts_the_ends_once():
    """The semiorder test builds the degrees first and the degree counts
    read them: one end structure is cached, and the rows are those of the
    same orders held as bitmask posets."""
    samples = [sa.sample_kernel_poset(so.gc(F(3, 10)), n, SeededRng(n)) for n in (300, 1000)]
    plain = [ref.interval_poset(p.intervals) for p in samples]
    got = sa.converge_diagnostic(samples, target_g=so.gc(F(3, 10)))
    for p in samples:
        assert "_end_order" in vars(p) and "_a_upto_b" not in vars(p)
    assert got.rows == sa.converge_diagnostic(plain, target_g=so.gc(F(3, 10))).rows


@pytest.mark.parametrize("model", [so.gc(F(3, 10)), WIDE_G], ids=["int64", "object"])
def test_cached_ranks_and_degrees_are_read_only(model):
    p = sa.sample_kernel_poset(model, 30, SeededRng(4))
    for arr in (*p.ranks, p.degrees("minus"), p.degrees("plus")):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7
    assert_matches_masks(p)


def test_interval_sample_rejects_no_intervals():
    with pytest.raises(InvariantError, match="non-empty"):
        ps.IntervalSample([])


@pytest.mark.parametrize(
    "intervals",
    [[(math.nan, 1.0)], [(math.inf, math.inf)], [(-math.inf, 0)], [(0, F(1, 2)), (0.5, math.nan)]],
)
def test_interval_sample_rejects_non_finite_ends(intervals, monkeypatch):
    def unbuilt(*columns, den=1):
        raise AssertionError("ends built before the check")

    monkeypatch.setattr(ps, "over_lcm", unbuilt)
    with pytest.raises(InvariantError, match="not finite"):
        ps.IntervalSample(intervals)


@pytest.mark.parametrize(
    "intervals",
    [[("0", "1")], [(0, 1, 2)], [(0,)], [5], [(0, F(1, 2)), (None, 1)], [(0, 1j)], ["01"]],
)
def test_interval_sample_rejects_an_entry_not_a_pair_of_numbers(intervals, monkeypatch):
    def unbuilt(*columns, den=1):
        raise AssertionError("ends built before the check")

    monkeypatch.setattr(ps, "over_lcm", unbuilt)
    with pytest.raises(InvariantError, match="is not a pair of numbers"):
        ps.IntervalSample(intervals)


@pytest.mark.parametrize(
    "intervals",
    [[(0.0, 1e300), (1e300, 1e300), (5.0, 1e308), (-1e300, 0.0)],
     [(0, 2**60), (2**60, 2**60 + 1), (2**60 + 1, 2**61), (2**53 + 1, 2**60)]],
)
def test_interval_sample_ranks_large_ends_exactly(intervals):
    p = ps.IntervalSample(intervals)
    exact = [[b < c for c, _ in intervals] for _, b in intervals]
    assert [[bool(p.precedes(i, j)) for j in range(p.n)] for i in range(p.n)] == exact
    assert p.intervals == tuple((F(a), F(b)) for a, b in intervals)


def test_interval_sample_takes_numpy_scalars_exactly():
    p = ps.IntervalSample([(np.int64(2**62 + 1), np.longdouble(2.0**63)), (np.uint8(1), np.float64(2.5))])
    assert p.intervals == ((2**62 + 1, 2**63), (1, F(5, 2)))
    assert [r.tolist() for r in p.ranks] == [[2, 0], [3, 1]]


def test_interval_sample_rejects_an_end_beyond_the_floats():
    with pytest.raises(InvariantError, match="not finite as a float"):
        ps.IntervalSample([(0, 10**400)])


def test_interval_sample_rejects_a_reversed_interval():
    with pytest.raises(InvariantError, match="interval 0 is empty: 1 > 0"):
        ps.IntervalSample([(1, 0), (F(1, 2), F(1, 2))])
