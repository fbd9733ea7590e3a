"""Exact evaluation and sup-norm distance of piecewise-linear functions,
the integer kernels of `normalize` and `check_monotone`, and the curve
constructors built on them, against the curve models of `reference`."""

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from poslim import pwl
from poslim import sampling as sa
from poslim import semiorders as so
from poslim.errors import InvariantError
from poslim.measures import AtomicMeasure, StepCDF, StepKernelMeasure
from poslim.rng import SeededRng

import reference as ref
from conftest import monotone_gs, outcome, posets

_grid = st.fractions(min_value=0, max_value=1, max_denominator=12)


def along(curve, ts, side="right"):
    """`pwl._along` of a curve at the sorted rationals ts over their
    least common denominator, as `Fraction`s."""
    td = math.lcm(*(t.denominator for t in ts))
    num, den = pwl._along(curve, [int(t * td) for t in ts], td, side)
    return [F(int(v), den) for v in num]


def grid_points(points):
    """Every breakpoint and the midpoint of every segment."""
    xs = [p[0] for p in points]
    return xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]


@st.composite
def cdfs(draw, pool):
    """A monotone CDF: inner abscissae partly from a shared pool, values
    nondecreasing, with jumps allowed at 0 and at 1."""
    inner = draw(st.lists(st.one_of(st.sampled_from(pool), _grid), max_size=5))
    xs = [F(0), *sorted(set(inner) - {0, 1}), F(1)]
    values = sorted(draw(st.lists(_grid, min_size=2 * len(xs) - 2,
                                  max_size=2 * len(xs) - 2)))
    values = [F(0), *values, F(1)]
    pts = [(x, values[2 * k], values[2 * k + 1]) for k, x in enumerate(xs)]
    return StepCDF.from_points(pts)


@st.composite
def cdf_pairs(draw):
    pool = draw(st.lists(_grid, min_size=1, max_size=4))
    return draw(cdfs(pool)), draw(cdfs(pool))


UNIFORM = StepCDF.uniform()
AT_0 = StepCDF.dirac(0)
AT_1 = StepCDF.dirac(1)


@given(cdf_pairs())
@example((UNIFORM, AT_0))
@example((UNIFORM, AT_1))
@example((AT_0, AT_1))
@example((AT_1, AT_1))
def test_sup_distance_matches_reference(pair):
    f, g = pair
    assert pwl.sup_distance(f, g) == ref.sup(f.points, g.points)
    assert pwl.sup_distance(g, f) == pwl.sup_distance(f, g)


@st.composite
def jump_free_cdfs(draw, pool):
    """A continuous piecewise-linear CDF: left = right at every breakpoint."""
    inner = draw(st.lists(st.one_of(st.sampled_from(pool), _grid), max_size=5))
    xs = [F(0), *sorted(set(inner) - {0, 1}), F(1)]
    values = [F(0), *sorted(draw(st.lists(_grid, min_size=len(xs) - 2, max_size=len(xs) - 2))), F(1)]
    return StepCDF.from_points([(x, v, v) for x, v in zip(xs, values)])


@st.composite
def pairs_with_a_jump_free_cdf(draw):
    pool = draw(st.lists(_grid, min_size=1, max_size=4))
    other = draw(st.one_of(cdfs(pool), jump_free_cdfs(pool), st.just(UNIFORM)))
    return draw(st.one_of(jump_free_cdfs(pool), st.just(UNIFORM))), other


@given(pairs_with_a_jump_free_cdf())
@example((UNIFORM, AT_0))
@example((UNIFORM, AT_1))
@example((UNIFORM, UNIFORM))
@example((UNIFORM, StepCDF.from_points([(0, 0, 0), (F(1, 2), F(1, 3), F(1, 3)), (1, 1, 1)])))
def test_sup_distance_reads_a_jump_free_curve_once(pair):
    """A curve with no jump is read by one `_along` call for both sides, and
    the distance is the reference's in both argument orders."""
    f, g = pair
    calls, along = [], pwl._along

    def spy(curve, *args):
        calls.append(curve)
        return along(curve, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pwl, "_along", spy)
        got = pwl.sup_distance(f, g), pwl.sup_distance(g, f)
    assert got == (ref.sup(f.points, g.points),) * 2
    jump_free = [not (c.rows[2] != c.rows[3]).any() for c in (f, g)]
    assert len(calls) == 2 * (4 - sum(jump_free))


def test_sup_distance_length_two_lists():
    assert len(UNIFORM.points) == len(AT_0.points) == len(AT_1.points) == 2
    assert pwl.sup_distance(UNIFORM, AT_0) == 1
    assert pwl.sup_distance(UNIFORM, AT_1) == 1
    assert pwl.sup_distance(AT_0, AT_1) == 1
    assert pwl.sup_distance(UNIFORM, UNIFORM) == 0


@given(monotone_gs(), monotone_gs())
def test_sup_distance_threshold_functions(g, h):
    assert pwl.sup_distance(g, h) == ref.sup(g.points, h.points)


@given(cdf_pairs())
def test_value_and_left_limit_match_reference(pair):
    for curve in pair:
        for t in grid_points(curve.points):
            left, value = ref.limits(curve.points, t)
            assert pwl.value_at(curve, t) == value
            assert pwl.left_limit_at(curve, t) == left


@given(
    st.one_of(cdfs([F(1, 3)]), monotone_gs()),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=10**12), max_size=6),
    st.integers(2, 10**12),
)
def test_evaluation_matches_interpolation(curve, ts, k):
    """At breakpoints, next to them (1/k away) and at random rationals."""
    xs = [x for x, _, _ in curve.points]
    near = [x + s * F(1, k) for x in xs for s in (-1, 1)]
    for t in [t for t in xs + near + ts if 0 <= t <= 1]:
        left, value = ref.limits(curve.points, t)
        assert pwl.value_at(curve, t) == value
        assert pwl.left_limit_at(curve, t) == left


@given(
    st.one_of(cdfs([F(1, 3)]), monotone_gs()),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=24), max_size=8),
)
def test_along_matches_value_at(curve, ts):
    ts = sorted(ts + [p[0] for p in curve.points])  # repeats and every breakpoint
    assert [pwl.value_at(curve, t) for t in ts] == along(curve, ts)


@given(posets(max_n=8))
def test_nu_empirical_matches_from_jumps(p):
    for sign in ("minus", "plus"):
        degrees = p.degrees(sign).tolist()
        jumps = [(F(d, p.n), F(1, p.n)) for d in degrees]
        assert sa.nu_empirical(p, sign).points == StepCDF.from_jumps(jumps).points


_TARGETS = [UNIFORM, AT_0, AT_1, StepCDF.dirac(F(1, 2)), so.f_minus(so.gc(F(3, 10))),
            so.f_plus(so.gc(F(2, 7))), StepCDF.from_jumps([(0, F(1, 3)), (1, F(2, 3))])]


@given(posets(max_n=8), st.one_of(st.sampled_from(_TARGETS), cdfs([F(1, 3), F(1, 2)])))
@settings(deadline=None)
def test_sup_distance_on_empirical_rows_matches_reference(p, target):
    """Empirical CDFs held as rows against targets with jumps at 0, at 1 and
    inside, both ways round and against each other."""
    minus, plus = sa.nu_empirical(p, "minus"), sa.nu_empirical(p, "plus")
    for nu in (minus, plus):
        assert pwl.sup_distance(nu, target) == ref.sup(nu.points, target.points)
        assert pwl.sup_distance(target, nu) == ref.sup(nu.points, target.points)
    assert pwl.sup_distance(minus, plus) == ref.sup(minus.points, plus.points)


class _FitSpy:
    """Records the dtype of every array `pwl._fit` returns."""

    def __init__(self, monkeypatch):
        self.dtypes, fit = [], pwl._fit

        def spy(bound, *columns):
            out = fit(bound, *columns)
            self.dtypes.extend(c.dtype for c in out)
            return out

        monkeypatch.setattr(pwl, "_fit", spy)


_BIG = 3**41  # above 2^63
_WIDE = 2**35 + 1  # its square, not itself, passes 2^63


def test_sup_distance_past_the_int64_bound(monkeypatch):
    """Denominators whose products pass 2^63 take object ints and stay exact."""
    dtypes = _FitSpy(monkeypatch).dtypes
    target = StepCDF.from_points([(0, 0, 0), (F(_BIG // 2, _BIG), F(1, 3), F(2, 3)), (1, 1, 1)])
    sample = sa.sample_kernel_poset(so.gc(F(1, 5)), 40, SeededRng(2))
    for sign in ("minus", "plus"):
        nu = sa.nu_empirical(sample, sign)
        dtypes.clear()
        assert pwl.sup_distance(nu, target) == ref.sup(nu.points, target.points)
        assert object in dtypes
    # rows and table fit int64 (den a (m - a), reach about 3 den); reach times 40 points does not
    m, a = 2**30 + 1, 2**29
    slope = StepCDF.from_points([(0, 0, 0), (F(a, m), F(3, m), F(3, m)), (1, 1, 1)])
    assert slope.lines.reach < 1 << 63 <= slope.lines.reach * 40
    dtypes.clear()
    assert pwl.sup_distance(nu, slope) == ref.sup(nu.points, slope.points)
    assert object in dtypes and np.dtype(np.int64) in dtypes


@given(posets(max_n=8), st.lists(st.fractions(min_value=0, max_value=1, max_denominator=24), max_size=8))
@settings(deadline=None)
def test_along_rows_matches_value_at(p, ts):
    """Values and left limits of a curve held as rows, many at once and one
    at a time, against the linear scan over its points."""
    nu = sa.nu_empirical(p, "minus")
    ts = sorted(ts + [x for x, _, _ in nu.points])
    want = [ref.limits(nu.points, t) for t in ts]
    assert along(nu, ts) == [v for _, v in want]
    assert along(nu, ts, "left") == [left for left, _ in want]
    assert [(nu.left_limit(t), nu.value(t)) for t in ts] == want


_M30 = 2**30 + 1


def _prime_gaps():
    """A jump-free CDF over m = 6,922 whose pieces span the 36 primes g from
    101 to 283, rising 1/m on each but the last: each line fits int64, the
    lcm of all of them does not."""
    gaps = [g for g in range(101, 400) if all(g % f for f in range(2, 20))][:36]
    xs = np.cumsum([0, *gaps])
    m = int(xs[-1])
    pts = [(F(int(x), m), F(k, m), F(k, m)) for k, x in enumerate(xs[:-1])]
    return StepCDF.from_points([*pts, (1, 1, 1)])


PRIME_GAPS = _prime_gaps()
_SPECIAL_CURVES = [
    UNIFORM, AT_0, AT_1,
    StepCDF.from_points([(0, 0, 0), (F(_BIG // 2, _BIG), F(1, 3), F(2, 3)), (1, 1, 1)]),
    StepCDF.from_jumps([(F(_BIG // 2, _BIG), F(1, 3)), (F(3, 4), F(2, 3))]),  # object step rows
    StepCDF.from_points([(0, 0, 0), (F(_WIDE // 2, _WIDE), F(1, 3), F(1, 3)), (1, 1, 1)]),
    StepCDF.from_jumps([(F(_WIDE // 2, _WIDE), F(1, 2)), (1, F(1, 2))]),
    StepCDF.from_points([(0, 0, 0), (F(7, _M30), F(3, _M30), F(3, _M30)), (1, 1, 1)]),
    so.MonotoneRC.from_points([(0, F(1, 7), F(1, 7)), (F(_BIG // 2, _BIG), F(2, 3), F(2, 3)),
                               (F(5, 6), 1, 1), (1, 1, 1)]),
    PRIME_GAPS,
    StepCDF.from_jumps([(F(1, 2), F(1, _BIG)), (F(3, 4), 1 - F(1, _BIG))]),  # values over 3^41
]


@st.composite
def step_cdfs(draw):
    """A pure-jump CDF: every piece flat."""
    xs = draw(st.lists(_grid, min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(xs), max_size=len(xs)))
    return StepCDF.from_jumps([(x, F(w, sum(weights))) for x, w in zip(xs, weights)])


_pools = st.lists(_grid, min_size=1, max_size=4)
_any_curves = st.one_of(
    _pools.flatmap(cdfs), _pools.flatmap(jump_free_cdfs), step_cdfs(), monotone_gs(),
    st.sampled_from(_SPECIAL_CURVES),
)
_read_points = st.lists(
    st.one_of(st.fractions(min_value=0, max_value=1, max_denominator=24),
              st.sampled_from([F(_BIG // 2, _BIG), F(_WIDE // 2, _WIDE), F(7, _M30)])),
    max_size=6,
)


@given(_any_curves, _read_points, st.integers(1, 5))
@example(PRIME_GAPS, [F(1, 3), F(1, 2)], 1)
@example(_SPECIAL_CURVES[7], [], 1)
@settings(deadline=None)
def test_table_reads_match_the_per_piece_read(curve, ts, rep):
    """Step, jump-free and general curves, int64 and object rows, read on
    both sides at repeated points and every breakpoint: the reference's
    values and left limits, in int64 exactly where `_along` allows, the
    table's reach n below 2^63, or past it the reach of the lines the read
    hits (at least 1) over D times n, with D the lcm of their reduced
    denominators, or on a step curve the table's L, the lcm of all its
    values' reduced denominators."""
    ts = sorted(ts * rep + [x for x, _, _ in curve.points])
    n = math.lcm(*(t.denominator for t in ts))
    xs = [x for x, _, _ in curve.points]
    padded = [(F(0), curve.points[0][1]), *ref.segment_lines(curve.points)]  # piece k starts at xs[k - 1]
    step = all(s == 0 for s, _ in padded)
    lcm = math.lcm(*(c.denominator for _, c in padded))
    for side, piece in (("right", bisect_right), ("left", bisect_left)):
        num, den = pwl._along(curve, [int(t * n) for t in ts], n, side)
        assert [F(int(v), den) for v in num] == [ref.limits(curve.points, t)[side == "right"] for t in ts]
        hit = [padded[piece(xs, t)] for t in ts]
        d = lcm if step else math.lcm(*(math.lcm(s.denominator, c.denominator) for s, c in hit))
        reach = max(1, *(abs(s * d) + abs(c * d) for s, c in hit))
        assert (num.dtype == np.int64) == (curve.lines.reach * n < 1 << 63 or reach * n < 1 << 63)


@given(_any_curves, _read_points, st.randoms(use_true_random=False), st.booleans())
@example(so.gc(F(3, 10)), [F(9, 10), F(1, 10), 1, F(7, 10), F(3, 10), 0, F(7, 10)],
         random.Random(1), True)  # the int64 table, searched over lcm(m, n) below 2^63
@example(_SPECIAL_CURVES[3], [F(3, 4), F(1, 4), 1, F(1, 2), 0],
         random.Random(2), True)  # past the table's reach, searched over lcm(m, n) past 2^63
@example(PRIME_GAPS, [F(5, 7), F(1, 9), F(1, 2), F(2, 9), F(1, 3)],
         random.Random(3), True)  # past the table's reach, searched below 2^63
@example(so.gc(F(3, 10)), [F(_BIG // 2, _BIG), F(1, 2), 0, F(1, 5)],
         random.Random(4), True)  # past the table's reach n, searched over lcm(m, n) past 2^63
@example(_SPECIAL_CURVES[-1], [0, F(1, 4)], random.Random(5), False)  # zero lines, L > 2^63
@settings(deadline=None)
def test_reads_in_any_order_give_the_permuted_values(curve, ts, rnd, every_break):
    """A read at shuffled points, with every breakpoint among them or (when
    points are drawn) only the drawn points, gives the reference's values
    and left limits in that order: the sorted read's numerators permuted,
    over the same denominator."""
    if every_break or not ts:
        ts = ts + [x for x, _, _ in curve.points]
    rnd.shuffle(ts)
    n = math.lcm(*(t.denominator for t in ts))
    order = sorted(range(len(ts)), key=ts.__getitem__)
    for side in ("right", "left"):
        num, den = pwl._along(curve, [int(t * n) for t in ts], n, side)
        assert [F(int(v), den) for v in num] == [ref.limits(curve.points, t)[side == "right"] for t in ts]
        snum, sden = pwl._along(curve, [int(ts[i] * n) for i in order], n, side)
        assert sden == den and snum.tolist() == num[order].tolist()


@given(_any_curves)
@example(_SPECIAL_CURVES[3])
@example(_SPECIAL_CURVES[7])
@example(PRIME_GAPS)
@settings(deadline=None)
def test_reach_is_the_tables_exact_bound(curve):
    """`Lines.reach` is max(|slope| + |level|) over the padded pieces, the
    reference's lines over the table's den: the lcm of their reduced
    denominators, on a step curve too.  Where either passes 2^63 the table
    keeps no den and its reach is infinite."""
    padded = [(F(0), curve.points[0][1]), *ref.segment_lines(curve.points)]
    den = math.lcm(*(math.lcm(s.denominator, c.denominator) for s, c in padded))
    reach = max(abs(s * den) + abs(c * den) for s, c in padded)
    lines = curve.lines
    if den < 1 << 63 and reach < 1 << 63:
        assert (lines.den, lines.reach) == (den, reach)
        assert lines.reach == max(abs(s) + abs(c) for s, c in zip(lines.slope.tolist(), lines.level.tolist()))
    else:
        assert (lines.den, lines.reach) == (None, math.inf)


def test_a_step_curve_table_computes_no_line(monkeypatch):
    """Empirical and `from_jumps` CDFs are flat on every piece: their table
    is their values over L, the lcm of their reduced denominators (a divisor
    of the rows' m), built with no `_line`; a curve with a slope
    computes each line once, for all its reads."""
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 300, SeededRng(4))
    calls, line = [], pwl._line
    monkeypatch.setattr(pwl, "_line", lambda *a: calls.append(1) or line(*a))
    steps = [sa.nu_empirical(p, "minus"), sa.nu_empirical(p, "plus"), StepCDF.dirac(F(1, 3)),
             StepCDF.from_jumps([(0, F(1, 4)), (F(1, 2), F(1, 4)), (1, F(1, 2))])]
    for nu in steps:
        m, _, _, right = nu.rows
        assert pwl.sup_distance(nu, steps[0]) == ref.sup(nu.points, steps[0].points)
        lines = nu.lines
        lcm = math.lcm(*(F(int(v), m).denominator for v in right.tolist()))
        assert (lines.p == 0).all() and (lines.d == lcm).all() and lines.den == lcm
        assert lines.q.tolist() == [0, *(right // (m // lcm)).tolist()]
    assert calls == []
    target = so.f_minus(so.gc(F(3, 10)))
    for nu in steps:
        assert pwl.sup_distance(nu, target) == ref.sup(nu.points, target.points)
        pwl.value_at(target, F(1, 7))
    assert calls == [1]


@pytest.mark.parametrize("curve", _SPECIAL_CURVES, ids=range(len(_SPECIAL_CURVES)))
def test_line_table_arrays_are_read_only(curve):
    lines = curve.lines
    assert curve.lines is lines
    for arr in lines[:3] + lines[4:6]:
        if arr is not None:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7
    assert (lines.slope is None) == (lines.den is None) == (lines.reach == math.inf)


def test_many_distinct_slopes_read_at_a_few_points_stay_int64(monkeypatch):
    """The lcm of all 38 padded lines passes 2^63, so the table keeps no
    common denominator; a read takes the lcm of the lines it hits, in int64."""
    dtypes = _FitSpy(monkeypatch).dtypes
    assert PRIME_GAPS.rows[1].dtype == np.int64 and PRIME_GAPS.lines.den is None
    for t in (F(1, 3), F(1, 2), F(5, 7)):
        left, value = ref.limits(PRIME_GAPS.points, t)
        assert pwl.value_at(PRIME_GAPS, t) == value and pwl.left_limit_at(PRIME_GAPS, t) == left
    assert along(PRIME_GAPS, [F(1, 9), F(2, 9)]) == [ref.limits(PRIME_GAPS.points, t)[1]
                                                     for t in (F(1, 9), F(2, 9))]
    assert dtypes and object not in dtypes


def test_ks_identity_sample_is_one_over_n():
    n = 4000
    p = sa.sample_kernel_poset(so.MonotoneRC.identity(), n, SeededRng(11))
    identity = so.MonotoneRC.identity()
    for sign in ("minus", "plus"):
        nu = sa.nu_empirical(p, sign)
        assert len(nu.points) == n + 1
        assert sa.ks_for_target(nu, so.f_minus(identity)) == F(1, n)
        assert sa.ks_for_target(nu, so.f_plus(identity)) == F(1, n)


# -- integer kernels against the Fraction references --------------------------


def mixed(value, how):
    """`value` as a Fraction, an int, a float or a string, when exact."""
    if how == 1 and value.denominator == 1:
        return int(value)
    if how == 2 and float(value) == value:
        return float(value)
    if how == 3:
        return f"{value.numerator}/{value.denominator}"
    return value


def _corrupt(kind, pts, k):
    """pts with one defect of the given kind at or after breakpoint k."""
    pts = [list(p) for p in pts]
    m = len(pts)
    k = min(max(k, 1), m - 1)
    x, left, right = pts[k]
    if kind == "unsorted":
        pts[k - 1], pts[k] = pts[k], pts[k - 1]
    elif kind == "duplicate":
        pts.insert(k, [x, left, left])
    elif kind == "outside":
        pts[k][1 + k % 2] = F(5, 4) if k % 3 else F(-1, 8)
    elif kind == "downward":
        pts[k][1:] = [max(left, right) + F(1, 16), min(left, right)]
    elif kind == "decreasing":
        pts[k][1] = pts[k - 1][2] - F(1, 16)
    elif kind == "collinear":
        (x0, _, r0), (x1, l1, _) = pts[k - 1], pts[k]
        mid = (r0 + l1) / 2
        pts.insert(k, [(x0 + x1) / 2, mid, mid])
    elif kind == "float-tenth":
        tenth = F(0.1)  # the float 0.1 exactly: a 2^55 denominator
        pts.insert(k, [tenth, tenth, tenth])
    elif kind in ("big", "wide"):  # a point inside a piece, over _BIG or _WIDE
        t = F(_BIG // 3, _BIG) if kind == "big" else F(_WIDE // 3, _WIDE)
        (x0, _, r0), (x1, l1, _) = pts[k - 1], pts[k]
        value = r0 + (l1 - r0) * t * t  # off the piece's line unless it is flat
        pts.insert(k, [x0 + (x1 - x0) * t, value, value])
    return pts


_KINDS = ("none", "unsorted", "duplicate", "outside", "downward", "decreasing",
          "collinear", "float-tenth", "big", "wide")


@st.composite
def raw_points(draw):
    """CDF breakpoints with at most one defect, each coordinate given as a
    Fraction, an int, a float or a string."""
    pool = draw(st.lists(_grid, min_size=1, max_size=4))
    pts = draw(cdfs(pool)).points
    kind = draw(st.sampled_from(_KINDS))
    if kind != "none":
        pts = _corrupt(kind, pts, draw(st.integers(0, len(pts))))
    if draw(st.booleans()):
        pts = draw(st.permutations(pts))
    return [tuple(mixed(v, draw(st.integers(0, 3))) for v in p) for p in pts]


def on_rows(kernel):
    """`kernel` run on the rows of raw points (`pwl.read_points`), the rows
    it returns read back as `Fraction` points."""
    return lambda raw: pwl.Curve.of_rows(*kernel(pwl.read_points(raw))).points


@given(raw_points())
@settings(max_examples=400, deadline=None)
def test_integer_kernels_match_fraction_references(raw):
    got, want = outcome(lambda: on_rows(pwl.normalize)(raw)), outcome(lambda: ref.normalize(raw))
    assert got == want
    exact = [tuple(map(F, p)) for p in raw]
    assert outcome(lambda: on_rows(pwl.check_monotone)(exact)) == outcome(lambda: ref.checked(exact))
    if got[0] is not InvariantError:
        assert all(type(v) is F for p in got for v in p)
        assert outcome(lambda: on_rows(pwl.check_monotone)(got)) == outcome(lambda: ref.checked(got))


@given(raw_points(), st.lists(st.integers(1, 5), min_size=12, max_size=12))
@settings(max_examples=300, deadline=None)
def test_constructors_match_fraction_pipeline(raw, weights):
    """The curve constructors on raw points (denominators past int64 too)
    against the `Fraction` pipeline: the same points or the same error."""
    for build, model in ((StepCDF.from_points, ref.cdf), (so.MonotoneRC.from_points, ref.threshold_g)):
        got = outcome(lambda: build(raw))
        assert (got if isinstance(got, tuple) else got.points) == outcome(lambda: model(raw))
    weights = [F(w, sum(weights[:len(raw)])) for w in weights[:len(raw)]]
    jumps = [(x, w) for (x, _, _), w in zip(raw, weights)]
    assert StepCDF.from_jumps(jumps).points == ref.jumps_cdf(jumps)


def test_constructors_build_rows_once(monkeypatch):
    """One `over_lcm` a `from_points` call, and the points are only a view."""
    calls, over_lcm = [], pwl.over_lcm
    monkeypatch.setattr(pwl, "over_lcm", lambda *a, **k: calls.append(1) or over_lcm(*a, **k))
    builds = [lambda: StepCDF.from_points([(0, 0, "1/3"), (F(1, 2), 0.5, 0.75), (1, 1, 1)]),
              lambda: StepCDF.from_jumps([(F(1, 3), F(1, 2)), (1, F(1, 2))]), StepCDF.uniform,
              lambda: so.MonotoneRC.from_points([(0, F(1, 2), 1), (1, 1, 1)]),
              so.MonotoneRC.identity, lambda: so.gc(F(3, 10))]
    for build in builds:
        calls.clear()
        curve = build()
        assert len(calls) == 1 and "points" not in vars(curve)
        pwl.sup_distance(curve, curve)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "points, message",
    [
        ([(0, 0, 0), (F(1, 2), F(1, 2), F(1, 4)), (1, 1, 1)], "jumps must be upward"),
        ([(0, 0, F(1, 2)), (F(1, 2), F(1, 4), F(1, 4)), (1, 1, 1)],
         "segments must be nondecreasing"),
        ([(0, 0, 0), (F(1, 2), F(1, 2), F(5, 4)), (1, 1, 1)], "values must lie in [0,1]"),
        ([(0, -1, 0), (1, 1, 1)], "values must lie in [0,1]"),
        ([(0, 0, 0), (F(1, 2), 0, 0), (F(1, 4), 0, 0), (1, 1, 1)],
         "breakpoints must be strictly increasing"),
        ([(0, 0, 0), (F(1, 2), 0, 0), (F(1, 2), 0, 0), (1, 1, 1)],
         "breakpoints must be strictly increasing"),
        ([(F(1, 8), 0, 0), (1, 1, 1)], "breakpoints must start at 0 and end at 1"),
        ([], "need at least one breakpoint"),
    ],
)
def test_check_monotone_messages(points, message):
    exact = [tuple(map(F, p)) for p in points]
    assert outcome(lambda: on_rows(pwl.check_monotone)(exact)) == (InvariantError, message)
    assert outcome(lambda: ref.check_monotone(exact)) == (InvariantError, message)


def test_normalize_messages_and_collinear_drop():
    normalize = on_rows(pwl.normalize)
    assert outcome(lambda: normalize([("1/2", 0, 0), (0.5, 0, 0), (0, 0, 0)])) == (
        InvariantError, "duplicate breakpoint at 1/2")
    assert outcome(lambda: normalize([])) == (InvariantError, "need at least one breakpoint")
    line = [(1, 1, 1), ("1/3", "1/3", "1/3"), (0, 0, 0), (0.5, 0.5, 0.5)]
    assert normalize(line) == ((0, 0, 0), (1, 1, 1)) == ref.normalize(line)
    bent = [(0, 0, 0), ("1/3", "1/2", "1/2"), (0.5, 0.75, 0.75), (1, 1, 1)]
    assert normalize(bent) == ref.normalize(bent)
    assert len(normalize(bent)) == 3


@pytest.mark.parametrize("den", [_BIG, _WIDE])
def test_normalize_and_check_monotone_past_the_int64_bound(monkeypatch, den):
    """Denominators whose lcm squared passes 2^63 take object ints in
    `normalize`'s slope test and agree with the `Fraction` references, a
    dropped collinear point, a kept bend and every fault included."""
    spy, normalize = _FitSpy(monkeypatch), on_rows(pwl.normalize)
    a, b = F(den // 3, den), F(den // 2, den)
    on_line = [(0, 0, 0), (a, a, a), (b, b, b), (1, 1, 1)]
    bent = [(0, 0, 0), (a, a / 2, a / 2), (b, b, b), (1, 1, 1)]
    for raw in (on_line, bent, bent[::-1], [*bent, (b, 0, 0)]):
        spy.dtypes.clear()
        assert outcome(lambda: normalize(raw)) == outcome(lambda: ref.normalize(raw))
        assert object in spy.dtypes
    assert len(normalize(on_line)) == 2 and len(normalize(bent)) == 4
    for kind in _KINDS:
        pts = [tuple(map(F, p)) for p in _corrupt(kind, bent, 2)]
        assert outcome(lambda: on_rows(pwl.check_monotone)(pts)) == outcome(lambda: ref.checked(pts))
        assert outcome(lambda: normalize(pts)) == outcome(lambda: ref.normalize(pts))


@given(st.one_of(cdfs([F(1, 3)]), monotone_gs()))
def test_reflect_matches_point_walk(curve):
    assert pwl.Curve.of_rows(*pwl.reflect(curve.rows)).points == ref.reflect(curve.points)


@given(st.one_of(cdfs([F(1, 3)]), monotone_gs()))
def test_segment_lines_match_reference(curve):
    lines = pwl.segment_lines(curve)
    assert all(type(v) is int for line in lines for v in line)
    assert all(d > 0 for _, _, d in lines)
    assert [(F(p, d), F(q, d)) for p, q, d in lines] == ref.segment_lines(curve.points)
    # the same lines from rows over a multiple of the least denominator
    m, *cols = curve.rows
    wide = pwl.segment_lines(pwl.Curve.of_rows(6 * m, *(6 * c for c in cols)))
    assert [(F(p, d), F(q, d)) for p, q, d in wide] == ref.segment_lines(curve.points)


def test_segment_lines_past_the_int64_bound(monkeypatch):
    spy = _FitSpy(monkeypatch)
    g = so.MonotoneRC.from_points([(0, F(1, 7), F(1, 7)), (F(_BIG // 2, _BIG), F(2, 3), F(2, 3)),
                                   (F(5, 6), 1, 1), (1, 1, 1)])
    lines = pwl.segment_lines(g)
    assert object in spy.dtypes
    assert [(F(p, d), F(q, d)) for p, q, d in lines] == ref.segment_lines(g.points)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_non_finite_coordinates_raise_invariant_error(bad):
    with pytest.raises(InvariantError, match="not a finite coordinate"):
        pwl.as_fraction(bad)
    with pytest.raises(InvariantError, match="not a finite coordinate"):
        StepCDF.from_points([(0, 0, 0), (bad, F(1, 2), F(1, 2)), (1, 1, 1)])
    with pytest.raises(InvariantError, match="not a finite coordinate"):
        so.MonotoneRC.from_points([(0, bad, bad), (1, 1, 1)])
    with pytest.raises(InvariantError, match="not a finite coordinate"):
        so.gc(bad)
    with pytest.raises(InvariantError, match="not a finite coordinate"):
        AtomicMeasure.from_atoms([(0, 1, bad)])


@pytest.mark.parametrize(
    "value, want",
    [(np.int64(1), F(1)), (np.int32(-3), F(-3)), (np.uint8(7), F(7)), (True, F(1)),
     (np.float64(0.5), F(1, 2)), (F(2, 3), F(2, 3)), (3, F(3)), ("2/4", F(1, 2))],
)
def test_rationals_are_taken_exactly(value, want):
    got = pwl.as_fraction(value)
    assert got == want and type(got) is F
    assert type(got.numerator) is int and type(got.denominator) is int
    assert so.gc(np.int64(0)) == so.MonotoneRC.identity()


def test_other_values_are_not_coordinates():
    for value in (None, 1j, [1]):
        with pytest.raises(InvariantError, match="not an exact coordinate"):
            pwl.as_fraction(value)


TILING_FAULTS = [
    ([(F(1, 4), 1)], "must start at 0"),
    ([(0, F(1, 4)), (F(1, 2), 1)], r"must tile \[0,1\] without holes"),
    ([(0, F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), 1)], "must have positive length"),
    ([(0, F(1, 2))], "must end at 1"),
    ([], "must end at 1"),
]


@pytest.mark.parametrize("spans, message", TILING_FAULTS)
def test_tiling_faults_name_their_pieces(spans, message):
    """Cells, rate pieces and support gaps share one tiling check; the
    cell and rate constructors take generators."""
    with pytest.raises(InvariantError, match=f"support gaps {message}"):
        pwl.tiling(spans, "support gaps")
    with pytest.raises(InvariantError, match=f"cells {message}"):
        StepKernelMeasure.from_cells((lo, hi, [(1, 1)]) for lo, hi in spans)
    with pytest.raises(InvariantError, match=f"rate pieces {message}"):
        so.RateFunction.from_pieces((lo, hi, 1) for lo, hi in spans)


def test_tiling_returns_breakpoints_from_generators():
    spans = [(0, "1/3"), ("1/3", 1)]
    assert pwl.tiling(iter(spans), "pieces") == (0, F(1, 3), 1)
    mu = StepKernelMeasure.from_cells((lo, hi, [(1, 1)]) for lo, hi in spans)
    assert mu.breaks == (0, F(1, 3), 1) and mu.conditionals == (((1, 1),), ((1, 1),))
    r = so.RateFunction.from_pieces((lo, hi, 2) for lo, hi in spans)
    assert r.breaks == (0, F(1, 3), 1) and r.values == (2, 2)

