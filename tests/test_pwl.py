"""Exact evaluation and sup-norm distance of piecewise-linear functions,
checked against linear-scan references written here, and the integer
kernels of `normalize` and `check_monotone`, and the curve constructors
built on them, against their `Fraction` references in conftest."""

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

from conftest import monotone_gs, posets, ref_check_monotone, ref_normalize

_grid = st.fractions(min_value=0, max_value=1, max_denominator=12)


def ref_limits(points, t):
    """(left limit, value) at t by a linear scan over the breakpoints; inside
    a piece, r0 + (l1 - r0)(t - x0)/(x1 - x0) in `Fraction`s."""
    for k, (x, left, right) in enumerate(points):
        if x == t:
            return left, right
        if x > t:
            x0, _, r0 = points[k - 1]
            v = r0 + (left - r0) * (t - x0) / (x - x0)
            return v, v
    raise AssertionError(f"{t} beyond the last breakpoint")


def ref_sup(f, g):
    """Sup of |f - g| over every breakpoint of either, as value and left
    limit, and every midpoint between consecutive ones."""
    ts = sorted({p[0] for p in f} | {p[0] for p in g})
    ts += [(a + b) / 2 for a, b in zip(ts, ts[1:])]
    best = F(0)
    for t in ts:
        (fl, fv), (gl, gv) = ref_limits(f, t), ref_limits(g, t)
        best = max(best, abs(fv - gv), abs(fl - gl))
    return best


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
    assert pwl.sup_distance(f, g) == ref_sup(f.points, g.points)
    assert pwl.sup_distance(g, f) == pwl.sup_distance(f, g)


def test_sup_distance_length_two_lists():
    assert len(UNIFORM.points) == len(AT_0.points) == len(AT_1.points) == 2
    assert pwl.sup_distance(UNIFORM, AT_0) == 1
    assert pwl.sup_distance(UNIFORM, AT_1) == 1
    assert pwl.sup_distance(AT_0, AT_1) == 1
    assert pwl.sup_distance(UNIFORM, UNIFORM) == 0


@given(monotone_gs(), monotone_gs())
def test_sup_distance_threshold_functions(g, h):
    assert pwl.sup_distance(g, h) == ref_sup(g.points, h.points)


@given(cdf_pairs())
def test_value_and_left_limit_match_reference(pair):
    for curve in pair:
        for t in grid_points(curve.points):
            left, value = ref_limits(curve.points, t)
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
        left, value = ref_limits(curve.points, t)
        assert pwl.value_at(curve, t) == value
        assert pwl.left_limit_at(curve, t) == left


@given(
    st.one_of(cdfs([F(1, 3)]), monotone_gs()),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=24), max_size=8),
)
def test_values_along_matches_value_at(curve, ts):
    ts = sorted(ts + [p[0] for p in curve.points])  # repeats and every breakpoint
    got = [F(*v) for v in pwl.values_along(curve, [t.as_integer_ratio() for t in ts])]
    assert got == [pwl.value_at(curve, t) for t in ts]


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
        assert pwl.sup_distance(nu, target) == ref_sup(nu.points, target.points)
        assert pwl.sup_distance(target, nu) == ref_sup(nu.points, target.points)
    assert pwl.sup_distance(minus, plus) == ref_sup(minus.points, plus.points)


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
        assert pwl.sup_distance(nu, target) == ref_sup(nu.points, target.points)
        assert object in dtypes
    m = 2**30 + 1  # rows fit int64; the line ((m - 3)t - 4)/(m - 7) over 40 points does not
    slope = StepCDF.from_points([(0, 0, 0), (F(7, m), F(3, m), F(3, m)), (1, 1, 1)])
    dtypes.clear()
    assert pwl.sup_distance(nu, slope) == ref_sup(nu.points, slope.points)
    assert object in dtypes and np.dtype(np.int64) in dtypes


@given(posets(max_n=8), st.lists(st.fractions(min_value=0, max_value=1, max_denominator=24), max_size=8))
@settings(deadline=None)
def test_values_along_rows_matches_value_at(p, ts):
    """Values and left limits of a curve held as rows, many at once and one
    at a time, against the linear scan over its points."""
    nu = sa.nu_empirical(p, "minus")
    ts = sorted(ts + [x for x, _, _ in nu.points])
    pairs = [t.as_integer_ratio() for t in ts]
    want = [ref_limits(nu.points, t) for t in ts]
    assert [F(*v) for v in pwl.values_along(nu, pairs)] == [v for _, v in want]
    assert [F(*v) for v in pwl.values_along(nu, pairs, "left")] == [left for left, _ in want]
    assert [(nu.left_limit(t), nu.value(t)) for t in ts] == want


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


def outcome(fn, points):
    """The result of fn(points), or the message of its InvariantError."""
    try:
        return "ok", fn(points)
    except InvariantError as e:
        return "error", str(e)


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


def ref_checked(points):
    """The points, once `ref_check_monotone` passes them."""
    ref_check_monotone(points)
    return tuple(points)


@given(raw_points())
@settings(max_examples=400, deadline=None)
def test_integer_kernels_match_fraction_references(raw):
    got, want = outcome(on_rows(pwl.normalize), raw), outcome(ref_normalize, raw)
    assert got == want
    exact = [tuple(map(F, p)) for p in raw]
    assert outcome(on_rows(pwl.check_monotone), exact) == outcome(ref_checked, exact)
    if got[0] == "ok":
        pts = got[1]
        assert all(type(v) is F for p in pts for v in p)
        assert outcome(on_rows(pwl.check_monotone), pts) == outcome(ref_checked, pts)


def ref_cdf(raw):
    """`StepCDF.from_points` in `Fraction`s: `ref_normalize`, then
    `ref_check_monotone`, then F(0-) = 0 and F(1) = 1."""
    pts = ref_checked(ref_normalize(raw))
    if pts[0][1] != 0:
        raise InvariantError("CDF must have F(0-) = 0")
    if pts[-1][2] != 1:
        raise InvariantError("CDF must have F(1) = 1")
    return pts


def ref_g(raw):
    """`MonotoneRC.from_points` in `Fraction`s: `ref_normalize`, the stored
    pre-value at 0 set to g(0), then `ref_check_monotone` and g >= x."""
    (x0, _, r0), *rest = ref_normalize(raw)
    pts = ref_checked([(x0, r0, r0), *rest])
    if any(min(left, right) < x for x, left, right in pts) or pts[-1][2] != 1:
        raise InvariantError("not weakly increasing with g(x) >= x")
    return pts


def ref_jumps(jumps):
    """`StepCDF.from_jumps` in `Fraction`s: a jump of the summed weight at
    each distinct value, then `ref_cdf`."""
    acc = {}
    for v, w in jumps:
        acc[pwl.as_fraction(v)] = acc.get(pwl.as_fraction(v), 0) + w
    pts, cum = [] if min(acc) == 0 else [(F(0), F(0), F(0))], F(0)
    for v in sorted(acc):
        pts.append((v, cum, cum + acc[v]))
        cum += acc[v]
    return ref_cdf(pts if max(acc) == 1 else [*pts, (F(1), F(1), F(1))])


@given(raw_points(), st.lists(st.integers(1, 5), min_size=12, max_size=12))
@settings(max_examples=300, deadline=None)
def test_constructors_match_fraction_pipeline(raw, weights):
    """The curve constructors on raw points (denominators past int64 too)
    against the `Fraction` pipeline: the same points or the same error."""
    for build, ref in ((StepCDF.from_points, ref_cdf), (so.MonotoneRC.from_points, ref_g)):
        got = outcome(build, raw)
        assert (got[0], got[1].points if got[0] == "ok" else got[1]) == outcome(ref, raw)
    weights = [F(w, sum(weights[:len(raw)])) for w in weights[:len(raw)]]
    jumps = [(x, w) for (x, _, _), w in zip(raw, weights)]
    assert StepCDF.from_jumps(jumps).points == ref_jumps(jumps)


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
    assert outcome(on_rows(pwl.check_monotone), exact) == ("error", message)
    assert outcome(ref_check_monotone, exact) == ("error", message)


def test_normalize_messages_and_collinear_drop():
    normalize = on_rows(pwl.normalize)
    assert outcome(normalize, [("1/2", 0, 0), (0.5, 0, 0), (0, 0, 0)]) == (
        "error", "duplicate breakpoint at 1/2")
    assert outcome(normalize, []) == ("error", "need at least one breakpoint")
    line = [(1, 1, 1), ("1/3", "1/3", "1/3"), (0, 0, 0), (0.5, 0.5, 0.5)]
    assert normalize(line) == ((0, 0, 0), (1, 1, 1)) == ref_normalize(line)
    bent = [(0, 0, 0), ("1/3", "1/2", "1/2"), (0.5, 0.75, 0.75), (1, 1, 1)]
    assert normalize(bent) == ref_normalize(bent)
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
        assert outcome(normalize, raw) == outcome(ref_normalize, raw)
        assert object in spy.dtypes
    assert len(normalize(on_line)) == 2 and len(normalize(bent)) == 4
    for kind in _KINDS:
        pts = [tuple(map(F, p)) for p in _corrupt(kind, bent, 2)]
        assert outcome(on_rows(pwl.check_monotone), pts) == outcome(ref_checked, pts)
        assert outcome(normalize, pts) == outcome(ref_normalize, pts)


def ref_reflect(points):
    """`pwl.reflect` by one walk over the `Fraction` points, merging the
    polyline's consecutive points of equal reflected x: the reference for
    the walk on rows."""
    groups = []
    for x, left, right in reversed(points):
        for y in (right, left):  # the polyline walked backwards
            rx, ry = 1 - y, 1 - x
            if groups and groups[-1][0] == rx:
                groups[-1] = (rx, groups[-1][1], ry)
            else:
                groups.append((rx, ry, ry))
    return tuple(groups) if groups[-1][0] == 1 else (*groups, (F(1), F(1), F(1)))


@given(st.one_of(cdfs([F(1, 3)]), monotone_gs()))
def test_reflect_matches_point_walk(curve):
    assert pwl.Curve.of_rows(*pwl.reflect(curve.rows)).points == ref_reflect(curve.points)


def ref_segment_lines(points):
    """(slope, intercept) of each piece's line in `Fraction`s, and (0, value)
    at x = 1."""
    out = []
    for (x0, _, r0), (x1, l1, _) in zip(points, points[1:]):
        slope = (l1 - r0) / (x1 - x0)
        out.append((slope, r0 - slope * x0))
    return out + [(F(0), points[-1][2])]


@given(st.one_of(cdfs([F(1, 3)]), monotone_gs()))
def test_segment_lines_match_reference(curve):
    lines = pwl.segment_lines(curve)
    assert all(type(v) is int for line in lines for v in line)
    assert all(d > 0 for _, _, d in lines)
    assert [(F(p, d), F(q, d)) for p, q, d in lines] == ref_segment_lines(curve.points)
    # the same lines from rows over a multiple of the least denominator
    m, *cols = curve.rows
    wide = pwl.segment_lines(pwl.Curve.of_rows(6 * m, *(6 * c for c in cols)))
    assert [(F(p, d), F(q, d)) for p, q, d in wide] == ref_segment_lines(curve.points)


def test_segment_lines_past_the_int64_bound(monkeypatch):
    spy = _FitSpy(monkeypatch)
    g = so.MonotoneRC.from_points([(0, F(1, 7), F(1, 7)), (F(_BIG // 2, _BIG), F(2, 3), F(2, 3)),
                                   (F(5, 6), 1, 1), (1, 1, 1)])
    lines = pwl.segment_lines(g)
    assert object in spy.dtypes
    assert [(F(p, d), F(q, d)) for p, q, d in lines] == ref_segment_lines(g.points)


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

