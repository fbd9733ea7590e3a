"""Exact evaluation and sup-norm distance of piecewise-linear functions,
checked against linear-scan references written here."""

from fractions import Fraction as F

import hypothesis.strategies as st
from hypothesis import example, given

from poslim import poset as ps
from poslim import pwl
from poslim import sampling as sa
from poslim.measures import StepCDF

from conftest import monotone_gs, posets

_grid = st.fractions(min_value=0, max_value=1, max_denominator=12)


def ref_limits(points, t):
    """(left limit, value) at t by a linear scan over the breakpoints."""
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
def cdf_points(draw, pool):
    """Breakpoints of a monotone CDF: inner abscissae partly from a shared
    pool, values nondecreasing, with jumps allowed at 0 and at 1."""
    inner = draw(st.lists(st.one_of(st.sampled_from(pool), _grid), max_size=5))
    xs = [F(0), *sorted(set(inner) - {0, 1}), F(1)]
    values = sorted(draw(st.lists(_grid, min_size=2 * len(xs) - 2,
                                  max_size=2 * len(xs) - 2)))
    values = [F(0), *values, F(1)]
    pts = [(x, values[2 * k], values[2 * k + 1]) for k, x in enumerate(xs)]
    return StepCDF.from_points(pts).points


@st.composite
def cdf_pairs(draw):
    pool = draw(st.lists(_grid, min_size=1, max_size=4))
    return draw(cdf_points(pool)), draw(cdf_points(pool))


UNIFORM = StepCDF.uniform().points
AT_0 = StepCDF.dirac(0).points
AT_1 = StepCDF.dirac(1).points


@given(cdf_pairs())
@example((UNIFORM, AT_0))
@example((UNIFORM, AT_1))
@example((AT_0, AT_1))
@example((AT_1, AT_1))
def test_sup_distance_matches_reference(pair):
    f, g = pair
    assert pwl.sup_distance(f, g) == ref_sup(f, g)
    assert pwl.sup_distance(g, f) == pwl.sup_distance(f, g)


def test_sup_distance_length_two_lists():
    assert len(UNIFORM) == len(AT_0) == len(AT_1) == 2
    assert pwl.sup_distance(UNIFORM, AT_0) == 1
    assert pwl.sup_distance(UNIFORM, AT_1) == 1
    assert pwl.sup_distance(AT_0, AT_1) == 1
    assert pwl.sup_distance(UNIFORM, UNIFORM) == 0


@given(monotone_gs(), monotone_gs())
def test_sup_distance_threshold_functions(g, h):
    assert pwl.sup_distance(g.points, h.points) == ref_sup(g.points, h.points)


@given(cdf_pairs())
def test_value_and_left_limit_match_reference(pair):
    for points in pair:
        for t in grid_points(points):
            left, value = ref_limits(points, t)
            assert pwl.value_at(points, t) == value
            assert pwl.left_limit_at(points, t) == left


@given(posets(max_n=8))
def test_nu_empirical_matches_from_jumps(p):
    for sign in ("minus", "plus"):
        degrees = [ps.degree(p, i, sign) for i in range(p.n)]
        jumps = [(F(d, p.n), F(1, p.n)) for d in degrees]
        assert sa.nu_empirical(p, sign).points == StepCDF.from_jumps(jumps).points
