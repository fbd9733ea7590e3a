from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslim import pwl
from poslim import sampling as sa
from poslim import semiorders as so
from poslim.errors import FormatError, InvariantError, NotInPMinus
from poslim.measures import StepCDF, check_p_minus
from poslim.poset import IntervalSample

from conftest import monotone_gs, rate_pieces, ref_rate_g


def test_validate_g():
    assert so.validate_g(so.MonotoneRC.identity())
    assert so.validate_g(so.gc(F(3, 10)))
    with pytest.raises(InvariantError):
        so.MonotoneRC.from_points([(0, 0, 0), (1, F(1, 2), 1)])  # dips below x


def test_f_minus_examples():
    # gc: CDF of max(U - c, 0): atom c at 0, then slope 1
    fm = so.f_minus(so.gc(F(3, 10)))
    assert fm.left_limit(0) == 0 and fm.value(0) == F(3, 10)
    assert fm.value(F(1, 2)) == F(4, 5)
    assert so.f_minus(so.MonotoneRC.identity()).points == StepCDF.uniform().points
    assert so.f_minus(so.gc(1)).points == StepCDF.dirac(0).points


def test_f_plus_examples():
    assert so.f_plus(so.gc(F(3, 10))).points == so.f_minus(so.gc(F(3, 10))).points
    assert so.f_plus(so.MonotoneRC.identity()).points == StepCDF.uniform().points
    assert so.f_plus(so.gc(1)).points == StepCDF.dirac(0).points


def test_g_from_nu_minus_examples():
    assert so.g_from_nu_minus(StepCDF.uniform()).points == so.MonotoneRC.identity().points
    assert so.g_from_nu_minus(so.f_minus(so.gc(F(1, 4)))).points == so.gc(F(1, 4)).points
    with pytest.raises(NotInPMinus):
        so.g_from_nu_minus(
            StepCDF.from_points([(0, 0, 0), (F(1, 2), 0, 0), (1, 1, 1)])
        )


def test_g_from_f_plus_rejects_bad_cdf():
    with pytest.raises(NotInPMinus):
        so.g_from_f_plus(
            StepCDF.from_points([(0, 0, 0), (F(1, 2), 0, 0), (1, 1, 1)])
        )


_BIG = 3**41  # above 2^63
_P_MINUS_FAULTS = [
    ((4, [0, 2, 4], [0, 1, 4], [1, 1, 4]), "F(1/2) = 1/4 < 1/2"),
    ((4, [0, 2, 4], [0, 1, 4], [1, 3, 4]), "F(1/2-) = 1/4 < 1/2"),
    ((4, [0, 1, 2, 4], [0, 0, 1, 4], [0, 1, 1, 4]), "F(1/4-) = 0 < 1/4"),
    ((6, [0, 3, 6], [0, 2, 6], [2, 2, 6]), "F(1/2) = 1/3 < 1/2"),
]


_P_MINUS_BIG = ((_BIG, [0, _BIG // 2, _BIG], [0, _BIG // 3, _BIG], [_BIG // 3] * 2 + [_BIG]),
                f"F({F(_BIG // 2, _BIG)}) = {F(_BIG // 3, _BIG)} < {F(_BIG // 2, _BIG)}")


@pytest.mark.parametrize(
    "rows, message, dtype",
    [(*case, dtype) for case in _P_MINUS_FAULTS for dtype in (np.int64, object)]
    + [(*_P_MINUS_BIG, object)],
)
def test_check_p_minus_messages(rows, message, dtype):
    """The first fault, value before left limit, on int64 and object rows."""
    den, *cols = rows
    nu = StepCDF.of_rows(den, *(np.array(c, dtype=dtype) for c in cols))
    with pytest.raises(NotInPMinus) as fault:
        check_p_minus(nu)
    assert str(fault.value) == message and "points" not in vars(nu)
    with pytest.raises(NotInPMinus) as fault:  # the same curve built from its points
        check_p_minus(StepCDF.from_points(nu.points))
    assert str(fault.value) == message


def test_nu_rows_pass_through_without_points():
    """g from an empirical degree CDF at n = 10^4 reads and returns rows:
    no `Fraction` point is built on either side."""
    n, rng = 10**4, np.random.default_rng(1)
    u = rng.integers(0, 1000, n)
    p = IntervalSample.from_ends(1000, u, np.minimum(u + 300, 1000))  # g_{3/10} on a grid
    nu, nu_plus = sa.nu_empirical(p, "minus"), sa.nu_empirical(p, "plus")
    g, h = so.g_from_nu_minus(nu), so.g_from_f_plus(nu_plus)
    assert not any("points" in vars(c) for c in (nu, nu_plus, g, h))
    den, x, left, right = nu.rows
    assert g.rows[0] == den and np.array_equal(g.rows[1], x) and np.array_equal(g.rows[3], right)
    assert np.array_equal(g.rows[2], np.r_[right[0], left[1:]])
    assert so.validate_g(g) and so.validate_g(h)
    assert pwl.sup_distance(so.f_minus(g), nu) == 0 == pwl.sup_distance(so.f_plus(h), nu_plus)


@given(monotone_gs())
@settings(max_examples=100, deadline=None)
def test_round_trips_exact(g):
    assert so.g_from_nu_minus(so.f_minus(g)).points == g.points
    assert so.g_from_f_plus(so.f_plus(g)).points == g.points
    assert so.f_plus(so.g_from_f_plus(so.f_plus(g))).points == so.f_plus(g).points


@given(monotone_gs())
@settings(max_examples=100, deadline=None)
def test_f_minus_in_p_minus(g):
    fm = so.f_minus(g)
    for x, left, right in fm.points:
        assert right >= x
        assert left >= x or x == 0


def _f_plus_direct(g, t):
    """Independent evaluation: F_+(t) = 1 - min{x : 1 - g(x) <= t}.

    The minimum exists for every t in [0,1] because g is right-continuous
    and g(1) = 1; scan breakpoints and segments left to right for the first
    x with g(x) >= 1 - t.
    """
    v = 1 - t
    pts = g.points
    for i, (x, left, right) in enumerate(pts):
        if i > 0:
            px, _, pright = pts[i - 1]
            if pright < v <= left:  # crossing inside the open segment
                return 1 - (px + (v - pright) * (x - px) / (left - pright))
        if right >= v:
            return 1 - x
    raise AssertionError("unreachable: g(1) = 1")


@given(monotone_gs())
@settings(max_examples=60, deadline=None)
def test_f_plus_matches_direct_min_evaluation(g):
    fp = so.f_plus(g)
    for k in range(33):
        t = F(k, 32)
        assert fp.value(t) == _f_plus_direct(g, t), t


def test_g_from_rate_examples():
    assert so.g_from_rate(so.RateFunction.constant(0)).points == so.gc(1).points
    assert so.g_from_rate(so.RateFunction.constant(2)).points == so.gc(F(1, 2)).points
    r = so.RateFunction.from_pieces([(0, F(1, 2), 4), (F(1, 2), 1, 0)])
    g = so.g_from_rate(r)
    # g(x) = x + 1/4 before the jump; at 1/4 the remaining rate mass is <= 1
    assert g.value(F(1, 8)) == F(3, 8)
    assert g.left_limit(F(1, 4)) == F(1, 2)
    assert g.value(F(1, 4)) == 1


def test_g_from_rate_interior_flat_and_jump():
    r = so.RateFunction.from_pieces(
        [(0, F(1, 2), 8), (F(1, 2), F(3, 4), 0), (F(3, 4), 1, 8)]
    )
    g = so.g_from_rate(r)
    assert g.left_limit(F(3, 8)) == F(1, 2) and g.value(F(3, 8)) == F(3, 4)
    assert g.value(F(5, 8)) == F(7, 8)  # flat over the zero-rate stretch
    assert g.value(F(13, 16)) == F(15, 16)
    assert so.validate_g(g)


def test_rate_outputs_always_valid_concrete():
    for pieces in (
        [(0, 1, F(1, 3))],
        [(0, F(1, 3), 5), (F(1, 3), 1, F(1, 2))],
        [(0, F(1, 4), 0), (F(1, 4), F(3, 4), 3), (F(3, 4), 1, 10)],
    ):
        g = so.g_from_rate(so.RateFunction.from_pieces(pieces))
        assert so.validate_g(g)


@given(
    rate_pieces(),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_g_from_rate_matches_oracle(pieces, extra):
    g = so.g_from_rate(so.RateFunction.from_pieces(pieces))
    assert so.validate_g(g)
    breaks = [lo for lo, _, _ in pieces] + [F(1)]
    mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
    for x in breaks + mids + extra:
        assert g.value(x) == ref_rate_g(pieces, x)
    # g is linear between its own breakpoints: the oracle at both ends and
    # the midpoint of each piece fixes the stored left limit
    for (x0, _, _), (x1, left, right) in zip(g.points, g.points[1:]):
        mid = ref_rate_g(pieces, (x0 + x1) / 2)
        assert left == 2 * mid - ref_rate_g(pieces, x0)
        assert right == ref_rate_g(pieces, x1)


def test_kernel_wg():
    assert so.kernel_wg(so.MonotoneRC.identity(), F(1, 5), F(1, 2)) == 1
    assert so.kernel_wg(so.gc(F(3, 10)), F(1, 5), F(1, 2)) == 0  # equality is not strict
    assert so.kernel_wg(so.gc(1), F(1, 2), F(99, 100)) == 0
    with pytest.raises(InvariantError):
        so.kernel_wg(so.gc(1), 2, 0)


@given(monotone_gs())
@settings(max_examples=80, deadline=None)
def test_g_text_roundtrip(g):
    assert so.read_g(so.write_g(g)).points == g.points


def test_rate_text_roundtrip():
    r = so.RateFunction.from_pieces([(0, F(1, 2), 4), (F(1, 2), 1, 0)])
    assert so.read_rate(so.write_rate(r)) == r


def test_g_text_slope_mismatch_rejected():
    txt = so.write_g(so.gc(F(1, 4)))
    bad = txt.replace("1/1\n", "2/1\n", 1)
    with pytest.raises(Exception):
        so.read_g(bad)


@given(monotone_gs(), st.fractions(max_denominator=9))
@settings(max_examples=60, deadline=None)
def test_read_g_checks_interior_slopes_and_frees_the_last(g, slope):
    header, *rows = so.write_g(g).splitlines()
    rows = [row.split() for row in rows]

    def text():
        return "\n".join([header, *map(" ".join, rows)]) + "\n"

    rows[-1][3] = str(slope)
    assert so.read_g(text()).points == g.points
    for row in rows[:-1]:
        right = row[3]
        row[3] = str(F(right) + 1)
        with pytest.raises(FormatError, match=f"slope mismatch at x = {F(row[0])}$"):
            so.read_g(text())
        row[3] = right
