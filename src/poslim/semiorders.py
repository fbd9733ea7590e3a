"""Semiorder limits as monotone threshold functions.

A semiorder limit is represented by a right-continuous weakly increasing
g: [0,1] -> [0,1] with g(x) >= x: a point x is below y exactly when
g(x) < y, so sampling n uniform points yields the interval order of the
intervals [X_i, g(X_i)], which is a semiorder because g is monotone.

The calculus here converts between g and the two degree distributions:
the predecessor CDF *is* g, the successor CDF is g reflected across the
line x + y = 1 (`pwl.reflect`, in both directions), and both maps invert
exactly on piecewise-linear data.  One check (`_check_g`) decides what a
valid g is, for `MonotoneRC.from_points` and `validate_g` alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from . import pwl, textio
from .errors import FormatError, InvariantError, NotInPMinus
from .measures import StepCDF, check_p_minus
from .pwl import ONE, ZERO, Points, as_fraction


@dataclass(frozen=True)
class MonotoneRC(pwl.Curve):
    """Piecewise-linear right-continuous g on [0,1] with g(x) >= x, g(1) = 1."""

    value, left_limit = pwl.Curve.value, pwl.Curve.left_limit

    @classmethod
    def from_points(cls, raw: Iterable) -> "MonotoneRC":
        pts = pwl.normalize(raw)
        # no left limit exists at 0; canonicalize the stored pre-value
        x0, _, r0 = pts[0]
        pts = ((x0, r0, r0),) + pts[1:]
        _check_g(pts)
        return cls(pts)

    @classmethod
    def identity(cls) -> "MonotoneRC":
        return cls.from_points([(ZERO, ZERO, ZERO), (ONE, ONE, ONE)])


def gc(c) -> MonotoneRC:
    """The shifted threshold g(x) = min(x + c, 1)."""
    c = as_fraction(c)
    if not ZERO <= c <= ONE:
        raise InvariantError(f"shift {c} outside [0,1]")
    if c == ZERO:
        return MonotoneRC.identity()
    if c == ONE:
        return MonotoneRC.from_points([(ZERO, ONE, ONE), (ONE, ONE, ONE)])
    return MonotoneRC.from_points(
        [(ZERO, c, c), (ONE - c, ONE, ONE), (ONE, ONE, ONE)]
    )


def validate_g(g: MonotoneRC) -> bool:
    """True iff nondecreasing with g(x) >= x (see `_check_g`)."""
    try:
        _check_g(g.points)
    except InvariantError:
        return False
    return True


def _check_g(points: Points) -> None:
    """Raise InvariantError unless nondecreasing with g(x) >= x;
    piecewise-linear, so checking values and left limits at breakpoints
    suffices.  g(1) = 1 is forced by g(x) >= x and checked with it."""
    pwl.check_monotone(points)
    if any(right < x or left < x for x, left, right in points) or points[-1][2] != ONE:
        raise InvariantError("not weakly increasing with g(x) >= x")


@dataclass(frozen=True)
class RateFunction:
    """Piecewise-constant nonnegative rate on [0,1]."""

    breaks: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    @classmethod
    def from_pieces(cls, pieces: Iterable[tuple]) -> "RateFunction":
        """Pieces as (x_lo, x_hi, value), tiling [0,1] in order."""
        pieces = list(pieces)
        values = tuple(as_fraction(v) for _, _, v in pieces)
        if any(v < ZERO for v in values):
            raise InvariantError("rate values must be nonnegative")
        return cls(pwl.tiling(pieces, "rate pieces"), values)

    @classmethod
    def constant(cls, v) -> "RateFunction":
        return cls.from_pieces([(ZERO, ONE, v)])

    def cumulative_at(self, t: Fraction) -> Fraction:
        total = ZERO
        for i, v in enumerate(self.values):
            lo, hi = self.breaks[i], self.breaks[i + 1]
            if t <= lo:
                break
            total += v * (min(t, hi) - lo)
        return total


# -- the F-/F+ calculus -------------------------------------------------------


def _cdf(points: Points) -> StepCDF:
    """The CDF with these breakpoints and F(0-) = 0."""
    x0, _, r0 = points[0]
    return StepCDF.from_points(((x0, ZERO, r0),) + points[1:])


def f_minus(g: MonotoneRC) -> StepCDF:
    """Predecessor-share CDF of the limit: equals g pointwise, F(0-) = 0."""
    return _cdf(g.points)


def f_plus(g: MonotoneRC) -> StepCDF:
    """Successor-share CDF: g's completed graph reflected across x + y = 1."""
    return _cdf(pwl.reflect(g.points))


def g_from_nu_minus(nu: StepCDF) -> MonotoneRC:
    """Read a predecessor CDF back as a threshold function.

    Requires the distribution to be stochastically smaller than uniform
    (F(t) >= t); raises NotInPMinus otherwise.
    """
    check_p_minus(nu)
    return MonotoneRC.from_points(nu.points)


def g_from_f_plus(fp: StepCDF) -> MonotoneRC:
    """Invert f_plus: reflect back across x + y = 1.

    The reflected graph lies in the valid class exactly when F(t) >= t.
    """
    check_p_minus(fp)
    try:
        return MonotoneRC.from_points(pwl.reflect(fp.points))
    except InvariantError as exc:
        raise NotInPMinus(str(exc)) from exc


def g_from_rate(r: RateFunction) -> MonotoneRC:
    """Threshold function of an integrated-rate kernel.

    g(x) is the largest y <= 1 whose accumulated rate from x stays within 1;
    exact and piecewise-linear for piecewise-constant rates.
    """
    cum_end = r.cumulative_at(ONE)

    def solve(level: Fraction) -> Fraction:
        # rightmost y with cumulative(y) <= level
        if level >= cum_end:
            return ONE
        for i in reversed(range(len(r.values))):
            lo, hi = r.breaks[i], r.breaks[i + 1]
            c_lo = r.cumulative_at(lo)
            if c_lo > level:
                continue
            v = r.values[i]
            if v == ZERO:
                return hi
            return min(hi, lo + (level - c_lo) / v)
        return ZERO

    candidates = {ZERO, ONE}
    for b in r.breaks:
        candidates.add(b)
        # x at which the solution segment switches at breakpoint b
        target = r.cumulative_at(b) - 1
        if target >= ZERO:
            for i in range(len(r.values)):
                lo, hi = r.breaks[i], r.breaks[i + 1]
                c_lo = r.cumulative_at(lo)
                c_hi = r.cumulative_at(hi)
                if c_lo <= target <= c_hi:
                    v = r.values[i]
                    if v > ZERO:
                        candidates.add(min(hi, lo + (target - c_lo) / v))
                    else:
                        candidates.add(lo)
                        candidates.add(hi)
    xs = sorted(x for x in candidates if ZERO <= x <= ONE)
    pts = []
    for i, x in enumerate(xs):
        gx = solve(r.cumulative_at(x) + 1)
        if i == 0:
            pts.append([x, gx, gx])
        else:
            # left limit along the previous linear piece
            prev_x = xs[i - 1]
            mid = (prev_x + x) / 2
            g_mid = solve(r.cumulative_at(mid) + 1)
            g_prev = pts[-1][2]
            if mid == prev_x:
                left = gx
            else:
                left = g_prev + (g_mid - g_prev) * (x - prev_x) / (mid - prev_x)
            pts.append([x, min(left, gx), gx])
    return MonotoneRC.from_points(pts)


def kernel_wg(g: MonotoneRC, x, y) -> int:
    """Indicator threshold kernel: 1 iff g(x) < y (strict)."""
    x, y = as_fraction(x), as_fraction(y)
    if not (ZERO <= x <= ONE and ZERO <= y <= ONE):
        raise InvariantError("kernel arguments must lie in [0,1]")
    return 1 if g.value(x) < y else 0


# -- text formats -------------------------------------------------------------


def write_g(g: MonotoneRC) -> str:
    """g text format: 'pwl <k>' then rows 'x left right slope_to_next'."""
    pts = g.points
    lines = []
    for i, (x, left, right) in enumerate(pts):
        if i + 1 < len(pts):
            nx, nleft, _ = pts[i + 1]
            slope = (nleft - right) / (nx - x)
        else:
            slope = ZERO
        lines.append(textio.fields(x, left, right, slope))
    return textio.write_rows("pwl", len(pts), lines)


def read_g(text: str) -> MonotoneRC:
    _, _, lines = textio.read_header(text, "pwl")
    rows = textio.rows(lines, 4)
    g = MonotoneRC.from_points([(x, left, right) for x, left, right, _ in rows])
    # verify declared slopes against the parsed geometry
    for i in range(len(rows) - 1):
        x, _, right, slope = rows[i]
        nx, nleft, _, _ = rows[i + 1]
        if (nleft - right) != slope * (nx - x):
            raise FormatError(f"slope mismatch at x = {x}")
    return g


def write_rate(r: RateFunction) -> str:
    lines = [
        textio.fields(r.breaks[i], r.breaks[i + 1], v) for i, v in enumerate(r.values)
    ]
    return textio.write_rows("rate", len(lines), lines)


def read_rate(text: str) -> RateFunction:
    _, _, lines = textio.read_header(text, "rate")
    return RateFunction.from_pieces(textio.rows(lines, 3))
