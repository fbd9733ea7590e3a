"""Semiorder limits as monotone threshold functions.

A semiorder limit is represented by a right-continuous weakly increasing
g: [0,1] -> [0,1] with g(x) >= x: a point x is below y exactly when
g(x) < y, so sampling n uniform points yields the interval order of the
intervals [X_i, g(X_i)], which is a semiorder because g is monotone.

The calculus here converts between g and the two degree distributions:
the predecessor CDF *is* g, the successor CDF is g reflected across the
line x + y = 1 (`pwl.reflect`, in both directions), and both maps invert
exactly on piecewise-linear data.  One check (`_check_g`) decides what a
valid g is, for `MonotoneRC.from_rows` and `validate_g` alike.  The g
text format's slopes, written and checked, are `pwl.segment_lines`.  A rate
function derives its g once (`RateFunction.g`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from . import pwl, textio
from .errors import FormatError, InvariantError, NotInPMinus
from .measures import StepCDF, check_p_minus
from .pwl import ONE, ZERO, as_fraction
from .rng import UNIT


class MonotoneRC(pwl.Curve):
    """Piecewise-linear right-continuous g on [0,1] with g(x) >= x, g(1) = 1."""

    value, left_limit = pwl.Curve.value, pwl.Curve.left_limit

    @classmethod
    def from_points(cls, raw: Iterable) -> "MonotoneRC":
        return cls.from_rows(pwl.read_points(raw))

    @classmethod
    def from_rows(cls, rows: pwl.Rows) -> "MonotoneRC":
        """The threshold function of these rows, normalized and checked (`_check_g`)."""
        _, _, left, right = rows = pwl.normalize(rows)  # new arrays
        left[0] = right[0]  # no left limit exists at 0; canonicalize the stored pre-value
        _check_g(rows)
        return cls.of_rows(*rows)

    @classmethod
    def identity(cls) -> "MonotoneRC":
        return cls.from_points([(ZERO, ZERO, ZERO), (ONE, ONE, ONE)])

    def draw(self, columns) -> tuple:
        """(den, a, b) of [u, g(u)], u = k/UNIT for each k of `columns(1)`: b
        is g read by `pwl._along`, and a = k den/UNIT in b's dtype."""
        (k,) = columns(1)
        b, den = pwl._along(self, k, UNIT, "right")
        return den, k.astype(b.dtype, copy=False) * (den // UNIT), b


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
        _check_g(g.rows)
    except InvariantError:
        return False
    return True


def _check_g(rows: pwl.Rows) -> None:
    """Raise InvariantError unless nondecreasing with g(x) >= x; piecewise-
    linear with upward jumps, so checking left limits at breakpoints
    suffices.  g(1) = 1 is forced by g(x) >= x and checked with it."""
    den, x, left, right = pwl.check_monotone(rows)
    if (left < x).any() or right[-1] != den:
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

    @cached_property
    def g(self) -> MonotoneRC:
        """The threshold function of this rate (`g_from_rate`), derived once."""
        return g_from_rate(self)

    def draw(self, columns) -> tuple:
        return self.g.draw(columns)


# -- the F-/F+ calculus -------------------------------------------------------


def _cdf(rows: pwl.Rows) -> StepCDF:
    """The CDF with these rows and F(0-) = 0."""
    den, x, left, right = rows
    left = left.copy()
    left[0] = 0
    return StepCDF.from_rows((den, x, left, right))


def f_minus(g: MonotoneRC) -> StepCDF:
    """Predecessor-share CDF of the limit: equals g pointwise, F(0-) = 0."""
    return _cdf(g.rows)


def f_plus(g: MonotoneRC) -> StepCDF:
    """Successor-share CDF: g's completed graph reflected across x + y = 1."""
    return _cdf(pwl.reflect(g.rows))


def g_from_nu_minus(nu: StepCDF) -> MonotoneRC:
    """Read a predecessor CDF back as a threshold function.

    Requires the distribution to be stochastically smaller than uniform
    (F(t) >= t); raises NotInPMinus otherwise.
    """
    check_p_minus(nu)
    return MonotoneRC.from_rows(nu.rows)


def g_from_f_plus(fp: StepCDF) -> MonotoneRC:
    """Invert f_plus: reflect back across x + y = 1.

    The reflected graph lies in the valid class exactly when F(t) >= t.
    """
    check_p_minus(fp)
    try:
        return MonotoneRC.from_rows(pwl.reflect(fp.rows))
    except InvariantError as exc:
        raise NotInPMinus(str(exc)) from exc


def g_from_rate(r: RateFunction) -> MonotoneRC:
    """Threshold function of an integrated-rate kernel.

    g(x) is the largest y <= 1 whose accumulated rate from x stays within 1;
    exact and piecewise-linear for piecewise-constant rates.

    The cumulative rate R is accumulated at the m + 1 breaks once, and g(x)
    is the largest y <= 1 with R(y) <= R(x) + 1, found by one bisect over
    those values.  g can only bend or jump at a break or where R(x) + 1
    crosses a break value, that is at the largest y with R(y) = R(b) - 1 for
    a break b (the other end of a flat stretch of R is itself a break).  R
    and g are linear on the piece before each such point, so R at its
    midpoint is the mean of R at its ends, and g's left limit at the point
    is 2 g(midpoint) - g(previous point).  O(m log m) in all.
    """
    b, v = r.breaks, r.values
    cum = [ZERO]
    for i, vi in enumerate(v):
        cum.append(cum[-1] + vi * (b[i + 1] - b[i]))

    def solve(level: Fraction) -> Fraction:  # largest y <= 1 with R(y) <= level
        if level >= cum[-1]:
            return ONE
        i = bisect_right(cum, level) - 1  # cum[i] <= level < cum[i + 1]
        return b[i] + (level - cum[i]) / v[i]

    at = dict(zip(b, cum))  # R at every point where g may bend or jump
    at.update((solve(c - 1), c - 1) for c in cum if c >= ONE)
    xs = sorted(at)
    gs = [solve(at[x] + 1) for x in xs]
    pts = [(xs[0], gs[0], gs[0])]
    for i in range(1, len(xs)):
        left = 2 * solve((at[xs[i - 1]] + at[xs[i]]) / 2 + 1) - gs[i - 1]
        pts.append((xs[i], min(left, gs[i]), gs[i]))
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
    lines = [
        textio.fields(*pt, Fraction(p, d))
        for pt, (p, _, d) in zip(g.points, pwl.segment_lines(g))
    ]
    return textio.write_rows("pwl", len(lines), lines)


def read_g(text: str) -> MonotoneRC:
    _, count, start = textio.read_header(text, "pwl")
    table = textio.rows(textio.row_lines(text[start:], count), 4)
    rows = pwl.read_points(row[:3] for row in table)
    g = MonotoneRC.from_rows(rows)
    # verify declared slopes against the pieces as written; the last is free
    for (x, *_, slope), (p, _, d) in zip(table, pwl.segment_lines(pwl.Curve.of_rows(*rows))[:-1]):
        if Fraction(p, d) != slope:
            raise FormatError(f"slope mismatch at x = {x}")
    return g


def write_rate(r: RateFunction) -> str:
    lines = [
        textio.fields(r.breaks[i], r.breaks[i + 1], v) for i, v in enumerate(r.values)
    ]
    return textio.write_rows("rate", len(lines), lines)


def read_rate(text: str) -> RateFunction:
    _, count, start = textio.read_header(text, "rate")
    lines = textio.row_lines(text[start:], count)
    return RateFunction.from_pieces(textio.rows(lines, 3))
