"""Piecewise-linear right-continuous functions on [0,1] with upward jumps.

The shared representation behind CDFs and monotone threshold functions:
a tuple of breakpoints ``(x, left, right)`` with x strictly increasing,
x[0] = 0 and x[-1] = 1.  The function value at a breakpoint is `right`, the
left limit is `left`, and the function is linear between `right[i]` at x[i]
and `left[i+1]` at x[i+1].  All coordinates are exact rationals.

Evaluation at one point is a binary search, O(log m) for m breakpoints.  A
curve's one integer view, `rows`, is its breakpoints as integer arrays over
one denominator (`over_lcm`, which also holds the ends of an interval
sample); a curve made `of_rows` (an empirical degree CDF) builds its
`Fraction` points only when they are read.  `values_along` and
`sup_distance` read rows alone, through `_along`: one `searchsorted` and one
numpy pass over each piece's line, in int64 under a stated bound and in
object ints past it.  The checks of `normalize` and `check_monotone` compare
a/b (b > 0) with c/d as a*d with c*b, so every test stays exact without a
`Fraction` per step.

Each geometric rule of the representation calculus lives here once:
evaluation (`Curve`, the base of CDFs and threshold functions), the
reflection across x + y = 1 (`reflect`), pieces tiling [0,1] (`tiling`) and
the line through a piece (`_line`, per piece in `segment_lines`), which
evaluation, `normalize`, `_along`, the sampler and the g text format's slopes
all read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from numbers import Rational, Real
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import textio
from .errors import InvariantError

Points = tuple[tuple[Fraction, Fraction, Fraction], ...]

_X = itemgetter(0)

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        return textio.parse_rational(value)
    raise InvariantError(f"not an exact coordinate: {value!r}")


def _ints(points: Sequence) -> list[tuple[int, int, int, int, int, int]]:
    """Each breakpoint as (x, left, right) numerators and denominators."""
    return [
        x.as_integer_ratio() + lt.as_integer_ratio() + rt.as_integer_ratio()
        for x, lt, rt in points
    ]


def _steps(q: list) -> list[int]:
    """Sign of x[k+1] - x[k] for each k, as a cross-multiplication."""
    return [b[0] * a[1] - a[0] * b[1] for a, b in zip(q, q[1:])]


def check_monotone(points: Points) -> None:
    if not points:
        raise InvariantError("need at least one breakpoint")
    if points[0][0] != ZERO or points[-1][0] != ONE:
        raise InvariantError("breakpoints must start at 0 and end at 1")
    # x[0] = 0 > -1, and a left value below the sentinel 0 fails [0,1] first
    pxn, pxd, prn, prd = -1, 1, 0, 1
    for xn, xd, ln, ld, rn, rd in _ints(points):
        if xn * pxd <= pxn * xd:
            raise InvariantError("breakpoints must be strictly increasing")
        if not (0 <= ln <= ld and 0 <= rn <= rd):
            raise InvariantError("values must lie in [0,1]")
        if ln * rd > rn * ld:
            raise InvariantError("jumps must be upward")
        if ln * prd < prn * ld:
            raise InvariantError("segments must be nondecreasing")
        pxn, pxd, prn, prd = xn, xd, rn, rd


def normalize(points: Iterable[Sequence]) -> Points:
    """Canonical form: drop breakpoints that carry no jump and no slope change."""
    pts = [(as_fraction(x), as_fraction(lt), as_fraction(rt)) for x, lt, rt in points]
    if not pts:
        raise InvariantError("need at least one breakpoint")
    q = _ints(pts)
    steps = _steps(q)
    if steps and min(steps) < 0:
        pts.sort(key=_X)
        q = _ints(pts)
        steps = _steps(q)
    if 0 in steps:
        raise InvariantError(f"duplicate breakpoint at {pts[steps.index(0)][0]}")
    kept = [0]
    for i in range(1, len(q) - 1):
        xn, xd, ln, ld, rn, rd = q[i]
        if ln != rn or ld != rd:
            kept.append(i)
            continue
        p, c, d = _line(q[kept[-1]], q[i + 1])
        if ln * d * xd == (p * xn + c * xd) * ld:  # on its neighbours' line
            continue
        kept.append(i)
    if len(q) > 1:
        kept.append(len(q) - 1)
    return tuple(pts[i] for i in kept)


def value_at(points: Points, t: Fraction) -> Fraction:
    return _at(points, t, 2)


def left_limit_at(points: Points, t: Fraction) -> Fraction:
    """Limit from the left; at t = 0 returns the stored pre-jump value."""
    return _at(points, t, 1)


def _at(points: Points, t: Fraction, side: int) -> Fraction:
    """points[i][side] at a breakpoint x[i] = t, the piece's `_line` elsewhere."""
    t = as_fraction(t)
    if not ZERO <= t <= ONE:
        raise InvariantError(f"argument {t} outside [0,1]")
    i = bisect_right(points, t, key=_X) - 1
    if t == points[i][0]:
        return points[i][side]
    p, q, d = _line(*_ints(points[i : i + 2]))
    tn, td = t.as_integer_ratio()
    return Fraction(p * tn + q * td, d * td)


@dataclass(frozen=True)
class Curve:
    """A function held as its breakpoints, evaluated exactly.

    Subclasses bind `value` and `left_limit` in their own class body, so a
    wrapper installed on one class (as perfbench's tracer does) sees only
    that class's calls.  A curve made `of_rows` has no points until read.
    """

    points: Points = cached_property(lambda self: _points(self.rows))

    @cached_property
    def rows(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(den, x, left, right): the breakpoints as integer arrays over den."""
        den, cols = over_lcm(*zip(*self.points))
        return den, *cols

    @classmethod
    def of_rows(cls, den: int, x: np.ndarray, left: np.ndarray, right: np.ndarray):
        """The curve with breakpoints (x, left, right)/den, integer arrays."""
        curve = cls.__new__(cls)
        vars(curve)["rows"] = (den, x, left, right)
        return curve

    def value(self, t) -> Fraction:
        return value_at(self.points, as_fraction(t))

    def left_limit(self, t) -> Fraction:
        return left_limit_at(self.points, as_fraction(t))


def _points(rows) -> Points:
    cols = [c.tolist() for c in rows[1:]]
    k_den = {k: Fraction(k, rows[0]) for col in cols for k in col}
    return tuple(zip(*([k_den[k] for k in col] for col in cols)))


def _fit(bound: int, *columns) -> list[np.ndarray]:
    """The integer columns as int64 arrays if `bound`, the caller's bound on
    every value it forms from them, is below 2^63; else as object arrays."""
    dtype = np.int64 if bound < 1 << 63 else object
    return [np.asarray(c, dtype=dtype) for c in columns]


def over_lcm(*columns: Sequence, den: int = 1) -> tuple[int, list[np.ndarray]]:
    """(D, arrays): columns of exact rationals (ints, `Fraction`s or floats)
    as integer arrays over D, the least common multiple of den and of their
    denominators; int64 when every value and D are below 2^63, object ints
    otherwise (`_fit`)."""
    ratios = [[_ratio(v) for v in col] for col in columns]
    den = math.lcm(den, *(d for col in ratios for _, d in col))
    ints = [[k * (den // d) for k, d in col] for col in ratios]
    return den, _fit(max(den, *(abs(k) for col in ints for k in col)), *ints)


def _ratio(v: Real) -> tuple[int, int]:
    """v as Python ints (numerator, denominator > 0), numpy scalars too."""
    ratio = (v.numerator, v.denominator) if isinstance(v, Rational) else v.as_integer_ratio()
    return int(ratio[0]), int(ratio[1])


def reflect(points: Points) -> Points:
    """The completed graph reflected across x + y = 1, re-read as breakpoints.

    Jumps become flat pieces and flat pieces jumps; a reflected graph that
    stops short of x = 1 is extended flat at height 1.  The stored left value
    at 0 is whatever the reflection gives; callers set their own.  The
    breakpoints are not normalized: callers pass them to a `from_points`.
    """
    groups: list[tuple[Fraction, Fraction, Fraction]] = []
    for x, left, right in reversed(points):
        for y in (right, left):  # the polyline walked backwards
            rx, ry = ONE - y, ONE - x
            if groups and groups[-1][0] == rx:
                groups[-1] = (rx, groups[-1][1], ry)
            else:
                groups.append((rx, ry, ry))
    if groups[-1][0] != ONE:
        groups.append((ONE, ONE, ONE))
    return tuple(groups)


def tiling(pieces: Iterable[Sequence], what: str) -> tuple[Fraction, ...]:
    """Breakpoints 0 = c_0 < ... < c_m = 1 of pieces (lo, hi, ...) that tile
    [0,1] in order; InvariantError naming `what` otherwise."""
    breaks = [ZERO]
    for lo, hi, *_ in pieces:
        lo, hi = as_fraction(lo), as_fraction(hi)
        if lo != breaks[-1]:
            where = "start at 0" if len(breaks) == 1 else "tile [0,1] without holes"
            raise InvariantError(f"{what} must {where}")
        if hi <= lo:
            raise InvariantError(f"{what} must have positive length")
        breaks.append(hi)
    if breaks[-1] != ONE:
        raise InvariantError(f"{what} must end at 1")
    return tuple(breaks)


def sup_distance(f, g) -> Fraction:
    """Exact sup-norm distance between two curves (or their breakpoints).

    Between consecutive breakpoints of either both functions are linear, so
    the sup is attained at a breakpoint, as a value or a left limit.  Each
    curve is read at the other's rows by `_along`; the differences on one
    side share a denominator, so their sup is one integer max.
    """
    best, rf, rg = ZERO, *(c.rows if isinstance(c, Curve) else Curve(c).rows for c in (f, g))
    for (n, x, left, right), other in ((rf, rg), (rg, rf)):
        for side, ys in (("right", right), ("left", left)):
            num, den = _along(other, x, n, side)
            gap = abs(ys.astype(num.dtype) * (den // n) - num).max()
            best = max(best, Fraction(int(gap), den))
    return best


def values_along(curve, ts: Iterable) -> Iterator[tuple[int, int]]:
    """Values at the nondecreasing tn/td in [0,1] as pairs (num, den > 0),
    by `_along` over the least common denominator of the td."""
    ts = list(ts)
    td = math.lcm(*(d for _, d in ts))
    x = _fit(td, [tn * (td // d) for tn, d in ts])[0]
    num, den = _along(curve.rows if isinstance(curve, Curve) else Curve(curve).rows, x, td, "right")
    return ((v, den) for v in num.tolist())


def _along(rows, x: np.ndarray, n: int, side: str) -> tuple[np.ndarray, int]:
    """Values (side "right") or left limits ("left") of the curve with these
    rows at the nondecreasing x/n: numerators over one returned denominator.

    One `searchsorted` finds each point's piece, and each distinct piece's
    `_line` is reduced and put over the lines' least common denominator D.
    A flat piece padded on each side gives the left limit at 0 and the value
    at 1.  With m the rows' denominator, products stay below 5m² + mn, then
    below (2m + 2)Dn (|slope| <= m, |intercept| <= m + 1): int64 under 2^63,
    object ints past it.
    """
    m, y, lt, rt = rows
    y, lt, rt, x = _fit(5 * m * m + m * n, y, lt, rt, x)
    k = np.searchsorted(y * n, x * m, side)
    new = np.diff(k, prepend=-1) != 0
    ks = k[new]
    ys, ls, rs = np.r_[-m, y, 2 * m], np.r_[lt[0], lt, rt[-1]], np.r_[lt[0], rt, rt[-1]]
    p, q, d = _line((ys[ks], 1, 0, 1, rs[ks], 1), (ys[ks + 1], 1, ls[ks + 1], 1, 0, 1))
    p, d = p * m, d * m  # the line in t = x/n: (p x + q n)/(d n)
    g = np.gcd(np.gcd(p, q), d)
    p, q, d = p // g, q // g, d // g
    den = math.lcm(*d.tolist())
    p, q, d, x = _fit((2 * m + 2) * den * n, p, q, d, x)
    at, scale = np.cumsum(new) - 1, den // d
    return (p * scale)[at] * x + (q * scale)[at] * n, den * n


def _line(a: tuple, b: tuple) -> tuple[int, int, int]:
    """(p, q, d) with d > 0 such that the segment from a's right value to b's
    left value is y = (p*t + q)/d; at t = tn/td, y = (p*tn + q*td)/(d*td)."""
    x0n, x0d, _, _, r0n, r0d = a
    x1n, x1d, l1n, l1d, _, _ = b
    dy = l1n * r0d - r0n * l1d
    dx = x1n * x0d - x0n * x1d
    return dy * x1d * x0d, r0n * l1d * dx - dy * x1d * x0n, l1d * r0d * dx


def segment_lines(points: Points) -> list[tuple[int, int, int]]:
    """`_line` of the piece that starts at each breakpoint; the piece at
    x = 1 is the constant value there, (0, num, den)."""
    q = _ints(points)
    return [_line(a, b) for a, b in zip(q, q[1:])] + [(0, q[-1][4], q[-1][5])]
