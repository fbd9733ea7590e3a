"""Piecewise-linear right-continuous functions on [0,1] with upward jumps.

The shared representation behind CDFs and monotone threshold functions:
breakpoints ``(x, left, right)`` with x strictly increasing, x[0] = 0 and
x[-1] = 1.  The function value at a breakpoint is `right`, the left limit is
`left`, and the function is linear between `right[i]` at x[i] and
`left[i+1]` at x[i+1].  All coordinates are exact rationals.

A curve is held as rows (den, x, left, right): its breakpoints as integer
arrays over one denominator (`over_lcm`, which also holds the ends of an
interval sample).  Every curve is made `of_rows`, and its `Fraction` points
are a view built only when read.  Raw breakpoints are read once, by
`read_points`.  `normalize`, `check_monotone` and `reflect` take rows and
return rows, comparing integers over one denominator; `value_at`,
`values_along` and `sup_distance` evaluate through `_along`: one
`searchsorted` and one numpy pass over each piece's line, in int64 under a
stated bound and in object ints past it.

Each geometric rule of the representation calculus lives here once:
evaluation (`Curve`, the base of CDFs and threshold functions), the
reflection across x + y = 1 (`reflect`), pieces tiling [0,1] (`tiling`) and
the line through a piece (`_line`, per piece in `segment_lines`), which
`_along`, the sampler and the g text format's slopes all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from numbers import Rational, Real
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import textio
from .errors import InvariantError

Points = tuple[tuple[Fraction, Fraction, Fraction], ...]
Rows = tuple[int, np.ndarray, np.ndarray, np.ndarray]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """value as an exact `Fraction`: any `numbers.Rational` (numpy integers
    too), a finite float or a rational string; InvariantError otherwise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(*_ratio(value))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvariantError(f"not a finite coordinate: {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        return textio.parse_rational(value)
    raise InvariantError(f"not an exact coordinate: {value!r}")


def read_points(points: Iterable[Sequence]) -> Rows:
    """The rows of raw breakpoints (x, left, right), each coordinate read by
    `as_fraction`, over their least common denominator."""
    pts = [(as_fraction(x), as_fraction(lt), as_fraction(rt)) for x, lt, rt in points]
    if not pts:
        raise InvariantError("need at least one breakpoint")
    den, cols = over_lcm(*zip(*pts))
    return den, *cols


def check_monotone(rows: Rows) -> Rows:
    """The rows, or InvariantError at the first breakpoint that fails a check
    with the first check it fails: x from 0 to 1 and increasing, values in
    [0,1], jump upward, left value at least the previous right value."""
    m, x, lt, rt = rows
    if x[0] != 0 or x[-1] != m:
        raise InvariantError("breakpoints must start at 0 and end at 1")
    # before x[0] = 0, a sentinel x of -1 and right value of 0 pass
    prev_x, prev_rt = np.concatenate(([-1], x[:-1])), np.concatenate(([0], rt[:-1]))
    faults = {
        "breakpoints must be strictly increasing": x <= prev_x,
        "values must lie in [0,1]": (np.minimum(lt, rt) < 0) | (np.maximum(lt, rt) > m),
        "jumps must be upward": lt > rt,
        "segments must be nondecreasing": lt < prev_rt,
    }
    bad = np.array(list(faults.values()))
    if bad.any():
        raise InvariantError(list(faults)[bad[:, bad.any(axis=0).argmax()].argmax()])
    return rows


def normalize(rows: Rows) -> Rows:
    """Canonical form: the rows sorted by x, in new arrays, less each
    breakpoint that has no jump and the same slope in as out."""
    m, *cols = rows
    order = np.argsort(cols[0], kind="stable")
    big = max(m, int(np.abs(np.concatenate(cols)).max()))  # differences below 2 big
    x, lt, rt = _fit(4 * big * big, *(c[order] for c in cols))
    dx = np.diff(x)
    if not dx.all():
        raise InvariantError(f"duplicate breakpoint at {Fraction(int(x[(dx == 0).argmax()]), m)}")
    keep = np.ones(len(x), dtype=bool)
    bend = (lt[1:-1] - rt[:-2]) * dx[1:] != (lt[2:] - rt[1:-1]) * dx[:-1]
    keep[1:-1] = (lt[1:-1] != rt[1:-1]) | bend
    return m, x[keep], lt[keep], rt[keep]


def value_at(curve: Curve, t) -> Fraction:
    """The value of a curve at t in [0,1]."""
    return Fraction(*next(values_along(curve, [_unit(t)])))


def left_limit_at(curve: Curve, t) -> Fraction:
    """Limit from the left; at t = 0 returns the stored pre-jump value."""
    return Fraction(*next(values_along(curve, [_unit(t)], "left")))


def _unit(t) -> tuple[int, int]:
    t = as_fraction(t)
    if not ZERO <= t <= ONE:
        raise InvariantError(f"argument {t} outside [0,1]")
    return t.as_integer_ratio()


@dataclass(frozen=True, init=False)
class Curve:
    """A function held as its rows, evaluated exactly.

    `rows` is (den, x, left, right): the breakpoints (x, left, right)/den
    as integer arrays, set once by `of_rows`, the one constructor.
    `points`, the same breakpoints as `Fraction`s, is built when first read;
    curves compare, hash and print by it.  Subclasses bind `value` and
    `left_limit` in their own class body, so a wrapper installed on one
    class (as perfbench's tracer does) sees only that class's calls.
    """

    rows: Rows = field(compare=False, repr=False)
    points: Points = cached_property(lambda self: _points(self.rows))

    @classmethod
    def of_rows(cls, den: int, x: np.ndarray, left: np.ndarray, right: np.ndarray):
        """The curve with breakpoints (x, left, right)/den, integer arrays."""
        curve = cls.__new__(cls)
        vars(curve)["rows"] = (den, x, left, right)
        return curve

    def value(self, t) -> Fraction:
        return value_at(self, t)

    def left_limit(self, t) -> Fraction:
        return left_limit_at(self, t)


def _points(rows: Rows) -> Points:
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


def reflect(rows: Rows) -> Rows:
    """The completed graph reflected across x + y = 1, re-read as rows.

    Jumps become flat pieces and flat pieces jumps; a reflected graph that
    stops short of x = 1 is extended flat at height 1.  The stored left value
    at 0 is whatever the reflection gives; callers set their own.  The rows
    are not normalized: callers pass them to a `from_rows`.
    """
    m, x, lt, rt = rows
    # the polyline walked backwards, each breakpoint's right then left value,
    # and (1, 1): it ends at (1 - left(0), 1), so it merges there or extends
    rx = np.append(m - np.stack((rt, lt), axis=1)[::-1].ravel(), m)
    ry = np.append(np.repeat(m - x[::-1], 2), m)
    first = np.concatenate(([True], rx[1:] != rx[:-1]))  # a new reflected x
    last = np.concatenate((first[1:], [True]))
    return m, rx[first], ry[first], ry[last]


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


def sup_distance(f: Curve, g: Curve) -> Fraction:
    """Exact sup-norm distance between two curves.

    Between consecutive breakpoints of either both functions are linear, so
    the sup is attained at a breakpoint, as a value or a left limit.  Each
    curve is read at the other's rows by `_along`; the differences on one
    side share a denominator, so their sup is one integer max.
    """
    best = ZERO
    for (n, x, left, right), other in ((f.rows, g.rows), (g.rows, f.rows)):
        for side, ys in (("right", right), ("left", left)):
            num, den = _along(other, x, n, side)
            gap = abs(ys.astype(num.dtype) * (den // n) - num).max()
            best = max(best, Fraction(int(gap), den))
    return best


def values_along(curve: Curve, ts: Iterable, side: str = "right") -> Iterator[tuple[int, int]]:
    """Values (or with side "left", left limits) at the nondecreasing tn/td
    in [0,1] as pairs (num, den > 0), by `_along` over the least common
    denominator of the td."""
    ts = list(ts)
    td = math.lcm(*(d for _, d in ts))
    x = _fit(td, [tn * (td // d) for tn, d in ts])[0]
    num, den = _along(curve.rows, x, td, side)
    return ((v, den) for v in num.tolist())


def _along(rows: Rows, x: np.ndarray, n: int, side: str) -> tuple[np.ndarray, int]:
    """Values (side "right") or left limits ("left") of the curve with these
    rows at the nondecreasing x/n: numerators over one returned denominator.

    One `searchsorted` finds each point's piece, and each distinct piece's
    `_line` is reduced and put over the lines' least common denominator D.
    With m the rows' denominator, products stay below 5m² + mn, then below
    (2m + 2)Dn (|slope| <= m, |intercept| <= m + 1): int64 under 2^63,
    object ints past it.
    """
    m = rows[0]
    y, x = _fit(5 * m * m + m * n, rows[1], x)
    k = np.searchsorted(y * n, x * m, side)
    new = np.diff(k, prepend=-1) != 0
    p, q, d = _line(rows, k[new])
    g = np.gcd(np.gcd(p, q), d)
    p, q, d = p // g, q // g, d // g
    den = math.lcm(*d.tolist())
    p, q, d, x = _fit((2 * m + 2) * den * n, p, q, d, x)
    at, scale = np.cumsum(new) - 1, den // d
    return (p * scale)[at] * x + (q * scale)[at] * n, den * n


def _line(rows: Rows, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, q, d): the line y = (p t + q)/d through each piece ks of the rows
    padded by a flat piece on each side, so that piece k starts at
    breakpoint k - 1 and the padding gives the left limit at 0 and the value
    at 1.  From the ends (x0, r0), (x1, l1) of a piece over the rows'
    denominator m, it is (m (l1 - r0), r0 x1 - l1 x0, m (x1 - x0)): d > 0 on
    sorted rows, and every product stays below 5m²."""
    m, y, lt, rt = rows
    y, lt, rt = _fit(5 * m * m, y, lt, rt)
    ys = np.concatenate(([-m], y, [2 * m]))
    ls, rs = np.concatenate((lt[:1], lt, rt[-1:])), np.concatenate((lt[:1], rt, rt[-1:]))
    x0, r0, x1, l1 = ys[ks], rs[ks], ys[ks + 1], ls[ks + 1]
    return m * (l1 - r0), r0 * x1 - l1 * x0, m * (x1 - x0)


def segment_lines(curve: Curve) -> list[tuple[int, int, int]]:
    """`_line` of the piece that starts at each breakpoint of a curve as
    Python ints; the piece at x = 1 is the constant value there."""
    rows = curve.rows
    p, q, d = _line(rows, np.arange(1, len(rows[1]) + 1))
    return list(zip(p.tolist(), q.tolist(), d.tolist()))
