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
return rows, comparing integers over one denominator.  Each curve builds its
line table (`Curve.lines`) once, on first read: the reduced line of every
piece, and the same lines over one common denominator while they stay in
int64; a step curve, flat on every piece, takes its values over their
lcm, found by one gcd, as the table with no line computed.  `_along` is
the one evaluator of every curve read: `value_at`, `left_limit_at`,
`sup_distance`, the continuity KS of `sampling` at its integer candidates
and the threshold draw `semiorders.MonotoneRC.draw` at its stream
integers.  It reads points in any order: one `searchsorted` over
lcm(m, n) and one multiply-add over the table's gathered pieces, in int64
while the table's computed reach allows it, and past it over the distinct
pieces a read hits, in int64 or object ints by their own reach.

Each geometric rule of the representation calculus lives here once:
evaluation (`Curve`, the base of CDFs and threshold functions), the
reflection across x + y = 1 (`reflect`), pieces tiling [0,1] (`tiling`) and
the line through a piece (`_line`, once per curve in its line table), which
`_along`, `segment_lines` and the g text format's slopes all read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from numbers import Rational, Real
from typing import Iterable, NamedTuple, Sequence

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
    return _at(curve, t, "right")


def left_limit_at(curve: Curve, t) -> Fraction:
    """Limit from the left; at t = 0 returns the stored pre-jump value."""
    return _at(curve, t, "left")


def _at(curve: Curve, t, side: str) -> Fraction:
    """`_along` of the curve at the one point t in [0,1]."""
    t = as_fraction(t)
    if not ZERO <= t <= ONE:
        raise InvariantError(f"argument {t} outside [0,1]")
    num, den = _along(curve, [t.numerator], t.denominator, side)
    return Fraction(int(num[0]), den)


@dataclass(frozen=True, init=False)
class Curve:
    """A function held as its rows, evaluated exactly.

    `rows` is (den, x, left, right): the breakpoints (x, left, right)/den
    as integer arrays, set once by `of_rows`, the one constructor.
    `points`, the same breakpoints as `Fraction`s, and `lines`, the line
    table every evaluation reads, are built when first read; curves compare,
    hash and print by `points`.  Subclasses bind `value` and
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

    @cached_property
    def lines(self) -> Lines:
        """The line table of the rows (`_lines`), built on first read."""
        return _lines(self.rows)

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
    """v as Python ints (numerator, denominator > 0), numpy scalars too; a
    `Fraction` or an int is known by its exact type, before the slower
    abstract-class check."""
    exact = type(v) in (Fraction, int) or isinstance(v, Rational)
    ratio = (v.numerator, v.denominator) if exact else v.as_integer_ratio()
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
    curve is read through its line table at the other's rows by `_along`,
    once if it has no jump; the differences on one side share a denominator,
    so their sup is one integer max.
    """
    best = ZERO
    for (n, x, left, right), other in ((f.rows, g), (g.rows, f)):
        jump_free = np.array_equal(other.rows[2], other.rows[3])  # its left limits are its values
        for side, ys in (("right", right), ("left", left)):
            if side == "right" or not jump_free:
                num, den = _along(other, x, n, side)
            gap = abs(ys.astype(num.dtype) * (den // n) - num).max()
            best = max(best, Fraction(int(gap), den))
    return best


class Lines(NamedTuple):
    """A curve's line table, arrays read-only, over its padded pieces (piece
    k starts at breakpoint k - 1, as in `_line`).

    (p, q, d) is each piece's line (p t + q)/d, reduced; a step curve keeps
    (0, v, L) for each value v/L over L, the lcm of its values' reduced
    denominators, found by one gcd of the values and the rows' m.  slope and
    level are the same lines over one denominator den, the lcm of every d
    (`_over`, on a curve with a slope).  `reach` is computed from them,
    max(|slope| + |level|), so it is the table's exact bound: at x/n in
    [0,1] every product of a read, and the value, stays within reach n.
    When reach reaches 2^63, no read fits int64: den, slope and level are
    None and reach is infinite.
    """

    p: np.ndarray
    q: np.ndarray
    d: np.ndarray
    den: int | None
    slope: np.ndarray | None
    level: np.ndarray | None
    reach: float


def _lines(rows: Rows) -> Lines:
    """The line table of the rows: on a step curve (each left value the
    previous right value) the padded values over L, with no `_line`;
    otherwise `_line` of every padded piece, reduced by one gcd, over the
    pieces' lcm while that stays below 2^63."""
    m, x, lt, rt = rows
    size = len(x) + 1
    if step := (lt[1:] == rt[:-1]).all():  # every piece flat at its start's right value
        q = np.concatenate((lt[:1], rt))
        den = m // math.gcd(m, int(np.gcd.reduce(q)))  # the lcm of the values' reduced denominators
        p, q, d = np.zeros(size, np.int64), q // (m // den), np.full(size, den)
    else:
        p, q, d = _line(rows, np.arange(size))
        g = np.gcd(np.gcd(p, q), d)
        p, q, d = p // g, q // g, d // g
        den = 1
        for v in set(d.tolist()):  # stop past 2^63: many distinct lines may have a vast lcm
            den = math.lcm(den, v)
            if den >> 63:
                break
    reach = math.inf
    if not den >> 63:  # a step curve's values are over den already
        slope, level, reach = (p, q, int(abs(q).max())) if step else _over(den, p, q, d)
    if reach < 1 << 63:
        slope, level = _fit(reach, slope, level)
    else:  # no read fits int64 (and den may not): no common denominator
        den, slope, level, reach = None, None, None, math.inf
    for a in (p, q, d, slope, level):
        if a is not None:
            a.flags.writeable = False
    return Lines(p, q, d, den, slope, level, reach)


def _over(den: int, p, q, d) -> tuple[np.ndarray, np.ndarray, int]:
    """(slope, level, reach): the lines (p t + q)/d put over den, a multiple
    of every d, and reach = max(|slope| + |level|).  The products are formed
    in int64 while (max |p| + max |q| + 1) den, which bounds them and d
    (1 <= d <= den), is below 2^63, in object ints past it: a step curve's
    lines keep d = L, not reduced one by one, so a zero line's d may pass
    2^63."""
    p, q, d = _fit((int(abs(p).max()) + int(abs(q).max()) + 1) * den, p, q, d)
    slope, level = p * (den // d), q * (den // d)
    return slope, level, int((abs(slope) + abs(level)).max())


def _along(curve: Curve, x: np.ndarray, n: int, side: str) -> tuple[np.ndarray, int]:
    """Values (side "right") or left limits ("left") of the curve at the
    x/n in [0,1], in any order: numerators over one returned denominator.

    One `searchsorted` of x/n against the rows' x/m, both over lcm(m, n),
    finds each point's piece in the curve's line table (`Curve.lines`).
    When the table's reach n is below 2^63, the value is two gathers and
    one int64 multiply-add over the table's common denominator den,
    returned as den n: no line, gcd or lcm is computed per read.  Past it,
    the distinct pieces the read hits (`np.unique`) are put over their
    least common denominator D (`_over`), and the read is int64 while
    their own reach times n is below 2^63, object ints past it.
    """
    m, y = curve.rows[:2]
    lcm = math.lcm(m, n)
    y, xs = _fit(lcm, y, x)
    k = np.searchsorted(y * (lcm // m), xs * (lcm // n), side)
    t = curve.lines
    if t.reach * n < 1 << 63:
        (x,) = _fit(t.reach * n, x)
        return t.slope[k] * x + t.level[k] * n, t.den * n
    hit, at = np.unique(k, return_inverse=True)
    p, q, d = (c[hit] for c in t[:3])
    den = math.lcm(*d.tolist())
    slope, level, reach = _over(den, p, q, d)
    slope, level, x = _fit(max(reach, 1) * n, slope, level, x)  # x itself is up to n
    return slope[at] * x + (level * n)[at], den * n


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
    """The line (p, q, d) of the piece that starts at each breakpoint of a
    curve, read from its line table, as Python ints; the piece at x = 1 is
    the constant value there."""
    return list(zip(*(c[1:].tolist() for c in curve.lines[:3])))
