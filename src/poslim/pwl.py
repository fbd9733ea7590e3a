"""Piecewise-linear right-continuous functions on [0,1] with upward jumps.

The shared representation behind CDFs and monotone threshold functions:
a tuple of breakpoints ``(x, left, right)`` with x strictly increasing,
x[0] = 0 and x[-1] = 1.  The function value at a breakpoint is `right`, the
left limit is `left`, and the function is linear between `right[i]` at x[i]
and `left[i+1]` at x[i+1].  All coordinates are exact rationals.

Evaluation at one point is a binary search, O(log m) for m breakpoints, and
at k sorted points one walk (`values_along`), O(m + k); `sup_distance` merges
two lists of m and k breakpoints in one sweep, O(m + k).  These and the checks
of `normalize` and `check_monotone` run on numerators and denominators: a
rational a/b (b > 0) is compared with c/d as a*d with c*b, so every test stays
exact without building a `Fraction` per step.

Each geometric rule of the representation calculus lives here once:
evaluation (`Curve`, the base of CDFs and threshold functions), the
reflection across x + y = 1 (`reflect`), pieces tiling [0,1] (`tiling`) and
the line through a piece (`_line`, per piece in `segment_lines`), which
evaluation, `normalize`, `sup_distance`, the sampler and the g text format's
slopes all read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

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
    return Fraction(*next(values_along(points[i : i + 2], [t.as_integer_ratio()])))


@dataclass(frozen=True)
class Curve:
    """A function held as its breakpoints, evaluated exactly.

    Subclasses bind `value` and `left_limit` in their own class body, so a
    wrapper installed on one class (as perfbench's tracer does) sees only
    that class's calls.
    """

    points: Points

    def value(self, t) -> Fraction:
        return value_at(self.points, as_fraction(t))

    def left_limit(self, t) -> Fraction:
        return left_limit_at(self.points, as_fraction(t))


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


def sup_distance(f: Points, g: Points) -> Fraction:
    """Exact sup-norm distance in one merge sweep over both breakpoint lists.

    Between consecutive breakpoints of either list both functions are linear,
    so the sup is attained at a breakpoint, as a value or a left limit.  One
    cursor per list points at its first breakpoint >= t; both lists start at
    0 and end at 1, so the cursors reach the end together.  Values are kept
    as unreduced pairs (num, den > 0); the result is one `Fraction`.
    """
    fs, gs = _ints(f), _ints(g)
    bn, bd = 0, 1
    i = j = 0
    fseg = gseg = 0  # the breakpoint whose incoming segment is fline / gline
    while i < len(fs):
        fxn, fxd, fln, fld, frn, frd = fs[i]
        gxn, gxd, gln, gld, grn, grd = gs[j]
        c = fxn * gxd - gxn * fxd
        if c > 0:  # t = x of g[j], strictly inside the segment of f ending at i
            if fseg != i:
                fseg, fline = i, _line(fs[i - 1], fs[i])
            p, q, d = fline
            fln = frn = p * gxn + q * gxd
            fld = frd = d * gxd
        elif c < 0:
            if gseg != j:
                gseg, gline = j, _line(gs[j - 1], gs[j])
            p, q, d = gline
            gln = grn = p * fxn + q * fxd
            gld = grd = d * fxd
        num, den = abs(fln * gld - gln * fld), fld * gld
        if num * bd > bn * den:
            bn, bd = num, den
        num, den = abs(frn * grd - grn * frd), frd * grd
        if num * bd > bn * den:
            bn, bd = num, den
        if c <= 0:
            i += 1
        if c >= 0:
            j += 1
    return Fraction(bn, bd)


def values_along(points: Points, ts: Iterable) -> Iterator[tuple[int, int]]:
    """Values at the nondecreasing tn/td in [0,1] as unreduced pairs (num,
    den > 0), from one walk of the integer rows and `_line`: O(m + k)."""
    rows, i = _ints(points), 0
    for tn, td in ts:
        while i + 1 < len(rows) and rows[i + 1][0] * td <= tn * rows[i + 1][1]:
            i += 1
        xn, xd, _, _, rn, rd = rows[i]
        if xn * td == tn * xd:
            yield rn, rd
        else:
            p, q, d = _line(rows[i], rows[i + 1])
            yield p * tn + q * td, d * td


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
