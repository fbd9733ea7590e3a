"""Piecewise-linear right-continuous functions on [0,1] with upward jumps.

The shared representation behind CDFs and monotone threshold functions:
a tuple of breakpoints ``(x, left, right)`` with x strictly increasing,
x[0] = 0 and x[-1] = 1.  The function value at a breakpoint is `right`, the
left limit is `left`, and the function is linear between `right[i]` at x[i]
and `left[i+1]` at x[i+1].  All coordinates are exact rationals.

Evaluation at one point is a binary search, O(log m) for m breakpoints.
`sup_distance` walks both breakpoint lists in one merge sweep, O(m + k) for
lists of m and k breakpoints.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

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


def check_monotone(points: Points) -> None:
    if not points:
        raise InvariantError("need at least one breakpoint")
    if points[0][0] != ZERO or points[-1][0] != ONE:
        raise InvariantError("breakpoints must start at 0 and end at 1")
    prev_x = None
    prev_right = None
    for x, left, right in points:
        if prev_x is not None and x <= prev_x:
            raise InvariantError("breakpoints must be strictly increasing")
        if not (ZERO <= left <= ONE and ZERO <= right <= ONE):
            raise InvariantError("values must lie in [0,1]")
        if left > right:
            raise InvariantError("jumps must be upward")
        if prev_right is not None and left < prev_right:
            raise InvariantError("segments must be nondecreasing")
        prev_x, prev_right = x, right


def normalize(points: Iterable[Sequence]) -> Points:
    """Canonical form: drop breakpoints that carry no jump and no slope change."""
    pts = [tuple(as_fraction(v) for v in p) for p in points]
    if not pts:
        raise InvariantError("need at least one breakpoint")
    pts.sort(key=lambda p: p[0])
    out = []
    for p in pts:
        if out and out[-1][0] == p[0]:
            raise InvariantError(f"duplicate breakpoint at {p[0]}")
        out.append(p)
    kept = [out[0]]
    for i in range(1, len(out) - 1):
        x, left, right = out[i]
        if left != right:
            kept.append(out[i])
            continue
        x0, _, r0 = kept[-1]
        x1, l1, _ = out[i + 1]
        # collinear with neighbours?
        if (left - r0) * (x1 - x0) == (l1 - r0) * (x - x0):
            continue
        kept.append(out[i])
    if len(out) > 1:
        kept.append(out[-1])
    return tuple(kept)


def value_at(points: Points, t: Fraction) -> Fraction:
    return _at(points, t, 2)


def left_limit_at(points: Points, t: Fraction) -> Fraction:
    """Limit from the left; at t = 0 returns the stored pre-jump value."""
    return _at(points, t, 1)


def _at(points: Points, t: Fraction, side: int) -> Fraction:
    """points[i][side] at a breakpoint x[i] = t, the linear segment elsewhere."""
    t = as_fraction(t)
    if not ZERO <= t <= ONE:
        raise InvariantError(f"argument {t} outside [0,1]")
    i = bisect_right(points, t, key=_X) - 1
    if t == points[i][0]:
        return points[i][side]
    return _interpolate(points, i + 1, t)


def _interpolate(points: Points, i: int, t: Fraction) -> Fraction:
    """Value at t strictly inside the segment that ends at breakpoint i."""
    x0, _, r0 = points[i - 1]
    x1, l1, _ = points[i]
    return r0 + (l1 - r0) * (t - x0) / (x1 - x0)


def vertices(points: Points) -> list[tuple[Fraction, Fraction]]:
    """The completed graph as a polyline (jumps become vertical segments)."""
    verts: list[tuple[Fraction, Fraction]] = []
    for x, left, right in points:
        for y in (left, right):
            if not verts or verts[-1] != (x, y):
                verts.append((x, y))
    return verts


def from_vertices(verts: Sequence[tuple[Fraction, Fraction]]) -> Points:
    """Re-read a monotone polyline covering [0,1] as breakpoint triples."""
    if not verts:
        raise InvariantError("empty polyline")
    groups: list[tuple[Fraction, Fraction, Fraction]] = []
    for x, y in verts:
        if groups and groups[-1][0] == x:
            gx, gl, _ = groups[-1]
            groups[-1] = (gx, gl, y)
        else:
            groups.append((x, y, y))
    if groups[0][0] != ZERO or groups[-1][0] != ONE:
        raise InvariantError("polyline must cover [0,1]")
    return normalize(groups)


def reflect_vertices(
    verts: Sequence[tuple[Fraction, Fraction]]
) -> list[tuple[Fraction, Fraction]]:
    """Reflect a monotone polyline across the line x + y = 1."""
    return [(ONE - y, ONE - x) for x, y in reversed(verts)]


def sup_distance(f: Points, g: Points) -> Fraction:
    """Exact sup-norm distance in one merge sweep over both breakpoint lists.

    Between consecutive breakpoints of either list both functions are linear,
    so the sup is attained at a breakpoint, as a value or a left limit.
    """
    best = ZERO
    for fl, fv, gl, gv in _merged(f, g):
        best = max(best, abs(fv - gv), abs(fl - gl))
    return best


def _merged(f: Points, g: Points):
    """(f(t-), f(t), g(t-), g(t)) at each breakpoint t of f or g, in order.

    One cursor per list points at its first breakpoint >= t; both lists start
    at 0 and end at 1, so the cursors reach the end together.
    """
    i = j = 0
    while i < len(f):
        t = min(f[i][0], g[j][0])
        fl, fv = _limits(f, i, t)
        gl, gv = _limits(g, j, t)
        yield fl, fv, gl, gv
        if f[i][0] == t:
            i += 1
        if g[j][0] == t:
            j += 1


def _limits(points: Points, i: int, t: Fraction) -> tuple[Fraction, Fraction]:
    """(left limit, value) at t, where points[i] is the first breakpoint >= t."""
    x, left, right = points[i]
    if x == t:
        return left, right
    v = _interpolate(points, i, t)
    return v, v
