"""Exactly representable probability measures on the closed-interval triangle.

The triangle is {(x, y): 0 <= x <= y <= 1}, each point standing for the
closed interval [x, y]; intervals are ordered by complete precedence
(I before J iff I's right endpoint is strictly below J's left endpoint).

Two measure classes are exact-rational and closed under every operation here:

* `AtomicMeasure`      - finitely many weighted interval atoms;
* `StepKernelMeasure`  - uniform left endpoint, with the conditional law of
                          the right endpoint constant on each cell of a finite
                          partition of [0,1] (a finite atom list per cell).

Each answers its exact end marginals (`left_marginal`, `right_marginal`) and
`draw`s intervals for `sampling.draw_intervals`; `write_measure` and
`read_measure` hold their one text format, and `push_h` one algorithm each.
`StepCDF` (a `pwl.Curve`) holds one-dimensional marginals and degree
distributions, and `SupportSet` the support of such a CDF as closed
components.  The snap maps (`h_map`), the pushforwards that collapse support
gaps (`push_h`, which moves atoms by the same snap rule), the gap-averaging
canonical projection (`project_star`) and the exact equivalence test
(`equivalent`) implement the canonical-representation calculus.  Every list
of probability weights (jumps, atoms, conditionals) passes one weight rule,
`_weights`.  `push_h` and `project_star` read one cell-gap walk, `_overlaps`,
which checks by `pwl.tiling` that the support gaps tile [0,1], as
`from_cells` does for the cells.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Literal

import numpy as np

from . import pwl, textio
from .errors import FormatError, InvalidArgument, InvariantError, NotInPMinus
from .pwl import ONE, ZERO, _fit, as_fraction, over_lcm
from .rng import UNIT

HVariant = Literal["minus", "plus", "bar_plus"]
PushVariant = Literal["minus", "bar_plus"]


def _weights(pairs: Iterable) -> list:
    """(key, weight) pairs as probability weights: summed over equal keys and
    sorted by key; InvariantError unless each is positive and they sum to 1."""
    acc: dict = {}
    for key, w in pairs:
        w = as_fraction(w)
        if w <= 0:
            raise InvariantError(f"weights must be positive, got {w}")
        acc[key] = acc.get(key, ZERO) + w
    total = sum(acc.values())
    if total != ONE:
        raise InvariantError(f"weights must sum to 1 exactly, got {total}")
    return sorted(acc.items())


# -- CDFs ---------------------------------------------------------------------


class StepCDF(pwl.Curve):
    """Piecewise-linear right-continuous CDF on [0,1] with upward jumps."""

    value, left_limit = pwl.Curve.value, pwl.Curve.left_limit

    @classmethod
    def from_points(cls, raw: Iterable) -> "StepCDF":
        return cls.from_rows(pwl.read_points(raw))

    @classmethod
    def from_rows(cls, rows: pwl.Rows) -> "StepCDF":
        """The CDF of these rows, normalized and checked: F(0-) = 0, F(1) = 1."""
        den, _, left, right = rows = pwl.check_monotone(pwl.normalize(rows))
        if left[0] != 0:
            raise InvariantError("CDF must have F(0-) = 0")
        if right[-1] != den:
            raise InvariantError("CDF must have F(1) = 1")
        return cls.of_rows(*rows)

    @classmethod
    def from_jumps(cls, weighted_values: Iterable[tuple[Fraction, Fraction]]) -> "StepCDF":
        """Pure-jump CDF from (value, weight) pairs; weights must sum to 1."""
        jumps = _weights((as_fraction(v), w) for v, w in weighted_values)
        for v in (jumps[0][0], jumps[-1][0]):
            if not ZERO <= v <= ONE:
                raise InvariantError(f"jump location {v} outside [0,1]")
        pts = [] if jumps[0][0] == ZERO else [(ZERO, ZERO, ZERO)]
        cum = ZERO
        for v, w in jumps:
            pts.append((v, cum, cum + w))
            cum += w
        if jumps[-1][0] < ONE:
            pts.append((ONE, ONE, ONE))
        return cls.from_points(pts)

    @classmethod
    def uniform(cls) -> "StepCDF":
        return cls.from_points([(ZERO, ZERO, ZERO), (ONE, ONE, ONE)])

    @classmethod
    def dirac(cls, v) -> "StepCDF":
        return cls.from_jumps([(as_fraction(v), ONE)])

    def breakpoints(self) -> list[Fraction]:
        return [p[0] for p in self.points]

    @cached_property
    def continuity_values(self) -> tuple[int, np.ndarray, np.ndarray, int]:
        """(td, ks, num, den), arrays read-only, built once per CDF: the
        candidates k/td of `sampling.ks_distance_at_continuity` in order, over
        td, the least multiple of 64 that holds the reduced breakpoints, and
        the values num/den there by one `pwl._along`.  Grid and breakpoints
        are merged by one sort; a candidate is dropped if the first jump at or
        above k - td/32 is at most k + td/32: one `searchsorted` of the jumps."""
        m, x, lt, rt = self.rows
        unit = int(np.gcd.reduce(x))  # x ends at m, so m/unit is the lcm of the reduced denominators
        td = math.lcm(64, m // unit)
        # reduce on the rows' own dtype first: m may pass 2^63 while td does not
        grid, xs = pwl._fit(2 * td, range(0, td + 1, td // 64), x // unit)
        xs = xs * (td // (m // unit))
        ks = np.sort(np.concatenate((grid, xs)))
        ks = ks[np.diff(ks, prepend=-1) != 0]
        margin = td // 32  # exact: 64 divides td
        jumps = np.append(xs[lt != rt], td + margin + 1)  # past every candidate's reach
        ks = ks[jumps[np.searchsorted(jumps, ks - margin)] > ks + margin]
        num, den = pwl._along(self, ks, td, "right")
        ks.flags.writeable = num.flags.writeable = False
        return td, ks, num, den


@dataclass(frozen=True)
class SupportSet:
    """Finite union of maximal disjoint closed intervals within [0,1]."""

    intervals: tuple[tuple[Fraction, Fraction], ...]


def support_and_gaps(
    nu: StepCDF,
) -> tuple[SupportSet, list[tuple[Fraction, Fraction]]]:
    """Support components of nu and the open gaps of (0,1) minus the support.

    Gaps touching 0 or 1 are reported like interior ones; together with the
    sup/inf conventions of the snap maps this makes end gaps behave exactly
    like interior gaps.
    """
    m, x, left, right = nu.rows
    grows = np.append(right[:-1] < left[1:], False)  # F grows on the piece after x
    on = (left != right) | grows
    if not on.any():
        raise InvariantError("a CDF must increase somewhere")
    lo, hi = x[on], np.where(grows, np.append(x[1:], m), x)[on]  # [x, x] or the piece
    start = np.append(True, lo[1:] != hi[:-1])  # a component starts past the last one's end
    lo, hi = lo[start], hi[np.append(start[1:], True)]
    a, b = np.append(0, hi), np.append(lo, m)  # what lies between components, and at the ends

    def spans(ends, stops):
        return [(Fraction(e, m), Fraction(s, m)) for e, s in zip(ends.tolist(), stops.tolist())]

    return SupportSet(tuple(spans(lo, hi))), spans(a[b > a], b[b > a])


def h_map(nu: StepCDF, x, variant: HVariant) -> Fraction:
    """Snap x to the support of nu.

    minus: nearest support point strictly below (0 if none);
    plus: nearest support point strictly above (1 if none);
    bar_plus: like plus but right-continuous in x (gap membership (a, b]).
    """
    x = as_fraction(x)
    if not ZERO <= x <= ONE:
        raise InvariantError(f"argument {x} outside [0,1]")
    if variant not in ("minus", "plus", "bar_plus"):
        raise InvalidArgument(f"unknown variant {variant!r}")
    return _snap(support_and_gaps(nu)[1], x, variant)


def _snap(gaps: list[tuple[Fraction, Fraction]], x: Fraction, variant: HVariant) -> Fraction:
    """h_map's rule given the gaps: x in a gap goes to the gap's end that
    `variant` names, x on the support stays.  The gaps are sorted and
    disjoint, so only one can hold x: for plus, read as [a, b), the last
    with a <= x; otherwise, read as (a, b], the first with b >= x."""
    if variant == "plus":
        k = bisect_right(gaps, x, key=itemgetter(0)) - 1
    else:
        k = bisect_left(gaps, x, key=itemgetter(1))
    a, b = gaps[k] if 0 <= k < len(gaps) else (x, x)  # (x, x) holds no x
    if a <= x < b if variant == "plus" else a < x <= b:
        return a if variant == "minus" else b
    return x


# -- measure classes ----------------------------------------------------------


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many weighted atoms (x, y, w) inside the closed triangle."""

    atoms: tuple[tuple[Fraction, Fraction, Fraction], ...]

    @classmethod
    def from_atoms(cls, raw: Iterable) -> "AtomicMeasure":
        atoms = _weights(((as_fraction(x), as_fraction(y)), w) for x, y, w in raw)
        for (x, y), _ in atoms:
            if not ZERO <= x <= y <= ONE:
                raise InvariantError(f"atom ({x},{y}) outside the triangle")
        return cls(tuple((x, y, w) for (x, y), w in atoms))

    @classmethod
    def dirac(cls, x, y) -> "AtomicMeasure":
        return cls.from_atoms([(x, y, ONE)])

    def left_marginal(self) -> StepCDF:
        return StepCDF.from_jumps((x, w) for x, _, w in self.atoms)

    def right_marginal(self) -> StepCDF:
        return StepCDF.from_jumps((y, w) for _, y, w in self.atoms)

    def draw(self, columns) -> tuple[int, np.ndarray, np.ndarray]:
        """(den, a, b) of the atom each k of `columns(1)` picks by cumulative
        weight (`_bisect_right`)."""
        (k,) = columns(1)
        xs, ys, ws = zip(*self.atoms)
        ks = np.minimum(_bisect_right(itertools.accumulate(ws), k), len(ws) - 1)
        den, (xs, ys) = over_lcm(xs, ys)
        return den, xs[ks], ys[ks]


@dataclass(frozen=True)
class StepKernelMeasure:
    """Uniform left endpoint; per-cell constant conditional for the right one.

    `breaks` are 0 = c_0 < ... < c_m = 1; cell j spans (c_j, c_{j+1}) and its
    conditional atoms (y, p) satisfy y >= c_{j+1} and sum p = 1, so y >= x
    holds pointwise and the left marginal is Lebesgue by construction.
    """

    breaks: tuple[Fraction, ...]
    conditionals: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    @classmethod
    def from_cells(cls, cells: Iterable) -> "StepKernelMeasure":
        """Cells as (c_lo, c_hi, [(y, p), ...]); must tile [0,1] in order."""
        cells = list(cells)
        breaks = pwl.tiling(cells, "cells")
        conds = tuple(tuple(_weights((as_fraction(y), p) for y, p in c)) for _, _, c in cells)
        for c_hi, cond in zip(breaks[1:], conds):
            for y in (cond[0][0], cond[-1][0]):
                if not c_hi <= y <= ONE:
                    raise InvariantError(f"conditional atom {y} outside [{c_hi}, 1]")
        return cls(breaks, conds)

    def cells(self) -> list[tuple[Fraction, Fraction, tuple[tuple[Fraction, Fraction], ...]]]:
        return [
            (self.breaks[j], self.breaks[j + 1], self.conditionals[j])
            for j in range(len(self.conditionals))
        ]

    def canonical(self) -> "StepKernelMeasure":
        """Merge adjacent cells with identical conditionals."""
        merged: list[list] = []
        for c_lo, c_hi, cond in self.cells():
            if merged and merged[-1][2] == cond:
                merged[-1][1] = c_hi
            else:
                merged.append([c_lo, c_hi, cond])
        return StepKernelMeasure.from_cells(tuple(tuple(c) for c in merged))

    def left_marginal(self) -> StepCDF:
        return StepCDF.uniform()

    def right_marginal(self) -> StepCDF:
        return StepCDF.from_jumps(
            (y, (c_hi - c_lo) * p) for c_lo, c_hi, cond in self.cells() for y, p in cond
        )

    def draw(self, columns) -> tuple[int, np.ndarray, np.ndarray]:
        """(den, a, b) of [u, y] for each k1, k2 of `columns(2)`: u = k1/UNIT,
        and k2 picks y from u's cell's conditional by cumulative probability."""
        k1, k2 = columns(2)
        conds = self.conditionals
        cells = np.minimum(_bisect_right(self.breaks, k1) - 1, len(conds) - 1)
        atoms = np.cumsum([0, *map(len, conds)])[cells]  # each cell's first atom
        for c, cond in enumerate(conds):
            here = cells == c
            cum = itertools.accumulate(p for _, p in cond)
            atoms[here] += np.minimum(_bisect_right(cum, k2[here]), len(cond) - 1)
        den, (ys,) = over_lcm([y for cond in conds for y, _ in cond], den=UNIT)
        return den, _fit(den, k1)[0] * (den // UNIT), ys[atoms]


# `|`, not typing.Union: typing caches a Union, and with it these classes,
# across every re-import of the package
Measure = AtomicMeasure | StepKernelMeasure


def _bisect_right(xs: Iterable[Fraction], k: np.ndarray) -> np.ndarray:
    """`bisect_right(xs, k/UNIT)` for each stream integer k, exact: k/UNIT
    >= x iff k >= ceil(x UNIT), so the nondecreasing xs become integers."""
    at_or_above = np.array([math.ceil(x * UNIT) for x in xs], dtype=np.int64)
    return np.searchsorted(at_or_above, k, side="right")


def push_h(mu: Measure, variant: PushVariant) -> AtomicMeasure:
    """Image of mu under (x, y) -> (h(x), y) with h snapped to supp of mu's
    right marginal.

    Both exact classes have finitely supported right marginals, so the gaps
    cover all of (0,1) except finitely many points and the image is purely
    atomic; any uniform piece where h would be the identity has Lebesgue
    measure zero and cannot retain mass.
    """
    if variant not in ("minus", "bar_plus"):
        raise InvalidArgument(f"push variant must be minus or bar_plus, got {variant!r}")
    if isinstance(mu, AtomicMeasure):
        _, gaps = support_and_gaps(mu.right_marginal())
        return AtomicMeasure.from_atoms((_snap(gaps, x, variant), y, w) for x, y, w in mu.atoms)
    return AtomicMeasure.from_atoms(
        (a if variant == "minus" else b, y, overlap * p)
        for (a, b), overlap, cond in _overlaps(mu)
        for y, p in cond
    )


def project_star(mu: StepKernelMeasure) -> StepKernelMeasure:
    """Average the conditional over each support gap of the right marginal.

    The result is the canonical representative of mu's equivalence class:
    idempotent, same right marginal, same snapped pushforwards.
    """
    shares: dict = {}  # from_cells merges equal y
    for (a, b), overlap, cond in _overlaps(mu):
        shares.setdefault((a, b), []).extend((y, overlap * p / (b - a)) for y, p in cond)
    return StepKernelMeasure.from_cells((a, b, s) for (a, b), s in shares.items())


def _overlaps(mu: StepKernelMeasure):
    """(gap, overlap length, conditional) for each support gap of mu's right
    marginal, in order, and each cell of mu it overlaps by a positive length.
    The gaps must tile [0,1] (`pwl.tiling`), so each cell's mass is used up."""
    _, gaps = support_and_gaps(mu.right_marginal())
    pwl.tiling(gaps, "support gaps")
    for a, b in gaps:
        for c_lo, c_hi, cond in mu.cells():
            overlap = min(c_hi, b) - max(c_lo, a)
            if overlap > 0:
                yield (a, b), overlap, cond


def equivalent(mu: StepKernelMeasure, mu_prime: StepKernelMeasure) -> bool:
    """Do the two left-uniform measures define the same interval-order limit?

    True iff the gap-averaged canonical forms coincide exactly.
    """
    a = project_star(mu).canonical()
    b = project_star(mu_prime).canonical()
    return a == b


# -- distributions dominated by uniform --------------------------------------


def check_p_minus(nu: StepCDF) -> None:
    """Raise NotInPMinus unless F(t) >= t everywhere.

    For a piecewise-linear CDF it is enough to check values and left limits
    at the breakpoints: two integer comparisons a row of `nu.rows`.
    """
    den, x, left, right = nu.rows
    for i in np.flatnonzero((right < x) | (left < x))[:1]:  # the first fault, if any
        side, v = ("", right[i]) if right[i] < x[i] else ("-", left[i])
        t, v = Fraction(int(x[i]), den), Fraction(int(v), den)
        raise NotInPMinus(f"F({t}{side}) = {v} < {t}")


# -- text formats -------------------------------------------------------------


def write_measure(mu: Measure) -> str:
    if isinstance(mu, AtomicMeasure):
        lines = [textio.fields(*atom) for atom in mu.atoms]
        return textio.write_rows("atoms", len(lines), lines)
    if isinstance(mu, StepKernelMeasure):
        lines = []
        for c_lo, c_hi, cond in mu.cells():
            atoms = [token for y, p in cond for token in (";", y, p)]
            lines.append(textio.fields(c_lo, c_hi, ":", *atoms[1:]))
        return textio.write_rows("stepmeasure", len(lines), lines)
    raise TypeError(f"not a measure: {mu!r}")


def read_measure(text: str) -> Measure:
    """`atoms <k>` then `x y w` rows, or `stepmeasure <m>` then cell rows
    `c_lo c_hi : y1 p1 ; y2 p2 ; ...`."""
    kind, count, start = textio.read_header(text, "atoms", "stepmeasure")
    lines = textio.row_lines(text[start:], count)
    if kind == "atoms":
        return AtomicMeasure.from_atoms(textio.rows(lines, 3))
    cells = []
    for ln in lines:
        bounds, colon, conds = ln.partition(":")
        if not colon:
            raise FormatError(f"bad cell line: {ln!r}")
        c_lo, c_hi = textio.rows([bounds], 2)[0]
        cells.append((c_lo, c_hi, textio.rows(conds.split(";"), 2)))
    return StepKernelMeasure.from_cells(cells)
