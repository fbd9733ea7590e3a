"""Random poset generation, empirical degree statistics and diagnostics.

Sampling is fully deterministic given a seed: every uniform comes from an
addressed position of a counter-based stream (see `rng`), so identical seeds
and parameters produce bit-identical posets regardless of how work is split.

The built-in kernels are all indicators of interval precedence: a threshold
function g turns point x into the interval [x, g(x)], a measure on the
triangle draws intervals directly, and in both cases i < j holds iff
interval i ends strictly before interval j begins.  Each interval model's
`draw` (`MonotoneRC`, `RateFunction` through its g, `StepKernelMeasure`,
`AtomicMeasure`) turns the stream integers k of the uniforms k/2^53 into
exact intervals, integer arrays of ends over one denominator.
`draw_intervals`, the sampler's and `densities.kernel_density_mc`'s one
entry point, refuses anything else with `TypeError` before anything is drawn.

A sample from an interval model is a `poset.IntervalSample`.  Nothing here
asks which class a poset is: degree statistics read `degrees`, and both
fingerprints code numpy blocks of point tuples in base 3 by `precedes` calls,
one digit per earlier point, and read each code's class from one table, so a
sample answers from its endpoint ranks and never builds its bitmasks.  The
Kolmogorov distances read curves through their line tables: the continuity
KS reads the sample's curve by `pwl._along` at the integer candidates the
target caches with its values there, so no `Fraction` is built per
candidate.  Whatever one g or one target serves many samples builds once on
that object: a rate's g, the line table of g or of a target, and a target's
continuity candidates.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Literal

import numpy as np

from . import textio
from .errors import BudgetExceeded, InvalidArgument, InvariantError, SizeLimit
from .measures import AtomicMeasure, StepCDF, StepKernelMeasure
from .poset import (
    FinitePoset,
    IntervalSample,
    cached_catalog,
    chain,
    three_plus_one,
    transitive_closure,
    two_plus_two,
)
from .pwl import _along, _fit, sup_distance
from .recognition import is_semiorder
from .rng import CONDITIONALS, EDGES, POINTS, SUBSETS, SeededRng
from .semiorders import MonotoneRC, RateFunction, f_minus, f_plus

Sign = Literal["minus", "plus"]
SamplerModel = MonotoneRC | RateFunction | StepKernelMeasure | AtomicMeasure  # see measures.Measure

_FINGERPRINT_MAX = 5
_FINGERPRINT_BLOCK = 1 << 11  # most subsets in a block of the exact fingerprint's walk
_FINGERPRINT_BUDGET = 10**7  # subsets the exact fingerprint may classify


# -- interval models ----------------------------------------------------------


def draw_intervals(model: SamplerModel, columns) -> tuple[int, np.ndarray, np.ndarray]:
    """(den, a, b): the left and right ends, integer arrays over den, of the
    model's own `draw`, one per entry of the k arrays of stream integers
    `columns(k)` returns (k = 2 for a step measure, else 1).  Anything that
    is not an interval model raises TypeError before `columns` is called."""
    if not hasattr(model, "draw"):
        raise TypeError(f"unsupported sampler model: {model!r}")
    return model.draw(columns)


# -- poset construction -------------------------------------------------------


def sample_kernel_poset(kernel: SamplerModel, n: int, rng: SeededRng) -> FinitePoset:
    """Random n-point poset from an interval model (threshold g, rate
    function, step or atomic measure), as an `IntervalSample`, whose
    bitmasks are built only when read.  Point i is drawn by `draw_intervals`
    from position i of the POINTS stream (and position i of CONDITIONALS
    for a step measure).  n above `textio.MAX_POINTS` raises SizeLimit
    before anything is drawn.
    """
    if n < 1:
        raise InvalidArgument("n must be at least 1")
    if n > textio.MAX_POINTS:
        raise SizeLimit(f"sampled posets capped at {textio.MAX_POINTS} points")
    streams = (POINTS, CONDITIONALS)
    ends = draw_intervals(kernel, lambda k: [rng.integers(s, n) for s in streams[:k]])
    return IntervalSample.from_ends(*ends)


# -- empirical degree statistics ----------------------------------------------


def nu_empirical(p: FinitePoset, sign: Sign) -> StepCDF:
    """Empirical CDF of normalised predecessor (minus) or successor counts.

    The number of points of each degree is read from `degree_counts`, which
    an `IntervalSample` answers from its sorted ends without their exact
    order, and accumulated once.  The CDF is held as integer rows over n
    (`StepCDF.of_rows`): each distinct degree d, the number lo of points of
    smaller degree and hi of degree at most d, read as (d/n, lo/n, hi/n),
    then (1, 1, 1).  Every inner breakpoint carries a jump, so the rows are
    canonical; the `Fraction` points are built only when read."""
    if (n := p.n) < 1:
        raise InvariantError("posets are non-empty")
    counts = p.degree_counts(sign)
    ds = np.flatnonzero(counts)  # from 0: some point is minimal (maximal)
    hi = np.cumsum(counts[ds])
    return StepCDF.of_rows(n, np.append(ds, n), np.append(hi - counts[ds], n), np.append(hi, n))


def ks_distance(f: StepCDF, g: StepCDF) -> Fraction:
    """Exact sup-norm distance between two piecewise-linear CDFs."""
    return sup_distance(f, g)


def ks_distance_at_continuity(f: StepCDF, g: StepCDF) -> Fraction:
    """Sup of |f - g| over the grid k/64 and the breakpoints of g, leaving
    out points within 1/32 of a jump of g.

    The plain sup-norm does not metrize convergence in distribution at atoms
    of the target: an empirical atom lands a random O(n^-1/2) offset away and
    the adaptive sup picks the discrepancy up as the full atom mass.  A fixed
    grid that stays 1/32 away from the target's jump points is the
    documented comparison for atom-carrying targets (the margin should
    dominate the sampling fluctuation scale, a few n^-1/2).  The integer
    candidates and g's values there are built once per g and cached
    (`StepCDF.continuity_values`); f is read at them by `pwl._along`, so the
    sup is one integer max, in object ints past int64.  The read goes
    through f's line table, which for an empirical CDF is its values over
    their lcm, one gcd per CDF and no line computed, so a read costs no gcd
    or lcm while it fits int64.
    """
    td, ks, gn, gd = g.continuity_values
    fn, fd = _along(f, ks, td, "right")
    fn, gn = _fit(fd * gd, fn, gn)  # values in [0,1]: every product is at most fd gd
    return Fraction(int(abs(fn * gd - gn * fd).max(initial=0)), fd * gd)


# -- fingerprints -------------------------------------------------------------


@dataclass(frozen=True)
class FingerprintEntry:
    poset_id: str
    label: str
    value: object  # Fraction when exact, float when estimated
    half_width: object

    def as_row(self) -> list:
        return [self.poset_id, self.label, str(self.value), str(self.half_width)]


@dataclass(frozen=True)
class Fingerprint:
    catalog_size: int
    entries: tuple[FingerprintEntry, ...]

    def value(self, poset_id: str):
        for e in self.entries:
            if e.poset_id == poset_id:
                return e.value
        raise KeyError(poset_id)


def _check_fingerprint_size(max_q: int) -> None:
    if max_q < 1:
        raise InvalidArgument(f"max_q must be at least 1, got {max_q}")
    if max_q > _FINGERPRINT_MAX:
        raise SizeLimit(f"fingerprint patterns capped at size {_FINGERPRINT_MAX}")


def _digits(p: FinitePoset, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Sum of d_u 3^u over the rows u of `old`, an (s, m) array of points,
    for the m points `new`: d_u = 0 incomparable, 1 below the new point, 2
    above it."""
    return 3 ** np.arange(len(old)) @ (p.precedes(old, new) + 2 * p.precedes(new, old))


def _tuple_codes(p: FinitePoset, tuples: np.ndarray) -> np.ndarray:
    """Code of each column of an (s, m) array of distinct points: the code
    of its first v points times 3^v plus `_digits` of point v, for v = 1..s-1.
    An s-tuple's code is below 3^(s(s-1)/2), 3^10 at s = 5, far inside int64."""
    code = np.zeros(tuples.shape[1], np.int64)
    for v in range(1, len(tuples)):
        code = code * 3**v + _digits(p, tuples[:v], tuples[v])
    return code


def _subset_blocks(p: FinitePoset, max_q: int, points=None, codes=None):
    """(s, codes) of every s-subset of p's points, s = 1..max_q, in blocks
    of at most _FINGERPRINT_BLOCK, by one walk down the subset tree: each
    sorted column of an (s, m) block is extended by every larger point, and
    a child's code is its parent's times 3^s plus the `_digits` of the new
    point, as `_tuple_codes` gives the sorted subset.  One block a level:
    O(max_q² _FINGERPRINT_BLOCK) integers whatever n."""
    if points is None:  # the root: the empty subset, coded 0
        points, codes = np.empty((0, 1), np.int64), np.zeros(1, np.int64)
    if s := len(points):
        yield s, codes
    if s == max_q:
        return
    ends = np.cumsum(p.n - 1 - (points[-1] if s else -1))  # parent i's children end at ends[i]
    starts, shift, scaled = np.r_[0, ends[:-1]], p.n - ends, codes * 3**s
    for lo in range(0, int(ends[-1]), _FINGERPRINT_BLOCK):
        hi = min(lo + _FINGERPRINT_BLOCK, int(ends[-1]))
        first, last = ends.searchsorted([lo, hi - 1], "right")  # parents of children lo, hi - 1
        kids = np.minimum(ends[first : last + 1], hi) - np.maximum(starts[first : last + 1], lo)
        parent = np.repeat(np.arange(first, last + 1), kids)
        old, new = points.take(parent, axis=1), np.arange(lo, hi) + shift[parent]
        child = scaled[parent] + _digits(p, old, new)
        yield from _subset_blocks(p, max_q, np.vstack([old, new]), child)


@lru_cache(maxsize=8)
def _pattern_table(s: int) -> tuple[np.ndarray, list[int], list[str], list[str]]:
    """(table, auts, ids, labels) of the size-s catalog classes: table[code]
    is the class position of an s-tuple coded by `_tuple_codes`, or the
    number of classes for a code that is no poset's.  A class whose s!
    orderings give k distinct codes has s!/k automorphisms.  A named class
    is found by the code of one of its orderings; the antichain, code 0,
    is named last, so one point is `antichain1`."""
    cat = cached_catalog(s)
    classes = [(idx, q) for idx, q in enumerate(cat.classes) if q.n == s]
    perms = np.array(list(itertools.permutations(range(s))), np.int64).T
    table = np.full(3 ** (s * (s - 1) // 2), len(classes), np.int64)
    auts, ids = [], []
    for pos, (idx, q) in enumerate(classes):
        codes = list(set(_tuple_codes(q, perms).tolist()))
        table[codes] = pos
        auts.append(math.factorial(s) // len(codes))
        ids.append(cat.class_id(idx))
    labs = [""] * len(classes)
    for q, lab in [(chain(s), f"chain{s}"), (two_plus_two(), "2+2"), (three_plus_one(), "3+1")]:
        if q.n == s:
            labs[table[_tuple_codes(q, perms[:, :1])[0]]] = lab
    labs[table[0]] = f"antichain{s}"
    return table, auts, ids, labs


def fingerprint(p: FinitePoset, max_q: int) -> Fingerprint:
    """Exact induced densities of every catalog pattern up to size max_q.

    Every s-subset of points is classified by its code from one walk down
    the subset tree, a bounded block of subsets per numpy step, so memory
    stays bounded whatever C(n, s) is; a class met by c subsets has c * |Aut|
    induced embeddings out of (n)_s maps.  Past _FINGERPRINT_BUDGET subsets
    in all it raises BudgetExceeded before any block is built.
    """
    _check_fingerprint_size(max_q)
    subsets = sum(math.comb(p.n, s) for s in range(1, max_q + 1))
    if subsets > _FINGERPRINT_BUDGET:
        raise BudgetExceeded(
            f"{subsets} subsets of {p.n} points up to size {max_q} exceed the "
            f"exact fingerprint's budget of {_FINGERPRINT_BUDGET}"
        )
    sizes = range(1, max_q + 1)
    counts = {s: np.zeros(len(_pattern_table(s)[1]) + 1, np.int64) for s in sizes}
    for s, codes in _subset_blocks(p, max_q):
        counts[s] += np.bincount(_pattern_table(s)[0][codes], minlength=len(counts[s]))
    entries = []
    for s in sizes:
        _, auts, ids, labs = _pattern_table(s)
        *counted, unknown = counts[s].tolist()
        if unknown:
            raise InvariantError(f"{unknown} subsets of {s} points are not partially ordered")
        maps = math.perm(p.n, s)  # 0 when s > n, and then every count is 0
        for pos, c in enumerate(counted):
            value = Fraction(c * auts[pos], maps) if c else Fraction(0)
            entries.append(FingerprintEntry(ids[pos], labs[pos], value, Fraction(0)))
    return Fingerprint(max_q, tuple(entries))


def fingerprint_estimate(
    p: FinitePoset, max_q: int, subsets: int, rng: SeededRng
) -> Fingerprint:
    """Unbiased estimate of the induced-density fingerprint by random tuples.

    For each pattern size s, `subsets` ordered s-tuples of distinct points
    are drawn from position 0 on of SUBSETS stream s; the frequency of each
    labelled pattern class, scaled by |Aut| / s!, estimates the induced
    density.  Intended for posets too large for exact counting.  Each size
    draws from 4 * subsets tuples; if fewer than `subsets` of them have
    distinct points (n small next to s), it raises BudgetExceeded.  The
    first ceil(1.25 * subsets) tuples, a prefix of the same positions, are
    read first, and the rest only if the prefix holds too few.  Sizes
    above n draw nothing and report 0, so the entries list the same patterns
    as `fingerprint`.
    """
    _check_fingerprint_size(max_q)
    if subsets < 1:
        raise InvalidArgument(f"subsets must be at least 1, got {subsets}")
    n = p.n
    _, _, ids, labs = _pattern_table(1)  # one point: density 1, drawn from nothing
    entries = [FingerprintEntry(ids[0], labs[0], 1.0, 0.0)]
    for s in range(2, max_q + 1):
        table, auts, ids, labs = _pattern_table(s)
        if s > n:  # no s distinct points: every density is 0, nothing drawn
            entries += [FingerprintEntry(i, lab, 0.0, 0.0) for i, lab in zip(ids, labs)]
            continue
        for count in (-(-5 * subsets // 4), 4 * subsets):  # a prefix first, then all
            us = rng.uniforms(SUBSETS, count * s, index=s)
            tuples = np.minimum((us * n).astype(np.int64), n - 1).reshape(-1, s)
            pairs = itertools.combinations(tuples.T, 2)  # distinct: every column pair differs
            tuples = tuples[np.logical_and.reduce([a != b for a, b in pairs])]
            if len(tuples) >= subsets:
                break
        else:
            raise BudgetExceeded(
                f"{count} random {s}-tuples of {n} points gave fewer "
                f"than subsets={subsets} with {s} distinct points"
            )
        codes = _tuple_codes(p, tuples[:subsets].T)
        *counts, unknown = np.bincount(table[codes], minlength=len(auts) + 1).tolist()
        if unknown:
            raise InvariantError(f"{unknown} of {subsets} {s}-tuples are not partially ordered")
        fact = math.factorial(s)
        for c, aut, pid, lab in zip(counts, auts, ids, labs):
            freq = c / subsets
            scale = aut / fact
            se = math.sqrt(max(freq * (1 - freq), 0.0) / subsets) * scale
            entries.append(FingerprintEntry(pid, lab, freq * scale, 1.96 * se))
    return Fingerprint(max_q, tuple(entries))


# -- random graph orders ------------------------------------------------------


def c_parameter(n: int, p) -> float:
    """The limit shift parameter min(log(1/p) / (p n), 1)."""
    pf = float(p)
    if not 0 < pf <= 1:
        raise InvalidArgument("p must be in (0, 1]")
    if n < 1:
        raise InvalidArgument("n must be at least 1")
    return min(math.log(1.0 / pf) / (pf * n), 1.0)


def p_for_c(n: int, c: float) -> float:
    """Inverse of c_parameter in p, by bisection (c in [0, 1))."""
    if not 0 <= c < 1:  # NaN fails too
        raise InvalidArgument(f"c must be in [0, 1), got {c}")
    if c == 0:
        return 1.0
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if c_parameter(n, mid) > c:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def random_graph_order(n: int, p, rng: SeededRng) -> FinitePoset:
    """Transitive closure of a random directed graph on the labelled chain.

    Edge (i, j), i < j, is present with probability p and read from position
    j of EDGES stream i (`SeededRng.upper_rows`); `poset.transitive_closure`
    closes the edges.
    """
    pf = float(p)
    if not 0 < pf <= 1:
        raise InvalidArgument("p must be in (0, 1]")
    if n < 1:
        raise InvalidArgument("n must be at least 1")
    if n > textio.MAX_POINTS:
        raise SizeLimit(f"random graph orders capped at {textio.MAX_POINTS} points")
    heads = [i + 1 + np.flatnonzero(row < pf) for i, row in enumerate(rng.upper_rows(EDGES, n))]
    tails = np.repeat(np.arange(n), [len(h) for h in heads])
    return transitive_closure(n, tails, np.concatenate(heads))


# -- convergence diagnostics --------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    index: int
    n: int
    semiorder: bool
    ks_prev: float | None
    ks_minus_target: float | None
    ks_plus_target: float | None


@dataclass(frozen=True)
class ConvergenceReport(textio.RowReport):
    rows: tuple[ConvergenceRow, ...]
    verdict: str
    threshold: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    row_type = ConvergenceRow

    def meta(self) -> dict:
        notes = list(self.notes)
        return {"verdict": self.verdict, "threshold": self.threshold, "notes": notes}


def _trend_verdict(series: list[float], threshold: float) -> str:
    if len(series) < 2:
        return "insufficient-data"
    slack = threshold / 4
    weakly_decreasing = all(b <= a + slack for a, b in zip(series, series[1:]))
    if weakly_decreasing and series[-1] <= threshold:
        return "converging"
    return "not-converging"


def converge_diagnostic(
    posets: Iterable[FinitePoset],
    target_g: MonotoneRC | None = None,
    threshold: float = 0.05,
) -> ConvergenceReport:
    """Kolmogorov distances of successive degree distributions, with verdict.

    The verdict rule (last distance at most `threshold` and no successive
    increase beyond threshold/4) is a heuristic, not a theorem.  Inputs that
    are not semiorders are reported in `notes`: the degree-distribution
    criterion characterises convergence only within semiorders.  A
    threshold that is negative, infinite or NaN raises `InvalidArgument`.
    """
    if not 0 <= threshold < math.inf:
        raise InvalidArgument(f"threshold must be finite and at least 0, got {threshold}")
    ps = list(posets)
    semis = [is_semiorder(p) for p in ps]  # first: a sample's degree counts then read its degrees
    notes = [
        f"input {k} is not a semiorder; the degree-distribution convergence criterion "
        "assumes semiorders" for k, semi in enumerate(semis) if not semi
    ]
    for msg in notes:
        warnings.warn(msg, stacklevel=2)
    minus_cdfs = [nu_empirical(p, "minus") for p in ps]
    if target_g is not None:
        plus_cdfs = [nu_empirical(p, "plus") for p in ps]
        target_minus, target_plus = f_minus(target_g), f_plus(target_g)
    rows = []
    for k, (p, semi) in enumerate(zip(ps, semis)):
        ks_prev = float(ks_distance(minus_cdfs[k - 1], minus_cdfs[k])) if k else None
        km = kp = None
        if target_g is not None:
            km = float(ks_for_target(minus_cdfs[k], target_minus))
            kp = float(ks_for_target(plus_cdfs[k], target_plus))
        rows.append(ConvergenceRow(k, p.n, semi, ks_prev, km, kp))
    series = [r.ks_prev if target_g is None else r.ks_minus_target for r in rows]
    verdict = _trend_verdict([s for s in series if s is not None], threshold)
    return ConvergenceReport(tuple(rows), verdict, threshold, tuple(notes))


def ks_for_target(empirical: StepCDF, target: StepCDF) -> Fraction:
    """Full sup-norm for continuous targets; the fixed continuity grid kept
    1/32 away from atoms otherwise (the sup does not metrize weak
    convergence at atoms of the target).

    Against a target whose jumps lie closer than 1/16, such as `f_minus` of
    a g estimated from a sample, the grid keeps only candidates where both
    curves are 0 or 1, so the distance reads about 0 (measured in README)."""
    if (target.rows[2] != target.rows[3]).any():
        return ks_distance_at_continuity(empirical, target)
    return ks_distance(empirical, target)


# -- statistical equivalence test ---------------------------------------------


@dataclass(frozen=True)
class EquivalenceRow:
    poset_id: str
    label: str
    mean_a: float
    se_a: float
    mean_b: float
    se_b: float
    flagged: bool


@dataclass(frozen=True)
class EquivalenceReport(textio.RowReport):
    rows: tuple[EquivalenceRow, ...]
    n: int
    trials: int

    row_type = EquivalenceRow

    def flagged_ids(self) -> list[str]:
        return [r.poset_id for r in self.rows if r.flagged]

    def any_flagged(self) -> bool:
        return any(r.flagged for r in self.rows)

    def meta(self) -> dict:
        return {"n": self.n, "trials": self.trials, "flagged": self.flagged_ids()}


def equivalence_test_statistical(
    a: SamplerModel,
    b: SamplerModel,
    n: int,
    trials: int,
    rng: SeededRng,
    max_q: int = 4,
    subsets: int = 1200,
) -> EquivalenceReport:
    """Compare two samplers through estimated induced-density fingerprints.

    Trial t samples an n-point poset from each side (children spawn(2t) and
    spawn(2t+1)) and estimates every catalog density of size <= max_q; a
    pattern is flagged when the two 4-standard-error intervals around the
    trial means are disjoint.
    """
    if trials < 30:
        raise InvalidArgument("at least 30 trials are required")
    # every estimate lists the catalog in the same order
    estimates: dict[str, list[tuple[FingerprintEntry, ...]]] = {"a": [], "b": []}
    for t in range(trials):
        for side, model in (("a", a), ("b", b)):
            child = rng.spawn(2 * t if side == "a" else 2 * t + 1)
            p = sample_kernel_poset(model, n, child)
            estimates[side].append(fingerprint_estimate(p, max_q, subsets, child).entries)

    def stats(values: list[float]) -> tuple[float, float]:
        m = sum(values) / len(values)
        var = sum((v - m) ** 2 for v in values) / (len(values) - 1)  # trials >= 30
        return m, math.sqrt(var / len(values))

    rows = []
    for pos, e in enumerate(estimates["a"][0]):
        ma, sa = stats([float(es[pos].value) for es in estimates["a"]])
        mb, sb = stats([float(es[pos].value) for es in estimates["b"]])
        flagged = abs(ma - mb) > 4.0 * (sa + sb)
        rows.append(EquivalenceRow(e.poset_id, e.label, ma, sa, mb, sb, flagged))
    return EquivalenceReport(tuple(rows), n, trials)
