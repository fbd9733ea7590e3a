"""Exact homomorphism / injective / induced density functionals.

All finite-poset densities are exact rationals (`fractions.Fraction`), counted
by backtracking with bitmask candidate pruning.  Monte Carlo estimation against
kernel models lives here too because it shares the tuple-product definition;
it draws its tuples through the documented counter-based streams and, for
an interval model, tests b_i < a_j on the integer ends of `draw_intervals`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .errors import BudgetExceeded, InvalidArgument
from .measures import AtomicMeasure
from .poset import FinitePoset, IntervalSample, _bits, in_star, out_star
from .rng import MC_TUPLES, SeededRng
from .sampling import INTERVAL_MODELS, draw_intervals

Kind = Literal["hom", "inj", "ind"]

_ATOMIC_BUDGET = 10**7
_DENSITY_BUDGET = 10**8  # maps count_maps may try, checked before it starts


def _count_maps(
    less: Sequence[int],
    greater: Sequence[int],
    above: Sequence[int],
    below: Sequence[int],
    apart: Sequence[int] | None,
    injective: bool,
    weights: Sequence | None = None,
):
    """Weighted number of maps phi from pattern points to target points.

    Pattern point u is below v iff bit v of ``less[u]`` is set, above v iff
    bit v of ``greater[u]`` is set; phi(v) must then lie in ``above[phi(u)]``
    or ``below[phi(u)]``.  Any other pair must land in ``apart[phi(u)]``
    unless `apart` is None, and images must be distinct when `injective`.
    Each map counts the product of ``weights`` over its images (1 when
    `weights` is None).  Points are placed most constrained first, each
    narrowing a candidate bitmask by the rows of its placed neighbours.
    """
    nq = len(less)
    full = (1 << len(above)) - 1
    w = weights if weights is not None else [1] * len(above)
    order = sorted(range(nq), key=lambda v: -(less[v].bit_count() + greater[v].bit_count()))
    image = [0] * nq

    def rec(idx: int, used: int):
        if idx == nq:
            return 1
        v = order[idx]
        cand = full & ~used if injective else full
        for u in order[:idx]:
            if (less[u] >> v) & 1:
                cand &= above[image[u]]
            elif (greater[u] >> v) & 1:
                cand &= below[image[u]]
            elif apart is not None:
                cand &= apart[image[u]]
            if not cand:
                return 0
        total = 0
        for j in _bits(cand):
            image[v] = j
            total += w[j] * rec(idx + 1, used | (1 << j))
        return total

    return rec(0, 0)


def count_maps(q: FinitePoset, p: FinitePoset, kind: Kind) -> int:
    """Number of maps q -> p of the requested kind, exact.

    The search places one point of q at a time, so it may visit every map:
    p.n^q.n for hom, (p.n)_q.n otherwise.  Past _DENSITY_BUDGET of them it
    raises BudgetExceeded before any row of p is read."""
    if kind not in ("hom", "inj", "ind"):
        raise InvalidArgument(f"kind must be hom/inj/ind, got {kind!r}")
    leaves = p.n**q.n if kind == "hom" else math.perm(p.n, q.n)
    if leaves > _DENSITY_BUDGET:
        raise BudgetExceeded(
            f"{leaves} maps of {q.n} points into {p.n} exceed the exact density's "
            f"budget of {_DENSITY_BUDGET}"
        )
    if not leaves:  # q.n > p.n: no injective map
        return 0
    apart = None
    if kind == "ind":
        full = (1 << p.n) - 1
        apart = [full & ~(p.succ[i] | p.pred[i] | (1 << i)) for i in range(p.n)]
    return _count_maps(q.succ, q.pred, p.succ, p.pred, apart, kind != "hom")


def density(q: FinitePoset, p: FinitePoset, kind: Kind) -> Fraction:
    """t(q,p), t_inj(q,p) or t_ind(q,p) as an exact rational in [0,1]."""
    count = count_maps(q, p, kind)
    if kind == "hom":
        return Fraction(count, p.n**q.n)
    if q.n > p.n:
        return Fraction(0)
    return Fraction(count, math.perm(p.n, q.n))


def automorphism_count(p: FinitePoset) -> int:
    return count_maps(p, p, "ind")


def moment_identity_check(
    p: FinitePoset, k: int, sign: Literal["minus", "plus"]
) -> tuple[Fraction, Fraction]:
    """(k-th empirical moment of normalised degree, star homomorphism density).

    The two components agree for every poset; tests assert the equality.
    """
    if not 1 <= k <= 4:
        raise InvalidArgument("k must be in 1..4")
    degrees = p.degrees(sign).tolist()
    star = in_star(k) if sign == "minus" else out_star(k)
    moment = Fraction(sum(d**k for d in degrees), p.n ** (k + 1))
    return moment, density(star, p, "hom")


# -- densities against kernel models -----------------------------------------


def kernel_density_mc(
    q: FinitePoset,
    model,
    samples: int,
    seed: int | SeededRng,
) -> tuple[float, float]:
    """Monte Carlo homomorphism density t(q, W) with a 95% half-width.

    `model` is an interval model of `sampling.draw_intervals` (a threshold
    function, rate function or interval measure) or a raw callable
    W(x, y) -> [0,1] on the unit square with the uniform distribution.
    Sample t uses positions t*|q|*k .. (t+1)*|q|*k - 1 of the tuple stream
    (k as in `rng`), whatever the split of samples across workers.
    """
    if samples < 100:
        raise InvalidArgument("samples must be at least 100")
    rng = seed if isinstance(seed, SeededRng) else SeededRng(seed)
    nq = q.n
    pairs = q.relation_pairs()

    if callable(model) and not isinstance(model, INTERVAL_MODELS):
        w = model
        rows = rng.uniforms(MC_TUPLES, samples * nq).reshape(samples, nq)

        def product(row) -> float:
            prod = 1.0
            for i, j in pairs:
                prod *= float(w(float(row[i]), float(row[j])))
                if prod == 0.0:
                    break
            return prod

        total = total_sq = 0.0
        for row in rows:
            prod = product(row)
            total += prod
            total_sq += prod * prod
    else:
        _, a, b = draw_intervals(
            model, lambda k: rng.integers(MC_TUPLES, samples * nq * k).reshape(-1, k).T
        )
        a, b = a.reshape(samples, nq), b.reshape(samples, nq)
        hit = np.ones(samples, dtype=bool)
        for i, j in pairs:
            hit &= b[:, i] < a[:, j]
        total = total_sq = float(np.count_nonzero(hit))
    est = total / samples
    var = max(total_sq / samples - est * est, 0.0)
    return est, 1.96 * math.sqrt(var / samples)


def kernel_density_atomic(q: FinitePoset, mu: AtomicMeasure) -> Fraction:
    """Exact homomorphism density of q against a finitely supported measure."""
    atoms = mu.atoms
    if len(atoms) ** q.n > _ATOMIC_BUDGET:
        raise BudgetExceeded(f"{len(atoms)}^{q.n} support tuples exceed the budget")
    # atom a precedes atom b iff its interval ends before b's begins
    p = IntervalSample([(x, y) for x, y, _ in atoms])
    weights = [w for _, _, w in atoms]
    return Fraction(_count_maps(q.succ, q.pred, p.succ, p.pred, None, False, weights))
