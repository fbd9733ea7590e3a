"""Exact homomorphism / injective / induced density functionals.

All finite-poset densities are exact rationals (`fractions.Fraction`), counted
by backtracking with bitmask candidate pruning.  Monte Carlo estimation against
kernel models lives here too because it shares the tuple-product definition;
it draws its tuples through the documented counter-based streams.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Literal

from .errors import BudgetExceeded, InvalidArgument
from .measures import AtomicMeasure, StepKernelMeasure
from .poset import FinitePoset, _bits, in_star, out_star
from .rng import MC_TUPLES, SeededRng
from .semiorders import MonotoneRC, RateFunction

Kind = Literal["hom", "inj", "ind"]

_ATOMIC_BUDGET = 10**7


def count_maps(q: FinitePoset, p: FinitePoset, kind: Kind) -> int:
    """Number of maps q -> p of the requested kind, exact."""
    if kind not in ("hom", "inj", "ind"):
        raise InvalidArgument(f"kind must be hom/inj/ind, got {kind!r}")
    nq, np_ = q.n, p.n
    if kind != "hom" and nq > np_:
        return 0
    full = (1 << np_) - 1
    incomp_p = [full & ~(p.succ[i] | p.pred[i] | (1 << i)) for i in range(np_)]
    # place the most constrained pattern points first
    order = sorted(
        range(nq),
        key=lambda v: -(q.succ[v].bit_count() + q.pred[v].bit_count()),
    )
    image = [0] * nq
    injective = kind != "hom"

    def rec(idx: int, used: int) -> int:
        if idx == nq:
            return 1
        v = order[idx]
        cand = full & ~used if injective else full
        for k_idx in range(idx):
            u = order[k_idx]
            target = image[u]
            if q.less(u, v):
                cand &= p.succ[target]
            elif q.less(v, u):
                cand &= p.pred[target]
            elif kind == "ind":
                cand &= incomp_p[target]
            if not cand:
                return 0
        total = 0
        for j in _bits(cand):
            image[v] = j
            total += rec(idx + 1, used | (1 << j))
        return total

    return rec(0, 0)


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
    masks = p.pred if sign == "minus" else p.succ
    n = p.n
    moment = Fraction(sum(m.bit_count() ** k for m in masks), n ** (k + 1))
    star = in_star(k) if sign == "minus" else out_star(k)
    return moment, density(star, p, "hom")


# -- densities against kernel models -----------------------------------------


def kernel_density_mc(
    q: FinitePoset,
    model,
    samples: int,
    seed: int | SeededRng,
) -> tuple[float, float]:
    """Monte Carlo homomorphism density t(q, W) with a 95% half-width.

    `model` is anything `sampling.interval_model` understands (a threshold
    function, rate function or interval measure) or a raw callable
    W(x, y) -> [0,1] on the unit square with the uniform distribution.
    Sample t uses positions t*|q| .. t*|q|+|q|-1 of the tuple stream, so the
    estimate is independent of how samples are split across workers.
    """
    from .sampling import interval_model  # deferred; no cycle at call time

    if samples < 100:
        raise InvalidArgument("samples must be at least 100")
    rng = seed if isinstance(seed, SeededRng) else SeededRng(seed)
    nq = q.n
    pairs = q.relation_pairs()

    if callable(model) and not isinstance(
        model, (MonotoneRC, RateFunction, StepKernelMeasure, AtomicMeasure)
    ):
        w = model
        us = rng.uniforms(MC_TUPLES, samples * nq).reshape(samples, nq)

        def product(row) -> float:
            prod = 1.0
            for i, j in pairs:
                prod *= float(w(float(row[i]), float(row[j])))
                if prod == 0.0:
                    break
            return prod

    else:
        mdl = interval_model(model)
        k = mdl.per_point
        us = rng.uniforms(MC_TUPLES, samples * nq * k).reshape(samples, nq, k)

        def product(row) -> float:
            intervals = [mdl.interval_at(*(float(u) for u in row[i])) for i in range(nq)]
            for i, j in pairs:
                if not intervals[i][1] < intervals[j][0]:
                    return 0.0
            return 1.0

    total = 0.0
    total_sq = 0.0
    for row in us:
        prod = product(row)
        total += prod
        total_sq += prod * prod
    est = total / samples
    var = max(total_sq / samples - est * est, 0.0)
    return est, 1.96 * math.sqrt(var / samples)


def kernel_density_atomic(q: FinitePoset, mu: AtomicMeasure) -> Fraction:
    """Exact homomorphism density of q against a finitely supported measure."""
    atoms = mu.atoms
    m = len(atoms)
    if m**q.n > _ATOMIC_BUDGET:
        raise BudgetExceeded(f"{m}^{q.n} support tuples exceed the budget")
    nq = q.n
    order = sorted(
        range(nq),
        key=lambda v: -(q.succ[v].bit_count() + q.pred[v].bit_count()),
    )
    choice = [0] * nq

    def rec(idx: int, weight: Fraction) -> Fraction:
        if idx == nq:
            return weight
        v = order[idx]
        total = Fraction(0)
        for a in range(m):
            ok = True
            for k_idx in range(idx):
                u = order[k_idx]
                b = choice[u]
                if q.less(u, v) and not atoms[b][1] < atoms[a][0]:
                    ok = False
                    break
                if q.less(v, u) and not atoms[a][1] < atoms[b][0]:
                    ok = False
                    break
            if ok:
                choice[v] = a
                total += rec(idx + 1, weight * atoms[a][2])
        return total

    return rec(0, Fraction(1))
