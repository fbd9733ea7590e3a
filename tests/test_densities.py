import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from poslim import densities as de
from poslim import poset as ps
from poslim import sampling as sa
from poslim.errors import BudgetExceeded
from poslim.measures import AtomicMeasure, StepKernelMeasure
from poslim.rng import SeededRng
from poslim.semiorders import MonotoneRC, gc

import reference as ref
from conftest import atomic_measures, posets


def test_density_examples():
    c2, c3 = ps.chain(2), ps.chain(3)
    h = ps.two_plus_two()
    assert de.density(c2, c2, "hom") == Fraction(1, 4)
    assert de.density(ps.antichain(3), c3, "hom") == 1
    assert de.density(ps.antichain(5), h, "hom") == 1
    assert de.density(h, h, "ind") == Fraction(1, 12)  # 2 automorphisms / 24
    assert de.density(c2, c3, "ind") == Fraction(1, 2)  # 3 embeddings / 6
    assert de.density(h, ps.chain(5), "ind") == 0  # no 2+2 in a chain
    assert de.density(ps.chain(5), ps.chain(4), "ind") == 0  # size convention
    assert de.density(ps.chain(5), ps.chain(4), "inj") == 0


@given(posets(max_n=4), posets(max_n=4))
@settings(max_examples=30, deadline=None)
def test_counts_match_bruteforce(q, p):
    for kind in ("hom", "inj", "ind"):
        assert de.count_maps(q, p, kind) == ref.count_maps(q, p, kind)


@given(posets(max_n=5), posets(max_n=5))
@settings(max_examples=50, deadline=None)
def test_density_ordering(q, p):
    ind = de.density(q, p, "ind")
    inj = de.density(q, p, "inj")
    hom = de.density(q, p, "hom")
    assert 0 <= ind <= inj <= 1
    assert 0 <= hom <= 1


def test_inj_equals_sum_of_ind_over_labelled_supersets(catalog4):
    # t_inj(Q,P) = sum of labelled-pattern densities over relation supersets
    # of Q on Q's own points that are posets
    for q in catalog4.classes:
        if q.n > 4:
            continue
        supersets = []
        free = [
            (i, j)
            for i in range(q.n)
            for j in range(q.n)
            if i != j and not q.less(i, j) and not q.less(j, i)
        ]
        for bits in range(1 << len(free)):
            masks = list(q.succ)
            for k, (i, j) in enumerate(free):
                if (bits >> k) & 1:
                    masks[i] |= 1 << j
            s = ps.FinitePoset.from_succ_masks(masks)
            if ref.is_strict_order(s.succ):
                supersets.append(s)
        for p in list(catalog4.of_size(4)) + [ps.chain(7), ps.in_star(5)]:
            total = sum(de.density(s, p, "ind") for s in supersets)
            assert total == de.density(q, p, "inj"), (q, p)


def test_moment_identity_examples():
    assert de.moment_identity_check(ps.chain(2), 1, "minus") == (
        Fraction(1, 4),
        Fraction(1, 4),
    )
    for k in (1, 2, 3):
        assert de.moment_identity_check(ps.antichain(6), k, "plus") == (0, 0)


def test_moment_identity_full_catalog_size6(catalog6):
    for p in catalog6.of_size(6):
        for k in (1, 2, 3):
            for sign in ("minus", "plus"):
                emp, dens = de.moment_identity_check(p, k, sign)
                assert emp == dens


@given(posets())
@settings(max_examples=40, deadline=None)
def test_moment_identity_random(p):
    for k in (1, 2, 3):
        for sign in ("minus", "plus"):
            emp, dens = de.moment_identity_check(p, k, sign)
            assert emp == dens


def test_moment_identity_k_range():
    with pytest.raises(ValueError):
        de.moment_identity_check(ps.chain(2), 5, "minus")


def test_kernel_density_atomic_examples():
    c2 = ps.chain(2)
    assert de.kernel_density_atomic(c2, AtomicMeasure.dirac(0, Fraction(1, 10))) == 0
    mu = AtomicMeasure.from_atoms(
        [(0, Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 2), Fraction(6, 10), Fraction(1, 2))]
    )
    assert de.kernel_density_atomic(c2, mu) == Fraction(1, 4)
    assert de.kernel_density_atomic(ps.antichain(2), mu) == 1


@given(posets(max_n=4), atomic_measures())
@settings(max_examples=60, deadline=None)
def test_kernel_density_atomic_matches_bruteforce(q, mu):
    assert de.kernel_density_atomic(q, mu) == ref.atomic_density(q, mu)


def test_kernel_density_atomic_budget():
    atoms = [(Fraction(i, 40), Fraction(i, 40), Fraction(1, 21)) for i in range(21)]
    mu = AtomicMeasure.from_atoms(atoms)
    with pytest.raises(BudgetExceeded):
        de.kernel_density_atomic(ps.chain(6), mu)


def test_density_budget_checked_before_any_row(monkeypatch):
    p = sa.sample_kernel_poset(gc(Fraction(3, 10)), 100, SeededRng(1))
    for kind, leaves in (("hom", 100**5), ("inj", math.perm(100, 5)), ("ind", math.perm(100, 5))):
        with pytest.raises(BudgetExceeded, match=f"^{leaves} maps of 5 points into 100 "):
            de.density(ps.antichain(5), p, kind)
    assert "succ" not in vars(p) and "pred" not in vars(p)
    monkeypatch.setattr(de, "_DENSITY_BUDGET", 100**2)  # at the budget still counts
    assert de.density(ps.chain(2), p, "hom") == Fraction(p.pair_count(), 100**2)
    with pytest.raises(BudgetExceeded, match="1000000 maps.*budget of 10000$"):
        de.density(ps.chain(3), p, "hom")


def test_automorphism_count_equals_induced_self_maps():
    for q in ps.cached_catalog(6).classes:
        assert de.automorphism_count(q) == de.count_maps(q, q, "ind")
    assert de.automorphism_count(ps.chain(12)) == 1  # one map: 12 singleton blocks
    assert de.automorphism_count(ps.antichain(8)) == math.factorial(8)
    # five disjoint 3-chains: placing the middles fixes the rest
    chains = [m << 3 * c for c in range(5) for m in (0b110, 0b100, 0)]
    assert de.automorphism_count(ps.FinitePoset.from_succ_masks(chains)) == 120
    with pytest.raises(BudgetExceeded, match="^479001600 colour-respecting relabelings of 12 "):
        de.automorphism_count(ps.antichain(12))


def test_kernel_density_mc_deterministic():
    c2 = ps.chain(2)
    a = de.kernel_density_mc(c2, MonotoneRC.identity(), 2000, 99)
    b = de.kernel_density_mc(c2, MonotoneRC.identity(), 2000, 99)
    assert a == b
    c = de.kernel_density_mc(c2, MonotoneRC.identity(), 2000, SeededRng(100))
    assert c != a


def test_kernel_density_mc_values():
    c2 = ps.chain(2)
    est, hw = de.kernel_density_mc(c2, MonotoneRC.identity(), 50_000, 5)
    assert abs(est - 0.5) < max(4 * hw, 0.02)
    est, hw = de.kernel_density_mc(ps.antichain(3), gc(Fraction(1, 3)), 200, 5)
    assert est == 1.0 and hw == 0.0
    # against the exact atomic sum
    mu = AtomicMeasure.from_atoms(
        [(0, Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 2), Fraction(6, 10), Fraction(1, 2))]
    )
    exact = float(de.kernel_density_atomic(c2, mu))
    est, hw = de.kernel_density_mc(c2, mu, 30_000, 17)
    assert abs(est - exact) < 4 * hw


def test_kernel_density_mc_step_measure():
    c2 = ps.chain(2)
    mu = StepKernelMeasure.from_cells(
        [(0, Fraction(1, 2), [(Fraction(1, 2), 1)]), (Fraction(1, 2), 1, [(1, 1)])]
    )
    # P(Y1 < X2): Y1 = 1/2 w.p. 1/2, and X2 > 1/2 w.p. 1/2; Y1 = 1 never wins
    est, hw = de.kernel_density_mc(c2, mu, 30_000, 23)
    assert abs(est - 0.25) < max(4 * hw, 0.02)


def test_kernel_density_mc_sample_floor():
    with pytest.raises(ValueError):
        de.kernel_density_mc(ps.chain(2), MonotoneRC.identity(), 50, 1)
