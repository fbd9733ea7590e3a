import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from poslim import densities as de
from poslim import poset as ps
from poslim import recognition as rec
from poslim import sampling as sa
from poslim import semiorders as so
from poslim.errors import (
    BudgetExceeded,
    InvalidArgument,
    InvariantError,
    SizeLimit,
)
from poslim.measures import AtomicMeasure, StepCDF, StepKernelMeasure
from poslim.rng import SeededRng

import reference as ref
from conftest import atomic_measures, monotone_gs, posets, rate_pieces, step_measures

TWO_CELL = StepKernelMeasure.from_cells(
    [(0, F(1, 2), [(F(1, 2), 1)]), (F(1, 2), 1, [(1, 1)])]
)


def test_sample_extremes():
    assert sa.sample_kernel_poset(so.gc(1), 50, SeededRng(1)).pair_count() == 0
    p = sa.sample_kernel_poset(so.MonotoneRC.identity(), 7, SeededRng(2))
    assert ref.is_isomorphic(p, ps.chain(7))
    assert sa.sample_interval_poset(AtomicMeasure.dirac(0, 1), 20, SeededRng(3)).pair_count() == 0
    single = sa.sample_interval_poset(TWO_CELL, 1, SeededRng(4))
    assert single.n == 1


def test_sample_determinism_and_validity():
    a = sa.sample_kernel_poset(so.gc(F(3, 10)), 300, SeededRng(7))
    b = sa.sample_kernel_poset(so.gc(F(3, 10)), 300, SeededRng(7))
    assert a == b
    a.check_valid()
    c = sa.sample_kernel_poset(so.gc(F(3, 10)), 300, SeededRng(8))
    assert a != c
    d = sa.sample_interval_poset(TWO_CELL, 150, SeededRng(9))
    e = sa.sample_interval_poset(TWO_CELL, 150, SeededRng(9))
    assert d == e
    d.check_valid()


@given(monotone_gs())
@settings(max_examples=25, deadline=None)
def test_threshold_samples_are_semiorders(g):
    p = sa.sample_kernel_poset(g, 60, SeededRng(11))
    assert rec.is_semiorder(p)


def test_measure_samples_are_interval_orders():
    for seed in range(5):
        p = sa.sample_interval_poset(TWO_CELL, 120, SeededRng(100 + seed))
        assert rec.is_interval_order(p)


def test_rate_kernel_sampling():
    r = so.RateFunction.constant(2)
    p = sa.sample_kernel_poset(r, 100, SeededRng(5))
    q = sa.sample_kernel_poset(so.gc(F(1, 2)), 100, SeededRng(5))
    assert p == q  # same threshold function, same stream positions


def test_raw_callable_kernels_are_refused_before_any_draw():
    class NoDraws(SeededRng):
        def raw(self, kind, count, index=0):
            raise AssertionError("a stream was read for an unsupported model")

    w = lambda x, y: 1.0 if x < y else 0.0  # noqa: E731
    with pytest.raises(TypeError, match="unsupported sampler model"):
        sa.sample_kernel_poset(w, 10, NoDraws(1))
    with pytest.raises(TypeError, match="unsupported sampler model"):
        de.kernel_density_mc(ps.chain(2), w, 100, NoDraws(1))


def test_two_atom_chain_frequency():
    mu = AtomicMeasure.from_atoms(
        [(0, F(1, 10), F(1, 2)), (F(1, 2), F(6, 10), F(1, 2))]
    )
    hits = sum(
        sa.sample_interval_poset(mu, 2, SeededRng(42).spawn(t)).pair_count() > 0
        for t in range(1500)
    )
    assert abs(hits / 1500 - 0.5) < 0.06  # ordered-pair probability 2 * 1/4


def test_nu_empirical_examples():
    assert sa.nu_empirical(ps.antichain(4), "minus").points == StepCDF.dirac(0).points
    nu = sa.nu_empirical(ps.chain(2), "minus")
    assert nu.value(0) == F(1, 2) and nu.value(F(1, 2)) == 1


@given(monotone_gs())
@settings(max_examples=20, deadline=None)
def test_reflection_identity(g):
    p = sa.sample_kernel_poset(g, 40, SeededRng(13))
    assert sa.nu_empirical(ps.reflect(p), "minus").points == sa.nu_empirical(p, "plus").points
    assert sa.nu_empirical(ps.reflect(p), "plus").points == sa.nu_empirical(p, "minus").points


def test_nu_moments_match_star_densities():
    p = sa.sample_kernel_poset(so.gc(F(2, 5)), 9, SeededRng(14))
    for k in (1, 2, 3):
        for sign in ("minus", "plus"):
            emp, dens = de.moment_identity_check(p, k, sign)
            assert emp == dens


def assert_nu_matches_grid(p):
    for sign in ("minus", "plus"):
        got = sa.nu_empirical(p, sign).points
        assert got == ref.nu(p, sign)
        assert all(type(v) is F for point in got for v in point)


_ends = st.fractions(min_value=0, max_value=1, max_denominator=8)


@given(st.lists(st.tuples(_ends, _ends).map(sorted), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_nu_empirical_matches_grid_on_interval_samples(intervals):
    assert_nu_matches_grid(ps.IntervalSample(intervals))


@given(st.integers(1, 40), st.fractions(min_value=F(1, 20), max_value=1), st.integers(0, 99))
@settings(max_examples=30, deadline=None)
def test_nu_empirical_matches_grid_on_graph_orders(n, p, seed):
    assert_nu_matches_grid(sa.random_graph_order(n, p, SeededRng(seed)))


@pytest.mark.parametrize("p", [ps.antichain(7), ps.chain(7), ps.chain(1)])
def test_nu_empirical_matches_grid_at_the_extremes(p):
    assert_nu_matches_grid(p)


def assert_rows_match_fractions(p):
    for sign in ("minus", "plus"):
        nu = sa.nu_empirical(p, sign)
        den, *cols = nu.rows
        assert den == p.n and all(c.dtype == np.int64 for c in cols)
        assert "points" not in vars(nu)
        assert list(zip(*(c.tolist() for c in cols))) == [
            tuple(v * den for v in point) for point in ref.nu(p, sign)]


@given(st.lists(st.tuples(_ends, _ends).map(sorted), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_nu_rows_match_fractions_on_interval_samples(intervals):
    assert_rows_match_fractions(ps.IntervalSample(intervals))


@given(st.integers(1, 40), st.fractions(min_value=F(1, 20), max_value=1), st.integers(0, 99))
@settings(max_examples=30, deadline=None)
def test_nu_rows_match_fractions_on_graph_orders(n, p, seed):
    assert_rows_match_fractions(sa.random_graph_order(n, p, SeededRng(seed)))


@pytest.mark.parametrize("p", [ps.antichain(7), ps.chain(7), ps.chain(1)])
def test_nu_rows_match_fractions_at_the_extremes(p):
    assert_rows_match_fractions(p)


def test_identity_degree_path_builds_no_points():
    identity = so.MonotoneRC.identity()
    p = sa.sample_kernel_poset(identity, 500, SeededRng(3))
    for sign, target in (("minus", so.f_minus(identity)), ("plus", so.f_plus(identity))):
        cdf = sa.nu_empirical(p, sign)
        assert sa.ks_for_target(cdf, target) == F(1, 500)
        assert "points" not in vars(cdf)


def test_nu_empirical_rejects_an_empty_poset():
    with pytest.raises(InvariantError, match="posets are non-empty"):
        sa.nu_empirical(ps.FinitePoset.from_succ_masks([]), "minus")


# breakpoints on the grid k/64, off it, and exactly 1/32 from either
_near_grid = st.builds(
    lambda x, shift: x + shift,
    st.one_of(st.integers(0, 64).map(lambda k: F(k, 64)),
              st.fractions(min_value=0, max_value=1, max_denominator=100)),
    st.sampled_from((0, F(1, 32), -F(1, 32))),
)


@st.composite
def continuity_cdfs(draw):
    """Random CDFs, with jumps at 0, at 1 and inside drawn often."""
    inner = draw(st.lists(_near_grid, max_size=6))
    xs = [F(0), *sorted({x for x in inner if 0 < x < 1}), F(1)]
    m = 2 * len(xs) - 2
    values = [F(0), *sorted(draw(st.lists(_ends, min_size=m, max_size=m))), F(1)]
    return StepCDF.from_points([(x, values[2 * k], values[2 * k + 1]) for k, x in enumerate(xs)])


_THIRD = F(1, 3)
_AROUND_A_THIRD = StepCDF.from_points(  # a jump at 1/3, breakpoints 1/32 either side
    [(0, 0, 0), (_THIRD - F(1, 32), F(1, 4), F(1, 4)), (_THIRD, F(1, 3), F(2, 3)),
     (_THIRD + F(1, 32), F(3, 4), F(3, 4)), (1, 1, 1)]
)
_WIDE_VALUES = StepCDF.from_jumps(  # breakpoints over 4, values over 2^64: object rows, td = 64
    [(F(1, 2), F(1, 2**64)), (F(3, 4), 1 - F(1, 2**64))]
)


@given(continuity_cdfs(), continuity_cdfs())
@example(StepCDF.uniform(), StepCDF.dirac(0))
@example(StepCDF.uniform(), StepCDF.dirac(1))
@example(StepCDF.dirac(F(1, 2)), StepCDF.from_jumps([(F(5, 64), F(1, 2)), (F(9, 64), F(1, 2))]))
@example(StepCDF.uniform(), _AROUND_A_THIRD)
@example(_AROUND_A_THIRD, StepCDF.from_jumps([(0, F(1, 2)), (1, F(1, 2))]))
@example(StepCDF.uniform(), StepCDF.from_jumps([(F(k, 32), F(1, 33)) for k in range(33)]))  # no candidate
@example(StepCDF.uniform(), _WIDE_VALUES)
@example(_WIDE_VALUES, StepCDF.uniform())
@settings(max_examples=150, deadline=None)
def test_ks_at_continuity_matches_candidate_loop(f, g):
    assert sa.ks_distance_at_continuity(f, g) == ref.ks_at_continuity(f.points, g.points)


def test_ks_at_continuity_past_the_int64_bound(monkeypatch):
    """Breakpoints over 2^35 + 1 and 2^34 + 3: the product fd gd of the two
    curves' denominators passes 2^63, so `_fit` gives object ints and the
    distance stays exact."""
    dtypes, fit = [], sa._fit

    def spy(bound, *columns):
        out = fit(bound, *columns)
        dtypes.extend(c.dtype for c in out)
        return out

    monkeypatch.setattr(sa, "_fit", spy)
    f = StepCDF.from_points([(0, 0, 0), (F(2**34, 2**35 + 1), F(1, 3), F(1, 3)), (1, 1, 1)])
    g = StepCDF.from_points([(0, 0, 0), (F(2**33, 2**34 + 3), F(1, 5), F(3, 5)), (1, 1, 1)])
    assert sa.ks_distance_at_continuity(f, g) == ref.ks_at_continuity(f.points, g.points)
    assert object in dtypes


_PAST_INT64 = StepCDF.from_points(  # breakpoints over 2^35 + 1 and values over 2^64
    [(0, 0, 0), (F(2**34, 2**35 + 1), F(1, 2**64), F(1, 3)), (F(3, 4), F(1, 2), F(1, 2)), (1, 1, 1)]
)


@pytest.mark.parametrize(
    "target",
    [so.f_minus(so.gc(F(3, 10))), so.f_plus(so.gc(F(3, 10))), _WIDE_VALUES, _PAST_INT64],
    ids=["gc-minus", "gc-plus", "wide-values", "past-int64"],
)
def test_one_target_serves_many_samples_from_its_cached_grid(target):
    """The candidates and the target's values there are built on first use
    and kept: 20 samples against one target object each give the candidate
    loop's distance and that of a freshly built equal target."""
    first = None
    for seed in range(20):
        p = sa.sample_kernel_poset(so.gc(F(3, 10)), 40 + seed, SeededRng(seed))
        f = sa.nu_empirical(p, ("minus", "plus")[seed % 2])
        fresh = StepCDF.from_points(target.points)
        got = sa.ks_distance_at_continuity(f, target)
        assert "continuity_values" not in vars(fresh) and fresh == target
        assert got == sa.ks_distance_at_continuity(f, fresh) == ref.ks_at_continuity(f.points, target.points)
        first = first or target.continuity_values
        assert target.continuity_values is first
    td, ks, num, den = first
    wide = target is _WIDE_VALUES or target is _PAST_INT64
    assert target.rows[1].dtype == (object if wide else np.int64)
    for arr in (ks, num):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7


_sample_cdfs = st.builds(  # many jumps, some within 1/32 of each other
    lambda n, seed, sign: sa.nu_empirical(
        sa.sample_kernel_poset(so.gc(F(3, 10)), n, SeededRng(seed)), sign
    ),
    st.integers(1, 200), st.integers(0, 2**32), st.sampled_from(["minus", "plus"]),
)


@given(st.one_of(continuity_cdfs(), _sample_cdfs))
@example(_AROUND_A_THIRD)
@example(StepCDF.from_jumps([(0, F(1, 2)), (1, F(1, 2))]))
@example(_WIDE_VALUES)
@settings(max_examples=150, deadline=None)
def test_continuity_grid_matches_the_pairwise_filter(g):
    td, ks, _, _ = g.continuity_values
    assert td == math.lcm(64, *(x.denominator for x, _, _ in g.points))
    assert ks.tolist() == [int(t * td) for t in ref.continuity_candidates(g.points)]


def test_ks_examples():
    u = StepCDF.uniform()
    assert sa.ks_distance(u, u) == 0
    assert sa.ks_distance(StepCDF.dirac(0), u) == 1
    assert sa.ks_distance(u, so.f_minus(so.gc(F(3, 10)))) == F(3, 10)
    assert sa.ks_distance(u, StepCDF.dirac(F(1, 2))) == F(1, 2)


def test_ks_at_continuity_skips_target_atoms():
    target = so.f_minus(so.gc(F(3, 10)))  # atom at 0
    close = StepCDF.from_points(
        [(0, 0, 0), (F(1, 100), 0, F(3, 10)), (F(7, 10), 1, 1), (1, 1, 1)]
    )
    # full sup sees the atom mismatch at 0; the grid comparison does not
    assert sa.ks_distance(close, target) >= F(3, 10)
    assert sa.ks_for_target(close, target) < F(1, 10)


def test_fingerprint_exact(catalog4):
    h = ps.two_plus_two()
    fp = sa.fingerprint(h, 4)
    hid = catalog4.class_id(catalog4.index_of(h))
    assert fp.value(hid) == F(1, 12)
    fa = sa.fingerprint(ps.antichain(10), 2)
    by_label = {e.label: e.value for e in fa.entries}
    assert by_label["chain2"] == 0 and by_label["antichain2"] == 1
    fc = sa.fingerprint(ps.chain(10), 2)
    # half of the ordered pairs realize the fixed labelling of the 2-chain
    assert {e.label: e.value for e in fc.entries}["chain2"] == F(1, 2)
    with pytest.raises(SizeLimit):
        sa.fingerprint(h, 6)


def assert_fingerprint_matches_density(p, max_q):
    cat = ps.cached_catalog(max_q)
    fp = sa.fingerprint(p, max_q)
    assert [e.poset_id for e in fp.entries] == cat.ids()
    for q, e in zip(cat.classes, fp.entries):
        assert e.value == de.density(q, p, "ind"), (e.poset_id, p)


@given(posets(), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_fingerprint_matches_density(p, max_q):
    assert_fingerprint_matches_density(p, max_q)


def test_fingerprint_matches_density_sampled():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 40, SeededRng(31))
    assert_fingerprint_matches_density(p, 4)


def test_fingerprint_estimate_matches_exact():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 60, SeededRng(21))
    exact = sa.fingerprint(p, 3)
    est = sa.fingerprint_estimate(p, 3, 4000, SeededRng(22))
    for e in est.entries:
        assert abs(e.value - float(exact.value(e.poset_id))) < max(
            4 * e.half_width, 0.02
        )


def oracle_classes(max_q):
    """(class id, size, codes of its orderings, |Aut|) of every catalog
    class, by the one-pair-at-a-time `pattern_code`."""
    cat = ps.cached_catalog(max_q)
    out = []
    for idx, q in enumerate(cat.classes):
        codes = {ref.pattern_code(q.succ, perm) for perm in itertools.permutations(range(q.n))}
        out.append((cat.class_id(idx), q.n, codes, math.factorial(q.n) // len(codes)))
    return out


@given(posets(max_n=12), st.integers(1, 5), st.integers(0, 2**32))
@example(ps.antichain(3), 5, 0)  # n < s: every size-4 and size-5 density is 0
@example(ps.two_plus_two(), 5, 1)
@example(ps.chain(9), 4, 2)
@settings(max_examples=40, deadline=None)
def test_fingerprints_match_pattern_code_oracle(p, max_q, seed):
    classes = oracle_classes(max_q)
    expected = {}
    for pid, s, codes, aut in classes:
        c = sum(ref.pattern_code(p.succ, t) in codes for t in itertools.combinations(range(p.n), s))
        expected[pid] = F(c * aut, math.perm(p.n, s)) if c else F(0)
    fp = sa.fingerprint(p, max_q)
    assert {e.poset_id: e.value for e in fp.entries} == expected
    assert [e.poset_id for e in fp.entries] == [pid for pid, *_ in classes]

    drawn = {}
    tuple_codes = sa._tuple_codes

    def checked(q, tuples):
        codes = tuple_codes(q, tuples)
        if q is p:
            assert codes.tolist() == [ref.pattern_code(p.succ, t) for t in tuples.T.tolist()]
            drawn[len(tuples)] = tuples.T.tolist()
        return codes

    subsets = 60
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sa, "_tuple_codes", checked)
        try:
            est = sa.fingerprint_estimate(p, max_q, subsets, SeededRng(seed))
        except BudgetExceeded:  # n small next to s: the sizes drawn were checked
            return
    assert sorted(drawn) == list(range(2, min(max_q, p.n) + 1))
    values = {e.poset_id: e.value for e in est.entries}
    for pid, s, codes, aut in classes:
        if s == 1:
            assert values[pid] == 1.0
        elif s <= p.n:
            c = sum(ref.pattern_code(p.succ, t) in codes for t in drawn[s])
            assert values[pid] == c / subsets * (aut / math.factorial(s))
        else:
            assert values[pid] == 0.0


@given(posets(max_n=12), st.integers(2, 5), st.integers(1, 60), st.integers(0, 2**32))
@example(ps.antichain(10), 3, 40, 0)  # 72 % of 3-tuples distinct: the prefix falls short
@example(ps.antichain(5), 4, 40, 0)  # 19 % of 4-tuples distinct: over budget
@example(ps.antichain(2), 2, 1, 3)  # one tuple kept of a prefix of two
@settings(max_examples=60, deadline=None)
def test_fingerprint_estimate_keeps_the_tuples_of_the_full_read(p, max_q, subsets, seed):
    """Each size reads ceil(1.25 subsets) tuples first, and all 4 subsets
    only if fewer than `subsets` of the prefix are distinct; the tuples kept,
    and the BudgetExceeded condition and message, are those of reading all
    4 subsets, the first `subsets` distinct tuples of the stream."""
    prefix = -(-5 * subsets // 4)
    want_reads, want_kept, failed = [], {}, None
    for s in range(2, min(max_q, p.n) + 1):
        first = ref.distinct_tuples(p.n, s, prefix, SeededRng(seed))
        full = ref.distinct_tuples(p.n, s, 4 * subsets, SeededRng(seed))
        assert first == full[: len(first)]  # the prefix's positions come first
        want_reads += [(s, prefix * s)] + ([] if len(first) >= subsets else [(s, 4 * subsets * s)])
        if len(full) < subsets:
            failed = (f"^{4 * subsets} random {s}-tuples of {p.n} points gave fewer than "
                      f"subsets={subsets} with {s} distinct points$")
            break
        want_kept[s] = full[:subsets]

    reads, kept = [], {}
    uniforms, tuple_codes = SeededRng.uniforms, sa._tuple_codes

    def counted(rng, kind, count, index=0):
        reads.append((index, count))
        return uniforms(rng, kind, count, index)

    def recorded(q, tuples):
        kept[len(tuples)] = [tuple(t) for t in tuples.T.tolist()]
        return tuple_codes(q, tuples)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SeededRng, "uniforms", counted)
        mp.setattr(sa, "_tuple_codes", recorded)
        if failed:
            with pytest.raises(BudgetExceeded, match=failed):
                sa.fingerprint_estimate(p, max_q, subsets, SeededRng(seed))
        else:
            sa.fingerprint_estimate(p, max_q, subsets, SeededRng(seed))
    assert reads == want_reads and kept == want_kept


@pytest.mark.parametrize(
    "p, max_q", [(ps.chain(2), 4), (ps.chain(1), 5), (ps.two_plus_two(), 3)]
)
def test_estimated_and_exact_fingerprints_list_the_same_patterns(p, max_q):
    exact = sa.fingerprint(p, max_q)
    est = sa.fingerprint_estimate(p, max_q, 5, SeededRng(1))
    assert [(e.poset_id, e.label) for e in est.entries] == [
        (e.poset_id, e.label) for e in exact.entries
    ]
    for e in est.entries:
        if exact.value(e.poset_id) == 0 and int(e.poset_id.split("-")[0]) > p.n:
            assert (e.value, e.half_width) == (0.0, 0.0)


def test_exact_fingerprint_block_size_does_not_matter(monkeypatch):
    sampled = sa.sample_kernel_poset(so.gc(F(1, 4)), 17, SeededRng(8))
    plain = ps.FinitePoset(sampled.n, sampled.succ, sampled.pred)
    fresh = sa.sample_kernel_poset(so.gc(F(1, 4)), 17, SeededRng(8))
    expected = [sa.fingerprint(plain, 5), sa.fingerprint(fresh, 5)]
    monkeypatch.setattr(sa, "_FINGERPRINT_BLOCK", 7)
    assert [sa.fingerprint(plain, 5), sa.fingerprint(fresh, 5)] == expected
    assert expected[0] == expected[1]


ANY_INTERVAL_MODEL = st.one_of(
    monotone_gs(),
    rate_pieces().map(so.RateFunction.from_pieces),
    step_measures(),
    atomic_measures(),
)
FINGERPRINTED = st.one_of(
    st.builds(
        lambda model, n, seed: sa.sample_kernel_poset(model, n, SeededRng(seed)),
        ANY_INTERVAL_MODEL, st.integers(1, 14), st.integers(0, 2**32),
    ),
    st.builds(
        lambda n, edge, seed: sa.random_graph_order(n, edge, SeededRng(seed)),
        st.integers(1, 14), st.sampled_from([0.1, 0.3, 0.6]), st.integers(0, 2**32),
    ),
    posets(max_n=10),
)


@given(FINGERPRINTED, st.integers(1, 5), st.sampled_from([1, 7, None]))
@example(ps.chain(1), 5, 1)  # n = 1: every size above 1 is empty
@example(ps.antichain(3), 5, 7)  # s > n
@example(sa.sample_kernel_poset(so.gc(F(3, 10)), 14, SeededRng(5)), 5, 7)
@settings(max_examples=80, deadline=None)
def test_fingerprint_walk_matches_the_combinations_reference(p, max_q, block):
    """Blocks of 1 and 7 split a parent's children; None keeps the default."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(sa, "_FINGERPRINT_BLOCK", block)
        fp = sa.fingerprint(p, max_q)
    assert [(e.poset_id, e.label, e.value) for e in fp.entries] == ref.fingerprint(p, max_q)
    assert fp.catalog_size == max_q and {e.half_width for e in fp.entries} == {0}


@pytest.mark.parametrize("block", [1, 7, 2048])
def test_subset_walk_visits_every_subset_once_in_bounded_blocks(monkeypatch, block):
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 23, SeededRng(4))
    monkeypatch.setattr(sa, "_FINGERPRINT_BLOCK", block)
    codes = {s: [] for s in range(1, 5)}
    for s, block_codes in sa._subset_blocks(p, 4):
        assert 1 <= len(block_codes) <= block
        codes[s] += block_codes.tolist()
    for s, got in codes.items():
        subsets = itertools.combinations(range(p.n), s)
        assert sorted(got) == sorted(ref.pattern_code(p.succ, t) for t in subsets)


@pytest.mark.parametrize("n, max_q, cap_mib", [(3000, 2, 4), (40, 5, 2)])
def test_exact_fingerprint_memory_is_bounded(n, max_q, cap_mib):
    """No n x n relation table and no unbounded block: a fresh sample's
    exact fingerprint peaks at a few blocks' worth of integers."""
    sa.fingerprint(ps.chain(max_q), max_q)  # the catalog and code tables, cached
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), n, SeededRng(1))
    tracemalloc.start()
    try:
        sa.fingerprint(p, max_q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap_mib * 2**20


def test_a_relation_that_is_no_partial_order_is_refused():
    p = ps.FinitePoset.from_succ_masks([0b010, 0b100, 0])  # 0 < 1 < 2 but not 0 < 2
    assert sa.fingerprint(p, 2).value("2-1") == F(1, 3)
    with pytest.raises(InvariantError, match="1 subsets of 3 points are not partially ordered"):
        sa.fingerprint(p, 3)
    # each point below the next only: every drawn run i, i + 1, i + 2 is coded as no poset
    path = ps.FinitePoset.from_succ_masks([1 << (i + 1) if i + 1 < 30 else 0 for i in range(30)])
    with pytest.raises(InvariantError, match="of 200 3-tuples are not partially ordered"):
        sa.fingerprint_estimate(path, 3, 200, SeededRng(1))


@pytest.mark.parametrize("max_q", [0, -1])
def test_fingerprints_reject_max_q_below_one(max_q):
    h = ps.two_plus_two()
    with pytest.raises(InvalidArgument, match="max_q"):
        sa.fingerprint(h, max_q)
    with pytest.raises(InvalidArgument, match="max_q"):
        sa.fingerprint_estimate(h, max_q, 10, SeededRng(1))


@pytest.mark.parametrize("subsets", [0, -5])
def test_fingerprint_estimate_rejects_subsets_below_one(subsets):
    with pytest.raises(InvalidArgument, match="subsets"):
        sa.fingerprint_estimate(ps.two_plus_two(), 3, subsets, SeededRng(1))


def test_fingerprint_estimate_budget():
    # 5-tuples of 5 points are distinct with probability 5!/5^5, so 4x the
    # wanted draws come up short
    with pytest.raises(BudgetExceeded, match="of 5 points.*subsets=200"):
        sa.fingerprint_estimate(ps.chain(5), 5, 200, SeededRng(1))


def test_exact_fingerprint_budget_checked_before_any_block(monkeypatch):
    def unbuilt(n, s):
        raise AssertionError("subset blocks built before the budget check")

    big = sa.sample_kernel_poset(so.gc(F(3, 10)), 5000, SeededRng(1))
    expected = sa.fingerprint(ps.chain(10), 2)
    monkeypatch.setattr(sa, "_subset_blocks", unbuilt)
    # C(5000, 1) + C(5000, 2) + C(5000, 3) = 20,833,337,500 subsets
    with pytest.raises(BudgetExceeded, match="20833337500 subsets .*budget of 10000000"):
        sa.fingerprint(big, 3)
    monkeypatch.undo()
    monkeypatch.setattr(sa, "_FINGERPRINT_BUDGET", 10 + 45)  # C(10, 1) + C(10, 2)
    assert sa.fingerprint(ps.chain(10), 2) == expected
    with pytest.raises(BudgetExceeded, match="175 subsets.*budget of 55"):
        sa.fingerprint(ps.chain(10), 3)


def test_random_graph_order_examples():
    p = sa.random_graph_order(40, 1, SeededRng(3))
    assert ref.is_isomorphic(p, ps.chain(40))
    assert sa.random_graph_order(60, 1e-9, SeededRng(3)).pair_count() == 0
    q = sa.random_graph_order(200, 0.05, SeededRng(5))
    q.check_valid()
    with pytest.raises(SizeLimit):
        sa.random_graph_order(5001, 0.5, SeededRng(1))


def test_c_parameter():
    assert sa.c_parameter(1000, 1) == 0
    assert abs(sa.c_parameter(1000, 0.1) - math.log(10) / 100) < 1e-12
    assert sa.c_parameter(10, 1e-9) == 1.0
    p = sa.p_for_c(2000, 0.3)
    assert abs(sa.c_parameter(2000, p) - 0.3) < 1e-9
    assert sa.p_for_c(3000, 0.0) == 1.0
    for c in (1.5, 1.0, math.nan, -0.1, -math.inf, math.inf):
        with pytest.raises(InvalidArgument):
            sa.p_for_c(3000, c)


def test_converge_constant_sequence():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 150, SeededRng(5))
    rep = sa.converge_diagnostic([p, p, p])
    assert all(r.ks_prev in (None, 0.0) for r in rep.rows)
    assert rep.verdict == "converging"  # pairwise distances all zero


def test_converge_alternating_not_converging():
    posets = [
        sa.sample_kernel_poset(
            so.gc(F(2, 10)) if i % 2 == 0 else so.gc(F(5, 10)), 300, SeededRng(60).spawn(i)
        )
        for i in range(4)
    ]
    rep = sa.converge_diagnostic(posets)
    assert rep.verdict == "not-converging"


def test_converge_growing_to_target():
    posets = [
        sa.sample_kernel_poset(so.gc(F(3, 10)), n, SeededRng(50).spawn(i))
        for i, n in enumerate([250, 500, 1000, 2000])
    ]
    rep = sa.converge_diagnostic(posets, target_g=so.gc(F(3, 10)))
    assert rep.verdict == "converging"
    assert rep.rows[-1].ks_minus_target < 0.05


def test_converge_warns_on_non_semiorder():
    rgo = sa.random_graph_order(120, 0.05, SeededRng(8))
    if rec.is_semiorder(rgo):
        pytest.skip("sample happened to be a semiorder")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = sa.converge_diagnostic([rgo], target_g=so.gc(F(3, 10)))
    assert rep.notes and caught


def test_converge_report_serialization():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 100, SeededRng(5))
    rep = sa.converge_diagnostic([p, p], target_g=so.gc(F(3, 10)))
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "index,n,semiorder,ks_prev,ks_minus_target,ks_plus_target"
    assert len(csv_text.splitlines()) == 3
    d = rep.to_json_dict()
    assert d["verdict"] in ("converging", "not-converging", "insufficient-data")


def test_converge_refuses_a_threshold_that_is_not_finite_and_nonnegative():
    p = sa.sample_kernel_poset(so.gc(F(3, 10)), 50, SeededRng(5))
    for threshold in (math.nan, math.inf, -math.inf, -1.0, -1e-300):
        with pytest.raises(InvalidArgument, match="threshold must be finite and at least 0"):
            sa.converge_diagnostic([p], target_g=so.gc(F(3, 10)), threshold=threshold)
    for threshold in (0.0, 1e300):  # both ends of the accepted range
        assert sa.converge_diagnostic([p], threshold=threshold).threshold == threshold


def test_equivalence_statistical_same_sampler():
    rep = sa.equivalence_test_statistical(
        TWO_CELL, TWO_CELL, n=100, trials=30, rng=SeededRng(77), subsets=300
    )
    assert not rep.any_flagged()
    assert rep.to_csv().splitlines()[0].startswith("poset_id,label")


def test_equivalence_statistical_detects_difference():
    rep = sa.equivalence_test_statistical(
        so.gc(F(2, 10)), so.gc(F(5, 10)), n=120, trials=30, rng=SeededRng(79), subsets=400
    )
    flagged_labels = {r.label for r in rep.rows if r.flagged}
    assert "chain2" in flagged_labels


def test_equivalence_statistical_trial_floor():
    with pytest.raises(ValueError):
        sa.equivalence_test_statistical(
            TWO_CELL, TWO_CELL, n=50, trials=10, rng=SeededRng(1)
        )


def test_library_refusals():
    with pytest.raises(InvalidArgument, match=r"p must be in \(0, 1\]"):
        sa.c_parameter(10, 0)
    with pytest.raises(TypeError, match="needs an interval measure"):
        sa.sample_interval_poset(so.gc(F(3, 10)), 5, SeededRng(1))
    fp = sa.fingerprint(ps.chain(2), 2)
    with pytest.raises(KeyError, match="no-such-id"):
        fp.value("no-such-id")
