import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from poslim import densities as de
from poslim import poset as ps
from poslim import recognition as rec
from poslim.errors import InternalInvariantError, NotIntervalOrder
from poslim.measures import AtomicMeasure, StepKernelMeasure
from poslim.rng import SeededRng
from poslim.sampling import sample_kernel_poset
from poslim.semiorders import gc

import reference as ref
from conftest import posets


def test_pattern_examples():
    h, l = ps.two_plus_two(), ps.three_plus_one()
    assert not rec.is_interval_order(h)
    assert rec.is_interval_order(ps.chain(7))
    assert rec.is_interval_order(l)
    assert not rec.is_semiorder(l)
    assert not rec.is_semiorder(h)
    assert rec.is_semiorder(ps.chain(4))
    assert rec.is_semiorder(ps.antichain(6))


def test_witnesses_are_induced_patterns():
    h, l = ps.two_plus_two(), ps.three_plus_one()
    assert_induces(h, rec.find_two_plus_two(h), h)
    assert_induces(l, rec.find_three_plus_one(l), l)


def assert_induces(p, w, pattern):
    """The witness's points induce `pattern` by the reference's isomorphism
    test, and in its labelling: (a, b, c, d) with a < b, c < d for a 2+2,
    (x, y, z, w) with x < y < z for a 3+1."""
    sub = ps.induced(p, list(w))
    assert ref.is_isomorphic(sub, pattern) and sub == pattern


def test_downset_chain_examples():
    assert not rec.is_interval_order(ps.two_plus_two())
    assert rec.is_interval_order(ps.chain(3))
    assert rec.is_interval_order(ps.antichain(5))


def assert_tests_match_reference(p):
    """The down-set tests and both finders against the reference's pattern
    searches; each witness induces its pattern, and a poset with a 2+2 has
    no 3+1 search."""
    io = ref.two_plus_two(p) is None
    assert rec.is_interval_order(p) == io == (rec.find_two_plus_two(p) is None)
    if not io:
        assert_induces(p, rec.find_two_plus_two(p), ps.two_plus_two())
        with pytest.raises(NotIntervalOrder, match="induced 2"):
            rec.find_three_plus_one(p)
        assert not rec.is_semiorder(p)
        return
    w = rec.find_three_plus_one(p)
    assert rec.is_semiorder(p) == (w is None) == (ref.three_plus_one(p) is None)
    if w is not None:
        assert_induces(p, w, ps.three_plus_one())


def test_routes_agree_on_catalog(catalog6):
    h, l = ps.two_plus_two(), ps.three_plus_one()
    for p in catalog6.classes:
        assert_tests_match_reference(p)
        io = rec.is_interval_order(p)
        assert io == (de.density(h, p, "ind") == 0)
        assert rec.is_semiorder(p) == (
            io and de.density(l, p, "ind") == 0
        )


@given(posets(max_n=12))
@settings(max_examples=150)
def test_routes_agree_random(p):
    assert_tests_match_reference(p)


def test_representation_examples():
    r = rec.interval_representation(ps.antichain(2))
    assert isinstance(r, ps.IntervalSample)
    assert r.intervals == ((Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(1)))
    r = rec.interval_representation(ps.chain(2))
    assert r.intervals == ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1)))
    # realizes 1 < 2: b_1 = 1/2 < a_2 = 1


def named_points(exc):
    """The four points, 0-based, that a NotIntervalOrder message names 1-based."""
    points = re.fullmatch(r"induced 2\+2 on points \((.*)\)", str(exc)).group(1)
    return [int(v) - 1 for v in points.split(",")]


def test_representation_rejects_two_plus_two():
    h = ps.two_plus_two()
    with pytest.raises(NotIntervalOrder) as caught:
        rec.interval_representation(h)
    assert ref.is_isomorphic(ps.induced(h, named_points(caught.value)), h)


def chain_under_two_plus_two(n):
    """Points 1..n-4 (1-based) form a chain whose top lies below both x < y
    and u < v, the last four points."""
    top = [(n - 4, n - 3), (n - 3, n - 2), (n - 4, n - 1), (n - 1, n)]
    return ps.from_relations(n, [(i, i + 1) for i in range(1, n - 4)] + top)


def test_long_chain_under_two_plus_two_names_its_pattern():
    """The 2+2 above a 4996-point chain, from both finders and from the
    representation's error, is a 2+2 by the reference's search."""
    p = chain_under_two_plus_two(5000)
    with pytest.raises(NotIntervalOrder) as caught:
        rec.interval_representation(p)
    with pytest.raises(NotIntervalOrder, match=re.escape(str(caught.value))):
        rec.find_three_plus_one(p)
    for w in (rec.find_two_plus_two(p), named_points(caught.value)):
        assert ref.two_plus_two(ps.induced(p, list(w))) is not None
    assert not rec.is_interval_order(p) and not rec.is_semiorder(p)


def written_ranks(rep):
    """The rank column of `write_representation`, in index order."""
    return [int(line.split(",")[1]) for line in rec.write_representation(rep).splitlines()[1:]]


def assert_realizes_pairwise(p, rep):
    """The O(n^2) realization biconditional, pair by pair, in Fractions;
    left ends k/n with k the written rank."""
    a, b = zip(*rep.intervals)
    assert all(a[i] <= b[i] for i in range(p.n))
    for i in range(p.n):
        for j in range(p.n):
            if i != j:
                assert (b[i] < a[j]) == p.less(i, j)
    rank = written_ranks(rep)
    assert list(a) == [Fraction(r, p.n) for r in rank]
    if rec.is_semiorder(p):
        by_rank = sorted(range(p.n), key=lambda i: rank[i])
        bs = [b[i] for i in by_rank]
        assert all(x <= y for x, y in zip(bs, bs[1:]))


def assert_same_representation(r, s):
    """Equal as intervals and as written, not only as orders."""
    assert r == s and r.intervals == s.intervals
    assert rec.write_representation(r) == rec.write_representation(s)


_RICH = StepKernelMeasure.from_cells(
    [
        (0, Fraction(1, 4), [(Fraction(1, 4), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 2))]),
        (Fraction(1, 4), Fraction(1, 2), [(Fraction(1, 2), Fraction(1, 3)), (1, Fraction(2, 3))]),
        (Fraction(1, 2), Fraction(3, 4), [(Fraction(3, 4), Fraction(1, 2)), (1, Fraction(1, 2))]),
        (Fraction(3, 4), 1, [(1, 1)]),
    ]
)


@pytest.mark.parametrize("kernel", ["gc", "measure"])
@pytest.mark.parametrize("seed", [1, 2])
def test_representation_matches_pairwise_check_sampled(kernel, seed):
    model = gc(Fraction(3, 10)) if kernel == "gc" else _RICH
    p = sample_kernel_poset(model, 300, SeededRng(seed))
    assert_tests_match_reference(p)
    rep = rec.interval_representation(p)
    assert rep == p
    assert_realizes_pairwise(p, rep)


def test_representing_a_sample_builds_no_masks():
    p = sample_kernel_poset(gc(Fraction(3, 10)), 200, SeededRng(4))
    rep = rec.interval_representation(p)
    assert "succ" not in vars(p) and "pred" not in vars(p)
    masks = ps.FinitePoset(p.n, p.succ, p.pred)
    assert_same_representation(rep, rec.interval_representation(masks))
    assert_realizes_pairwise(p, rep)


def test_witnesses_of_a_sample_build_no_masks():
    p = sample_kernel_poset(_RICH, 300, SeededRng(1))
    w = rec.find_three_plus_one(p)
    assert rec.find_two_plus_two(p) is None and w is not None
    assert "succ" not in vars(p) and "pred" not in vars(p)
    assert w == rec.find_three_plus_one(ps.FinitePoset(p.n, p.succ, p.pred))
    assert_induces(p, w, ps.three_plus_one())


def test_representation_check_names_an_unrealized_pair(monkeypatch):
    # past the interval-order test, 2+2 (1 < 2, 3 < 4) ranks as 1, 3, 2, 4:
    # the suffix of size 1 is {4}, and 1 does not precede 4
    sort = rec._sort
    monkeypatch.setattr(rec, "_sort", lambda p, interval=False: sort(p))
    with pytest.raises(InternalInvariantError, match=r"realize the pair \(0,3\)"):
        rec.interval_representation(ps.from_relations(4, [(1, 2), (3, 4)]))


def test_representation_realizes_catalog(catalog6):
    for p in catalog6.classes:
        if not rec.is_interval_order(p):
            with pytest.raises(NotIntervalOrder):
                rec.interval_representation(p)
            continue
        # the constructor re-checks realization internally; re-verify here
        rep = rec.interval_representation(p)
        assert rep == p and list(rep.intervals) == ref.representation(p)
        assert_realizes_pairwise(p, rep)


def test_empirical_measure_examples():
    r = rec.interval_representation(ps.chain(2))
    m = rec.empirical_measure(r)
    assert m.atoms == (
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(1), Fraction(1, 2)),
    )
    r = rec.interval_representation(ps.antichain(2))
    m = rec.empirical_measure(r)
    assert m.atoms == (
        (Fraction(1, 2), Fraction(1), Fraction(1, 2)),
        (Fraction(1), Fraction(1), Fraction(1, 2)),
    )


@given(posets())
@settings(max_examples=60)
def test_empirical_measure_total_mass(p):
    if rec.is_interval_order(p):
        m = rec.empirical_measure(rec.interval_representation(p))
        assert isinstance(m, AtomicMeasure)
        assert sum(w for _, _, w in m.atoms) == 1


def test_representation_roundtrip():
    rep = rec.interval_representation(ps.chain(3))
    assert_same_representation(rec.read_representation(rec.write_representation(rep)), rep)
    # any sample is written: tied left ends rank in index order
    half, third = Fraction(1, 2), Fraction(1, 3)
    tied = ps.IntervalSample([(half, 1), (0, third), (half, half)])
    assert written_ranks(tied) == [2, 1, 3]
    assert_same_representation(rec.read_representation(rec.write_representation(tied)), tied)


@pytest.mark.parametrize("seed", range(1, 7))
def test_hom_density_is_the_empirical_measures(seed):
    """t(q, P) = t(q, mu_P) exactly, mu_P the empirical measure of P's
    intervals, on samples and on their representations."""
    classes = ps.cached_catalog(3).classes
    for model in (gc(Fraction(3, 10)), gc(Fraction(1, 7)), _RICH):
        p = sample_kernel_poset(model, 9, SeededRng(seed))
        for mu in (rec.empirical_measure(p), rec.empirical_measure(rec.interval_representation(p))):
            for q in classes:
                assert de.kernel_density_atomic(q, mu) == de.density(q, p, "hom")


def _object_ends(seed):
    """A sample whose ends are object ints over a denominator past 2^63."""
    rng = np.random.default_rng(seed)
    den = (1 << 70) + int(rng.integers(1, 1000))
    a = [int(k) * (den // 1000) + int(rng.integers(0, 1 << 40)) for k in rng.integers(0, 1000, 30)]
    b = [min(x + int(rng.integers(0, 1 << 62)) * 300, den) for x in a]
    a[:3], b[:3] = [0, den, den // 2], [den // 2, den, den]  # 0, 1 and a reduced 1/2
    return ps.IntervalSample.from_ends(den, np.array(a, dtype=object), np.array(b, dtype=object))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_write_representation_equals_the_fraction_rows(seed):
    """Byte for byte the reference's CSV of the `Fraction` intervals, on
    int64 ends (representations of samples, a sample of tied ends) and
    object ends."""
    samples = [
        rec.interval_representation(sample_kernel_poset(gc(Fraction(3, 10)), 200, SeededRng(seed))),
        rec.interval_representation(sample_kernel_poset(_RICH, 100, SeededRng(seed))),
        rec.interval_representation(ps.chain(1)),
        ps.IntervalSample([(Fraction(1, 2), 1), (0, Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2))]),
        _object_ends(seed),
    ]
    assert samples[0].ends[1].dtype == np.int64 and samples[-1].ends[1].dtype == object
    for rep in samples:
        text = rec.write_representation(rep)
        assert "intervals" not in vars(rep)  # written from the integer ends
        assert text == ref.write_representation(rep.intervals)
        assert rec.read_representation(text) == rep


def test_left_ranks_match_the_double_argsort_on_ties():
    """The rank column read from the end order equals the stable double
    argsort of the left ends, on samples with many equal ends."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        n, den = int(rng.integers(1, 30)), int(rng.integers(1, 6))
        a = rng.integers(0, den + 1, n)
        b = np.minimum(a + rng.integers(0, den + 1, n), den)
        rep = ps.IntervalSample.from_ends(den, a, b)
        want = np.argsort(np.argsort(a, kind="stable"), kind="stable") + 1
        assert rec._left_ranks(rep) == want.tolist()
