"""`read_poset` of a file that is exactly the cover set of an interval order
gives an `IntervalSample`; any other file takes the closure, unchanged."""

import random
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslim import poset as ps
from poslim import recognition as rec
from poslim import sampling as sa
from poslim import semiorders as so
from poslim import textio
from poslim.errors import CycleError, InvariantError, SizeLimit
from poslim.measures import AtomicMeasure
from poslim.rng import SeededRng

import reference as ref
from conftest import atomic_measures, monotone_gs, step_measures

SHARED_ATOMS = AtomicMeasure.from_atoms(
    [(0, F(1, 2), F(1, 2)), (F(1, 2), 1, F(1, 4)), (F(1, 2), F(1, 2), F(1, 4))]
)
TIED = [so.MonotoneRC.identity(), so.gc(0), so.gc(1), so.gc(F(3, 10)), SHARED_ATOMS]


def closure_reference(text):
    """The poset `read_poset` gave before any cover set was recognized:
    `transitive_closure` of the pairs in file order.  It stays here, beside
    the models of `reference`, because it is no model: it holds one `src/`
    path (the cover recognition) to another (the plain closure), which
    `assert_reads_as` checks against `fixpoint_closure`."""
    n, *pairs = (int(t) for t in text.split()[1:])
    tails, heads = (np.array(c, dtype=np.int64) - 1 for c in (pairs[0::2], pairs[1::2]))
    return ps.transitive_closure(n, tails, heads)


def assert_reads_as(text, kind=None):
    """`read_poset` of the text is the closure, of class `kind`; without a
    kind, a sample exactly when the closure is an interval order (the text
    holds sorted covers)."""
    p, q = ps.read_poset(text), closure_reference(text)
    interval = rec.is_interval_order(q)
    assert type(p) is (kind or (ps.IntervalSample if interval else ps.FinitePoset))
    assert p.succ == q.succ and p.pred == q.pred
    assert list(q.succ) == ref.fixpoint_closure(q.succ)  # the reference is closed
    return p


@given(
    st.one_of(st.sampled_from(TIED), monotone_gs(), step_measures(), atomic_measures()),
    st.integers(1, 40),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_a_written_sample_reads_back_as_an_interval_sample(model, n, seed):
    sample = sa.sample_kernel_poset(model, n, SeededRng(seed))
    text = ps.write_poset(sample)
    p = assert_reads_as(text, ps.IntervalSample)
    assert p == sample and ps.write_poset(p) == text


@pytest.mark.parametrize(
    "text",
    [
        "poset 1\n",
        "poset 5\n",  # an antichain: no arcs
        "poset 4\n1 2\n2 3\n",  # 3+1
        "poset 3\n1 2\n1 3\n",
        "poset 6\n1 3\n1 4\n2 4\n3 5\n4 5\n4 6\n",
    ],
)
def test_small_interval_orders_read_as_samples(text):
    assert_reads_as(text, ps.IntervalSample)


def test_the_numpy_path_reads_a_dense_sample():
    sample = sa.sample_kernel_poset(so.gc(F(3, 10)), 300, SeededRng(3))
    text = ps.write_poset(sample)
    assert len(sample.cover_pairs()[0]) >= 32 * 300  # Kahn by whole layers
    assert assert_reads_as(text, ps.IntervalSample) == sample


@pytest.mark.parametrize("seed", range(3))
def test_from_columns_leaves_the_callers_columns_as_they_are(seed):
    """`read_poset` shifts the columns that `int_pairs` built for it in place;
    `from_columns` copies int32 columns of its own key type that a caller
    hands over, sorted covers and pairs in reverse alike."""
    sample = sa.sample_kernel_poset(so.gc(F(3, 10)), 40, SeededRng(seed))
    text = ps.write_poset(sample)
    _, n, start = textio.read_header(text, "poset")
    covers = textio.int_pairs(text, start)
    assert covers[0].dtype == covers[1].dtype == ps._key_type(n) == np.int32
    for columns, kind in ((covers, ps.IntervalSample), ([c[::-1] for c in covers], ps.FinitePoset)):
        kept = [c.copy() for c in columns]
        p = ps.from_columns(n, *columns)
        assert type(p) is kind and p == sample == ps.read_poset(text)
        assert all(np.array_equal(c, k) for c, k in zip(columns, kept))


def test_keys_past_int32_read_as_a_sample():
    p = ps.from_relations(50_000, [(1, 2), (2, 50_000)])
    assert isinstance(p, ps.IntervalSample)
    assert ps._cover_keys(*p.ranks).dtype == np.int64
    assert p.degrees("minus")[49_999] == 2 and p.precedes(0, 49_999)


def test_cover_pairs_past_mantels_bound_raise_size_limit():
    """A g-like sample of 10^5 points, past the point cap, has about 1.6e9
    covers; they are refused before any key is built (the keys alone would
    take 12.3 GiB)."""
    n, den = 10**5, 2**40
    x = np.random.default_rng(1).integers(0, den, n)
    p = ps.IntervalSample.from_ends(den, x, np.minimum(x + 3 * den // 10, den))
    p.ranks  # noqa: B018 - the ranks are cached before the trace
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="covers: no poset of at most 5000 points"):
            p.cover_pairs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_mantels_bound_is_the_cover_cap(monkeypatch):
    """All of 5 points below all of 5 others: 25 covers, floor(10²/4), the
    most any 10-point poset has; 5 below 6 have 30, past a cap of 10 points."""
    monkeypatch.setattr(textio, "MAX_POINTS", 10)
    for low, high in ((5, 5), (5, 6)):
        a = np.array([0] * low + [2] * high)
        p = ps.IntervalSample.from_ends(1, a, a + 1)
        if low * high <= 25:
            assert len(p.cover_pairs()[0]) == 25
        else:
            with pytest.raises(SizeLimit, match="30 covers: no poset of at most 10 points"):
                p.cover_pairs()


def test_cover_pairs_are_int64_for_either_class():
    """The keys behind a sample's covers are int32 below 2**31, its pairs are not."""
    text = "poset 4\n1 2\n1 3\n3 4\n"
    p, q = ps.read_poset(text), closure_reference(text)
    assert ps._cover_keys(*p.ranks).dtype == np.int32
    for tails, heads in (p.cover_pairs(), q.cover_pairs()):
        assert tails.dtype == heads.dtype == np.int64
        assert (tails.tolist(), heads.tolist()) == ([0, 0, 2], [1, 2, 3])


def _lines(text):
    head, *rows = text.splitlines()
    return head, rows


def _declined(sample_seed):
    """Files that are not the cover set of an interval order, sorted or not."""
    text = ps.write_poset(sa.sample_kernel_poset(so.gc(F(3, 10)), 30, SeededRng(sample_seed)))
    head, rows = _lines(text)
    shuffled = rows[:]
    random.Random(sample_seed).shuffle(shuffled)
    return [
        "poset 4\n1 2\n3 4\n",  # 2+2
        "poset 3\n1 2\n1 3\n2 3\n",  # a redundant pair
        "poset 5\n" + "".join(f"{i} {j}\n" for i in range(1, 6) for j in range(i + 1, 6)),
        "poset 3\n1 2\n1 2\n2 3\n",  # a repeated line
        # as many covers at each point as the candidate, not the same ones
        "poset 5\n1 4\n1 5\n2 5\n3 2\n3 5\n",
        "poset 5\n1 3\n1 4\n2 4\n3 4\n5 2\n5 4\n",
        "\n".join([head, *rows[:3], rows[2], *rows[3:]]) + "\n",
        "\n".join([head, *shuffled]) + "\n",
    ]


@pytest.mark.parametrize("text", _declined(7) + _declined(8))
def test_other_files_take_the_closure(text):
    assert_reads_as(text, ps.FinitePoset)


@pytest.mark.parametrize("seed", range(6))
def test_covers_of_other_orders_read_as_samples_only_if_interval_orders(seed):
    """A random graph order's covers, and a sample's covers but one: each
    arc left is a cover of the closure."""
    r = sa.random_graph_order(60, 0.05, SeededRng(seed))
    assert assert_reads_as(ps.write_poset(r)) == r
    sample = sa.sample_kernel_poset(so.gc(F(3, 10)), 30, SeededRng(seed))
    head, rows = _lines(ps.write_poset(sample))
    for k in range(0, len(rows), 7):
        assert_reads_as("\n".join([head, *rows[:k], *rows[k + 1 :]]) + "\n")


@pytest.mark.parametrize("seed", range(3))
def test_a_cover_swapped_for_a_non_cover_takes_the_closure(seed):
    """A sample's cover (i, j) replaced by (i, k), k above another cover of
    i and between j's neighbours in i's row: the order of the pairs and each
    point's count stay, but (i, k) is not a cover, so the file is declined
    to the closure of its pairs."""
    sample = sa.sample_kernel_poset(so.gc(F(3, 10)), 30, SeededRng(seed))
    head, rows = _lines(ps.write_poset(sample))
    pairs = [tuple(map(int, row.split())) for row in rows]
    swaps = 0
    for t, (i, j) in enumerate(pairs):
        row = [h for tail, h in pairs if tail == i]
        at = row.index(j)
        below, above = [0, *row][at], [*row, sample.n + 1][at + 1]
        for k in range(below + 1, above):
            if k == j or not any(sample.less(h - 1, k - 1) for h in row if h != j):
                continue
            arcs = [*pairs[:t], (i, k), *pairs[t + 1 :]]
            masks = [0] * sample.n
            for tail, h in arcs:
                masks[tail - 1] |= 1 << (h - 1)
            p = assert_reads_as("\n".join([head, *(f"{x} {y}" for x, y in arcs)]) + "\n",
                                ps.FinitePoset)
            assert list(p.succ) == ref.fixpoint_closure(masks)
            swaps += 1
    assert swaps


def test_a_dense_file_with_a_cover_left_out_or_reversed():
    text = ps.write_poset(sa.sample_kernel_poset(so.gc(F(3, 10)), 300, SeededRng(3)))
    head, rows = _lines(text)
    assert_reads_as("\n".join([head, *rows[:100], *rows[101:]]) + "\n", ps.FinitePoset)
    with pytest.raises(CycleError, match=r"^relation has a cycle at or below point \d+$"):
        tail, top = rows[0].split()
        ps.read_poset("\n".join([head, *rows, f"{top} {tail}"]) + "\n")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("poset 3\n1 2\n2 3\n3 1\n", CycleError, "relation has a cycle at or below point 1"),
        ("poset 2\n1 1\n", CycleError, "relation has a cycle at or below point 1"),
        ("poset 3\n2 2\n", CycleError, "relation has a cycle at or below point 2"),
        ("poset 4\n1 2\n2 3\n3 2\n", CycleError, "relation has a cycle at or below point 2"),
        ("poset 4\n3 4\n1 2\n2 1\n", CycleError, "relation has a cycle at or below point 1"),
        ("poset 3\n1 2\n2 4\n", InvariantError, "pair (2,4) out of range 1..3"),
        ("poset 3\n0 1\n", InvariantError, "pair (0,1) out of range 1..3"),
    ],
)
def test_bad_files_raise_as_before(text, error, message):
    with pytest.raises(error) as info:
        ps.read_poset(text)
    assert str(info.value) == message


def test_the_deepest_files_at_the_point_cap():
    """A chain of MAX_POINTS points, two disjoint chains of half as many and
    the chain's arcs in reverse order: each Kahn layer one point deep."""
    n, half = textio.MAX_POINTS, textio.MAX_POINTS // 2
    lines = [f"{i} {i + 1}\n" for i in range(1, n)]
    p = ps.read_poset(f"poset {n}\n" + "".join(lines))
    assert type(p) is ps.IntervalSample and p == ps.chain(n)
    two = ps.read_poset(f"poset {n}\n" + "".join(lines[: half - 1] + lines[half:]))
    low = [((1 << half) - 1) & -(2 << i) for i in range(half)]  # the points above i, below half
    assert type(two) is ps.FinitePoset and list(two.succ) == low + [row << half for row in low]
    tails = np.arange(n - 2, -1, -1)
    assert ps.transitive_closure(n, tails, tails + 1) == ps.chain(n)


@pytest.mark.parametrize("n", [0, 1, 7, 63, 64, 65, 71, 130])
def test_transpose_of_packed_rows(n):
    rng = random.Random(n)
    masks = [rng.getrandbits(n) if n else 0 for _ in range(n)]
    expected = tuple(sum((masks[i] >> j & 1) << i for i in range(n)) for j in range(n))
    assert ps._transpose(ps._pack_rows(masks, n), n) == expected


def test_numpy_ends_are_checked_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ps.IntervalSample([(np.int64(1), np.float32(2.5)), (np.float16(3), np.float32(4))])
        assert p.intervals == ((1, F(5, 2)), (3, 4))
        for bad in [(np.float32("nan"), 1), (0, np.float32("inf")), (0, 10**400)]:
            with pytest.raises(InvariantError, match="not finite as a float"):
                ps.IntervalSample([bad])
