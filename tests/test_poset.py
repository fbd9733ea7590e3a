import itertools
import math
import random
import re
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poslim import poset as ps
from poslim import sampling as sa
from poslim.errors import CycleError, EmptySubset, InvariantError, SizeLimit
from poslim.rng import SeededRng

import reference as ref
from conftest import outcome, posets


def test_from_relations_closure():
    p = ps.from_relations(3, [(1, 2), (2, 3)])
    assert p.less(0, 2)
    assert p.pair_count() == 3


def test_from_relations_antichain():
    p = ps.from_relations(3, [])
    assert p.pair_count() == 0


def test_from_relations_cycle():
    with pytest.raises(CycleError):
        ps.from_relations(2, [(1, 2), (2, 1)])
    with pytest.raises(CycleError):
        ps.from_relations(3, [(1, 2), (2, 3), (3, 1)])


@given(st.data())
@settings(max_examples=120)
def test_from_relations_matches_fixpoint_closure(data):
    """Acyclic pairs, up a hidden order under shuffled labels, with
    transitively redundant and repeated pairs, in shuffled order."""
    n = data.draw(st.integers(1, 10))
    label = data.draw(st.permutations(range(1, n + 1)))
    up = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda t: t[0] < t[1]
    )
    pairs = [(label[i], label[j]) for i, j in data.draw(st.lists(up, max_size=3 * n))]
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    pairs = data.draw(st.permutations(pairs))
    p = ps.from_relations(n, pairs)
    assert p == ref.relation(n, pairs)
    p.check_valid()
    assert ps.from_relations(n, pairs * 32) == p  # 32 arcs a point: the numpy path


@given(st.data())
@settings(max_examples=120)
def test_from_relations_cycles_match_fixpoint_closure(data):
    """Arbitrary pairs, self-pairs included: the reference's closure, or its
    CycleError naming the least point on a cycle or above one."""
    n = data.draw(st.integers(1, 8))
    point = st.integers(1, n)
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=2 * n))
    want = outcome(lambda: ref.relation(n, pairs))
    for copies in (1, 32):  # 32 arcs a point take the numpy path
        assert outcome(lambda: ps.from_relations(n, pairs * copies)) == want


@pytest.mark.parametrize("pairs", [[(1, 2.5)], [(F(3, 2), 2)], [(1, math.nan)], [("1", 2)]])
def test_from_relations_rejects_a_label_not_an_integer(pairs):
    with pytest.raises(InvariantError, match="not an integer"):
        ps.from_relations(3, pairs)


def test_from_relations_self_pair():
    with pytest.raises(CycleError, match="point 2$"):
        ps.from_relations(3, [(1, 3), (2, 2)])


def test_from_relations_bad_index():
    with pytest.raises(InvariantError):
        ps.from_relations(2, [(0, 1)])


@given(st.data())
@settings(max_examples=200)
def test_check_valid_matches_pairwise_reference(data):
    """Random rows, or rows above the diagonal with one arc turned back or
    none, half of them closed first, their arcs read at _ROW_BITS or a row a
    block: check_valid raises exactly when the pair-by-pair test fails."""
    n = data.draw(st.integers(1, 24))
    succ = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        succ = [row >> (i + 1) << (i + 1) for i, row in enumerate(succ)]
    if data.draw(st.booleans()):
        succ = ref.fixpoint_closure(succ)
    if n > 1 and data.draw(st.booleans()):
        i = data.draw(st.integers(1, n - 1))
        succ[i] |= 1 << data.draw(st.integers(0, i - 1))
    with mock.patch.object(ps, "_ROW_BITS", data.draw(st.sampled_from([ps._ROW_BITS, 1]))):
        try:
            ps.FinitePoset(n, tuple(succ)).check_valid()
        except InvariantError:
            assert not ref.is_strict_order(succ)
        else:
            assert ref.is_strict_order(succ)


def _case(n, succ, message, k):
    # each case keeps the id it had when the rows also listed `pred`
    return pytest.param(n, succ, message, id=f"{n}-succ{k}-pred{k}-{message}")


@pytest.mark.parametrize(
    "n, succ, message",
    [
        _case(0, (), "poset must be non-empty", 0),
        _case(2, (0b10,), "mask length mismatch", 1),
        _case(2, (0b100, 0), "mask has bits outside 0..n-1", 2),
        pytest.param(2, (-1, 0), "mask has bits outside 0..n-1", id="2-negative-succ-row"),
        _case(2, (0b01, 0), "relation has a cycle at or below point 1", 4),
        _case(2, (0b10, 0b01), "relation has a cycle at or below point 1", 5),
        _case(3, (0b010, 0b100, 0), "relation is not transitive", 6),
    ],
)
def test_check_valid_messages(n, succ, message):
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        ps.FinitePoset(n, succ).check_valid()


@pytest.mark.parametrize("copies", [1, ps._LAYERED])
def test_pred_is_the_transpose_of_either_closure_reflect_and_out_star(copies):
    """Each arc `copies` times: below _LAYERED arcs a point `_close` sets
    Python-int rows, at it packed numpy rows; `pred` is built on first read."""
    rng = random.Random(copies)
    n = 50
    arcs = [sorted(rng.sample(range(n), 2)) for _ in range(2 * n)] * copies
    p = ps.transitive_closure(n, *np.array(arcs).T)
    assert "pred" not in vars(p)
    assert p.pred == ref.transpose(p.succ)
    q = ps.reflect(p)
    assert q.succ == p.pred and q.pred == ref.transpose(q.succ) == p.succ
    star = ps.out_star(copies)
    assert star.pred == ref.transpose(star.succ)


def test_write_poset_of_a_graph_order_and_fingerprint_of_a_closure_build_no_pred():
    r = sa.random_graph_order(60, 0.1, SeededRng(1))
    assert ps.read_poset(ps.write_poset(r)) == r and "pred" not in vars(r)
    p = ps.transitive_closure(8, np.array([0, 1, 2, 5]), np.array([3, 4, 7, 6]))
    sa.fingerprint(p, 3)
    assert type(p) is ps.FinitePoset and "pred" not in vars(p)


def test_degrees_are_cached_read_only_and_each_sign_reads_its_own_rows():
    p = ps.FinitePoset.from_succ_masks([0b110, 0b100, 0])
    plus = p.degrees("plus")
    assert p.degrees("plus") is plus and not plus.flags.writeable
    assert plus.tolist() == [2, 1, 0] and "pred" not in vars(p)
    minus = p.degrees("minus")
    assert p.degrees("minus") is minus and not minus.flags.writeable
    assert minus.tolist() == [0, 1, 2]


def test_named_posets():
    h = ps.two_plus_two()
    l = ps.three_plus_one()
    assert h.pair_count() == 2
    assert l.pair_count() == 3
    assert ref.is_isomorphic(ps.named_poset("h"), h)
    assert ref.is_isomorphic(ps.named_poset("L"), l)
    assert ps.named_poset("chain5").pair_count() == 10
    assert ps.named_poset("antichain4").pair_count() == 0
    q3m = ps.named_poset("q3-")
    assert q3m.n == 4 and q3m.degrees("minus")[3] == 3
    q3p = ps.named_poset("q3+")
    assert ref.is_isomorphic(q3p, ps.reflect(q3m))


def test_reflect_involution_named():
    for p in (ps.chain(4), ps.antichain(3), ps.two_plus_two(), ps.three_plus_one()):
        assert ps.reflect(ps.reflect(p)) == p
    assert ps.reflect(ps.antichain(3)) == ps.antichain(3)
    # 2+2 and 3+1 are self-dual
    assert ref.is_isomorphic(ps.reflect(ps.two_plus_two()), ps.two_plus_two())
    assert ref.is_isomorphic(ps.reflect(ps.three_plus_one()), ps.three_plus_one())


def test_induced():
    assert ps.induced(ps.chain(3), [0, 2]) == ps.chain(2)
    h = ps.two_plus_two()
    assert ps.induced(h, [0, 1]) == ps.chain(2)
    l = ps.three_plus_one()
    sub = ps.induced(l, [0, 1, 3])
    assert sub.pair_count() == 1 and not sub.comparable(0, 2) and not sub.comparable(1, 2)
    with pytest.raises(EmptySubset):
        ps.induced(h, [])
    with pytest.raises(InvariantError):
        ps.induced(h, [0, 0])


def test_degree():
    assert ps.chain(3).degrees("minus").tolist() == [0, 1, 2]
    assert ps.chain(3).degrees("plus").tolist() == [2, 1, 0]
    assert ps.antichain(4).degrees("plus").tolist() == [0, 0, 0, 0]
    l = ps.three_plus_one()
    assert l.degrees("minus")[2] == 2  # top of the 3-chain


def test_is_isomorphic_basic():
    h, l = ps.two_plus_two(), ps.three_plus_one()
    assert ref.is_isomorphic(h, h)
    assert not ref.is_isomorphic(h, l)
    assert ref.is_isomorphic(ps.from_relations(4, [(4, 3), (3, 2)]), l)
    # relabelled 2+2
    assert ref.is_isomorphic(ps.from_relations(4, [(1, 3), (2, 4)]), h)


def test_catalog_counts():
    cat = ps.enumerate_posets(6)
    counts = [len(cat.of_size(k)) for k in range(1, 7)]
    assert counts == [1, 2, 5, 16, 63, 318]
    assert len(cat.classes) == 405


def test_catalog_counts_against_labelled_bruteforce():
    # independent oracle: all labelled strict orders on 3 points, deduped by
    # the backtracking isomorphism test
    n = 3
    reps = []
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(pairs)):
        masks = [0] * n
        for k, (i, j) in enumerate(pairs):
            if (bits >> k) & 1:
                masks[i] |= 1 << j
        try:
            p = ps.FinitePoset.from_succ_masks(masks)
            p.check_valid()
        except InvariantError:
            continue
        if not any(ref.is_isomorphic(p, q) for q in reps):
            reps.append(p)
    assert len(reps) == 5


def test_catalog_no_duplicates(catalog5):
    for a, b in itertools.combinations(catalog5.of_size(4), 2):
        assert not ref.is_isomorphic(a, b)


def test_index_of(catalog5):
    for i, p in enumerate(catalog5.classes):
        assert catalog5.index_of(p) == i
        assert catalog5.index_of(ps.induced(p, reversed(range(p.n)))) == i
    with pytest.raises(KeyError):
        catalog5.index_of(ps.chain(6))


def test_named_posets_respect_the_point_cap():
    # checked before building; nothing above cap + 1 is tried, so a broken
    # check cannot allocate much
    assert ps.named_poset("chain5000").n == 5000
    assert ps.named_poset("chain" + "0" * 5000 + "3").n == 3  # past `int`'s digit limit
    for name in ("chain5001", "antichain5001", "q5000-", "q5000+"):  # a star has k + 1 points
        with pytest.raises(SizeLimit, match="cap"):
            ps.named_poset(name)


def test_catalog_size_limit():
    with pytest.raises(SizeLimit):
        ps.enumerate_posets(8)


def test_catalog_ids_deterministic(catalog4):
    ids = catalog4.ids()
    assert ids[0] == "1-0"
    assert len(set(ids)) == len(ids)
    assert catalog4.class_id(catalog4.index_of(ps.two_plus_two())).startswith("4-")


@given(posets())
@settings(max_examples=60)
def test_generated_posets_valid(p):
    p.check_valid()


@given(posets())
@settings(max_examples=60)
def test_reflect_involution(p):
    assert ps.reflect(ps.reflect(p)) == p
    assert ps.reflect(p).pair_count() == p.pair_count()


@given(posets())
@settings(max_examples=60)
def test_degree_sums(p):
    total_minus = int(p.degrees("minus").sum())
    total_plus = int(p.degrees("plus").sum())
    assert total_minus == total_plus == p.pair_count()


@given(posets(), posets())
@settings(max_examples=40)
def test_isomorphism_symmetry(p, q):
    assert ref.is_isomorphic(p, q) == ref.is_isomorphic(q, p)
    assert ref.is_isomorphic(p, p)


@given(posets(min_n=3), st.permutations(range(6)))
@settings(max_examples=40)
def test_isomorphism_transitive_on_relabellings(p, perm):
    # b and c are relabellings of p; a ~ b and b ~ c must give a ~ c
    order = [i for i in perm if i < p.n]
    b = ps.induced(p, order)
    c = ps.induced(b, list(reversed(range(p.n))))
    assert ref.is_isomorphic(p, b) and ref.is_isomorphic(b, c)
    assert ref.is_isomorphic(p, c)


@given(posets(min_n=2))
@settings(max_examples=40)
def test_induced_valid(p):
    for size in range(1, p.n + 1):
        sub = ps.induced(p, list(range(size)))
        sub.check_valid()


@given(posets())
@settings(max_examples=60)
def test_text_roundtrip(p):
    assert ps.read_poset(ps.write_poset(p)) == p


def test_writer_emits_cover_pairs_only():
    txt = ps.write_poset(ps.chain(3))
    assert txt == "poset 3\n1 2\n2 3\n"


@given(posets(max_n=10))
@settings(max_examples=150, deadline=None)
def test_cover_pairs_are_the_covering_relation(p):
    """The lowest-bit walk in a linear extension finds exactly the pairs
    i < j with no k between them, whatever the labelling."""
    tails, heads = p.cover_pairs()
    assert list(zip(tails.tolist(), heads.tolist())) == ref.covers(p)


def test_cover_pairs_of_a_reversed_chain():
    n = 300
    p = ps.FinitePoset.from_succ_masks([(1 << i) - 1 for i in range(n)])  # i below every j < i
    tails, heads = p.cover_pairs()
    assert tails.tolist() == list(range(1, n)) and heads.tolist() == list(range(n - 1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ps.chain(0), "posets are non-empty"),
        (lambda: ps.antichain(0), "posets are non-empty"),
        (lambda: ps.in_star(-1), "k must be nonnegative"),
        (lambda: ps.enumerate_posets(0), "max_size must be at least 1"),
    ],
)
def test_constructors_refuse_sizes_below_their_range(build, message):
    with pytest.raises(InvariantError, match=message):
        build()
