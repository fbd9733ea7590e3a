"""Finite strict partial orders as immutable first-class values.

A poset on n points is stored as one tuple of Python-int bitmasks: ``succ[i]``
has bit j set iff i < j; ``pred``, its transpose, is built when first read.
Bitmask rows give O(1) comparability tests, O(n/64)-word set operations for
the recognition and density machinery, and cheap immutability/hashing.

Bulk consumers ask three queries: `degrees` (every down- or up-set size),
`degree_counts` (how many points have each such size) and `precedes` (i < j
over numpy index arrays).  An `IntervalSample`, an interval order kept as its
ends, integer arrays over one denominator, answers `degrees` and `precedes`
from one exact order of its ends (an argsort, a re-sort of ties and a
running count of left ends), `degree_counts` from one merge of its sorted
left and right ends (no ranks), and builds its bitmask rows only when read.
`read_poset` gives one for a file that is exactly the sorted cover set of
an interval order, as `write_poset` writes a sample; one Kahn pass serves the
cover check and, for any other file, the closure.

Point indices are 0-based everywhere in the Python API.  The text format and
``from_relations`` use 1-based labels, matching the on-disk convention;
conversion happens only at that boundary.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sized
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from numbers import Real
from operator import or_
from typing import Iterable, Literal, Sequence

import numpy as np

from . import textio
from .errors import (
    CycleError,
    EmptySubset,
    FormatError,
    InvalidArgument,
    InvariantError,
    SizeLimit,
)
from .pwl import over_lcm

Sign = Literal["minus", "plus"]

_CATALOG_MAX = 7
_LAYERED = 32  # arcs a point from which `_kahn` runs in numpy layers
_BLOCK = 1 << 16  # covers a block of `_cover_blocks` holds, about: whole tails
_ROW_BITS = 1 << 20  # unpacked bits of the rows `check_valid` reads at a time, about


def _pack_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """n bitmask rows as an (n, ceil(n/8)) uint8 array: bit j of masks[i] is
    bit j % 8 of byte j // 8 of row i."""
    nbytes = (n + 7) // 8
    return np.frombuffer(
        b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8
    ).reshape(n, nbytes)


def _int_rows(packed: np.ndarray) -> tuple[int, ...]:
    """Rows packed as by `_pack_rows`, as bitmask ints."""
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _bit_counts(rows: Sequence[int]) -> np.ndarray:  # each row's bits, read-only
    out = np.fromiter(map(int.bit_count, rows), dtype=np.int64, count=len(rows))
    out.flags.writeable = False
    return out


def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _windows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The ranges lo[k]..hi[k]-1, concatenated."""
    counts = hi - lo
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)


def _key_type(n: int) -> type:  # holds the keys i·n + j of pairs of points
    return np.int32 if n * n < 2**31 else np.int64


def _cover_windows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """(by_a, lo, hi, least) for the order i < j iff b_i < a_j, integer ends
    with no a equal to a b: j covers i iff b_i < a_j < least_i, the least b
    of a successor of i, so i's covers are one window by_a[lo_i:hi_i] of the
    points in order of a, by_a of `_key_type`."""
    by_a = np.argsort(a)
    a_sorted = a[by_a]
    least_b = np.append(np.minimum.accumulate(b[by_a][::-1])[::-1], np.iinfo(b.dtype).max)
    lo = np.searchsorted(a_sorted, b)
    least = least_b[lo]
    return by_a.astype(_key_type(len(a))), lo, np.searchsorted(a_sorted, least), least


def _tail_blocks(starts: np.ndarray) -> list[tuple[int, int]]:
    """(t0, t1) of each block of whole tails t0..t1-1 with about _BLOCK
    covers, at least one, tail i's covers at starts[i]:starts[i + 1]: a
    block ends after the tail that holds its _BLOCK-th cover."""
    cuts = np.searchsorted(starts, np.arange(_BLOCK, starts[-1], _BLOCK)).tolist()
    cuts = [0, *cuts, len(starts) - 1]  # repeats give empty blocks; np.unique keeps heap
    return [(t0, t1) for t0, t1 in zip(cuts, cuts[1:]) if starts[t1] > starts[t0]]


def transitive_closure(n: int, tails: np.ndarray, heads: np.ndarray) -> "FinitePoset":
    """The transitive closure of the digraph on 0..n-1 with arcs
    tails[k] -> heads[k] (integer arrays); repeats are allowed, and a cycle
    (a self-arc included) raises CycleError.  After `_kahn`, one sweep in
    reverse order sets each row to its heads' closed rows: Python ints, or
    packed numpy rows."""
    heads = heads[np.argsort(tails, kind="stable")]
    starts = np.append(0, np.cumsum(np.bincount(tails, minlength=n)))
    return _close(n, heads, starts, *_kahn(n, heads, starts)[:2])


def _no_cycle(indeg) -> None:
    # the points Kahn's algorithm never reaches lie on a cycle or above one
    stuck = next((i for i, d in enumerate(indeg) if d), None)
    if stuck is not None:
        raise CycleError(f"relation has a cycle at or below point {stuck + 1}")


def _kahn(n, heads, starts) -> tuple[list, list, np.ndarray]:
    """(order, adj, below): Kahn's order of the points, with arcs sorted by
    tail, heads[starts[i]:starts[i + 1]] leaving i, and below[j] arcs into
    j; a cycle raises CycleError.  Below _LAYERED arcs a point: a list of
    points, one Python step per arc, and the heads adj[i] of each i.  From it:
    the list of whole layers, by numpy rounds that cost more per layer and
    less per arc, and the heads adj[k] of layer k's arcs.  The two cross
    near 32 on random digraphs and interval-order covers (BENCH_poset_text.json)."""
    below = np.bincount(heads, minlength=n)
    if len(heads) >= _LAYERED * n:
        indeg, layers, adj = below, [np.flatnonzero(below == 0)], []
        while layers[-1].size:
            adj.append(heads[_windows(starts[layers[-1]], starts[layers[-1] + 1])])
            hits = np.bincount(adj[-1], minlength=n)
            indeg = indeg - hits
            layers.append(np.flatnonzero((indeg == 0) & (hits > 0)))
        _no_cycle(indeg)
        return layers, adj, below
    arcs, starts = heads.tolist(), starts.tolist()
    adj = [arcs[lo:hi] for lo, hi in zip(starts, starts[1:])]
    indeg = below.tolist()
    order = [i for i in range(n) if not indeg[i]]
    for i in order:  # the list grows while it is walked: Kahn's queue
        for j in adj[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    _no_cycle(indeg)
    return order, adj, below


def _close(n, heads, starts, order, adj) -> "FinitePoset":
    if len(heads) < _LAYERED * n:
        reach = [0] * n  # closed rows with each point's own bit set
        for i in reversed(order):
            reach[i] = reduce(or_, map(reach.__getitem__, adj[i]), 1 << i)
        for i in range(n):  # in place: one set of rows is held at a time
            reach[i] ^= 1 << i
        return FinitePoset.from_succ_masks(reach)
    # OR of packed n/8-byte rows: O(n · layers + arcs · n/8) in numpy
    order = np.concatenate(order)[::-1]
    order = order[starts[order + 1] > starts[order]]  # later layers first: heads are closed
    own = np.arange(n)
    bit = (1 << (own & 7)).astype(np.uint8)
    reach = np.zeros((n, (n + 7) // 8), dtype=np.uint8)  # closed rows, own bit set
    reach[own, own >> 3] = bit
    for i, lo, hi in zip(order.tolist(), starts[order].tolist(), starts[order + 1].tolist()):
        reach[i] |= np.bitwise_or.reduce(reach.take(heads[lo:hi], axis=0), axis=0)
    reach[own, own >> 3] ^= bit
    return FinitePoset(n, _int_rows(reach))


def _interval_covers(n, heads, starts, order, adj, below) -> "IntervalSample | None":
    """The interval order whose covers are the arcs, distinct and sorted by
    (tail, head) as `_kahn` takes them, or None.  Its down-sets form a chain
    and no lower cover of x is below another, so along Kahn's order |D(x)|
    is x's lower covers plus their largest |D|.  With m(x) the least |D| of
    an upper cover (n + 1 if none), it is the order of the intervals
    [|D|, m - 1/2] if that order has those covers: if each point has as
    many arcs as covers (`_cover_windows`) and every arc (i, j) lies in i's
    window, b_i < a_j < least_i.  The least a_j of i's arcs is b_i + 1, so
    only the largest is compared.  No interval is then empty, for a point
    with |D| >= m has no upper cover and lies in no lower cover's window."""
    counts = np.diff(starts)
    if len(heads) < _LAYERED * n:
        down, best = below.tolist(), [0] * n
        for i in order:
            d = down[i] = down[i] + best[i]
            for j in adj[i]:
                best[j] = max(best[j], d)
        down = np.array(down)
    else:
        down, best = below.copy(), np.zeros(n, dtype=np.int64)
        for layer, layer_heads in zip(order, adj):
            down[layer] += best[layer]
            np.maximum.at(best, layer_heads, np.repeat(down[layer], counts[layer]))
    above, head_down = counts > 0, down.astype(heads.dtype)[heads]  # above: an upper cover
    up = np.full(n, n + 1)
    up[above] = np.minimum.reduceat(head_down, starts[:-1][above])
    a, b = 2 * down, 2 * up - 1
    _, lo, hi, least = _cover_windows(a, b)
    top = np.maximum.reduceat(head_down, starts[:-1][above])
    if (hi - lo != counts).any() or (2 * top >= least[above]).any():
        return None
    return IntervalSample.from_ends(2, a, b)


def _is_minus(sign: Sign) -> bool:
    if sign not in ("minus", "plus"):
        raise InvalidArgument(f"sign must be 'minus' or 'plus', got {sign!r}")
    return sign == "minus"


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """Strict partial order on points 0..n-1, held as its `succ` rows: `pred`,
    their transpose, and each degree vector are built when first read.

    Two posets are equal when their `succ` rows are, whatever their class:
    a subclass that builds its masks lazily compares like any other poset.
    """

    n: int
    succ: tuple[int, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.n == other.n and self.succ == other.succ

    def __hash__(self) -> int:
        return hash((self.n, self.succ))

    @classmethod
    def from_succ_masks(cls, succ: Sequence[int]) -> "FinitePoset":
        """The poset with these successor rows, taken as given: a caller
        that cannot vouch for them calls `check_valid`."""
        succ = tuple(succ)
        return cls(len(succ), succ)

    @cached_property
    def pred(self) -> tuple[int, ...]:
        """The transpose of `succ`, from a packing freed once unpacked (not `_packed`)."""
        bits = np.unpackbits(_pack_rows(self.succ, self.n), axis=1, bitorder="little", count=self.n)
        return _int_rows(np.packbits(bits.T, axis=1, bitorder="little"))

    def check_valid(self) -> None:
        """Raise InvariantError unless `succ` is a strict partial order: read
        as int32 arcs, _ROW_BITS bits of rows at a time, its rows have no
        cycle and equal their own `transitive_closure`."""
        n = self.n
        if n <= 0:
            raise InvariantError("poset must be non-empty")
        if len(self.succ) != n:
            raise InvariantError("mask length mismatch")
        if any(row >> n for row in self.succ):
            raise InvariantError("mask has bits outside 0..n-1")
        starts, step = np.r_[0, np.cumsum(self.degrees("plus"))], -(-_ROW_BITS // n)
        heads = np.empty(starts[-1], dtype=np.int32)
        for i in range(0, n, step):
            rows = np.unpackbits(self._packed[i:i + step], axis=1, bitorder="little", count=n)
            heads[starts[i]:starts[min(i + step, n)]] = np.nonzero(rows)[1]
        try:
            closed = _close(n, heads, starts, *_kahn(n, heads, starts)[:2])
        except CycleError as e:
            raise InvariantError(str(e)) from e
        if closed.succ != self.succ:
            raise InvariantError("relation is not transitive")

    def less(self, i: int, j: int) -> bool:
        return bool((self.succ[i] >> j) & 1)

    def degrees(self, sign: Sign) -> np.ndarray:
        """Predecessor (minus) or successor (plus) count of every point, read-only."""
        return self._degrees(_is_minus(sign))

    def _degrees(self, minus: bool) -> np.ndarray:
        return self._minus_degrees if minus else self._plus_degrees

    _minus_degrees = cached_property(lambda self: _bit_counts(self.pred))
    _plus_degrees = cached_property(lambda self: _bit_counts(self.succ))

    def degree_counts(self, sign: Sign) -> np.ndarray:
        """Entry d is the number of points with d predecessors (minus) or
        successors (plus), for d in 0..n-1: `degrees` counted by value."""
        return self._degree_counts(_is_minus(sign))

    def _degree_counts(self, minus: bool) -> np.ndarray:
        return np.bincount(self._degrees(minus), minlength=self.n)

    @cached_property
    def _packed(self) -> np.ndarray:
        return _pack_rows(self.succ, self.n)

    def precedes(self, u, v) -> np.ndarray:
        """Boolean array of u < v over broadcastable arrays of point indices."""
        u, v = np.asarray(u), np.asarray(v)
        return ((self._packed[u, v >> 3] >> (v & 7)) & 1).astype(bool)

    def comparable(self, i: int, j: int) -> bool:
        return self.less(i, j) or self.less(j, i)

    def relation_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in _bits(self.succ[i])]

    def pair_count(self) -> int:
        return int(self.degrees("plus").sum())

    def cover_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of the transitive reduction, sorted by (i, j): in a
        linear extension (by up-set size, largest first: no `pred`) the lowest
        bit left in a row is a cover, cleared with its up-set to find the next,
        O(n² + covers·n/64)."""
        n = self.n
        order = np.argsort(-self.degrees("plus"), kind="stable")
        bits = np.unpackbits(self._packed, axis=1, bitorder="little", count=n)
        rows = np.packbits(bits[order][:, order], axis=1, bitorder="little")
        succ = _int_rows(rows)
        label, keys = order.tolist(), []
        for i, rest in enumerate(succ):
            while rest:
                j = (rest & -rest).bit_length() - 1
                keys.append(label[i] * n + label[j])
                rest &= ~(succ[j] | 1 << j)
        return np.divmod(np.sort(np.array(keys, dtype=np.int64)), n)

    def _cover_blocks(self):
        """`cover_pairs` in blocks of whole tails (`_tail_blocks`), for `write_poset`."""
        tails, heads = self.cover_pairs()
        at = np.searchsorted(tails, np.arange(self.n + 1))
        return ((tails[at[t0]:at[t1]], heads[at[t0]:at[t1]]) for t0, t1 in _tail_blocks(at))


def from_relations(n: int, pairs: Iterable[tuple[int, int]]) -> FinitePoset:
    """Build the transitive closure of 1-based `pairs` as a poset; a label
    that is not an integer raises InvariantError."""
    table = np.array(list(pairs), dtype=object).reshape(-1, 2)
    for tail, head in table.tolist():
        if not all(isinstance(v, Real) and v % 1 == 0 for v in (tail, head)):  # NaN fails too
            raise InvariantError(f"pair {(tail, head)!r} has a label that is not an integer")
    return from_columns(n, table[:, 0], table[:, 1])


def from_columns(n: int, tails: np.ndarray, heads: np.ndarray) -> FinitePoset:
    """The transitive closure of the 1-based pairs (tails[k], heads[k]); a
    cycle, a pair (i, i) included, raises CycleError.  Pairs sorted by
    (i, j) that are the covers of an interval order give an `IntervalSample`
    (`_interval_covers`), with no masks; any others take the closure.  The
    caller's columns are not changed."""
    return _from_columns(n, [tails, heads], in_place=False)


def _from_columns(n: int, columns: list, in_place: bool) -> FinitePoset:
    """`from_columns` of `columns`, [tails, heads], which it empties, so that
    a column no caller holds is freed once read.  With `in_place`, for
    columns that no caller reads again, those already of the key type are
    shifted to 0-based in place."""
    tails, heads = columns
    columns.clear()
    if n <= 0:
        raise InvariantError("n must be positive")
    if tails.size and (min(tails.min(), heads.min()) < 1 or max(tails.max(), heads.max()) > n):
        k = np.flatnonzero((tails < 1) | (tails > n) | (heads < 1) | (heads > n))[0]
        raise InvariantError(f"pair ({tails[k]},{heads[k]}) out of range 1..{n}")
    kind = _key_type(n)
    tails, heads = (
        np.subtract(c, 1, out=c) if in_place and c.dtype == kind
        else np.subtract(c, 1, dtype=kind, casting="unsafe")
        for c in (tails, heads)
    )
    keys = tails * n + heads
    if not (keys[1:] > keys[:-1]).all():
        return transitive_closure(n, tails, heads)
    starts = np.searchsorted(tails, np.arange(n + 1, dtype=tails.dtype))  # the tails ascend
    del tails, keys  # their memory goes to the attempt
    kahn = _kahn(n, heads, starts)
    return _interval_covers(n, heads, starts, *kahn) or _close(n, heads, starts, *kahn[:2])


def reflect(p: FinitePoset) -> FinitePoset:
    return FinitePoset(p.n, p.pred)


def _incomparable_rows(p) -> tuple[int, ...]:
    """Row i holds the points other than i neither above nor below i.  `p`
    is a poset, or a graph read as a symmetric relation (its `succ` and
    `pred` are both its adjacency), whose rows are then its complement's."""
    full = (1 << p.n) - 1
    return tuple(full & ~(p.succ[i] | p.pred[i] | 1 << i) for i in range(p.n))


def induced(p: FinitePoset, points: Iterable[int]) -> FinitePoset:
    """Restriction of the order to `points` (0-based), reindexed in given order."""
    pts = list(points)
    if not pts:
        raise EmptySubset("induced subposet needs at least one point")
    if len(set(pts)) != len(pts) or any(not 0 <= i < p.n for i in pts):
        raise InvariantError("points must be distinct indices in 0..n-1")
    succ = [
        sum(1 << b for b, j in enumerate(pts) if (p.succ[i] >> j) & 1) for i in pts
    ]
    return FinitePoset.from_succ_masks(succ)


# -- interval orders kept as intervals ----------------------------------------

_FLOAT_MAX = float(np.finfo(np.float64).max)


class IntervalSample(FinitePoset):
    """An interval order kept as its closed intervals: i < j iff b_i < a_j.

    It holds `ends`, (den, a, b): the left ends a and the right ends b as
    integer arrays over one denominator den, int64 while they fit.  On first
    use the 2n ends are put in one exact order, an argsort by value and one
    re-sort of the ties (O(n log n)), and `ranks` holds each end's position in
    it, so `precedes` compares ranks, `degrees` reads a running count of left
    ends along the order and `cover_pairs`, which the text format writes,
    reads one window of ranks per point, a block of whole tails at a time;
    ranks and degrees are cached read-only.  `degree_counts` needs no ranks: it
    reads one merge of the sorted a and b (`_a_upto_b`), or counts the degrees
    once they are built.  The `Fraction`s of `intervals` and the bitmask rows
    `succ` and `pred` (Θ(n²) bits) are built only when first read, so every
    `FinitePoset` method and `==` work as for any other poset.
    """

    def __init__(self, intervals: Sequence[tuple[Fraction, Fraction]]):
        if not intervals:
            raise InvariantError("posets are non-empty")
        for k, pair in enumerate(intervals):
            a, b = pair if isinstance(pair, Sized) and len(pair) == 2 else (None, None)
            if not (isinstance(a, Real) and isinstance(b, Real)):
                raise InvariantError(f"interval {k} is not a pair of numbers: {pair!r}")
            # NaN fails too; numpy ends compare as Python numbers (the bound overflows float32)
            ends = [x.item() if isinstance(x, np.generic) else x for x in (a, b)]
            if not all(abs(x) <= _FLOAT_MAX for x in ends):
                raise InvariantError(f"interval {k} has an end not finite as a float: {a}, {b}")
            if a > b:
                raise InvariantError(f"interval {k} is empty: {a} > {b}")
        den, (a, b) = over_lcm(*zip(*intervals))
        vars(self).update(n=len(intervals), ends=(den, a, b))

    @classmethod
    def from_ends(cls, den: int, a: np.ndarray, b: np.ndarray) -> "IntervalSample":
        """The sample of the intervals [a_i/den, b_i/den], integer arrays."""
        sample = cls.__new__(cls)
        vars(sample).update(n=len(a), ends=(den, a, b))
        return sample

    @cached_property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        den, a, b = self.ends
        return tuple(zip(*(map(Fraction, e.tolist(), itertools.repeat(den)) for e in (a, b))))

    def _rows(self, by: np.ndarray, minus: bool) -> tuple[int, ...]:
        # succ[i] holds the degrees("plus")[i] left ends of greatest rank and
        # pred[j] the degrees("minus")[j] right ends of least rank
        prefix = list(itertools.accumulate((1 << i for i in by.tolist()), or_, initial=0))
        return tuple(prefix[d] for d in self._degrees(minus).tolist())

    succ = cached_property(lambda self: self._rows(np.argsort(-self.ranks[0]), False))
    pred = cached_property(lambda self: self._rows(np.argsort(self.ranks[1]), True))

    @cached_property
    def _end_order(self) -> tuple[np.ndarray, ...]:
        """(rank_a, rank_b, degrees minus, degrees plus), read-only.

        The 2n ends a + b are argsorted by value; then one re-sort puts each
        run of equal values in order of position k = side·n + i (left ends
        first, then by index), so the order is `lexsort`'s on any host's
        sort kernel, for int64 and object-int ends alike.  Along it a_upto
        counts the left ends so far: a_j has rank_a[j] + 1 - a_upto[rank_a[j]]
        right ends before it and b_i has n - a_upto[rank_b[i]] left ends
        after it."""
        n, (_, a, b) = self.n, self.ends
        v = np.concatenate([a, b])
        order = np.argsort(v)
        v = v[order]
        key = np.cumsum(np.r_[False, v[1:] != v[:-1]])  # the run of equal values
        del v  # each temporary is freed once read, to keep the peak low
        key *= 2 * n
        key += order  # distinct keys, runs already in order: timsort is quick
        order = order[np.argsort(key, kind="stable")]
        del key
        rank = np.empty(2 * n, dtype=np.int64)
        rank[order] = np.arange(2 * n)
        a_upto = np.cumsum(order < n)
        del order
        rank_a, rank_b = rank[:n], rank[n:]
        out = (rank_a, rank_b, rank_a + 1 - a_upto[rank_a], n - a_upto[rank_b])
        for x in out:
            x.flags.writeable = False
        return out

    @property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """(rank_a, rank_b): positions of a_i and b_i in the order of the
        ends a + b by value, a left end first at equal values, so that
        b_i < a_j iff rank_b[i] < rank_a[j]; read-only."""
        return self._end_order[:2]

    def _degrees(self, minus: bool) -> np.ndarray:
        return self._end_order[2 if minus else 3]

    @cached_property
    def _a_upto_b(self) -> np.ndarray:
        """k, read-only: k[j] counts the left ends at or below b_(j), the
        j-th least right end, by one stable argsort of the sorted a and b (a
        merge of two runs), a left end first at equal values; exact on int64
        and object ends.  The k[j] - k[j-1] left ends in (b_(j-1), b_(j)]
        have j right ends below them and b_(j) has n - k[j] left ends above."""
        n, (_, a, b) = self.n, self.ends
        order = np.argsort(np.concatenate([np.sort(a), np.sort(b)]), kind="stable")
        k = np.flatnonzero(order >= n) - np.arange(n)
        k.flags.writeable = False
        return k

    def _degree_counts(self, minus: bool) -> np.ndarray:
        if "_end_order" in vars(self):  # degrees are built: count them
            return super()._degree_counts(minus)
        k = self._a_upto_b  # 1 <= k <= n and k[-1] = n, as every a_i <= b_i
        return np.diff(k, prepend=0) if minus else np.bincount(self.n - k, minlength=self.n)

    def precedes(self, u, v) -> np.ndarray:
        rank_a, rank_b = self.ranks
        return rank_b[u] < rank_a[v]

    def cover_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        # the blocks joined: int64 pairs, as of any poset
        blocks = list(self._cover_blocks()) or [(np.empty(0, np.int64),) * 2]
        return np.concatenate([t for t, _ in blocks]), np.concatenate([h for _, h in blocks])

    def _cover_blocks(self):
        """The covers as int64 (tails, heads) blocks of whole tails (`_tail_blocks`)
        sorted by (i, j): the windows of one `_cover_windows` call on the ranks,
        sorted as keys i·n + j a block at a time.  More covers than ⌊MAX_POINTS²/4⌋
        raise SizeLimit before any block is built: a cover graph is triangle-free,
        so by Mantel's bound no poset within the point cap has more."""
        n, kind = self.n, _key_type(self.n)
        by_a, lo, hi, _ = _cover_windows(*self.ranks)
        starts, cap = np.r_[0, np.cumsum(hi - lo)], textio.MAX_POINTS
        if (covers := int(starts[-1])) > cap * cap // 4:
            raise SizeLimit(f"{covers} covers: no poset of at most {cap} points has so many")
        for t0, t1 in _tail_blocks(starts):
            key = np.repeat(np.arange(t0, t1, dtype=kind) * n, hi[t0:t1] - lo[t0:t1])
            key += by_a[_windows(lo[t0:t1], hi[t0:t1])]
            key.sort()
            yield np.divmod(key, np.int64(n))


# -- named posets -----------------------------------------------------------


def chain(n: int) -> FinitePoset:
    if n < 1:
        raise InvariantError("posets are non-empty")
    full = (1 << n) - 1
    return FinitePoset.from_succ_masks([(full >> (i + 1)) << (i + 1) for i in range(n)])


def antichain(n: int) -> FinitePoset:
    if n < 1:
        raise InvariantError("posets are non-empty")
    return FinitePoset.from_succ_masks([0] * n)


def two_plus_two() -> FinitePoset:
    """Two disjoint 2-chains: the pattern forbidden in interval orders."""
    return FinitePoset.from_succ_masks([0b0010, 0, 0b1000, 0])


def three_plus_one() -> FinitePoset:
    """A 3-chain plus an isolated point: additionally forbidden in semiorders."""
    return FinitePoset.from_succ_masks([0b0110, 0b0100, 0, 0])


def in_star(k: int) -> FinitePoset:
    """k incomparable points all below one centre (centre is the last point)."""
    if k < 0:
        raise InvariantError("k must be nonnegative")
    succ = [1 << k] * k + [0]
    return FinitePoset.from_succ_masks(succ)


def out_star(k: int) -> FinitePoset:
    """k incomparable points all above one centre (centre is the last point)."""
    return reflect(in_star(k))


# -- canonical form and enumeration -----------------------------------------


def _colour_blocks(n: int, succ: Sequence[int], pred: Sequence[int]) -> list[list[int]]:
    """The points grouped by colour in the refinement of the relation (`pred`
    is its transpose), blocks in colour order.  An isomorphism maps each
    block onto the block of the same colour."""
    colors: list = [(pred[i].bit_count(), succ[i].bit_count()) for i in range(n)]
    for _ in range(n):
        new = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in _bits(succ[i]))),
                tuple(sorted(colors[j] for j in _bits(pred[i]))),
            )
            for i in range(n)
        ]
        ranks = {c: r for r, c in enumerate(sorted(set(new)))}
        # each new colour contains the old one, so the partition is stable
        # exactly when the number of colours did not grow
        if len(ranks) == len(set(colors)):
            break
        colors = [ranks[c] for c in new]
    blocks: dict = {}
    for i, c in enumerate(colors):
        blocks.setdefault(c, []).append(i)
    return [blocks[c] for c in sorted(blocks)]


def canonical_key(p: FinitePoset) -> tuple[int, tuple[int, ...]]:
    """Minimum relation-matrix encoding over colour-respecting relabelings:
    the least `succ` rows relabelled by an order of the points that lists
    the colour blocks in turn, each block in one of its orders.  Two such
    orders give the same rows iff they differ by an automorphism that keeps
    every block.

    Complete invariant: two posets have equal keys iff isomorphic.  A
    `graphs.SimpleGraph`, a symmetric relation, gets its graph class's key.
    """
    succ = p.succ

    def relabelled(perms) -> tuple[int, ...]:
        order = [i for block in perms for i in block]
        pos = {old: new for new, old in enumerate(order)}
        return tuple(sum(1 << pos[j] for j in _bits(succ[i])) for i in order)

    blocks = _colour_blocks(p.n, succ, p.pred)
    return (p.n, min(map(relabelled, itertools.product(*map(itertools.permutations, blocks)))))


@dataclass(frozen=True)
class PosetCatalog:
    """One representative per isomorphism class, sizes 1..max_size."""

    max_size: int
    classes: tuple[FinitePoset, ...]

    def of_size(self, k: int) -> tuple[FinitePoset, ...]:
        return tuple(p for p in self.classes if p.n == k)

    def class_id(self, idx: int) -> str:
        p = self.classes[idx]
        smaller = sum(1 for q in self.classes[:idx] if q.n == p.n)
        return f"{p.n}-{smaller}"

    def ids(self) -> list[str]:
        return [self.class_id(i) for i in range(len(self.classes))]

    @cached_property
    def _index(self) -> dict:
        return {canonical_key(q): i for i, q in enumerate(self.classes)}

    def index_of(self, p: FinitePoset) -> int:
        idx = self._index.get(canonical_key(p))
        if idx is None:
            raise KeyError("poset not in catalog")
        return idx


def _downclosed_subsets(p: FinitePoset) -> list[int]:
    out = []
    for s in range(1 << p.n):
        if all(p.pred[i] & ~s == 0 for i in _bits(s)):
            out.append(s)
    return out


@lru_cache(maxsize=None)
def _enumerate_size(k: int) -> tuple[FinitePoset, ...]:
    if k == 1:
        return (antichain(1),)
    reps: dict = {}
    for base in _enumerate_size(k - 1):
        ideals = _downclosed_subsets(base)
        filters = _downclosed_subsets(reflect(base))
        for down in ideals:
            for up in filters:
                if down & up:
                    continue
                # transitivity through the new point: every d in down must be
                # below every u in up already
                if any(up & ~base.succ[d] for d in _bits(down)):
                    continue
                succ = [
                    base.succ[i] | ((1 << k - 1) if (down >> i) & 1 else 0)
                    for i in range(k - 1)
                ]
                succ.append(up)
                cand = FinitePoset.from_succ_masks(succ)
                key = canonical_key(cand)
                if key not in reps:
                    reps[key] = cand
    return tuple(reps[key] for key in sorted(reps))


def enumerate_posets(max_size: int) -> PosetCatalog:
    """All posets with 1..max_size points, one per isomorphism class."""
    if max_size < 1:
        raise InvariantError("max_size must be at least 1")
    if max_size > _CATALOG_MAX:
        raise SizeLimit(f"catalog capped at size {_CATALOG_MAX}")
    classes: list[FinitePoset] = []
    for k in range(1, max_size + 1):
        classes.extend(_enumerate_size(k))
    return PosetCatalog(max_size, tuple(classes))


@lru_cache(maxsize=8)
def cached_catalog(max_size: int) -> PosetCatalog:
    return enumerate_posets(max_size)


# -- text format -------------------------------------------------------------


def write_poset(p: FinitePoset) -> str:
    """Poset text format: header, then transitive-reduction pairs, 1-based.

    The pairs are read a block of whole tails at a time (`_cover_blocks`), so
    only the text and one block are held; each point's pairs are one `join`."""
    names = np.array([str(k) for k in range(1, p.n + 1)], dtype=object)
    tail_names, lines = names.tolist(), [f"poset {p.n}"]
    for tails, heads in p._cover_blocks():
        heads = names[heads].tolist()  # shared name strings, no int object per pair
        t0, t1 = int(tails[0]), int(tails[-1]) + 1  # tails ascend
        starts = np.searchsorted(tails, np.arange(t0, t1 + 1)).tolist()
        for name, lo, hi in zip(tail_names[t0:t1], starts, starts[1:]):
            if lo < hi:
                lines.append(f"{name} " + f"\n{name} ".join(heads[lo:hi]))
    return "\n".join(lines + [""])  # the last line's end, with no copy of the text to add it


def read_poset(text: str) -> FinitePoset:
    """The poset of a poset file (`from_columns`): an `IntervalSample`, with
    no masks, if the pairs are the sorted covers of an interval order.  The
    columns that `int_pairs` builds are shifted in place."""
    _, n, start = textio.read_header(text, "poset")
    return _from_columns(n, list(textio.int_pairs(text, start)), in_place=True)


_NAMED = {
    "h": two_plus_two,
    "l": three_plus_one,
}
_SIZED = re.compile(r"(anti)?chain(\d+)|q(\d+)([+-])")


def named_poset(name: str) -> FinitePoset:
    """Resolve built-in poset names: h, l, chain<k>, antichain<k>, q<k>-, q<k>+.

    A name with more than `textio.MAX_POINTS` points raises SizeLimit before
    anything is built."""
    key = name.strip().lower()
    if key in _NAMED:
        return _NAMED[key]()
    m = _SIZED.fullmatch(key)
    if not m:
        raise FormatError(f"unknown poset name: {name!r}")
    digits = (m[2] or m[3]).lstrip("0")
    if len(digits) > len(str(textio.MAX_POINTS)):  # before `int` meets its digit limit
        raise SizeLimit(f"a {len(digits)}-digit size is over the cap of {textio.MAX_POINTS} points")
    k = int(digits or "0")  # `int` counts leading zeros against its limit
    points = k if m[2] else k + 1  # a star has k leaves and a centre
    if points > textio.MAX_POINTS:
        raise SizeLimit(f"{name!r} has {points} points, the cap is {textio.MAX_POINTS}")
    if m[2]:
        return (antichain if m[1] else chain)(k)
    return in_star(k) if m[4] == "-" else out_star(k)
