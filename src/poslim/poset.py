"""Finite strict partial orders as immutable first-class values.

A poset on n points is stored as two tuples of Python-int bitmasks:
``succ[i]`` has bit j set iff i < j, and ``pred`` is its transpose.  Bitmask
rows give O(1) comparability tests, O(n/64)-word set operations for the
recognition and density machinery, and cheap immutability/hashing.

Bulk consumers ask two queries: `degrees` (every down- or up-set size) and
`precedes` (i < j over numpy index arrays).  An `IntervalSample`, an interval
order kept as its ends, integer arrays over one denominator, answers both
from the ranks of one `lexsort` and builds its bitmask rows only when read.

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


def _pack_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """n bitmask rows as an (n, ceil(n/8)) uint8 array: bit j of masks[i] is
    bit j % 8 of byte j // 8 of row i."""
    nbytes = (n + 7) // 8
    return np.frombuffer(
        b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8
    ).reshape(n, nbytes)


def _transpose_masks(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """Transpose an n x n bitmask matrix (bit j of masks[i] -> bit i of out[j])."""
    if n == 0:
        return ()
    bits = np.unpackbits(_pack_rows(masks, n), axis=1, bitorder="little", count=n)
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return tuple(int.from_bytes(packed[i].tobytes(), "little") for i in range(n))


def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def _windows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The ranges lo[k]..hi[k]-1, concatenated."""
    counts = hi - lo
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)


def transitive_closure(n: int, tails: np.ndarray, heads: np.ndarray) -> list[int]:
    """Successor masks of the transitive closure of the digraph on 0..n-1
    with arcs tails[k] -> heads[k] (int64 arrays); repeats are allowed.

    Kahn's algorithm orders the points, and one sweep in reverse order sets
    each row to its heads' closed rows.  Below 32 arcs a point both steps
    run on Python ints, one step per arc; denser relations run in numpy,
    which costs more per point and per layer but less per arc (32 is where
    the two cross on random digraphs at n=3000 and on interval-order
    covers; BENCH_poset_text.json).  A cycle (a self-arc included) raises
    CycleError.
    """
    heads = heads[np.argsort(tails, kind="stable")]
    counts = np.bincount(tails, minlength=n)
    ends = np.cumsum(counts)
    close = _close_sparse if len(heads) < 32 * n else _close_dense
    return close(n, heads, ends - counts, ends, np.bincount(heads, minlength=n))


def _no_cycle(indeg) -> None:
    # the points Kahn's algorithm never reaches lie on a cycle or above one
    stuck = next((i for i, d in enumerate(indeg) if d), None)
    if stuck is not None:
        raise CycleError(f"relation has a cycle at or below point {stuck + 1}")


def _close_sparse(n, heads, starts, ends, indeg) -> list[int]:
    arcs = heads.tolist()
    adj = [arcs[lo:hi] for lo, hi in zip(starts.tolist(), ends.tolist())]
    indeg = indeg.tolist()
    order = [i for i in range(n) if not indeg[i]]
    for i in order:  # the list grows while it is walked: Kahn's queue
        for j in adj[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    _no_cycle(indeg)
    reach = [0] * n  # closed rows with each point's own bit set
    for i in reversed(order):
        reach[i] = reduce(or_, map(reach.__getitem__, adj[i]), 1 << i)
    return [reach[i] ^ (1 << i) for i in range(n)]


def _close_dense(n, heads, starts, ends, indeg) -> list[int]:
    """Kahn's algorithm by whole layers, then OR of packed n/8-byte rows:
    O(n · layers + arcs · n/8) in numpy."""
    layers = [np.flatnonzero(indeg == 0)]
    while layers[-1].size:
        hits = np.bincount(heads[_windows(starts[layers[-1]], ends[layers[-1]])], minlength=n)
        indeg -= hits
        layers.append(np.flatnonzero((indeg == 0) & (hits > 0)))
    _no_cycle(indeg)
    order = np.concatenate(layers)[::-1]
    order = order[starts[order] < ends[order]]  # later layers first: heads are closed
    own = np.arange(n)
    bit = (1 << (own & 7)).astype(np.uint8)
    reach = np.zeros((n, (n + 7) // 8), dtype=np.uint8)  # closed rows, own bit set
    reach[own, own >> 3] = bit
    for i, lo, hi in zip(order.tolist(), starts[order].tolist(), ends[order].tolist()):
        reach[i] |= np.bitwise_or.reduce(reach.take(heads[lo:hi], axis=0), axis=0)
    reach[own, own >> 3] ^= bit
    return [int.from_bytes(row.tobytes(), "little") for row in reach]


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """Strict partial order on points 0..n-1.

    Two posets are equal when their `succ` rows are, whatever their class:
    a subclass that builds its masks lazily compares like any other poset.
    """

    n: int
    succ: tuple[int, ...]
    pred: tuple[int, ...]

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
        return cls(len(succ), succ, _transpose_masks(succ, len(succ)))

    def check_valid(self) -> None:
        """Raise InvariantError unless irreflexive, antisymmetric, transitive."""
        n = self.n
        if n <= 0:
            raise InvariantError("poset must be non-empty")
        if len(self.succ) != n or len(self.pred) != n:
            raise InvariantError("mask length mismatch")
        full = (1 << n) - 1
        for i in range(n):
            if self.succ[i] & ~full or self.pred[i] & ~full:
                raise InvariantError("mask has bits outside 0..n-1")
            if (self.succ[i] >> i) & 1:
                raise InvariantError(f"irreflexivity fails at {i}")
            if self.succ[i] & self.pred[i]:
                raise InvariantError(f"antisymmetry fails at {i}")
            for j in _bits(self.succ[i]):
                if self.succ[j] & ~self.succ[i]:
                    raise InvariantError(f"transitivity fails through ({i},{j})")
        if _transpose_masks(self.succ, n) != self.pred:
            raise InvariantError("pred is not the transpose of succ")

    def less(self, i: int, j: int) -> bool:
        return bool((self.succ[i] >> j) & 1)

    def degrees(self, sign: Sign) -> np.ndarray:
        """Predecessor (minus) or successor (plus) count of every point."""
        if sign not in ("minus", "plus"):
            raise InvalidArgument(f"sign must be 'minus' or 'plus', got {sign!r}")
        return self._degrees(sign == "minus")

    def _degrees(self, minus: bool) -> np.ndarray:
        rows = self.pred if minus else self.succ
        return np.fromiter(map(int.bit_count, rows), dtype=np.int64, count=self.n)

    @cached_property
    def _packed(self) -> np.ndarray:
        return _pack_rows(self.succ, self.n)

    def precedes(self, u, v) -> np.ndarray:
        """Boolean array of u < v over broadcastable arrays of point indices."""
        u, v = np.asarray(u), np.asarray(v)
        return ((self._packed[u, v >> 3] >> (v & 7)) & 1).astype(bool)

    def comparable(self, i: int, j: int) -> bool:
        return bool(((self.succ[i] | self.pred[i]) >> j) & 1)

    def relation_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in _bits(self.succ[i])]

    def pair_count(self) -> int:
        return int(self.degrees("plus").sum())

    def cover_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of the transitive reduction, sorted by (i, j): in a
        linear extension (by down-set size) the lowest bit left in a row is a
        cover, cleared with its up-set to find the next, O(n² + covers·n/64)."""
        n = self.n
        order = np.argsort(self.degrees("minus"), kind="stable")
        bits = np.unpackbits(self._packed, axis=1, bitorder="little", count=n)
        rows = np.packbits(bits[order][:, order], axis=1, bitorder="little")
        succ = [int.from_bytes(row.tobytes(), "little") for row in rows]
        label, keys = order.tolist(), []
        for i, rest in enumerate(succ):
            while rest:
                j = (rest & -rest).bit_length() - 1
                keys.append(label[i] * n + label[j])
                rest &= ~(succ[j] | 1 << j)
        return np.divmod(np.sort(np.array(keys, dtype=np.int64)), n)


def from_relations(n: int, pairs: Iterable[tuple[int, int]]) -> FinitePoset:
    """Build the transitive closure of 1-based `pairs` as a poset; a label
    that is not an integer raises InvariantError."""
    table = np.array(list(pairs), dtype=object).reshape(-1, 2)
    for tail, head in table.tolist():
        if not all(isinstance(v, Real) and v % 1 == 0 for v in (tail, head)):  # NaN fails too
            raise InvariantError(f"pair {(tail, head)!r} has a label that is not an integer")
    return from_columns(n, table[:, 0], table[:, 1])


def from_columns(n: int, tails: np.ndarray, heads: np.ndarray) -> FinitePoset:
    """The transitive closure of the 1-based pairs (tails[k], heads[k]), by
    `transitive_closure`; a cycle, a pair (i, i) included, raises CycleError."""
    if n <= 0:
        raise InvariantError("n must be positive")
    if tails.size and (min(tails.min(), heads.min()) < 1 or max(tails.max(), heads.max()) > n):
        k = np.flatnonzero((tails < 1) | (tails > n) | (heads < 1) | (heads > n))[0]
        raise InvariantError(f"pair ({tails[k]},{heads[k]}) out of range 1..{n}")
    closed = transitive_closure(n, tails.astype(np.int64) - 1, heads.astype(np.int64) - 1)
    return FinitePoset.from_succ_masks(closed)


def reflect(p: FinitePoset) -> FinitePoset:
    return FinitePoset(p.n, p.pred, p.succ)


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
    integer arrays over one denominator den, int64 while they fit.  On
    first use the 2n ends are put in one exact order by a single `lexsort`
    (O(n log n)), and `ranks` holds each end's position in it, so
    `precedes` compares ranks, `degrees` counts them by binary search and
    `cover_pairs`, which the text format writes, reads one window of them
    per point.  The `Fraction`s of `intervals` and the bitmask rows `succ`
    and `pred` (Θ(n²) bits) are built only when first read, so every
    `FinitePoset` method and `==` work as for any other poset.
    """

    def __init__(self, intervals: Sequence[tuple[Fraction, Fraction]]):
        if not intervals:
            raise InvariantError("posets are non-empty")
        for k, pair in enumerate(intervals):
            a, b = pair if isinstance(pair, Sized) and len(pair) == 2 else (None, None)
            if not (isinstance(a, Real) and isinstance(b, Real)):
                raise InvariantError(f"interval {k} is not a pair of numbers: {pair!r}")
            if not (abs(a) <= _FLOAT_MAX and abs(b) <= _FLOAT_MAX):  # NaN fails too
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

    @cached_property
    def _masks(self) -> FinitePoset:
        # succ[i] holds the degrees("plus")[i] left ends of greatest rank and
        # pred[j] the degrees("minus")[j] right ends of least rank
        rank_a, rank_b = self.ranks
        up, down = (
            list(itertools.accumulate((1 << i for i in by.tolist()), or_, initial=0))
            for by in (np.argsort(-rank_a), np.argsort(rank_b))
        )
        succ = tuple(up[d] for d in self._degrees(False).tolist())
        return FinitePoset(self.n, succ, tuple(down[d] for d in self._degrees(True).tolist()))

    succ = cached_property(lambda self: self._masks.succ)
    pred = cached_property(lambda self: self._masks.pred)

    @cached_property
    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """(rank_a, rank_b): positions of a_i and b_i in the order of the
        ends a + b by value, a left end first at equal values, so that
        b_i < a_j iff rank_b[i] < rank_a[j]."""
        n, (_, a, b) = self.n, self.ends
        rank = np.empty(2 * n, dtype=np.int64)
        rank[np.lexsort((np.repeat([0, 1], n), np.concatenate([a, b])))] = np.arange(2 * n)
        return rank[:n], rank[n:]

    def _degrees(self, minus: bool) -> np.ndarray:
        rank_a, rank_b = self.ranks
        if minus:  # right endpoints before a_j
            return np.searchsorted(np.sort(rank_b), rank_a)
        return self.n - np.searchsorted(np.sort(rank_a), rank_b)  # left ends after b_i

    def precedes(self, u, v) -> np.ndarray:
        rank_a, rank_b = self.ranks
        return rank_b[u] < rank_a[v]

    def cover_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        # j covers i iff rank_b[i] < rank_a[j] < m_i, the least rank_b of a
        # successor of i: in a-order, the covers of i are one window
        rank_a, rank_b = self.ranks
        by_a = np.argsort(rank_a)
        a_sorted = rank_a[by_a]
        least_b = np.append(np.minimum.accumulate(rank_b[by_a][::-1])[::-1], 2 * self.n)
        lo = np.searchsorted(a_sorted, rank_b)
        hi = np.searchsorted(a_sorted, least_b[lo])
        key = np.repeat(np.arange(self.n) * self.n, hi - lo) + by_a[_windows(lo, hi)]
        key.sort()
        return np.divmod(key, self.n)


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


def _refined_colors(n: int, succ: Sequence[int], pred: Sequence[int]) -> list:
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
            return colors
        colors = [ranks[c] for c in new]
    return colors


def _canonical_rows(n: int, succ: Sequence[int], pred: Sequence[int]) -> tuple[int, ...]:
    """Minimum relabelled `succ` rows over relabelings that respect the
    colour refinement of the relation (`pred` is its transpose)."""
    colors = _refined_colors(n, succ, pred)
    blocks: dict = {}
    for i in range(n):
        blocks.setdefault(colors[i], []).append(i)
    ordered_blocks = [blocks[c] for c in sorted(blocks)]
    best: tuple[int, ...] | None = None
    for perms in itertools.product(
        *[itertools.permutations(b) for b in ordered_blocks]
    ):
        old_order = [i for block in perms for i in block]
        pos = [0] * n
        for new_idx, old_idx in enumerate(old_order):
            pos[old_idx] = new_idx
        key = tuple(
            sum(1 << pos[j] for j in _bits(succ[old_order[i]])) for i in range(n)
        )
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def canonical_key(p: FinitePoset) -> tuple[int, tuple[int, ...]]:
    """Minimum relation-matrix encoding over colour-respecting relabelings.

    Complete invariant: two posets have equal keys iff isomorphic.
    """
    return (p.n, _canonical_rows(p.n, p.succ, p.pred))


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

    Each point's pairs are one `join` over the point names."""
    tails, heads = p.cover_pairs()
    names = np.array([str(k) for k in range(1, p.n + 1)], dtype=object)
    heads = names[heads]  # shared name strings, no int object per pair
    ends = np.cumsum(np.bincount(tails, minlength=p.n)).tolist()
    lines = [f"poset {p.n}"]
    for i, (lo, hi) in enumerate(zip([0, *ends], ends)):
        if lo < hi:
            lines.append(f"{names[i]} " + f"\n{names[i]} ".join(heads[lo:hi]))
    return "\n".join(lines) + "\n"


def read_poset(text: str) -> FinitePoset:
    _, n, body = textio.read_header(text, "poset")
    return from_columns(n, *textio.int_pairs(body))


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
