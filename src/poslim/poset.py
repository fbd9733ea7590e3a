"""Finite strict partial orders as immutable first-class values.

A poset on n points is stored as two tuples of Python-int bitmasks:
``succ[i]`` has bit j set iff i < j, and ``pred`` is its transpose.  Bitmask
rows give O(1) comparability tests, O(n/64)-word set operations for the
recognition and density machinery, and cheap immutability/hashing.

Point indices are 0-based everywhere in the Python API.  The text format and
``from_relations`` use 1-based labels, matching the on-disk convention;
conversion happens only at that boundary.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
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

Sign = Literal["minus", "plus"]

_CATALOG_MAX = 7


def _transpose_masks(masks: Sequence[int], n: int) -> tuple[int, ...]:
    """Transpose an n x n bitmask matrix (bit j of masks[i] -> bit i of out[j])."""
    if n == 0:
        return ()
    nbytes = (n + 7) // 8
    buf = np.frombuffer(
        b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8
    ).reshape(n, nbytes)
    bits = np.unpackbits(buf, axis=1, bitorder="little", count=n)
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    return tuple(int.from_bytes(packed[i].tobytes(), "little") for i in range(n))


def _bits(mask: int):
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def transitive_closure(adj: Sequence[Sequence[int]]) -> list[int]:
    """Successor masks of the transitive closure of a digraph on 0..n-1.

    `adj[i]` lists the heads of the arcs out of i; repeats are allowed.
    Kahn's algorithm orders the points topologically, and one sweep in
    reverse order sets each row to its heads and their closed rows:
    O(n + arcs) steps of at most n/64 words each.  A cycle (a self-arc
    included) raises CycleError.
    """
    n = len(adj)
    indeg = [0] * n
    for heads in adj:
        for j in heads:
            indeg[j] += 1
    order = [i for i in range(n) if not indeg[i]]
    for i in order:  # the list grows while it is walked: Kahn's queue
        for j in adj[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) < n:
        # the points Kahn's algorithm never reaches lie on a cycle or above one
        stuck = next(i for i in range(n) if indeg[i])
        raise CycleError(f"relation has a cycle at or below point {stuck + 1}")
    reach = [0] * n  # closed rows with each point's own bit set
    for i in reversed(order):
        acc = 1 << i
        for j in adj[i]:
            acc |= reach[j]
        reach[i] = acc
    return [reach[i] ^ (1 << i) for i in range(n)]


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
    def from_succ_masks(
        cls, succ: Sequence[int], *, validate: bool = True
    ) -> "FinitePoset":
        succ = tuple(succ)
        p = cls(len(succ), succ, _transpose_masks(succ, len(succ)))
        if validate:
            p.check_valid()
        return p

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

    def comparable(self, i: int, j: int) -> bool:
        return bool(((self.succ[i] | self.pred[i]) >> j) & 1)

    def relation_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in _bits(self.succ[i])]

    def pair_count(self) -> int:
        return sum(m.bit_count() for m in self.succ)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Pairs of the transitive reduction."""
        succ, pred = self.succ, self.pred
        covers = []
        for i in range(self.n):
            for j in _bits(succ[i]):
                if not (succ[i] & pred[j]):
                    covers.append((i, j))
        return covers


def from_relations(n: int, pairs: Iterable[tuple[int, int]]) -> FinitePoset:
    """Build the transitive closure of 1-based `pairs` as a poset.

    The pairs are stored as one `array('i')` of heads per point and closed
    by `transitive_closure` in O(n + pairs * n/64) time; a cycle, a pair
    (i, i) included, raises CycleError.
    """
    if n <= 0:
        raise InvariantError("n must be positive")
    adj = [array("i") for _ in range(n)]
    for a, b in pairs:
        if not (1 <= a <= n and 1 <= b <= n):
            raise InvariantError(f"pair ({a},{b}) out of range 1..{n}")
        adj[a - 1].append(b - 1)
    return FinitePoset.from_succ_masks(transitive_closure(adj), validate=False)


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
    return FinitePoset.from_succ_masks(succ, validate=False)


def degree(p: FinitePoset, i: int, sign: Sign) -> int:
    if not 0 <= i < p.n:
        raise InvariantError(f"index {i} out of range")
    if sign == "minus":
        return p.pred[i].bit_count()
    if sign == "plus":
        return p.succ[i].bit_count()
    raise InvalidArgument(f"sign must be 'minus' or 'plus', got {sign!r}")


# -- named posets -----------------------------------------------------------


def chain(n: int) -> FinitePoset:
    if n < 1:
        raise InvariantError("posets are non-empty")
    full = (1 << n) - 1
    return FinitePoset.from_succ_masks(
        [(full >> (i + 1)) << (i + 1) for i in range(n)], validate=False
    )


def antichain(n: int) -> FinitePoset:
    if n < 1:
        raise InvariantError("posets are non-empty")
    return FinitePoset.from_succ_masks([0] * n, validate=False)


def two_plus_two() -> FinitePoset:
    """Two disjoint 2-chains: the pattern forbidden in interval orders."""
    return from_relations(4, [(1, 2), (3, 4)])


def three_plus_one() -> FinitePoset:
    """A 3-chain plus an isolated point: additionally forbidden in semiorders."""
    return from_relations(4, [(1, 2), (2, 3)])


def in_star(k: int) -> FinitePoset:
    """k incomparable points all below one centre (centre is the last point)."""
    if k < 0:
        raise InvariantError("k must be nonnegative")
    succ = [1 << k] * k + [0]
    return FinitePoset.from_succ_masks(succ, validate=False)


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
        new_ranked = [ranks[c] for c in new]
        if all(
            (new_ranked[i] == new_ranked[j]) == (colors[i] == colors[j])
            for i in range(n)
            for j in range(i)
        ):
            return colors
        colors = new_ranked
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
                cand = FinitePoset.from_succ_masks(succ, validate=False)
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
    """Poset text format: header, then transitive-reduction pairs, 1-based."""
    lines = [f"{i + 1} {j + 1}" for i, j in sorted(p.cover_pairs())]
    return textio.write_rows("poset", p.n, lines)


def read_poset(text: str) -> FinitePoset:
    _, n, lines = textio.read_header(text, "poset")
    return from_relations(n, textio.rows(lines, 2, int))


_NAMED = {
    "h": two_plus_two,
    "l": three_plus_one,
}


def named_poset(name: str) -> FinitePoset:
    """Resolve built-in poset names: h, l, chain<k>, antichain<k>, q<k>-, q<k>+."""
    key = name.strip().lower()
    if key in _NAMED:
        return _NAMED[key]()
    for prefix, builder in (("chain", chain), ("antichain", antichain)):
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            return builder(int(key[len(prefix):]))
    if key.startswith("q") and key[-1] in "+-" and key[1:-1].isdigit():
        k = int(key[1:-1])
        return in_star(k) if key[-1] == "-" else out_star(k)
    raise FormatError(f"unknown poset name: {name!r}")
