"""Comparability graphs and graph-side induced densities.

Connects posets to graphs at finite scale: the comparability functor, its
complement, exact induced-subgraph densities for small patterns, and the
enumeration of poset orientations behind the edge-directing identity.  A
graph is a symmetric relation: its `succ` and `pred` are both its adjacency,
so `densities.count_maps(f, g, "ind")` counts induced embeddings, `density`
gives their density and `poset.canonical_key` its isomorphism class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvalidArgument, InvariantError, SizeLimit
from .densities import density
from .poset import FinitePoset, _bits, _incomparable_rows, canonical_key

_PATTERN_MAX = 5


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph as symmetric adjacency bitmask rows, read as
    a symmetric relation: `succ` and `pred` are both `adj`."""

    n: int
    adj: tuple[int, ...]

    succ = pred = property(lambda self: self.adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        adj = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise InvariantError(f"bad edge ({i},{j})")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return cls(n, tuple(adj))

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.adj[i] >> j) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j) for i in range(self.n) for j in _bits(self.adj[i]) if i < j
        ]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def complete_graph(n: int) -> SimpleGraph:
    return complement_graph(empty_graph(n))


def empty_graph(n: int) -> SimpleGraph:
    if n < 0:
        raise InvalidArgument(f"a graph has at least 0 points, got {n}")
    return SimpleGraph(n, (0,) * n)


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise InvalidArgument(f"a cycle has at least 3 points, got {n}")
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def comparability_graph(p: FinitePoset) -> SimpleGraph:
    return SimpleGraph(p.n, tuple(p.succ[i] | p.pred[i] for i in range(p.n)))


def complement_graph(g: SimpleGraph) -> SimpleGraph:
    return SimpleGraph(g.n, _incomparable_rows(g))


def incomparability_graph(p: FinitePoset) -> SimpleGraph:
    return SimpleGraph(p.n, _incomparable_rows(p))


def graph_t_ind(f: SimpleGraph, g: SimpleGraph) -> Fraction:
    """Induced-embedding density of pattern f in g, exact: `density(f, g,
    "ind")`, with its budget of (g.n)_f.n maps."""
    if f.n > _PATTERN_MAX:
        raise SizeLimit(f"pattern size capped at {_PATTERN_MAX}")
    return density(f, g, "ind")


def poset_orientations(f: SimpleGraph) -> list[FinitePoset]:
    """All labelled edge orientations of f that are strict partial orders.

    Orienting must not force a comparability outside f's edge set, so the
    oriented relation has to be transitively closed already.  All 2^|E|
    orientations are tried, so f has at most `_PATTERN_MAX` points.
    """
    if f.n > _PATTERN_MAX:
        raise InvalidArgument(f"orientations are capped at {_PATTERN_MAX} points, got {f.n}")
    out = []
    edges = f.edges()
    for choice in itertools.product((0, 1), repeat=len(edges)):
        masks = [0] * f.n
        for bit, (i, j) in zip(choice, edges):
            if bit:
                masks[i] |= 1 << j
            else:
                masks[j] |= 1 << i
        # a transitive orientation is acyclic: a cycle would orient an edge
        # both ways
        if any(masks[j] & ~masks[i] for i in range(f.n) for j in _bits(masks[i])):
            continue
        out.append(FinitePoset.from_succ_masks(masks))
    return out


def enumerate_graphs(max_size: int) -> list[SimpleGraph]:
    """One representative per isomorphism class, sizes 1..max_size."""
    if max_size < 1:
        raise InvalidArgument(f"max_size must be at least 1, got {max_size}")
    if max_size > 6:
        raise SizeLimit("graph enumeration capped at size 6")
    reps: list[SimpleGraph] = []
    for n in range(1, max_size + 1):
        first: dict[tuple, SimpleGraph] = {}  # by canonical key, the first graph met
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[k] for k in range(len(pairs)) if (bits >> k) & 1]
            g = SimpleGraph.from_edges(n, edges)
            first.setdefault(canonical_key(g), g)
        reps.extend(first.values())
    return reps

