"""Interval-order and semiorder recognition, and interval representations.

The forbidden patterns are 2+2 (two disjoint comparable pairs with all cross
pairs incomparable) for interval orders, plus 3+1 (a 3-chain with a point
incomparable to all of it) for semiorders.  The tests use the Fishburn and
Scott-Suppes view instead of a pattern search: an order is an interval
order iff its down-sets form a chain under inclusion, and such an order is a
semiorder iff no point has both a strictly larger down-set and a strictly
larger up-set than another.  Each test is a sort and a scan, O(n log n)
steps of at most n/64 words; the semiorder test reads only set sizes
(`degrees`), and `interval_representation` checks its realization with one
`precedes` call, so an `IntervalSample` is recognized and represented from
its endpoint ranks; the representation is itself an `IntervalSample`, with
integer ends over the denominator n.  `find_two_plus_two` and
`find_three_plus_one` scan all O(n^2) point pairs; they build the witness
of `NotIntervalOrder` and serve the test suite as oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from . import textio
from .errors import FormatError, InternalInvariantError, NotIntervalOrder, SizeLimit
from .measures import AtomicMeasure
from .poset import FinitePoset, IntervalSample, _bits, _incomparable_rows


def find_two_plus_two(p: FinitePoset) -> tuple[int, int, int, int] | None:
    """An induced 2+2 as (a, b, c, d) with a < b, c < d, or None.

    A violating quadruple exists iff some two points have inclusion-
    incomparable predecessor sets; the cross incomparabilities then follow
    from transitivity.
    """
    n = p.n
    pred = p.pred
    for b in range(n):
        for d in range(b + 1, n):
            only_b = pred[b] & ~pred[d]
            only_d = pred[d] & ~pred[b]
            if only_b and only_d:
                a = (only_b & -only_b).bit_length() - 1
                c = (only_d & -only_d).bit_length() - 1
                return (a, b, c, d)
    return None


def find_three_plus_one(p: FinitePoset) -> tuple[int, int, int, int] | None:
    """An induced 3+1 as (x, y, z, w) with x < y < z all incomparable to w."""
    for w, incomp in enumerate(_incomparable_rows(p)):
        if incomp.bit_count() < 3:
            continue
        for y in _bits(incomp):
            below = p.pred[y] & incomp
            above = p.succ[y] & incomp
            if below and above:
                x = (below & -below).bit_length() - 1
                z = (above & -above).bit_length() - 1
                return (x, y, z, w)
    return None


def is_interval_order(p: FinitePoset) -> bool:
    """True iff the down-sets form a chain under inclusion (no induced 2+2)."""
    if isinstance(p, IntervalSample):
        return True
    rows = sorted(set(p.pred), key=lambda m: (m.bit_count(), m))
    for a, b in zip(rows, rows[1:]):
        if a & ~b:
            return False
    return True


def is_semiorder(p: FinitePoset) -> bool:
    """True iff p is an interval order without an induced 3+1."""
    if not is_interval_order(p):
        return False
    return semiorder_by_degrees(p.degrees("minus"), p.degrees("plus"))


def semiorder_by_degrees(downs: Sequence[int], ups: Sequence[int]) -> bool:
    """True iff an interval order with down-set sizes `downs` and up-set
    sizes `ups` (in the same point order) has no induced 3+1.

    In an interval order the down-sets and the up-sets each form an
    inclusion chain, so a strictly larger set is one of strictly larger
    size.  A point x with D(x) < D(y) and U(x) < U(y) gives the 3+1
    a < y < b, x, for any a in D(y) - D(x) and b in U(y) - U(x), and a 3+1
    x < y < z, w gives such a pair (w, y).  Points sorted by (|D|, -|U|)
    contain such a pair iff some |U| exceeds the |U| just before it.
    """
    downs, ups = np.asarray(downs, np.int64), np.asarray(ups, np.int64)
    return not (np.diff(ups[np.lexsort((-ups, downs))]) > 0).any()


def interval_representation(p: FinitePoset) -> IntervalSample:
    """Evenly-spaced-left-endpoint representation of an interval order.

    Points are ranked by (predecessor count asc, successor count desc,
    index), and point i gets the interval [rank_i/n, (n - |succ(i)|)/n],
    as an `IntervalSample` over the denominator n.  For interval orders
    every successor set is then a rank suffix, which makes the realization
    biconditional hold; it is re-checked at runtime as one `precedes` call
    over the points with a successor (so an `IntervalSample` answers from
    its ranks).  For semiorders the right endpoints come out nondecreasing
    in rank order: that is the condition `semiorder_by_degrees` reads from
    the same sort.
    """
    if not is_interval_order(p):
        raise NotIntervalOrder(f"induced 2+2 on points {find_two_plus_two(p)}")
    n = p.n
    downs, ups = p.degrees("minus"), p.degrees("plus")
    order = np.lexsort((-ups, downs))  # stable, so ties stay in index order
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(1, n + 1)
    # succ(i) is the rank suffix above n - |succ(i)|, so b[i] sits one grid
    # step below its smallest rank (b = 1 if succ(i) is empty)
    empty = np.flatnonzero(rank > n - ups)  # a[i] > b[i]
    if empty.size:
        raise InternalInvariantError(f"interval {empty[0]} is empty")
    # b[i] < a[j] iff j is in that suffix.  The down-sets form a chain, so a
    # point below the suffix's lowest point is below all of it: succ(i) is
    # the suffix iff i precedes its lowest point.
    heads = np.flatnonzero(ups)
    lowest = order[n - ups[heads]]
    wrong = np.flatnonzero(~p.precedes(heads, lowest))
    if wrong.size:
        i, j = heads[wrong[0]], lowest[wrong[0]]
        raise InternalInvariantError(f"representation does not realize the pair ({i},{j})")
    return IntervalSample.from_ends(n, rank, n - ups)


def empirical_measure(rep: IntervalSample) -> AtomicMeasure:
    """Atoms (a_i, b_i), weight 1/n each (equal intervals merge)."""
    w = Fraction(1, rep.n)
    return AtomicMeasure.from_atoms([(a, b, w) for a, b in rep.intervals])


# -- CSV serialization --------------------------------------------------------

_COLUMNS = ("index", "rank", "a", "b")


def _left_ranks(rep: IntervalSample) -> list[int]:
    """1-based rank of each left end, ties in index order: read from the
    sample's end order, which lists equal left ends by index and a left end
    before a right end of equal value, so a_i's rank_a less the right ends
    before it counts the left ends before it."""
    return (rep.ranks[0] - rep.degrees("minus") + 1).tolist()


def write_representation(rep: IntervalSample) -> str:
    """The CSV of `index,rank,a,b` rows, 1-based index, ends as reduced
    num/den: joined line by line from the integer ends (`rep.ends`) by
    `textio.format_rationals`, with no `Fraction` built; the same bytes as
    `textio.to_csv` of the `intervals`, as no field needs quoting."""
    den, a, b = rep.ends
    a, b = (textio.format_rationals(e, den) for e in (a, b))
    lines = map("{},{},{},{}".format, range(1, rep.n + 1), _left_ranks(rep), a, b)
    return "\n".join([",".join(_COLUMNS), *lines]) + "\n"


def read_representation(text: str) -> IntervalSample:
    """The intervals of an `index,rank,a,b` CSV; more than `textio.MAX_POINTS`
    rows raise SizeLimit before any row is kept or checked."""
    n = sum(1 for _ in textio.csv_rows(text)) - 1  # the rows under the header, none kept
    if n > textio.MAX_POINTS:
        raise SizeLimit(f"representation has {n} points, the cap is {textio.MAX_POINTS}")
    table = textio.read_csv(text, _COLUMNS)
    by_index = {textio.parse_int(r[0]): r for r in table}
    if sorted(by_index) != list(range(1, n + 1)):
        raise FormatError(f"index column is not 1..{n}, each once")
    ordered = [by_index[i] for i in range(1, n + 1)]
    rep = IntervalSample([tuple(map(textio.parse_rational, r[2:])) for r in ordered])
    if [textio.parse_int(r[1]) for r in ordered] != _left_ranks(rep):
        raise FormatError("rank column is not the rank of each left end, ties in index order")
    return rep
