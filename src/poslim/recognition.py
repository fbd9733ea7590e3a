"""Interval-order and semiorder recognition, and interval representations.

The forbidden patterns are 2+2 (two disjoint comparable pairs with all cross
pairs incomparable) for interval orders, plus 3+1 (a 3-chain with a point
incomparable to all of it) for semiorders.  Each answer is read from one
order, the points by (|D|, -|U|, index) for down-set D and up-set U.  An
order is an interval order iff each D lies inside the next (the down-sets
form a chain, Fishburn), the first pair that fails giving a 2+2; an interval
order is a semiorder iff |U| never rises along the order (no point has a
larger D and a larger U than another, Scott-Suppes), the first rise giving a
3+1, so `find_three_plus_one` takes interval orders only.  A sort and a
scan, with witnesses read through `precedes`: an `IntervalSample` is
recognized and represented from its ranks, the representation an
`IntervalSample` with integer ends over the denominator n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from . import textio
from .errors import FormatError, InternalInvariantError, NotIntervalOrder, SizeLimit
from .measures import AtomicMeasure
from .poset import FinitePoset, IntervalSample


def _sort(p: FinitePoset, interval: bool = False) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """(order, ups, pair): the points by (|D|, -|U|, index), |U| of each, and
    the first pair (x, y) adjacent in the order with D(x) not inside D(y) or
    None (with `interval`, NotIntervalOrder).  A sample is not scanned."""
    downs, ups = p.degrees("minus"), p.degrees("plus")
    order = np.lexsort((-ups, downs))
    pred = () if isinstance(p, IntervalSample) else p.pred
    seq = order.tolist() if pred else []
    pair = next(((x, y) for x, y in zip(seq, seq[1:]) if (pred[x] & pred[y]) != pred[x]), None)
    if interval and pair is not None:
        named = tuple(v + 1 for v in _two_plus_two(p, *pair))  # 1-based, as in poset files
        raise NotIntervalOrder(f"induced 2+2 on points {named}")
    return order, ups, pair


def _rise(order: np.ndarray, ups: np.ndarray) -> tuple[int, int] | None:
    """The first pair (x, y) adjacent in `order` with |U(x)| < |U(y)|, or None."""
    rise = np.flatnonzero(np.diff(ups[order]) > 0)
    return (order[rise[0]].item(), order[rise[0] + 1].item()) if rise.size else None


def _only(p: FinitePoset, x: int, y: int, up: bool = False) -> int:
    """The least point below x and not y (or above, with `up`), by `precedes`."""
    pts = np.arange(p.n)
    rel = (lambda v: p.precedes(v, pts)) if up else (lambda v: p.precedes(pts, v))
    return int(np.flatnonzero(rel(x) & ~rel(y))[0])


def _two_plus_two(p: FinitePoset, x: int, y: int) -> tuple[int, int, int, int]:
    """The 2+2 (a, x, c, y) of `_sort`'s pair: |D(x)| <= |D(y)| gives c in
    D(y) - D(x) as well as a in D(x) - D(y), and any relation among a, x, c,
    y beyond a < x and c < y would put a in D(y) or c in D(x)."""
    return _only(p, x, y), x, _only(p, y, x), y


def find_two_plus_two(p: FinitePoset) -> tuple[int, int, int, int] | None:
    """An induced 2+2 as (a, b, c, d) with a < b, c < d, or None."""
    pair = _sort(p)[2]
    return None if pair is None else _two_plus_two(p, *pair)


def find_three_plus_one(p: FinitePoset) -> tuple[int, int, int, int] | None:
    """An induced 3+1 of an interval order as (a, y, b, x) with a < y < b
    all incomparable to x, or None; NotIntervalOrder on any other poset.
    At `_rise`'s pair |D| rises with |U| (larger |U| comes first at equal
    |D|), so D(x) < D(y) and U(x) < U(y), as the sets are chains: a is in
    D(y) - D(x) and b in U(y) - U(x).  A 3+1 puts such a pair in order."""
    pair = _rise(*_sort(p, interval=True)[:2])
    if pair is None:
        return None
    x, y = pair
    return _only(p, y, x), y, _only(p, y, x, up=True), x


def is_interval_order(p: FinitePoset) -> bool:
    """True iff the down-sets form a chain under inclusion (no induced 2+2)."""
    return isinstance(p, IntervalSample) or _sort(p)[2] is None


def is_semiorder(p: FinitePoset) -> bool:
    """True iff p is an interval order without an induced 3+1."""
    order, ups, pair = _sort(p)
    return pair is None and _rise(order, ups) is None


def semiorder_by_degrees(downs: Sequence[int], ups: Sequence[int]) -> bool:
    """True iff an interval order with down-set sizes `downs` and up-set
    sizes `ups` (in one point order) has no 3+1: no rise of |U| by (|D|, -|U|)."""
    downs, ups = np.asarray(downs, np.int64), np.asarray(ups, np.int64)
    return _rise(np.lexsort((-ups, downs)), ups) is None


def interval_representation(p: FinitePoset) -> IntervalSample:
    """Evenly-spaced-left-endpoint representation of an interval order.

    Points are ranked in `_sort`'s order, and point i gets the interval
    [rank_i/n, (n - |succ(i)|)/n], an `IntervalSample` over the denominator
    n.  For interval orders every successor set is then a rank suffix, which
    makes the realization biconditional hold; it is re-checked at runtime as
    one `precedes` call over the points with a successor (so an
    `IntervalSample` answers from its ranks).  For semiorders the right
    endpoints come out nondecreasing in rank order: that is the condition
    `is_semiorder` reads from the same sort.
    """
    order, ups, _ = _sort(p, interval=True)  # ties stay in index order
    n = p.n
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
