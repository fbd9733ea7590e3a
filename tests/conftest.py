"""Shared strategies and brute-force reference oracles."""

from fractions import Fraction

import hypothesis.strategies as st
import pytest

from poslim import poset as ps
from poslim.errors import InvariantError
from poslim.measures import AtomicMeasure, StepKernelMeasure
from poslim.pwl import ONE, ZERO, as_fraction
from poslim.semiorders import MonotoneRC


def fixpoint_closure(masks):
    """Transitive closure by repeated squaring until nothing changes: the
    reference `poset.transitive_closure` is tested against.  A cycle shows
    as a row holding its own bit."""
    rows = list(masks)
    while True:
        changed = False
        for i, row in enumerate(rows):
            acc, rest = row, row
            while rest:
                low = rest & -rest
                acc |= rows[low.bit_length() - 1]
                rest ^= low
            if acc != row:
                rows[i] = acc
                changed = True
        if not changed:
            return rows


def interval_poset(intervals):
    """The interval order i < j iff b_i < a_j, compared pair by pair."""
    return ps.FinitePoset.from_succ_masks(
        [sum(1 << j for j, (a, _) in enumerate(intervals) if b < a) for _, b in intervals]
    )


def _profiles(p):
    return [(p.pred[i].bit_count(), p.succ[i].bit_count()) for i in range(p.n)]


def is_isomorphic(p, q):
    """Order-preserving-and-reflecting bijection test, by backtracking: the
    reference the canonical form and the catalogs are tested against."""
    if p.n != q.n or p.pair_count() != q.pair_count():
        return False
    pp, qp = _profiles(p), _profiles(q)
    if sorted(pp) != sorted(qp):
        return False
    n = p.n
    # map rarest profiles first
    freq = {}
    for t in pp:
        freq[t] = freq.get(t, 0) + 1
    order = sorted(range(n), key=lambda i: (freq[pp[i]], pp[i]))
    image = [-1] * n

    def extend(idx, used):
        if idx == n:
            return True
        i = order[idx]
        for j in range(n):
            if (used >> j) & 1 or qp[j] != pp[i]:
                continue
            ok = True
            for k_idx in range(idx):
                k = order[k_idx]
                m = image[k]
                if p.less(i, k) != q.less(j, m) or p.less(k, i) != q.less(m, j):
                    ok = False
                    break
            if ok:
                image[i] = j
                if extend(idx + 1, used | (1 << j)):
                    return True
        return False

    return extend(0, 0)


def pattern_key(succ, idx):
    """Labelled pattern of the point tuple idx, one pair at a time: bit
    u*s+v iff idx[u] < idx[v].  The reference the numpy tuple classifier of
    the fingerprints is tested against."""
    key = 0
    bit = 1
    for a in idx:
        row = succ[a]
        for b in idx:
            if (row >> b) & 1:
                key |= bit
            bit <<= 1
    return key


def ref_check_monotone(points):
    """`pwl.check_monotone` in `Fraction` arithmetic: the reference for the
    integer kernel (same checks, same order, same messages)."""
    if not points:
        raise InvariantError("need at least one breakpoint")
    if points[0][0] != ZERO or points[-1][0] != ONE:
        raise InvariantError("breakpoints must start at 0 and end at 1")
    prev_x = None
    prev_right = None
    for x, left, right in points:
        if prev_x is not None and x <= prev_x:
            raise InvariantError("breakpoints must be strictly increasing")
        if not (ZERO <= left <= ONE and ZERO <= right <= ONE):
            raise InvariantError("values must lie in [0,1]")
        if left > right:
            raise InvariantError("jumps must be upward")
        if prev_right is not None and left < prev_right:
            raise InvariantError("segments must be nondecreasing")
        prev_x, prev_right = x, right


def ref_normalize(points):
    """`pwl.normalize` in `Fraction` arithmetic: the reference for the
    integer kernel."""
    pts = [tuple(as_fraction(v) for v in p) for p in points]
    if not pts:
        raise InvariantError("need at least one breakpoint")
    pts.sort(key=lambda p: p[0])
    out = []
    for p in pts:
        if out and out[-1][0] == p[0]:
            raise InvariantError(f"duplicate breakpoint at {p[0]}")
        out.append(p)
    kept = [out[0]]
    for i in range(1, len(out) - 1):
        x, left, right = out[i]
        if left != right:
            kept.append(out[i])
            continue
        x0, _, r0 = kept[-1]
        x1, l1, _ = out[i + 1]
        if (left - r0) * (x1 - x0) == (l1 - r0) * (x - x0):
            continue
        kept.append(out[i])
    if len(out) > 1:
        kept.append(out[-1])
    return tuple(kept)


def ref_rate_g(pieces, x):
    """The largest y <= 1 with R(y) <= R(x) + 1, where R integrates the rate
    given by `pieces` (lo, hi, value), solved piece by piece: the reference
    for `g_from_rate`."""

    def cumulative(t):
        return sum(v * (min(t, hi) - lo) for lo, hi, v in pieces if t > lo)

    level = cumulative(x) + 1
    best = ZERO
    for lo, hi, v in pieces:
        c_lo = cumulative(lo)
        if c_lo <= level:  # R(y) = c_lo + v (y - lo) on this piece
            best = hi if c_lo + v * (hi - lo) <= level else lo + (level - c_lo) / v
    return best


@st.composite
def posets(draw, min_n=1, max_n=6):
    """Random poset: close a randomly oriented acyclic edge set."""
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(n)))
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                masks[perm[i]] |= 1 << perm[j]
    closed = fixpoint_closure(masks)
    return ps.FinitePoset.from_succ_masks(closed)


_frac = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def monotone_gs(draw):
    """Random piecewise-linear right-continuous g with g(x) >= x."""
    k = draw(st.integers(0, 4))
    inner = sorted(set(draw(st.lists(_frac, min_size=k, max_size=k))))
    xs = [Fraction(0)] + [x for x in inner if 0 < x < 1] + [Fraction(1)]
    pts = []
    prev = Fraction(0)
    for x in xs:
        left = max(x, prev, draw(_frac))
        right = max(left, draw(_frac))
        if x == 1:
            left = right = Fraction(1)
        pts.append((x, left, right))
        prev = right
    return MonotoneRC.from_points(pts)


@st.composite
def rate_pieces(draw):
    """Pieces (lo, hi, value) tiling [0,1] of a random rate; zero-rate pieces
    are drawn often, so R has flat stretches."""
    k = draw(st.integers(0, 5))
    inner = sorted(set(draw(st.lists(_frac, min_size=k, max_size=k))))
    xs = [Fraction(0)] + [x for x in inner if 0 < x < 1] + [Fraction(1)]
    rate = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=0, max_value=12, max_denominator=4)
    )
    return [(lo, hi, draw(rate)) for lo, hi in zip(xs, xs[1:])]


@st.composite
def step_measures(draw):
    """Random StepKernelMeasure with exact rational data."""
    k = draw(st.integers(0, 3))
    inner = sorted(set(draw(st.lists(_frac, min_size=k, max_size=k))))
    breaks = [Fraction(0)] + [x for x in inner if 0 < x < 1] + [Fraction(1)]
    cells = []
    for lo, hi in zip(breaks, breaks[1:]):
        m = draw(st.integers(1, 3))
        ys = sorted(
            set(
                hi + (1 - hi) * y
                for y in draw(st.lists(_frac, min_size=m, max_size=m))
            )
        )
        weights = [draw(st.integers(1, 5)) for _ in ys]
        total = sum(weights)
        cells.append((lo, hi, [(y, Fraction(w, total)) for y, w in zip(ys, weights)]))
    return StepKernelMeasure.from_cells(cells)


@st.composite
def atomic_measures(draw):
    """Random AtomicMeasure on a coarse grid, so atoms often share endpoints."""
    grid = st.fractions(min_value=0, max_value=1, max_denominator=4)
    ends = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=5))
    weights = [draw(st.integers(1, 5)) for _ in ends]
    total = sum(weights)
    return AtomicMeasure.from_atoms(
        [(min(x, y), max(x, y), Fraction(w, total)) for (x, y), w in zip(ends, weights)]
    )


@pytest.fixture(scope="session")
def catalog4():
    return ps.cached_catalog(4)


@pytest.fixture(scope="session")
def catalog5():
    return ps.cached_catalog(5)


@pytest.fixture(scope="session")
def catalog6():
    return ps.cached_catalog(6)
