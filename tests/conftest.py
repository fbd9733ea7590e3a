"""Shared hypothesis strategies and catalog fixtures; the exact reference
models are in `reference.py`."""

import warnings
from fractions import Fraction

import hypothesis.strategies as st
import pytest

# hypothesis imports its failure-report module only when a test fails; that
# module imports libcst, which warns a DeprecationWarning at import (through
# mypy_extensions), so under -W error::DeprecationWarning the report itself
# would abort the run and hide the failure.  Import it once here with that
# category ignored; every other warning keeps its filter.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from poslim import poset as ps
from poslim.errors import PoslimError
from poslim.measures import AtomicMeasure, StepKernelMeasure
from poslim.semiorders import MonotoneRC

from reference import fixpoint_closure


def outcome(call):
    """A call's value, or the class and message of the PoslimError it raised."""
    try:
        return call()
    except PoslimError as exc:
        return type(exc), str(exc)


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
