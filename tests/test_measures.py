import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from poslim import measures as me
from poslim import sampling as sa
from poslim import semiorders as so
from poslim.errors import InvariantError, NotInPMinus
from poslim.measures import AtomicMeasure, StepCDF, StepKernelMeasure

from conftest import atomic_measures, monotone_gs, posets, step_measures


def cells(*specs):
    return StepKernelMeasure.from_cells(list(specs))


TWO_CELL = cells((0, F(1, 2), [(F(1, 2), 1)]), (F(1, 2), 1, [(1, 1)]))
THREE_CELL = cells(
    (0, F(1, 4), [(F(1, 2), 1)]),
    (F(1, 4), F(1, 2), [(F(3, 4), 1)]),
    (F(1, 2), 1, [(1, 1)]),
)


def test_atomic_validation():
    with pytest.raises(InvariantError):
        AtomicMeasure.from_atoms([(F(1, 2), F(1, 4), 1)])  # x > y
    with pytest.raises(InvariantError):
        AtomicMeasure.from_atoms([(0, 1, F(1, 2))])  # mass != 1
    m = AtomicMeasure.from_atoms([(0, 1, F(1, 2)), (0, 1, F(1, 2))])
    assert m.atoms == ((F(0), F(1), F(1)),)  # duplicates merge


def test_step_measure_validation():
    with pytest.raises(InvariantError):
        cells((0, F(1, 2), [(F(1, 4), 1)]), (F(1, 2), 1, [(1, 1)]))  # y below cell top
    with pytest.raises(InvariantError):
        cells((0, F(1, 2), [(1, 1)]))  # does not reach 1
    with pytest.raises(InvariantError):
        cells((0, F(1, 2), [(1, F(1, 2))]), (F(1, 2), 1, [(1, 1)]))  # cond mass


# (build from (key, weight) rows, a view to compare); keys in [1/2, 1] are valid
WEIGHTED = {
    "from_jumps": (StepCDF.from_jumps, lambda m: m.points),
    "from_atoms": (lambda rows: AtomicMeasure.from_atoms((0, y, w) for y, w in rows),
                   lambda m: m.atoms),
    "from_cells": (lambda rows: cells((0, F(1, 2), rows), (F(1, 2), 1, [(1, 1)])),
                   lambda m: m.conditionals),
}


@pytest.mark.parametrize("name", WEIGHTED)
def test_one_weight_rule(name):
    build, view = WEIGHTED[name]
    faults = [
        ([(F(3, 4), 0), (1, 1)], "weights must be positive, got 0"),
        ([(F(3, 4), F(-1, 2)), (1, F(3, 2))], "weights must be positive, got -1/2"),
        ([(F(3, 4), F(1, 2)), (1, F(1, 4))], "weights must sum to 1 exactly, got 3/4"),
        ([(F(3, 4), F(1, 2)), (F(3, 2), F(1, 2))], "3/2"),  # the key out of range
    ]
    for rows, message in faults:
        with pytest.raises(InvariantError, match=re.escape(message)):
            build(rows)
    merged = build([(1, F(1, 4)), (F(3, 4), F(1, 3)), (1, F(1, 4)), (F(3, 4), F(1, 6))])
    assert view(merged) == view(build([(F(3, 4), F(1, 2)), (1, F(1, 2))]))


def test_right_marginal():
    r = me.right_marginal(cells((0, 1, [(1, 1)])))
    assert r.value(1) == 1 and r.left_limit(1) == 0
    r = me.right_marginal(TWO_CELL)
    assert r.value(F(1, 2)) == F(1, 2) and r.value(F(3, 4)) == F(1, 2)
    am = AtomicMeasure.from_atoms([(0, F(1, 4), F(1, 3)), (F(1, 2), F(3, 4), F(2, 3))])
    r = me.right_marginal(am)
    assert r.value(F(1, 4)) == F(1, 3) and r.value(F(3, 4)) == 1


def test_left_marginal():
    assert me.left_marginal(TWO_CELL).points == StepCDF.uniform().points
    am = AtomicMeasure.from_atoms([(0, 1, F(1, 2)), (F(1, 2), 1, F(1, 2))])
    lm = me.left_marginal(am)
    assert lm.value(0) == F(1, 2) and lm.value(F(1, 2)) == 1


def test_support_and_gaps_examples():
    supp, gaps = me.support_and_gaps(StepCDF.dirac(F(1, 2)))
    assert supp.intervals == ((F(1, 2), F(1, 2)),)
    assert gaps == [(F(0), F(1, 2)), (F(1, 2), F(1))]
    supp, gaps = me.support_and_gaps(StepCDF.uniform())
    assert supp.intervals == ((F(0), F(1)),) and gaps == []
    mix = StepCDF.from_points(
        [(0, 0, 0), (F(1, 2), 0, F(1, 2)), (F(3, 4), F(1, 2), F(1, 2)), (1, 1, 1)]
    )
    supp, gaps = me.support_and_gaps(mix)
    assert supp.intervals == ((F(1, 2), F(1, 2)), (F(3, 4), F(1)))
    assert gaps == [(F(0), F(1, 2)), (F(1, 2), F(3, 4))]


def ref_support_and_gaps(points):
    """Support components and gaps by one walk over the `Fraction` points:
    the reference for the walk on rows."""
    merged = []
    for (x, left, right), nxt in zip(points, points[1:] + (None,)):
        hi = nxt[0] if nxt and right < nxt[1] else x  # x, or the next x if F grows to it
        if left != right or hi > x:
            if merged and merged[-1][1] == x:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((x, hi))
    gaps, prev = [], F(0)
    for lo, hi in merged:
        if lo > prev:
            gaps.append((prev, lo))
        prev = hi
    return tuple(merged), gaps + [(prev, F(1))] * (prev < 1)


@given(st.one_of(step_measures().map(me.right_marginal), atomic_measures().map(me.right_marginal),
                 monotone_gs().map(so.f_minus), monotone_gs().map(so.f_plus),
                 posets(max_n=6).map(lambda p: sa.nu_empirical(p, "plus"))))
@settings(max_examples=150, deadline=None)
def test_support_and_gaps_match_point_walk(nu):
    supp, gaps = me.support_and_gaps(nu)
    assert (supp.intervals, gaps) == ref_support_and_gaps(nu.points)
    assert all(type(v) is F for span in (*supp.intervals, *gaps) for v in span)


def test_h_map_examples():
    d = StepCDF.dirac(F(1, 2))
    assert me.h_map(d, F(3, 10), "minus") == 0
    assert me.h_map(d, F(3, 10), "plus") == F(1, 2)
    assert me.h_map(d, F(1, 2), "plus") == 1
    assert me.h_map(d, F(1, 2), "bar_plus") == F(1, 2)
    u = StepCDF.uniform()
    for x in (F(0), F(1, 3), F(1)):
        for v in ("minus", "plus", "bar_plus"):
            assert me.h_map(u, x, v) == x


def test_h_map_end_gaps():
    # support away from both ends: sup/inf fall back to 0 and 1
    d = StepCDF.dirac(F(2, 5))
    assert me.h_map(d, F(1, 5), "minus") == 0
    assert me.h_map(d, F(9, 10), "plus") == 1
    assert me.h_map(d, F(1), "plus") == 1
    assert me.h_map(d, F(0), "minus") == 0


def isolated_interior_points(nu):
    supp, _ = me.support_and_gaps(nu)
    return {lo for lo, hi in supp.intervals if lo == hi and 0 < lo < 1}


def test_h_composition_on_grid():
    mix = StepCDF.from_points(
        [(0, 0, 0), (F(1, 2), 0, F(1, 2)), (F(3, 4), F(1, 2), F(1, 2)), (1, 1, 1)]
    )
    skip = isolated_interior_points(mix)
    for k in range(65):
        x = F(k, 64)
        if x in skip:
            continue
        assert me.h_map(mix, me.h_map(mix, x, "minus"), "plus") == me.h_map(
            mix, x, "plus"
        )


def test_h_composition_boundary_behaviour():
    # At an isolated interior support point the composition identity fails:
    # snapping down then up returns the point, snapping up skips past it.
    d = StepCDF.dirac(F(1, 2))
    x = F(1, 2)
    assert me.h_map(d, me.h_map(d, x, "minus"), "plus") == F(1, 2)
    assert me.h_map(d, x, "plus") == 1


def test_push_h_examples():
    pm = me.push_h(TWO_CELL, "minus")
    assert pm.atoms == (
        (F(0), F(1, 2), F(1, 2)),
        (F(1, 2), F(1), F(1, 2)),
    )
    pb = me.push_h(TWO_CELL, "bar_plus")
    assert pb.atoms == (
        (F(1, 2), F(1, 2), F(1, 2)),
        (F(1), F(1), F(1, 2)),
    )


def test_push_h_atomic_fixed_points():
    # bar_plus is the identity on atoms whose x already sits in the support
    mu = AtomicMeasure.from_atoms(
        [(F(3, 10), F(3, 10), F(1, 2)), (F(7, 10), F(7, 10), F(1, 2))]
    )
    assert me.push_h(mu, "bar_plus") == mu
    pm = me.push_h(mu, "minus")
    assert pm.atoms == (
        (F(0), F(3, 10), F(1, 2)),
        (F(3, 10), F(7, 10), F(1, 2)),
    )


@given(atomic_measures(), st.sampled_from(["minus", "bar_plus"]))
@settings(max_examples=80, deadline=None)
def test_push_h_atoms_follow_h_map(mu, variant):
    # push_h and h_map snap by one rule: each atom (x, y, w) moves to
    # (h_map(right marginal, x), y, w)
    nu = me.right_marginal(mu)
    moved = [(me.h_map(nu, x, variant), y, w) for x, y, w in mu.atoms]
    assert me.push_h(mu, variant) == AtomicMeasure.from_atoms(moved)


def test_project_star_checks_that_gaps_tile(monkeypatch):
    mu = cells((0, 1, [(1, 1)]))
    support, _ = me.support_and_gaps(me.right_marginal(mu))
    monkeypatch.setattr(me, "support_and_gaps", lambda nu: (support, [(0, F(1, 2))]))
    with pytest.raises(InvariantError, match="support gaps must end at 1"):
        me.project_star(mu)


@pytest.mark.parametrize("variant", ["minus", "bar_plus"])
@pytest.mark.parametrize(
    "gaps, message",
    [([(0, F(1, 2))], "end at 1"), ([(0, F(1, 4)), (F(1, 2), 1)], "tile [0,1] without holes")],
)
def test_push_h_checks_that_gaps_tile(monkeypatch, variant, gaps, message):
    mu = cells((0, 1, [(1, 1)]))
    support, _ = me.support_and_gaps(me.right_marginal(mu))
    monkeypatch.setattr(me, "support_and_gaps", lambda nu: (support, gaps))
    with pytest.raises(InvariantError, match=re.escape(f"support gaps must {message}")):
        me.push_h(mu, variant)


@given(step_measures())
@settings(max_examples=60, deadline=None)
def test_push_h_mass_and_triangle(mu):
    for variant in ("minus", "bar_plus"):
        out = me.push_h(mu, variant)
        assert sum(w for _, _, w in out.atoms) == 1
        assert all(0 <= x <= y <= 1 for x, y, _ in out.atoms)


def test_project_star_example():
    st = me.project_star(THREE_CELL)
    assert st.cells()[0] == (
        F(0),
        F(1, 2),
        ((F(1, 2), F(1, 2)), (F(3, 4), F(1, 2))),
    )


@given(step_measures())
@settings(max_examples=60, deadline=None)
def test_project_star_properties(mu):
    st = me.project_star(mu)
    # projection: idempotent, marginal-preserving, pushforward-preserving
    assert me.project_star(st).canonical() == st.canonical()
    assert me.right_marginal(st).points == me.right_marginal(mu).points
    for variant in ("minus", "bar_plus"):
        assert me.push_h(mu, variant) == me.push_h(st, variant)
    assert me.left_marginal(st).points == StepCDF.uniform().points


def test_equivalent_examples():
    assert me.equivalent(THREE_CELL, THREE_CELL)
    assert me.equivalent(THREE_CELL, me.project_star(THREE_CELL))
    other = cells(
        (0, F(1, 2), [(F(3, 4), 1)]),
        (F(1, 2), 1, [(1, 1)]),
    )
    assert not me.equivalent(TWO_CELL, other)


def test_equivalent_full_support_cells_differ():
    # same support everywhere; differing on a positive-length cell stays
    # detectable after projection
    a = cells(
        (0, F(1, 2), [(F(1, 2), F(1, 2)), (1, F(1, 2))]),
        (F(1, 2), 1, [(1, 1)]),
    )
    b = cells(
        (0, F(1, 2), [(F(1, 2), F(1, 4)), (1, F(3, 4))]),
        (F(1, 2), 1, [(1, 1)]),
    )
    assert not me.equivalent(a, b)


@given(step_measures())
@settings(max_examples=40, deadline=None)
def test_equivalent_reflexive_and_star_invariant(mu):
    assert me.equivalent(mu, mu)
    assert me.equivalent(mu, me.project_star(mu))


def test_check_p_minus():
    me.check_p_minus(StepCDF.uniform())
    with pytest.raises(NotInPMinus):
        me.check_p_minus(
            StepCDF.from_points([(0, 0, 0), (F(1, 2), 0, 0), (1, 1, 1)])
        )


@given(step_measures())
@settings(max_examples=60, deadline=None)
def test_measure_text_roundtrip(mu):
    assert me.read_measure(me.write_measure(mu)) == mu


def test_atomic_text_roundtrip():
    m = AtomicMeasure.from_atoms([(0, F(1, 3), F(2, 5)), (F(1, 3), F(5, 6), F(3, 5))])
    assert me.read_measure(me.write_measure(m)) == m


_REIMPORT = """
import gc, sys
for _ in range(3):
    for name in [m for m in sys.modules if m == "poslim" or m.startswith("poslim.")]:
        del sys.modules[name]
    import poslim.cli
gc.collect()
print(sum(isinstance(o, type) and o.__name__ == "StepCDF" for o in gc.get_objects()))
"""


def test_reimport_frees_the_previous_copy():
    """No module-level alias (such as a cached typing.Union of the measure
    classes) keeps an earlier import of the package alive."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.split() == ["1"]
