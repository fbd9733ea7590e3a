import itertools
import math
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from poslim import densities as de
from poslim import graphs as gr
from poslim import poset as ps
from poslim import recognition as rec
from poslim.errors import BudgetExceeded, SizeLimit

import reference as ref
from conftest import posets


def test_comparability_examples():
    assert gr.comparability_graph(ps.chain(3)).edge_count() == 3
    assert gr.comparability_graph(ps.antichain(3)).edge_count() == 0
    ch = gr.comparability_graph(ps.two_plus_two())
    assert sorted(ch.edges()) == [(0, 1), (2, 3)]


def test_complement_examples():
    assert gr.complement_graph(gr.complete_graph(4)).edge_count() == 0
    g = gr.SimpleGraph.from_edges(4, [(0, 1), (1, 2)])
    assert gr.complement_graph(gr.complement_graph(g)) == g
    # incomparability graph of 2+2 is the 4-cycle
    bh = gr.incomparability_graph(ps.two_plus_two())
    assert ps.canonical_key(bh) == ps.canonical_key(gr.cycle_graph(4))


def test_graph_t_ind_examples():
    c4 = gr.cycle_graph(4)
    assert gr.graph_t_ind(gr.complete_graph(2), gr.complete_graph(6)) == 1
    assert gr.graph_t_ind(c4, gr.incomparability_graph(ps.two_plus_two())) == F(1, 3)
    assert gr.graph_t_ind(c4, gr.incomparability_graph(ps.chain(5))) == 0
    with pytest.raises(SizeLimit):
        gr.graph_t_ind(gr.complete_graph(6), gr.complete_graph(7))


def test_enumerate_graphs_counts():
    allg = gr.enumerate_graphs(5)
    assert [sum(1 for g in allg if g.n == k) for k in range(1, 6)] == [1, 2, 4, 11, 34]


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return gr.SimpleGraph.from_edges(n, [e for e in pairs if draw(st.booleans())])


@given(graphs(max_n=4), graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_induced_embeddings_match_bruteforce(f, g):
    assert de.count_maps(f, g, "ind") == ref.count_maps(f, g, "ind")


def test_induced_embeddings_budget_checked_before_any_row(monkeypatch):
    rowless = gr.SimpleGraph(100, None)  # reading a row would raise TypeError
    with pytest.raises(BudgetExceeded, match=f"^{math.perm(100, 5)} maps of 5 points into 100 "):
        de.count_maps(gr.empty_graph(5), rowless, "ind")
    monkeypatch.setattr(de, "_DENSITY_BUDGET", math.perm(100, 3))  # at the budget still counts
    assert gr.graph_t_ind(gr.empty_graph(3), gr.empty_graph(100)) == 1
    with pytest.raises(BudgetExceeded, match="budget of 970200$"):
        gr.graph_t_ind(gr.empty_graph(4), gr.empty_graph(100))


def test_complement_identity_small():
    allg = gr.enumerate_graphs(4)
    hosts = [g for g in allg if g.n == 4]
    patterns = [g for g in allg if g.n <= 3]
    for f, g in itertools.product(patterns, hosts):
        assert gr.graph_t_ind(f, gr.complement_graph(g)) == gr.graph_t_ind(
            gr.complement_graph(f), g
        )


def test_poset_orientations():
    # a single edge orients two ways; a triangle has 6 transitive orientations
    k2 = gr.complete_graph(2)
    assert len(gr.poset_orientations(k2)) == 2
    k3 = gr.complete_graph(3)
    assert len(gr.poset_orientations(k3)) == 6
    c4 = gr.cycle_graph(4)
    for o in gr.poset_orientations(c4):
        o.check_valid()
        assert gr.comparability_graph(o).edges() == c4.edges()


@given(posets(max_n=5))
@settings(max_examples=40, deadline=None)
def test_directing_identity(p):
    allg = gr.enumerate_graphs(3)
    psi = gr.comparability_graph(p)
    for f in allg:
        lhs = gr.graph_t_ind(f, psi)
        rhs = sum(de.density(o, p, "ind") for o in gr.poset_orientations(f))
        assert lhs == rhs


def test_interval_orders_have_no_induced_c4(catalog5):
    c4 = gr.cycle_graph(4)
    for p in catalog5.classes:
        if rec.is_interval_order(p):
            assert gr.graph_t_ind(c4, gr.incomparability_graph(p)) == 0


def test_enumerate_graphs_is_capped_at_six():
    with pytest.raises(SizeLimit, match="graph enumeration capped at size 6"):
        gr.enumerate_graphs(7)
