"""Census entry functions: keys and automorphism orders do not depend on
half-edge labels."""

import pytest
from hypothesis import given, settings, strategies as st

from fatmod.enumeration import ALL, TRIVALENT, enumerate_fatgraphs, \
    graph_entry
from fatmod.errors import MalformedGraph
from fatmod.fatgraph import Fatgraph
from fatmod.hyperelliptic import hyperelliptic_census, w1_intersection_census


def _one_boundary_graphs():
    censuses = {}
    for g in (1, 2):
        censuses["trivalent-g%d" % g] = enumerate_fatgraphs(g, 1, TRIVALENT)
        censuses["all-g%d" % g] = enumerate_fatgraphs(g, 1, ALL)
    for g in (1, 2, 3):
        censuses["cells-g%d" % g] = hyperelliptic_census(g)
    for g in (2, 3):
        comps = w1_intersection_census(g)
        censuses["w1-component1-g%d" % g] = comps.component1
        censuses["w1-component2-g%d" % g] = comps.component2
    return [pytest.param(entry.graph, id="%s-%d" % (name, i))
            for name, census in censuses.items()
            for i, entry in enumerate(census)]


@pytest.mark.parametrize("graph", _one_boundary_graphs())
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_graph_entry_is_label_invariant(graph, data):
    perm = data.draw(st.permutations(range(graph.num_half_edges)))
    entry = graph_entry(graph)
    relabeled = graph_entry(graph.relabeled(perm))
    assert relabeled.key == entry.key
    assert relabeled.aut_order == entry.aut_order == graph.aut_order()


def test_graph_entry_needs_one_unflagged_boundary():
    theta = Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                 [(0, 3), (1, 5), (2, 4)])
    with pytest.raises(MalformedGraph):
        graph_entry(theta)
    torus = Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                 [(0, 3), (1, 4), (2, 5)], node=(0,))
    with pytest.raises(MalformedGraph):
        graph_entry(torus)
