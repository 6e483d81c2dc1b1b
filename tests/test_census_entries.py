"""Census entry functions: keys and automorphism orders do not depend on
half-edge labels, and agree with the explicit search in ``oracles``."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from fatmod.enumeration import ALL, TRIVALENT, enumerate_fatgraphs, \
    graph_entry, in_fatgraph_census, tree_entry
from fatmod.errors import MalformedGraph, WrongType
from fatmod.fatgraph import Fatgraph
from fatmod.trees import MARKED, ONE5, TRIVALENT as TREE_TRIVALENT, \
    PlanarTree, odd_valence_trees, unrooted_trees
from fatmod.workspace import Workspace

from oracles import automorphism_order_bruteforce, extend_flag_map, \
    perm_compose, relabel


def _one_boundary_censuses():
    censuses = {}
    ws = Workspace()
    for g in (1, 2):
        censuses["trivalent-g%d" % g] = enumerate_fatgraphs(g, TRIVALENT)
        censuses["all-g%d" % g] = enumerate_fatgraphs(g, ALL)
    for g in (1, 2, 3):
        censuses["cells-g%d" % g] = ws.hyperelliptic_census(g)
    for g in (2, 3):
        comps = ws.w1_components(g)
        censuses["w1-component1-g%d" % g] = comps.component1
        censuses["w1-component2-g%d" % g] = comps.component2
    return [pytest.param(entry.graph, id="%s-%d" % (name, i))
            for name, census in censuses.items()
            for i, entry in enumerate(census)]


def _flagged_trees():
    pools = {}
    for profile in (TREE_TRIVALENT, ONE5, MARKED):
        for leaves in range(2, 9):
            pools["trees-%s-L%d" % (profile, leaves)] = \
                unrooted_trees(leaves, profile)
    pools["odd-valence-E9"] = odd_valence_trees(9)
    return [pytest.param(tree, id="%s-%d" % (name, i))
            for name, trees in pools.items()
            for i, tree in enumerate(trees)]


GRAPHS = _one_boundary_censuses()
TREES = _flagged_trees()

aut_order_oracle = lru_cache(maxsize=None)(automorphism_order_bruteforce)


@pytest.mark.parametrize("graph", GRAPHS + TREES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_graph_entry_is_label_invariant(graph, data):
    entry_of = tree_entry if isinstance(graph, PlanarTree) else graph_entry
    perm = data.draw(st.permutations(range(graph.num_half_edges)))
    entry = entry_of(graph)
    relabeled = entry_of(relabel(graph, perm))
    assert relabeled.key == entry.key
    assert relabeled.aut_order == entry.aut_order == aut_order_oracle(graph)


@pytest.mark.parametrize("graph", GRAPHS + TREES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_from_word_reads_back_the_key(graph, data):
    # the word is the serialization of a cache record: whatever the labels,
    # the graph it rebuilds reads the key back from half-edge 0
    key = relabel(graph, data.draw(
        st.permutations(range(graph.num_half_edges)))).canonical_key()
    rebuilt = type(graph).from_word(key)
    assert rebuilt.boundary_word()[1] == key
    assert rebuilt.aut_order() == graph.aut_order()


@pytest.mark.parametrize("graph", GRAPHS)
def test_half_turn_is_the_only_hyperelliptic_involution(graph):
    # every automorphism from the oracle's search, kept when it is an
    # involution with 2g+2 fixed cells
    m = graph.num_half_edges
    ident = tuple(range(m))
    total = 2 * graph.graph_type().g + 2
    found = set()
    for h in range(m):
        phi = extend_flag_map(graph, graph, 0, h)
        if phi is None:
            continue
        a = tuple(phi[x] for x in range(m))
        if a != ident and perm_compose(a, a) == ident and \
                graph.fixed_cells(a).total == total:
            found.add(a)
    iota = graph.hyperelliptic_involution()
    assert found == (set() if iota is None else {iota})


def test_graph_entry_needs_one_unflagged_boundary():
    theta = Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                 [(0, 3), (1, 5), (2, 4)])
    with pytest.raises(MalformedGraph):
        graph_entry(theta)
    torus = Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                 [(0, 3), (1, 4), (2, 5)], delta=(0,))
    with pytest.raises(MalformedGraph):
        graph_entry(torus)


@pytest.mark.parametrize("valence_filter",
                         [TRIVALENT, ("single", 4), ("single", 5)],
                         ids=["trivalent", "single4", "single5"])
def test_fatgraph_census_membership(valence_filter):
    # of the all-valence censuses at g = 1, 2, the members of a census are
    # exactly its classes, and no class is of another genus's census; a
    # single k-valent vertex with k > 4g is refused, and no class is of it
    for g in (1, 2):
        pool = enumerate_fatgraphs(g, ALL)
        assert all(in_fatgraph_census(e.graph, g, ALL) for e in pool)
        assert not any(in_fatgraph_census(e.graph, 3 - g, ALL)
                       for e in pool)
        members = {e.key for e in pool
                   if in_fatgraph_census(e.graph, g, valence_filter)}
        if valence_filter != TRIVALENT and valence_filter[1] > 4 * g:
            assert not members
            with pytest.raises(WrongType):
                enumerate_fatgraphs(g, valence_filter)
            continue
        assert members == {e.key for e in enumerate_fatgraphs(
            g, valence_filter)}
