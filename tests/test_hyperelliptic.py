import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fatmod.enumeration import (CensusEntry, _collapsible_slots, catalan,
                                catalan5, collapse_word, enumerate_fatgraphs,
                                enumerate_trees, tree_descriptor)
from fatmod.errors import BadLeafCount, MalformedGraph, NotSymmetric
from fatmod.fatgraph import (Fatgraph, one_vertex_opposite_pairing,
                             two_vertex_star_double, word_vertices)
from fatmod.hyperelliptic import (W1_MULTIPLICITY_5VALENT,
                                  W1_MULTIPLICITY_6VALENT,
                                  cut_along_involution, count_t1, count_t2,
                                  double_tree)
from fatmod.integrals import psi_top_hyperelliptic, w1_h_integral
from fatmod.kontsevich import hyperelliptic_cell_volume
from fatmod.trees import (LEAF, MARKED, ONE5, TRIVALENT, PlanarTree,
                          build_rooted_tree, unrooted_trees)
from fatmod.workspace import Workspace

from oracles import (census_without, collapse_edge, double_by_cycles,
                     half_turn_cells_by_profile, relabel, tree_word)


class TestDoubleTree:
    def test_three_star_doubles_to_torus_graph(self):
        cell = double_tree(tree_word(unrooted_trees(3)[0]))
        torus = enumerate_fatgraphs(1).entries[0].graph
        assert cell.doubled.canonical_key() == torus.canonical_key()

    def test_five_star_double(self):
        cell = double_tree(tree_word(unrooted_trees(5, ONE5)[0]))
        assert sorted(cell.doubled.valences) == [5, 5]
        assert cell.doubled.aut_order() == 10

    def test_full_collapse_reaches_minimal_cells(self):
        # collapsing the two copies of every internal tree edge merges each
        # copy into a single vertex (the star double); one more collapse
        # gives the one-vertex opposite pairing
        cell = double_tree(tree_word(unrooted_trees(5)[0]))
        fused = {e for e, (te, f) in enumerate(cell.edge_map) if f == 1}
        G = cell.doubled
        remaining = set(range(G.num_edges)) - fused
        while remaining:
            e = min(remaining)
            G = collapse_edge(G, e)
            remaining = {x - 1 if x > e else x for x in remaining if x != e}
            fused = {x - 1 if x > e else x for x in fused if x != e}
        assert G.canonical_key() == two_vertex_star_double(2).canonical_key()
        assert collapse_edge(G, 0).canonical_key() == \
            one_vertex_opposite_pairing(2).canonical_key()

    def test_fixed_cells_count(self):
        for leaves, profile in [(5, "trivalent"), (7, "trivalent"),
                                (5, ONE5), (4, MARKED)]:
            for tree in unrooted_trees(leaves, profile):
                cell = double_tree(tree_word(tree))
                g = cell.doubled.graph_type().g
                fc = cell.doubled.fixed_cells(cell.doubled.half_turn())
                assert fc.total == 2 * g + 2

    def test_involution_and_leaf_action(self):
        # |Aut(double)| = 2 |Aut(tree)|: the quotient by the copy swap acts
        # faithfully on the glued edges, i.e. on the tree's leaves
        for leaves in (3, 5, 7):
            for tree in unrooted_trees(leaves):
                cell = double_tree(tree_word(tree))
                assert cell.doubled.aut_order() == 2 * tree.aut_order()
                assert cell.doubled.aut_order() % 2 == 0

    def test_even_leaf_count_rejected(self):
        with pytest.raises(BadLeafCount):
            double_tree(tree_word(unrooted_trees(4)[0]))

    def test_marked_even_tree_accepted(self):
        cell = double_tree(tree_word(unrooted_trees(4, MARKED)[0]))
        assert cell.doubled.graph_type().g == 2
        assert 6 in cell.doubled.valences

    def test_word_of_no_tree_rejected(self):
        # a pairing whose vertex (1, 3) is delta, but whose vertices (0) and
        # (2) are ordinary leaves, so no tree has this word
        with pytest.raises(MalformedGraph):
            double_tree((7, 5, 7, 1))


def flagged_pairing(num_edges, rng):
    """A random pairing of 2E slots as a flagged gap word: one flag per
    vertex, and half the time one slot's flag flipped."""
    m = 2 * num_edges
    slots = rng.sample(range(m), m)
    alpha = [0] * m
    for p, q in zip(slots[::2], slots[1::2]):
        alpha[p], alpha[q] = q, p
    gaps = [(alpha[p] - p) % m for p in range(m)]
    flag = [0] * m
    for cycle in word_vertices(gaps):
        delta = rng.randrange(2)
        for p in cycle:
            flag[p] = delta
    if rng.randrange(2):
        flag[rng.randrange(m)] ^= 1
    return tuple(gap + m * delta for gap, delta in zip(gaps, flag))


def test_double_refuses_what_the_tree_check_refuses():
    # double_tree checks its word as PlanarTree.from_word checks a tree:
    # a word that is no tree is refused, and a tree word doubles unless
    # its delta cells are too few or even
    rng = random.Random(1)
    refused = trees = 0
    for num_edges in (3, 5, 7):
        for _ in range(1000):
            word = flagged_pairing(num_edges, rng)
            try:
                PlanarTree.from_word(word)
            except MalformedGraph:
                refused += 1
                with pytest.raises(MalformedGraph):
                    double_tree(word)
            else:
                trees += 1
                try:
                    double_tree(word)
                except BadLeafCount:
                    pass
    assert refused and trees


# leaf counts and profiles of the trees that double, up to 9 leaves
DOUBLED_TREES = ([(n, TRIVALENT) for n in (3, 5, 7, 9)]
                 + [(n, ONE5) for n in (5, 7, 9)]
                 + [(n, MARKED) for n in (4, 6, 8)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_double_matches_cycle_doubling(data):
    # the word walk and the reference's vertex cycles double a tree, under
    # any half-edge labels, to the same class with the same cell volume
    leaves, profile = data.draw(st.sampled_from(DOUBLED_TREES))
    tree = data.draw(st.sampled_from(unrooted_trees(leaves, profile)))
    tree = relabel(tree,
                   data.draw(st.permutations(range(tree.num_half_edges))))
    tree = PlanarTree(tree.sigma, tree.alpha, tree.flags)
    cell, reference = double_tree(tree_word(tree)), double_by_cycles(tree)
    assert cell.doubled.canonical_key() == reference.doubled.canonical_key()
    assert cell.doubled.aut_order() == reference.doubled.aut_order()
    assert hyperelliptic_cell_volume(cell).value == \
        hyperelliptic_cell_volume(reference).value
    # both number the tree's edges by first slot of the same tree word, so
    # the signed Pfaffians of the pullbacks agree too
    assert hyperelliptic_cell_volume(cell).pf == \
        hyperelliptic_cell_volume(reference).pf


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_double_reads_any_rotation_of_the_tree_word(data):
    # a tree census key is one rotation of the tree's word; every other
    # rotation doubles to the same class, |Aut| and cell volume
    leaves, profile = data.draw(st.sampled_from(DOUBLED_TREES))
    key = data.draw(st.sampled_from(
        enumerate_trees(leaves, profile).entries)).key
    r = data.draw(st.integers(0, len(key) - 1))
    cell, rotated = double_tree(key), double_tree(key[r:] + key[:r])
    assert rotated.doubled.canonical_key() == cell.doubled.canonical_key()
    assert rotated.doubled.aut_order() == cell.doubled.aut_order()
    assert hyperelliptic_cell_volume(rotated).value == \
        hyperelliptic_cell_volume(cell).value


class TestCutAlongInvolution:
    @pytest.mark.parametrize("leaves", [3, 5, 7])
    def test_round_trip(self, leaves):
        for tree in unrooted_trees(leaves):
            cell = double_tree(tree_word(tree))
            a, b = cut_along_involution(cell.doubled,
                                        cell.doubled.half_turn())
            assert a.canonical_key() == tree.canonical_key()
            assert b.canonical_key() == tree.canonical_key()

    def test_opposite_pairing_cuts_to_stars(self):
        for g in (2, 3):
            G = one_vertex_opposite_pairing(g)
            a, b = cut_along_involution(G, G.hyperelliptic_involution())
            star = build_rooted_tree(tuple([LEAF] * 2 * g))
            assert a.canonical_key() == star.canonical_key()
            assert b.canonical_key() == star.canonical_key()

    def test_star_double_cuts_to_stars(self):
        G = two_vertex_star_double(2)
        a, b = cut_along_involution(G, G.hyperelliptic_involution())
        assert a.valences.count(1) == 5
        assert sorted(a.valences) == [1, 1, 1, 1, 1, 5]

    def test_genus_two_trivalent_hyperelliptic_graph(self):
        # the trivalent genus-2 hyperelliptic graph splits into two
        # identical 5-leaf trivalent trees
        tree = unrooted_trees(5)[0]
        cell = double_tree(tree_word(tree))
        assert set(cell.doubled.valences) == {3}
        a, b = cut_along_involution(cell.doubled, cell.doubled.half_turn())
        assert a.valences.count(1) == 5
        assert set(a.valences) == {1, 3}
        assert a.canonical_key() == b.canonical_key()

    def test_fixed_vertex_splits_into_two_halves_with_fresh_leaf(self):
        # the fixed 6-valent vertex of a doubled marked tree splits into two
        # 4-valent vertices, one new leaf stub each
        for leaves in (4, 6):
            for tree in unrooted_trees(leaves, MARKED):
                cell = double_tree(tree_word(tree))
                a, b = cut_along_involution(cell.doubled,
                                            cell.doubled.half_turn())
                assert a.canonical_key() == b.canonical_key()
                assert a.valences.count(1) == leaves + 1
                assert 4 in a.valences

    def test_one5_round_trip(self):
        for tree in unrooted_trees(7, ONE5):
            cell = double_tree(tree_word(tree))
            a, b = cut_along_involution(cell.doubled,
                                        cell.doubled.half_turn())
            assert a.canonical_key() == tree.canonical_key()
            assert b.canonical_key() == tree.canonical_key()

    def test_not_symmetric_rejected(self):
        G = one_vertex_opposite_pairing(2)
        ident = tuple(range(G.num_half_edges))
        with pytest.raises(NotSymmetric):
            cut_along_involution(G, ident)


@pytest.mark.parametrize("g,classes", [(1, 1), (2, 1), (3, 6)])
def test_census_classes_cut_and_double_back(ws, g, classes):
    # graph -> cut -> double: each hyperelliptic class of the trivalent
    # census is the double of the tree its half-turn cuts it into
    hyper = [e for e in ws.trivalent_census(g)
             if e.graph.hyperelliptic_involution() is not None]
    assert len(hyper) == classes
    for entry in hyper:
        a, b = cut_along_involution(entry.graph, entry.graph.half_turn())
        assert a.canonical_key() == b.canonical_key()
        assert double_tree(tree_word(a)).doubled.canonical_key() == \
            entry.key


@pytest.mark.parametrize("leaves,profile", [
    (3, TRIVALENT), (5, TRIVALENT), (7, TRIVALENT), (9, TRIVALENT),
    (5, ONE5), (7, ONE5)])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cut_is_label_invariant(leaves, profile, data):
    tree = data.draw(st.sampled_from(unrooted_trees(leaves, profile)))
    G = double_tree(tree_word(tree)).doubled
    G = relabel(G, data.draw(st.permutations(range(G.num_half_edges))))
    a, b = cut_along_involution(G, G.half_turn())
    assert a.canonical_key() == b.canonical_key() == tree.canonical_key()


@pytest.fixture(scope="module")
def single6_genus3(ws):
    return ws.fatgraph_census(3, ("single", 6))


def half_turn_component2_keys(census, g):
    """Keys of the half-turn scan of the ("single", 6) census of genus g:
    every class it keeps has the one profile of that census, a 6-valent
    vertex among 4g - 6 trivalent ones."""
    profile = (6,) + (3,) * (4 * g - 6)
    kept = half_turn_cells_by_profile(census, g)
    assert list(kept) == [profile]
    return kept[profile]


def collapses_between(words, valences) -> set:
    """Canonical gap words of the graphs of ``words`` with one edge
    collapsed, over every edge joining two vertices of the valences
    ``valences`` (sorted)."""
    out = set()
    for word in words:
        m = len(word)
        vertex_of = {p: cycle for cycle in word_vertices(word)
                     for p in cycle}
        for p, gap in enumerate(word):
            q = (p + gap) % m
            a, b = vertex_of[p], vertex_of[q]
            if p < q and a != b and sorted((len(a), len(b))) == valences:
                out.add(collapse_word(word, p))
    return out


@pytest.fixture(scope="module")
def component1_genus3_keys(ws):
    """The half-turn scan's cells of profile (5, 5, 3, 3, 3, 3) at g=3:
    the ("single", 5) census collapsed along an edge joining two trivalent
    vertices, then along one joining the 4-valent vertex to a trivalent
    one."""
    single5 = [e.key for e in ws.fatgraph_census(3, ("single", 5))]
    words = collapses_between(collapses_between(single5, [3, 3]), [3, 4])
    profile = (5, 5, 3, 3, 3, 3)
    kept = half_turn_cells_by_profile(
        [CensusEntry(word, 1) for word in sorted(words)], 3)
    return kept[profile]


class TestCensuses:
    def test_maximal_cell_counts(self, ws):
        assert ws.hyperelliptic_census(1).orbifold_sum() == Fraction(1, 6)
        assert ws.hyperelliptic_census(2).orbifold_sum() == Fraction(1, 2)
        assert ws.hyperelliptic_census(3).orbifold_sum() == 3

    @pytest.mark.parametrize("g", [2, 3])
    def test_w1_components_match_closed_counts(self, ws, g):
        comps = ws.w1_components(g)
        assert comps.component1.orbifold_sum() == count_t1(g)
        assert comps.component2.orbifold_sum() == count_t2(g)
        assert W1_MULTIPLICITY_5VALENT == 2
        assert W1_MULTIPLICITY_6VALENT == 3

    def test_component_disjointness(self, ws):
        comps = ws.w1_components(2)
        keys1 = {e.key for e in comps.component1}
        keys2 = {e.key for e in comps.component2}
        assert not keys1 & keys2

    def test_w1_components_match_half_turn_scan(self, ws):
        # a second route to H_2 ∩ W_1 that reads the all-valence census
        # words and uses no tree or doubling code
        kept = half_turn_cells_by_profile(ws.all_valence_census(2), 2)
        comps = ws.w1_components(2)
        assert kept[(5, 5)] == [e.key for e in comps.component1]
        assert kept[(6, 3, 3)] == [e.key for e in comps.component2]

    def test_w1_component2_matches_half_turn_scan_genus_three(
            self, ws, single6_genus3):
        # the g=3 half of the second route: component 2's keys from the
        # ("single", 6) census words, with no tree or doubling code
        assert half_turn_component2_keys(single6_genus3, 3) == \
            [e.key for e in ws.w1_components(3).component2]

    def test_w1_component1_matches_half_turn_scan_genus_three(
            self, ws, component1_genus3_keys):
        # the paper's chain-level H_3 ∩ W_1, component 1, on the graph
        # side: two 5-valent vertices swapped by the half-turn, reached by
        # collapsing from the ("single", 5) census with no tree or
        # doubling code
        assert component1_genus3_keys == \
            [e.key for e in ws.w1_components(3).component1]

    def test_half_turn_scan_catches_component1_without_a_tree(
            self, component1_genus3_keys):
        # a mutation: component 1 doubled from the 7-leaf one5 trees with
        # one tree dropped must fail the comparison
        mutated = Workspace()
        descriptor = tree_descriptor(7, ONE5, "unrooted")
        mutated.override(descriptor,
                         census_without(enumerate_trees(7, ONE5), 0))
        assert component1_genus3_keys != \
            [e.key for e in mutated.w1_components(3).component1]

    def test_half_turn_scan_catches_component2_from_plain_trees(
            self, single6_genus3):
        # a mutation: component 2 doubled from the plain trivalent trees of
        # 2g leaves in place of the marked ones must fail the comparison;
        # with no marked vertex their 2g delta cells are even, so doubling
        # refuses them
        mutated = Workspace()
        mutated.override(tree_descriptor(6, MARKED, "unrooted"),
                         enumerate_trees(6, TRIVALENT))
        with pytest.raises((BadLeafCount, AssertionError)):
            assert half_turn_component2_keys(single6_genus3, 3) == \
                [e.key for e in mutated.w1_components(3).component2]

    def test_closed_counts(self):
        assert count_t1(2) == Fraction(1, 10)
        assert count_t2(2) == Fraction(1, 2)
        assert count_t1(3) == 2
        assert count_t2(3) == Fraction(14, 3)
        for g in range(2, 8):
            assert count_t1(g) * 2 * (2 * g + 1) == catalan5(2 * g + 1)


class TestW1Multiplicities:
    def test_component1_has_swapped_five_valent_pair(self, ws):
        for entry in ws.w1_components(2).component1:
            cell = entry.payload
            fives = [v for v, val in enumerate(cell.doubled.valences)
                     if val == 5]
            assert len(fives) == 2
            iota = cell.doubled.half_turn()
            v0 = frozenset(cell.doubled.vertices[fives[0]])
            v1 = frozenset(cell.doubled.vertices[fives[1]])
            assert frozenset(iota[h] for h in v0) == v1

    def test_component2_six_valent_expansion_structure(self, ws):
        # nine one-edge expansions of the fixed 6-valent vertex: six keep a
        # 5-valent vertex (the other sheets of the codimension-2 cycle),
        # three are symmetric and stay in the hyperelliptic locus
        cell = ws.w1_components(2).component2.entries[0].payload
        G = cell.doubled
        v = G.valences.index(6)
        one_edge = [(graph, new)
                    for graph, new in G.expansions(v, up_to_isomorphism=False)
                    if len(new) == 1]
        assert len(one_edge) == 9
        with_five = [g for g, _ in one_edge if 5 in g.valences]
        assert len(with_five) == 6
        symmetric = [g for g, _ in one_edge
                     if 5 not in g.valences
                     and g.hyperelliptic_involution() is not None]
        assert len(symmetric) == 3


class TestMinimalCells:
    @pytest.mark.parametrize("g", [2, 3])
    def test_collapse_closure_full_simplex_cells(self, ws, g):
        # every face of a hyperelliptic top cell, by collapsing non-loop
        # edges of gap words; a face whose involution fixes every edge
        # keeps it on every metric, so its whole closed cell is hyperelliptic
        seen = frontier = {entry.key for entry in ws.hyperelliptic_census(g)}
        while frontier:
            frontier = {collapse_word(word, slot) for word in frontier
                        for slot in _collapsible_slots(word, False)} - seen
            seen = seen | frontier
        full = {}
        for word in seen:
            G = Fatgraph.from_word(word)
            iota = G.hyperelliptic_involution()
            if iota is not None and \
                    G.fixed_cells(iota).edges == G.num_edges:
                full[word] = G
        gh = one_vertex_opposite_pairing(g)
        ghp = two_vertex_star_double(g)
        assert set(full) == {gh.canonical_key(), ghp.canonical_key()}
        assert sorted(G.aut_order() for G in full.values()) == \
            sorted([4 * g, 2 * (2 * g + 1)])

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_reference_cell_automorphisms(self, g):
        assert one_vertex_opposite_pairing(g).aut_order() == 4 * g
        assert two_vertex_star_double(g).aut_order() == 2 * (2 * g + 1)


def test_tree_and_cell_censuses_build_no_graph(monkeypatch):
    # trees and cells are their words on every census path: the g=4 cell
    # censuses, a tree census and the hevol and w1h sums over cells
    # construct no Fatgraph, nor a PlanarTree, its subclass
    built = []
    init = Fatgraph.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Fatgraph, "__init__", counted)
    workspace = Workspace()
    cells = workspace.hyperelliptic_census(4)
    workspace.w1_components(4)
    workspace.tree_census(8, TRIVALENT)
    psi_top_hyperelliptic(4)
    w1_h_integral(4)
    assert built == []
    # the count is live: a cell's graph is built when it is read
    assert cells.entries[0].payload.doubled.num_edges == 21
    assert built == ["Fatgraph"]


def test_hyperelliptic_classes_within_full_census(ws):
    # scanning every trivalent class for an involution recovers exactly the
    # doubled-tree cells
    for g in (2, 3):
        doubled = {e.graph.canonical_key()
                   for e in ws.hyperelliptic_census(g)}
        found = {e.graph.canonical_key() for e in ws.trivalent_census(g)
                 if e.graph.hyperelliptic_involution() is not None}
        assert found == doubled
