import random

import pytest
from hypothesis import given, settings, strategies as st

from fatmod.enumeration import ALL, word_entry
from fatmod.errors import (MalformedGraph, NotAnAutomorphism, NotExpandable,
                           WrongBoundaryCount, WrongType)
from fatmod.fatgraph import (Fatgraph, one_vertex_opposite_pairing,
                             split_flags, two_vertex_star_double, word_pairs)
from fatmod.hyperelliptic import double_tree
from fatmod.kontsevich import word_cell_volume
from fatmod.trees import LEAF, PlanarTree, build_rooted_tree, \
    unrooted_trees

from oracles import are_isomorphic, automorphism_order_bruteforce, \
    collapse_edge, perm_compose, relabel, tree_word, vertex_index, \
    word_pairs_reference


def reference_two_boundary_graph():
    """Three-vertex graph of type (1,2) whose two boundary cycles traverse
    the edges as (e0,e3,e2,e1) and (e0,e4,e3,e2,e4,e1); it has a single
    non-trivial automorphism, of order two."""
    return Fatgraph.from_cycles([(0, 8, 3), (1, 6, 5, 2), (4, 9, 7)],
                                [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])


def theta_graph():
    return Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                [(0, 3), (1, 5), (2, 4)])


def one_boundary_torus_graph():
    return Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                [(0, 3), (1, 4), (2, 5)])


def generic_six_valent_tree():
    """Tree with one 6-valent vertex whose six branches are pairwise
    non-isomorphic, so expansions never collide."""
    comb = LEAF
    arms = []
    for _ in range(5):
        comb = (comb, LEAF)
        arms.append(comb)
    return build_rooted_tree(tuple(arms))


class TestConstruction:
    def test_alpha_must_be_fixed_point_free_involution(self):
        with pytest.raises(MalformedGraph):
            Fatgraph((1, 2, 0, 3), (1, 0, 3, 2)) \
                .graph_type()  # 1-valent ordinary vertex
        with pytest.raises(MalformedGraph):
            Fatgraph((1, 0), (0, 1))  # alpha has fixed points

    def test_connectivity_required(self):
        with pytest.raises(MalformedGraph):
            Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                 [(0, 1), (2, 3)])  # not a matching either
        with pytest.raises(MalformedGraph):
            # two disjoint one-vertex graphs
            Fatgraph.from_cycles([(0, 1, 2, 3), (4, 5, 6, 7)],
                                 [(0, 2), (1, 3), (4, 6), (5, 7)])

    def test_half_edge_count_even(self):
        total = sum(len(c) for c in one_boundary_torus_graph().vertices)
        assert total == 6 == 2 * one_boundary_torus_graph().num_edges

    def test_delta_vertices_may_be_small(self):
        edge = Fatgraph.from_cycles([(0,), (1,)], [(0, 1)], delta=[0, 1])
        assert edge.graph_type() == (0, 1)


class TestBoundaryCycles:
    def test_reference_graph_two_cycles(self):
        bc = _edge_cycles(reference_two_boundary_graph())
        assert sorted(len(c) for c in bc) == [4, 6]
        cycles = {tuple(c) for c in bc}
        assert _cyclic_member(cycles, (0, 3, 2, 1))
        assert _cyclic_member(cycles, (0, 4, 3, 2, 4, 1))

    def test_single_edge_tree_one_cycle_twice(self):
        edge = Fatgraph.from_cycles([(0,), (1,)], [(0, 1)], delta=[0, 1])
        assert _edge_cycles(edge) == ((0, 0),)

    def test_unique_trivalent_torus_graph_by_bruteforce(self):
        # both gluings of two trivalent stars; exactly one has n = 1 and its
        # single boundary cycle of length 6 meets every half-edge
        gluings = [theta_graph(), one_boundary_torus_graph()]
        single = [G for G in gluings if G.boundary_cycles().n == 1]
        assert len(single) == 1
        cyc = single[0].boundary_cycles().cycles
        assert len(cyc[0]) == 6


class TestGraphType:
    def test_reference_graph_type(self):
        assert reference_two_boundary_graph().graph_type() == (1, 2)

    def test_theta_is_planar_three_boundaries(self):
        assert theta_graph().graph_type() == (0, 3)

    def test_reversed_rotation_gives_torus(self):
        assert one_boundary_torus_graph().graph_type() == (1, 1)


class TestCollapseEdge:
    def test_star_double_collapses_to_opposite_pairing(self):
        ghp = two_vertex_star_double(2)
        gh = one_vertex_opposite_pairing(2)
        for e in range(ghp.num_edges):
            assert collapse_edge(ghp, e).canonical_key() == \
                gh.canonical_key()

    def test_two_vertex_tree_collapse(self):
        tree = build_rooted_tree((LEAF, (LEAF, LEAF)))
        vertex = vertex_index(tree)
        e = next(i for i, (p, q) in enumerate(tree.edges)
                 if tree.valences[vertex[p]] > 1
                 and tree.valences[vertex[q]] > 1)
        star = collapse_edge(tree, e)
        assert star.valences.count(4) == 1
        assert star.graph_type() == (0, 1)

    def test_torus_collapse_gives_four_valent(self):
        torus = one_boundary_torus_graph()
        non_loop = [e for e in range(3)]
        collapsed = collapse_edge(torus, 0)
        assert collapsed.num_vertices == 1
        assert collapsed.valences == (4,)
        assert collapsed.graph_type() == (1, 1)

    def test_boundary_cycles_survive_with_edge_deleted(self):
        G = reference_two_boundary_graph()
        e = 1
        collapsed = collapse_edge(G, e)
        assert collapsed.boundary_cycles().n == G.boundary_cycles().n
        # old edge indices shift down past the collapsed one
        remap = {old: (old if old < e else old - 1)
                 for old in range(G.num_edges) if old != e}
        expected = [tuple(remap[x] for x in cyc if x != e)
                    for cyc in _edge_cycles(G)]
        got = list(_edge_cycles(collapsed))
        for cyc in expected:
            assert _cyclic_member({tuple(c) for c in got}, cyc)

    def test_type_invariant_under_collapse(self):
        G = reference_two_boundary_graph()
        vertex = vertex_index(G)
        for e, (p, q) in enumerate(G.edges):
            if vertex[p] == vertex[q]:
                continue
            assert collapse_edge(G, e).graph_type() == G.graph_type()


class TestExpansions:
    def test_four_valent_has_two_maximal_expansions(self):
        tree = build_rooted_tree(((LEAF, LEAF), (LEAF, (LEAF, LEAF))))
        # the asymmetric tree gains a 4-valent vertex after one collapse
        collapsed = _collapse_to_valence(tree, 4)
        v = collapsed.valences.index(4)
        results = collapsed.expansions(v)
        assert len(results) == 2
        keys = {g.canonical_key() for g, _ in results}
        assert len(keys) == 2  # distinct as unmarked graphs here

    def test_six_valent_facet_counts(self):
        tree = generic_six_valent_tree()
        v = tree.valences.index(6)
        results = tree.expansions(v)
        by_edges = {}
        for graph, new_edges in results:
            by_edges.setdefault(len(new_edges), []).append((graph, new_edges))
        assert len(by_edges[3]) == 14
        assert len(by_edges[2]) == 21
        assert len(by_edges[1]) == 9
        retain5 = [g for g, _ in by_edges[1] if 5 in g.valences]
        assert len(retain5) == 6

    def test_five_valent_maximal_count_is_catalan(self):
        comb = LEAF
        arms = []
        for _ in range(4):
            comb = (comb, LEAF)
            arms.append(comb)
        tree = build_rooted_tree(tuple(arms))
        v = tree.valences.index(5)
        maximal = [r for r in tree.expansions(v) if len(r[1]) == 2]
        assert len(maximal) == 5

    def test_collapse_roundtrip(self):
        tree = generic_six_valent_tree()
        v = tree.valences.index(6)
        for graph, new_edges in tree.expansions(v):
            assert graph.graph_type() == tree.graph_type()
            back = graph
            while True:
                # re-identify surviving new edges by their half-edge pairs
                todo = [e for e in range(back.num_edges)
                        if e in new_edges]
                if not todo:
                    break
                back = collapse_edge(back, todo[0])
                new_edges = {e - 1 if e > todo[0] else e
                             for e in new_edges if e != todo[0]}
            assert back.canonical_key() == tree.canonical_key()

    def test_trivalent_not_expandable(self):
        with pytest.raises(NotExpandable):
            one_boundary_torus_graph().expansions(0)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_orbifold_weighted_maximal_expansions(self, k):
        # weighted count of maximal expansion cells near a single k-valent
        # vertex equals C_{k-2} over the order of the generic-metric
        # stabilizer
        from fatmod.enumeration import catalan
        from fatmod.workspace import Workspace
        from fractions import Fraction
        if k == 4:
            G = Fatgraph.from_cycles([(0, 1, 2, 3)], [(0, 2), (1, 3)])
        elif k == 5:
            G = Workspace().fatgraph_census(
                2, ("single", 5)).entries[0].graph
        else:
            from fatmod.hyperelliptic import double_tree
            from fatmod.trees import unrooted_trees
            G = double_tree(
                tree_word(unrooted_trees(4, "marked")[0])).doubled
        v = G.valences.index(k)
        stubs = G.vertices[v]
        metric_stab = [a for a in G.automorphisms()
                       if all({a[p], a[q]} == {p, q} for p, q in G.edges)]
        rotations = set()
        for a in metric_stab:
            img = a[stubs[0]]
            rotations.add(stubs.index(img))
        triangulations = _triangulation_chord_sets(k)
        orbits = {}
        for tri in triangulations:
            orbit = frozenset(_rotate_chords(tri, r, k) for r in rotations)
            orbits.setdefault(min(orbit), set()).update(orbit)
        total = Fraction(0)
        for rep, orbit in orbits.items():
            stab = len(rotations) // len(orbit)
            total += Fraction(1, stab)
        assert total == Fraction(catalan(k - 2), len(metric_stab))


def _triangulation_chord_sets(k):
    from fatmod.fatgraph import _noncrossing_diagonal_sets
    return [frozenset(d) for d in _noncrossing_diagonal_sets(k)
            if len(d) == k - 3]


def _rotate_chords(chords, r, k):
    return frozenset(tuple(sorted(((a + r) % k, (b + r) % k)))
                     for a, b in chords)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(20240811)
        for G in (one_boundary_torus_graph(), two_vertex_star_double(2),
                  one_vertex_opposite_pairing(2), generic_six_valent_tree()):
            key = G.canonical_key()
            m = G.num_half_edges
            for _ in range(100):
                perm = list(range(m))
                rng.shuffle(perm)
                assert relabel(G, perm).canonical_key() == key
        for G in (reference_two_boundary_graph(), theta_graph()):
            with pytest.raises(WrongType):
                G.canonical_key()

    def test_planar_vs_nonplanar_theta(self):
        # the planar gluing of two trivalent stars has three boundary cycles
        # and no canonical form; the other gluing is the one-boundary torus,
        # whose key sees vertex flags
        with pytest.raises(WrongType):
            theta_graph().canonical_key()
        torus = one_boundary_torus_graph()
        flagged = Fatgraph(torus.sigma, torus.alpha, flags=("d",) * 6)
        assert torus.canonical_key() != flagged.canonical_key()
        assert not are_isomorphic(torus, flagged)

    def test_three_boundary_word_is_a_wrong_boundary_count(self):
        # the theta graph has three boundary cycles and no boundary word;
        # the error names the count and is still a WrongType
        with pytest.raises(WrongBoundaryCount, match="got 3"):
            theta_graph().boundary_word()
        with pytest.raises(WrongType):
            theta_graph().boundary_word()

    def test_one_edge_expansions_of_generic_four_valent_differ(self):
        tree = _collapse_to_valence(
            build_rooted_tree(((LEAF, LEAF), (LEAF, (LEAF, LEAF)))), 4)
        v = tree.valences.index(4)
        keys = [g.canonical_key() for g, _ in tree.expansions(v)]
        assert len(keys) == len(set(keys)) == 2


def _collapse_to_valence(tree, want):
    G = tree
    while want not in G.valences:
        vertex = vertex_index(G)
        for e, (p, q) in enumerate(G.edges):
            vp, vq = vertex[p], vertex[q]
            if vp != vq and G.valences[vp] > 1 and G.valences[vq] > 1:
                G = collapse_edge(G, e)
                break
        else:
            raise AssertionError("no collapsible internal edge")
    return G


class TestAutomorphisms:
    def test_reference_graph_order_two(self):
        # the doubled 5-leaf trivalent tree: the copy swap is its only
        # non-trivial automorphism
        from fatmod.hyperelliptic import double_tree
        G = double_tree(tree_word(unrooted_trees(5)[0])).doubled
        assert G.aut_order() == 2 == automorphism_order_bruteforce(G)
        with pytest.raises(WrongType):
            reference_two_boundary_graph().aut_order()

    def test_opposite_pairing_order_4g(self):
        for g in (1, 2, 3):
            assert one_vertex_opposite_pairing(g).aut_order() == 4 * g

    def test_torus_graph_order_six(self):
        assert one_boundary_torus_graph().aut_order() == 6

    def test_group_closed_under_composition(self):
        for G in (one_boundary_torus_graph(), one_vertex_opposite_pairing(2)):
            auts = set(G.automorphisms())
            for a in auts:
                for b in auts:
                    assert perm_compose(a, b) in auts
        with pytest.raises(WrongType):
            theta_graph().automorphisms()

    def test_one_vertex_order_divides_half_edges(self):
        for g in (1, 2, 3):
            G = one_vertex_opposite_pairing(g)
            assert G.num_half_edges % G.aut_order() == 0

    def test_matches_bruteforce_stabilizer(self):
        graphs = [one_boundary_torus_graph(),
                  one_vertex_opposite_pairing(2),
                  two_vertex_star_double(2),
                  build_rooted_tree((LEAF, LEAF)),
                  build_rooted_tree((LEAF, (LEAF, LEAF)))]
        for G in graphs:
            assert G.num_half_edges <= 12
            assert G.aut_order() == automorphism_order_bruteforce(G)
        for G in (theta_graph(), reference_two_boundary_graph()):
            with pytest.raises(WrongType):
                G.aut_order()


class TestFixedCells:
    def test_half_turn_on_opposite_pairing(self):
        for g in (2, 3):
            G = one_vertex_opposite_pairing(g)
            iota = G.hyperelliptic_involution()
            fc = G.fixed_cells(iota)
            assert (fc.vertices, fc.edges, fc.boundary_cycles) == (1, 2 * g, 1)
            assert fc.total == 2 * g + 2

    def test_identity_fixes_everything(self):
        G = theta_graph()
        fc = G.fixed_cells(tuple(range(G.num_half_edges)))
        assert fc == (G.num_vertices, G.num_edges, 3)

    def test_star_double_order_two_fixes_2g_plus_2(self):
        G = two_vertex_star_double(2)
        ident = tuple(range(G.num_half_edges))
        order2 = [a for a in G.automorphisms()
                  if a != ident and perm_compose(a, a) == ident]
        assert order2
        for a in order2:
            assert G.fixed_cells(a).total == 6

    def test_rejects_non_automorphism(self):
        G = theta_graph()
        with pytest.raises(NotAnAutomorphism):
            G.fixed_cells((1, 0, 2, 3, 4, 5))


class TestHyperellipticInvolution:
    def test_opposite_pairing_has_involution(self):
        for g in (1, 2, 3):
            assert one_vertex_opposite_pairing(g).hyperelliptic_involution() \
                is not None

    def test_doubled_five_star_swaps_five_valent_vertices(self):
        from fatmod.hyperelliptic import double_tree
        cell = double_tree(tree_word(unrooted_trees(5, "one5")[0]))
        iota = cell.doubled.hyperelliptic_involution()
        assert iota is not None
        v0, v1 = cell.doubled.vertices
        assert frozenset(iota[h] for h in v0) == frozenset(v1)

    def test_non_hyperelliptic_trivalent_genus_two(self):
        from fatmod.enumeration import enumerate_fatgraphs
        from fatmod.workspace import Workspace
        hyper_keys = {e.graph.canonical_key()
                      for e in Workspace().hyperelliptic_census(2)}
        census = enumerate_fatgraphs(2)
        others = [e.graph for e in census
                  if e.graph.canonical_key() not in hyper_keys]
        assert others
        assert others[0].hyperelliptic_involution() is None
        # and the doubled-tree cells are exactly the hyperelliptic entries
        for e in census:
            iota = e.graph.hyperelliptic_involution()
            assert (iota is not None) == \
                (e.graph.canonical_key() in hyper_keys)

    def test_wrong_type_rejected(self):
        with pytest.raises(WrongType):
            theta_graph().hyperelliptic_involution()


class TestWordFormat:
    def test_round_trip_reads_back_key(self):
        for G in (one_boundary_torus_graph(), two_vertex_star_double(3),
                  one_vertex_opposite_pairing(2),
                  build_rooted_tree((LEAF, (LEAF, LEAF)))):
            key = G.canonical_key()
            again = type(G).from_word(key)
            assert again.boundary_word()[1] == key
            assert are_isomorphic(again, G)

    @pytest.mark.parametrize("word", [
        (), (3,), (3, 3, 3, 3, 3), (-3, 3, 3, 3, 3, 3), (21, 3, 3, 3, 3, 3),
        (0, 3, 3, 3, 3, 3), (6, 3, 3, 3, 3, 3), (1, 1, 1, 1),
        (15, 3, 3, 3, 3, 3),
    ], ids=["empty", "one-entry", "odd-length", "negative", "code-three",
            "gap-zero", "flagged-gap-zero", "not-an-involution", "code-two"])
    def test_from_word_rejects(self, word):
        with pytest.raises(MalformedGraph):
            Fatgraph.from_word(word)

    def test_tree_from_word_needs_a_tree(self):
        with pytest.raises(MalformedGraph):
            PlanarTree.from_word((3, 3, 3, 3, 3, 3))

    def test_split_flags_inverts_the_word_code(self):
        tree = build_rooted_tree((LEAF, (LEAF, LEAF)))
        boundary, word = tree.boundary_word()
        gaps, flags = split_flags(word)
        m = len(word)
        assert all(0 < gap < m for gap in gaps)
        assert [tree.flags[h] for h in boundary] == \
            [("o", "d")[flag] for flag in flags]
        assert [gap + m * flag for gap, flag in zip(gaps, flags)] == \
            list(word)
        for bad in ((-1, 1), (4, 1), (1, 5)):
            with pytest.raises(MalformedGraph):
                split_flags(bad)


@st.composite
def near_gap_words(draw):
    """Words of length 0..12 that pair their slots (the last slot of an
    odd length left at gap 0), half of them then given up to two entries
    from -1..2m+1: zero gaps, flag codes, negative entries and broken
    involutions."""
    m = draw(st.integers(0, 12))
    slots = draw(st.permutations(range(m)))
    word = [0] * m
    for p, q in zip(slots[::2], slots[1::2]):
        word[p], word[q] = (q - p) % m, (p - q) % m
    if m and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            word[draw(st.integers(0, m - 1))] = \
                draw(st.integers(-1, 2 * m + 1))
    return tuple(word)


@settings(max_examples=500, deadline=None)
@given(near_gap_words())
def test_word_pairs_matches_the_involution(word):
    # the edges of a word that pairs its slots, numbered by first slot;
    # any other word is refused
    try:
        expected = word_pairs_reference(word)
    except MalformedGraph:
        with pytest.raises(MalformedGraph):
            word_pairs(word)
    else:
        assert word_pairs(word) == expected
        # delta-flagged, so any valence is allowed
        graph = Fatgraph.from_word(tuple(w + len(word) for w in word))
        assert list(graph.edges) == expected


@pytest.mark.parametrize("word", [
    (), (1, 1, 1), (0, 3, 3, 3, 3, 3), (3, 3, 3, 3, 3, 2),
    (9, 3, 3, 3, 3, 3), (-3, 3, 3, 3, 3, 3)],
    ids=["empty", "odd-length", "zero-gap", "not-an-involution",
         "flag-code", "negative"])
def test_word_readers_refuse_what_word_pairs_refuses(word):
    # a flag code is no gap on the unflagged paths; a tree word carries
    # flags, so double_tree also gets the word with every slot delta
    for read in (word_pairs_reference, word_pairs,
                 lambda w: word_entry(w, 1, ALL), word_cell_volume,
                 double_tree, Fatgraph.from_word):
        with pytest.raises(MalformedGraph):
            read(word)
    with pytest.raises(MalformedGraph):
        double_tree(tuple(w + len(word) for w in word))


def test_isomorphic_iff_oracle_agrees():
    torus = one_boundary_torus_graph()
    graphs = [torus, relabel(torus, (3, 5, 4, 0, 2, 1)),
              one_vertex_opposite_pairing(1),
              Fatgraph.from_cycles([(0, 1, 2, 3)], [(0, 2), (1, 3)],
                                   delta=(0,)),
              build_rooted_tree((LEAF, LEAF))]
    for G in graphs:
        for H in graphs:
            assert (G.canonical_key() == H.canonical_key()) == \
                are_isomorphic(G, H)
    with pytest.raises(WrongType):
        theta_graph().canonical_key()


def _edge_cycles(G):
    """Boundary cycles as sequences of edge indices."""
    edge_of = {h: e for e, pair in enumerate(G.edges) for h in pair}
    return tuple(tuple(edge_of[h] for h in cycle)
                 for cycle in G.boundary_cycles().cycles)


def _cyclic_member(cycle_set, target):
    n = len(target)
    for rot in range(n):
        if tuple(target[rot:] + target[:rot]) in cycle_set:
            return True
    return False
