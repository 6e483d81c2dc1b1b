import inspect
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fatmod import enumeration
from fatmod.enumeration import (ALL, OrbifoldCensus, TRIVALENT,
                                _trivalent_pairings, catalan, catalan5,
                                collapse_word, enumerate_fatgraphs,
                                enumerate_trees, fatgraph_closed_count,
                                fatgraph_profiles, rooted_one_face_count,
                                tree_closed_count)
from fatmod.cache import cache_path
from fatmod.errors import MalformedGraph, ResourceLimit, WrongType
from fatmod.fatgraph import Fatgraph, least_rotation
from fatmod.hyperelliptic import count_t1, count_t2
from fatmod.trees import LEAF, ONE5, MARKED, TRIVALENT as TREE_TRIVALENT, \
    PlanarTree, _shapes, build_rooted_tree, odd_valence_shapes, \
    odd_valence_trees, rooted_trees, unrooted_trees
from fatmod.workspace import Workspace

from oracles import (_hook_characters_reference, _partitions, are_isomorphic,
                     automorphism_order_bruteforce,
                     collapse_edge, least_rotation_by_brute_force,
                     naive_census, one_face_census_bruteforce, relabel,
                     rooted_key, rooted_one_face_count_reference,
                     rooted_tree_by_cycles,
                     tree_classes_reference, tree_word,
                     triangulation_count, trivalent_pairings_reference,
                     vertex_index, walsh_lehman)


class TestCatalan:
    def test_known_values(self):
        assert catalan(4) == 14
        assert catalan(0) == 1
        assert catalan(3) == 5

    def test_against_rooted_tree_generation(self):
        for m in range(9):
            assert catalan(m) == len(rooted_trees(m + 2))

    def test_against_triangulation_recursion(self):
        for k in range(3, 12):
            assert catalan(k - 2) == triangulation_count(k)

    def test_generalized_values(self):
        assert catalan5(6) == 6
        assert catalan5(5) == 1
        assert catalan5(7) == 28

    def test_generalized_against_generation(self):
        for k in range(5, 11):
            assert catalan5(k) == len(rooted_trees(k, ONE5))
        # every profile, including the empty one5 censuses below 5 leaves
        for profile in (TREE_TRIVALENT, ONE5, MARKED):
            for leaves in range(2, 11):
                assert len(rooted_trees(leaves, profile)) == \
                    tree_closed_count(leaves, profile, "rooted")

    def test_unknown_rooting_is_refused(self):
        # the closed count refuses the rooting that the census refuses
        with pytest.raises(ValueError, match="rooting must be"):
            enumerate_trees(5, TREE_TRIVALENT, "bogus")
        with pytest.raises(ValueError, match="rooting must be"):
            tree_closed_count(5, TREE_TRIVALENT, "bogus")


class TestFatgraphCensus:
    def test_torus_trivalent(self):
        census = enumerate_fatgraphs(1)
        assert len(census) == 1
        assert census.entries[0].aut_order == 6
        assert census.orbifold_sum() == Fraction(1, 6)

    def test_torus_all_valences(self, ws):
        census = ws.all_valence_census(1)
        assert len(census) == 2
        facts = sorted((e.graph.num_edges, e.aut_order) for e in census)
        assert facts == [(2, 4), (3, 6)]
        # the 4-valent entry is the collapse of the trivalent one
        by_edges = {e.graph.num_edges: e.graph for e in census}
        vertex = vertex_index(by_edges[3])
        collapsed = collapse_edge(by_edges[3], next(
            i for i, (p, q) in enumerate(by_edges[3].edges)
            if vertex[p] != vertex[q]))
        assert collapsed.canonical_key() == by_edges[2].canonical_key()

    def test_genus_two_weighted_count(self):
        census = enumerate_fatgraphs(2)
        assert census.orbifold_sum() == Fraction(35, 6)

    def test_word_aut_orders_match_group_search(self):
        for entry in enumerate_fatgraphs(2):
            assert entry.aut_order == \
                automorphism_order_bruteforce(entry.graph)

    def test_single_k_filter(self, ws):
        census = ws.fatgraph_census(2, ("single", 5))
        assert len(census) > 0
        for e in census:
            assert sorted(e.graph.valences) == [3, 3, 3, 5]

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            enumerate_fatgraphs(4)
        with pytest.raises(ResourceLimit):
            Workspace().all_valence_census(3)
        # every census is collapsed from the trivalent one, so the cap
        # reads 6g - 3 edges for a single-k census too
        with pytest.raises(ResourceLimit):
            Workspace().fatgraph_census(4, ("single", 16))

    @pytest.mark.parametrize("g,valence_filter", [
        (1, TRIVALENT), (1, ALL), (2, ALL), (3, TRIVALENT), (3, ALL),
        *((3, ("single", k)) for k in range(4, 13)), (4, TRIVALENT)])
    def test_class_cap_admits(self, g, valence_filter):
        # every census of genus <= 3 and the trivalent one of genus 4
        enumeration.check_edge_cap(g, valence_filter, 6 * g - 3)

    @pytest.mark.parametrize("g,valence_filter,refused,bound", [
        (4, ALL, ALL, 2395931692),
        (4, ("single", 4), ("single", 4), 14145382),
        # a single-k census is collapsed through each level below it
        (4, ("single", 16), ("single", 4), 14145382),
        (5, TRIVALENT, TRIVALENT, 2168958459),
        (5, ("single", 12), TRIVALENT, 2168958459)],
        ids=["all-g4", "single4-g4", "single16-g4", "trivalent-g5",
             "single12-g5"])
    def test_class_cap_refuses(self, g, valence_filter, refused, bound):
        message = "census %r holds at least %d classes, cap is %d" % (
            enumeration.fatgraph_descriptor(g, refused), bound,
            enumeration.MAX_CENSUS_CLASSES)
        with pytest.raises(ResourceLimit) as info:
            enumeration.check_edge_cap(g, valence_filter, 6 * g - 3)
        assert str(info.value) == message
        assert bound > enumeration.MAX_CENSUS_CLASSES
        # the bound is the ceiling of the closed count
        assert bound == -(-fatgraph_closed_count(g, refused) // 1)

    def test_class_cap_prints_a_bound_of_any_size(self, monkeypatch):
        # a bound past the interpreter's int-to-str digit limit (4300 by
        # default) still prints whole in the error
        monkeypatch.setattr(enumeration, "fatgraph_closed_count",
                            lambda g, valence_filter: Fraction(10 ** 5000))
        with pytest.raises(ResourceLimit,
                           match="at least 1%s classes" % ("0" * 5000)):
            enumeration.check_edge_cap(2, TRIVALENT)

    def test_genus_three_single_k(self, ws):
        # 71575 rooted one-face maps with one 8-valent and four trivalent
        # vertices, by the Frobenius character count of that degree profile
        census = ws.fatgraph_census(3, ("single", 8))
        assert len(census) == 3606
        assert census.orbifold_sum(
            weight=lambda e: 2 * e.graph.num_edges) == 71575

    def test_workspace_collapses_its_own_trivalent_census(self,
                                                          monkeypatch):
        # once the workspace holds the trivalent census, the all-valence
        # census is derived from it with no search
        want = [(e.key, e.aut_order)
                for e in Workspace().all_valence_census(2)]
        ws = Workspace()
        ws.trivalent_census(2)

        def refuse(num_edges):
            raise AssertionError("searched %d edges again" % num_edges)
        monkeypatch.setattr(enumeration, "_trivalent_pairings", refuse)
        assert [(e.key, e.aut_order)
                for e in ws.all_valence_census(2)] == want

    def test_search_builds_only_the_trivalent_census(self, tmp_path):
        # the search takes no filter; at the door ("single", 3) is the
        # trivalent census itself, under one descriptor and in one file
        assert list(inspect.signature(enumerate_fatgraphs).parameters) == \
            ["g", "cap_edges"]
        ws = Workspace(cache_dir=tmp_path)
        census = ws.fatgraph_census(2, ("single", 3))
        assert census is ws.trivalent_census(2)
        assert census.descriptor == "fatgraphs g=2 n=1 filter=trivalent"
        assert [p.name for p in tmp_path.iterdir()] == \
            [cache_path(tmp_path, census.descriptor).name]

    @pytest.mark.parametrize("g,valence_filter", [
        (2, ("single", 2)), (2, ("single", 9)), (2, "bogus"),
        (2, ("single", "5")), (2, ["single", 5]), (2, ("single",)),
        (2, None), (0, TRIVALENT), (0, ALL)],
        ids=["single2", "single9", "bogus", "single-str", "list", "no-k",
             "none", "trivalent-g0", "all-g0"])
    def test_door_refuses_bad_filters(self, tmp_path, g, valence_filter):
        # refused before any file is read, searched or written
        with pytest.raises(WrongType):
            Workspace(cache_dir=tmp_path).fatgraph_census(g, valence_filter)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("g", [0, -1])
    def test_search_refuses_genus_below_one(self, g):
        # the search checks g itself, as the door does, and calls no
        # filter check of the door's
        with pytest.raises(WrongType, match=r"g >= 1, got \(%d,1\)" % g):
            enumerate_fatgraphs(g)

    def test_deterministic_order(self):
        a = enumerate_fatgraphs(2)
        b = enumerate_fatgraphs(2)
        assert [e.key for e in a] == [e.key for e in b]

    @pytest.mark.parametrize("fault,error", [
        ("rotated", MalformedGraph), ("repeated", AssertionError),
        ("out-of-order", AssertionError)])
    def test_faulty_search_is_refused(self, monkeypatch, tmp_path, fault,
                                      error):
        # each searched word is checked once: word_entry refuses one that
        # is not its own least rotation, and the census loop a repeat or a
        # word out of key order, before the door writes anything
        words = list(_trivalent_pairings(9))
        first, second = words[0], words[1]
        faulty = {"rotated": [first[1:] + first[:1]] + words[1:],
                  "repeated": words[:2] + words[1:],
                  "out-of-order": [second, first] + words[2:]}[fault]
        monkeypatch.setattr(enumeration, "_trivalent_pairings",
                            lambda num_edges: faulty)
        with pytest.raises(error):
            enumerate_fatgraphs(2)
        with pytest.raises(error):
            Workspace(cache_dir=tmp_path).fatgraph_census(2, TRIVALENT)
        assert not list(tmp_path.iterdir())


def gap_word(alpha) -> tuple:
    """The gap word ``(alpha(p) - p mod 2E)_p`` of the pairing alpha."""
    m = len(alpha)
    return tuple((alpha[p] - p) % m for p in range(m))


def search_nodes(pairings, num_edges) -> int:
    """Nodes a pairing search visits, its output run to the end: the
    distinct frames of its nested ``search``.  A generator's frame fires a
    call event again at each resume, so frames are counted, not events;
    the set holds them, so no two share an identity."""
    frames = set()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "search":
            frames.add(frame)
    sys.setprofile(count)
    try:
        for _ in pairings(num_edges):
            pass
    finally:
        sys.setprofile(None)
    return len(frames)


class TestTrivalentSearch:
    """The orderly pairing search that every graph census starts from."""

    def test_visits_no_more_nodes_than_reference(self):
        # forced closure and the rotation cut only prune, so without them
        # the output stays right and the search grows: at E = 9 the
        # reference visits 73 nodes, and the search without forced
        # closure 958
        assert search_nodes(_trivalent_pairings, 9) <= \
            search_nodes(trivalent_pairings_reference, 9)

    @pytest.mark.parametrize("num_edges,nodes", [(9, 73), (15, 17268)])
    def test_node_counts_are_pinned(self, num_edges, nodes):
        # exact counts, so a search that prunes less, or one whose frames
        # are no longer named ``search`` and so count 0, fails
        assert search_nodes(_trivalent_pairings, num_edges) == nodes

    def test_search_yields_its_words(self, ws):
        # a generator: nothing is searched until the census asks, and the
        # first word is the first key of the census
        assert inspect.isgeneratorfunction(_trivalent_pairings)
        assert next(_trivalent_pairings(15)) == \
            ws.trivalent_census(3).entries[0].key

    @pytest.mark.parametrize("num_edges", [3, 9, 15])
    def test_matches_reference_search(self, num_edges):
        # the reference walks paths link by link, undoes each try from a
        # trail and compares every rotation: same pairings, as gap words,
        # in the same order
        assert list(_trivalent_pairings(num_edges)) == \
            [gap_word(alpha)
             for alpha in trivalent_pairings_reference(num_edges)]

    @pytest.mark.parametrize("num_edges", [3, 9, 15])
    def test_pairings_are_canonical_and_trivalent(self, num_edges):
        m = 2 * num_edges
        words = list(_trivalent_pairings(num_edges))
        assert words == sorted(words)
        rooted = 0
        for word in words:
            alpha = [(p + w) % m for p, w in enumerate(word)]
            # a fixed-point-free involution ...
            assert all(alpha[p] != p and alpha[alpha[p]] == p
                       for p in range(m))
            # ... whose vertex permutation alpha + 1 has only 3-cycles:
            # no fixed point, and its cube is the identity
            sigma = [(q + 1) % m for q in alpha]
            assert all(sigma[p] != p and sigma[sigma[sigma[p]]] == p
                       for p in range(m))
            # ... and whose gap word is its own least rotation
            gaps = gap_word(alpha)
            assert gaps == word
            rotations = [gaps[r:] + gaps[:r] for r in range(m)]
            assert gaps == min(rotations)
            rooted += m // rotations.count(gaps)
        # one pairing per class: each class is rooted at its distinct
        # rotations, and the rooted maps are the Walsh-Lehman count
        assert rooted == walsh_lehman((num_edges + 3) // 6)


class TestCensusCompleteness:
    """The naive oracle enumerates all gluings of labeled stars and
    deduplicates by explicit isomorphism search."""

    @pytest.mark.parametrize("g,n", [(1, 1), (2, 1)])
    def test_small_all_valence_censuses(self, g, n):
        reps, oracle_orders = naive_census(g, n, max_edges=5)
        census = Workspace(cap_edges=max(5, 3 * (2 * g - 2 + n))
                           ).all_valence_census(g)
        mine = [e for e in census if e.graph.num_edges <= 5]
        assert len(mine) == len(reps)
        assert sorted(e.aut_order for e in mine) == oracle_orders

    @pytest.mark.parametrize("g,rooted", [(1, 1), (2, 105), (3, 50050)])
    def test_trivalent_rooted_count(self, g, rooted, ws):
        # each class with E edges and automorphism group Aut gives 2E/|Aut|
        # rooted maps; no closed route reads a census, so this pins the
        # census itself
        census = ws.trivalent_census(g)
        assert walsh_lehman(g) == rooted
        assert census.orbifold_sum(
            weight=lambda e: 2 * e.graph.num_edges) == rooted

    @pytest.mark.parametrize("g,valence_filter,num_edges,classes", [
        (1, TRIVALENT, 3, 1), (1, ALL, 2, 1), (1, ALL, 3, 1),
        (2, ALL, 4, 4), (2, ALL, 5, 21), (2, ALL, 6, 45), (2, ALL, 7, 52),
        (2, ("single", 5), 7, 19), (2, ("single", 6), 6, 15),
        (2, ("single", 7), 5, 7), (2, ("single", 8), 4, 4)], ids=[
        "trivalent-g1-E3", "all-g1-E2", "all-g1-E3", "all-g2-E4",
        "all-g2-E5", "all-g2-E6", "all-g2-E7", "single5-g2-E7",
        "single6-g2-E6", "single7-g2-E5", "single8-g2-E4"])
    def test_orderly_census_matches_bruteforce(self, g, valence_filter,
                                               num_edges, classes, ws):
        # the search emits one pairing per class; the brute force lists every
        # pairing, so it meets each class once per distinct rotation, that is
        # 2E/|Aut| times
        vertices = num_edges + 1 - 2 * g
        if valence_filter == ALL:
            def cycle_ok(lengths):
                return len(lengths) == vertices and lengths[0] >= 3
        else:
            k = 3 if valence_filter == TRIVALENT else valence_filter[1]
            want = sorted([3] * (vertices - 1) + [k])

            def cycle_ok(lengths):
                return lengths == want
        counts = one_face_census_bruteforce(num_edges, cycle_ok)
        census = {e.key: e.aut_order
                  for e in ws.fatgraph_census(g, valence_filter)
                  if e.graph.num_edges == num_edges}
        assert len(counts) == classes
        assert set(counts) == set(census)
        for key, count in counts.items():
            assert count * census[key] == 2 * num_edges

    def test_gluing_census_matches_word_census(self, ws):
        # same machinery cross-check on (1,1): words vs naive oracle
        reps, orders = naive_census(1, 1, max_edges=3)
        census = ws.all_valence_census(1)
        assert sorted(e.aut_order for e in census) == orders


class TestClosedCounts:
    """Rooted one-face-map counts per vertex profile, from the hook
    characters, against the brute force, Walsh-Lehman and the censuses."""

    @pytest.mark.parametrize("num_edges", range(1, 7))
    def test_every_profile_matches_bruteforce(self, num_edges):
        # every pairing of Z_{2E} is one rooted map, so the pairings whose
        # vertex permutation has cycle type profile number N(profile);
        # profiles with parts below 3 or no one-face map included
        m = 2 * num_edges
        rooted = {}

        def tally(lengths):
            rooted[tuple(lengths)] = rooted.get(tuple(lengths), 0) + 1
            return False
        one_face_census_bruteforce(num_edges, tally)
        profiles = [p for v in range(1, m + 1) for p in _partitions(m, v, 1)]
        assert set(rooted) <= set(profiles)
        for profile in profiles:
            assert rooted_one_face_count(profile) == rooted.get(profile, 0), \
                profile

    @pytest.mark.parametrize("g", range(1, 9))
    def test_trivalent_profile_is_walsh_lehman(self, g):
        [profile] = fatgraph_profiles(g, TRIVALENT)
        assert rooted_one_face_count(profile) == walsh_lehman(g)
        assert fatgraph_closed_count(g, TRIVALENT) == \
            Fraction(walsh_lehman(g), 2 * (6 * g - 3))

    @pytest.mark.parametrize("g,valence_filter", [
        (1, ALL), (2, ALL), (2, ("single", 5)), (2, ("single", 6)),
        (2, ("single", 7)), (2, ("single", 8))],
        ids=["all-g1", "all-g2", "single5-g2", "single6-g2", "single7-g2",
             "single8-g2"])
    def test_each_profile_meets_its_census(self, g, valence_filter, ws):
        # sum 2E/|Aut| over the classes of each profile, the valences read
        # off the graph
        census = ws.fatgraph_census(g, valence_filter)
        sums = {}
        for e in census:
            profile = tuple(sorted(e.graph.valences))
            sums[profile] = sums.get(profile, 0) + Fraction(
                2 * e.graph.num_edges, e.aut_order)
        profiles = fatgraph_profiles(g, valence_filter)
        assert set(sums) == set(profiles)
        for profile in profiles:
            assert sums[profile] == rooted_one_face_count(profile), profile
        assert fatgraph_closed_count(g, valence_filter) == \
            census.orbifold_sum()

    @pytest.mark.parametrize("g,valence_filter", [
        (g, f) for g in range(1, 5) for f in
        [TRIVALENT, ALL] + [("single", k) for k in range(4, 4 * g + 1)]])
    def test_matches_the_term_by_term_sum(self, g, valence_filter):
        # the binomial expansion and the integer sum against one factor
        # per part and a Fraction per term
        for profile in fatgraph_profiles(g, valence_filter):
            assert enumeration._hook_characters(profile) == \
                _hook_characters_reference(profile), profile
            assert rooted_one_face_count(profile) == \
                rooted_one_face_count_reference(profile), profile

    @pytest.mark.parametrize("g,profiles", [(1, 2), (2, 11), (3, 42)])
    def test_every_all_valence_profile_has_maps(self, g, profiles):
        counts = [rooted_one_face_count(p) for p in fatgraph_profiles(g, ALL)]
        assert len(counts) == profiles and min(counts) > 0


class TestTreeCensus:
    @pytest.mark.parametrize("profile", [TREE_TRIVALENT, ONE5, MARKED,
                                         "odd-valence"])
    def test_contour_word_matches_cycle_build(self, profile):
        # the contour word and the reference's vertex cycles give the same
        # rooted tree for every shape
        if profile == "odd-valence":
            shapes = [s for s in odd_valence_shapes(9) if s != LEAF]
        else:
            shapes = [s for leaves in range(2, 11)
                      for s in _shapes(leaves - 1, profile)]
        assert shapes
        for shape in shapes:
            assert rooted_key(build_rooted_tree(shape)) == \
                rooted_key(rooted_tree_by_cycles(shape))

    @pytest.mark.parametrize("profile", [TREE_TRIVALENT, ONE5, MARKED,
                                         "odd-valence"])
    def test_word_classes_match_tree_classes(self, profile):
        # classes found among contour words are the classes of the built
        # rooted trees: the same keys, |Aut|, order and representatives
        if profile == "odd-valence":
            pairs = [(odd_valence_trees(11), tree_classes_reference(
                build_rooted_tree(s) for s in odd_valence_shapes(11)
                if s != LEAF))]
        else:
            pairs = [(unrooted_trees(leaves, profile), tree_classes_reference(
                rooted_trees(leaves, profile))) for leaves in range(2, 11)]
        for got, want in pairs:
            assert [(t.canonical_key(), t.aut_order()) for t in got] == \
                [(t.canonical_key(), t.aut_order()) for t in want]
            assert got == want

    def test_one_tree_built_per_class(self, monkeypatch):
        # the 429 rooted trees with 9 leaves fall into 49 classes, and only
        # the representatives are built
        built = []
        init = PlanarTree.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)
        monkeypatch.setattr(PlanarTree, "__init__", counted)
        assert len(unrooted_trees(9)) == 49
        assert len(built) == 49

    def test_rooted_counts(self):
        assert len(enumerate_trees(5, "trivalent", "rooted")) == 5
        assert len(enumerate_trees(3, "trivalent", "unrooted")) == 1

    def test_rooted_unrooted_consistency(self):
        for leaves, profile in [(5, "trivalent"), (7, "trivalent"),
                                (6, MARKED), (7, ONE5)]:
            unrooted = enumerate_trees(leaves, profile, "unrooted")
            rooted = enumerate_trees(leaves, profile, "rooted")
            total = unrooted.orbifold_sum(weight=lambda e: leaves)
            assert total == len(rooted)

    def test_doubling_consistency(self):
        from fatmod.hyperelliptic import double_tree
        for g in (2, 3, 4):
            total = Fraction(0)
            for tree in unrooted_trees(2 * g + 1):
                cell = double_tree(tree_word(tree))
                total += Fraction(1, cell.doubled.aut_order())
            assert total == Fraction(catalan(2 * g - 1), 2 * (2 * g + 1))

    def test_five_star_double_weighted_count(self):
        from fatmod.hyperelliptic import double_tree
        census = enumerate_trees(5, ONE5, "unrooted")
        total = Fraction(0)
        for e in census:
            total += Fraction(1, double_tree(e.key).doubled.aut_order())
        assert total == Fraction(1, 10) == Fraction(catalan5(5), 2 * 5)


class TestOrbifoldSum:
    def test_weight_one(self):
        census = enumerate_fatgraphs(1)
        assert census.orbifold_sum() == Fraction(1, 6)

    def test_empty_census(self):
        assert OrbifoldCensus("empty", ()).orbifold_sum() == 0

    def test_weighted(self):
        census = enumerate_fatgraphs(2)
        assert census.orbifold_sum(weight=lambda e: 6) == 35


def census_and_count(ws, kind, p, which):
    """A census the tests build and its closed orbifold count."""
    if kind == "fatgraph":
        return ws.fatgraph_census(p, which), fatgraph_closed_count(p, which)
    if kind == "trees":
        return (enumerate_trees(p, *which),
                tree_closed_count(p, *which))
    if kind == "hyperelliptic":
        return (ws.hyperelliptic_census(p),
                Fraction(catalan(2 * p - 1), 2 * (2 * p + 1)))
    comps = ws.w1_components(p)
    return ((comps.component1, count_t1(p)) if which == 1
            else (comps.component2, count_t2(p)))


@pytest.mark.parametrize(
    "kind,p,which",
    [("fatgraph", g, TRIVALENT) for g in (1, 2, 3)]
    + [("fatgraph", g, ALL) for g in (1, 2)]
    + [("trees", n, (profile, rooting)) for n in range(2, 10)
       for profile in (TREE_TRIVALENT, ONE5, MARKED)
       for rooting in ("unrooted", "rooted")]
    + [("hyperelliptic", g, None) for g in (1, 2, 3)]
    + [("w1", g, component) for g in (2, 3) for component in (1, 2)],
    ids=lambda x: "-".join(x) if isinstance(x, tuple) else str(x))
def test_orbifold_count_is_the_unit_weight_sum(ws, kind, p, which):
    # with no weight the sum counts classes: it must agree with an
    # explicit unit weight and with the closed count
    census, closed = census_and_count(ws, kind, p, which)
    count = census.orbifold_sum()
    assert isinstance(count, Fraction)
    assert count == census.orbifold_sum(lambda e: 1) == closed


class TestEulerCharacteristic:
    def test_cache_round_trip_determinism(self, tmp_path):
        ws1 = Workspace(cache_dir=tmp_path)
        first = ws1.all_valence_census(1)
        ws2 = Workspace(cache_dir=tmp_path)  # reads the file written above
        second = ws2.all_valence_census(1)
        assert [(e.key, e.aut_order, e.graph) for e in first] == \
            [(e.key, e.aut_order, e.graph) for e in second]
        total1 = first.orbifold_sum(
            weight=lambda e: (-1) ** (e.graph.num_edges - 1))
        total2 = second.orbifold_sum(
            weight=lambda e: (-1) ** (e.graph.num_edges - 1))
        assert total1 == total2 == Fraction(-1, 12)


@pytest.mark.parametrize("census_of,same_graphs", [
    (lambda ws: ws.trivalent_census(2), True),
    (lambda ws: ws.all_valence_census(2), True),
    (lambda ws: ws.tree_census(7, "trivalent"), False),
    (lambda ws: ws.tree_census(7, ONE5), False),
    (lambda ws: ws.tree_census(6, MARKED), False),
    (lambda ws: ws.hyperelliptic_census(3), False),
    (lambda ws: ws.w1_components(3).component1, False),
    (lambda ws: ws.w1_components(3).component2, False),
], ids=["trivalent-g2", "all-g2", "trees-trivalent", "trees-one5",
        "trees-marked", "cells-g3", "w1-component1-g3", "w1-component2-g3"])
def test_cache_load_matches_build(tmp_path, census_of, same_graphs):
    # a graph rebuilt from its stored word is the census graph itself; a
    # tree or a cell comes back relabeled, in the same class
    built = census_of(Workspace(cache_dir=tmp_path))
    loaded = census_of(Workspace(cache_dir=tmp_path))
    assert len(built) > 1
    assert [(e.key, e.aut_order) for e in loaded] == \
        [(e.key, e.aut_order) for e in built]
    if same_graphs:
        assert [e.graph for e in loaded] == [e.graph for e in built]


def test_least_rotation_matches_naive():
    import random
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(1, 12)
        s = tuple(rng.randint(0, 4) for _ in range(n))
        assert least_rotation(s) == least_rotation_by_brute_force(s)


def test_word_keys_agree_with_canonical_keys():
    # two graphs share a word key iff an explicit isomorphism search joins
    # them: census classes pairwise, and each class against a relabeling
    import random
    rng = random.Random(7)
    census = enumerate_fatgraphs(2)
    graphs = []
    for e in census:
        perm = list(range(e.graph.num_half_edges))
        rng.shuffle(perm)
        graphs += [e.graph, relabel(e.graph, perm)]
    for G in graphs:
        for H in graphs:
            assert (G.canonical_key() == H.canonical_key()) == \
                are_isomorphic(G, H)


def test_census_graphs_all_valid(ws):
    for g in (1, 2):
        for entry in ws.all_valence_census(g):
            entry.graph._check()
            assert entry.graph.graph_type() == (g, 1)
            assert all(v >= 3 for v in entry.graph.valences)


CENSUS_GRAPHS = [pytest.param(entry.graph, id="all-g%d-%d" % (g, i))
                 for g in (1, 2)
                 for i, entry in enumerate(Workspace().all_valence_census(g))]


@pytest.mark.parametrize("graph", CENSUS_GRAPHS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_word_collapse_matches_graph_collapse(graph, data):
    # deleting an edge's two slots from a boundary word read from any
    # half-edge gives the class of the collapse on vertex cycles
    graph = relabel(graph,
                    data.draw(st.permutations(range(graph.num_half_edges))))
    boundary, word = graph.boundary_word()
    slot = {h: i for i, h in enumerate(boundary)}
    vertex = vertex_index(graph)
    for e, (p, q) in enumerate(graph.edges):
        if vertex[p] == vertex[q]:
            continue  # a loop
        collapsed = collapse_edge(graph, e).canonical_key()
        assert collapse_word(word, slot[p]) == \
            collapse_word(word, slot[q]) == collapsed
