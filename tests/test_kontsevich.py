import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from fatmod import kontsevich
from fatmod.enumeration import enumerate_fatgraphs
from fatmod.errors import WrongBoundaryCount
from fatmod.fatgraph import Fatgraph
from fatmod.hyperelliptic import double_tree
from fatmod.kontsevich import (cell_volume, hyperelliptic_cell_volume,
                               omega_matrix, pfaffian)
from fatmod.trees import (LEAF, ONE5, MARKED, build_rooted_tree,
                          odd_valence_trees, unrooted_trees)

from oracles import (det_by_elimination, monte_carlo_cell_volume,
                     pfaffian_by_matchings)


def torus_graph():
    return Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                [(0, 3), (1, 4), (2, 5)])


class TestOmegaMatrix:
    def test_torus_two_by_two(self):
        form = omega_matrix(torus_graph())
        assert form.dim == 2
        assert abs(form.matrix[0][1]) == 2

    def test_three_star_pfaffian_four(self):
        star = build_rooted_tree((LEAF, LEAF)).unrooted()
        assert abs(pfaffian(omega_matrix(star))) == 4

    def test_edge_permutation_invariance(self):
        G = torus_graph()
        base = abs(pfaffian(omega_matrix(G)))
        m = G.num_half_edges
        rng = random.Random(5)
        for _ in range(10):
            perm = list(range(m))
            rng.shuffle(perm)
            H = G.relabeled(perm)
            assert abs(pfaffian(omega_matrix(H))) == base

    def test_rejects_multiple_boundaries(self):
        theta = Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                     [(0, 3), (1, 5), (2, 4)])
        with pytest.raises(WrongBoundaryCount):
            omega_matrix(theta)

    def test_rejects_even_edge_count(self):
        four = Fatgraph.from_cycles([(0, 1, 2, 3)], [(0, 2), (1, 3)])
        with pytest.raises(ValueError):
            omega_matrix(four)


class TestPfaffian:
    def test_two_by_two(self):
        assert pfaffian(((0, 2), (-2, 0))) == 2

    def test_block_diagonal_multiplicativity(self):
        a, b = 3, Fraction(5, 2)
        m = ((0, a, 0, 0), (-a, 0, 0, 0), (0, 0, 0, b), (0, 0, -b, 0))
        assert pfaffian(m) == a * b

    def test_matches_matching_sum_oracle(self):
        rng = random.Random(11)
        for n in (2, 4, 6):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    m[i][j] = rng.randint(-4, 4)
                    m[j][i] = -m[i][j]
            assert pfaffian(m) == pfaffian_by_matchings(m)

    def test_census_forms_match_matching_sum(self):
        for entry in enumerate_fatgraphs(1, 1):
            form = omega_matrix(entry.graph)
            assert pfaffian(form) == pfaffian_by_matchings(form.matrix)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            pfaffian(((0, 1), (1, 0)))

    @pytest.mark.parametrize("graph", [
        lambda ws: build_rooted_tree((LEAF, LEAF)).unrooted(),
        lambda ws: next(iter(ws.trivalent_census(2))).graph,
    ], ids=["three-star", "genus-two-trivalent"])
    def test_determinant_check_fires(self, monkeypatch, ws, graph):
        # an expansion that is off by one must fail the Pf^2 = det check
        form = omega_matrix(graph(ws))
        expand = kontsevich._pfaffian_int
        monkeypatch.setattr(kontsevich, "_pfaffian_int",
                            lambda m: expand(m) + 1)
        with pytest.raises(AssertionError):
            pfaffian(form)


@st.composite
def square_matrices(draw):
    """Integer matrices with a zero leading block (forcing row swaps) and a
    row copied, negated or zeroed (singular) each drawn half the time."""
    n = draw(st.integers(0, 8))
    m = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
         for _ in range(n)]
    if n and draw(st.booleans()):
        zeros = draw(st.integers(1, n))
        for i in range(zeros):
            m[i][:zeros] = [0] * zeros
    if n and draw(st.booleans()):
        source = draw(st.integers(0, n - 1))
        target = draw(st.integers(0, n - 1))
        c = 0 if source == target else draw(st.sampled_from((-1, 0, 1)))
        m[target] = [c * x for x in m[source]]
    return m


@st.composite
def skew_matrices(draw):
    """Antisymmetric matrices with int or half-integer Fraction entries."""
    n = draw(st.sampled_from((0, 2, 4, 6, 8)))
    half = draw(st.booleans())
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = draw(st.integers(-8, 8))
            m[i][j] = Fraction(x, 2) if half else x
            m[j][i] = -m[i][j]
    return m


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_integer_determinant_matches_fraction_elimination(m):
    assert kontsevich._det_fraction(m) == det_by_elimination(m)


@settings(max_examples=200, deadline=None)
@given(skew_matrices())
def test_pfaffian_matches_matching_sum(m):
    assert pfaffian(m) == pfaffian_by_matchings(m)


class TestPfaffianLaw:
    @pytest.mark.parametrize("g", [1, 2])
    def test_trivalent_census(self, g, ws):
        want = Fraction(4 ** (3 * g - 2), 2 ** g)
        for entry in ws.trivalent_census(g):
            assert abs(pfaffian(omega_matrix(entry.graph))) == want

    def test_odd_valence_trees(self):
        for tree in odd_valence_trees(9):
            m = tree.num_edges // 2
            assert abs(pfaffian(omega_matrix(tree))) == 4 ** m

    def test_elimination_invariance_samples(self, ws):
        graphs = [e.graph for e in ws.trivalent_census(2)][:4]
        graphs += unrooted_trees(7)[:2]
        for G in graphs:
            values = {abs(pfaffian(omega_matrix(G, eliminate=k)))
                      for k in range(G.num_edges)}
            assert len(values) == 1


class TestCellVolume:
    def test_odd_tree_volume_formula(self):
        for tree in odd_valence_trees(7):
            d = tree.num_edges // 2
            assert cell_volume(tree).value == \
                Fraction(factorial(d), factorial(2 * d))

    def test_torus_volume_and_psi(self):
        v = cell_volume(torus_graph())
        assert v.value == Fraction(1, 4)
        assert Fraction(1, 6) * v.value == Fraction(1, 24)

    def test_monte_carlo_cross_check(self):
        tree = unrooted_trees(4)[0]  # five edges, half-dimension two
        exact = cell_volume(tree)
        assert exact.half_dim == 2
        estimate = monte_carlo_cell_volume(abs(exact.pf), exact.half_dim,
                                           samples=1_600_000)
        assert abs(estimate - float(exact.value)) <= 0.01 * float(exact.value)


class TestHyperellipticCellVolume:
    def test_genus_one(self):
        cell = double_tree(unrooted_trees(3)[0])
        assert hyperelliptic_cell_volume(cell).value == Fraction(1, 4)

    def test_genus_two(self):
        cell = double_tree(unrooted_trees(5)[0])
        assert hyperelliptic_cell_volume(cell).value == Fraction(1, 960)

    def test_closed_form_all_profiles(self):
        cases = [(5, "trivalent"), (7, "trivalent"), (5, ONE5), (7, ONE5),
                 (4, MARKED), (6, MARKED)]
        for leaves, profile in cases:
            for tree in unrooted_trees(leaves, profile):
                cell = double_tree(tree)
                d = tree.num_edges // 2
                assert hyperelliptic_cell_volume(cell).value == \
                    Fraction(factorial(d), 2 ** d * factorial(2 * d))

    def test_pullback_scaling(self):
        cell = double_tree(unrooted_trees(5)[0])
        d = cell.tree.num_edges // 2
        pulled = hyperelliptic_cell_volume(cell).pf
        tree_pf = pfaffian(omega_matrix(cell.tree))
        assert abs(pulled) * 2 ** d == abs(tree_pf)

    def test_nondegenerate(self):
        for leaves in (3, 5, 7):
            for tree in unrooted_trees(leaves):
                assert hyperelliptic_cell_volume(double_tree(tree)).pf != 0
