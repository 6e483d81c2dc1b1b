import random
import signal
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from fatmod import kontsevich
from fatmod.enumeration import enumerate_fatgraphs, enumerate_trees
from fatmod.errors import MalformedGraph, WrongBoundaryCount
from fatmod.fatgraph import DELTA, Fatgraph
from fatmod.hyperelliptic import double_tree
from fatmod.kontsevich import (cell_volume, hyperelliptic_cell_volume,
                               omega_matrix, pfaffian, word_cell_volume,
                               word_pfaffian)
from fatmod.trees import (LEAF, ONE5, MARKED, PlanarTree, build_rooted_tree,
                          odd_valence_trees, unrooted_trees)

from oracles import (det_by_elimination, double_by_cycles, eliminated_form,
                     monte_carlo_cell_volume, pfaffian_by_matchings,
                     pullback_form_by_boundary_cycles,
                     raw_coefficients_by_slot_pairs, relabel, tree_word)


def torus_graph():
    return Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
                                [(0, 3), (1, 4), (2, 5)])


class TestOmegaMatrix:
    def test_torus_two_by_two(self):
        matrix = omega_matrix(torus_graph())
        assert len(matrix) == 2
        assert abs(matrix[0][1]) == 2

    def test_three_star_pfaffian_four(self):
        star = build_rooted_tree((LEAF, LEAF))
        assert abs(pfaffian(omega_matrix(star))) == 4

    def test_edge_permutation_invariance(self):
        G = torus_graph()
        base = abs(pfaffian(omega_matrix(G)))
        m = G.num_half_edges
        rng = random.Random(5)
        for _ in range(10):
            perm = list(range(m))
            rng.shuffle(perm)
            H = relabel(G, perm)
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
        for entry in enumerate_fatgraphs(1):
            matrix = omega_matrix(entry.graph)
            assert pfaffian(matrix) == pfaffian_by_matchings(matrix)

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            pfaffian(((0, 1), (1, 0)))

    @pytest.mark.parametrize("matrix", [[[0, 0.5], [0.5, 0]],
                                        [[0.5, 0], [0, 0]],
                                        [[0, Fraction(1, 2)], [0.5, 0]]],
                             ids=["float", "float-diagonal", "mixed"])
    def test_antisymmetry_checked_before_entry_type(self, matrix):
        # a non-antisymmetric matrix is refused as such whatever its
        # entries; an antisymmetric inexact one raises TypeError
        # (test_rejects_inexact_entries)
        with pytest.raises(ValueError, match="not antisymmetric"):
            pfaffian(matrix)

    @pytest.mark.parametrize("matrix", [((0, 1, 7), (-1, 0)),
                                        ((0, 2, 9), (-2, 0, 9)),
                                        ((0, 1), (-1, 0), (0, 0))])
    def test_rejects_non_square(self, matrix):
        # a malformed argument is the caller's error, not a failed
        # Pf^2 = det check
        with pytest.raises(ValueError):
            pfaffian(matrix)

    @pytest.mark.parametrize("matrix", [[[0, 0.5], [-0.5, 0]],
                                        [[0, 2.0], [-2, 0]],
                                        [[0, Fraction(1, 2)], [-0.5, 0]]],
                             ids=["float", "whole-float", "mixed"])
    def test_rejects_inexact_entries(self, matrix):
        # only int and Fraction entries have an exact Pfaffian
        with pytest.raises(TypeError, match="int or Fraction"):
            pfaffian(matrix)

    @pytest.mark.parametrize("rows", [list, tuple])
    @pytest.mark.parametrize("scale", [1, Fraction(1, 3)],
                             ids=["int", "fraction"])
    def test_leaves_its_argument_unchanged(self, rows, scale):
        # the kernel works on its rows in place, so pfaffian hands it rows
        # of its own; a swap_forms matrix makes the kernel swap indices and
        # rewrite every block
        m, want = swap_forms(1)

        def matrix():
            return rows(rows(scale * x for x in row) for row in m)

        given = matrix()
        assert pfaffian(given) == want * scale ** (len(m) // 2)
        assert given == matrix()

    def test_mixed_int_and_fraction_entries(self):
        assert pfaffian([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]) == \
            pfaffian([[0, 1], [-1, 0]]) / 2

    @staticmethod
    def check_congruent_standard_form(n):
        # Pf(B J B^T) = det(B) Pf(J) = the product of B's diagonal, with
        # J the direct sum of [[0, 1], [-1, 0]] and B upper triangular
        rng = random.Random(n)
        diag = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
        b = [[diag[i] if i == j else rng.randint(-3, 3) if j > i else 0
              for j in range(n)] for i in range(n)]
        m = [[sum(b[i][t] * b[j][t + 1] - b[i][t + 1] * b[j][t]
                  for t in range(0, n, 2)) for j in range(n)]
             for i in range(n)]
        assert pfaffian(m) == prod(diag)

    def test_congruent_standard_form_order_eight(self):
        # runs first: an inexact division in either kernel fails here at
        # once, where at order 40 the entries would grow without bound
        self.check_congruent_standard_form(8)

    def test_congruent_standard_form_order_forty(self):
        # a time limit turns a runaway elimination into a failure, not a
        # stalled suite; the check takes well under a second
        limit = 30

        def expire(signum, frame):
            raise TimeoutError("order-40 Pfaffian ran past %d s" % limit)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(limit)
        try:
            self.check_congruent_standard_form(40)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("n", [20, 40])
    def test_ones_above_diagonal(self, n):
        m = [[(i < j) - (i > j) for j in range(n)] for i in range(n)]
        assert pfaffian(m) == 1

    @pytest.mark.parametrize("source", [
        lambda ws: omega_matrix(build_rooted_tree((LEAF, LEAF))),
        lambda ws: omega_matrix(next(iter(ws.trivalent_census(2))).graph),
        lambda ws: omega_matrix(next(iter(ws.trivalent_census(3))).graph),
    ], ids=["three-star", "genus-two-trivalent", "genus-three-trivalent"])
    def test_determinant_check_fires(self, monkeypatch, ws, source):
        # an expansion that is off by one must fail the Pf^2 = det check
        # on a graph's form passed to pfaffian; on a census key, which
        # word_cell_volume takes without that check, the census route's
        # per-cell compare catches it (test_integrals.TestPerCellVolumes)
        form = source(ws)
        assert {type(x) for row in form for x in row} == {int}
        expand = kontsevich._pfaffian_int
        monkeypatch.setattr(kontsevich, "_pfaffian_int",
                            lambda m: expand(m) + 1)
        with pytest.raises(AssertionError):
            pfaffian(form)

    def test_determinant_check_fires_on_fraction_form(self, monkeypatch, ws):
        # the scaled path keeps the check too
        form = omega_matrix(next(iter(ws.trivalent_census(2))).graph)
        halved = [[Fraction(x, 2) for x in row] for row in form]
        expand = kontsevich._pfaffian_int
        monkeypatch.setattr(kontsevich, "_pfaffian_int",
                            lambda m: expand(m) + 1)
        with pytest.raises(AssertionError):
            pfaffian(halved)

    @pytest.mark.parametrize("at,value", [
        ((0, 0), 1), ((3, 3), -2), ((0, 2), 5), ((2, 0), 5), ((1, 3), 0),
        ((3, 1), 0)], ids=["diagonal-first", "diagonal-last", "above",
                           "below", "above-zeroed", "below-zeroed"])
    def test_integer_matrix_keeps_antisymmetry_check(self, at, value):
        m = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
        assert pfaffian(m) == 1 * 6 - 2 * 5 + 3 * 4
        m[at[0]][at[1]] = value
        with pytest.raises(ValueError):
            pfaffian(m)

    @pytest.mark.parametrize("at,value", [
        ((0, 0), Fraction(1, 3)), ((3, 3), Fraction(-1, 2)),
        ((0, 2), Fraction(2, 5)), ((2, 0), Fraction(2, 3)),
        ((1, 0), Fraction(-3, 5)), ((1, 3), 0), ((3, 1), 0)],
        ids=["diagonal-first", "diagonal-last", "above", "below",
             "below-denominator", "above-zeroed", "below-zeroed"])
    def test_fraction_matrix_keeps_antisymmetry_check(self, at, value):
        # the scaled path checks antisymmetry on the integer matrix, with
        # the lcm taken over every entry: -3/5 below 1/2 would scale to
        # -6 against 6 by the lcm 12 of the entries above the diagonal
        f = Fraction
        m = [[0, f(1, 2), f(2, 3), f(3, 4)], [f(-1, 2), 0, f(4, 3), f(5, 6)],
             [f(-2, 3), f(-4, 3), 0, 6], [f(-3, 4), f(-5, 6), -6, 0]]
        assert pfaffian(m) == f(1, 2) * 6 - f(2, 3) * f(5, 6) \
            + f(3, 4) * f(4, 3)
        m[at[0]][at[1]] = value
        with pytest.raises(ValueError, match="not antisymmetric"):
            pfaffian(m)


@st.composite
def square_matrices(draw):
    """Integer matrices of orders 0 to 9, odd orders included, each with
    these drawn half the time: a zero leading block (forcing row swaps), a
    singular leading 2 x 2 block (a zero second pivot, forcing a swap with
    a later row or, with none, a zero column), a row copied, negated or
    zeroed (singular), and a pair of columns k, k+1 (k even) of rank <= 1,
    where column k+1 is zero from row k+1 down once column k is
    eliminated, and the determinant is 0."""
    n = draw(st.integers(0, 9))
    m = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
         for _ in range(n)]
    if n and draw(st.booleans()):
        zeros = draw(st.integers(1, n))
        for i in range(zeros):
            m[i][:zeros] = [0] * zeros
    if n >= 2 and draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        m[1][:2] = [c * x for x in m[0][:2]]
    if n and draw(st.booleans()):
        source = draw(st.integers(0, n - 1))
        target = draw(st.integers(0, n - 1))
        c = 0 if source == target else draw(st.sampled_from((-1, 0, 1)))
        m[target] = [c * x for x in m[source]]
    if n >= 2 and draw(st.booleans()):
        k = 2 * draw(st.integers(0, n // 2 - 1))
        c = draw(st.integers(-2, 2))
        for row in m:
            row[k + 1] = c * row[k]
    return m


@st.composite
def skew_matrices(draw):
    """Antisymmetric matrices with int entries, or Fraction entries whose
    denominators are drawn per entry from 1, 2, 3, 4 and 6 (so the lcm
    scaling meets mixed denominators): dense of order up to 8, or sparse
    (about one entry in four nonzero, so zero pivots and index swaps are
    common) of order up to 12."""
    sparse = draw(st.booleans())
    n = draw(st.sampled_from((0, 2, 4, 6, 8, 10, 12) if sparse
                             else (0, 2, 4, 6, 8)))
    rational = draw(st.booleans())
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if sparse and draw(st.integers(0, 3)):
                continue
            x = draw(st.integers(-8, 8))
            m[i][j] = Fraction(x, draw(st.sampled_from((1, 2, 3, 4, 6)))) \
                if rational else x
            m[j][i] = -m[i][j]
    return m


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_integer_determinant_matches_fraction_elimination(m):
    assert kontsevich._det_fraction(m) == det_by_elimination(m)


@pytest.mark.parametrize("m,det", [
    ([], 1),
    ([[5]], 5),
    ([[0]], 0),
    ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], 18),
    # each step divides exactly by the pivot before it: 2, 3, 7, 11
    ([[2, 1, 0, 0, 1], [1, 2, 1, 0, 0], [0, 1, 3, 1, 0], [0, 0, 1, 2, 1],
      [1, 0, 0, 1, 2]], 9),
    # first pivot zero: row 2 is swapped up
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], -1),
    # second pivot zero after the first step: row 2 is swapped up
    ([[1, 2, 0, 1], [2, 4, 1, 0], [0, 1, 3, 1], [1, 0, 1, 2]], -17),
    # first and second pivots zero: rows 2 and 3 are swapped up, one swap
    # at each step
    ([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], 1),
    # column 1 is twice column 0, so the second step finds it zero
    ([[1, 2, 3], [2, 4, 5], [3, 6, 7]], 0),
    # the last pivot is 0
    ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], 0),
    # a zero pivot part-way, past a later row that is zero in its column
    # too: the first step leaves 0 at (1, 1) and (2, 1), so row 3 is
    # swapped up, and the next step divides by its pivot -1
    ([[1, 2, 0, 1], [2, 4, 1, 3], [3, 6, 1, 0], [1, 1, 2, 2]], 4),
    # a zero column part-way through: column 2 is the sum of columns 0
    # and 1, so after two steps with pivots 1 it is zero from row 2 down
    ([[1, 2, 3, 0, 1], [0, 1, 1, 2, 0], [2, 1, 3, 1, 1], [1, 0, 1, 1, 2],
      [3, 1, 4, 0, 1]], 0),
], ids=["order-0", "order-1", "order-1-zero", "order-3", "order-5",
        "odd-pair-search", "even-pair-search", "two-swaps",
        "rank-one-first-pair", "rank-one-second-pair",
        "zero-pivot-later-row", "zero-column-part-way"])
def test_two_step_determinant_cases(m, det):
    assert det_by_elimination(m) == det
    assert kontsevich._det_fraction(m) == det


@settings(max_examples=200, deadline=None)
@given(skew_matrices())
def test_pfaffian_matches_matching_sum(m):
    assert pfaffian(m) == pfaffian_by_matchings(m)


@settings(max_examples=100, deadline=None)
@given(skew_matrices())
def test_integer_matrix_matches_fraction_twin(m):
    # an int matrix passes unscaled; its Fraction(k, 1) twin, and a twin
    # with Fractions above the diagonal only, take the scaled path (12 is
    # the lcm of skew_matrices' denominators)
    ints = [[int(12 * x) for x in row] for row in m]
    twin = [[Fraction(x) for x in row] for row in ints]
    upper = [[Fraction(x) if i < j else x for j, x in enumerate(row)]
             for i, row in enumerate(ints)]
    assert pfaffian(ints) == pfaffian(twin) == pfaffian(upper)


def swap_forms(seed):
    """An antisymmetric integer matrix on which ``_pfaffian_int`` swaps an
    index at the first pivot of each diagonal block, moving entries across
    the rows between, and its Pfaffian, drawn again until that is nonzero,
    so that a lost sign shows.

    Blocks of order 4 or 6 down the diagonal: each block's first row k is
    0 at columns k+1 and k+2 and first nonzero at column k+3 or k+4, and
    the rest of the block is random.  Elimination scales a later block
    without filling its zeros, so each block opens with pivot 0 and a swap
    of k+1 with an index s >= k+3, across rows k+2..s-1.  Odd seeds draw
    one dense block of order 6 or 8 with that first row."""
    rng = random.Random(seed)
    while True:
        sizes = [rng.choice((4, 6)) for _ in range(rng.randint(1, 3))]
        if seed % 2:
            sizes = [rng.choice((6, 8))]
        n = sum(sizes)
        m = [[0] * n for _ in range(n)]
        k = 0
        for size in sizes:
            first = k + rng.choice((3, 4) if size > 4 else (3,))
            for i in range(k, k + size):
                for j in range(i + 1, k + size):
                    if i == k and j < first:
                        continue
                    m[i][j] = rng.choice((-3, -2, -1, 1, 2, 3))
                    m[j][i] = -m[i][j]
            k += size
        pf = pfaffian_by_matchings(m)
        if pf:
            return m, pf


@pytest.mark.parametrize("seed", range(24))
def test_kernel_sign_and_swap(seed):
    # the signed Pfaffian through swaps that move entries across rows;
    # the kernel reads only the strict upper triangle, so it gives the same
    # value with the lower triangle zeroed; it works on its rows in place,
    # so it gets a copy of m, which is read again below
    m, want = swap_forms(seed)
    assert kontsevich._pfaffian_int([list(row) for row in m]) == want
    upper = [[x if j > i else 0 for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    assert kontsevich._pfaffian_int(upper) == want


def word_slots(word):
    """The edge in each slot of a one-boundary gap word, edges numbered by
    first slot: slot p and slot p + word[p] (mod 2E) hold one edge."""
    m = len(word)
    seq = [None] * m
    edge = 0
    for p in range(m):
        if seq[p] is None:
            seq[p] = seq[(p + word[p]) % m] = edge
            edge += 1
    return seq


def boundary_slots(graph):
    """The edge in each slot of a one-boundary graph's boundary cycle, in
    the graph's edge numbering."""
    table = graph._edge_index_table()
    return [table[h] for h in graph.boundary_cycles().cycles[0]]


def slot_graph(seq):
    """A graph whose boundary holds edge seq[i] in slot i, edge e as
    half-edges 2e (its first slot) and 2e + 1, so ``Fatgraph.edges``
    numbers the edges as seq does; its cycle from half-edge 0 starts at
    the first slot of edge 0.  Every vertex is a delta vertex, which
    allows valences 1 and 2 and puts a flag into each word entry."""
    m = len(seq)
    halves, seen = [], set()
    for e in seq:
        halves.append(2 * e + (e in seen))
        seen.add(e)
    sigma = [0] * m
    for i, h in enumerate(halves):
        sigma[h ^ 1] = halves[(i + 1) % m]
    return Fatgraph(sigma, [h ^ 1 for h in range(m)], (DELTA,) * m)


def check_form_assembly(seq):
    # the raw pass over the gap word of seq, its edges sent to their labels
    # in seq, is the slot-pair oracle's matrix entry for entry, last-slot
    # terms included; the form of a graph with that boundary is the
    # oracle's form of its slot sequence for every eliminated edge, and a
    # graph with an even edge count is refused
    m = len(seq)
    num_edges = m // 2
    slots = {}
    for p, e in enumerate(seq):
        slots.setdefault(e, []).append(p)
    word = [0] * m
    for p1, p2 in slots.values():
        word[p1], word[p2] = p2 - p1, m - (p2 - p1)
    edge_map = [(e, 1) for p, e in enumerate(seq) if slots[e][0] == p]
    assert kontsevich._raw_form(word, edge_map, num_edges) == \
        raw_coefficients_by_slot_pairs(seq, num_edges)
    graph = slot_graph(seq)
    if num_edges % 2 == 0:
        with pytest.raises(ValueError, match="odd edge count"):
            omega_matrix(graph)
        return
    c = raw_coefficients_by_slot_pairs(boundary_slots(graph), num_edges)
    assert omega_matrix(graph) == eliminated_form(c, num_edges - 1)
    for k in range(num_edges):
        assert omega_matrix(graph, k) == eliminated_form(c, k)


@st.composite
def slot_sequences(draw):
    """Each of E edges in two of the 2E slots, in any order: every side
    pairing of a 2E-gon is the boundary of a one-boundary graph."""
    num_edges = draw(st.integers(1, 15))
    return draw(st.permutations([e for e in range(num_edges) for _ in "ab"]))


@settings(max_examples=300, deadline=None)
@given(slot_sequences())
def test_form_assembly_matches_slot_pairs(seq):
    check_form_assembly(seq)


@pytest.mark.parametrize("sequences", [
    lambda ws: [word_slots(e.key) for g in (1, 2, 3)
                for e in ws.trivalent_census(g)]
    + [word_slots(e.key) for g in (1, 2)
       for e in ws.fatgraph_census(g, "all")],
    lambda ws: [word_slots([w % len(e.key) for w in e.key])
                for leaves in range(2, 10) for e in enumerate_trees(leaves)],
    lambda ws: [boundary_slots(double_tree(tree_word(tree)).doubled)
                for leaves, profile in [(3, "trivalent"), (5, "trivalent"),
                                        (7, "trivalent"), (5, ONE5),
                                        (7, ONE5), (4, MARKED), (6, MARKED)]
                for tree in unrooted_trees(leaves, profile)],
], ids=["census-words", "tree-words", "doubled-cells"])
def test_census_form_assembly_matches_slot_pairs(sequences, ws):
    seqs = sequences(ws)
    assert seqs
    for seq in seqs:
        check_form_assembly(seq)


def check_word_form(word):
    # the one-pass form of a gap word is the strict upper triangle of half
    # the slot-pair oracle's form after eliminating the last edge, and of
    # half the form of the graph the word builds (delta-flagged, so any
    # valence is allowed), entry for entry, with 0 on and below the
    # diagonal; a word with an even edge count is refused as the graph is
    m = len(word)
    seq = word_slots(word)
    num_edges = m // 2
    graph = Fatgraph.from_word(tuple(w + m for w in word))
    if num_edges % 2 == 0:
        with pytest.raises(ValueError) as refused:
            omega_matrix(graph)
        with pytest.raises(ValueError, match=str(refused.value)):
            kontsevich._word_omega_matrix(word)
        return
    form = kontsevich._word_omega_matrix(word)
    # the kernel reads n row lists, and only their strict upper triangle
    n = num_edges - 1
    assert type(form) is list and len(form) == n
    assert all(type(row) is list and len(row) == n for row in form)
    want = eliminated_form(raw_coefficients_by_slot_pairs(seq, num_edges),
                           num_edges - 1)
    graph_form = omega_matrix(graph)
    for a in range(n):
        assert form[a][:a + 1] == [0] * (a + 1)
        for b in range(a + 1, n):
            assert 2 * form[a][b] == want[a][b] == graph_form[a][b]


@st.composite
def one_face_words(draw):
    """Gap words of E = 1..15 edges: every side pairing of a 2E-gon is the
    boundary of a one-boundary graph, so any pairing of the slots is
    one."""
    m = 2 * draw(st.integers(1, 15))
    slots = draw(st.permutations(range(m)))
    word = [0] * m
    for p, q in zip(slots[::2], slots[1::2]):
        word[p], word[q] = (q - p) % m, (p - q) % m
    return tuple(word)


@settings(max_examples=300, deadline=None)
@given(one_face_words())
def test_word_form_matches_slot_pairs(word):
    check_word_form(word)


@pytest.mark.parametrize("word", [
    (1, 1, 1, 1, 1, 1), (3, 3, 3, 3, 3, 2), (3, 0, 3, 3, 3, 3),
    (3, 3, 3, 6, 3, 3), (3, 3, 3, -3, 3, 3), (1, 1, 1), (1, 1, 1, 1),
    (0, 0, 0, 0), ()],
    ids=["all-ones", "one-off", "zero-entry", "entry-m", "negative-entry",
         "odd-length", "even-all-ones", "even-all-zeros", "empty"])
def test_word_cell_volume_refuses_non_pairings(word):
    # a word whose slots do not pair up describes no cell, and is refused
    # before any form is built or its edge count read
    for read in (word_cell_volume, word_pfaffian):
        with pytest.raises(MalformedGraph, match="not a pairing"):
            read(word)


def test_one_edge_word_form_is_empty():
    check_word_form((1, 1))
    assert kontsevich._word_omega_matrix((1, 1)) == []
    assert word_cell_volume((1, 1)) == (1, 0, 1)
    assert word_pfaffian((1, 1)) == 1


@pytest.mark.parametrize("words", [
    lambda ws: [e.key for g in (1, 2, 3) for e in ws.trivalent_census(g)]
    + [e.key for g in (1, 2) for e in ws.fatgraph_census(g, "all")],
    lambda ws: [tuple(w % len(e.key) for w in e.key)
                for leaves in range(2, 10) for e in enumerate_trees(leaves)],
    lambda ws: [double_tree(tree_word(tree)).word
                for leaves, profile in [(3, "trivalent"), (5, "trivalent"),
                                        (7, "trivalent"), (5, ONE5),
                                        (7, ONE5), (4, MARKED), (6, MARKED)]
                for tree in unrooted_trees(leaves, profile)],
], ids=["census-words", "tree-words", "doubled-cell-words"])
def test_census_word_forms_match_slot_pairs(words, ws):
    words = words(ws)
    assert words
    for word in words:
        check_word_form(word)


class TestPfaffianLaw:
    @pytest.mark.parametrize("g", [1, 2])
    def test_trivalent_census(self, g, ws):
        want = Fraction(4 ** (3 * g - 2), 2 ** g)
        for entry in ws.trivalent_census(g):
            assert abs(pfaffian(omega_matrix(entry.graph))) == want

    def test_trivalent_census_genus_three_words(self, ws):
        # |Pf| = 4^(3g-2) / 2^g = 2048 on each of the 1726 classes, and
        # 2^7 times the signed half-scale word_pfaffian
        entries = list(ws.trivalent_census(3))
        assert len(entries) == 1726
        for entry in entries:
            pf = word_cell_volume(entry.key).pf
            assert abs(pf) == 2048
            assert pf == 2 ** 7 * word_pfaffian(entry.key)

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


@pytest.mark.parametrize("g,valence_filter", [
    (1, "trivalent"), (2, "trivalent"), (3, "trivalent"), (1, "all"),
    (2, "all"), (2, ("single", 5))])
def test_word_cell_volume_matches_graph(g, valence_filter, ws):
    # every class with an odd edge count: the volume read off the key equals
    # the volume of the graph the key rebuilds, signed Pfaffian included
    keys = [e.key for e in ws.fatgraph_census(g, valence_filter)
            if len(e.key) % 4 == 2]
    assert keys
    for key in keys:
        assert word_cell_volume(key) == cell_volume(Fatgraph.from_word(key))


def test_tree_word_volume_matches_tree():
    # genus0 reads a tree class's volume off its key with the flags
    # stripped; the edges are numbered differently from the tree's, which
    # may flip the Pfaffian's sign but not its absolute value
    for leaves in range(3, 10):
        for entry in enumerate_trees(leaves):
            m = len(entry.key)
            got = word_cell_volume(tuple(w % m for w in entry.key))
            want = cell_volume(entry.graph)
            assert (got.value, got.half_dim, abs(got.pf)) == \
                (want.value, want.half_dim, abs(want.pf))


def test_volume_keeps_pfaffian_denominator():
    # Pf = 1/2 at d = 1: 1! (1/2) / (4 * 2!) = 1/16
    vol = kontsevich._volume(
        pfaffian(((0, Fraction(1, 2)), (Fraction(-1, 2), 0))), 1)
    assert vol == (Fraction(1, 16), 1, Fraction(1, 2))


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
        cell = double_tree(tree_word(unrooted_trees(3)[0]))
        assert hyperelliptic_cell_volume(cell).value == Fraction(1, 4)

    def test_genus_two(self):
        cell = double_tree(tree_word(unrooted_trees(5)[0]))
        assert hyperelliptic_cell_volume(cell).value == Fraction(1, 960)

    def test_closed_form_all_profiles(self):
        cases = [(5, "trivalent"), (7, "trivalent"), (5, ONE5), (7, ONE5),
                 (4, MARKED), (6, MARKED)]
        for leaves, profile in cases:
            for tree in unrooted_trees(leaves, profile):
                cell = double_tree(tree_word(tree))
                d = tree.num_edges // 2
                assert hyperelliptic_cell_volume(cell).value == \
                    Fraction(factorial(d), 2 ** d * factorial(2 * d))

    def test_pullback_scaling(self):
        cell = double_tree(tree_word(unrooted_trees(5)[0]))
        d = PlanarTree.from_word(cell.tree_word).num_edges // 2
        pulled = hyperelliptic_cell_volume(cell).pf
        tree_pf = pfaffian(omega_matrix(PlanarTree.from_word(cell.tree_word)))
        assert abs(pulled) * 2 ** d == abs(tree_pf)

    def test_nondegenerate(self):
        for leaves in (3, 5, 7):
            for tree in unrooted_trees(leaves):
                cell = double_tree(tree_word(tree))
                assert hyperelliptic_cell_volume(cell).pf != 0


def hyperelliptic_cells(ws):
    """Every cell of the hyperelliptic censuses of g = 1..4 and of both
    W1 components of g = 2..4."""
    cells = [e.payload for g in range(1, 5)
             for e in ws.hyperelliptic_census(g)]
    for g in range(2, 5):
        for component in ws.w1_components(g):
            cells += [e.payload for e in component]
    return cells


def check_pullback(cell):
    # the pullback read off the doubled word is the one assembled on the
    # doubled graph, entry for entry and before elimination, which would
    # cancel a wrong last-slot term; the volume carries the signed Pf of
    # the eliminated form
    pulled, form = pullback_form_by_boundary_cycles(cell)
    assert kontsevich._pullback(cell) == pulled
    assert hyperelliptic_cell_volume(cell).pf == pfaffian(form)


def test_word_pullback_matches_boundary_cycle_pullback(ws):
    cells = hyperelliptic_cells(ws)
    assert len(cells) == 227
    for cell in cells:
        check_pullback(cell)


def test_cycle_doubled_pullback_matches_boundary_cycle_pullback():
    # the reference doubling labels its half-edges by vertex cycles, not
    # by slots; its edge map must still follow the word's edges
    for leaves, profile in [(5, "trivalent"), (7, "trivalent"), (5, ONE5),
                            (4, MARKED), (6, MARKED)]:
        for tree in unrooted_trees(leaves, profile):
            check_pullback(double_by_cycles(tree))
