"""The symplectic 2-form on one-boundary cells and exact Pfaffian volumes.

On a cell with edge lengths (l_1, ..., l_E), E = 2d+1, normalized by
sum(l) = 1/2, the 2-form is assembled from the single boundary cycle: with
L_i the length of the edge in boundary slot i (each edge occupies two of the
m = 2E slots), the form is sum over slot pairs i < j < m of dL_i ^ dL_j.
After eliminating one designated edge through the normalization constraint
the coefficient matrix is a 2d x 2d antisymmetric matrix A over the free
edges; the choice of summation cutoff and of eliminated edge does not change
|Pf(A)|, and

    integral over the cell of omega^d  =  d! |Pf(A)| / (2^(2d) (2d)!)

since the free-coordinate domain is the 1/2-scaled simplex of volume
1/(2^(2d) (2d)!).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple

from .errors import WrongBoundaryCount
from .fatgraph import Fatgraph


class CellVolume(NamedTuple):
    value: Fraction
    half_dim: int
    pf: Fraction  # signed Pfaffian; volumes use its absolute value


def _raw_coefficients(seq, num_edges):
    """Antisymmetric edge-pair coefficients from the boundary slot sequence:
    c[a][b] sums sign(q - p) over the counted slots p of edge a and q of
    edge b, where every slot but the last one counts.  This is the sum over
    slot pairs i < j < len(seq) - 1 of +1 at (seq[i], seq[j]) and -1 at
    (seq[j], seq[i]), taken over edge pairs: for slots p1 < p2 of a and
    q1 < q2 of b it is 2 ((p1 < q1) + (p1 < q2) + (p2 < q1) + (p2 < q2)) - 4.
    The edge z in the last slot has one counted slot.  The formula also
    counts its last slot, which comes after both slots of every other edge
    b and so adds -1 twice to c[z][b]; adding 2 back removes it."""
    slots = [[] for _ in range(num_edges)]
    for p, e in enumerate(seq):
        slots[e].append(p)
    c = [[0] * num_edges for _ in range(num_edges)]
    for a, (p1, p2) in enumerate(slots):
        row = c[a]
        for b in range(a + 1, num_edges):
            q1, q2 = slots[b]
            v = 2 * ((p1 < q1) + (p1 < q2) + (p2 < q1) + (p2 < q2)) - 4
            row[b] = v
            c[b][a] = -v
    z = seq[-1]
    row = c[z]
    for b in range(num_edges):
        if b != z:
            row[b] += 2
            c[b][z] -= 2
    return c


def omega_matrix(graph: Fatgraph, eliminate: int = None) -> tuple:
    """Antisymmetric coefficient matrix of the cell form of a one-boundary
    graph with an odd number of edges, as a tuple of rows, in the remaining
    edge coordinates (in edge order) after eliminating the designated edge
    (default: the last one)."""
    cycles = graph.boundary_cycles().cycles
    if len(cycles) != 1:
        raise WrongBoundaryCount("expected one boundary cycle, found %d"
                                 % len(cycles))
    table = graph._edge_index_table()
    return _slot_omega_matrix([table[h] for h in cycles[0]], eliminate)


def _slot_omega_matrix(seq, eliminate=None) -> tuple:
    """``omega_matrix`` of the boundary slot sequence ``seq``: the edge in
    each slot, edges numbered 0..E-1."""
    num_edges = len(seq) // 2
    if num_edges % 2 == 0:
        raise ValueError("cell form needs an odd edge count, got %d"
                         % num_edges)
    if eliminate is None:
        eliminate = num_edges - 1
    if not 0 <= eliminate < num_edges:
        raise ValueError("no edge %d" % eliminate)
    c = _raw_coefficients(seq, num_edges)
    return _eliminate(c, num_edges, eliminate)


def _eliminate(c, num_edges, k) -> tuple:
    free = [e for e in range(num_edges) if e != k]
    ck = [row[k] for row in c]
    return tuple([tuple([c[a][b] - ck[a] + ck[b] for b in free])
                  for a in free])


def pfaffian(matrix) -> Fraction:
    """Exact Pfaffian of an antisymmetric matrix.

    Entries must be ``int`` or ``Fraction`` (TypeError otherwise).  A
    matrix of ``int`` entries passes unscaled; any other is scaled to
    integers by the lcm of its entries' denominators.  The Pfaffian is
    computed by fraction-free skew elimination in O(n^3) integer steps, and
    verified against the Bareiss integer determinant (Pf^2 = det) before
    returning.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n % 2:
        raise ValueError("odd-dimensional antisymmetric matrix")
    for i, row in enumerate(matrix):
        if row[i] != -row[i]:
            raise ValueError("matrix is not antisymmetric")
        for j in range(i + 1, n):
            if row[j] != -matrix[j][i]:
                raise ValueError("matrix is not antisymmetric")
    if n == 0:
        return Fraction(1)
    types = {type(x) for row in matrix for x in row}
    if not types <= {int, Fraction}:
        raise TypeError("matrix entries must be int or Fraction")
    if types == {int}:
        scale, m = 1, matrix
    else:
        scale = lcm(*(matrix[i][j].denominator
                      for i in range(n) for j in range(i + 1, n)))
        m = [[int(x * scale) for x in row] for row in matrix]
    pf_int = _pfaffian_int(m)
    det = _det_fraction(m)
    if pf_int * pf_int != det:
        raise AssertionError("Pfaffian does not square to the determinant")
    return Fraction(pf_int, scale ** (n // 2))


def _pfaffian_int(m):
    """Pfaffian of an antisymmetric integer matrix by fraction-free skew
    elimination, the Pfaffian analogue of Bareiss: each step pivots on the
    pair (k, k+1) and leaves in the trailing block the Pfaffians of the
    principal minors on rows 0..k+1, i, j.  Every division is exact by the
    overlapping-Pfaffian identity (Knuth 1996)
    Pf[S] Pf[Sabcd] = Pf[Sab] Pf[Scd] - Pf[Sac] Pf[Sbd] + Pf[Sad] Pf[Sbc].
    A zero pivot is swapped with the first later index that pairs with k
    nonzero, in rows and columns, flipping the sign."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        row_k = a[k]
        if not row_k[k + 1]:
            swap = next((j for j in range(k + 2, n) if row_k[j]), None)
            if swap is None:
                return 0
            a[k + 1], a[swap] = a[swap], a[k + 1]
            for row in a:
                row[k + 1], row[swap] = row[swap], row[k + 1]
            sign = -sign
        row_k1 = a[k + 1]
        pivot = row_k[k + 1]
        for i in range(k + 2, n):
            row_i = a[i]
            ki, k1i = row_k[i], row_k1[i]
            for j in range(i + 1, n):
                x = (pivot * row_i[j] - ki * row_k1[j]
                     + row_k[j] * k1i) // prev
                row_i[j] = x
                a[j][i] = -x
        prev = pivot
    return sign * prev


# Name kept from the Fraction elimination: perfbench/tracer.py patches it.
def _det_fraction(m):
    """Determinant of an integer matrix by Bareiss's fraction-free
    elimination (1968): every division is exact, so all work stays in ints.
    A zero pivot is swapped with a row below that has a nonzero entry."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, n) if a[r][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        row_k = a[k]
        pivot_value = row_k[k]
        for row in a[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot_value * row[j] - factor * row_k[j]) // prev
        prev = pivot_value
    return sign * a[-1][-1] if n else 1


def cell_volume(graph: Fatgraph) -> CellVolume:
    """Exact integral of omega^d over the normalized open cell of the graph.

    Positive by convention; the signed Pfaffian is kept alongside.
    """
    return _volume(omega_matrix(graph))


def word_cell_volume(word) -> CellVolume:
    """``cell_volume(Fatgraph.from_word(word))`` read off the gap word of a
    one-boundary graph, with no graph built (``_word_omega_matrix``)."""
    return _volume(_word_omega_matrix(word))


def _word_omega_matrix(word) -> tuple:
    """``omega_matrix(Fatgraph.from_word(word))``, built in one pass over
    pairs of free edges from the gap word: slot p is paired with
    p + word[p] (mod 2E), and edges are numbered by their first slot, as
    ``Fatgraph.edges`` numbers the edges of that graph.

    For edges a < b, with slots p1 < p2 and q1 < q2, p1 < q1 holds, so the
    raw coefficient of ``_raw_coefficients`` is 2 ((q1 > p2) + (q2 > p2)),
    with +2 in the row and -2 in the column of the edge in the last slot.
    Eliminating the last edge k gives c[a][b] - c[a][k] + c[b][k], in
    which those two terms cancel, so they are never added.
    """
    m = len(word)
    num_edges = m // 2
    if num_edges % 2 == 0:
        raise ValueError("cell form needs an odd edge count, got %d"
                         % num_edges)
    ends = [(p, p + w) for p, w in enumerate(word) if p + w < m]
    k1, k2 = ends.pop()
    # each free edge's slots and its raw coefficient against edge k
    edges = [(q1, q2, 2 * ((k1 > q2) + (k2 > q2))) for q1, q2 in ends]
    n = len(edges)
    rows = [[0] * n for _ in range(n)]
    for a, (_, p2, cka) in enumerate(edges):
        row = rows[a]
        for b in range(a + 1, n):
            q1, q2, ckb = edges[b]
            row[b] = v = 2 * ((q1 > p2) + (q2 > p2)) - cka + ckb
            rows[b][a] = -v
    return tuple(map(tuple, rows))


def _volume(matrix) -> CellVolume:
    pf = pfaffian(matrix)
    d = len(matrix) // 2
    value = Fraction(factorial(d) * abs(pf.numerator),
                     4 ** d * factorial(2 * d) * pf.denominator)
    return CellVolume(value, d, pf)


def hyperelliptic_cell_volume(cell) -> CellVolume:
    """Volume of a doubled-tree cell, computed two independent ways.

    (a) assemble the form of the doubled word ``cell.word``, pull it back
    through the cell embedding ``cell.edge_map`` (fused edges keep the tree
    length, the two copies of an internal edge each get half of it) and
    integrate over the tree simplex (``_pullback``);
    (b) integrate the tree's own form, read off its boundary word with the
    flags stripped, and halve once per dimension, which is the pullback
    scaling of the symplectic form on these cells.

    Both evaluations must agree exactly; for a tree with 2d+1 edges and odd
    valences the common value is d!/(2^d (2d)!).
    """
    ct = _pullback(cell)
    pulled_back = _volume(_eliminate(ct, len(ct), len(ct) - 1))
    tree_word = cell.tree.boundary_word()[1]
    tree_volume = word_cell_volume(tuple(w % len(tree_word)
                                         for w in tree_word))
    halved = tree_volume.value / 2 ** pulled_back.half_dim
    if pulled_back.value != halved:
        raise AssertionError(
            "pullback volume %s disagrees with half-scaled tree volume %s"
            % (pulled_back.value, halved))
    return pulled_back


def _pullback(cell) -> list:
    """The raw coefficients of the doubled word pulled back to the tree's
    edge lengths, as rows of ``Fraction``s, before any edge is eliminated.

    One pass over pairs of doubled edges a < b, numbered by first slot as
    ``cell.edge_map`` is: with slots p1 < p2 and q1 < q2 the raw
    coefficient is 2 ((q1 > p2) + (q2 > p2)) (``_word_omega_matrix``), +2
    when a holds the last slot and -2 when b does.  The pullback keeps the
    last-slot terms, so it is the pullback of ``_raw_coefficients``; they
    pull back to multiples of (tree edge) ^ (sum of all tree edges), which
    the elimination of any tree edge then cancels.
    """
    num_tree_edges = cell.tree.num_edges
    if num_tree_edges % 2 == 0:
        raise ValueError("tree cell needs an odd edge count")
    word, edge_map = cell.word, cell.edge_map
    m = len(word)
    # per doubled edge: its two slots, and 2 if it holds the last slot
    ends = [(p, p + w, 2 * (p + w == m - 1))
            for p, w in enumerate(word) if p + w < m]
    ct = [[Fraction(0)] * num_tree_edges for _ in range(num_tree_edges)]
    for a, (_, p2, za) in enumerate(ends):
        ta, fa = edge_map[a]
        row = ct[ta]
        for b in range(a + 1, len(ends)):
            q1, q2, zb = ends[b]
            v = 2 * ((q1 > p2) + (q2 > p2)) + za - zb
            if v:
                tb, fb = edge_map[b]
                x = fa * fb * v
                row[tb] += x
                ct[tb][ta] -= x
    return ct
