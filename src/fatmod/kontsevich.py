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

Every coefficient is even.  Forms read off a gap word
(``word_cell_volume``) are built at half scale, A/2, whose Pfaffian is
scaled back by 2^d; forms of a graph or a slot sequence (``omega_matrix``)
and the hyperelliptic pullback stay at full scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple

from .errors import MalformedGraph, WrongBoundaryCount
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
    verified against the two-step Bareiss integer determinant
    (``_det_fraction``, Pf^2 = det) before returning.  Callers that pass a
    form divided by a common factor (``word_cell_volume``) check the same
    condition on smaller integers: Pf(cA) = c^(n/2) Pf(A) and
    det(cA) = c^n det(A).
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
    """Determinant of an integer matrix by Bareiss's two-step fraction-free
    elimination (1968): each pass removes columns k and k+1 through the
    2 x 2 pivot block [[p, q], [r, s]] with D = ps - qr, and by Sylvester's
    identity every entry of the trailing block becomes an order-(k+3)
    bordered minor, an exact division by the square of the previous
    leading minor, so all work stays in ints.  A singular pivot block is
    replaced by the first pair of rows i < j from row k on whose minor on
    columns k and k+1 is nonzero, one row swap (and sign flip) for each
    row moved; with none, columns k and k+1 have rank <= 1 there and the
    determinant is 0.  An odd order ends at the last diagonal entry.  Rows
    are only swapped and no symmetry is assumed, so this is a general
    determinant."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(0, n - 1, 2):
        k1 = k + 1
        if a[k][k] * a[k1][k1] == a[k][k1] * a[k1][k]:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                         if a[i][k] * a[j][k1] != a[i][k1] * a[j][k]), None)
            if pair is None:
                return 0
            i, j = pair
            if i != k:
                a[k], a[i] = a[i], a[k]
                sign = -sign
            if j != k1:
                a[k1], a[j] = a[j], a[k1]
                sign = -sign
        row_k, row_k1 = a[k], a[k1]
        p, q, r, s = row_k[k], row_k[k1], row_k1[k], row_k1[k1]
        d = p * s - q * r
        # the coefficients of a[i][k] and a[i][k+1] in each column's update,
        # over whole rows: indexing them by column is cheaper than slicing
        u = [q * y - s * x for x, y in zip(row_k, row_k1)]
        v = [r * x - p * y for x, y in zip(row_k, row_k1)]
        prev2 = prev * prev
        cols = range(k + 2, n)
        for row in a[k + 2:]:
            x, y = row[k], row[k1]
            for j in cols:
                row[j] = (d * row[j] + x * u[j] + y * v[j]) // prev2
        prev = d // prev
    return sign * (a[-1][-1] if n % 2 else prev)


def cell_volume(graph: Fatgraph) -> CellVolume:
    """Exact integral of omega^d over the normalized open cell of the graph.

    Positive by convention; the signed Pfaffian is kept alongside.
    """
    return _volume(omega_matrix(graph))


def word_cell_volume(word) -> CellVolume:
    """``cell_volume(Fatgraph.from_word(word))`` read off the gap word of a
    one-boundary graph, with no graph built (``_word_omega_matrix``).  The
    form is built at half scale, so the signed Pfaffian is scaled back by
    2^d."""
    return _volume(_word_omega_matrix(word), scale=2)


def _word_omega_matrix(word) -> tuple:
    """``omega_matrix(Fatgraph.from_word(word))`` divided by 2, built in one
    pass over pairs of free edges from the gap word: slot p is paired with
    p + word[p] (mod 2E), and edges are numbered by their first slot, as
    ``Fatgraph.edges`` numbers the edges of that graph.

    For edges a < b, with slots p1 < p2 and q1 < q2, p1 < q1 holds, so the
    raw coefficient of ``_raw_coefficients`` is 2 ((q1 > p2) + (q2 > p2)),
    with +2 in the row and -2 in the column of the edge in the last slot.
    Eliminating the last edge k gives c[a][b] - c[a][k] + c[b][k], in
    which those two terms cancel, so they are never added.  Every term
    left is even; the form is built without the common factor 2, which
    halves Pf by 2^d and det by 4^d and keeps the integers small.

    Raises MalformedGraph unless the word pairs its slots: every entry in
    1..m-1, m/2 pairs (p, p + word[p]) with p + word[p] < m, and
    word[q] = m - (q - p) for each such pair (p, q).
    """
    m = len(word)
    num_edges = m // 2
    if num_edges % 2 == 0:
        raise ValueError("cell form needs an odd edge count, got %d"
                         % num_edges)
    ends = [(p, p + w) for p, w in enumerate(word) if 0 < w < m - p]
    # each first slot p has 0 < word[p] < m - p; the m/2 second slots q,
    # each with word[q] = m - (q - p) in 1..m-1, are distinct and no first
    # slot, so with the m/2 first slots they are every slot, and every
    # entry is in 1..m-1
    if 2 * len(ends) != m or any(word[q] != m - q + p for p, q in ends):
        raise MalformedGraph("gap word %r is not a pairing" % (word,))
    k1, k2 = ends.pop()
    # each free edge's slots and its halved raw coefficient against edge k
    edges = [(q1, q2, (k1 > q2) + (k2 > q2)) for q1, q2 in ends]
    n = len(edges)
    rows = [[0] * n for _ in range(n)]
    for a, (_, p2, cka) in enumerate(edges):
        row = rows[a]
        for b in range(a + 1, n):
            q1, q2, ckb = edges[b]
            row[b] = v = (q1 > p2) + (q2 > p2) - cka + ckb
            rows[b][a] = -v
    return tuple(map(tuple, rows))


def _volume(matrix, scale=1) -> CellVolume:
    """Volume of the cell whose form is ``scale`` times ``matrix``:
    Pf(scale A) = scale^d Pf(A)."""
    d = len(matrix) // 2
    pf = pfaffian(matrix) * scale ** d
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
