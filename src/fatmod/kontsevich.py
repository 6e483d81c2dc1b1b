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

Every coefficient is even.  Forms read off a gap word are built at half
scale, A/2, in one pass that eliminates as it goes and writes only the
strict upper triangle; ``word_pfaffian`` is their Pfaffian, an integer,
and ``word_cell_volume`` scales it back by 2^d.  Forms of a graph
(``omega_matrix``) and the hyperelliptic pullback stay at full scale, and
take their raw coefficients from one pass over edge pairs of a boundary
word (``_raw_form``, edges by ``fatgraph.word_pairs``), sending each edge
to a coordinate: a graph's own edge, or a tree edge at a scale.
The pullback's scales make its form rational; ``_integer_form`` checks
the shape, antisymmetry and entry types of a form and scales a rational
one once, in integer arithmetic, by the lcm of its denominators.

Every Pfaffian comes from one kernel, ``_pfaffian_int``, which works in
place on the strict upper triangle of integer rows.  Only ``pfaffian``
verifies it against the determinant, Pf^2 = det.  The pullback hands its
``_integer_form`` to the kernel, and ``word_pfaffian`` its form with no
check at all (it has no lower triangle to disagree with the upper one):
each census route compares every cell with the closed per-cell value, a
check that also sees a wrong form, which Pf^2 = det cannot.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple

from .fatgraph import Fatgraph, split_flags, word_pairs


class CellVolume(NamedTuple):
    value: Fraction
    half_dim: int
    pf: Fraction  # signed Pfaffian; volumes use its absolute value


def omega_matrix(graph: Fatgraph, eliminate: int = None) -> tuple:
    """Antisymmetric coefficient matrix of the cell form of a one-boundary
    graph with an odd number of edges, as a tuple of rows, in the remaining
    edge coordinates (in edge order) after eliminating the designated edge
    (default: the last one).  The raw coefficients are read off the gaps
    of the graph's boundary word by ``_raw_form``, each edge of the word
    sent to its index in ``graph.edges`` at scale 1.  A graph of more than
    one boundary cycle raises WrongBoundaryCount."""
    boundary, word = graph.boundary_word()
    gaps = split_flags(word)[0]
    num_edges = len(word) // 2
    if num_edges % 2 == 0:
        raise ValueError("cell form needs an odd edge count, got %d"
                         % num_edges)
    if eliminate is None:
        eliminate = num_edges - 1
    if not 0 <= eliminate < num_edges:
        raise ValueError("no edge %d" % eliminate)
    table = graph._edge_index_table()
    edge_map = [(table[boundary[p]], 1) for p, _ in word_pairs(gaps)]
    return _eliminate(_raw_form(gaps, edge_map, num_edges), num_edges,
                      eliminate)


def _raw_form(word, edge_map, size) -> list:
    """The raw coefficients of a one-boundary gap word's cell form, before
    any edge is eliminated, mapped through ``edge_map`` onto ``size``
    coordinates and returned as rows.

    The raw coefficient c[a][b] of edges a and b sums sign(q - p) over the
    counted slots p of a and q of b, where every slot but the last one
    counts.  One pass over pairs of word edges a < b by first slot
    (``word_pairs``): with slots p1 < p2 and q1 < q2, p1 < q1 holds, so
    2 ((p1 < q1) + (p1 < q2) + (p2 < q1) + (p2 < q2)) - 4, the sum over
    all four slots, is 2 ((q1 > p2) + (q2 > p2)).  It counts the last
    slot too, which comes after both slots of every other edge and so adds
    -1 twice to each entry in the row of its edge; +2 when a holds the
    last slot, and -2 when b does, take that back out.

    Word edge e goes to coordinate t with factor f for
    ``edge_map[e] = (t, f)``, and c[a][b] is added, scaled by both
    factors, at (t_a, t_b) and subtracted at (t_b, t_a): a permutation at
    scale 1 renumbers the edges (``omega_matrix``), and a doubled cell's
    embedding pulls the form back onto its tree (``_pullback``).
    """
    m = len(word)
    # per word edge: its two slots, and 2 if it holds the last slot
    ends = [(p, q, 2 * (q == m - 1)) for p, q in word_pairs(word)]
    rows = [[0] * size for _ in range(size)]
    for a, (_, p2, za) in enumerate(ends):
        ta, fa = edge_map[a]
        row = rows[ta]
        for b in range(a + 1, len(ends)):
            q1, q2, zb = ends[b]
            v = 2 * ((q1 > p2) + (q2 > p2)) + za - zb
            if v:
                tb, fb = edge_map[b]
                x = fa * fb * v
                row[tb] += x
                rows[tb][ta] -= x
    return rows


def _eliminate(c, num_edges, k) -> tuple:
    free = [e for e in range(num_edges) if e != k]
    ck = [row[k] for row in c]
    return tuple([tuple([c[a][b] - ck[a] + ck[b] for b in free])
                  for a in free])


def pfaffian(matrix) -> Fraction:
    """Exact Pfaffian of an antisymmetric matrix, which is left unchanged:
    checked and scaled to integers by ``_integer_form``, computed by
    fraction-free skew elimination (``_pfaffian_int``) in O(n^3) integer
    steps, and verified against the Bareiss integer determinant
    (``_det_fraction``, Pf^2 = det).  No census path calls this."""
    m, denominator = _integer_form(matrix)
    det = _det_fraction(m)
    pf = _pfaffian_int(m)
    if pf * pf != det:
        raise AssertionError("Pfaffian does not square to the determinant")
    return Fraction(pf, denominator)


def _integer_form(matrix):
    """An antisymmetric matrix as new integer rows, which the kernel may
    work on in place, and the denominator of their Pfaffian's scale.  A
    matrix that is not square, or of odd order, raises ValueError; so
    does one that is not antisymmetric, and then one whose entries are not
    all ``int`` or ``Fraction`` raises TypeError.  A matrix of ``int``
    entries is copied unscaled; any other is scaled once, in integer
    arithmetic, by the lcm of its entries' denominators, and the
    antisymmetry check runs on that integer matrix (a positive scale keeps
    a matrix antisymmetric or not)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n % 2:
        raise ValueError("odd-dimensional antisymmetric matrix")
    types = {type(x) for row in matrix for x in row}
    exact = types <= {int, Fraction}
    if types <= {int} or not exact:
        scale, m = 1, [list(row) for row in matrix]
    else:
        scale = lcm(*{x.denominator for row in matrix for x in row})
        m = [[x.numerator * (scale // x.denominator) for x in row]
             for row in matrix]
    for i, row in enumerate(m):
        if row[i] != -row[i]:
            raise ValueError("matrix is not antisymmetric")
        for j in range(i + 1, n):
            if row[j] != -m[j][i]:
                raise ValueError("matrix is not antisymmetric")
    if not exact:
        raise TypeError("matrix entries must be int or Fraction")
    return m, scale ** (n // 2)


def _pfaffian_int(a):
    """Pfaffian of an antisymmetric integer matrix, given as a list of row
    lists, by fraction-free skew elimination, the Pfaffian analogue of
    Bareiss: each step pivots on the pair (k, k+1) and leaves in the
    trailing block the Pfaffians of the principal minors on rows
    0..k+1, i, j.  Every division is exact by the overlapping-Pfaffian
    identity (Knuth 1996)
    Pf[S] Pf[Sabcd] = Pf[Sab] Pf[Scd] - Pf[Sac] Pf[Sbd] + Pf[Sad] Pf[Sbc].

    The rows are worked on in place, so a caller that reads them again
    passes a copy.  Only the strict upper triangle, entries (i, j) with
    j > i, is read or written.  A zero pivot is swapped with the first
    later index s that pairs with k nonzero, flipping the sign.  On the
    upper triangle the swap of k+1 and s exchanges row k's two entries,
    the tails of rows k+1 and s past column s, and, for each row i between
    them, the negated entries (k+1, i) and (i, s); entry (k+1, s) is
    negated."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(0, n, 2):
        row_k = a[k]
        t = k + 1
        row_t = a[t]
        if not row_k[t]:
            s = next((j for j in range(k + 2, n) if row_k[j]), None)
            if s is None:
                return 0
            row_s = a[s]
            row_k[t], row_k[s] = row_k[s], row_k[t]
            for i in range(t + 1, s):
                row_i = a[i]
                row_t[i], row_i[s] = -row_i[s], -row_t[i]
            row_t[s] = -row_t[s]
            row_t[s + 1:], row_s[s + 1:] = row_s[s + 1:], row_t[s + 1:]
            sign = -sign
        pivot = row_k[t]
        for i in range(k + 2, n):
            row_i = a[i]
            ki, ti = row_k[i], row_t[i]
            for j in range(i + 1, n):
                row_i[j] = (pivot * row_i[j] - ki * row_t[j]
                            + row_k[j] * ti) // prev
        prev = pivot
    return sign * prev


# Name kept from the Fraction elimination: perfbench/tracer.py patches it.
def _det_fraction(m):
    """Determinant of an integer matrix, on a copy, by Bareiss's one-step
    fraction-free elimination (1968): step k sets each trailing entry to
    (p a[i][j] - a[i][k] a[k][j]) / prev for pivot p = a[k][k], a bordered
    minor by Sylvester's identity, so the division is exact.  A zero pivot
    swaps row k with the first later row nonzero in column k, flipping the
    sign; with none the determinant is 0.  The last pivot is the
    determinant.  No symmetry is assumed."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        row_k = a[k]
        pivot = row_k[k]
        for row in a[k + 1:]:
            x = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - x * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def cell_volume(graph: Fatgraph) -> CellVolume:
    """Exact integral of omega^d over the normalized open cell of the graph.

    Positive by convention; the signed Pfaffian is kept alongside.
    """
    form = omega_matrix(graph)
    return _volume(pfaffian(form), len(form) // 2)


def word_pfaffian(word) -> int:
    """The signed Pfaffian of the half-scale form of a one-boundary gap
    word (``_word_omega_matrix``), an integer: the form of
    ``Fatgraph.from_word(word)`` has Pfaffian 2^d times this.  The form
    goes straight to the kernel, with none of ``pfaffian``'s checks: it
    is antisymmetric by construction, as it has only an upper triangle,
    and the census routes compare every cell's Pfaffian with its closed
    value, which sees a wrong form as well as a wrong kernel."""
    return _pfaffian_int(_word_omega_matrix(word))


def word_cell_volume(word) -> CellVolume:
    """``cell_volume(Fatgraph.from_word(word))`` read off the gap word of a
    one-boundary graph of 2d+1 edges, with no graph built: the volume of
    the Pfaffian ``word_pfaffian`` scaled back by 2^d."""
    pf = word_pfaffian(word)
    d = (len(word) - 2) // 4
    return _volume(Fraction(pf * 2 ** d), d)


def _word_omega_matrix(word) -> list:
    """``omega_matrix(Fatgraph.from_word(word))`` divided by 2, as the
    kernel ``_pfaffian_int`` reads it: a list of row lists holding the
    strict upper triangle, with 0 on and below the diagonal.  Each row is
    one comprehension over the later free edges of the gap word
    (``word_pairs``).

    For edges a < b, with slots p1 < p2 and q1 < q2, the raw coefficient
    is 2 ((q1 > p2) + (q2 > p2)) (``_raw_form``), with +2 in the row and
    -2 in the column of the edge in the last slot.
    Eliminating the last edge k gives c[a][b] - c[a][k] + c[b][k], in
    which those two terms cancel, so they are never added.  Every term
    left is even; the form is built without the common factor 2, which
    halves Pf by 2^d and keeps the integers small.

    A form with the edge-k terms' signs flipped keeps every census cell's
    |Pf|, so the census routes miss it; only the form oracles
    ``test_word_form_matches_slot_pairs``,
    ``test_census_word_forms_match_slot_pairs`` and
    ``test_word_cell_volume_matches_graph`` catch it.

    Raises MalformedGraph unless the word pairs its slots, then ValueError
    if it pairs them into an even number of edges.
    """
    ends = word_pairs(word)
    if len(ends) % 2 == 0:
        raise ValueError("cell form needs an odd edge count, got %d"
                         % len(ends))
    k1, k2 = ends.pop()
    # each free edge's slots and its halved raw coefficient against edge k
    edges = [(q1, q2, (k1 > q2) + (k2 > q2)) for q1, q2 in ends]
    return [[0] * (a + 1) + [(q1 > p2) + (q2 > p2) - cka + ckb
                             for q1, q2, ckb in edges[a + 1:]]
            for a, (_, p2, cka) in enumerate(edges)]


def _volume(pf: Fraction, d: int) -> CellVolume:
    """Volume of a cell of dimension 2d whose form has Pfaffian pf."""
    value = Fraction(factorial(d) * abs(pf.numerator),
                     4 ** d * factorial(2 * d) * pf.denominator)
    return CellVolume(value, d, pf)


def hyperelliptic_cell_volume(cell) -> CellVolume:
    """Volume of a doubled-tree cell, computed two independent ways.

    (a) assemble the form of the doubled word ``cell.word``, pull it back
    through the cell embedding ``cell.edge_map`` (fused edges keep the tree
    length, the two copies of an internal edge each get half of it) and
    integrate over the tree simplex (``_pullback``);
    (b) integrate the tree's own form, read off the gaps of
    ``cell.tree_word``, and halve once per dimension, which is the pullback
    scaling of the symplectic form on these cells.

    Both evaluations must agree exactly; for a tree with 2d+1 edges and odd
    valences the common value is d!/(2^d (2d)!).  (a) scales its form to
    integers by ``_integer_form`` and runs the kernel ``_pfaffian_int``
    with no Pf^2 = det check; (b) goes through ``word_cell_volume``.  This
    comparison checks both, and each census route in ``integrals``
    compares the volume with the closed per-cell value as well.
    """
    ct = _pullback(cell)
    m, denominator = _integer_form(_eliminate(ct, len(ct), len(ct) - 1))
    pulled_back = _volume(Fraction(_pfaffian_int(m), denominator),
                          len(m) // 2)
    tree_volume = word_cell_volume(split_flags(cell.tree_word)[0])
    halved = tree_volume.value / 2 ** pulled_back.half_dim
    if pulled_back.value != halved:
        raise AssertionError(
            "pullback volume %s disagrees with half-scaled tree volume %s"
            % (pulled_back.value, halved))
    return pulled_back


def _pullback(cell) -> list:
    """The raw coefficients of the doubled word pulled back to the tree's
    edge lengths (``_raw_form`` through ``cell.edge_map``, whose scale
    factors are ``Fraction``s), as rows, before any edge is eliminated.
    The pullback keeps the last-slot terms; they pull back to multiples of
    (tree edge) ^ (sum of all tree edges), which the elimination of any
    tree edge then cancels.
    """
    num_tree_edges = len(cell.tree_word) // 2
    if num_tree_edges % 2 == 0:
        raise ValueError("tree cell needs an odd edge count")
    return _raw_form(cell.word, cell.edge_map, num_tree_edges)
