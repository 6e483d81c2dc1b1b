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

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .errors import WrongBoundaryCount
from .fatgraph import Fatgraph


@dataclass(frozen=True)
class SkewForm:
    """Antisymmetric coefficient matrix of the cell form in the free edge
    coordinates left after eliminating ``eliminated_edge``."""

    matrix: tuple
    free_edges: tuple
    eliminated_edge: int

    @property
    def dim(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class CellVolume:
    value: Fraction
    half_dim: int
    pf: Fraction  # signed Pfaffian; volumes use its absolute value


def _raw_coefficients(seq, num_edges):
    """Antisymmetric edge-pair coefficients from the boundary slot sequence,
    summing over slot pairs i < j among the first len(seq) - 1 slots."""
    c = [[0] * num_edges for _ in range(num_edges)]
    m = len(seq)
    for i in range(m - 1):
        a = seq[i]
        for j in range(i + 1, m - 1):
            b = seq[j]
            if a != b:
                c[a][b] += 1
                c[b][a] -= 1
    return c


def omega_matrix(graph: Fatgraph, eliminate: int = None) -> SkewForm:
    """Coefficient matrix of the cell form of a one-boundary graph with an
    odd number of edges, in the coordinates that remain after eliminating
    the designated edge (default: the last one)."""
    cycles = graph.boundary_cycles().cycles
    if len(cycles) != 1:
        raise WrongBoundaryCount("expected one boundary cycle, found %d"
                                 % len(cycles))
    num_edges = graph.num_edges
    if num_edges % 2 == 0:
        raise ValueError("cell form needs an odd edge count, got %d"
                         % num_edges)
    if eliminate is None:
        eliminate = num_edges - 1
    if not 0 <= eliminate < num_edges:
        raise ValueError("no edge %d" % eliminate)
    table = graph._edge_index_table()
    seq = [table[h] for h in cycles[0]]
    c = _raw_coefficients(seq, num_edges)
    return _eliminate(c, num_edges, eliminate)


def _eliminate(c, num_edges, eliminate) -> SkewForm:
    free = tuple(e for e in range(num_edges) if e != eliminate)
    k = eliminate
    matrix = tuple(
        tuple(c[a][b] - c[a][k] + c[b][k] for b in free) for a in free)
    return SkewForm(matrix, free, k)


def pfaffian(form) -> Fraction:
    """Exact Pfaffian of a SkewForm (or raw antisymmetric matrix).

    The matrix is scaled to integers by the lcm of its entries' denominators.
    The Pfaffian is computed by memoized expansion along the first remaining
    row, and verified against the Bareiss integer determinant (Pf^2 = det)
    before returning.
    """
    matrix = form.matrix if isinstance(form, SkewForm) else form
    n = len(matrix)
    if n % 2:
        raise ValueError("odd-dimensional antisymmetric matrix")
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != -matrix[j][i]:
                raise ValueError("matrix is not antisymmetric")
    if n == 0:
        return Fraction(1)
    scale = lcm(*(matrix[i][j].denominator
                  for i in range(n) for j in range(i + 1, n)))
    m = [[int(x * scale) for x in row] for row in matrix]
    pf_int = _pfaffian_int(m)
    det = _det_fraction(m)
    if pf_int * pf_int != det:
        raise AssertionError("Pfaffian does not square to the determinant")
    return Fraction(pf_int, scale ** (n // 2))


def _pfaffian_int(m):
    n = len(m)
    memo = {0: 1}

    def pf(mask):
        val = memo.get(mask)
        if val is not None:
            return val
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        row = m[i]
        total = 0
        sign = 1
        mm = rest
        while mm:
            j = (mm & -mm).bit_length() - 1
            bit = 1 << j
            mm ^= bit
            a = row[j]
            if a:
                total += sign * a * pf(rest ^ bit)
            sign = -sign
        memo[mask] = total
        return total

    return pf((1 << n) - 1)


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


def cell_volume(graph: Fatgraph, eliminate: int = None) -> CellVolume:
    """Exact integral of omega^d over the normalized open cell of the graph.

    Positive by convention; the signed Pfaffian is kept alongside.
    """
    form = omega_matrix(graph, eliminate)
    pf = pfaffian(form)
    d = form.dim // 2
    value = Fraction(factorial(d)) * abs(pf) / (2 ** (2 * d)
                                                * factorial(2 * d))
    return CellVolume(value, d, pf)


def hyperelliptic_cell_volume(cell) -> CellVolume:
    """Volume of a doubled-tree cell, computed two independent ways.

    (a) assemble the form on the doubled graph, pull it back through the
    cell embedding (fused edges keep the tree length, the two copies of an
    internal edge each get half of it) and integrate over the tree simplex;
    (b) integrate the tree's own form and halve once per dimension, which is
    the pullback scaling of the symplectic form on these cells.

    Both evaluations must agree exactly; for a tree with 2d+1 edges and odd
    valences the common value is d!/(2^d (2d)!).
    """
    doubled = cell.doubled
    tree = cell.tree
    cycles = doubled.boundary_cycles().cycles
    if len(cycles) != 1:
        raise WrongBoundaryCount("doubled graph must have one boundary cycle")
    num_tree_edges = tree.num_edges
    if num_tree_edges % 2 == 0:
        raise ValueError("tree cell needs an odd edge count")
    table = doubled._edge_index_table()
    seq = [table[h] for h in cycles[0]]
    c = _raw_coefficients(seq, doubled.num_edges)
    ct = [[Fraction(0)] * num_tree_edges for _ in range(num_tree_edges)]
    for x in range(doubled.num_edges):
        ax, fx = cell.edge_map[x]
        row = c[x]
        for y in range(doubled.num_edges):
            if row[y]:
                ay, fy = cell.edge_map[y]
                ct[ax][ay] += fx * fy * row[y]
    form = _eliminate(ct, num_tree_edges, num_tree_edges - 1)
    pf = pfaffian(form)
    d = form.dim // 2
    pulled_back = Fraction(factorial(d)) * abs(pf) / (2 ** (2 * d)
                                                      * factorial(2 * d))
    tree_volume = cell_volume(tree)
    halved = tree_volume.value / 2 ** d
    if pulled_back != halved:
        raise AssertionError(
            "pullback volume %s disagrees with half-scaled tree volume %s"
            % (pulled_back, halved))
    return CellVolume(pulled_back, d, pf)
