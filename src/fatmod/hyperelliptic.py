"""Doubled trees, the hyperelliptic locus and its Witten-cycle intersection.

Gluing two identical copies of a planar tree along corresponding delta cells
produces a one-boundary fatgraph with an order-two automorphism exchanging
the copies: each delta leaf contributes a fused edge fixed by the involution,
and a delta-marked internal vertex of valence v fuses with its mirror into a
single fixed vertex of valence 2v (the involution acting there as the half
rotation).  A tree with 2g+1 delta cells doubles to type (g, 1) and the
involution has 2g+2 fixed cells in total, the boundary cycle included.

Cutting back along the fixed cells halves every fixed edge into two leaf
edges and splits a fixed vertex of valence 2v into two vertices of valence
v+1, one new leaf stub each; the result is two identical planar trees,
read off the boundary word by a walk that jumps across the half-turn at
each cut.  The split of a fixed vertex depends on which antipodal corner
pair is cut, and can differ from the tree that was doubled.

Cell metrics embed tree metrics: a fused edge keeps the tree length, the two
copies of an internal tree edge each carry half of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from . import trees as _trees
from .enumeration import (CensusEntry, OrbifoldCensus, catalan, catalan5,
                          graph_entry)
from .errors import BadLeafCount, NotSymmetric, WrongType
from .fatgraph import Fatgraph, perm_compose
from .trees import PlanarTree

W1_MULTIPLICITY_5VALENT = 2   # two swapped 5-valent vertices per cell
W1_MULTIPLICITY_6VALENT = 3   # three sheets through a fixed 6-valent vertex

_STUB, _LEAF = "stub", "leaf"  # tree slots a cut inserts


@dataclass(frozen=True)
class HyperellipticCell:
    """A doubled tree: the indexing tree, the doubled graph, the copy-swap
    involution, and the linear embedding of tree metrics into graph metrics
    as ``edge_map[doubled edge] = (tree edge, scale factor)``."""

    tree: PlanarTree
    doubled: Fatgraph
    involution: tuple
    edge_map: dict

    @property
    def genus(self) -> int:
        return self.doubled.graph_type().g


@dataclass(frozen=True)
class W1HComponents:
    """The two components of the Witten-cycle intersection with the
    hyperelliptic locus; their transversality multiplicities are
    ``W1_MULTIPLICITY_5VALENT`` and ``W1_MULTIPLICITY_6VALENT``."""

    component1: OrbifoldCensus  # trees with one 5-valent vertex
    component2: OrbifoldCensus  # trivalent trees with one marked vertex


def double_tree(tree: PlanarTree) -> HyperellipticCell:
    """Glue two copies of the tree along its delta cells.

    The tree needs an odd number (>= 3) of delta cells: its leaves plus any
    delta-marked internal vertices.
    """
    leaves = set(tree.leaf_vertices)
    marked = set(tree.marked_vertices)
    delta_cells = len(leaves) + len(marked)
    if delta_cells < 3 or delta_cells % 2 == 0:
        raise BadLeafCount("need an odd number >= 3 of delta cells, got %d"
                           % delta_cells)
    m = tree.num_half_edges
    leaf_stubs = {tree.vertices[v][0] for v in leaves}
    keep = [h for h in range(m) if h not in leaf_stubs]
    # copy 1 keeps compacted tree labels, copy 2 is offset by their count
    relabel = {h: i for i, h in enumerate(keep)}
    off = len(keep)

    cycles = []
    for v, cyc in enumerate(tree.vertices):
        if v in leaves:
            continue
        if v in marked:
            cycles.append(tuple([relabel[h] for h in cyc]
                                + [relabel[h] + off for h in cyc]))
        else:
            cycles.append(tuple(relabel[h] for h in cyc))
            cycles.append(tuple(relabel[h] + off for h in cyc))
    pairs = []
    for p, q in tree.edges:
        if p in leaf_stubs or q in leaf_stubs:
            s = q if p in leaf_stubs else p
            pairs.append((relabel[s], relabel[s] + off))
        else:
            pairs.append((relabel[p], relabel[q]))
            pairs.append((relabel[p] + off, relabel[q] + off))
    doubled = Fatgraph.from_cycles(cycles, pairs)

    iota = tuple((h + off) % (2 * off) for h in range(2 * off))
    doubled._assert_automorphism(iota)
    if perm_compose(iota, iota) != tuple(range(2 * off)):
        raise AssertionError("copy swap is not an involution")

    gt = doubled.graph_type()
    if gt.n != 1 or 2 * gt.g + 1 != delta_cells:
        raise AssertionError("doubled graph has type %s for %d delta cells"
                             % (gt, delta_cells))
    if doubled.fixed_cells(iota).total != 2 * gt.g + 2:
        raise AssertionError("copy swap has the wrong fixed-cell count")

    edge_map = {}
    tree_table = tree._edge_index_table()
    doubled_table = doubled._edge_index_table()
    for p, q in tree.edges:
        te = tree_table[p]
        if p in leaf_stubs or q in leaf_stubs:
            s = q if p in leaf_stubs else p
            edge_map[doubled_table[relabel[s]]] = (te, Fraction(1))
        else:
            edge_map[doubled_table[relabel[p]]] = (te, Fraction(1, 2))
            edge_map[doubled_table[relabel[p] + off]] = (te, Fraction(1, 2))
    return HyperellipticCell(tree, doubled, iota, edge_map)


def cut_along_involution(graph: Fatgraph, involution):
    """Split a hyperelliptic graph along the fixed cells of its involution,
    which must be the half-turn: two planar trees, each the original tree
    for a doubled tree whose delta cells were all leaves.  Every fixed edge
    (gap E) is cut, and at each fixed vertex the antipodal corner pair of
    the first choice, in slot order, whose walk is a side (:func:`_side_word`).

    >>> from fatmod.fatgraph import one_vertex_opposite_pairing
    >>> G = one_vertex_opposite_pairing(1)
    >>> a, b = cut_along_involution(G, G.half_turn())
    >>> a.valences, a.canonical_key() == b.canonical_key()
    ((3, 1, 1, 1), True)
    """
    iota = tuple(involution)
    fixed = graph.fixed_cells(iota)
    gt = graph.graph_type()
    if gt.n != 1:
        raise WrongType("expected a one-boundary graph, got %s" % (gt,))
    if fixed.vertices + fixed.edges != 2 * gt.g + 1:
        raise NotSymmetric("expected %d fixed non-boundary cells, found %d"
                           % (2 * gt.g + 1, fixed.vertices + fixed.edges))
    if iota != graph.half_turn():
        raise NotSymmetric("the involution is not the half-turn")
    boundary, word = graph.boundary_word()
    m = len(word)
    e = m // 2
    gaps = [w % m for w in word]
    slot = {h: i for i, h in enumerate(boundary)}
    # the corner before slot k is turned by the passage k-1 -> k; a fixed
    # vertex holds slots k and k+E, so its slots k < E name its corner pairs
    corner_pairs = sorted(sorted(slot[h] for h in cyc if slot[h] < e)
                          for cyc in graph.vertices if iota[cyc[0]] in cyc)
    for corners in product(*corner_pairs):
        cut = set(corners) | {k + e for k in corners}
        side = _side_word(gaps, cut, 0)
        if side is not None:
            return (PlanarTree.from_word(side),
                    PlanarTree.from_word(_side_word(gaps, cut, e)))
    raise NotSymmetric("no symmetric splitting exists")


def _side_word(gaps, cut, start):
    """Boundary word of the tree on the side of slot ``start``.

    The walk steps i -> i+1 and jumps across the half-turn to i+E+1 after a
    passage through a fixed edge (inserting a delta leaf) or a cut corner
    (``i+1`` in ``cut``, inserting a stub and its leaf); both at once jump
    back.  None unless the walk visits one slot of each antipodal pair and
    both ends of each edge it does not cut.
    """
    m = len(gaps)
    e = m // 2
    walk = []  # per tree slot: a graph slot, _STUB or _LEAF
    pos = {}
    j = start
    while j not in pos:
        pos[j] = len(walk)
        walk.append(j)
        jump = gaps[j] == e
        if jump:
            walk.append(_LEAF)
        if (j + 1) % m in cut:
            walk += [_STUB, _LEAF]
            jump = not jump
        j = (j + 1 + e * jump) % m
    if len(pos) != e or any(k + e in pos for k in pos if k < e):
        return None
    size = len(walk)
    side = []
    for t, j in enumerate(walk):
        if j == _LEAF:  # gap -1 at a delta leaf: size - 1 + size * 1
            side.append(2 * size - 1)
        elif j == _STUB or gaps[j] == e:
            side.append(1)
        elif (j + gaps[j]) % m in pos:
            side.append((pos[(j + gaps[j]) % m] - t) % size)
        else:
            return None
    return side


def cell_entry(tree: PlanarTree) -> CensusEntry:
    """Census entry of the cell indexed by a tree: the doubled graph keyed
    and weighted like any one-boundary census graph, the cell as payload."""
    cell = double_tree(tree)
    return replace(graph_entry(cell.doubled), payload=cell)


def hyperelliptic_descriptor(g: int) -> str:
    """Descriptor of the census built by hyperelliptic_census."""
    return "hyperelliptic g=%d maximal cells" % g


def hyperelliptic_census(g: int) -> OrbifoldCensus:
    """Maximal cells of the genus-g hyperelliptic locus: doubled trivalent
    trees with 2g+1 leaves, weighted by the doubled graph's automorphisms.

    The orbifold count equals C_{2g-1} / (2 (2g+1)).
    """
    return _cell_census(g, 2 * g + 1, _trees.TRIVALENT,
                        hyperelliptic_descriptor(g))


def _cell_census(g, leaf_count, profile, descriptor):
    """The doubled unrooted trees of a profile, each checked to be a
    hyperelliptic cell of genus g, sorted by key."""
    entries = []
    for tree in _trees.unrooted_trees(leaf_count, profile):
        entry = cell_entry(tree)
        if entry.payload.genus != g:
            raise AssertionError("cell has genus %d, wanted %d"
                                 % (entry.payload.genus, g))
        if entry.graph.hyperelliptic_involution() is None:
            raise AssertionError("cell is not hyperelliptic")
        entries.append(entry)
    entries.sort(key=lambda e: e.key)
    return OrbifoldCensus(descriptor, tuple(entries))


def w1_component1_descriptor(g: int) -> str:
    """Descriptor of the census built by w1_component1_census."""
    return "w1-hyperelliptic g=%d component1 (5-valent pair)" % g


def w1_component1_census(g: int) -> OrbifoldCensus:
    """Doubled trees with 2g+1 leaves and one 5-valent vertex; the double
    carries two 5-valent vertices swapped by the involution."""
    if g < 2:
        raise WrongType("intersection components need g >= 2")
    census = _cell_census(g, 2 * g + 1, _trees.ONE5,
                          w1_component1_descriptor(g))
    for entry in census:
        if sorted(entry.graph.valences).count(5) != 2:
            raise AssertionError("component1 cell needs two 5-valent vertices")
    return census


def w1_component2_descriptor(g: int) -> str:
    """Descriptor of the census built by w1_component2_census."""
    return "w1-hyperelliptic g=%d component2 (fixed 6-valent)" % g


def w1_component2_census(g: int) -> OrbifoldCensus:
    """Doubled trivalent trees with 2g leaves and one marked vertex; the
    double carries a single 6-valent vertex fixed by the involution."""
    if g < 2:
        raise WrongType("intersection components need g >= 2")
    census = _cell_census(g, 2 * g, _trees.MARKED,
                          w1_component2_descriptor(g))
    for entry in census:
        if 6 not in entry.graph.valences:
            raise AssertionError("component2 cell needs a 6-valent vertex")
    return census


def w1_intersection_census(g: int) -> W1HComponents:
    """Both components of the intersection of the codimension-2 Witten cycle
    with the genus-g hyperelliptic locus (g >= 2)."""
    return W1HComponents(w1_component1_census(g), w1_component2_census(g))


def count_t1(g: int) -> Fraction:
    """Closed-form orbifold count of component-1 cells:
    C_{5,2g-3} / (2 (2g+1))."""
    if g < 2:
        raise WrongType("g >= 2 required")
    return Fraction(catalan5(2 * g + 1), 2 * (2 * g + 1))


def count_t2(g: int) -> Fraction:
    """Closed-form orbifold count of component-2 cells:
    (g-1) C_{2g-2} / (2g)."""
    if g < 2:
        raise WrongType("g >= 2 required")
    return Fraction((g - 1) * catalan(2 * g - 2), 2 * g)


def full_simplex_involution(graph: Fatgraph):
    """The hyperelliptic involution when it fixes every edge setwise, else
    None (also for graphs not of type (g, 1) with g >= 1).  Such an
    involution survives on every metric, so the whole closed cell lies in
    the hyperelliptic locus."""
    g, n = graph.graph_type()
    if n != 1 or g < 1:
        return None
    iota = graph.hyperelliptic_involution()
    if iota is None or graph.fixed_cells(iota).edges != graph.num_edges:
        return None
    return iota
