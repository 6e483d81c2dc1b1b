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
v+1, one new leaf stub each; the result is two identical planar trees.

Cell metrics embed tree metrics: a fused edge keeps the tree length, the two
copies of an internal tree edge each carry half of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import trees as _trees
from .enumeration import (CensusEntry, OrbifoldCensus, catalan, catalan5,
                          graph_entry)
from .errors import BadLeafCount, NotSymmetric, WrongType
from .fatgraph import Fatgraph, perm_compose
from .trees import PlanarTree

W1_MULTIPLICITY_5VALENT = 2   # two swapped 5-valent vertices per cell
W1_MULTIPLICITY_6VALENT = 3   # three sheets through a fixed 6-valent vertex


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
    hyperelliptic locus, with their transversality multiplicities."""

    component1: OrbifoldCensus  # trees with one 5-valent vertex
    component2: OrbifoldCensus  # trivalent trees with one marked vertex
    multiplicity1: int = W1_MULTIPLICITY_5VALENT
    multiplicity2: int = W1_MULTIPLICITY_6VALENT


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
    """Split a hyperelliptic graph along the fixed cells of its involution.

    Returns two planar trees; for a doubled tree whose delta cells were all
    leaves, both are isomorphic to the original tree.
    """
    iota = tuple(involution)
    graph._assert_automorphism(iota)
    gt = graph.graph_type()
    if gt.n != 1:
        raise WrongType("expected a one-boundary graph, got %s" % (gt,))
    fixed_edges = [e for e, (p, q) in enumerate(graph.edges)
                   if {iota[p], iota[q]} == {p, q}]
    fixed_vertices = [v for v, cyc in enumerate(graph.vertices)
                      if frozenset(iota[h] for h in cyc) == frozenset(cyc)]
    if len(fixed_edges) + len(fixed_vertices) != 2 * gt.g + 1:
        raise NotSymmetric("expected %d fixed non-boundary cells, found %d"
                           % (2 * gt.g + 1,
                              len(fixed_edges) + len(fixed_vertices)))

    colors = _two_sides(graph, iota, fixed_edges, fixed_vertices)
    tree0 = _side_tree(graph, colors, 0, fixed_edges, fixed_vertices)
    tree1 = _side_tree(graph, colors, 1, fixed_edges, fixed_vertices)
    return tree0, tree1


def _two_sides(graph, iota, fixed_edges, fixed_vertices):
    """2-color half-edges so the copies of the quotient tree are the color
    classes: same color across non-fixed edges and around non-fixed
    vertices, opposite colors under the involution, and each fixed vertex
    split into two complementary contiguous arcs."""
    m = graph.num_half_edges
    fixed_edge_set = set(fixed_edges)
    fixed_vertex_set = set(fixed_vertices)
    relations = []  # (a, b, parity); parity 1 means opposite colors
    for h in range(m):
        relations.append((h, iota[h], 1))
    for e, (p, q) in enumerate(graph.edges):
        if e not in fixed_edge_set:
            relations.append((p, q, 0))
    for v, cyc in enumerate(graph.vertices):
        if v not in fixed_vertex_set:
            for i, h in enumerate(cyc):
                relations.append((h, cyc[(i + 1) % len(cyc)], 0))

    def solve(extra):
        color = [-1] * m
        adj = [[] for _ in range(m)]
        for a, b, parity in relations + extra:
            adj[a].append((b, parity))
            adj[b].append((a, parity))
        for seed in range(m):
            if color[seed] != -1:
                continue
            color[seed] = 0
            stack = [seed]
            while stack:
                h = stack.pop()
                for other, parity in adj[h]:
                    want = color[h] ^ parity
                    if color[other] == -1:
                        color[other] = want
                        stack.append(other)
                    elif color[other] != want:
                        return None
        return color

    # try the cyclic arc positions at each fixed vertex, first hit wins
    choices = [graph.vertices[v] for v in fixed_vertices]

    def attempt(idx, extra):
        if idx == len(choices):
            return solve(extra)
        cyc = choices[idx]
        half = len(cyc) // 2
        for start in range(half):
            arc = [cyc[(start + i) % len(cyc)] for i in range(half)]
            added = [(arc[i], arc[i + 1], 0) for i in range(half - 1)]
            result = attempt(idx + 1, extra + added)
            if result is not None:
                return result
        return None

    colors = attempt(0, [])
    if colors is None:
        raise NotSymmetric("no symmetric splitting exists")
    return colors


def _side_tree(graph, colors, side, fixed_edges, fixed_vertices):
    fixed_edge_set = set(fixed_edges)
    fixed_vertex_set = set(fixed_vertices)
    cycles = []
    pairs = []
    delta = []
    fresh = [graph.num_half_edges]

    def new_stub():
        fresh[0] += 1
        return fresh[0] - 1

    kept = []
    for v, cyc in enumerate(graph.vertices):
        if v in fixed_vertex_set:
            mine = [h for h in cyc if colors[h] == side]
            # contiguous arc in cyclic order; rotate so it is consecutive
            k = len(cyc)
            start = None
            for i, h in enumerate(cyc):
                if colors[h] == side and colors[cyc[(i - 1) % k]] != side:
                    start = i
                    break
            arc = [cyc[(start + i) % k] for i in range(len(mine))]
            if sorted(arc) != sorted(mine):
                raise NotSymmetric("fixed vertex does not split into arcs")
            cut = new_stub()
            leaf = new_stub()
            cycles.append(tuple(arc) + (cut,))
            cycles.append((leaf,))
            delta.append(leaf)
            pairs.append((cut, leaf))
            kept.extend(arc)
        elif colors[cyc[0]] == side:
            cycles.append(cyc)
            kept.extend(cyc)
    for e, (p, q) in enumerate(graph.edges):
        if e in fixed_edge_set:
            h = p if colors[p] == side else q
            leaf = new_stub()
            cycles.append((leaf,))
            delta.append(leaf)
            pairs.append((h, leaf))
        elif colors[p] == side:
            pairs.append((p, q))
    used = sorted({h for cyc in cycles for h in cyc})
    relabel = {h: i for i, h in enumerate(used)}
    cycles = [tuple(relabel[h] for h in cyc) for cyc in cycles]
    pairs = [(relabel[a], relabel[b]) for a, b in pairs]
    delta = [relabel[h] for h in delta]
    g = Fatgraph.from_cycles(cycles, pairs, delta=delta)
    return PlanarTree(g.sigma, g.alpha, flags=g.flags)


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
    entries = sorted(map(cell_entry, _trees.unrooted_trees(
        2 * g + 1, _trees.TRIVALENT)), key=lambda e: e.key)
    return OrbifoldCensus(hyperelliptic_descriptor(g), tuple(entries))


def _component_census(g, leaf_count, profile, descriptor):
    entries = []
    for tree in _trees.unrooted_trees(leaf_count, profile):
        entry = cell_entry(tree)
        if entry.payload.genus != g:
            raise AssertionError("component cell has genus %d, wanted %d"
                                 % (entry.payload.genus, g))
        if max(entry.graph.valences) < 5:
            raise AssertionError("component cell misses the Witten locus")
        if entry.graph.hyperelliptic_involution() is None:
            raise AssertionError("component cell is not hyperelliptic")
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
    census = _component_census(g, 2 * g + 1, _trees.ONE5,
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
    census = _component_census(g, 2 * g, _trees.MARKED,
                               w1_component2_descriptor(g))
    for entry in census:
        if 6 not in entry.graph.valences:
            raise AssertionError("component2 cell needs a 6-valent vertex")
    return census


def w1_intersection_census(g: int) -> W1HComponents:
    """Both components of the intersection of the codimension-2 Witten cycle
    with the genus-g hyperelliptic locus (g >= 2), with multiplicities."""
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
    """An order-2 automorphism with 2g+2 fixed cells fixing every edge
    setwise, or None.  Such an involution survives on every metric, so the
    whole closed cell lies in the hyperelliptic locus.  The half-turn is
    the only candidate."""
    gt = graph.graph_type()
    if gt.n != 1:
        return None
    iota = graph.half_turn()
    if iota is None:
        return None
    fc = graph.fixed_cells(iota)
    if fc.total == 2 * gt.g + 2 and fc.edges == graph.num_edges:
        return iota
    return None
