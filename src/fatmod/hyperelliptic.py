"""Doubled trees, the hyperelliptic locus and its Witten-cycle intersection.

Gluing two identical copies of a planar tree along corresponding delta cells
produces a one-boundary fatgraph with an order-two automorphism exchanging
the copies: each delta leaf contributes a fused edge fixed by the involution,
and a delta-marked internal vertex of valence v fuses with its mirror into a
single fixed vertex of valence 2v (the involution acting there as the half
rotation).  A tree with 2g+1 delta cells doubles to type (g, 1) and the
involution has 2g+2 fixed cells in total, the boundary cycle included.
A tree and its cell are both their boundary words: the doubled word is
the tree's boundary word walked twice (:func:`double_tree`), so the copy
swap is its half-turn, checked on the word, and the cell enters its
census by that word (``enumeration.word_entry``).  A cell holds no data
beyond its tree word, so a cell census is built from the keys of the
tree census it doubles, builds no graph, and is never cached itself.

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

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .enumeration import (ALL, OrbifoldCensus, tree_closed_count,
                          vertex_profile, word_entry)
from .errors import BadLeafCount, MalformedGraph, NotSymmetric, WrongType
from .fatgraph import (Fatgraph, least_rotation, split_flags, word_pairs,
                       word_vertices)
from .trees import MARKED, ONE5, PlanarTree

W1_MULTIPLICITY_5VALENT = 2   # two swapped 5-valent vertices per cell
W1_MULTIPLICITY_6VALENT = 3   # three sheets through a fixed 6-valent vertex

_STUB, _LEAF = "stub", "leaf"  # tree slots a cut inserts


class HyperellipticCell(NamedTuple):
    """A doubled tree: the tree's flagged boundary word, the doubled gap
    word, and the embedding of tree metrics into graph metrics as
    ``edge_map[e] = (tree edge, scale factor)`` per edge e of the doubled
    word, both words' edges numbered by first slot (as ``Fatgraph.from_word``
    numbers them).  The doubled graph is built on read.
    """

    tree_word: tuple
    word: tuple
    edge_map: tuple

    @property
    def doubled(self) -> Fatgraph:
        return Fatgraph.from_word(self.word)


class W1HComponents(NamedTuple):
    """The two components of the Witten-cycle intersection with the
    hyperelliptic locus; their transversality multiplicities are
    ``W1_MULTIPLICITY_5VALENT`` and ``W1_MULTIPLICITY_6VALENT``."""

    component1: OrbifoldCensus  # trees with one 5-valent vertex
    component2: OrbifoldCensus  # trivalent trees with one marked vertex


def double_tree(word) -> HyperellipticCell:
    """Glue two copies of a tree along its delta cells, given any rotation
    of the tree's flagged boundary word.

    The tree needs an odd number (>= 3) of delta cells: its leaves (gap
    m - 1) and marked vertices (delta-flagged, valence > 1).  The doubled
    boundary walks the word twice, switching copy at each leaf slot (which
    it skips) and before the first slot of each marked vertex, as
    :func:`_side_word` jumps across the half-turn; so the copy swap is the
    half-turn, which must fix 2g + 2 cells: the gap-E edges, the vertices
    closed under +E and the boundary.

    Raises MalformedGraph unless the word is a tree's, as
    ``PlanarTree.from_word`` checks: it pairs its slots (``word_pairs``,
    which numbers both words' edges), the flag is constant on every
    vertex, V = E + 1, and every ordinary vertex has valence >= 3.
    """
    gaps, delta = split_flags(word)
    m = len(word)
    tree_edge = [0] * m
    for edge, (p, q) in enumerate(word_pairs(gaps)):
        tree_edge[p] = tree_edge[q] = edge
    tree_vertices = word_vertices(gaps)
    if len(tree_vertices) != m // 2 + 1 or any(
            len({delta[p] for p in cycle}) > 1
            or not delta[cycle[0]] and len(cycle) < 3
            for cycle in tree_vertices):
        raise MalformedGraph("%r is not the word of a planar tree" % (word,))
    leaf = [gap == m - 1 for gap in gaps]
    switch = {cycle[0] for cycle in tree_vertices
              if len(cycle) > 1 and delta[cycle[0]]}
    delta_cells = sum(leaf) + len(switch)
    if delta_cells < 3 or delta_cells % 2 == 0:
        raise BadLeafCount("need an odd number >= 3 of delta cells, got %d"
                           % delta_cells)

    # one pass over the word switches copy an odd number of times, so the
    # walk covers both copies: per doubled slot, (tree slot, copy).  It
    # starts after a leaf, as on a contour word: over the g <= 4 cells the
    # pullback has 17% fewer nonzero raw terms than from a key's first slot.
    walk = []
    pos = {}
    state = ((leaf.index(True) + 1) % m, 0)
    while state not in pos:
        pos[state] = len(walk)
        walk.append(state)
        j, copy = state
        j = (j + 1) % m
        if leaf[j]:
            j, copy = (j + 1) % m, 1 - copy
        if j in switch:
            copy = 1 - copy
        state = (j, copy)
    size = len(walk)
    fused = [leaf[(j + gaps[j]) % m] for j in range(m)]
    doubled_word = []
    for t, (j, copy) in enumerate(walk):
        # a fused edge joins a slot to its own mirror
        partner = (j, 1 - copy) if fused[j] else ((j + gaps[j]) % m, copy)
        doubled_word.append((pos[partner] - t) % size)

    e = size // 2
    vertices = word_vertices(doubled_word)
    fixed = (doubled_word[:e].count(e) + 1
             + sum((cycle[0] + e) % size in cycle for cycle in vertices))
    # 2g + 2 fixed cells and 2g + 1 delta cells, as V - E + 1 = 2 - 2g
    if doubled_word[e:] + doubled_word[:e] != doubled_word or \
            not fixed == e + 3 - len(vertices) == delta_cells + 1:
        raise AssertionError("the copy swap of the doubled tree is not a "
                             "hyperelliptic involution")
    # per doubled edge, by its first slot t: the edge of tree slot walk[t]
    slots = [walk[t][0] for t, _ in word_pairs(doubled_word)]
    edge_map = tuple((tree_edge[j],
                      Fraction(1) if fused[j] else Fraction(1, 2))
                     for j in slots)
    return HyperellipticCell(tuple(word), tuple(doubled_word), edge_map)


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
    e = len(word) // 2
    gaps = split_flags(word)[0]
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


def hyperelliptic_descriptor(g: int) -> str:
    """Descriptor of the census built by hyperelliptic_census."""
    return "hyperelliptic g=%d maximal cells" % g


def hyperelliptic_census(g: int, trees: OrbifoldCensus) -> OrbifoldCensus:
    """Maximal cells of the genus-g hyperelliptic locus: the doubles of the
    census ``trees`` of unrooted trivalent trees with 2g+1 leaves, weighted
    by the doubled graph's automorphisms.

    The orbifold count equals C_{2g-1} / (2 (2g+1)).
    """
    return _cell_census(g, trees, hyperelliptic_descriptor(g))


def _cell_census(g, trees, descriptor):
    """The doubles of the keys of a census of unrooted trees, each entered
    by its doubled word as a class of the all-valence census of genus g,
    with the cell as payload, sorted by key."""
    entries = []
    for entry in trees:
        cell = double_tree(entry.key)
        k = least_rotation(cell.word)[0]
        entries.append(word_entry(cell.word[k:] + cell.word[:k], g, ALL)
                       ._replace(payload=cell))
    entries.sort(key=lambda e: e.key)
    return OrbifoldCensus(descriptor, tuple(entries))


def w1_component1_descriptor(g: int) -> str:
    """Descriptor of the census built by w1_component1_census."""
    return "w1-hyperelliptic g=%d component1 (5-valent pair)" % g


def w1_component1_census(g: int, trees: OrbifoldCensus) -> OrbifoldCensus:
    """The doubles of the census ``trees`` of unrooted trees with 2g+1
    leaves and one 5-valent vertex; each double carries two 5-valent
    vertices swapped by the involution."""
    if g < 2:
        raise WrongType("intersection components need g >= 2")
    census = _cell_census(g, trees, w1_component1_descriptor(g))
    if any(vertex_profile(e.key).count(5) != 2 for e in census):
        raise AssertionError("component1 cell needs two 5-valent vertices")
    return census


def w1_component2_descriptor(g: int) -> str:
    """Descriptor of the census built by w1_component2_census."""
    return "w1-hyperelliptic g=%d component2 (fixed 6-valent)" % g


def w1_component2_census(g: int, trees: OrbifoldCensus) -> OrbifoldCensus:
    """The doubles of the census ``trees`` of unrooted trivalent trees with
    2g leaves and one marked vertex; each double carries a single 6-valent
    vertex fixed by the involution."""
    if g < 2:
        raise WrongType("intersection components need g >= 2")
    census = _cell_census(g, trees, w1_component2_descriptor(g))
    if any(6 not in vertex_profile(e.key) for e in census):
        raise AssertionError("component2 cell needs a 6-valent vertex")
    return census


def count_t1(g: int) -> Fraction:
    """Closed-form orbifold count of component-1 cells, half the count of
    their trees: C_{5,2g-3} / (2 (2g+1))."""
    if g < 2:
        raise WrongType("g >= 2 required")
    return tree_closed_count(2 * g + 1, ONE5, "unrooted") / 2


def count_t2(g: int) -> Fraction:
    """Closed-form orbifold count of component-2 cells, half the count of
    their trees: (g-1) C_{2g-2} / (2g)."""
    if g < 2:
        raise WrongType("g >= 2 required")
    return tree_closed_count(2 * g, MARKED, "unrooted") / 2
