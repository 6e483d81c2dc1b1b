"""Planar trees as one-boundary fatgraphs of genus zero.

A planar tree is a fatgraph of type (0, 1); its valence-one vertices are the
leaves and carry the delta flag.  Trees are generated as rooted shapes by
branch decomposition (a rooted tree is a leaf or an internal vertex with an
ordered list of subtrees), then optionally quotiented to unrooted isomorphism
classes by the least rotation of the boundary word.  Rooted trivalent shapes
with m internal vertices are counted by the Catalan number C_m.

A tree is its graph and nothing more: the root of a generated tree is the
leaf at half-edge 0, and its rooted key is the boundary word read from
there.  Generation stops past ``DEFAULT_CAP_LEAVES`` leaves.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import MalformedGraph, ResourceLimit
from .fatgraph import DELTA, Fatgraph

LEAF = "L"

TRIVALENT = "trivalent"
ONE5 = "one5"
MARKED = "marked"

_PROFILES = (TRIVALENT, ONE5, MARKED)

DEFAULT_CAP_LEAVES = 13


class PlanarTree(Fatgraph):
    """Fatgraph of type (0,1) whose valence-1 vertices are delta leaves.

    A tree holds no state beyond its graph.  A rooted tree from
    :func:`build_rooted_tree` has its root leaf at half-edge 0.
    """

    __slots__ = ()

    def __init__(self, sigma, alpha, flags=None):
        super().__init__(sigma, alpha, flags=flags)
        gt = self.graph_type()
        if gt != (0, 1):
            raise MalformedGraph("tree must have type (0,1), got %s" % (gt,))
        if self.num_edges != self.num_vertices - 1:
            raise MalformedGraph("not a tree")

    @property
    def leaf_vertices(self) -> tuple:
        return tuple(v for v, cyc in enumerate(self.vertices)
                     if len(cyc) == 1)

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_vertices)

    @property
    def internal_valences(self) -> tuple:
        return tuple(sorted(len(c) for c in self.vertices if len(c) > 1))

    @property
    def marked_vertices(self) -> tuple:
        """Delta-flagged vertices of valence > 1."""
        return tuple(v for v, cyc in enumerate(self.vertices)
                     if len(cyc) > 1 and self.flags[cyc[0]] == DELTA)

    def rooted_key(self):
        """The boundary word read from half-edge 0, not rotated: for trees
        rooted there (a leaf), equal iff the rooted trees are isomorphic."""
        if self.sigma[0] != 0:
            raise ValueError("half-edge 0 is not at a leaf")
        return self.boundary_word()[1]


# -- rooted shapes ----------------------------------------------------------
#
# A shape is LEAF or a tuple of child shapes (length 2 for a trivalent
# vertex, 4 for a 5-valent one); a marked trivalent vertex is
# ("m", left, right).


@lru_cache(maxsize=None)
def trivalent_shapes(n: int) -> tuple:
    """Shapes of rooted subtrees with n leaves below the root edge."""
    if n == 1:
        return (LEAF,)
    out = []
    for a in range(1, n):
        for left in trivalent_shapes(a):
            for right in trivalent_shapes(n - a):
                out.append((left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def one5_shapes(n: int) -> tuple:
    """Subtree shapes with n leaves, exactly one 5-valent vertex."""
    out = []
    if n >= 4:
        for parts in _compositions(n, 4):
            for kids in _shape_products(parts, trivalent_shapes):
                out.append(kids)
    for a in range(1, n):
        for left in one5_shapes(a):
            for right in trivalent_shapes(n - a):
                out.append((left, right))
        for left in trivalent_shapes(a):
            for right in one5_shapes(n - a):
                out.append((left, right))
    return tuple(out)


@lru_cache(maxsize=None)
def marked_shapes(n: int) -> tuple:
    """Trivalent subtree shapes with n leaves and one marked vertex."""
    out = []
    if n >= 2:
        for a in range(1, n):
            for left in trivalent_shapes(a):
                for right in trivalent_shapes(n - a):
                    out.append(("m", left, right))
            for left in marked_shapes(a):
                for right in trivalent_shapes(n - a):
                    out.append((left, right))
            for left in trivalent_shapes(a):
                for right in marked_shapes(n - a):
                    out.append((left, right))
    return tuple(out)


def odd_valence_shapes(max_edges: int) -> tuple:
    """All rooted subtree shapes with odd internal valences (3, 5, 7, ...)
    and at most ``max_edges`` edges in the completed tree (root edge
    included)."""

    @lru_cache(maxsize=None)
    def exact(e: int) -> tuple:
        # shapes whose subtree has exactly e edges below its top edge
        if e == 0:
            return (LEAF,)
        out = []
        arity = 2
        while arity <= e:
            # each part counts a child's top edge plus its own subtree
            for parts in _compositions(e, arity):
                for kids in _shape_products([x - 1 for x in parts], exact):
                    out.append(kids)
            arity += 2
        return tuple(out)

    shapes = []
    for e in range(max_edges):
        shapes.extend(exact(e))
    return tuple(shapes)


def _compositions(n: int, k: int):
    """Ordered k-tuples of positive integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _shape_products(parts, gen):
    if not parts:
        yield ()
        return
    for head in gen(parts[0]):
        for rest in _shape_products(parts[1:], gen):
            yield (head,) + rest


def build_rooted_tree(shape) -> PlanarTree:
    """Realize a rooted shape as a planar tree fatgraph.

    The root leaf carries half-edge 0.  At each internal vertex the cyclic
    order is (stub toward the root, child 1, ..., child k), children in
    planar left-to-right order.
    """
    cycles = []
    pairs = []
    delta = []
    counter = [0]

    def fresh():
        h = counter[0]
        counter[0] += 1
        return h

    def grow(sub, parent_stub):
        if sub == LEAF:
            h = fresh()
            cycles.append((h,))
            delta.append(h)
            pairs.append((parent_stub, h))
            return
        marked = sub[0] == "m"
        kids = sub[1:] if marked else sub
        top = fresh()
        stubs = [top] + [None] * len(kids)
        # reserve child stubs in cyclic order before recursing
        holders = []
        for i in range(len(kids)):
            stubs[i + 1] = fresh()
            holders.append(stubs[i + 1])
        cycles.append(tuple(stubs))
        if marked:
            delta.append(top)
        pairs.append((parent_stub, top))
        for kid, stub in zip(kids, holders):
            grow(kid, stub)

    root = fresh()
    cycles.append((root,))
    delta.append(root)
    grow(shape, root)
    g = Fatgraph.from_cycles(cycles, pairs, delta=delta)
    return PlanarTree(g.sigma, g.alpha, flags=g.flags)


def _shapes_for(leaf_count: int, profile: str):
    if profile == TRIVALENT:
        return trivalent_shapes(leaf_count - 1)
    if profile == ONE5:
        return one5_shapes(leaf_count - 1)
    if profile == MARKED:
        return marked_shapes(leaf_count - 1)
    raise ValueError("unknown profile %r" % profile)


def rooted_trees(leaf_count: int, profile: str = TRIVALENT):
    """All rooted trees with the given total leaf count (root included)."""
    if profile not in _PROFILES:
        raise ValueError("unknown profile %r" % profile)
    if leaf_count < 2:
        raise ValueError("need at least 2 leaves")
    if leaf_count > DEFAULT_CAP_LEAVES:
        raise ResourceLimit("leaf count %d exceeds cap %d"
                            % (leaf_count, DEFAULT_CAP_LEAVES))
    return [build_rooted_tree(s) for s in _shapes_for(leaf_count, profile)]


def unrooted_trees(leaf_count: int, profile: str = TRIVALENT):
    """Isomorphism classes of unrooted trees, sorted by canonical key; each
    class is represented by its first tree in generation order."""
    classes = {}
    for tree in rooted_trees(leaf_count, profile):
        classes.setdefault(tree.canonical_key(), tree)
    return [classes[k] for k in sorted(classes)]


def odd_valence_trees(max_edges: int):
    """Unrooted trees, all internal valences odd, at most max_edges edges."""
    classes = {}
    for shape in odd_valence_shapes(max_edges):
        if shape == LEAF:
            continue
        t = build_rooted_tree(shape)
        classes.setdefault(t.canonical_key(), t)
    return [classes[k] for k in sorted(classes)]
