"""Planar trees as one-boundary fatgraphs of genus zero.

A planar tree is a fatgraph of type (0, 1); its valence-one vertices are the
leaves and carry the delta flag.  One recursion, :func:`_shapes`, gives the
rooted shapes of every valence profile by branch decomposition (a rooted
tree is a leaf or an internal vertex with an ordered list of subtrees).
Rooted trivalent shapes with m internal vertices number C_m (Catalan).

A tree is its boundary word.  Each shape is first its contour word, the
word read from its root leaf, which is the rooted key.  Unrooted classes
are found among the words (:func:`_classes`): one rotation scan gives a
class's key and |Aut|, so a tree census builds no tree, and
:func:`unrooted_trees` builds only the first word, in shape order, of each
class.  Generation stops past ``DEFAULT_CAP_LEAVES`` leaves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product

from .errors import MalformedGraph, ResourceLimit
from .fatgraph import Fatgraph, least_rotation

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
        # type (0, 1) is V - E + 1 = 2: connected with E = V - 1, a tree
        gt = self.graph_type()
        if gt != (0, 1):
            raise MalformedGraph("tree must have type (0,1), got %s" % (gt,))


# -- rooted shapes ----------------------------------------------------------
#
# A shape is LEAF or a tuple of child shapes (length 2 for a trivalent
# vertex, 4 for a 5-valent one); a marked trivalent vertex is
# ("m", left, right).


@lru_cache(maxsize=None)
def _shapes(n: int, profile: str) -> tuple:
    """Shapes of rooted subtrees with n leaves below the root edge.  A one5
    or marked subtree has its special vertex at the top (for one5, all such
    shapes come first) or in one child of a trivalent top vertex."""
    if n == 1:
        return (LEAF,) if profile == TRIVALENT else ()
    out = []
    if profile == ONE5:
        for parts in _compositions(n, 4):
            out += product(*(_shapes(p, TRIVALENT) for p in parts))
    for a in range(1, n):
        left, right = _shapes(a, TRIVALENT), _shapes(n - a, TRIVALENT)
        if profile == TRIVALENT:
            out += product(left, right)
            continue
        if profile == MARKED:
            out += (("m",) + kids for kids in product(left, right))
        out += product(_shapes(a, profile), right)
        out += product(left, _shapes(n - a, profile))
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
        for arity in range(2, e + 1, 2):
            # each part counts a child's top edge plus its own subtree
            for parts in _compositions(e, arity):
                out += product(*(exact(x - 1) for x in parts))
        return tuple(out)

    return tuple(chain.from_iterable(map(exact, range(max_edges))))


def _compositions(n: int, k: int):
    """Ordered k-tuples of positive integers summing to n, in lex order."""
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _contour_word(shape) -> tuple:
    """The contour word of a rooted shape: the boundary word of its planar
    tree read from the root leaf at slot 0.

    The contour enters each subtree through the stub it hangs from, walks
    its children left to right (each from its own stub), and leaves through
    the subtree's stub toward the root, the partner of the stub it came in
    by.  So at each internal vertex the cyclic order is (stub toward the
    root, child 1, ..., child k), and half-edge i of the tree that
    ``PlanarTree.from_word`` builds is slot i of the contour.
    """
    partner, delta = [], []  # per contour slot

    def hang(sub, flag):
        # the slot of a stub at a vertex flagged ``flag``, then sub below it
        stub = len(partner)
        partner.append(None)
        delta.append(flag)
        if sub == LEAF:
            top = True
        else:
            top = sub[0] == "m"  # the flag of sub's top vertex
            for kid in sub[1:] if top else sub:
                hang(kid, top)
        partner[stub] = len(partner)
        partner.append(stub)
        delta.append(top)

    hang(shape, True)  # the root leaf
    m = len(partner)
    return tuple((p - i) % m + m * d
                 for i, (p, d) in enumerate(zip(partner, delta)))


def build_rooted_tree(shape) -> PlanarTree:
    """Realize a rooted shape as a planar tree fatgraph, written from its
    contour word, so its root leaf is half-edge 0.

    >>> build_rooted_tree((LEAF, (LEAF, LEAF))).boundary_word()[1]
    (19, 1, 19, 5, 1, 19, 1, 19, 5, 1)
    """
    return PlanarTree.from_word(_contour_word(shape))


def _contour_words(leaf_count: int, profile: str):
    """The contour words of all rooted trees with the given total leaf
    count (root included), in shape order."""
    if profile not in _PROFILES:
        raise ValueError("unknown profile %r" % profile)
    if leaf_count < 2:
        raise ValueError("need at least 2 leaves")
    if leaf_count > DEFAULT_CAP_LEAVES:
        raise ResourceLimit("leaf count %d exceeds cap %d"
                            % (leaf_count, DEFAULT_CAP_LEAVES))
    return map(_contour_word, _shapes(leaf_count - 1, profile))


def rooted_trees(leaf_count: int, profile: str = TRIVALENT):
    """All rooted trees with the given total leaf count (root included)."""
    return list(map(PlanarTree.from_word,
                    _contour_words(leaf_count, profile)))


def _classes(words):
    """The isomorphism classes among the given contour words, sorted by
    canonical key (the least rotation of a word): per class, its key, its
    first word in the given order and |Aut|, 2E over the key's rotation
    period."""
    classes = {}
    for word in words:
        k, period = least_rotation(word)
        key = word[k:] + word[:k]
        classes.setdefault(key, (key, word, len(word) // period))
    return [classes[key] for key in sorted(classes)]


def unrooted_trees(leaf_count: int, profile: str = TRIVALENT):
    """Isomorphism classes of unrooted trees with the given leaf count."""
    return [PlanarTree.from_word(word) for _, word, _ in
            _classes(_contour_words(leaf_count, profile))]


def odd_valence_trees(max_edges: int):
    """Unrooted trees, all internal valences odd, at most max_edges edges."""
    return [PlanarTree.from_word(word) for _, word, _ in
            _classes(_contour_word(shape)
                     for shape in odd_valence_shapes(max_edges)
                     if shape != LEAF)]
