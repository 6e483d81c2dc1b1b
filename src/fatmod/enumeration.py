"""Exhaustive censuses of fatgraph isomorphism classes with automorphism
orders, supporting exact orbifold-weighted sums.

Each census kind has one entry function that turns an object into its
:class:`CensusEntry` (key and automorphism order): :func:`graph_entry` for
one-boundary graphs, :func:`tree_entry` for unrooted trees, and
``hyperelliptic.cell_entry`` for doubled trees.  The builders and the cache
loader both call it, so a census has the same keys however it was obtained.

Every census holds one-boundary graphs, keyed by the least rotation of their
boundary word (``Fatgraph.canonical_key``).  They are enumerated through that
word: a fatgraph of type (g, 1) with E edges is the same thing as a
fixed-point-free involution ``alpha`` of the cyclic set Z_{2E} of boundary
slots, with the vertex permutation recovered as
``sigma(p) = alpha(p) + 1 (mod 2E)``.  Rotating the slots is exactly an
isomorphism, so the gap sequence ``(alpha(p) - p mod 2E)_p`` classifies
graphs up to isomorphism by its least cyclic rotation, and the automorphism
group is the rotation stabilizer.
Generation backtracks over pairings with vertex-valence closure propagation
and is orderly (Read 1978; McKay 1998): a partial pairing is cut as soon as
some rotation of its known gap word is already smaller, so only canonical
representatives, each its own least rotation, are emitted, one per class.

Census kinds with a known count have a closed orbifold count beside their
descriptor function (:func:`fatgraph_closed_count`,
:func:`tree_closed_count`); these read no census.  Types (g, n) with n > 1
have no census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import trees as _trees
from .errors import MalformedGraph, ResourceLimit, WrongType
from .fatgraph import ORDINARY, Fatgraph, least_rotation

DEFAULT_CAP_EDGES = 15          # trivalent / single-k censuses (genus <= 3)
DEFAULT_CAP_EDGES_ALL = 9       # all-valence censuses (genus <= 2)
DEFAULT_CAP_LEAVES = 13

TRIVALENT = "trivalent"
ALL = "all"


def catalan(m: int) -> int:
    """Rooted trivalent planar trees with m internal vertices.

    >>> [catalan(m) for m in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if m < 0:
        raise ValueError(m)
    return math.comb(2 * m, m) // (m + 1)


def catalan5(k: int) -> int:
    """Rooted planar trees with k leaves, one 5-valent vertex, rest
    trivalent.

    >>> catalan5(6)
    6
    >>> catalan5(5)
    1
    """
    if k < 5:
        raise ValueError(k)
    return math.comb(2 * k - 6, k - 5)


@dataclass(frozen=True)
class CensusEntry:
    key: tuple
    graph: Fatgraph
    aut_order: int
    payload: object = None


@dataclass(frozen=True)
class OrbifoldCensus:
    """A complete list of isomorphism classes matching a filter, with
    automorphism orders; keys are pairwise distinct and entries sorted."""

    descriptor: str
    entries: tuple

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def orbifold_sum(self, weight: Optional[Callable] = None) -> Fraction:
        """Sum of weight(entry)/aut_order over all classes, exact."""
        total = Fraction(0)
        for entry in self.entries:
            w = Fraction(1) if weight is None else Fraction(weight(entry))
            total += w / entry.aut_order
        return total

    def without(self, index: int) -> "OrbifoldCensus":
        """Copy with one entry removed (fault injection for tests)."""
        kept = self.entries[:index] + self.entries[index + 1:]
        return OrbifoldCensus(self.descriptor + " [mutated]", kept)

    def with_aut_order(self, index: int, aut_order: int) -> "OrbifoldCensus":
        e = self.entries[index]
        mutated = CensusEntry(e.key, e.graph, aut_order, e.payload)
        entries = (self.entries[:index] + (mutated,)
                   + self.entries[index + 1:])
        return OrbifoldCensus(self.descriptor + " [mutated]", entries)


# -- the one-boundary census -------------------------------------------------

def canonical_gap_word(alpha) -> tuple:
    """Rotation-canonical form of a one-boundary pairing."""
    m = len(alpha)
    gaps = tuple((alpha[p] - p) % m for p in range(m))
    k = least_rotation(gaps)
    return gaps[k:] + gaps[:k]


def graph_entry(graph: Fatgraph) -> CensusEntry:
    """Census entry of an unflagged one-boundary graph.

    The key is the least rotation of the gap sequence read along the boundary
    cycle ``phi = sigma o alpha``; automorphisms commute with ``phi``, so
    |Aut| is the rotation stabilizer of that word.
    """
    if graph.boundary_cycles().n != 1 or \
            any(f != ORDINARY for f in graph.flags):
        raise MalformedGraph("expected an unflagged one-boundary graph")
    return CensusEntry(graph.canonical_key(), graph, graph.aut_order())


def _pairings_with_cycle_lengths(num_edges: int, budgets=None,
                                 num_cycles: int = None,
                                 min_len: int = 3):
    """Pairings of Z_{2E} whose sigma-cycles have prescribed lengths, one
    per rotation class: those whose gap sequence is its own least rotation.

    ``budgets``: exact multiset as {length: count}; or pass ``num_cycles``
    for "num_cycles cycles, each of length >= min_len".  Returns alpha
    tuples.
    """
    m = 2 * num_edges
    alpha = [-1] * m
    gap = [-1] * m     # alpha[p] - p mod m where defined; gaps are >= 1
    fwd = [-1] * m     # t(p) = alpha[p] + 1 where defined
    bwd = [-1] * m
    exact = budgets is not None
    if exact:
        budget = dict(budgets)
        if sum(l * c for l, c in budget.items()) != m:
            return []
        cycles_left = sum(budget.values())
        max_len = max(l for l, c in budget.items() if c > 0)
    else:
        budget = {}
        cycles_left = num_cycles
        max_len = 0
    closed_nodes = 0
    results = []

    def head_of(p):
        while bwd[p] != -1:
            p = bwd[p]
        return p

    def tail_of(p):
        q = p
        while fwd[q] != -1:
            q = fwd[q]
            if q == p:
                return None  # closed cycle
        return q

    def path_len(p):
        n = 1
        q = p
        while bwd[q] != -1:
            q = bwd[q]
            if q == p:
                return n  # cycle length
            n += 1
        q = p
        while fwd[q] != -1:
            q = fwd[q]
            n += 1
        return n

    def assign(p, q, trail):
        """Pair p with q; returns False on contradiction.  All state changes
        are recorded on trail for rollback."""
        nonlocal cycles_left, closed_nodes, max_len
        alpha[p] = q
        alpha[q] = p
        gap[p] = (q - p) % m
        gap[q] = (p - q) % m
        trail.append(("a", p, q))
        for a, b in ((p, (q + 1) % m), (q, (p + 1) % m)):
            # add link t(a) = b
            if a == b:
                return False  # cycle of length 1
            if head_of(a) == b:
                # closes the cycle b -> ... -> a -> b
                length = path_len(a)
                if exact:
                    if budget.get(length, 0) <= 0:
                        return False
                    budget[length] -= 1
                    if length == max_len and budget[length] == 0:
                        trail.append(("m", max_len))
                        avail = [l for l, c in budget.items() if c > 0]
                        max_len = max(avail) if avail else 0
                    trail.append(("b", length))
                else:
                    if length < min_len or cycles_left == 0:
                        return False
                cycles_left -= 1
                closed_nodes += length
                trail.append(("c", length))
            fwd[a] = b
            bwd[b] = a
            trail.append(("l", a, b))
        # overlength and forced-closure propagation on both touched paths
        if exact:
            cap = max_len
        else:
            cap = (m - closed_nodes) - min_len * (cycles_left - 1)
        forced = None
        for seed in (p, q):
            t = tail_of(seed)
            if t is None:
                continue  # closed into a cycle, budget already checked
            length = path_len(seed)
            if length > cap:
                return False
            if exact and length == cap:
                closer = (head_of(seed) - 1) % m
                if closer == t:
                    return False
                if alpha[t] == -1 and alpha[closer] == -1:
                    if forced is None:
                        forced = []
                    forced.append((t, closer))
                elif alpha[t] != closer:
                    return False
        if forced:
            for a, b in forced:
                if alpha[a] == -1 and alpha[b] == -1:
                    if not assign(a, b, trail):
                        return False
                elif alpha[a] != b:
                    return False
        return True

    def undo(trail, mark):
        nonlocal cycles_left, closed_nodes, max_len
        while len(trail) > mark:
            rec = trail.pop()
            kind = rec[0]
            if kind == "a":
                alpha[rec[1]] = gap[rec[1]] = -1
                alpha[rec[2]] = gap[rec[2]] = -1
            elif kind == "l":
                fwd[rec[1]] = -1
                bwd[rec[2]] = -1
            elif kind == "b":
                budget[rec[1]] += 1
            elif kind == "m":
                max_len = rec[1]
            else:
                cycles_left += 1
                closed_nodes -= rec[1]

    def rotation_is_smaller():
        """True when some rotation of the gap word is already smaller than
        the word itself, whatever the unassigned slots become.  Each pair
        is compared up to the first slot unknown in either."""
        for r in range(1, m):
            j = r
            for i in range(m):
                x, y = gap[i], gap[j]
                if x < 0 or y < 0 or y > x:
                    break
                if y < x:
                    return True
                j = j + 1 if j + 1 < m else 0
        return False

    def search():
        p = 0
        while p < m and alpha[p] != -1:
            p += 1
        if p == m:
            if cycles_left == 0:
                results.append(tuple(alpha))
            return
        trail = []
        for q in range(p + 1, m):
            if alpha[q] != -1:
                continue
            mark = len(trail)
            if assign(p, q, trail) and not rotation_is_smaller():
                search()
            undo(trail, mark)

    search()
    return results


def _one_boundary_census(g, valence_filter, cap_edges):
    words = set()

    def run(num_edges, budgets=None, num_cycles=None):
        if num_edges > cap_edges:
            raise ResourceLimit(
                "census needs %d edges, cap is %d" % (num_edges, cap_edges))
        m = 2 * num_edges
        for alpha in _pairings_with_cycle_lengths(
                num_edges, budgets=budgets, num_cycles=num_cycles):
            word = canonical_gap_word(alpha)
            if word != tuple((alpha[p] - p) % m for p in range(m)):
                raise AssertionError("search emitted a non-canonical pairing")
            if word in words:
                raise AssertionError("search emitted a class twice")
            words.add(word)

    if valence_filter == ALL:
        if 6 * g - 3 > cap_edges:
            raise ResourceLimit("census needs %d edges, cap is %d"
                                % (6 * g - 3, cap_edges))
        # V - E + 1 = 2 - 2g over all edge counts up to the trivalent top
        for num_edges in range(2 * g, 6 * g - 2):
            num_vertices = num_edges + 1 - 2 * g
            if num_vertices >= 1:
                run(num_edges, num_cycles=num_vertices)
    else:
        if valence_filter == TRIVALENT:
            num_edges = 6 * g - 3
            budgets = {3: 4 * g - 2}
        else:
            k = valence_filter[1]
            # 2E = k + 3(V-1) and V = E + 1 - 2g force E = 6g - k
            num_edges = 6 * g - k
            num_vertices = num_edges + 1 - 2 * g
            if num_edges < 1 or num_vertices < 1:
                return ()
            budgets = ({k: 1, 3: num_vertices - 1} if k != 3
                       else {3: num_vertices})
        run(num_edges, budgets=budgets)

    out = []
    for word in sorted(words):
        m = len(word)
        alpha = tuple((p + word[p]) % m for p in range(m))
        sigma = tuple((alpha[p] + 1) % m for p in range(m))
        entry = graph_entry(Fatgraph(sigma, alpha))
        if entry.key != word:
            raise AssertionError("boundary word disagrees with gap word")
        out.append(entry)
    return tuple(out)


def fatgraph_descriptor(g: int, n: int, valence_filter) -> str:
    """Descriptor of the census built by enumerate_fatgraphs; it also names
    the census's cache file."""
    return "fatgraphs g=%d n=%d filter=%s" % (
        g, n, valence_filter if isinstance(valence_filter, str)
        else "single%d" % valence_filter[1])


def fatgraph_closed_count(g: int, n: int,
                          valence_filter) -> Optional[Fraction]:
    """Closed orbifold count sum(1/|Aut|) of the census built by
    enumerate_fatgraphs, read off no census; None where no formula is known.

    Trivalent one-face maps: the Walsh-Lehman rooted count
    2(6g-3)!/(12^g g!(3g-2)!) over the 2E rootings of each map.

    >>> fatgraph_closed_count(2, 1, TRIVALENT)
    Fraction(35, 6)
    """
    if n != 1 or valence_filter != TRIVALENT:
        return None
    f = math.factorial
    rooted = 2 * f(6 * g - 3) // (12 ** g * f(g) * f(3 * g - 2))
    return Fraction(rooted, 2 * (6 * g - 3))


def enumerate_fatgraphs(g: int, n: int, valence_filter=TRIVALENT,
                        cap_edges: Optional[int] = None) -> OrbifoldCensus:
    """Census of fatgraph isomorphism classes of type (g, 1), g >= 1.

    ``valence_filter`` is ``"trivalent"``, ``"all"`` (valences >= 3), or
    ``("single", k)`` for one k-valent vertex, k >= 3, among trivalent ones.
    Raises WrongType for any other type and ResourceLimit when the
    required edge count exceeds the cap.
    """
    if n != 1 or g < 1:
        raise WrongType("censuses need type (g,1) with g >= 1, got (%d,%d)"
                        % (g, n))
    if valence_filter not in (TRIVALENT, ALL) and valence_filter[1] < 3:
        raise WrongType("a single k-valent vertex needs k >= 3, got %d"
                        % valence_filter[1])
    if cap_edges is None:
        cap_edges = (DEFAULT_CAP_EDGES_ALL if valence_filter == ALL
                     else DEFAULT_CAP_EDGES)
    return OrbifoldCensus(fatgraph_descriptor(g, n, valence_filter),
                          _one_boundary_census(g, valence_filter, cap_edges))


def tree_descriptor(leaf_count: int, profile: str, rooting: str) -> str:
    """Descriptor of the census built by enumerate_trees."""
    return "trees leaves=%d profile=%s rooting=%s" % (leaf_count, profile,
                                                      rooting)


def tree_closed_count(leaf_count: int, profile: str,
                      rooting: str) -> Fraction:
    """Closed orbifold count of the census built by enumerate_trees.

    Rooted trees have trivial automorphism groups, so the count is the
    number of rooted trees: C_{L-2}, catalan5(L) and (L-2) C_{L-2} for the
    three profiles.  An unrooted class is rooted at each of its L leaves
    L/|Aut| ways, so the unrooted count is the rooted one over L.

    >>> tree_closed_count(3, _trees.TRIVALENT, "unrooted")
    Fraction(1, 3)
    """
    if profile == _trees.TRIVALENT:
        rooted = catalan(leaf_count - 2)
    elif profile == _trees.ONE5:
        rooted = catalan5(leaf_count) if leaf_count >= 5 else 0
    elif profile == _trees.MARKED:
        rooted = (leaf_count - 2) * catalan(leaf_count - 2)
    else:
        raise ValueError("unknown profile %r" % profile)
    return Fraction(rooted, 1 if rooting == "rooted" else leaf_count)


def tree_entry(tree) -> CensusEntry:
    """Census entry of an unrooted planar tree."""
    return CensusEntry(tree.canonical_key(), tree, tree.aut_order())


def enumerate_trees(leaf_count: int, profile: str = _trees.TRIVALENT,
                    rooting: str = "unrooted",
                    cap_leaves: int = DEFAULT_CAP_LEAVES) -> OrbifoldCensus:
    """Census of planar trees with the given leaf count and valence profile.

    Profiles: ``trivalent``, ``one5`` (one 5-valent vertex) and ``marked``
    (trivalent with one delta-marked internal vertex).  Rooted trees carry a
    distinguished leaf and have trivial automorphism group.
    """
    if leaf_count > cap_leaves:
        raise ResourceLimit("leaf count %d exceeds cap %d"
                            % (leaf_count, cap_leaves))
    descriptor = tree_descriptor(leaf_count, profile, rooting)
    if rooting == "rooted":
        entries = tuple(
            CensusEntry(tree.rooted_key(), tree, 1)
            for tree in _trees.rooted_trees(leaf_count, profile, cap_leaves))
    elif rooting == "unrooted":
        entries = tuple(map(tree_entry, _trees.unrooted_trees(
            leaf_count, profile, cap_leaves)))
    else:
        raise ValueError("rooting must be 'rooted' or 'unrooted'")
    return OrbifoldCensus(descriptor, entries)


def euler_characteristic(g: int,
                         cap_edges: Optional[int] = None) -> Fraction:
    """Alternating orbifold sum over the all-valence (g, 1) census.

    The sign is (-1) raised to the dimension of the normalized open cell,
    i.e. (-1)**(E-1); with this convention the g = 1 value is -1/12.
    """
    census = enumerate_fatgraphs(g, 1, ALL, cap_edges=cap_edges)
    total = Fraction(0)
    for entry in census:
        sign = -1 if entry.graph.num_edges % 2 == 0 else 1
        total += Fraction(sign, entry.aut_order)
    return total
