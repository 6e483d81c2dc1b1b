"""Fatgraphs as permutation pairs on half-edges.

A fatgraph (ribbon graph) is stored as a pair of permutations of the set
``{0, ..., m-1}`` of half-edges:

- ``sigma``: its cycles are the vertices; within a cycle, the order is the
  counterclockwise cyclic order of half-edges around that vertex;
- ``alpha``: a fixed-point-free involution pairing the two half-edges of
  each geometric edge.

Boundary cycles are the orbits of the face permutation ``phi = sigma o alpha``
(``phi(h) = sigma[alpha[h]]``).  This orientation convention is fixed once
here and consumed unchanged by the volume-form construction.

Vertices may carry a flag: ``"o"`` (ordinary) or ``"d"`` (delta-labeled, may
have valence below three).  Isomorphisms preserve flags.

Every graph the pipeline classifies has one boundary cycle: census graphs of
type (g, 1), planar trees and doubled trees.  Numbering the slots of that
cycle ``0..m-1`` along ``phi``, an isomorphism commutes with ``phi`` and so
is a rotation of the slots.  The *boundary word* of a one-boundary graph
lists, slot by slot, the gap ``pos(alpha h) - i (mod m)`` together with the
flag of the slot's vertex and an optional per-half-edge mark; since
``sigma(h) = phi(alpha h)``, the word alone rebuilds the graph
(:meth:`Fatgraph.from_word`); :func:`word_pairs`, the one pairing check,
numbers a word's edges for every reader.  Its least cyclic rotation
(:func:`least_rotation`) is the canonical key, and the rotations fixing it
are the automorphisms: a cyclic group whose only possible involution is the
half-turn ``phi^E``.  Graphs with more than one boundary cycle have no
canonical form here and raise :class:`WrongBoundaryCount`, a
:class:`WrongType`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import (
    MalformedGraph,
    NotAnAutomorphism,
    NotExpandable,
    WrongBoundaryCount,
    WrongType,
)

ORDINARY = "o"
DELTA = "d"

_FLAGS = (ORDINARY, DELTA)
_FLAG_INDEX = {flag: i for i, flag in enumerate(_FLAGS)}


class GraphType(NamedTuple):
    g: int
    n: int


class FixedCells(NamedTuple):
    vertices: int
    edges: int
    boundary_cycles: int

    @property
    def total(self) -> int:
        return self.vertices + self.edges + self.boundary_cycles


class BoundaryCycles(NamedTuple):
    """Orbits of the face permutation, one per boundary component.

    ``cycles`` lists half-edges in traversal order; each cycle starts at its
    smallest half-edge and cycles are sorted by that smallest element.
    """

    cycles: tuple

    @property
    def n(self) -> int:
        return len(self.cycles)


def _cycles_of(perm: Sequence[int]):
    """Cycles of a permutation, each starting at its minimum, sorted by it."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        h = perm[start]
        while h != start:
            cyc.append(h)
            seen[h] = True
            h = perm[h]
        out.append(tuple(cyc))
    return tuple(out)


def split_flags(word) -> tuple:
    """``(gaps, flags)`` of a word of entries ``gap + m * flag``, flag 0
    (ordinary) or 1 (delta), as :meth:`Fatgraph.boundary_word` writes an
    unmarked graph; MalformedGraph for an entry outside 0..2m-1."""
    m = len(word)
    if any(not 0 <= w < len(_FLAGS) * m for w in word):
        raise MalformedGraph("bad flagged word %r" % (word,))
    return tuple(w % m for w in word), tuple(w // m for w in word)


def word_pairs(word) -> list:
    """The edges ``(p, p + word[p])`` of a gap word by first slot p, as
    ``Fatgraph.from_word(word).edges`` numbers them; MalformedGraph unless
    the word pairs its m > 0 slots: each second slot q holds m - (q - p),
    so it is no first slot and has one partner.

    >>> word_pairs((3, 3, 3, 3, 3, 3))
    [(0, 3), (1, 4), (2, 5)]
    """
    m = len(word)
    pairs = [(p, p + w) for p, w in enumerate(word) if 0 < w < m - p]
    if not m or 2 * len(pairs) != m or \
            any(word[q] != m - q + p for p, q in pairs):
        raise MalformedGraph("gap word %r is not a pairing" % (word,))
    return pairs


def word_vertices(word) -> tuple:
    """``Fatgraph.from_word(word).vertices`` of a gap word: the cycles of
    ``sigma(p) = p + gap + 1`` (mod m), each from its least slot.

    >>> word_vertices((3, 3, 3, 3, 3, 3))
    ((0, 4, 2), (1, 5, 3))
    """
    m = len(word)
    return _cycles_of([(p + w + 1) % m for p, w in enumerate(word)])


def least_rotation(word):
    """``(start, period)``: ``word[start:] + word[:start]`` is the least
    rotation of the word, at its first start, and the rotations fixing the
    word are the multiples of ``period``, a divisor of len(word).

    Only rotations that start at the least entry can be least; the scan
    compares those in order against the least so far.  The first one equal
    to it is a repeat, at the period, and every later one repeats one
    already seen; with no repeat, the period is len(word).

    >>> least_rotation((2, 1, 3, 1)), least_rotation((1, 2, 1, 2))
    ((3, 4), (0, 2))
    """
    low = min(word)
    start = i = word.index(low)
    best = word[i:] + word[:i]
    while True:
        try:
            i = word.index(low, i + 1)
        except ValueError:
            return start, len(word)
        rotated = word[i:] + word[:i]
        if rotated == best:
            return start, i - start
        if rotated < best:
            start, best = i, rotated


class Fatgraph:
    """Immutable fatgraph; all operations return new instances.

    Examples::

        >>> theta = Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
        ...                              [(0, 3), (1, 5), (2, 4)])
        >>> theta.graph_type()
        GraphType(g=0, n=3)
        >>> torus = Fatgraph.from_cycles([(0, 1, 2), (3, 4, 5)],
        ...                              [(0, 3), (1, 4), (2, 5)])
        >>> torus.graph_type()
        GraphType(g=1, n=1)
    """

    __slots__ = ("sigma", "alpha", "flags", "_vertices", "_edges", "_key")

    def __init__(self, sigma, alpha, flags=None):
        self.sigma = tuple(sigma)
        self.alpha = tuple(alpha)
        m = len(self.sigma)
        if flags is None:
            self.flags = (ORDINARY,) * m
        else:
            self.flags = tuple(flags)
        self._vertices = None
        self._edges = None
        self._key = None
        self._check()

    @classmethod
    def from_cycles(cls, vertex_cycles, edge_pairs, delta=()) -> "Fatgraph":
        """Build from explicit vertex cycles and edge pairs.

        ``delta`` is an iterable of half-edges; the vertex containing such
        a half-edge gets the delta flag.
        """
        m = sum(len(c) for c in vertex_cycles)
        sigma = [None] * m
        flags = [ORDINARY] * m
        delta = set(delta)
        for cyc in vertex_cycles:
            flag = DELTA if any(h in delta for h in cyc) else ORDINARY
            for i, h in enumerate(cyc):
                if not (0 <= h < m) or sigma[h] is not None:
                    raise MalformedGraph("vertex cycles are not a permutation "
                                         "of 0..%d" % (m - 1))
                sigma[h] = cyc[(i + 1) % len(cyc)]
                flags[h] = flag
        alpha = [None] * m
        for a, b in edge_pairs:
            if alpha[a] is not None or alpha[b] is not None or a == b:
                raise MalformedGraph("edge pairs are not a perfect matching")
            alpha[a] = b
            alpha[b] = a
        if any(x is None for x in alpha):
            raise MalformedGraph("unpaired half-edge")
        return cls(sigma, alpha, flags=flags)

    @classmethod
    def from_word(cls, word) -> "Fatgraph":
        """The graph whose boundary word read from half-edge 0 is ``word``,
        the inverse of :meth:`boundary_word`: slot i is half-edge i, with
        ``alpha`` read by :func:`word_pairs` and ``sigma(j) = alpha(j) + 1``
        (mod m, the word's length).

        >>> torus = Fatgraph.from_word((3, 3, 3, 3, 3, 3))
        >>> torus.graph_type()
        GraphType(g=1, n=1)
        >>> torus.canonical_key() == (3, 3, 3, 3, 3, 3)
        True
        """
        gaps, flags = split_flags(word)
        alpha = [0] * len(word)
        for p, q in word_pairs(gaps):
            alpha[p], alpha[q] = q, p
        return cls([(a + 1) % len(word) for a in alpha], alpha,
                   flags=[_FLAGS[f] for f in flags])

    # -- validation ------------------------------------------------------

    def _check(self):
        m = len(self.sigma)
        if m == 0 or m % 2:
            raise MalformedGraph("half-edge count must be positive and even")
        if sorted(self.sigma) != list(range(m)) or len(self.alpha) != m or \
                sorted(self.alpha) != list(range(m)):
            raise MalformedGraph("sigma and alpha must be permutations of "
                                 "the same half-edge set")
        for h in range(m):
            if self.alpha[h] == h or self.alpha[self.alpha[h]] != h:
                raise MalformedGraph("alpha is not a fixed-point-free "
                                     "involution")
        if len(self.flags) != m or any(f not in _FLAGS for f in self.flags):
            raise MalformedGraph("bad vertex flags")
        for cyc in self.vertices:
            fl = {self.flags[h] for h in cyc}
            if len(fl) != 1:
                raise MalformedGraph("flag not constant on a vertex")
            if fl == {ORDINARY} and len(cyc) < 3:
                raise MalformedGraph("ordinary vertex of valence < 3")
        # connectivity under the group generated by sigma and alpha
        seen = [False] * m
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            h = stack.pop()
            for nxt in (self.sigma[h], self.alpha[h]):
                if not seen[nxt]:
                    seen[nxt] = True
                    count += 1
                    stack.append(nxt)
        if count != m:
            raise MalformedGraph("graph is not connected")

    # -- basic structure -------------------------------------------------

    @property
    def num_half_edges(self) -> int:
        return len(self.sigma)

    @property
    def num_edges(self) -> int:
        return len(self.sigma) // 2

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = _cycles_of(self.sigma)
        return self._vertices

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> tuple:
        """Edges as sorted half-edge pairs, ordered by smaller half-edge."""
        if self._edges is None:
            self._edges = tuple(sorted((h, self.alpha[h])
                                       for h in range(len(self.sigma))
                                       if h < self.alpha[h]))
        return self._edges

    def _edge_index_table(self):
        table = [0] * self.num_half_edges
        for i, (a, b) in enumerate(self.edges):
            table[a] = table[b] = i
        return table

    @property
    def valences(self) -> tuple:
        return tuple(len(c) for c in self.vertices)

    # -- boundary cycles, type -------------------------------------------

    def boundary_cycles(self) -> BoundaryCycles:
        phi = tuple(self.sigma[self.alpha[h]]
                    for h in range(self.num_half_edges))
        return BoundaryCycles(_cycles_of(phi))

    def graph_type(self) -> GraphType:
        # V - E + n = 2 - 2g is even, as sgn sigma sgn alpha = sgn phi,
        # and at most 2, as ``_check`` refuses a disconnected graph
        n = self.boundary_cycles().n
        return GraphType((2 - self.num_vertices + self.num_edges - n) // 2, n)

    # -- expansions -------------------------------------------------------

    def expansions(self, v: int, up_to_isomorphism: bool = True):
        """All expansions of vertex ``v`` into trees of valence >= 3.

        One entry ``(graph, new_edges)`` per way of splitting the vertex,
        i.e. per dissection of a convex polygon whose sides are the stubs of
        ``v``; with ``up_to_isomorphism`` the list is deduplicated by
        isomorphism respecting the set of new edges.  ``new_edges`` is a
        frozenset of edge indices of the result; collapsing them recovers
        this graph.
        """
        stubs = self.vertices[v]
        k = len(stubs)
        if k <= 3:
            raise NotExpandable("vertex of valence %d" % k)
        out = []
        seen = set()
        for diagonals in _noncrossing_diagonal_sets(k):
            graph, new_edges = self._expand_at(v, diagonals)
            if up_to_isomorphism:
                marks = [0] * graph.num_half_edges
                for e in new_edges:
                    a, b = graph.edges[e]
                    marks[a] = marks[b] = 1
                key = graph.canonical_key(extra=tuple(marks))
                if key in seen:
                    continue
                seen.add(key)
            out.append((graph, frozenset(new_edges)))
        return out

    def _expand_at(self, v: int, diagonals):
        stubs = self.vertices[v]
        k = len(stubs)
        faces = [list(range(k))]
        for a, b in diagonals:
            for idx, face in enumerate(faces):
                if a in face and b in face:
                    ia, ib = face.index(a), face.index(b)
                    if ia > ib:
                        ia, ib = ib, ia
                    faces[idx] = face[ia:ib + 1]
                    faces.append(face[ib:] + face[:ia + 1])
                    break
            else:
                raise AssertionError("crossing diagonals")
        m = self.num_half_edges
        half_of = {}  # (a, b) ordered corner pair -> new half-edge id
        for t, (a, b) in enumerate(sorted(diagonals)):
            half_of[(a, b)] = m + 2 * t
            half_of[(b, a)] = m + 2 * t + 1
        new_cycles = []
        for face in faces:
            cyc = []
            r = len(face)
            for t in range(r):
                c0, c1 = face[t], face[(t + 1) % r]
                if (c0 + 1) % k == c1:
                    cyc.append(stubs[c0])
                else:
                    cyc.append(half_of[(c0, c1)])
            new_cycles.append(tuple(cyc))
        cycles = [c for c in self.vertices if c != stubs] + new_cycles
        pairs = list(self.edges) + [(m + 2 * t, m + 2 * t + 1)
                                    for t in range(len(diagonals))]
        delta = [h for h in range(m) if self.flags[h] == DELTA
                 and h not in stubs]
        if self.flags[stubs[0]] == DELTA:
            delta += [c[0] for c in new_cycles]
        graph = Fatgraph.from_cycles(cycles, pairs, delta=delta)
        table = graph._edge_index_table()
        new_edges = sorted(table[m + 2 * t] for t in range(len(diagonals)))
        return graph, new_edges

    # -- canonical form and automorphisms ---------------------------------

    def boundary_word(self, extra=None):
        """The boundary cycle read from half-edge 0, and its word.

        Returns ``(boundary, word)``: ``boundary[i]`` is the half-edge in
        slot i of the cycle ``phi``, and ``word[i]`` encodes the slot's gap
        ``pos(alpha h) - i (mod m)``, the flag of its vertex and the optional
        mark ``extra[h]`` (a non-negative integer) as
        ``gap + m * (flag index + 2 * mark)``.  Unflagged, unmarked graphs
        get the plain gap word.  Raises WrongBoundaryCount unless the
        graph has exactly one boundary cycle.
        """
        sigma, alpha = self.sigma, self.alpha
        m = len(sigma)
        boundary = [0]
        h = sigma[alpha[0]]
        while h != 0:
            boundary.append(h)
            h = sigma[alpha[h]]
        if len(boundary) != m:
            raise WrongBoundaryCount("expected one boundary cycle, got %d"
                                     % self.boundary_cycles().n)
        pos = [0] * m
        for i, h in enumerate(boundary):
            pos[h] = i
        word = []
        for i, h in enumerate(boundary):
            code = _FLAG_INDEX[self.flags[h]]
            if extra is not None:
                code += len(_FLAGS) * extra[h]
            word.append((pos[alpha[h]] - i) % m + m * code)
        return tuple(boundary), tuple(word)

    def canonical_key(self, extra=None):
        """Least rotation of the boundary word; equal keys iff isomorphic
        (flags and the optional per-half-edge ``extra`` marks respected).
        One-boundary graphs only."""
        if extra is None and self._key is not None:
            return self._key
        word = self.boundary_word(extra)[1]
        k = least_rotation(word)[0]
        key = word[k:] + word[:k]
        if extra is None:
            self._key = key
        return key

    def automorphisms(self):
        """All half-edge permutations commuting with sigma and alpha and
        preserving flags, for a one-boundary graph.

        Each is a rotation of the boundary: a rotation by r slots that fixes
        the boundary word maps ``boundary[i]`` to ``boundary[i + r]``.
        """
        boundary, word = self.boundary_word()
        period = least_rotation(word)[1]
        auts = [_rotate(boundary, r)
                for r in range(0, len(boundary), period)]
        for a in auts:
            self._assert_automorphism(a)
        return auts

    def aut_order(self) -> int:
        return len(self.automorphisms())

    def half_turn(self):
        """The half-turn ``phi^E`` when it is an automorphism, else None.

        The automorphism group of a one-boundary graph is cyclic, so this
        is its only possible involution.
        """
        boundary, word = self.boundary_word()
        e = len(word) // 2
        if word[e:] + word[:e] != word:
            return None
        return _rotate(boundary, e)

    def _assert_automorphism(self, a):
        m = self.num_half_edges
        if sorted(a) != list(range(m)):
            raise NotAnAutomorphism("not a permutation")
        for h in range(m):
            if a[self.sigma[h]] != self.sigma[a[h]] or \
                    a[self.alpha[h]] != self.alpha[a[h]]:
                raise NotAnAutomorphism("does not commute with the graph")
            if self.flags[a[h]] != self.flags[h]:
                raise NotAnAutomorphism("does not preserve flags")

    def fixed_cells(self, a) -> FixedCells:
        """Counts of vertices, edges and boundary cycles mapped to themselves
        setwise by the automorphism ``a``."""
        self._assert_automorphism(a)
        fv = sum(1 for cyc in self.vertices
                 if frozenset(a[h] for h in cyc) == frozenset(cyc))
        fe = sum(1 for (p, q) in self.edges if {a[p], a[q]} == {p, q})
        fb = sum(1 for cyc in self.boundary_cycles().cycles
                 if frozenset(a[h] for h in cyc) == frozenset(cyc))
        return FixedCells(fv, fe, fb)

    def hyperelliptic_involution(self):
        """The order-2 automorphism with 2g+2 fixed cells, or None.

        Only defined for graphs of type (g, 1) with g >= 1, whose only
        candidate is the half-turn.
        """
        g, n = self.graph_type()
        if n != 1 or g < 1:
            raise WrongType("expected type (g,1) with g >= 1, got (%d,%d)"
                            % (g, n))
        iota = self.half_turn()
        if iota is None or self.fixed_cells(iota).total != 2 * g + 2:
            return None
        return iota

    # -- equality --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Fatgraph):
            return NotImplemented
        return (self.sigma, self.alpha, self.flags) == \
            (other.sigma, other.alpha, other.flags)

    def __hash__(self):
        return hash((self.sigma, self.alpha, self.flags))

    def __repr__(self):
        return "Fatgraph(%r, %r)" % (list(self.sigma), list(self.alpha))


def _rotate(boundary, r: int) -> tuple:
    """The permutation sending boundary[i] to boundary[i + r]."""
    m = len(boundary)
    perm = [0] * m
    for i, h in enumerate(boundary):
        perm[h] = boundary[(i + r) % m]
    return tuple(perm)


def _noncrossing_diagonal_sets(k: int):
    """All nonempty sets of pairwise noncrossing diagonals of a convex k-gon.

    Corners are 0..k-1; a diagonal is a pair (a, b), b - a >= 2, not the
    closing side (0, k-1).
    """
    diagonals = [(a, b) for a in range(k) for b in range(a + 2, k)
                 if not (a == 0 and b == k - 1)]

    def crosses(d1, d2):
        (a, b), (c, d) = d1, d2
        return (a < c < b < d) or (c < a < d < b)

    out = []

    def grow(start, chosen):
        for i in range(start, len(diagonals)):
            d = diagonals[i]
            if any(crosses(d, c) for c in chosen):
                continue
            chosen.append(d)
            out.append(tuple(chosen))
            grow(i + 1, chosen)
            chosen.pop()

    grow(0, [])
    return out


# -- reference graphs ------------------------------------------------------

def one_vertex_opposite_pairing(g: int) -> Fatgraph:
    """One vertex of valence 4g, the two ends of each edge opposite in the
    cyclic order.  Any metric admits the half-turn involution, which fixes
    the vertex, all 2g edges and the single boundary cycle."""
    m = 4 * g
    return Fatgraph.from_cycles([tuple(range(m))],
                                [(i, i + 2 * g) for i in range(2 * g)])


def two_vertex_star_double(g: int) -> Fatgraph:
    """Two vertices of valence 2g+1 joined by 2g+1 parallel edges in the
    rotation pattern whose thickening has a single boundary cycle; collapsing
    any edge yields :func:`one_vertex_opposite_pairing`."""
    k = 2 * g + 1
    return Fatgraph.from_cycles([tuple(range(k)), tuple(range(k, 2 * k))],
                                [(i, k + i) for i in range(k)])
