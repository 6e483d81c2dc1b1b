"""Exhaustive censuses of fatgraph isomorphism classes with automorphism
orders, supporting exact orbifold-weighted sums.

Every census class is a one-boundary graph, so it enters its census by
its boundary word.  A fatgraph of type (g, 1) with E edges is the same
thing as a fixed-point-free involution ``alpha`` of the cyclic set Z_{2E}
of boundary slots, with ``sigma(p) = alpha(p) + 1 (mod 2E)``.  Rotating
the slots is exactly an isomorphism, so the gap word
``(alpha(p) - p mod 2E)_p`` classifies graphs by its least rotation, the
key, and |Aut| is the rotation stabilizer, 2E over the rotation period.
:func:`word_entry` reads both off one scan (``fatgraph.least_rotation``)
and checks the word against the census.  No entry stores a graph;
``CensusEntry.graph`` builds the key's on each read.  Only fatgraph
censuses are cached.  One path turns canonical words into a fatgraph
census, :func:`word_census`, which checks their key order and enters each
by :func:`word_entry`: the search, the collapse and the cache loader all
take it, so a census has the same keys however it was obtained.  Tree
censuses are read off contour words (``trees._classes``),
and ``hyperelliptic`` enters each doubled tree by :func:`word_entry` on
its doubled word, as a class of the all-valence census of its genus.

There is one search, :func:`enumerate_fatgraphs`, and it builds only the
trivalent census (E = 6g - 3, every sigma-cycle of length three).  It
pairs the least unpaired slot with each later one in turn.  The links
t(p) = alpha(p) + 1 made so far form open paths and closed 3-cycles, the
vertices.  The search state is the gap word ``gap``, -1 at each unpaired
slot, and, at both endpoints of each open path, its other endpoint
(``end``) and its slot count (``size``), so a pair is linked and checked
in O(1) with no path walked.  A path of three slots is closed as soon as
it forms (forced closure): its tail is paired with the slot before its
head.  One pairing step makes a pair and every closure it forces, from a
worklist that starts with the pair; each pair taken from it sets both
gaps and adds its two links in one loop, which pushes the closing pair
of each path of three slots it makes.  A pair whose first slot is
already paired must agree with its gap, and a pair of a slot with itself
or with a paired slot fails the step.  Each node copies the state once
and restores it by slice assignment after each try.  Two cuts keep the
search small:

* a pair whose links would make a path longer than three slots, or close
  one shorter, is skipped before anything is written;
* the search is orderly (Read 1978; McKay 1998): a least rotation starts
  with its least entry, so a partial pairing is cut as soon as a known gap
  is below gap[0], or a rotation that starts with gap[0] is already
  smaller than the word over the slots known in both.

So only canonical gap words, each its own least rotation, are yielded,
one per class, in key order, and :func:`word_census` enters them as the
search finds them, with no list of words beside the census.

Every other census is :func:`collapse_closure` of a trivalent census, as
every cell of the ribbon graph complex is a face of a top cell: collapsing
a non-loop edge deletes its two slots from the word (:func:`collapse_word`).
The all-valence census is the union of the levels E = 6g-3 .. 2g, and
("single", k) is level E = 6g - k, each step collapsing only edges at the
one non-trivalent vertex.  So :func:`check_edge_cap` reads 6g - 3 edges,
and bounds the classes of each census a build holds by its closed count.
Only ``Workspace.fatgraph_census``, the one door to every fatgraph census,
checks a filter (:func:`fatgraph_filter`) and runs the search or closure.

Closed counts read no census.  Each vertex profile that a fatgraph census
holds (:func:`fatgraph_profiles`, also the membership rule of
:func:`word_entry`) has its rooted count (:func:`rooted_one_face_count`),
which ``Workspace.fatgraph_census`` checks every census against;
:func:`fatgraph_closed_count` and :func:`tree_closed_count` give the
orbifold counts.  Types (g, n) with n > 1 have no census, so the census
functions take only g.
"""

from __future__ import annotations

import collections
import functools
import math
from decimal import Decimal
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import trees as _trees
from .errors import MalformedGraph, ResourceLimit, WrongType
from .fatgraph import Fatgraph, least_rotation, word_pairs, word_vertices

DEFAULT_CAP_EDGES = 15          # trivalent / single-k censuses (genus <= 3)
DEFAULT_CAP_EDGES_ALL = 9       # all-valence censuses (genus <= 2)
# classes a census may hold: every census of genus <= 3 (the all-valence
# one holds 345,038) and the trivalent census of genus 4 (1,349,005)
MAX_CENSUS_CLASSES = 2_000_000

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


class CensusEntry(NamedTuple):
    """One class of a census: its key, |Aut| and an optional payload (a
    fatgraph class's vertex profile, a doubled tree's cell).  It holds no
    graph: ``graph`` builds ``Fatgraph.from_word(key)`` on each read."""

    key: tuple
    aut_order: int
    payload: object = None

    @property
    def graph(self):
        return Fatgraph.from_word(self.key)


class OrbifoldCensus:
    """A complete list of isomorphism classes matching a filter, with
    automorphism orders; keys are pairwise distinct and entries sorted."""

    __slots__ = ("descriptor", "entries")

    def __init__(self, descriptor: str, entries: tuple):
        self.descriptor = descriptor
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def orbifold_sum(self, weight: Optional[Callable] = None) -> Fraction:
        """Sum of weight(entry)/aut_order over all classes, exact; with no
        weight, the orbifold count.  Weights (ints or Fractions) are added
        per |Aut|, and one ``Fraction`` is formed per distinct order."""
        totals = collections.Counter()
        for entry in self.entries:
            totals[entry.aut_order] += 1 if weight is None else weight(entry)
        return sum((Fraction(total) / aut for aut, total in totals.items()),
                   Fraction(0))


# -- the one-boundary census -------------------------------------------------

def canonical_gap_word(gaps) -> tuple:
    """The least rotation of the gap word ``gaps``, its class's key."""
    k = least_rotation(gaps)[0]
    return tuple(gaps[k:] + gaps[:k])


def _trivalent_pairings(num_edges: int):
    """Pairings of Z_{2E} whose sigma-cycles all have length three, one per
    rotation class: those whose gap word is its own least rotation.
    Yields those canonical gap words, in key order, one at each leaf.

    The search pairs the least unpaired slot p with each later q in turn.
    A pair sets both gaps (``gap``, -1 at an unpaired slot) and adds the
    links t(p) = q + 1 and t(q) = p + 1 of ``t = alpha + 1``, the vertex
    permutation; the links form open paths, and cycles that are vertices.
    Each open path keeps its other endpoint (``end``) and its slot count
    (``size``) at both its endpoints, so a link joins two paths or closes
    one in O(1).  A path of three slots is closed at once: its tail is
    paired with the slot before its head.  One pairing step, ``assign``,
    makes a pair and every pair it forces: a worklist starts with the
    pair, and each pair taken from it is checked, sets both gaps, and
    adds its two links in one loop, which pushes the closing pair of each
    path of three slots it makes.  Each node snapshots the three arrays
    once and restores them by slice assignment after each try.
    """
    m = 2 * num_edges
    gap = [-1] * m     # -1 at an unpaired slot; gaps are >= 1
    end = list(range(m))
    size = [1] * m

    def assign(p, q):
        """Pair p with q and every pair that this forces; False on a
        contradiction, leaving the arrays to be restored.  A path
        h -> .. -> t of three slots closes by t(t) = h, that is by pairing
        t with h - 1, so each link that makes one pushes (t, h - 1) onto
        the worklist of pairs still to make."""
        todo = [(p, q)]
        while todo:
            p, q = todo.pop()
            if gap[p] != -1:
                # paired earlier in this step: it must be this same pair
                if gap[p] != (q - p) % m:
                    return False
                continue
            if p == q or gap[q] != -1:
                return False
            gp = gap[p] = q - p if q > p else q - p + m
            gq = gap[q] = m - gp
            # a least rotation starts with its least gap
            g0 = gap[0]
            if gp < g0 or gq < g0:
                return False
            # the link a -> b joins the path ending at a to the one that
            # starts at b, or closes them if they are one path
            for a, b in ((p, q + 1), (q, p + 1)):
                if b == m:
                    b = 0
                h = end[a]
                if h == b:
                    if size[a] != 3:
                        return False
                    continue
                t = end[b]
                n = size[a] + size[b]
                if n > 3:
                    return False
                end[h] = t
                end[t] = h
                size[h] = size[t] = n
                if n == 3:
                    todo.append((t, h - 1 if h else m - 1))
        return True

    def rotation_is_smaller():
        """True when some rotation of the gap word is already smaller than
        the word itself, whatever the unpaired slots become.  ``assign``
        keeps every known gap at least gap[0], so only rotations that
        start with gap[0] are compared, each up to the first slot unknown
        in either."""
        g0 = gap[0]
        r = 0
        while True:
            try:
                r = gap.index(g0, r + 1)
            except ValueError:
                return False
            i, j = 1, r + 1
            while i < m:
                if j == m:
                    j = 0
                x, y = gap[i], gap[j]
                if x < 0 or y < 0 or y > x:
                    break
                if y < x:
                    return True
                i += 1
                j += 1

    def search():
        try:
            p = gap.index(-1)
        except ValueError:
            yield tuple(gap)
            return
        saved = gap[:], end[:], size[:]
        # gaps below gap[0] are cut: q - p >= gap[0] and m - (q - p) >=
        # gap[0], and at the root gap[0] = q is at most m - q
        if p:
            lo, hi = p + gap[0], min(m, m + p - gap[0] + 1)
        else:
            lo, hi = 1, num_edges + 1
        b2 = p + 1 if p + 1 < m else 0
        for q in range(lo, hi):
            if gap[q] != -1:
                continue
            # skip a q whose links p -> q + 1 or q -> p + 1 would make a
            # path longer than three slots, or close one shorter; paths
            # only grow, so the sizes before the pair decide
            b1 = q + 1 if q + 1 < m else 0
            if end[p] == b1:
                if size[p] != 3:
                    continue
            elif size[p] + size[b1] > 3:
                continue
            if end[q] == b2:
                if size[q] != 3:
                    continue
            elif size[q] + size[b2] > 3:
                continue
            if assign(p, q) and not rotation_is_smaller():
                yield from search()
            gap[:], end[:], size[:] = saved

    yield from search()


def collapse_word(word, slot) -> tuple:
    """Canonical gap word of the graph of the gap word ``word`` with the
    edge at ``slot`` collapsed; that edge must not be a loop.

    Collapsing a non-loop edge keeps the one boundary cycle and drops the
    edge's two sides from it, so the slot and its partner leave the word,
    and each kept gap loses the removed slots inside its forward arc.

    >>> collapse_word((3, 3, 3, 3, 3, 3), 0)
    (2, 2, 2, 2)
    """
    m = len(word)
    a, b = slot, (slot + word[slot]) % m
    # a removed slot lies inside the arc of i when it is less than w ahead
    return canonical_gap_word([w - ((a - i) % m < w) - ((b - i) % m < w)
                               for i, w in enumerate(word)
                               if i != a and i != b])


def _collapsible_slots(word, single: bool):
    """One slot of each non-loop edge of the gap word ``word``; with
    ``single``, only of the edges at its one non-trivalent vertex, if it
    has one."""
    m = len(word)
    partner = [(p + w) % m for p, w in enumerate(word)]
    cycles = word_vertices(word)
    vertex = [0] * m
    for v, cycle in enumerate(cycles):
        for p in cycle:
            vertex[p] = v
    big = [cycle for cycle in cycles if len(cycle) != 3] if single else ()
    slots = big[0] if big else [p for p in range(m) if p < partner[p]]
    return [p for p in slots if vertex[p] != vertex[partner[p]]]


def check_edge_cap(g: int, valence_filter, cap_edges=None) -> None:
    """Raise ResourceLimit when the 6g - 3 edges of the trivalent census
    exceed ``cap_edges``, by default 15, or 9 for all valences, or when a
    census the build holds has a closed count above ``MAX_CENSUS_CLASSES``.
    A build holds the trivalent census and, collapsing from it, every
    ("single", j) level up to its k, or the all-valence census."""
    if cap_edges is None:
        cap_edges = (DEFAULT_CAP_EDGES_ALL if valence_filter == ALL
                     else DEFAULT_CAP_EDGES)
    if 6 * g - 3 > cap_edges:
        raise ResourceLimit("census needs %d edges, cap is %d"
                            % (6 * g - 3, cap_edges))
    if valence_filter == ALL:
        held = [TRIVALENT, ALL]
    else:
        k = 3 if valence_filter == TRIVALENT else valence_filter[1]
        held = [TRIVALENT] + [("single", j) for j in range(4, k + 1)]
    for census in held:
        check_class_cap(g, census)


def check_class_cap(g: int, valence_filter) -> None:
    """Raise ResourceLimit when the closed count of the census
    ``fatgraph_descriptor(g, valence_filter)`` exceeds
    ``MAX_CENSUS_CLASSES``; each class has |Aut| >= 1, so the closed count
    bounds its classes."""
    bound = math.ceil(fatgraph_closed_count(g, valence_filter))
    if bound > MAX_CENSUS_CLASSES:
        # a Decimal prints an int past the int-to-str digit limit
        raise ResourceLimit("census %r holds at least %s classes, cap is %d"
                            % (fatgraph_descriptor(g, valence_filter),
                               Decimal(bound), MAX_CENSUS_CLASSES))


def collapse_closure(trivalent, g: int, valence_filter) -> OrbifoldCensus:
    """The census of ``valence_filter``, ``"all"`` or ``("single", k)`` with
    k > 3, in genus g, collapsed level by level from the keys of
    ``trivalent``, the trivalent census of genus g."""
    # each collapse removes one edge, down to one vertex at E = 2g
    steps = 4 * g - 3 if valence_filter == ALL else valence_filter[1] - 3
    words = level = {entry.key for entry in trivalent}
    for _ in range(steps):
        level = {collapse_word(word, slot) for word in level
                 for slot in _collapsible_slots(word, valence_filter != ALL)}
        words = words | level if valence_filter == ALL else level
        if not level:
            break
    return word_census(sorted(words), g, valence_filter)


def word_entry(word, g: int, valence_filter) -> CensusEntry:
    """Census entry of the class whose canonical gap word is ``word``, in
    the census that ``fatgraph_descriptor(g, valence_filter)`` names.  The
    entry holds no graph, and |Aut| is 2E over the word's rotation period,
    read off the same scan of its rotations that checks it is its own
    least rotation.  Its payload is its vertex profile, the census's own
    tuple (:func:`fatgraph_profiles`), which the rooted-count check reads.

    Raises MalformedGraph unless the word pairs its slots (``word_pairs``),
    every cycle of ``sigma = alpha + 1`` has length at least three, and the
    word is its own least rotation; raises WrongType for a graph outside
    the census.  The graph is connected with one boundary cycle.

    >>> word_entry((3, 3, 3, 3, 3, 3), 1, TRIVALENT)
    CensusEntry(key=(3, 3, 3, 3, 3, 3), aut_order=6, payload=(3, 3))
    """
    word_pairs(word)
    valences = vertex_profile(word)
    if valences[0] < 3:
        raise MalformedGraph("gap word %r has a vertex of valence %d"
                             % (word, valences[0]))
    start, period = least_rotation(word)
    if start:
        raise MalformedGraph("gap word %r is not its least rotation"
                             % (word,))
    profiles = fatgraph_profiles(g, valence_filter)
    if valences not in profiles:
        raise WrongType("gap word %r is outside the census %r"
                        % (word, fatgraph_descriptor(g, valence_filter)))
    return CensusEntry(tuple(word), len(word) // period,
                       profiles[profiles.index(valences)])


def word_census(words, g: int, valence_filter) -> OrbifoldCensus:
    """The census ``fatgraph_descriptor(g, valence_filter)`` of canonical
    gap words in key order, each entered by :func:`word_entry`: the search,
    the collapse and the cache loader all build their censuses here.
    Raises AssertionError on a word not above the one before it."""
    entries = []
    for word in words:
        if entries and word <= entries[-1].key:
            raise AssertionError("census word %r repeats or is out of key "
                                 "order" % (word,))
        entries.append(word_entry(word, g, valence_filter))
    return OrbifoldCensus(fatgraph_descriptor(g, valence_filter),
                          tuple(entries))


def _check_genus(g: int) -> None:
    if g < 1:
        raise WrongType("censuses need type (g,1) with g >= 1, got (%d,1)"
                        % g)


def fatgraph_filter(g: int, valence_filter):
    """The filter of the census ``Workspace.fatgraph_census(g,
    valence_filter)`` returns: ``"trivalent"``, ``"all"`` or ``("single",
    k)``, with ``("single", 3)`` read as ``"trivalent"``, so each census
    has one descriptor.  Raises WrongType for g < 1, any other filter, or
    k outside 3..4g (E = 6g - k edges, fewer than the 2g of one vertex).

    >>> fatgraph_filter(2, ("single", 3))
    'trivalent'
    """
    _check_genus(g)
    if valence_filter in (TRIVALENT, ALL):
        return valence_filter
    if not (isinstance(valence_filter, tuple) and len(valence_filter) == 2
            and valence_filter[0] == "single"
            and isinstance(valence_filter[1], int)):
        raise WrongType("a census filter is %r, %r or ('single', k) with "
                        "an int k, got %r" % (TRIVALENT, ALL, valence_filter))
    k = valence_filter[1]
    if not 3 <= k <= 4 * g:
        raise WrongType("a single k-valent vertex in genus %d needs "
                        "3 <= k <= %d, got %d" % (g, 4 * g, k))
    return TRIVALENT if k == 3 else valence_filter


def fatgraph_descriptor(g: int, valence_filter) -> str:
    """Descriptor of the census ``Workspace.fatgraph_census(g,
    valence_filter)`` returns, for a filter that :func:`fatgraph_filter`
    has normalized; it also names the census's cache file."""
    return "fatgraphs g=%d n=1 filter=%s" % (
        g, valence_filter if isinstance(valence_filter, str)
        else "single%d" % valence_filter[1])


def _hook_characters(parts) -> list:
    """The characters chi_k, k = 0 .. n-1, of the hooks (n - k, 1^k) of S_n
    on cycle type ``parts``: the coefficients of
    prod_i (1 - (-y)^part_i) / (1 + y).  The m factors of each distinct
    part are expanded at once by the binomial theorem, and 1 + y is
    divided out at the end."""
    product = [1]
    for part, m in collections.Counter(parts).items():
        # (1 - (-y)^part)^m = sum_j C(m, j) (sign y^part)^j
        sign = (-1) ** (part + 1)
        terms, c = [], 1
        for j in range(m + 1):
            terms.append((part * j, c))
            c = c * (m - j) * sign // (j + 1)
        expanded = [0] * (len(product) + part * m)
        for i, a in enumerate(product):
            for shift, c in terms:
                expanded[i + shift] += a * c
        product = expanded
    chars, carry = [], 0
    for a in product[:-1]:
        carry = a - carry
        chars.append(carry)
    return chars


def _sum_over_binomials(terms) -> int:
    """(n-1)! sum_k terms[k] / C(n-1, k), n = len(terms), which is the
    integer sum_k terms[k] k! (n-1-k)!.  That is A_{n-1} of the recurrence
    A_k = (n-k) A_{k-1} + terms[k] k!, A_{-1} = 0, whose steps are
    composed in halves (binary splitting), so the large products are
    formed only where two halves meet."""
    n = len(terms)

    def steps(lo, hi):
        """(p, q, r) with A_{hi-1} = p A_{lo-1} + q (lo-1)! and
        (hi-1)! = r (lo-1)!, reading (-1)! as 1."""
        if hi - lo == 1:
            f = max(lo, 1)
            return n - lo, terms[lo] * f, f
        mid = (lo + hi) // 2
        p1, q1, r1 = steps(lo, mid)
        p2, q2, r2 = steps(mid, hi)
        return p2 * p1, p2 * q1 + q2 * r1, r2 * r1

    return steps(0, n)[1]


@functools.lru_cache(maxsize=None)
def rooted_one_face_count(profile) -> int:
    """Rooted one-face maps with vertex valences ``profile`` (a partition
    of 2E), which is the sum of 2E/|Aut| over the census classes with those
    valences.  By the Frobenius formula, with only the hooks nonzero on the
    long cycle (Goupil and Schaeffer 1998), it is
    |C_profile| |C_(2^E)| / (2E)! sum_k chi_k(profile) chi_k(2^E) (-1)^k
    / C(2E-1, k).  The trivalent profile gives the Walsh-Lehman count.
    The sum is taken over the common denominator (2E-1)!, as an integer.
    Each count is kept, since a census's class cap, read before a load
    or a build, and its completeness check after both read it
    (``Workspace.fatgraph_census``).

    >>> rooted_one_face_count((3, 3)), rooted_one_face_count((3,) * 6)
    (1, 105)
    """
    n = sum(profile)
    total = _sum_over_binomials([
        (-1) ** k * a * b for k, (a, b) in enumerate(zip(
            _hook_characters(profile), _hook_characters((2,) * (n // 2))))])
    # (2E)!/(2E-1)! = 2E, over the centralizers of (2^E) and the profile
    denominator = (2 ** (n // 2) * math.factorial(n // 2)
                   * math.prod(part ** m * math.factorial(m) for part, m in
                               collections.Counter(profile).items()))
    count, rest = divmod(n * total, denominator)
    if rest:
        raise AssertionError("profile %r counts %s maps"
                             % (profile, Fraction(n * total, denominator)))
    return count


def _partitions(n: int, parts: int, least: int) -> list:
    """The non-decreasing ``parts``-tuples of integers >= least, sum n."""
    if parts == 0:
        return [()] if n == 0 else []
    return [(first,) + rest for first in range(least, n // parts + 1)
            for rest in _partitions(n - first, parts - 1, first)]


def vertex_profile(word) -> tuple:
    """The sorted vertex valences of the graph of the gap word ``word``."""
    return tuple(sorted(map(len, word_vertices(word))))


@functools.lru_cache(maxsize=None)
def fatgraph_profiles(g: int, valence_filter) -> tuple:
    """The vertex profiles (sorted valences) of the census
    ``fatgraph_descriptor(g, valence_filter)``, V = E + 1 - 2g valences
    each: all 3; all 3 but one k, E = 6g - k; or, for all valences, every
    partition of 2E into parts of at least 3, E = 2g .. 6g - 3."""
    if valence_filter == ALL:
        return tuple(profile for e in range(2 * g, 6 * g - 2)
                     for profile in _partitions(2 * e, e + 1 - 2 * g, 3))
    k = 3 if valence_filter == TRIVALENT else valence_filter[1]
    return ((3,) * (4 * g - k) + (k,),)


def fatgraph_closed_count(g: int, valence_filter) -> Fraction:
    """Closed orbifold count sum(1/|Aut|) of the census
    ``Workspace.fatgraph_census(g, valence_filter)``, for a valid filter
    (:func:`fatgraph_filter`): each profile's rooted count over 2E.

    >>> fatgraph_closed_count(2, TRIVALENT), fatgraph_closed_count(1, ALL)
    (Fraction(35, 6), Fraction(5, 12))
    """
    return sum(Fraction(rooted_one_face_count(profile), sum(profile))
               for profile in fatgraph_profiles(g, valence_filter))


def enumerate_fatgraphs(g: int,
                        cap_edges: Optional[int] = None) -> OrbifoldCensus:
    """The trivalent census of type (g, 1), g >= 1, by the one search,
    which emits each class once, as its canonical gap word, in key order.
    Raises WrongType for g < 1 and ResourceLimit past the cap
    (:func:`check_edge_cap`)."""
    _check_genus(g)
    check_edge_cap(g, TRIVALENT, cap_edges)
    return word_census(_trivalent_pairings(6 * g - 3), g, TRIVALENT)


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
    if rooting not in ("rooted", "unrooted"):
        raise ValueError("rooting must be 'rooted' or 'unrooted'")
    return Fraction(rooted, 1 if rooting == "rooted" else leaf_count)


def enumerate_trees(leaf_count: int, profile: str = _trees.TRIVALENT,
                    rooting: str = "unrooted") -> OrbifoldCensus:
    """Census of planar trees with the given leaf count and valence profile.

    Profiles: ``trivalent``, ``one5`` (one 5-valent vertex) and ``marked``
    (trivalent with one delta-marked internal vertex).  Rooted trees carry a
    distinguished leaf and have trivial automorphism group.  Raises
    ResourceLimit past ``trees.DEFAULT_CAP_LEAVES`` leaves.
    """
    if rooting not in ("rooted", "unrooted"):
        raise ValueError("rooting must be 'rooted' or 'unrooted'")
    words = _trees._contour_words(leaf_count, profile)
    if rooting == "rooted":
        entries = tuple(CensusEntry(word, 1) for word in words)
    else:
        entries = tuple(CensusEntry(key, aut)
                        for key, _, aut in _trees._classes(words))
    return OrbifoldCensus(tree_descriptor(leaf_count, profile, rooting),
                          entries)
