"""Independent reference implementations used to validate the main paths.

Everything here recomputes results by a different route than the package:
explicit isomorphism search instead of canonical keys, raw matching sums for
Pfaffians, Fraction elimination for determinants, rejection sampling for
volumes, polygon-dissection recursions for tree counts, and vertex cycles
and edge pairs (``Fatgraph.from_cycles``) for building and doubling trees,
where the package writes boundary words.  The fault
injectors ``census_without`` and ``census_with_aut_order`` build the broken
censuses that the mutation tests install through ``Workspace.override``.

Graph operations that the package no longer needs live here as references
too: ``collapse_edge`` collapses an edge on vertex cycles, the reference
for ``enumeration.collapse_word`` on boundary words and for undoing
``Fatgraph.expansions``; ``relabel`` renames half-edges, for tests of label
invariance; ``vertex_index`` tells a loop from a collapsible edge.
``trivalent_pairings_reference`` is the orderly pairing search as it was
before ``enumeration._trivalent_pairings`` kept path endpoints, the
reference for its output.  ``tree_classes_reference`` deduplicates built
trees by their canonical keys, the reference for ``trees._classes``, which
deduplicates contour words before any tree is built.
``least_rotation_by_brute_force`` lists every rotation of a word, the
reference for ``fatgraph.least_rotation``, which scans only the rotations
that start at the least entry.
``half_turn_cells_by_profile`` finds the hyperelliptic cells of a
census by scanning its gap words for a half-turn symmetry, the reference
for the doubled-tree components of ``hyperelliptic``.
``raw_coefficients_by_slot_pairs`` assembles the cell form's coefficients
by a loop over slot pairs, and ``eliminated_form`` eliminates an edge by
substituting for its differential in columns and then rows: together the
reference for ``kontsevich._raw_form``, which sums over edge pairs of a
boundary word, and for the forms built on it (``omega_matrix``) and
fused with the elimination (``_word_omega_matrix``).
``pullback_form_by_boundary_cycles`` pulls a doubled-tree cell's form
back on the doubled graph, from its boundary cycle and those two
references, the reference for ``kontsevich._pullback``, which reads the
doubled word over edge pairs; it shares no code with the package's
forms.
``tree_word``, ``rooted_key`` and ``marked_vertices`` read a built
tree's word, rooted key and marked vertices off its graph; the package
reads all three off words and builds no tree for a census.
``word_pairs_reference`` reads a gap word's edges off the involution
``p -> p + word[p] (mod m)`` checked slot by slot, the reference for
``fatgraph.word_pairs``, which counts first slots and checks their
partners.
``record_entry_reference`` checks a cache record by rebuilding its graph,
the reference for the loader, which checks the word alone
(``enumeration.word_entry``); ``in_fatgraph_census`` is its membership
test, read off the graph's type and valences.
``rooted_one_face_count_reference`` sums the Frobenius formula as
``Fraction`` terms over hook characters multiplied in one factor per
part, the reference for ``enumeration.rooted_one_face_count``, which
expands each distinct part's factors by binomials and sums over one
integer denominator.
``hyperelliptic_genus0_route`` derives the closed values of hevol,
boundary, main-theorem and w1h on M_{0,2g+2}/S_{2g+1}, through
Cornalba-Harris lambda and genus-0 psi integrals over every boundary
divisor, the reference for the paper's closed formulas at every genus,
where no census reaches.
"""

from __future__ import annotations

import collections
import random
from fractions import Fraction
from math import comb, factorial, prod

from fatmod.enumeration import ALL, TRIVALENT, OrbifoldCensus
from fatmod.errors import FatmodError, MalformedGraph
from fatmod.fatgraph import DELTA, Fatgraph
from fatmod.hyperelliptic import HyperellipticCell
from fatmod.trees import LEAF, PlanarTree


def perm_compose(p, q) -> tuple:
    """(p o q)(i) = p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(q)))


def vertex_index(graph) -> tuple:
    """The index in ``graph.vertices`` of each half-edge's vertex; an edge
    is a loop when both its half-edges have the same index."""
    index = [0] * graph.num_half_edges
    for v, cycle in enumerate(graph.vertices):
        for h in cycle:
            index[h] = v
    return tuple(index)


def relabel(graph, perm) -> Fatgraph:
    """The graph with each half-edge h renamed perm[h]."""
    m = graph.num_half_edges
    inverse = [0] * m
    for h, image in enumerate(perm):
        inverse[image] = h
    return Fatgraph([perm[graph.sigma[inverse[h]]] for h in range(m)],
                    [perm[graph.alpha[inverse[h]]] for h in range(m)],
                    flags=[graph.flags[inverse[h]] for h in range(m)])


def collapse_edge(graph, e: int) -> Fatgraph:
    """The graph with the non-loop edge ``graph.edges[e] = (p, q)``
    collapsed, from vertex cycles: the merged vertex reads the rest of p's
    vertex from sigma(p), then the rest of q's from sigma(q), and is a
    delta vertex if either end was.  The other half-edges keep their order
    and are numbered 0..m-3, so edge indices above e drop by one.  Raises
    ValueError for a loop or the only edge."""
    p, q = graph.edges[e]
    vertex = vertex_index(graph)
    if vertex[p] == vertex[q]:
        raise ValueError("edge %d is a loop" % e)

    def rest(h):
        # the vertex cycle of h from sigma(h) round to just before h
        out, cur = [], graph.sigma[h]
        while cur != h:
            out.append(cur)
            cur = graph.sigma[cur]
        return out

    merged = rest(p) + rest(q)
    if not merged:
        raise ValueError("cannot collapse the only edge of the graph")
    new = {h: i for i, h in enumerate(h for h in range(graph.num_half_edges)
                                      if h not in (p, q))}
    cycles = [merged] + [cycle for v, cycle in enumerate(graph.vertices)
                         if v not in (vertex[p], vertex[q])]
    delta = [h for h in new if graph.flags[h] == DELTA]
    if DELTA in (graph.flags[p], graph.flags[q]):
        delta.append(merged[0])
    return Fatgraph.from_cycles(
        [[new[h] for h in cycle] for cycle in cycles],
        [(new[a], new[b]) for a, b in graph.edges if (a, b) != (p, q)],
        delta=[new[h] for h in delta])


def extend_flag_map(G, H, start_g, start_h):
    """Try to extend start_g -> start_h to a full isomorphism; returns the
    map as a dict or None."""
    phi = {start_g: start_h}
    stack = [start_g]
    while stack:
        a = stack.pop()
        b = phi[a]
        for na, nb in ((G.sigma[a], H.sigma[b]), (G.alpha[a], H.alpha[b])):
            if na in phi:
                if phi[na] != nb:
                    return None
            else:
                phi[na] = nb
                stack.append(na)
    if len(set(phi.values())) != len(phi):
        return None
    if any(G.flags[a] != H.flags[b] for a, b in phi.items()):
        return None
    return phi


def are_isomorphic(G, H) -> bool:
    if G.num_half_edges != H.num_half_edges:
        return False
    if sorted(G.valences) != sorted(H.valences):
        return False
    return any(extend_flag_map(G, H, 0, h) is not None
               for h in range(H.num_half_edges))


def automorphism_order_bruteforce(G) -> int:
    """Stabilizer search: count flag images that extend to automorphisms."""
    return sum(extend_flag_map(G, G, 0, h) is not None
               for h in range(G.num_half_edges))


def _matchings(stubs):
    if not stubs:
        yield []
        return
    first = stubs[0]
    for i in range(1, len(stubs)):
        rest = stubs[1:i] + stubs[i + 1:]
        for sub in _matchings(rest):
            yield [(first, stubs[i])] + sub


def _partitions(total, parts, smallest):
    if parts == 1:
        if total >= smallest:
            yield (total,)
        return
    for first in range(smallest, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def naive_census(g, n, max_edges, valence_filter="all"):
    """All isomorphism classes of type (g, n) with at most max_edges edges,
    deduplicated by explicit isomorphism search.  Returns (reps, aut_orders).
    """
    reps = []
    for num_edges in range(1, max_edges + 1):
        num_vertices = num_edges + 2 - 2 * g - n
        if num_vertices < 1:
            continue
        for valences in _partitions(2 * num_edges, num_vertices, 3):
            if valence_filter == "trivalent" and set(valences) != {3}:
                continue
            cycles = []
            base = 0
            for v in valences:
                cycles.append(tuple(range(base, base + v)))
                base += v
            for pairs in _matchings(list(range(2 * num_edges))):
                try:
                    graph = Fatgraph.from_cycles(cycles, pairs)
                except MalformedGraph:
                    continue
                if tuple(graph.graph_type()) != (g, n):
                    continue
                if not any(are_isomorphic(graph, r) for r in reps):
                    reps.append(graph)
    return reps, sorted(automorphism_order_bruteforce(r) for r in reps)


def one_face_census_bruteforce(num_edges, cycle_ok):
    """Classes of one-face maps with num_edges edges, by listing every
    fixed-point-free involution alpha of Z_{2E}.

    A pairing is kept when the sorted cycle lengths of sigma = alpha + 1 pass
    cycle_ok.  Each kept pairing is keyed by the least of the 2E rotations
    of its gap tuple (alpha(p) - p mod 2E); returns {key: number of pairings
    with that key}.
    """
    m = 2 * num_edges
    counts = {}
    for pairs in _matchings(list(range(m))):
        alpha = [0] * m
        for p, q in pairs:
            alpha[p], alpha[q] = q, p
        seen = [False] * m
        lengths = []
        for start in range(m):
            length = 0
            p = start
            while not seen[p]:
                seen[p] = True
                p = (alpha[p] + 1) % m
                length += 1
            if length:
                lengths.append(length)
        if not cycle_ok(sorted(lengths)):
            continue
        gaps = tuple((alpha[p] - p) % m for p in range(m))
        key = min(gaps[r:] + gaps[:r] for r in range(m))
        counts[key] = counts.get(key, 0) + 1
    return counts


def raw_coefficients_by_slot_pairs(seq, num_edges):
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


def eliminated_form(c, k) -> tuple:
    """The form of the raw coefficients ``c`` in the free coordinates once
    the normalization eliminates edge k: its differential is minus the sum
    of the others', substituted into the columns and then into the rows
    of c, J^T c J with J the substitution matrix."""
    free = [b for b in range(len(c)) if b != k]
    cols = [[row[b] - row[k] for b in free] for row in c]
    return tuple(tuple(x - y for x, y in zip(cols[a], cols[k]))
                 for a in free)


def pfaffian_by_matchings(matrix) -> Fraction:
    """Pfaffian as the signed sum over perfect matchings of the index set,
    skipping every matching that pairs two indices with a zero entry."""
    n = len(matrix)
    if n % 2:
        raise ValueError(n)

    def go(indices):
        if not indices:
            yield (), 1
            return
        i = indices[0]
        for t, j in enumerate(indices[1:]):
            if not matrix[i][j]:
                continue
            rest = indices[1:t + 1] + indices[t + 2:]
            for pairs, _ in go(rest):
                yield ((i, j),) + pairs, None

    total = Fraction(0)
    for pairs, _ in go(tuple(range(n))):
        flat = [x for pair in pairs for x in pair]
        sign = _permutation_sign(flat)
        prod = Fraction(1)
        for i, j in pairs:
            prod *= Fraction(matrix[i][j])
        total += sign * prod
    return total


def det_by_elimination(m):
    """Determinant by Gaussian elimination in Fractions, swapping rows at a
    zero pivot."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                for cc in range(col, n):
                    a[r][cc] -= f * a[col][cc]
    return det


def _permutation_sign(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def monte_carlo_cell_volume(pf_abs, d, samples=400_000, seed=7) -> float:
    """Rejection-sampling estimate of d! |Pf| vol{l > 0, sum(l) < 1/2}."""
    rng = random.Random(seed)
    hits = 0
    half = 0.5
    for _ in range(samples):
        total = 0.0
        for _ in range(2 * d):
            total += rng.random() * half
            if total >= half:
                break
        else:
            hits += 1
    cube = half ** (2 * d)
    fact = 1
    for i in range(2, d + 1):
        fact *= i
    return fact * float(pf_abs) * cube * hits / samples


def triangulation_count(k: int) -> int:
    """Triangulations of a convex k-gon by the classical recursion."""
    memo = {2: 1, 3: 1}

    def t(m):
        if m in memo:
            return memo[m]
        memo[m] = sum(t(i + 1) * t(m - i) for i in range(1, m - 1))
        return memo[m]

    return t(k)


def walsh_lehman(g: int) -> int:
    """Rooted one-face trivalent maps of genus g (Walsh-Lehman 1972):
    2(6g-3)!/(12^g g!(3g-2)!)."""
    from math import factorial
    return (2 * factorial(6 * g - 3)
            // (12 ** g * factorial(g) * factorial(3 * g - 2)))


def bernoulli_oracle(n: int) -> Fraction:
    """Bernoulli number via the double-sum formula (no recurrence shared
    with the package implementation)."""
    from math import comb
    total = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for v in range(k + 1):
            inner += (-1) ** v * comb(k, v) * Fraction(v ** n if n else 1,
                                                       k + 1)
        total += inner
    return total


# -- a genus-0 route to the hyperelliptic closed values -----------------------
#
# A hyperelliptic curve of genus g with a marked Weierstrass point p maps to
# its 2g+2 branch points on P^1, with p's image marked as point 1.  This maps
# the closed locus H_g^1 to M_{0,2g+2}/S_{2g+1}, and every curve's involution
# makes the map of degree 1/2.  Classes of H_g^1 are then integrated on
# M_{0,2g+2} by splitting along boundary divisors.

INVOLUTION_DEGREE = Fraction(1, 2)
PSI_P = Fraction(1, 2)   # psi_p = psi_1 / 2: x = u^2 at a ramification point
XI0_MULTIPLICITY = 2     # fixed at g=1 by the integral of delta_irr, 1/2
KAPPA_LAMBDA = 12        # kappa_1 = 12 lambda - delta + psi (Mumford 1983)


def genus0_psi_integral(k: int, exponents) -> int:
    """The integral of prod psi_i^(a_i) over M_{0,k}: (k-3)!/prod a_i!
    when the a_i sum to k-3, else 0."""
    if sum(exponents) != k - 3:
        return 0
    return factorial(k - 3) // prod(factorial(a) for a in exponents)


def boundary_divisor_psi1(points: int, side: int, a: int) -> int:
    """The integral of psi_1^a over one boundary divisor D_T of
    M_{0,points}, T the ``side`` points away from point 1.  D_T is
    M_{0,points-side+1} x M_{0,side+1}, glued at the node, and psi_1
    restricts to the first factor."""
    return (genus0_psi_integral(points - side + 1, [a])
            * genus0_psi_integral(side + 1, []))


def hyperelliptic_boundary_classes(g: int) -> dict:
    """The boundary classes of the hyperelliptic locus (Cornalba-Harris
    1988) on M_{0,2g+2}: class -> {|T|: multiplicity}, a sum over the
    divisors D_T with point 1 not in T.

    xi_i, i = 0..(g-1)//2, meets the divisors with 2i+2 branch points on
    one side, where the cover is unramified over the node; delta_j,
    j = 1..g//2, those with 2j+1, where it is ramified.  Only xi_0 meets
    psi_1^(2g-2): its multiplicity 2, from the contracted rational bridge
    over the two-point side, is fixed at g=1.  Those of xi_i (i >= 1, two
    nodes, no bridge) and delta_j (a ramified node, whose smoothing
    parameter squares to the target's) are 1 and 1/2, so delta_irr pulls
    back to twice the even divisors and delta_j to half the odd ones; no
    integral here can check them."""
    n = 2 * g + 2
    classes = {}
    for i in range((g - 1) // 2 + 1):
        mult = XI0_MULTIPLICITY if i == 0 else 1
        classes["xi", i] = {t: mult for t in (2 * i + 2, n - 2 * i - 2)}
    for j in range(1, g // 2 + 1):
        classes["delta", j] = {t: Fraction(1, 2)
                               for t in (2 * j + 1, n - 2 * j - 1)}
    return classes


def cornalba_harris_lambda(g: int) -> dict:
    """lambda on the closed hyperelliptic locus (Cornalba-Harris 1988):
    (8g+4) lambda = g xi_0 + sum_{i>=1} 2(i+1)(g-i) xi_i
    + sum_j 4j(g-j) delta_j."""
    coefficients = {}
    for kind, index in hyperelliptic_boundary_classes(g):
        if kind == "delta":
            c = 4 * index * (g - index)
        else:
            c = g if index == 0 else 2 * (index + 1) * (g - index)
        coefficients[kind, index] = Fraction(c, 8 * g + 4)
    return coefficients


def hyperelliptic_genus0_route(g: int) -> dict:
    """identity name -> its value at genus g on H_g^1, by the genus-0
    route: hevol (psi^(2g-1)) and main-theorem (kappa_1 psi^(2g-2)) from
    g=1, boundary (delta psi^(2g-2)) and w1h (12 main-theorem - boundary)
    from g=2.  No census and no package formula is read."""
    n = 2 * g + 2
    pullback = hyperelliptic_boundary_classes(g)

    def integral(classes, a):
        # of the class sum(coefficient * class) psi_p^a over H_g^1
        on_m0n = sum(c * mult * comb(n - 1, t) * boundary_divisor_psi1(n, t, a)
                     for name, c in classes.items()
                     for t, mult in pullback[name].items())
        return INVOLUTION_DEGREE * PSI_P ** a * on_m0n / factorial(n - 1)

    psi = (INVOLUTION_DEGREE * PSI_P ** (2 * g - 1)
           * genus0_psi_integral(n, [2 * g - 1]) / factorial(n - 1))
    # delta restricts to xi_0 + 2 sum_{i>=1} xi_i + sum_j delta_j
    delta = {(kind, i): 2 if kind == "xi" and i else 1
             for kind, i in pullback}
    boundary = integral(delta, 2 * g - 2)
    main = (KAPPA_LAMBDA * integral(cornalba_harris_lambda(g), 2 * g - 2)
            - boundary + psi)
    values = {"hevol": psi, "main-theorem": main}
    if g >= 2:
        # main-theorem is (w1h + boundary)/12
        values.update(boundary=boundary, w1h=12 * main - boundary)
    return values


def least_rotation_by_brute_force(word):
    """``(start, period)`` of a word from all its rotations: ``start`` is
    the first index of the least one and ``period`` the least r > 0 whose
    rotation fixes the word; the reference for
    ``fatgraph.least_rotation``."""
    word, m = tuple(word), len(word)
    rotations = [word[r:] + word[:r] for r in range(m)]
    period = next((r for r in range(1, m) if rotations[r] == word), m)
    return rotations.index(min(rotations)), period


def _hook_characters_reference(parts) -> list:
    """The characters chi_k, k = 0 .. n-1, of the hooks (n - k, 1^k) of S_n
    on cycle type ``parts``: the coefficients of
    prod_i (1 - (-y)^part_i) / (1 + y), one factor at a time."""
    chars = [(-1) ** j for j in range(parts[0])]   # first factor / (1 + y)
    for part in parts[1:]:
        chars += [0] * part
        for i in range(len(chars) - 1, part - 1, -1):
            chars[i] -= (-1) ** part * chars[i - part]
    return chars


def rooted_one_face_count_reference(profile) -> int:
    """Rooted one-face maps with vertex valences ``profile``, by the
    Frobenius formula |C_profile| |C_(2^E)| / (2E)! sum_k chi_k(profile)
    chi_k(2^E) (-1)^k / C(2E-1, k), summed term by term as Fractions."""
    n = sum(profile)
    count = Fraction(factorial(n), 2 ** (n // 2) * factorial(n // 2)
                     * prod(part ** m * factorial(m) for part, m in
                            collections.Counter(profile).items()))
    count *= sum(Fraction((-1) ** k * a * b, comb(n - 1, k))
                 for k, (a, b) in enumerate(zip(
                     _hook_characters_reference(profile),
                     _hook_characters_reference((2,) * (n // 2)))))
    assert count.denominator == 1, (profile, count)
    return int(count)


def trivalent_pairings_reference(num_edges: int):
    """Pairings of Z_{2E} whose sigma-cycles all have length three, one per
    rotation class: those whose gap sequence is its own least rotation.
    Returns alpha tuples.

    The reference for ``enumeration._trivalent_pairings``: the same
    orderly search, walking each t-path link by link to find its ends and
    length, undoing each try from a trail of tagged records, and checking
    every rotation of the gap word against the word itself.
    """
    m = 2 * num_edges
    alpha = [-1] * m
    gap = [-1] * m     # alpha[p] - p mod m where defined; gaps are >= 1
    fwd = [-1] * m     # t(p) = alpha[p] + 1 where defined
    bwd = [-1] * m
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
        alpha[p] = q
        alpha[q] = p
        gap[p] = (q - p) % m
        gap[q] = (p - q) % m
        trail.append(("a", p, q))
        for a, b in ((p, (q + 1) % m), (q, (p + 1) % m)):
            # add link t(a) = b; a link that closes the cycle
            # b -> ... -> a -> b must close a vertex of valence three
            if a == b or (head_of(a) == b and path_len(a) != 3):
                return False
            fwd[a] = b
            bwd[b] = a
            trail.append(("l", a, b))
        # overlength and forced-closure propagation on both touched paths
        forced = None
        for seed in (p, q):
            t = tail_of(seed)
            if t is None:
                continue  # closed into a cycle of length three
            length = path_len(seed)
            if length > 3:
                return False
            if length == 3:
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
        while len(trail) > mark:
            kind, x, y = trail.pop()
            if kind == "a":
                alpha[x] = gap[x] = -1
                alpha[y] = gap[y] = -1
            else:
                fwd[x] = -1
                bwd[y] = -1

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


def word_pairs_reference(word) -> list:
    """The pairs (p, q), p < q, in order of p, of the fixed-point-free
    involution ``p -> p + word[p] (mod m)`` of a word of length m > 0 whose
    entries are gaps, in 0..m-1; MalformedGraph when there is no such
    involution: an empty word, an entry outside 0..m-1 (negative, or a
    flag code), a zero gap (a fixed point), or a map that is not its own
    inverse."""
    m = len(word)
    if not m or any(w not in range(m) for w in word):
        raise MalformedGraph("%r is no gap word" % (word,))
    alpha = {p: (p + w) % m for p, w in enumerate(word)}
    if any(alpha[p] == p or alpha[alpha[p]] != p for p in alpha):
        raise MalformedGraph("%r is no fixed-point-free involution"
                             % (word,))
    return [(p, q) for p, q in sorted(alpha.items()) if p < q]


def in_fatgraph_census(graph, g, valence_filter) -> bool:
    """Whether an unflagged one-boundary graph is of the census that
    ``enumeration.fatgraph_descriptor(g, valence_filter)`` names: of type
    (g, 1), with valences all 3, any, or all 3 but one k, as the filter
    says."""
    if graph.graph_type() != (g, 1):
        return False
    if valence_filter == ALL:
        return True
    top = 3 if valence_filter == TRIVALENT else valence_filter[1]
    return sorted(graph.valences) == [3] * (graph.num_vertices - 1) + [top]


def record_entry_reference(record, g, valence_filter):
    """(key, |Aut|) of a cache record ``(aut_order, word)`` of the census of
    ``(g, valence_filter)``, or None when the record is rejected: the graph
    ``Fatgraph.from_word(word)`` rebuilt and unflagged, its canonical key
    equal to the word, the graph a member of the census and the stored
    |Aut| its ``aut_order()``."""
    aut, word = record
    try:
        graph = Fatgraph.from_word(word)
        if DELTA in graph.flags or graph.canonical_key() != tuple(word) or \
                not in_fatgraph_census(graph, g, valence_filter) or \
                graph.aut_order() != aut:
            return None
    except FatmodError:
        return None
    return graph.canonical_key(), graph.aut_order()


def half_turn_cells_by_profile(census, g) -> dict:
    """Keys of the census classes whose half-turn p -> p+E is a
    hyperelliptic involution, read off the gap words alone, by valence
    profile (vertex valences, largest first).

    A class is kept when its word is fixed by rotation by E and the
    half-turn fixes 2g+2 cells: the antipodal edges (gap E), the
    sigma-cycles holding both i and i+E, with sigma(p) = p + gap(p) + 1,
    and the boundary.  The reference for the doubled-tree components of
    ``hyperelliptic``; it shares no tree or doubling code with them.
    """
    kept = {}
    for entry in census:
        word = entry.key
        m = len(word)
        e = m // 2
        if word[e:] + word[:e] != word:
            continue
        sigma = [(p + gap + 1) % m for p, gap in enumerate(word)]
        seen, lengths, fixed_vertices = set(), [], 0
        for start in range(m):
            if start in seen:
                continue
            cycle = [start]
            while sigma[cycle[-1]] != start:
                cycle.append(sigma[cycle[-1]])
            seen.update(cycle)
            lengths.append(len(cycle))
            fixed_vertices += (start + e) % m in cycle
        fixed_edges = word.count(e) // 2
        if fixed_edges + fixed_vertices + 1 == 2 * g + 2:
            profile = tuple(sorted(lengths, reverse=True))
            kept.setdefault(profile, []).append(word)
    return kept


def census_without(census, index: int) -> OrbifoldCensus:
    """Copy of a census with one entry removed."""
    kept = census.entries[:index] + census.entries[index + 1:]
    return OrbifoldCensus(census.descriptor + " [mutated]", kept)


def census_with_aut_order(census, index: int,
                          aut_order: int) -> OrbifoldCensus:
    """Copy of a census with one entry's automorphism order replaced."""
    entries = list(census.entries)
    entries[index] = entries[index]._replace(aut_order=aut_order)
    return OrbifoldCensus(census.descriptor + " [mutated]", tuple(entries))


def tree_classes_reference(trees) -> list:
    """Isomorphism classes of the given trees, sorted by canonical key; each
    class is represented by its first tree in the given order."""
    classes = {}
    for tree in trees:
        classes.setdefault(tree.canonical_key(), tree)
    return [classes[k] for k in sorted(classes)]


def rooted_tree_by_cycles(shape) -> PlanarTree:
    """The planar tree of a rooted shape, built from vertex cycles and edge
    pairs: the root leaf carries half-edge 0, each internal vertex has the
    cyclic order (stub toward the root, child 1, ..., child k), and
    half-edges are numbered depth first, a vertex's stubs before its
    children's."""
    cycles, pairs, delta = [(0,)], [], [0]

    def grow(sub, stub, top):
        # hang sub from stub, numbering from top; return the next free label
        pairs.append((stub, top))
        if sub == LEAF:
            cycles.append((top,))
            delta.append(top)
            return top + 1
        marked = sub[0] == "m"
        kids = sub[1:] if marked else sub
        cycle = tuple(range(top, top + len(kids) + 1))
        cycles.append(cycle)
        if marked:
            delta.append(top)
        free = cycle[-1] + 1
        for kid, kid_stub in zip(kids, cycle[1:]):
            free = grow(kid, kid_stub, free)
        return free

    grow(shape, 0, 1)
    return PlanarTree.from_cycles(cycles, pairs, delta=delta)


def tree_word(tree) -> tuple:
    """The flagged boundary word of a tree, read from half-edge 0."""
    return tree.boundary_word()[1]


def rooted_key(tree) -> tuple:
    """The boundary word read from half-edge 0, not rotated: for trees
    rooted there (a leaf), equal iff the rooted trees are isomorphic."""
    if tree.sigma[0] != 0:
        raise ValueError("half-edge 0 is not at a leaf")
    return tree_word(tree)


def marked_vertices(tree) -> tuple:
    """Delta-flagged vertices of valence > 1."""
    return tuple(v for v, cyc in enumerate(tree.vertices)
                 if len(cyc) > 1 and tree.flags[cyc[0]] == DELTA)


def double_by_cycles(tree) -> HyperellipticCell:
    """Two copies of the tree glued along its delta cells, from vertex
    cycles and edge pairs: each leaf stub is dropped and its edge joins the
    two copies, and a marked vertex (c_0 .. c_k) becomes the one vertex
    (c_0 .. c_k, c_0' .. c_k').  The cell records the tree's word from
    half-edge 0 and the doubled graph's word, and numbers tree edges by
    their first slot in that tree word."""
    leaves = {v for v, cycle in enumerate(tree.vertices) if len(cycle) == 1}
    marked = set(marked_vertices(tree))
    leaf_stubs = {tree.vertices[v][0] for v in leaves}
    keep = [h for h in range(tree.num_half_edges) if h not in leaf_stubs]
    relabel = {h: i for i, h in enumerate(keep)}
    off = len(keep)
    cycles = []
    for v, cyc in enumerate(tree.vertices):
        if v in marked:
            cycles.append(tuple([relabel[h] for h in cyc]
                                + [relabel[h] + off for h in cyc]))
        elif v not in leaves:
            cycles.append(tuple(relabel[h] for h in cyc))
            cycles.append(tuple(relabel[h] + off for h in cyc))
    pairs, scaled = [], []
    for p, q in tree.edges:
        if p in leaf_stubs or q in leaf_stubs:
            s = q if p in leaf_stubs else p
            pairs.append((relabel[s], relabel[s] + off))
            scaled.append((relabel[s], p, Fraction(1)))
        else:
            pairs.append((relabel[p], relabel[q]))
            pairs.append((relabel[p] + off, relabel[q] + off))
            scaled += [(relabel[p], p, Fraction(1, 2)),
                       (relabel[p] + off, p, Fraction(1, 2))]
    doubled = Fatgraph.from_cycles(cycles, pairs)
    boundary, word = doubled.boundary_word()
    # the cell's edge map follows the edges of both words, numbered by
    # first slot, which the labels of the vertex cycles do not
    tree_boundary, flagged_word = tree.boundary_word()
    tree_slot = {h: i for i, h in enumerate(tree_boundary)}
    tree_firsts = sorted(min(tree_slot[p], tree_slot[q])
                         for p, q in tree.edges)
    slot = {h: i for i, h in enumerate(boundary)}
    by_slot = sorted((min(slot[h], slot[doubled.alpha[h]]),
                      tree_firsts.index(min(tree_slot[p],
                                            tree_slot[tree.alpha[p]])),
                      scale) for h, p, scale in scaled)
    edge_map = tuple((e, scale) for _, e, scale in by_slot)
    return HyperellipticCell(flagged_word, word, edge_map)


def pullback_form_by_boundary_cycles(cell):
    """The pullback of a doubled-tree cell's form, assembled on the doubled
    graph: the slot sequence of its boundary cycle, the full raw
    coefficient matrix (``raw_coefficients_by_slot_pairs``) and the
    ``Fraction`` pullback over every ordered pair of doubled edges; returns
    that pullback and its ``eliminated_form`` without the last tree edge.
    The cycle starts at half-edge 0, where the cell's word is read, so an
    edge's first appearance on it is its first slot, which indexes
    ``cell.edge_map``."""
    doubled = cell.doubled
    [cycle] = doubled.boundary_cycles().cycles
    table = doubled._edge_index_table()
    seq = [table[h] for h in cycle]
    word_edge = {}
    for e in seq:
        word_edge.setdefault(e, len(word_edge))
    c = raw_coefficients_by_slot_pairs(seq, doubled.num_edges)
    n = len(cell.tree_word) // 2
    ct = [[Fraction(0)] * n for _ in range(n)]
    for x in range(doubled.num_edges):
        ax, fx = cell.edge_map[word_edge[x]]
        row = c[x]
        for y in range(doubled.num_edges):
            if row[y]:
                ay, fy = cell.edge_map[word_edge[y]]
                ct[ax][ay] += fx * fy * row[y]
    return ct, eliminated_form(ct, n - 1)
