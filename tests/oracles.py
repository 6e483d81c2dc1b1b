"""Independent reference implementations used to validate the main paths.

Everything here recomputes results by a different route than the package:
explicit isomorphism search instead of canonical keys, raw matching sums for
Pfaffians, Fraction elimination for determinants, rejection sampling for
volumes, polygon-dissection recursions for tree counts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fatmod.errors import MalformedGraph
from fatmod.fatgraph import Fatgraph


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


def pfaffian_by_matchings(matrix) -> Fraction:
    """Pfaffian as the signed sum over perfect matchings of the index set."""
    n = len(matrix)
    if n % 2:
        raise ValueError(n)

    def go(indices):
        if not indices:
            yield (), 1
            return
        i = indices[0]
        for t, j in enumerate(indices[1:]):
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
