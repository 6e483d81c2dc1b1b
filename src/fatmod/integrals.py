"""Exact evaluation of the tautological integrals, each by two routes.

Every report carries a closed-form value, which reads no census, and an
independently assembled value, and they must agree exactly.  The assembled
route sums Pfaffian cell volumes over a workspace census up to the
``*_ASSEMBLED_*`` thresholds below.  Beyond them, genus0, hevol, w1h,
boundary, main-theorem and corollary assemble closed sub-formulas instead,
so their parameter is unbounded; psi-top and euler have only the census
route and raise ResourceLimit past the workspace's edge cap.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple, Optional

from .enumeration import catalan
from .errors import WrongType
from .hyperelliptic import (W1_MULTIPLICITY_5VALENT, W1_MULTIPLICITY_6VALENT,
                            count_t1, count_t2)
from .kontsevich import hyperelliptic_cell_volume, word_cell_volume
from .workspace import Workspace

KAPPA_DUALITY_DENOMINATOR = 12  # kappa_1 = ([W1] + [boundary]) / 12
ELLIPTIC_TAIL_FACTOR = Fraction(1, 24)

# largest parameter assembled from a census; above it, closed sub-formulas
GENUS0_ASSEMBLED_N = 9
HYPERELLIPTIC_ASSEMBLED_G = 4
W1_ASSEMBLED_G = 4


class IntegralReport(NamedTuple):
    name: str
    param_name: str
    param: int
    value_closed: Fraction
    value_assembled: Fraction
    assembled_mode: str  # "census" or "formula"

    @property
    def match(self) -> bool:
        return self.value_closed == self.value_assembled


def _ws(workspace) -> Workspace:
    return workspace if workspace is not None else Workspace()


def _tree_cell_volume_formula(d: int) -> Fraction:
    # odd-valence tree with 2d+1 edges: Pfaffian 4**d, half-scaled simplex
    return Fraction(factorial(d), factorial(2 * d))


def _doubled_cell_volume_formula(d: int) -> Fraction:
    return Fraction(factorial(d), 2 ** d * factorial(2 * d))


def psi_top_genus0(n: int, workspace: Optional[Workspace] = None
                   ) -> IntegralReport:
    """Top self-intersection of the cotangent class in genus zero: 1.

    Closed route: (n-2)! C_{n-3} (n-3)!/(2n-6)!; assembled route: trees with
    n-1 labeled leaves times their cell volumes.
    """
    if n < 3:
        raise WrongType("need n >= 3")
    closed = Fraction(factorial(n - 2) * catalan(n - 3) * factorial(n - 3),
                      factorial(2 * n - 6))
    if n == 3:
        # the moduli of three marked points is a single unlabeled point
        return IntegralReport("genus0", "n", n, closed, Fraction(1),
                              "formula")
    if n <= GENUS0_ASSEMBLED_N:
        census = _ws(workspace).tree_census(n - 1, "trivalent")
        # a tree key is a flagged word, gap + m * flag; the volume reads
        # the gaps alone
        assembled = census.orbifold_sum(
            weight=lambda e: factorial(n - 1) * word_cell_volume(
                tuple(w % len(e.key) for w in e.key)).value)
        mode = "census"
    else:
        assembled = (Fraction(factorial(n - 2) * catalan(n - 3))
                     * _tree_cell_volume_formula(n - 3))
        mode = "formula"
    return IntegralReport("genus0", "n", n, closed, assembled, mode)


def psi_top_moduli(g: int, workspace: Optional[Workspace] = None
                   ) -> IntegralReport:
    """Top power of the cotangent class over the one-pointed moduli space.

    Closed route: the Witten-Kontsevich value 1/(24^g g!); assembled route:
    the trivalent census with per-cell Pfaffian volumes.
    """
    if g < 1:
        raise WrongType("need g >= 1")
    census = _ws(workspace).trivalent_census(g)
    closed = Fraction(1, 24 ** g * factorial(g))
    assembled = census.orbifold_sum(
        weight=lambda e: word_cell_volume(e.key).value)
    return IntegralReport("psi-top", "g", g, closed, assembled, "census")


def psi_top_hyperelliptic(g: int, workspace: Optional[Workspace] = None
                          ) -> IntegralReport:
    """psi^(2g-1) over the closed hyperelliptic locus:
    1/(2^(2g) (2g+1)!)."""
    if g < 1:
        raise WrongType("need g >= 1")
    closed = Fraction(1, 2 ** (2 * g) * factorial(2 * g + 1))
    if g <= HYPERELLIPTIC_ASSEMBLED_G:
        census = _ws(workspace).hyperelliptic_census(g)
        assembled = census.orbifold_sum(
            weight=lambda e: hyperelliptic_cell_volume(e.payload).value)
        mode = "census"
    else:
        # orbifold cell count times the common doubled cell volume
        assembled = (Fraction(catalan(2 * g - 1), 2 * (2 * g + 1))
                     * _doubled_cell_volume_formula(2 * g - 1))
        mode = "formula"
    return IntegralReport("hevol", "g", g, closed, assembled, mode)


def w1_h_integral(g: int, workspace: Optional[Workspace] = None
                  ) -> IntegralReport:
    """psi^(2g-2) over the Witten-cycle intersection with the hyperelliptic
    locus: (10g^2-13g+3)/(2^(2g-2) (2g+1)!)."""
    if g < 2:
        raise WrongType("need g >= 2")
    closed = Fraction(10 * g * g - 13 * g + 3,
                      2 ** (2 * g - 2) * factorial(2 * g + 1))
    if g <= W1_ASSEMBLED_G:
        comps = _ws(workspace).w1_components(g)
        vol = lambda e: hyperelliptic_cell_volume(e.payload).value
        assembled = (
            W1_MULTIPLICITY_5VALENT * comps.component1.orbifold_sum(vol)
            + W1_MULTIPLICITY_6VALENT * comps.component2.orbifold_sum(vol))
        mode = "census"
    else:
        vol = _doubled_cell_volume_formula(2 * g - 2)
        assembled = vol * (2 * count_t1(g) + 3 * count_t2(g))
        mode = "formula"
    return IntegralReport("w1h", "g", g, closed, assembled, mode)


def boundary_integral(g: int, workspace: Optional[Workspace] = None
                      ) -> IntegralReport:
    """psi^(2g-2) over the boundary part of the closed hyperelliptic locus:
    1/(2^(2g-1) (2g-1)!).

    Assembled as half of the genus-(g-1) hyperelliptic top integral; the
    factor 1/2 and the exponent shift come from identifying the relevant
    boundary component with half of the universal curve and applying the
    string equation.
    """
    if g < 2:
        raise WrongType("need g >= 2")
    ws = _ws(workspace)
    closed = Fraction(1, 2 ** (2 * g - 1) * factorial(2 * g - 1))
    sub = psi_top_hyperelliptic(g - 1, ws)
    assembled = Fraction(1, 2) * sub.value_assembled
    return IntegralReport("boundary", "g", g, closed, assembled,
                          sub.assembled_mode)


def main_theorem(g: int, workspace: Optional[Workspace] = None
                 ) -> IntegralReport:
    """kappa_1 psi^(2g-2) over the closed hyperelliptic locus:
    (2g-1)^2/(2^(2g) (2g+1)!).

    For g >= 2 this is (w1h + boundary)/12 under the duality constant; the
    g = 1 value is the twelfth of the boundary point weighted by its order-2
    automorphism group.
    """
    if g < 1:
        raise WrongType("need g >= 1")
    ws = _ws(workspace)
    closed = Fraction((2 * g - 1) ** 2, 2 ** (2 * g) * factorial(2 * g + 1))
    if g == 1:
        assembled = Fraction(1, KAPPA_DUALITY_DENOMINATOR) * Fraction(1, 2)
        return IntegralReport("main-theorem", "g", 1, closed, assembled,
                              "formula")
    w1h = w1_h_integral(g, ws)
    boundary = boundary_integral(g, ws)
    assembled = (w1h.value_assembled + boundary.value_assembled) \
        / KAPPA_DUALITY_DENOMINATOR
    mode = "census" if "census" in (w1h.assembled_mode,
                                    boundary.assembled_mode) else "formula"
    return IntegralReport("main-theorem", "g", g, closed, assembled, mode)


def hodge_corollary(g: int, workspace: Optional[Workspace] = None
                    ) -> IntegralReport:
    """The alternating Hodge-integral combination:
    (14g^2-11g+3)/(3 2^(2g) (2g+1)!).

    Assembled as the main value plus the elliptic-tail boundary term
    (1/24) / (2^(2g-2) (2g-1)!).
    """
    if g < 2:
        raise WrongType("need g >= 2")
    ws = _ws(workspace)
    closed = Fraction(14 * g * g - 11 * g + 3,
                      3 * 2 ** (2 * g) * factorial(2 * g + 1))
    main = main_theorem(g, ws)
    tail = ELLIPTIC_TAIL_FACTOR / (2 ** (2 * g - 2) * factorial(2 * g - 1))
    assembled = main.value_assembled + tail
    return IntegralReport("corollary", "g", g, closed, assembled,
                          main.assembled_mode)


def bernoulli(n: int) -> Fraction:
    """Bernoulli numbers, B_1 = -1/2 convention."""
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * values[k]
        values.append(-acc / (m + 1))
    return values[n]


def zeta_negative(g: int) -> Fraction:
    """zeta(1 - 2g) = -B_{2g}/(2g), the virtual Euler characteristic of the
    one-pointed moduli space."""
    return -bernoulli(2 * g) / (2 * g)


def euler_report(g: int, workspace: Optional[Workspace] = None
                 ) -> IntegralReport:
    """Virtual Euler characteristic via the alternating census sum against
    the Bernoulli closed form."""
    if g < 1:
        raise WrongType("need g >= 1")
    closed = zeta_negative(g)
    census = _ws(workspace).all_valence_census(g)
    assembled = census.orbifold_sum(
        weight=lambda e: (-1) ** (len(e.key) // 2 - 1))  # E = len(key)/2
    return IntegralReport("euler", "g", g, closed, assembled, "census")


IDENTITIES = {
    "genus0": ("n", psi_top_genus0),
    "psi-top": ("g", psi_top_moduli),
    "hevol": ("g", psi_top_hyperelliptic),
    "w1h": ("g", w1_h_integral),
    "boundary": ("g", boundary_integral),
    "main-theorem": ("g", main_theorem),
    "corollary": ("g", hodge_corollary),
    "euler": ("g", euler_report),
}
