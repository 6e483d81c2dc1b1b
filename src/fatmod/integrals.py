"""Exact evaluation of the tautological integrals, each by two routes.

An identity registers by one :data:`TABLE` row: its parameter's name and
least value, the command line's default range, ``closed(p)``, a closed
formula that takes no workspace, and ``assembled(p, workspace)``, which
returns ``(value, mode)``.  The ``census`` mode reads a workspace census
up to the ``*_ASSEMBLED_*`` thresholds below: every cell must have the
census's closed per-cell volume (``_cell_volume_formula``), checked as an
integer Pfaffian on a word cell and as a volume on a doubled cell
(``_certified``), and the census is then summed once, as that value times
its sum of 1/|Aut|; beyond the thresholds, genus0, hevol and w1h multiply
closed counts by the per-cell value (``formula``), while psi-top and euler
raise ResourceLimit past the workspace's edge cap.  boundary, main-theorem
and corollary add up their siblings' assembled values.  :func:`evaluate`
builds every report; ``IDENTITIES`` and the report functions follow from
the table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial
from typing import Callable, NamedTuple, Optional

from .enumeration import tree_closed_count
from .errors import WrongType
from .fatgraph import split_flags
from .hyperelliptic import (W1_MULTIPLICITY_5VALENT, W1_MULTIPLICITY_6VALENT,
                            count_t1, count_t2)
from .kontsevich import hyperelliptic_cell_volume, word_pfaffian
from .trees import TRIVALENT
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


class Identity(NamedTuple):
    param_name: str                 # "g" or "n"
    least: int                      # least parameter value
    default: range                  # the command line's default range
    closed: Callable[[int], Fraction]
    assembled: Callable[[int, Workspace], tuple]  # -> (value, mode)


def _cell_volume_formula(d: int, h: int) -> Fraction:
    """d!/(2^h (2d)!), the volume of every cell of dimension 2d in a census
    (Kontsevich's per-graph identity): h = g for the trivalent cells of
    psi-top (d = 3g-2), 0 for the genus0 trees (d = n-3) and d for the
    doubled cells of hevol (d = 2g-1) and w1h (d = 2g-2)."""
    return Fraction(factorial(d), 2 ** h * factorial(2 * d))


def _certified(name: str, p: int, census, per_cell: Fraction,
               measure: Callable, expected) -> Fraction:
    """``per_cell`` times the census's sum of 1/|Aut|, once every cell has
    ``measure(entry) == expected``.  ``measure`` is proportional to the
    cell's volume, ``expected`` being its value on a cell of volume
    ``per_cell``; a cell that misses it raises AssertionError naming the
    identity, the parameter, the cell's key and the volume its measure
    stands for.  Two wrong cells cannot cancel in the sum."""
    for entry in census:
        value = measure(entry)
        if value != expected:
            raise AssertionError(
                "%s at %s=%d: cell %r has volume %s, not the per-cell %s"
                % (name, TABLE[name].param_name, p, entry.key,
                   per_cell * value / expected, per_cell))
    return per_cell * census.orbifold_sum()


def _word_pfaffian_value(d: int, per_cell: Fraction) -> int:
    """|word_pfaffian| of a cell of dimension 2d and volume per_cell: the
    volume is d! |Pf| / (2^d (2d)!) on the half-scale form."""
    value = per_cell * 2 ** d * factorial(2 * d) / factorial(d)
    if value.denominator != 1:
        raise AssertionError("per-cell volume %s of dimension %d is no "
                             "integer Pfaffian" % (per_cell, 2 * d))
    return value.numerator


def _genus0_assembled(n: int, ws: Workspace):
    # trees with n-1 labeled leaves times their cell volumes
    if n == 3:
        # the moduli of three marked points is a single unlabeled point
        return Fraction(1), "formula"
    per_cell = _cell_volume_formula(n - 3, 0)
    if n <= GENUS0_ASSEMBLED_N:
        return factorial(n - 1) * _certified(
            "genus0", n, ws.tree_census(n - 1, TRIVALENT), per_cell,
            lambda e: abs(word_pfaffian(split_flags(e.key)[0])),
            _word_pfaffian_value(n - 3, per_cell)), "census"
    return (factorial(n - 1) * tree_closed_count(n - 1, TRIVALENT, "unrooted")
            * per_cell), "formula"


def _psi_top_assembled(g: int, ws: Workspace):
    # the trivalent census, each cell's integer Pfaffian certified
    per_cell = _cell_volume_formula(3 * g - 2, g)
    return _certified("psi-top", g, ws.trivalent_census(g), per_cell,
                      lambda e: abs(word_pfaffian(e.key)),
                      _word_pfaffian_value(3 * g - 2, per_cell)), "census"


def _doubled_volume(entry) -> Fraction:
    """The volume of a doubled cell, its pullback checked against its
    halved tree (``hyperelliptic_cell_volume``)."""
    return hyperelliptic_cell_volume(entry.payload).value


def _hevol_assembled(g: int, ws: Workspace):
    per_cell = _cell_volume_formula(2 * g - 1, 2 * g - 1)
    if g <= HYPERELLIPTIC_ASSEMBLED_G:
        return _certified("hevol", g, ws.hyperelliptic_census(g), per_cell,
                          _doubled_volume, per_cell), "census"
    # orbifold cell count, half the tree count, times the common doubled
    # cell volume
    return (tree_closed_count(2 * g + 1, TRIVALENT, "unrooted") / 2
            * per_cell), "formula"


def _w1h_assembled(g: int, ws: Workspace):
    per_cell = _cell_volume_formula(2 * g - 2, 2 * g - 2)
    if g <= W1_ASSEMBLED_G:
        comps = ws.w1_components(g)
        count1, count2 = (
            _certified("w1h", g, census, per_cell, _doubled_volume, per_cell)
            for census in (comps.component1, comps.component2))
        return (W1_MULTIPLICITY_5VALENT * count1
                + W1_MULTIPLICITY_6VALENT * count2), "census"
    return (per_cell * (W1_MULTIPLICITY_5VALENT * count_t1(g)
                        + W1_MULTIPLICITY_6VALENT * count_t2(g))), "formula"


def _boundary_assembled(g: int, ws: Workspace):
    # half of the genus-(g-1) hyperelliptic top integral; the factor 1/2
    # and the exponent shift come from identifying the relevant boundary
    # component with half of the universal curve and applying the string
    # equation
    value, mode = _hevol_assembled(g - 1, ws)
    return Fraction(1, 2) * value, mode


def _main_theorem_assembled(g: int, ws: Workspace):
    # (w1h + boundary)/12 under the duality constant for g >= 2; at g = 1,
    # the twelfth of the boundary point weighted by its order-2
    # automorphism group
    if g == 1:
        return Fraction(1, KAPPA_DUALITY_DENOMINATOR) * Fraction(1, 2), \
            "formula"
    w1h, w1h_mode = _w1h_assembled(g, ws)
    boundary, boundary_mode = _boundary_assembled(g, ws)
    mode = "census" if "census" in (w1h_mode, boundary_mode) else "formula"
    return (w1h + boundary) / KAPPA_DUALITY_DENOMINATOR, mode


def _corollary_assembled(g: int, ws: Workspace):
    # the main value plus the elliptic-tail boundary term
    main, mode = _main_theorem_assembled(g, ws)
    tail = ELLIPTIC_TAIL_FACTOR / (2 ** (2 * g - 2) * factorial(2 * g - 1))
    return main + tail, mode


def _euler_assembled(g: int, ws: Workspace):
    # the alternating sum over the all-valence census, E = len(key) / 2
    return ws.all_valence_census(g).orbifold_sum(
        weight=lambda e: (-1) ** (len(e.key) // 2 - 1)), "census"


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


TABLE = {
    # psi_1^(n-3) over M_{0,n} is 1 by the string equation
    "genus0": Identity("n", 3, range(4, 10), lambda n: Fraction(1),
                       _genus0_assembled),
    # psi^(3g-2) over M_{g,1}: the Witten-Kontsevich value 1/(24^g g!)
    "psi-top": Identity("g", 1, range(1, 4), lambda g: Fraction(
        1, 24 ** g * factorial(g)), _psi_top_assembled),
    # psi^(2g-1) over the closed hyperelliptic locus
    "hevol": Identity("g", 1, range(1, 4), lambda g: Fraction(
        1, 2 ** (2 * g) * factorial(2 * g + 1)), _hevol_assembled),
    # psi^(2g-2) over the Witten-cycle intersection with that locus
    "w1h": Identity("g", 2, range(2, 4), lambda g: Fraction(
        10 * g * g - 13 * g + 3, 2 ** (2 * g - 2) * factorial(2 * g + 1)),
        _w1h_assembled),
    # psi^(2g-2) over the boundary part of the hyperelliptic locus
    "boundary": Identity("g", 2, range(2, 4), lambda g: Fraction(
        1, 2 ** (2 * g - 1) * factorial(2 * g - 1)), _boundary_assembled),
    # kappa_1 psi^(2g-2) over the closed hyperelliptic locus
    "main-theorem": Identity("g", 1, range(1, 4), lambda g: Fraction(
        (2 * g - 1) ** 2, 2 ** (2 * g) * factorial(2 * g + 1)),
        _main_theorem_assembled),
    # the alternating Hodge-integral combination
    "corollary": Identity("g", 2, range(2, 4), lambda g: Fraction(
        14 * g * g - 11 * g + 3, 3 * 2 ** (2 * g) * factorial(2 * g + 1)),
        _corollary_assembled),
    # the virtual Euler characteristic of M_{g,1}
    "euler": Identity("g", 1, range(1, 3), zeta_negative, _euler_assembled),
}


def evaluate(name: str, p: int, workspace: Optional[Workspace] = None
             ) -> IntegralReport:
    """The report of identity ``name`` at parameter p, both routes.
    Raises WrongType below the identity's least parameter."""
    identity = TABLE[name]
    if p < identity.least:
        raise WrongType("need %s >= %d" % (identity.param_name,
                                           identity.least))
    value, mode = identity.assembled(
        p, workspace if workspace is not None else Workspace())
    return IntegralReport(name, identity.param_name, p, identity.closed(p),
                          value, mode)


psi_top_genus0 = partial(evaluate, "genus0")
psi_top_moduli = partial(evaluate, "psi-top")
psi_top_hyperelliptic = partial(evaluate, "hevol")
w1_h_integral = partial(evaluate, "w1h")
boundary_integral = partial(evaluate, "boundary")
main_theorem = partial(evaluate, "main-theorem")
hodge_corollary = partial(evaluate, "corollary")
euler_report = partial(evaluate, "euler")

# name -> (parameter name, report function), where the command line looks
# each identity up
IDENTITIES = {name: (identity.param_name, partial(evaluate, name))
              for name, identity in TABLE.items()}
