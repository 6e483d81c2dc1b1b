from fractions import Fraction
from math import factorial

import pytest

from fatmod import integrals, kontsevich
from fatmod.enumeration import ALL, collapse_closure
from fatmod.errors import CacheError, ResourceLimit, WrongType
from fatmod.fatgraph import split_flags
from fatmod.integrals import (TABLE, bernoulli, boundary_integral,
                              euler_report, evaluate, hodge_corollary,
                              main_theorem, psi_top_genus0,
                              psi_top_hyperelliptic, psi_top_moduli,
                              w1_h_integral, zeta_negative)
from fatmod.kontsevich import word_cell_volume
from fatmod.trees import TRIVALENT
from fatmod.workspace import Workspace

import oracles
from oracles import bernoulli_oracle, census_with_aut_order, \
    census_without


class TestGenusZero:
    def test_three_points(self, ws):
        r = psi_top_genus0(3, ws)
        assert r.value_closed == 1 and r.match

    def test_four_points_formula(self, ws):
        r = psi_top_genus0(4, ws)
        assert r.value_closed == Fraction(factorial(2) * 1 * 1, factorial(2))
        assert r.value_closed == 1 and r.match

    def test_assembled_census_path(self, ws):
        for n in range(4, 10):
            r = psi_top_genus0(n, ws)
            assert r.assembled_mode == "census"
            assert r.value_assembled == 1
            assert r.match

    def test_closed_only_range(self, ws):
        for n in range(10, 31):
            r = psi_top_genus0(n, ws)
            assert r.assembled_mode == "formula"
            assert r.value_closed == 1 and r.match


class TestPsiTopModuli:
    def test_torus(self, ws):
        r = psi_top_moduli(1, ws)
        assert r.value_closed == Fraction(1, 24)
        assert r.value_assembled == Fraction(1, 24)
        assert r.match

    def test_genus_two(self, ws):
        r = psi_top_moduli(2, ws)
        assert r.value_closed == Fraction(1, 1152)
        assert r.match

    def test_genus_three(self, ws):
        r = psi_top_moduli(3, ws)
        assert r.value_closed == Fraction(1, 82944)
        assert r.match

    def test_mutation_flips_match(self, ws):
        census = ws.trivalent_census(2)
        broken = Workspace()
        broken.override(census.descriptor, census_without(census, 0))
        assert not psi_top_moduli(2, broken).match
        perturbed = Workspace()
        perturbed.override(census.descriptor, census_with_aut_order(
            census, 0, census.entries[0].aut_order + 1))
        assert not psi_top_moduli(2, perturbed).match

    def test_resource_limit(self, ws):
        with pytest.raises(ResourceLimit):
            psi_top_moduli(4, ws)


class TestHyperellipticTop:
    def test_small_genus_census_path(self, ws):
        expected = {1: Fraction(1, 24), 2: Fraction(1, 1920)}
        for g in (1, 2):
            r = psi_top_hyperelliptic(g, ws)
            assert r.value_closed == expected[g]
            assert r.value_assembled == expected[g]
            assert r.assembled_mode == "census"

    def test_closed_form_large_genus(self, ws):
        r = psi_top_hyperelliptic(50, ws)
        assert r.assembled_mode == "formula"
        assert r.match
        assert r.value_closed.denominator == 2 ** 100 * factorial(101)
        assert r.value_closed.numerator == 1


class TestW1Integral:
    def test_genus_two_value_and_pipeline(self, ws):
        r = w1_h_integral(2, ws)
        assert r.value_closed == Fraction(17, 480)
        assert r.value_assembled == Fraction(17, 480)
        assert r.assembled_mode == "census"
        # pipeline pieces: common volume 1/48, weighted counts 17/10
        vol = Fraction(factorial(2), 2 ** 2 * factorial(4))
        assert vol == Fraction(1, 48)
        assert 2 * Fraction(1, 10) + 3 * Fraction(1, 2) == Fraction(17, 10)
        assert vol * Fraction(17, 10) == Fraction(17, 480)

    def test_genus_three(self, ws):
        r = w1_h_integral(3, ws)
        assert r.value_closed == Fraction(54, 80640)
        assert r.match

    def test_needs_genus_two(self, ws):
        with pytest.raises(WrongType):
            w1_h_integral(1, ws)


class TestBoundaryIntegral:
    def test_genus_two(self, ws):
        r = boundary_integral(2, ws)
        assert r.value_closed == Fraction(1, 48)
        assert r.value_assembled == Fraction(1, 48)

    def test_uses_half_of_previous_genus(self, ws):
        sub = psi_top_hyperelliptic(1, ws)
        r = boundary_integral(2, ws)
        assert r.value_assembled == sub.value_assembled / 2


class TestMainTheorem:
    def test_genus_one(self, ws):
        r = main_theorem(1, ws)
        assert r.value_closed == Fraction(1, 24)
        assert r.value_assembled == Fraction(1, 24)

    def test_genus_two(self, ws):
        r = main_theorem(2, ws)
        assert r.value_closed == Fraction(3, 640)
        assert r.value_assembled == Fraction(3, 640)
        assert r.assembled_mode == "census"

    def test_genus_three(self, ws):
        r = main_theorem(3, ws)
        assert r.value_closed == Fraction(25, 322560)
        assert r.match

    def test_closed_identity_sweep(self, ws):
        previous = None
        for g in range(2, 201):
            assert 10 * g * g - 13 * g + 3 + g * (2 * g + 1) == \
                3 * (2 * g - 1) ** 2
            r = main_theorem(g, ws)
            assert r.match
            assert r.value_closed > 0
            if previous is not None:
                assert r.value_closed < previous
            previous = r.value_closed


class TestCorollary:
    def test_genus_two(self, ws):
        r = hodge_corollary(2, ws)
        assert r.value_closed == Fraction(37, 5760)
        assert r.value_assembled == Fraction(37, 5760)
        tail = Fraction(1, 24) * Fraction(1, 2 ** 2 * factorial(3))
        assert tail == Fraction(1, 576)
        assert Fraction(3, 640) + tail == Fraction(37, 5760)

    def test_genus_three(self, ws):
        r = hodge_corollary(3, ws)
        assert r.value_closed == Fraction(1, 10080)
        assert r.match

    def test_closed_identity_sweep(self, ws):
        for g in range(2, 201):
            assert 6 * (2 * g - 1) ** 2 + 2 * g * (2 * g + 1) == \
                2 * (14 * g * g - 11 * g + 3)
            assert hodge_corollary(g, ws).match


class TestEuler:
    def test_values_against_bernoulli_oracle(self, ws):
        assert euler_report(1, ws).value_assembled == Fraction(-1, 12)
        assert euler_report(2, ws).value_assembled == Fraction(1, 120)
        for g in (1, 2):
            r = euler_report(g, ws)
            assert r.match
            assert r.value_closed == -bernoulli_oracle(2 * g) / (2 * g)

    def test_bernoulli_implementations_agree(self):
        for n in range(0, 16):
            assert bernoulli(n) == bernoulli_oracle(n)

    def test_zeta_values(self):
        assert zeta_negative(1) == Fraction(-1, 12)
        assert zeta_negative(2) == Fraction(1, 120)
        assert zeta_negative(3) == Fraction(-1, 252)


class TestMutationDetection:
    def test_hyperelliptic_census_fault(self, ws):
        census = ws.hyperelliptic_census(2)
        broken = Workspace()
        broken.override(census.descriptor, census_with_aut_order(census, 0, 3))
        assert not psi_top_hyperelliptic(2, broken).match
        assert not main_theorem(3, broken).match  # boundary path uses g=2

    def test_w1_component_fault(self, ws):
        comps = ws.w1_components(2)
        broken = Workspace()
        broken.override(comps.component1.descriptor,
                        census_with_aut_order(comps.component1, 0, 99))
        assert not w1_h_integral(2, broken).match
        assert not main_theorem(2, broken).match
        assert not hodge_corollary(2, broken).match

    def test_all_valence_census_fault(self, ws):
        census = ws.all_valence_census(1)
        broken = Workspace()
        broken.override(census.descriptor, census_without(census, 0))
        assert not euler_report(1, broken).match

    def test_trivalent_census_fault_reaches_all_valences(self, ws):
        # the all-valence census is collapsed from the trivalent census, so
        # a class lost there is lost from the closure too.  Every face of
        # the last g=2 class is a face of another class, so only that class
        # goes; class 0 takes faces of its own along as an elementary
        # collapse, which keeps the Euler sum.  Either way the collapsed
        # census misses the closed count of its trivalent profile, so the
        # workspace refuses it and euler fails with a cache error
        census = ws.trivalent_census(2)
        lost = census.entries[-1].key
        without = census_without(census, len(census) - 1)
        assert {e.key for e in collapse_closure(without, 2, ALL)} == \
            {e.key for e in ws.all_valence_census(2)} - {lost}
        for index in (0, len(census) - 1):
            broken = Workspace()
            broken.override(census.descriptor, census_without(census, index))
            with pytest.raises(CacheError):
                euler_report(2, broken)


def moved_pfaffian(pf, dx):
    """pf with |pf| moved by dx, a whole number short of |pf|."""
    assert dx.denominator == 1 and abs(dx) < abs(pf)
    return pf + int(dx) if pf > 0 else pf - int(dx)


def moved_volume(volume, dx):
    return volume._replace(value=volume.value + dx)


# per identity: its census at parameter p, the function its route calls on
# each cell, the argument the route passes it for a census entry, the
# quantity the route compares, read off that function's result, and that
# result with the quantity moved by dx
CELLS = {
    "psi-top": (lambda ws, g: ws.trivalent_census(g), "word_pfaffian",
                lambda e: e.key, abs, moved_pfaffian),
    "genus0": (lambda ws, n: ws.tree_census(n - 1, TRIVALENT),
               "word_pfaffian", lambda e: split_flags(e.key)[0], abs,
               moved_pfaffian),
    "hevol": (lambda ws, g: ws.hyperelliptic_census(g),
              "hyperelliptic_cell_volume", lambda e: e.payload,
              lambda v: v.value, moved_volume),
}


class TestPerCellVolumes:
    """Every census route compares each cell's integer Pfaffian or volume
    with the closed per-cell value, so a wrong cell fails even where the
    sum does not move."""

    @pytest.mark.parametrize("name,p", [("psi-top", 3), ("genus0", 6),
                                        ("hevol", 2), ("w1h", 3)])
    def test_kernel_fault_fails_the_census_route(self, monkeypatch, ws,
                                                 name, p):
        # no census path runs the Pf^2 = det check; an expansion off by one
        # still fails the route, at the first cell it reaches
        expand = kontsevich._pfaffian_int
        monkeypatch.setattr(kontsevich, "_pfaffian_int",
                            lambda m: expand(m) + 1)
        with pytest.raises(AssertionError):
            evaluate(name, p, ws)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_mismatch_names_the_cell_volume(self, monkeypatch, ws, g):
        # the route compares integers, and names the volume of the wrong
        # Pfaffian as word_cell_volume reads it under the same fault
        expand = kontsevich._pfaffian_int
        monkeypatch.setattr(kontsevich, "_pfaffian_int",
                            lambda m: expand(m) + 1)
        key = ws.trivalent_census(g).entries[0].key
        message = "psi-top at g=%d: cell %r has volume %s, not the " \
            "per-cell %s" % (g, key, word_cell_volume(key).value,
                             integrals._cell_volume_formula(3 * g - 2, g))
        with pytest.raises(AssertionError) as raised:
            evaluate("psi-top", g, ws)
        assert str(raised.value) == message

    # genus0 at n=6 and hevol at g=2 have one cell each, too few for two
    # errors to cancel
    @pytest.mark.parametrize("name,p", [("psi-top", 2), ("genus0", 7),
                                        ("hevol", 3)])
    def test_cancelling_cell_errors_fail(self, monkeypatch, ws, name, p):
        census, function, arg, quantity, move = CELLS[name]
        census = census(ws, p)
        a, b = census.entries[:2]
        true = getattr(integrals, function)
        x = Fraction(quantity(true(arg(a)))) / 4
        # +x|Aut| on one cell and -x|Aut| on another leave the sum of
        # quantity/|Aut| as it is
        shift = [(arg(a), x * a.aut_order), (arg(b), -x * b.aut_order)]

        def shifted(cell):
            return move(true(cell), sum(
                dx for other, dx in shift if other == cell))

        assert census.orbifold_sum(lambda e: quantity(shifted(arg(e)))) == \
            census.orbifold_sum(lambda e: quantity(true(arg(e))))
        monkeypatch.setattr(integrals, function, shifted)
        with pytest.raises(AssertionError, match=r"%s at \w=%d: cell" %
                           (name, p)):
            evaluate(name, p, ws)

    @pytest.mark.parametrize("g", [2, 3])
    def test_antisymmetric_form_fault_fails_psi_top(self, monkeypatch, ws,
                                                    g):
        # one shifted entry of the upper triangle is still the form of an
        # antisymmetric matrix, whose Pfaffian still squares to its
        # determinant: only the per-cell compare sees the change
        build = kontsevich._word_omega_matrix

        def mutated(word):
            rows = build(word)
            rows[0][3] += 1
            return rows

        monkeypatch.setattr(kontsevich, "_word_omega_matrix", mutated)
        form = mutated(ws.trivalent_census(g).entries[0].key)
        full = [[x - y for x, y in zip(row, column)]
                for row, column in zip(form, zip(*form))]
        # the kernel works on its rows in place: it gets copies
        pf = kontsevich._pfaffian_int([list(row) for row in full])
        assert pf == kontsevich._pfaffian_int([list(row) for row in form])
        assert pf * pf == kontsevich._det_fraction(full)
        with pytest.raises(AssertionError, match="psi-top at g=%d" % g):
            evaluate("psi-top", g, ws)

    @pytest.mark.parametrize("name,g,cells", [
        ("hevol", 2, lambda ws, g: ws.hyperelliptic_census(g)),
        ("w1h", 3, lambda ws, g: ws.w1_components(g).component1)],
        ids=["hevol", "w1h"])
    def test_antisymmetric_pullback_fault_fails(self, monkeypatch, ws, name,
                                                g, cells):
        # the pullback's Pfaffian runs no Pf^2 = det check: one entry of
        # its integer form shifted with its mirror keeps the form
        # antisymmetric, so its Pfaffian still squares to its determinant,
        # and only the compare with the halved tree volume sees the change
        scale = kontsevich._integer_form

        def shifted(matrix):
            m, denominator = scale(matrix)
            m[0][1] += 1
            m[1][0] -= 1
            return m, denominator

        cell = cells(ws, g).entries[0].payload
        raw = kontsevich._pullback(cell)
        form = kontsevich._eliminate(raw, len(raw), len(raw) - 1)
        true, _ = scale(form)
        m, _ = shifted(form)
        pf = kontsevich._pfaffian_int([list(row) for row in m])
        assert pf != kontsevich._pfaffian_int(true)
        assert pf * pf == kontsevich._det_fraction(m)
        monkeypatch.setattr(kontsevich, "_integer_form", shifted)
        with pytest.raises(AssertionError, match="pullback volume"):
            kontsevich.hyperelliptic_cell_volume(cell)
        with pytest.raises(AssertionError, match="pullback volume"):
            evaluate(name, g, ws)


def route_mismatches(g):
    """The identities whose closed value at g the genus-0 route misses."""
    return [name for name, value in oracles.hyperelliptic_genus0_route(
        g).items() if TABLE[name].closed(g) != value]


class TestHyperellipticGenusZeroRoute:
    """A second derivation of the hyperelliptic closed values, through
    M_{0,2g+2}/S_{2g+1}, that reads no census and no package formula."""

    def test_matches_closed_values(self):
        assert set(oracles.hyperelliptic_genus0_route(1)) == \
            {"hevol", "main-theorem"}
        assert set(oracles.hyperelliptic_genus0_route(2)) == \
            {"hevol", "main-theorem", "boundary", "w1h"}
        for g in range(1, 201):
            assert route_mismatches(g) == [], g

    @pytest.mark.parametrize("attr,value", [
        ("INVOLUTION_DEGREE", 1), ("INVOLUTION_DEGREE", Fraction(1, 4)),
        ("PSI_P", 1), ("PSI_P", Fraction(1, 4)),
        ("XI0_MULTIPLICITY", 1), ("XI0_MULTIPLICITY", 3)],
        ids=["involution-1", "involution-1/4", "psi_p-psi_1",
             "psi_p-psi_1/4", "xi0-multiplicity-1", "xi0-multiplicity-3"])
    def test_mutated_constant_fails(self, monkeypatch, attr, value):
        monkeypatch.setattr(oracles, attr, value)
        for g in range(2, 10):
            assert route_mismatches(g), g

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_mutated_xi0_coefficient_fails(self, monkeypatch, shift):
        # g xi_0 in (8g+4) lambda becomes (g + shift) xi_0
        original = oracles.cornalba_harris_lambda

        def mutated(g):
            coefficients = original(g)
            coefficients["xi", 0] += Fraction(shift, 8 * g + 4)
            return coefficients

        monkeypatch.setattr(oracles, "cornalba_harris_lambda", mutated)
        for g in range(2, 10):
            assert route_mismatches(g), g
