"""Acceptance suite: one test per criterion, exact equalities throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from fatmod.fatgraph import (one_vertex_opposite_pairing,
                             two_vertex_star_double)
from fatmod.hyperelliptic import (count_t1, count_t2, cut_along_involution,
                                  double_tree)
from fatmod.integrals import (euler_report, hodge_corollary, main_theorem,
                              psi_top_genus0, psi_top_hyperelliptic,
                              psi_top_moduli, w1_h_integral)
from fatmod.kontsevich import cell_volume, omega_matrix, pfaffian
from fatmod.trees import LEAF, build_rooted_tree, odd_valence_trees, \
    unrooted_trees
from fatmod.workspace import Workspace

from oracles import bernoulli_oracle, census_with_aut_order, \
    census_without, tree_word


def _announce(number, text):
    print("ACCEPTANCE %02d PASS: %s" % (number, text))


def test_criterion_01_expansion_facets():
    start = time.monotonic()
    comb = LEAF
    arms = []
    for _ in range(5):
        comb = (comb, LEAF)
        arms.append(comb)
    tree = build_rooted_tree(tuple(arms))
    v = tree.valences.index(6)
    for dedup in (True, False):
        results = tree.expansions(v, up_to_isomorphism=dedup)
        by_edges = {}
        for graph, new in results:
            by_edges.setdefault(len(new), []).append(graph)
        assert len(by_edges[3]) == 14
        assert len(by_edges[2]) == 21
        assert len(by_edges[1]) == 9
        assert sum(1 for g in by_edges[1] if 5 in g.valences) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(1, "6-valent expansion facets 14/21/9/6 in %.2fs" % elapsed)


def test_criterion_02_torus_census_and_psi(ws):
    start = time.monotonic()
    census = ws.trivalent_census(1)
    assert len(census) == 1
    assert census.entries[0].aut_order == 6
    value = census.orbifold_sum(weight=lambda e: cell_volume(e.graph).value)
    assert value == Fraction(1, 24)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(2, "(1,1) census: 1 class, |Aut|=6, psi integral 1/24 "
                 "in %.2fs" % elapsed)


def test_criterion_03_pfaffian_law(ws):
    start = time.monotonic()
    for g in (1, 2, 3):
        want = Fraction(4 ** (3 * g - 2), 2 ** g)
        for entry in ws.trivalent_census(g):
            assert abs(pfaffian(omega_matrix(entry.graph))) == want
    for tree in odd_valence_trees(13):
        m = tree.num_edges // 2
        assert abs(pfaffian(omega_matrix(tree))) == 4 ** m
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _announce(3, "Pfaffian law on trivalent censuses g<=3 and odd trees "
                 "<=13 edges in %.1fs" % elapsed)


def test_criterion_04_elimination_invariance(ws):
    rng = random.Random(20240809)
    pool = [e.graph for e in ws.trivalent_census(2)]
    pool += [e.graph for e in ws.trivalent_census(1)]
    pool += odd_valence_trees(11)
    pool += [e.graph for e in ws.trivalent_census(3)]
    graphs = rng.sample(pool, 100)
    for G in graphs:
        values = {abs(pfaffian(omega_matrix(G, eliminate=k)))
                  for k in range(G.num_edges)}
        assert len(values) == 1
    _announce(4, "|Pf| independent of eliminated edge on 100 random "
                 "census graphs")


def test_criterion_05_genus_zero(ws):
    start = time.monotonic()
    for n in range(4, 31):
        report = psi_top_genus0(n, ws)
        assert report.value_closed == 1
    for n in range(4, 10):
        report = psi_top_genus0(n, ws)
        assert report.assembled_mode == "census"
        assert report.value_assembled == 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(5, "genus-0 closed n=4..30 and assembled n=4..9 all equal 1 "
                 "in %.1fs" % elapsed)


def test_criterion_06_hyperelliptic_volume(ws):
    start = time.monotonic()
    for g in (1, 2, 3, 4):
        report = psi_top_hyperelliptic(g, ws)
        assert report.assembled_mode == "census"
        assert report.match
        assert report.value_closed == \
            Fraction(1, 2 ** (2 * g) * factorial(2 * g + 1))
    assert psi_top_hyperelliptic(2, ws).value_closed == Fraction(1, 1920)
    for g in range(5, 201):
        assert psi_top_hyperelliptic(g, ws).match
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _announce(6, "hyperelliptic top integral assembled g<=4, closed g<=200 "
                 "in %.1fs" % elapsed)


def test_criterion_07_w1_intersection_counts(ws):
    for g in (2, 3, 4):
        comps = ws.w1_components(g)
        assert comps.component1.orbifold_sum() == count_t1(g)
        assert comps.component2.orbifold_sum() == count_t2(g)
    assert count_t1(2) == Fraction(1, 10)
    assert count_t2(2) == Fraction(1, 2)
    _announce(7, "W1 intersection counts match enumeration for g=2,3,4")


def test_criterion_08_main_theorem(ws):
    for g in (2, 3, 4):
        report = main_theorem(g, ws)
        assert report.assembled_mode == "census"
        assert report.match
    assert main_theorem(2, ws).value_closed == Fraction(3, 640)
    assert main_theorem(1, ws).value_closed == Fraction(1, 24)
    assert main_theorem(1, ws).match
    for g in range(2, 201):
        assert main_theorem(g, ws).match
    _announce(8, "main theorem assembled g=2..4 and closed identity "
                 "g<=200")


def test_criterion_09_corollary(ws):
    assert hodge_corollary(2, ws).value_closed == Fraction(37, 5760)
    for g in range(2, 201):
        report = hodge_corollary(g, ws)
        assert report.match
        assert report.value_closed == \
            Fraction(14 * g * g - 11 * g + 3,
                     3 * 2 ** (2 * g) * factorial(2 * g + 1))
    _announce(9, "Hodge-integral corollary identity g=2..200")


def test_criterion_10_hyperelliptic_structure():
    for leaves in (3, 5, 7, 9):
        for tree in unrooted_trees(leaves):
            cell = double_tree(tree_word(tree))
            g = cell.doubled.graph_type().g
            iota = cell.doubled.hyperelliptic_involution()
            assert iota is not None
            assert cell.doubled.fixed_cells(iota).total == 2 * g + 2
            a, b = cut_along_involution(cell.doubled, iota)
            assert a.canonical_key() == tree.canonical_key()
            assert b.canonical_key() == tree.canonical_key()
    for g in range(2, 7):
        assert one_vertex_opposite_pairing(g).aut_order() == 4 * g
        assert two_vertex_star_double(g).aut_order() == 2 * (2 * g + 1)
    _announce(10, "doubling round-trips <=9 leaves; minimal cell "
                  "automorphism orders 4g and 2(2g+1) for g=2..6")


def test_criterion_11_euler_characteristics(ws):
    start = time.monotonic()
    r1 = euler_report(1, ws)
    r2 = euler_report(2, ws)
    assert r1.value_assembled == Fraction(-1, 12)
    assert r2.value_assembled == Fraction(1, 120)
    assert r1.value_closed == -bernoulli_oracle(2) / 2 == r1.value_assembled
    assert r2.value_closed == -bernoulli_oracle(4) / 4 == r2.value_assembled
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _announce(11, "Euler characteristics -1/12 and 1/120 against the "
                  "Bernoulli oracle in %.1fs" % elapsed)


def test_criterion_12_determinism_and_mutation(ws, tmp_path, child_env):
    argv = [sys.executable, "-m", "fatmod.cli", "report", "--identities",
            "euler,main-theorem,hevol", "--g", "1..2", "--format", "json"]
    outputs = []
    for hashseed in ("0", "17"):
        env = dict(child_env, PYTHONHASHSEED=hashseed)
        env.pop("FATMOD_CACHE", None)
        proc = subprocess.run(argv, capture_output=True, env=env,
                              cwd=str(tmp_path), timeout=120)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

    census = ws.trivalent_census(2)
    removed = Workspace()
    removed.override(census.descriptor, census_without(census, 0))
    assert not psi_top_moduli(2, removed).match
    hyper = ws.hyperelliptic_census(2)
    perturbed = Workspace()
    perturbed.override(hyper.descriptor, census_with_aut_order(hyper, 0, 5))
    assert not psi_top_hyperelliptic(2, perturbed).match
    comps = ws.w1_components(2)
    broken = Workspace()
    broken.override(comps.component2.descriptor,
                    census_without(comps.component2, 0))
    assert not w1_h_integral(2, broken).match
    _announce(12, "byte-identical reports across processes; injected "
                  "census faults flip match flags")
