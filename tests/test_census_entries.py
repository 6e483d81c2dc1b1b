"""Census entries: keys and automorphism orders do not depend on half-edge
labels, and agree with the explicit search in ``oracles``; word entries,
tree entries, cell entries and the cache loader agree with the graph-based
references (``Fatgraph.canonical_key`` and ``Fatgraph.aut_order``)."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from fatmod.cache import cache_path, save_records
from fatmod.enumeration import ALL, TRIVALENT, enumerate_trees, \
    fatgraph_descriptor, word_entry
from fatmod.errors import CacheError, MalformedGraph, WrongType
from fatmod.fatgraph import Fatgraph, least_rotation
from fatmod.trees import MARKED, ONE5, TRIVALENT as TREE_TRIVALENT, \
    PlanarTree, _classes, odd_valence_trees, unrooted_trees
from fatmod.workspace import Workspace

from oracles import automorphism_order_bruteforce, extend_flag_map, \
    in_fatgraph_census, least_rotation_by_brute_force, perm_compose, \
    record_entry_reference, relabel, tree_word


def _one_boundary_censuses():
    censuses = {}
    ws = Workspace()
    for g in (1, 2):
        censuses["trivalent-g%d" % g] = ws.trivalent_census(g)
        censuses["all-g%d" % g] = ws.all_valence_census(g)
    for g in (1, 2, 3):
        censuses["cells-g%d" % g] = ws.hyperelliptic_census(g)
    for g in (2, 3):
        comps = ws.w1_components(g)
        censuses["w1-component1-g%d" % g] = comps.component1
        censuses["w1-component2-g%d" % g] = comps.component2
    return [pytest.param(entry.graph, id="%s-%d" % (name, i))
            for name, census in censuses.items()
            for i, entry in enumerate(census)]


def _flagged_trees():
    pools = {}
    for profile in (TREE_TRIVALENT, ONE5, MARKED):
        for leaves in range(2, 9):
            pools["trees-%s-L%d" % (profile, leaves)] = \
                unrooted_trees(leaves, profile)
    pools["odd-valence-E9"] = odd_valence_trees(9)
    return [pytest.param(tree, id="%s-%d" % (name, i))
            for name, trees in pools.items()
            for i, tree in enumerate(trees)]


GRAPHS = _one_boundary_censuses()
TREES = _flagged_trees()

aut_order_oracle = lru_cache(maxsize=None)(automorphism_order_bruteforce)


def tree_entry(tree):
    """The key and |Aut| a tree census gives the class of a tree, from its
    flagged boundary word read at half-edge 0 (``trees._classes``)."""
    [(key, _, aut)] = _classes([tree_word(tree)])
    return key, aut


@pytest.mark.parametrize("graph", GRAPHS + TREES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_graph_entry_is_label_invariant(graph, data):
    # the canonical key and |Aut| that census entries are checked against
    # (and, for trees, the tree entry) do not depend on half-edge labels,
    # and |Aut| is the explicit search's; relabel returns a plain Fatgraph,
    # so the original says which entry applies
    def entry_of(G):
        if isinstance(graph, PlanarTree):
            return tree_entry(G)
        return G.canonical_key(), G.aut_order()
    perm = data.draw(st.permutations(range(graph.num_half_edges)))
    key, aut = entry_of(graph)
    assert entry_of(relabel(graph, perm)) == (key, aut)
    assert aut == aut_order_oracle(graph)


@pytest.mark.parametrize("graph", GRAPHS + TREES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_from_word_reads_back_the_key(graph, data):
    # the word is the serialization of a cache record: whatever the labels,
    # the graph it rebuilds reads the key back from half-edge 0
    key = relabel(graph, data.draw(
        st.permutations(range(graph.num_half_edges)))).canonical_key()
    rebuilt = type(graph).from_word(key)
    assert rebuilt.boundary_word()[1] == key
    assert rebuilt.aut_order() == graph.aut_order()


@pytest.mark.parametrize("graph", GRAPHS)
def test_half_turn_is_the_only_hyperelliptic_involution(graph):
    # every automorphism from the oracle's search, kept when it is an
    # involution with 2g+2 fixed cells
    m = graph.num_half_edges
    ident = tuple(range(m))
    total = 2 * graph.graph_type().g + 2
    found = set()
    for h in range(m):
        phi = extend_flag_map(graph, graph, 0, h)
        if phi is None:
            continue
        a = tuple(phi[x] for x in range(m))
        if a != ident and perm_compose(a, a) == ident and \
                graph.fixed_cells(a).total == total:
            found.add(a)
    iota = graph.hyperelliptic_involution()
    assert found == (set() if iota is None else {iota})


@pytest.mark.parametrize("valence_filter",
                         [TRIVALENT, ("single", 4), ("single", 5)],
                         ids=["trivalent", "single4", "single5"])
def test_fatgraph_census_membership(valence_filter, ws):
    # of the all-valence censuses at g = 1, 2, the members of a census are
    # exactly its classes, and no class is of another genus's census; a
    # single k-valent vertex with k > 4g is refused, and no class is of it
    for g in (1, 2):
        pool = ws.all_valence_census(g)
        assert all(in_fatgraph_census(e.graph, g, ALL) for e in pool)
        assert not any(in_fatgraph_census(e.graph, 3 - g, ALL)
                       for e in pool)
        members = {e.key for e in pool
                   if in_fatgraph_census(e.graph, g, valence_filter)}
        if valence_filter != TRIVALENT and valence_filter[1] > 4 * g:
            assert not members
            with pytest.raises(WrongType):
                ws.fatgraph_census(g, valence_filter)
            continue
        assert members == {e.key for e in ws.fatgraph_census(
            g, valence_filter)}


@pytest.mark.parametrize("g,valence_filter", [
    (1, TRIVALENT), (2, TRIVALENT), (3, TRIVALENT), (1, ALL), (2, ALL),
    (2, ("single", 5))])
def test_word_entry_matches_graph_entry(g, valence_filter, ws):
    # a word entry holds no graph; the graph its key rebuilds has the same
    # key and |Aut|, and |Aut| is the explicit search's
    census = ws.fatgraph_census(g, valence_filter)
    assert len(census)
    for entry in census:
        graph = Fatgraph.from_word(entry.key)
        assert (entry.key, entry.aut_order) == \
            (graph.canonical_key(), graph.aut_order())
        assert entry.aut_order == aut_order_oracle(graph)
        assert entry.graph == graph


def _cell_censuses():
    ws = Workspace()
    censuses = [ws.hyperelliptic_census(g) for g in (1, 2, 3)]
    for g in (2, 3):
        comps = ws.w1_components(g)
        censuses += [comps.component1, comps.component2]
    return [pytest.param(census, id=census.descriptor) for census in censuses]


@pytest.mark.parametrize("census", _cell_censuses())
def test_cell_entries_read_the_doubled_word(census):
    # a cell enters by the least rotation of the word double_tree wrote; it
    # holds the graph that word builds, and its |Aut| is the explicit
    # search's on that graph
    assert len(census)
    for entry in census:
        cell = entry.payload
        assert entry.graph == Fatgraph.from_word(entry.key)
        assert cell.doubled == Fatgraph.from_word(cell.word)
        assert cell.doubled.boundary_word()[1] == cell.word
        assert entry.key == cell.doubled.canonical_key()
        assert entry.aut_order == automorphism_order_bruteforce(entry.graph)


@pytest.mark.parametrize("word,g", [
    ((), 1), ((3, 3, 3), 1), ((0, 3, 3, 3, 3, 3), 1),
    ((-3, 3, 3, 9, 3, 3), 1), ((9, 3, 3, 3, 3, 3), 1),
    ((3, 3, 3, 3, 3, 2), 1), ((1, 3, 1, 3), 1), ((2, 3, 4, 2, 3, 4), 1),
    ((2, 6, 6, 2, 2, 6, 6, 2), 2)],
    ids=["empty", "odd", "zero-gap", "negative-gap", "flag-code",
         "no-pairing", "valence-one", "valence-two", "not-least-rotation"])
def test_word_entry_rejects_what_the_graph_check_rejects(word, g):
    # the negative-gap, valence and rotation words are each caught by one
    # check alone
    assert record_entry_reference((1, word), g, ALL) is None
    with pytest.raises(MalformedGraph):
        word_entry(word, g, ALL)


@pytest.mark.parametrize("g", [1, 2])
def test_word_entry_rejects_every_other_rotation(g, ws):
    # the all-valence census holds every class of genus g; each rotation
    # of its word that is not the word itself is refused
    for entry in ws.fatgraph_census(g, ALL):
        word = entry.key
        for r in range(1, len(word)):
            rotated = word[r:] + word[:r]
            if rotated != word:
                with pytest.raises(MalformedGraph):
                    word_entry(rotated, g, ALL)


@pytest.mark.parametrize("words", [
    lambda ws: [(e.key, g, TRIVALENT) for g in (1, 2, 3)
                for e in ws.trivalent_census(g)],
    lambda ws: [(e.key, g, ALL) for g in (1, 2)
                for e in ws.fatgraph_census(g, ALL)],
    lambda ws: [(e.key, g, ALL) for g in (1, 2, 3)
                for e in ws.hyperelliptic_census(g)]
    + [(e.key, g, ALL) for g in (2, 3)
       for component in ws.w1_components(g) for e in component],
], ids=["trivalent", "all-valence", "cells"])
def test_one_scan_reads_the_rotation_period(words, ws):
    # each census word is its own least rotation, and the scan that checks
    # it reads |Aut| = m / period off the same rotations
    words = words(ws)
    assert words
    for word, g, valence_filter in words:
        start, period = least_rotation_by_brute_force(word)
        assert start == 0
        assert least_rotation(word) == (start, period)
        assert word_entry(word, g, valence_filter).aut_order == \
            len(word) // period


def test_one_scan_reads_tree_periods():
    # tree keys carry flag codes, so they skip word_entry; trees._classes
    # reads the same period off them
    for profile in (TREE_TRIVALENT, ONE5, MARKED):
        for leaves in range(2, 10):
            for entry in enumerate_trees(leaves, profile):
                start, period = least_rotation_by_brute_force(entry.key)
                assert start == 0
                assert least_rotation(entry.key) == (start, period)
                assert entry.aut_order == len(entry.key) // period


@st.composite
def periodic_words(draw):
    """A base word repeated and then rotated, with entries up to 3m for a
    word of length m, as flagged tree codes run, so that periods above 1
    and ties at the least entry are common."""
    size = draw(st.integers(1, 6))
    reps = draw(st.integers(1, 4))
    m = size * reps
    entry = st.integers(1, 3) | st.integers(1, 3 * m)
    word = tuple(draw(st.lists(entry, min_size=size, max_size=size))) * reps
    r = draw(st.integers(0, m - 1))
    return word[r:] + word[:r]


@settings(max_examples=500, deadline=None)
@given(periodic_words())
def test_one_scan_matches_brute_force(word):
    # the first start of the least rotation and the least period, as the
    # list of every rotation gives them
    assert least_rotation(word) == least_rotation_by_brute_force(word)


RECORD_CENSUSES = {(g, valence_filter): Workspace().fatgraph_census(
    g, valence_filter) for g in (1, 2) for valence_filter in (TRIVALENT, ALL)}
RECORD_EDITS = ("rotate", "change", "swap", "aut", "flag", "odd-length",
                "involution", "other-genus")


@st.composite
def edited_records(draw):
    """A real g = 1, 2 record, edited one way; (g, filter, record)."""
    g = draw(st.sampled_from((1, 2)))
    valence_filter = draw(st.sampled_from((TRIVALENT, ALL)))
    entry = draw(st.sampled_from(
        RECORD_CENSUSES[g, valence_filter].entries))
    aut, word = entry.aut_order, list(entry.key)
    m = len(word)
    slot = st.integers(0, m - 1)
    edit = draw(st.sampled_from(RECORD_EDITS))
    if edit == "rotate":
        r = draw(slot)
        word = word[r:] + word[:r]
    elif edit == "change":
        word[draw(slot)] = draw(st.integers(-1, 3 * m))
    elif edit == "swap":
        i, j = draw(slot), draw(slot)
        word[i], word[j] = word[j], word[i]
    elif edit == "aut":
        aut = draw(st.integers(0, 2 * m))
    elif edit == "flag":  # a flag code: an entry of m or more
        word[draw(slot)] += m * draw(st.integers(1, 2))
    elif edit == "odd-length":
        word = word[:-1] if draw(st.booleans()) else \
            word + [draw(st.integers(1, m))]
    elif edit == "involution":  # slot p points at a slot not its partner
        p = draw(slot)
        q = draw(slot.filter(lambda q: q not in (p, (p + word[p]) % m)))
        word[p] = (q - p) % m
    else:
        other = draw(st.sampled_from(
            RECORD_CENSUSES[3 - g, valence_filter].entries))
        aut, word = other.aut_order, list(other.key)
    return g, valence_filter, (aut, tuple(word))


@pytest.fixture(scope="module")
def record_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("records")


@settings(max_examples=400, deadline=None)
@given(case=edited_records())
def test_loader_matches_graph_based_reference(record_dir, case):
    # the loader checks a record on its word alone; it rejects a record
    # exactly when rebuilding the graph does, and otherwise reads the same
    # key and |Aut|
    g, valence_filter, record = case
    descriptor = fatgraph_descriptor(g, valence_filter)
    save_records(cache_path(record_dir, descriptor), descriptor, [record])
    want = record_entry_reference(record, g, valence_filter)
    try:
        census = Workspace(cache_dir=record_dir)._load(descriptor, g,
                                                       valence_filter)
    except CacheError:
        assert want is None
    else:
        [entry] = census
        assert (entry.key, entry.aut_order) == want


TAMPER_EDITS = ("drop", "duplicate", "swap", "aut", "entry", "rotate",
                "count", "header")


def tamper(lines, edit, rng):
    """The cache file ``lines`` with one seeded edit of the kind ``edit``;
    a deletion or a duplicate fixes the ``count=`` line half the time."""
    head, body = lines[:3], lines[3:]
    i = rng.randrange(len(body))
    aut, word = body[i].split(" | ")
    word = word.split(",")
    if edit == "drop":
        for _ in range(min(rng.choice((1, 2)), len(body))):
            del body[rng.randrange(len(body))]
    elif edit == "duplicate":
        body.insert(rng.randrange(len(body) + 1), body[i])
    elif edit == "swap":
        j = rng.randrange(len(body))
        body[i], body[j] = body[j], body[i]
    elif edit == "aut":
        body[i] = "%d | %s" % (rng.choice((0, 1, 2 * int(aut), rng.randint(
            1, 2 * len(word)))), ",".join(word))
    elif edit == "entry":
        word[rng.randrange(len(word))] = str(rng.randint(-1, len(word)))
        body[i] = "%s | %s" % (aut, ",".join(word))
    elif edit == "rotate":
        r = rng.randrange(1, len(word))
        body[i] = "%s | %s" % (aut, ",".join(word[r:] + word[:r]))
    elif edit == "count":
        head[2] = rng.choice(["count=%d" % (len(body) + d) for d in
                              (-2, -1, 1, 2)] + ["count=", "count=x",
                                                 "cnt=%d" % len(body)])
    else:
        k = rng.randrange(2)
        head[k] = rng.choice(
            ("fatmod-census 2", "fatmod-census", "", head[k] + " ",
             fatgraph_descriptor(1, TRIVALENT), fatgraph_descriptor(2, ALL)))
    if edit in ("drop", "duplicate") and rng.random() < 0.5:
        head[2] = "count=%d" % len(body)
    return head + body


def test_tampered_cache_file_is_refused_or_true(tmp_path):
    # seeded edits of the true g = 1, 2 trivalent and all-valence files:
    # a --no-build read refuses the file or loads the true census, key for
    # key and |Aut| for |Aut|
    truth = Workspace(cache_dir=tmp_path / "true")
    rng = random.Random(33)
    outcomes = dict.fromkeys(TAMPER_EDITS, "")
    for g in (1, 2):
        for valence_filter in (TRIVALENT, ALL):
            census = truth.fatgraph_census(g, valence_filter)
            want = [(e.key, e.aut_order) for e in census]
            path = cache_path(tmp_path / "true", census.descriptor)
            lines = path.read_text().splitlines()
            victim = cache_path(tmp_path / "edited", census.descriptor)
            victim.parent.mkdir(exist_ok=True)
            for edit in TAMPER_EDITS:
                for _ in range(24):
                    edited = tamper(list(lines), edit, rng)
                    victim.write_text("\n".join(edited) + "\n")
                    try:
                        got = Workspace(cache_dir=victim.parent,
                                        no_build=True).fatgraph_census(
                            g, valence_filter)
                    except CacheError:
                        outcomes[edit] += "r"
                    else:
                        assert [(e.key, e.aut_order) for e in got] == \
                            want, edited
                        outcomes[edit] += "="
    # swaps only reorder records, so they always load; every other kind
    # of edit was refused at least once
    assert all(len(seen) == 96 for seen in outcomes.values()), outcomes
    assert set(outcomes.pop("swap")) == {"="}, outcomes
    assert all("r" in seen for seen in outcomes.values()), outcomes
