"""The package never reaches into the test suite, builds trees and cells
one way, and holds no helper that only the tests call.

Test oracles such as ``oracles.walsh_lehman`` are second routes for the
tests only; a module of ``fatmod`` that imported one would make the two
routes of a check share code.  Likewise ``oracles.rooted_tree_by_cycles``
and ``oracles.double_by_cycles`` are the only builders of trees and cells
from vertex cycles, and ``oracles.collapse_edge`` is the only collapse on
vertex cycles: the package collapses boundary words.  The pairing search
that walks its paths link by link and undoes from a trail is
``oracles.trivalent_pairings_reference`` only.  The package's one pairing
search has one caller, ``enumeration.enumerate_fatgraphs``, which builds
only the trivalent census, so every other census is collapsed from a
trivalent census and no census path searches twice.  The search keeps
and emits gap words, and the collapse edits gaps, so no function of the
census layer holds a pairing ``alpha``.  One function turns canonical
words into a fatgraph census, ``enumeration.word_census``: it checks
their key order and enters each once by ``word_entry``, and the search,
the collapse and the cache loader all feed it.  Only the workspace door, ``Workspace.fatgraph_census``,
checks a census filter, runs the search and collapses the other censuses.
Only fatgraph censuses are cached, so the workspace holds no tree record
kind, and unrooted tree classes are found among contour words, not among
built rooted trees.  A fatgraph census class is its gap word: the cache
loader checks its records through ``word_census`` and builds no graph, and the census
sums of genus0, psi-top and euler read the word, not a graph, and build
each cell form in one pass over the word's slot pairs.  A graph's form
and the hyperelliptic pullback read their raw coefficients through one
pass over a boundary word's edge pairs, and the test oracles for it import
no form code from the package.  Every census class enters by its word, so
no module has a graph entry function.  Trees and hyperelliptic cells are
their boundary words on every census path: a tree census reads keys and
|Aut| off contour words, a cell is doubled from its tree's key, and no
census entry stores a graph, so building a tree or cell census, or the
hevol and w1h sums over cells, names no ``Fatgraph`` or ``PlanarTree``.
Every canonical key and |Aut| comes from one rotation scan,
``fatgraph.least_rotation``, and tree and cell keys never reach the gap
word of the census search.
The value records are NamedTuples, so importing the CLI loads neither
``dataclasses`` nor the ``inspect`` family it brings, and importing the
package loads none of its modules.  One door reads,
builds and writes a fatgraph census, ``Workspace.fatgraph_census``: the
CLI reaches no private workspace member and no census builder, only that
method writes a census file or refuses a missing one under ``--no-build``,
and a cache record is ``|Aut| | word`` with no kind column.  One rule
decides whether a fatgraph census is complete: each of its vertex profiles
meets its closed rooted count.  The closed counts read no census, and the
workspace checks them by integer sums in one function, with no collapse
guard of its own.
One layer reads boundary words: ``fatgraph.word_pairs`` is the one check
that a gap word pairs its slots and the one numbering of its edges by
first slot, which the census entry, the cell forms and the tree doubling
share, and ``fatgraph.split_flags`` is the one split of a flagged word into
gaps and flags; no other function compares a slot with its partner's gap
or strips a flag by hand.
Each identity's closed route is a formula of its parameter alone: it
names no workspace, census builder, census sum, cell volume, per-cell
formula or assembled route.  Each census route compares every cell with
the one closed per-cell formula, so neither the word path's integer
Pfaffians nor the hyperelliptic pullback runs a Pf^2 = det check (only
``pfaffian`` does), and then sums its census once, with no weight per
cell.  The command line names no identity; it looks
each one up in ``integrals.IDENTITIES`` and reads its default range from
``integrals.TABLE``.
"""

import ast
import inspect
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fatmod
from fatmod import integrals

PACKAGE = Path(fatmod.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TEST_MODULES = sorted(p.stem for p in TESTS.glob("*.py"))
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_names(path):
    """Every module name an import statement of the file names."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_test_modules_are_listed():
    assert "oracles" in TEST_MODULES and "conftest" in TEST_MODULES


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_module_imports_nothing_from_tests(path):
    for name in imported_names(path):
        top = name.split(".")[0]
        assert top not in TEST_MODULES and top != "tests", \
            "%s imports %s" % (path.name, name)


def referenced_names(path):
    """Every name, attribute and imported name the file mentions, and every
    function and class it defines."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", ["trees", "hyperelliptic"])
def test_trees_and_cells_are_built_from_words(module):
    # the boundary word is the one way to build a tree or a cell, so neither
    # module reaches for vertex cycles or permutation composition
    names = referenced_names(PACKAGE / ("%s.py" % module))
    assert not names & {"from_cycles", "perm_compose"}


# helpers that no pipeline step, CLI command or acceptance check calls; the
# references the tests still need are in ``oracles`` or the test modules
TEST_ONLY = {"collapse_edge", "_cycle_from", "LoopCollapse", "relabeled",
             "perm_inverse", "boundary_edge_cycles", "full_simplex_involution",
             "boundary_integral_stable_path", "parse_rational",
             "internal_valences", "leaf_vertices", "in_fatgraph_census",
             "marked_vertices", "rooted_key", "tree_entry"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_test_only_helpers(path):
    assert not referenced_names(path) & TEST_ONLY


def test_pairing_search_keeps_no_path_walkers():
    # the search keeps each open path's ends and size at its endpoints and
    # restores a snapshot, so it walks no path and keeps no undo trail
    names = referenced_names(PACKAGE / "enumeration.py")
    assert not names & {"head_of", "tail_of", "path_len", "undo"}


def mentions(node, name):
    """How often the names, attributes and imported names under node
    say name."""
    return sum(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name
               or isinstance(n, ast.alias) and name in (n.name, n.asname)
               for n in ast.walk(node))


@pytest.mark.parametrize("function", ["_trivalent_pairings",
                                      "canonical_gap_word", "collapse_word",
                                      "enumerate_fatgraphs"])
def test_census_layer_keeps_no_pairing(function):
    # a fatgraph census is gap words end to end: the search keeps and
    # emits gap words, and the collapse edits gaps, so no function of the
    # census layer holds the pairing alpha beside them
    assert not mentions(function_node("enumeration", function), "alpha")


def test_search_words_are_checked_once():
    # the search emits canonical words into the one census function, which
    # checks each by word_entry; a second canonical form of each would be
    # a second check of the same thing
    node = function_node("enumeration", "word_census")
    assert mentions(node, "word_entry")
    assert not mentions(node, "canonical_gap_word")
    node = function_node("enumeration", "enumerate_fatgraphs")
    assert mentions(node, "word_census")
    assert not mentions(node, "canonical_gap_word")


def test_one_path_from_words_to_a_census():
    # the search, the collapse and the cache loader enter their words
    # through word_census alone; only the doubled cells, which are no
    # fatgraph census, call word_entry beside it
    assert functions_mentioning("word_census") == [
        "enumeration.collapse_closure", "enumeration.enumerate_fatgraphs",
        "workspace._load"]
    assert functions_mentioning("word_entry") == [
        "enumeration.word_census", "hyperelliptic._cell_census"]
    from fatmod.workspace import Workspace
    assert not hasattr(Workspace, "_entry_from_record")


def test_one_function_runs_the_pairing_search():
    search = "_trivalent_pairings"
    callers, total, inside = [], 0, 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        total += mentions(tree, search)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.name not in ("_one_boundary_census",
                                         "_trivalent_census"), path.name
                if node.name != search and mentions(node, search):
                    callers.append("%s.%s" % (path.stem, node.name))
                    inside += mentions(node, search)
    assert callers == ["enumeration.enumerate_fatgraphs"]
    # no module-level alias or import reaches the search either
    assert total == inside


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_tree_record_kind(path):
    assert not referenced_names(path) & {"in_tree_census", "_RECORD_KINDS"}
    if path.stem == "workspace":
        assert not referenced_names(path) & {"PlanarTree", "tree_entry"}


def function_node(module, name):
    """The definition of the module-level function name in module."""
    tree = ast.parse((PACKAGE / ("%s.py" % module)).read_text())
    [node] = [n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


@pytest.mark.parametrize("function", ["unrooted_trees", "odd_valence_trees",
                                      "_classes"])
def test_tree_classes_build_no_rooted_trees(function):
    node = function_node("trees", function)
    for name in ("rooted_trees", "build_rooted_tree"):
        assert not mentions(node, name), "%s names %s" % (function, name)


def test_record_check_builds_no_graph():
    # the loader must not call canonical_gap_word either: traced cached
    # runs count its calls as census searches
    graph_names = {"Fatgraph", "graph_entry", "canonical_gap_word"}
    assert not referenced_names(PACKAGE / "workspace.py") & graph_names
    for function in ("word_census", "word_entry"):
        node = function_node("enumeration", function)
        assert not any(mentions(node, name) for name in graph_names)


def test_one_least_rotation_scan():
    # canonical keys and |Aut| all come from fatgraph.least_rotation; a
    # second least-rotation or period routine would be a second answer to
    # the same question
    defined = ["%s.%s" % (path.stem, node.name) for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and "least_rotation" in node.name]
    assert defined == ["fatgraph.least_rotation"]
    for path in SOURCES:
        assert not referenced_names(path) & {"rotation_period",
                                             "_least_rotation_period"}, \
            path.name


@pytest.mark.parametrize("module", ["trees", "hyperelliptic"])
def test_tree_and_cell_keys_skip_the_gap_word(module):
    # traced runs count canonical_gap_word calls as census searches, and
    # tree and cell censuses search for no fatgraph census
    names = referenced_names(PACKAGE / ("%s.py" % module))
    assert "canonical_gap_word" not in names


def assembled_node(report):
    """The definition of the assembled route behind the report function
    ``integrals.report``, which is ``evaluate`` bound to an identity."""
    bound = getattr(integrals, report)
    assert bound.func is integrals.evaluate
    return function_node("integrals",
                         integrals.TABLE[bound.args[0]].assembled.__name__)


@pytest.mark.parametrize("function", ["psi_top_genus0", "psi_top_moduli",
                                      "euler_report"])
def test_census_sums_read_words(function):
    assert not mentions(assembled_node(function), "graph")


@pytest.mark.parametrize("function", ["word_cell_volume", "word_pfaffian",
                                      "_word_omega_matrix"])
def test_word_form_is_built_in_one_pass(function):
    # the census cells build their form from the word's slot pairs; a
    # graph or the slot-sequence kernel would be the two-pass build again
    node = function_node("kontsevich", function)
    for name in ("Fatgraph", "_raw_form", "_eliminate", "omega_matrix"):
        assert not mentions(node, name), "%s names %s" % (function, name)


def test_word_volume_skips_the_determinant():
    # census cells are checked by their closed per-cell value, so the word
    # path runs the Pfaffian kernel without the Pf^2 = det check, and the
    # word volume is the volume of the one integer word Pfaffian
    for function, calls in [("word_pfaffian", "_pfaffian_int"),
                            ("word_cell_volume", "word_pfaffian")]:
        node = function_node("kontsevich", function)
        assert mentions(node, calls), function
        for name in ("_det_fraction", "pfaffian"):
            assert not mentions(node, name), "%s names %s" % (function, name)


def test_only_pfaffian_checks_the_determinant():
    # Pf^2 = det belongs to the checked pfaffian alone: the hyperelliptic
    # pullback runs the kernel on its integer form, and its cells are
    # checked against the halved tree volume and the closed per-cell value
    assert functions_mentioning("_det_fraction") == ["kontsevich.pfaffian"]
    node = function_node("kontsevich", "hyperelliptic_cell_volume")
    assert mentions(node, "_integer_form") and mentions(node, "_pfaffian_int")
    for name in ("pfaffian", "_det_fraction"):
        assert not mentions(node, name), "the pullback names %s" % name


def test_kernel_copies_no_row():
    # the kernel works on the rows it is given; a caller that reads them
    # again copies them itself
    node = function_node("kontsevich", "_pfaffian_int")
    for name in ("list", "tuple", "copy", "deepcopy"):
        assert not mentions(node, name), "_pfaffian_int names %s" % name
    assert not [n for n in ast.walk(node) if isinstance(n, ast.ListComp)
                or isinstance(n, ast.Slice) and n.lower is None
                and n.upper is None]


def test_word_pfaffian_checks_no_form():
    # the word form comes as the kernel reads it, an upper triangle and so
    # antisymmetric by construction; a check pass over it would be the
    # second pass over the form again
    node = function_node("kontsevich", "word_pfaffian")
    for name in ("_word_omega_matrix", "_pfaffian_int"):
        assert mentions(node, name), "word_pfaffian skips %s" % name
    assert not mentions(node, "_integer_form")


def orbifold_sum_calls(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "orbifold_sum"]


@pytest.mark.parametrize("function", ["psi_top_genus0", "psi_top_moduli",
                                      "psi_top_hyperelliptic",
                                      "w1_h_integral"])
def test_census_routes_check_the_per_cell_value(function):
    # every census cell is compared with the one closed per-cell formula,
    # which the formula rows above the thresholds read too; once every
    # cell has passed, the census is summed once, as the per-cell value
    # times its orbifold count, with no weight per cell
    node = assembled_node(function)
    assert mentions(node, "_cell_volume_formula")
    assert mentions(node, "_certified")
    assert not orbifold_sum_calls(node)
    [call] = orbifold_sum_calls(function_node("integrals", "_certified"))
    assert not call.args and not call.keywords


@pytest.mark.parametrize("function", ["hyperelliptic_cell_volume",
                                      "_pullback"])
def test_cell_volume_reads_the_doubled_word(function):
    # the pullback reads the cell's doubled word and the halved-tree check
    # the tree's word; the doubled graph's cycles and raw matrix, or a
    # graph's form, would rebuild what the word already holds
    node = function_node("kontsevich", function)
    for name in ("boundary_cycles", "_edge_index_table", "omega_matrix",
                 "cell_volume"):
        assert not mentions(node, name), "%s names %s" % (function, name)


@pytest.mark.parametrize("module,function", [
    ("hyperelliptic", "double_tree"), ("hyperelliptic", "_cell_census"),
    ("enumeration", "enumerate_trees"),
    ("kontsevich", "hyperelliptic_cell_volume"), ("kontsevich", "_pullback"),
    ("integrals", "psi_top_hyperelliptic"), ("integrals", "w1_h_integral")])
def test_tree_and_cell_censuses_build_no_graph(module, function):
    # a tree or a cell is its boundary word on every census path; a graph,
    # a tree or a doubled graph built there would rebuild what the word
    # already holds
    node = (assembled_node(function) if module == "integrals"
            else function_node(module, function))
    for name in ("Fatgraph", "PlanarTree", "from_word", "graph", "doubled"):
        assert not mentions(node, name), "%s names %s" % (function, name)


@pytest.mark.parametrize("function", ["omega_matrix", "_pullback"])
def test_one_raw_coefficient_pass(function):
    # a graph's form and the hyperelliptic pullback both take their raw
    # coefficients from the one pass over a boundary word's edge pairs;
    # a graph's boundary cycles would be a second route to the same slots
    node = function_node("kontsevich", function)
    assert mentions(node, "_raw_form")
    assert not mentions(node, "boundary_cycles")


def test_oracles_share_no_form_code():
    # the references for the raw pass, the elimination and the pullback
    # assemble their own forms; importing any of the package's would make
    # a check compare the package with itself
    path = TESTS / "oracles.py"
    assert "fatmod.kontsevich" not in imported_names(path)
    assert not referenced_names(path) & {"kontsevich", "_raw_form",
                                         "_eliminate", "omega_matrix",
                                         "_pullback", "_word_omega_matrix"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_census_classes_enter_by_their_words(path):
    # fatgraph classes, trees and doubled cells all enter a census through
    # their boundary words (word_entry, trees._classes)
    assert "graph_entry" not in referenced_names(path)


def test_cli_import_skips_dataclasses(child_env):
    # set against the child's own start-up modules, so a site hook that
    # preloads one of them cannot fail the test
    code = ("import sys; start = set(sys.modules); import fatmod.cli; "
            "print(*sorted(set(sys.modules) - start))")
    added = subprocess.run([sys.executable, "-c", code], env=child_env,
                           capture_output=True, text=True,
                           check=True).stdout.split()
    assert "fatmod.cli" in added
    assert not set(added) & {"dataclasses", "inspect", "ast", "dis",
                             "tokenize"}


def test_package_import_loads_no_module(child_env):
    # the package re-exports nothing, so a bare import reads only its own
    # file; counted the same way as the CLI import above
    code = ("import sys; start = set(sys.modules); import fatmod; "
            "print(*sorted(set(sys.modules) - start))")
    added = subprocess.run([sys.executable, "-c", code], env=child_env,
                           capture_output=True, text=True,
                           check=True).stdout.split()
    assert "fatmod" in added
    assert not [name for name in added if name.startswith("fatmod.")]
    assert not set(added) & {"fractions", "decimal"}


def functions_mentioning(name):
    """``module.function`` for every function of the package whose body
    says name, nested functions by their own names."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name != name and mentions(node, name):
                found.append("%s.%s" % (path.stem, node.name))
    return found


def test_cli_takes_fatgraph_censuses_from_the_workspace():
    # enumerate reads, builds and writes through the same door as verify
    from fatmod.workspace import Workspace
    private = {name for name in vars(Workspace)
               if name.startswith("_") and not name.startswith("__")}
    names = referenced_names(PACKAGE / "cli.py")
    assert not names & ({"_load", "save", "collapse_closure",
                         "enumerate_fatgraphs", "fatgraph_descriptor"}
                        | private)
    for path in SOURCES:
        assert "_get" not in referenced_names(path), path.name


@pytest.mark.parametrize("name", ["fatgraph_filter", "enumerate_fatgraphs",
                                  "collapse_closure"])
def test_only_the_door_checks_searches_and_collapses(name):
    # one owner per job: the door normalizes the filter, and only it runs
    # the search or derives another census from the trivalent one
    assert functions_mentioning(name) == ["workspace.fatgraph_census"]


def test_one_door_writes_and_refuses():
    assert functions_mentioning("save_records") == \
        ["workspace.fatgraph_census"]
    assert functions_mentioning("no_build") == \
        ["workspace.__init__", "workspace.fatgraph_census"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_record_kind_literal(path):
    # a cache record is |Aut| and word; "graph" was its one kind
    constants = {node.value for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Constant)}
    assert "graph" not in constants


@pytest.mark.parametrize("function", [
    "fatgraph_closed_count", "fatgraph_profiles", "rooted_one_face_count",
    "_hook_characters", "_partitions", "tree_closed_count"])
def test_closed_counts_read_no_census(function):
    node = function_node("enumeration", function)
    for name in ("OrbifoldCensus", "Workspace", "enumerate_fatgraphs",
                 "collapse_closure", "orbifold_sum", "word_entry"):
        assert not mentions(node, name), "%s names %s" % (function, name)


def test_one_completeness_check():
    # every fatgraph census the workspace reads or builds passes the one
    # per-profile check, by integer sums, not the Fraction orbifold sum;
    # the workspace keeps no collapse guard beside it
    from fatmod.workspace import Workspace
    assert not hasattr(Workspace, "collapse_closure")
    assert functions_mentioning("rooted_one_face_count") == \
        ["enumeration.fatgraph_closed_count",
         "workspace._check_rooted_counts"]
    assert functions_mentioning("_check_rooted_counts") == \
        ["workspace.fatgraph_census"]
    assert "orbifold_sum" not in referenced_names(PACKAGE / "workspace.py")


# what the assembled routes read: the workspace, its census builders, the
# census sums and the cell volumes
ASSEMBLY_NAMES = {
    "Workspace", "fatgraph_census", "trivalent_census", "all_valence_census",
    "tree_census", "hyperelliptic_census", "w1_components",
    "enumerate_fatgraphs", "enumerate_trees", "collapse_closure",
    "w1_component1_census", "w1_component2_census", "orbifold_sum",
    "word_cell_volume", "word_pfaffian", "hyperelliptic_cell_volume",
    "cell_volume", "_doubled_volume", "_cell_volume_formula",
    "_word_pfaffian_value", "_certified", "pfaffian", "omega_matrix",
    "evaluate", "catalan", "catalan5", "tree_closed_count", "count_t1",
    "count_t2"}


def code_names(func):
    """Every global and attribute name the code of func says, with the
    names of the integrals functions it calls, transitively."""
    names, todo = set(), [func.__code__]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in set(code.co_names) - names:
            names.add(name)
            target = getattr(integrals, name, None)
            if isinstance(target, types.FunctionType) and \
                    target.__module__ == integrals.__name__:
                todo.append(target.__code__)
    return names


@pytest.mark.parametrize("name", list(integrals.TABLE))
def test_closed_routes_read_no_census(name):
    # the closed route is a formula of the parameter alone: it takes no
    # workspace and shares nothing with any identity's assembled route
    closed = integrals.TABLE[name].closed
    assert list(inspect.signature(closed).parameters) in (["g"], ["n"])
    assembled = {identity.assembled.__name__
                 for identity in integrals.TABLE.values()}
    assert not code_names(closed) & (ASSEMBLY_NAMES | assembled)


def test_identities_follow_the_table():
    # the command line looks each identity up here, as (parameter name,
    # report function) pairs, in the table's order
    assert list(integrals.IDENTITIES) == list(integrals.TABLE)
    for name, value in integrals.IDENTITIES.items():
        assert isinstance(value, tuple) and len(value) == 2
        assert value[0] == integrals.TABLE[name].param_name
        assert value[1].func is integrals.evaluate
        assert value[1].args == (name,)


def test_cli_names_no_identity():
    # the identity table holds every identity's parameter and default
    # range; the command line reads them from it
    path = PACKAGE / "cli.py"
    word = re.compile(r"(?<![\w-])(%s)(?![\w-])"
                      % "|".join(map(re.escape, integrals.TABLE)))
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert not word.search(node.value), node.value
    assert not referenced_names(path) & (set(integrals.TABLE)
                                         | {"_default_g_range"})


# the functions that read a word's edges, numbered by first slot
EDGE_READERS = [("enumeration", "word_entry"),
                ("kontsevich", "_word_omega_matrix"),
                ("kontsevich", "_raw_form"), ("kontsevich", "omega_matrix"),
                ("hyperelliptic", "double_tree")]


@pytest.mark.parametrize("module,function", EDGE_READERS)
def test_edge_readers_call_word_pairs(module, function):
    assert mentions(function_node(module, function), "word_pairs")


def is_word_length(node):
    return isinstance(node, ast.Name) and node.id == "m" or \
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "len"


def is_flag_strip(node):
    """``w % m`` or ``w // m``: one word entry over the word's length."""
    return isinstance(node, ast.BinOp) and \
        isinstance(node.op, (ast.Mod, ast.FloorDiv)) and \
        isinstance(node.left, (ast.Name, ast.Subscript)) and \
        is_word_length(node.right)


def is_pairing_comparison(node):
    """A comparison with ``m - x``, x not a constant: a slot's gap held
    against its partner's, as a hand-written pairing check does."""
    return isinstance(node, ast.Compare) and any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
        and isinstance(n.left, ast.Name) and n.left.id == "m"
        and not isinstance(n.right, ast.Constant)
        for operand in [node.left, *node.comparators]
        for n in ast.walk(operand))


def test_one_pairing_check_and_flag_split():
    # every other function takes its gaps from split_flags and its pairing
    # check from word_pairs
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(is_flag_strip(n) or is_pairing_comparison(n)
                            for n in ast.walk(node)):
                found.add("%s.%s" % (path.stem, node.name))
    assert sorted(found) == ["fatgraph.split_flags", "fatgraph.word_pairs"]
