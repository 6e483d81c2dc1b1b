import csv
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from fatmod import cli
from fatmod.cache import FORMAT_VERSION, HEADER, cache_path, load_records, \
    save_records
from fatmod.errors import CacheError
from fatmod.integrals import TABLE, IntegralReport
from fatmod.workspace import Workspace

from oracles import census_without

GENUS_TWO = "fatgraphs g=2 n=1 filter=trivalent"
ALL_TWO = "fatgraphs g=2 n=1 filter=all"


def parse_rational(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(parse_int(num), parse_int(den) if den else 1)


def parse_int(s: str) -> int:
    # 600 digits at a time, below any limit the interpreter sets on
    # str-to-int conversion
    digits = s.lstrip("-")
    value = 0
    for i in range(0, len(digits), 600):
        chunk = digits[i:i + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if s.startswith("-") else value


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_main_theorem_range(self, capsys):
        code, out = run(capsys, "verify", "--identity", "main-theorem",
                        "--g", "1..3")
        assert code == 0
        assert "1/24" in out and "3/640" in out and "5/64512" in out

    def test_hevol(self, capsys):
        code, out = run(capsys, "verify", "--identity", "hevol", "--g", "2")
        assert code == 0
        assert "1/1920" in out

    def test_euler(self, capsys):
        code, out = run(capsys, "verify", "--identity", "euler", "--g", "1")
        assert code == 0
        assert "-1/12" in out

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # a report row is its values and mode; no free-text provenance
        assert IntegralReport._fields == (
            "name", "param_name", "param", "value_closed", "value_assembled",
            "assembled_mode")

        def broken(g, ws):
            return IntegralReport("euler", "g", g, Fraction(1), Fraction(2),
                                  "census")
        monkeypatch.setitem(cli._int.IDENTITIES, "euler", ("g", broken))
        code, out = run(capsys, "verify", "--identity", "euler", "--g", "1")
        assert code == 3
        assert "FAIL" in out


class TestCapEdges:
    """--cap-edges reaches the workspace's fatgraph censuses."""

    @pytest.mark.parametrize("identity,g,cap,code", [
        ("psi-top", "3", "14", 2),
        ("euler", "2", "8", 2),
        ("euler", "2", "9", 0),
    ], ids=["psi-top-g3-cap14", "euler-g2-cap8", "euler-g2-cap9"])
    def test_cap_applies(self, capsys, monkeypatch, identity, g, cap, code):
        monkeypatch.delenv("FATMOD_CACHE", raising=False)
        got = cli.main(["verify", "--identity", identity, "--g", g,
                        "--cap-edges", cap])
        captured = capsys.readouterr()
        assert got == code
        if code == 2:
            assert captured.err.startswith("size cap exceeded")
            assert captured.out == ""
        else:
            assert "1/120" in captured.out and "ok" in captured.out

    @pytest.mark.parametrize("argv", [
        ("verify", "--identity", "euler", "--g", "3"),
        ("enumerate", "--type", "3,1", "--all-valences"),
    ], ids=["verify-euler-g3", "enumerate-all-g3"])
    def test_cap_is_checked_before_the_trivalent_census(
            self, capsys, tmp_path, monkeypatch, argv):
        # the all-valence cap of 9 edges stops g=3 before its trivalent
        # census is searched, loaded or written
        def refuse(*a, **k):
            raise AssertionError("searched past the cap")
        monkeypatch.setattr(cli._enum, "_trivalent_pairings", refuse)
        code = cli.main([*argv, "--cache", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("size cap exceeded")
        assert captured.out == ""
        assert not list(tmp_path.iterdir())

    def test_class_bound_is_checked_before_the_search(
            self, capsys, tmp_path, monkeypatch):
        # the all-valence census of genus 4 passes a cap of 21 edges, but
        # its closed count bounds it at more than 2.3 billion classes
        def refuse(*a, **k):
            raise AssertionError("searched past the class cap")
        monkeypatch.setattr(cli._enum, "_trivalent_pairings", refuse)
        start = time.perf_counter()
        code = cli.main(["enumerate", "--type", "4,1", "--all-valences",
                         "--cap-edges", "21", "--cache", str(tmp_path)])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "size cap exceeded: census 'fatgraphs g=4 n=1 filter=all' holds "
            "at least 2395931692 classes, cap is %d\n"
            % cli._enum.MAX_CENSUS_CLASSES)
        assert not list(tmp_path.iterdir())

    def test_raised_cap_is_refused_at_once_at_large_genus(
            self, capsys, tmp_path, monkeypatch):
        # the closed count of a 2697-edge trivalent census has about 3000
        # digits and is still read in well under a second
        def refuse(*a, **k):
            raise AssertionError("searched past the class cap")
        monkeypatch.setattr(cli._enum, "_trivalent_pairings", refuse)
        start = time.perf_counter()
        code = cli.main(["enumerate", "--type", "450,1", "--cap-edges",
                         "3000", "--cache", str(tmp_path)])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "size cap exceeded: census 'fatgraphs g=450 n=1 "
            "filter=trivalent' holds at least ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "empty-cache"])
    def test_edge_cap_is_checked_first_without_a_file(
            self, capsys, tmp_path, monkeypatch, cached):
        # with no file to load, the 177 edges refuse the census before any
        # closed count is taken; at genus 30 that count would be enormous
        def refuse(*a, **k):
            raise AssertionError("took a closed count before the edge cap")
        monkeypatch.setattr(cli._enum, "fatgraph_closed_count", refuse)
        monkeypatch.delenv("FATMOD_CACHE", raising=False)
        argv = ["verify", "--identity", "euler", "--g", "30"]
        if cached:
            argv += ["--cache", str(tmp_path)]
        start = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("size cap exceeded: census needs 177 edges, "
                                "cap is 9\n")
        assert not list(tmp_path.iterdir())

    def test_class_bound_is_checked_before_a_load(self, capsys, tmp_path,
                                                  monkeypatch):
        # a file named for the all-valence census of genus 4 is never read:
        # that census's own closed count refuses it first
        descriptor = "fatgraphs g=4 n=1 filter=all"
        path = cache_path(tmp_path, descriptor)
        save_records(path, descriptor, [(6, (3,) * 6)])
        planted = path.read_bytes()

        def refuse(*a, **k):
            raise AssertionError("read a census past the class cap")
        monkeypatch.setattr("fatmod.cache.load_records", refuse)
        code = cli.main(["verify", "--identity", "euler", "--g", "4",
                         "--cache", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "size cap exceeded: census %r holds at least 2395931692 "
            "classes, cap is %d\n" % (descriptor,
                                      cli._enum.MAX_CENSUS_CLASSES))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert path.read_bytes() == planted

    def test_edge_cap_bounds_builds_only(self, capsys, tmp_path):
        # a census on disk loads under a cap its build would not pass
        argv = ("enumerate", "--type", "2,1", "--all-valences", "--cache",
                str(tmp_path))
        code, out = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--cap-edges", "8") == (code, out)


class TestEnumerate:
    def test_torus_census_summary(self, capsys, tmp_path):
        code, out = run(capsys, "enumerate", "--type", "1,1",
                        "--cache", str(tmp_path))
        assert code == 0
        assert "1/6" in out
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        records = load_records(files[0], "fatgraphs g=1 n=1 filter=trivalent")
        assert len(records) == 1 and records[0][0] == 6

    def test_tree_census(self, capsys):
        code, out = run(capsys, "enumerate", "--trees", "--leaves", "3")
        assert code == 0
        assert out.splitlines()[1].split() == [
            "census", "classes=1", "1/3", "1/3", "ok", "trees", "leaves=3",
            "profile=trivalent", "rooting=unrooted"]

    def test_genus_two_summary(self, capsys):
        code, out = run(capsys, "enumerate", "--type", "2,1")
        assert code == 0
        assert "35/6" in out

    def test_cap_exceeded_exit_two(self, capsys):
        code, _ = run(capsys, "enumerate", "--type", "2,1",
                      "--cap-edges", "5")
        assert code == 2

    @pytest.mark.parametrize("builder,argv", [
        ("enumerate_fatgraphs", ("enumerate", "--type", "2,1")),
        ("enumerate_trees", ("enumerate", "--trees", "--leaves", "6")),
        ("enumerate_trees", ("enumerate", "--trees", "--leaves", "6",
                             "--rooted")),
        ("enumerate_fatgraphs", ("verify", "--identity", "psi-top",
                                 "--g", "2")),
    ], ids=["graphs", "trees", "rooted-trees", "verify-psi-top"])
    def test_missing_class_fails(self, capsys, tmp_path, monkeypatch,
                                 builder, argv):
        # the closed count reads no census, so a lost class shows: a tree
        # census prints a FAIL row, and a searched fatgraph census that
        # misses its count is a cache error, never kept or written
        build = getattr(cli._enum, builder)
        monkeypatch.setattr(cli._enum, builder,
                            lambda *a, **k: census_without(build(*a, **k),
                                                           0))
        trees = "--trees" in argv
        code = cli.main([*argv, *(() if trees else ("--cache",
                                                    str(tmp_path)))])
        captured = capsys.readouterr()
        if trees:
            assert code == 3
            assert captured.out.splitlines()[1].split()[4] == "FAIL"
        else:
            assert code == 1
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("cache error:")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("--type", "2"), ("--type", "a,1"), ("--type", "0,1"),
        ("--type", "0,3"), ("--trees", "--leaves", "1"),
        ("--type", "2,1", "--single-k", "0"),
        ("--type", "2,1", "--single-k", "1"),
        ("--type", "2,1", "--single-k", "-1"),
        ("--type", "2,1", "--single-k", "2"),
        ("--trees",), (),
        ("--type", "2,1", "--single-k", "x"),
        ("--type", "1,1", "--all-valences", "--single-k", "3"),
        ("--type", "2,2"),
        ("--trees", "--leaves", "5", "--type", "2,1"),
        ("--trees", "--leaves", "5", "--single-k", "3"),
        ("--trees", "--leaves", "5", "--all-valences"),
        ("--trees", "--leaves", "5", "--cap-edges", "3"),
        ("--type", "1,1", "--rooted"),
        ("--type", "1,1", "--profile", "one5"),
        ("--type", "1,1", "--leaves", "5"),
        ("--type", "2,1", "--single-k", "9"),
        ("--type", "1,1", "--single-k", "5"),
        ("--trees", "--leaves", "7", "--profile", "one5", "--cache", "{}"),
    ], ids=["type-one-number", "type-not-integer", "type-genus-zero",
            "type-three-boundaries", "trees-one-leaf", "single-k-zero",
            "single-k-one", "single-k-negative", "single-k-two",
            "trees-no-leaves", "no-type", "single-k-not-integer",
            "all-valences-and-single-k", "type-two-boundaries",
            "trees-with-type", "trees-with-single-k",
            "trees-with-all-valences", "trees-with-cap-edges",
            "graphs-with-rooted", "graphs-with-profile",
            "graphs-with-leaves", "single-k-above-4g",
            "single-k-above-4g-torus", "trees-with-cache"])
    def test_bad_arguments_exit_one(self, capsys, tmp_path, argv):
        # a tree census refuses --cache, so only trees-with-cache gives one
        if "--trees" not in argv:
            argv += ("--cache", "{}")
        code = cli.main(["enumerate", *(a.format(tmp_path) for a in argv)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_single_k_three_is_the_trivalent_census(self, capsys,
                                                      tmp_path):
        # one descriptor per census: the same row, the same one file
        code, out = run(capsys, "enumerate", "--type", "2,1", "--single-k",
                        "3", "--cache", str(tmp_path))
        assert code == 0
        assert out.splitlines()[1].split()[1:5] == ["classes=9", "35/6",
                                                    "35/6", "ok"]
        assert [p.name for p in tmp_path.iterdir()] == \
            [cache_path(tmp_path, GENUS_TWO).name]
        assert run(capsys, "enumerate", "--type", "2,1") == (code, out)

    @pytest.mark.parametrize("argv,search", [
        (("--type", "2,1"), "_trivalent_pairings"),
        (("--type", "2,1", "--single-k", "6"), "_trivalent_pairings"),
    ], ids=["trivalent", "single-k"])
    def test_cached_census_is_not_searched_again(self, capsys, tmp_path,
                                                 monkeypatch, argv, search):
        argv = ("enumerate",) + argv + ("--cache", str(tmp_path))
        code, out = run(capsys, *argv)
        assert code == 0
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(*a, **k):
            raise AssertionError("searched a cached census")
        monkeypatch.setattr(cli._enum, search, refuse)
        assert run(capsys, *argv) == (code, out)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_closure_writes_its_trivalent_census(self, capsys, tmp_path):
        # an all-valence or single-k census is collapsed from the trivalent
        # census of its genus, which is written beside it
        code, _ = run(capsys, "enumerate", "--type", "1,1",
                      "--all-valences", "--cache", str(tmp_path))
        assert code == 0
        trivalent = cache_path(tmp_path, "fatgraphs g=1 n=1 filter=trivalent")
        assert sorted(tmp_path.iterdir()) == sorted([
            trivalent, cache_path(tmp_path, "fatgraphs g=1 n=1 filter=all")])
        written = trivalent.read_bytes()
        trivalent.unlink()
        run(capsys, "enumerate", "--type", "1,1", "--cache", str(tmp_path))
        assert trivalent.read_bytes() == written

    def test_single_k_reads_the_cached_trivalent_census(self, capsys,
                                                        tmp_path,
                                                        monkeypatch):
        # the single-k census is collapsed from the trivalent file on disk
        code, _ = run(capsys, "enumerate", "--type", "3,1",
                      "--cache", str(tmp_path))
        assert code == 0
        [trivalent] = tmp_path.iterdir()
        written = trivalent.read_bytes()

        def refuse(*a, **k):
            raise AssertionError("searched a cached trivalent census")
        monkeypatch.setattr(cli._enum, "_trivalent_pairings", refuse)
        code, out = run(capsys, "enumerate", "--type", "3,1", "--single-k",
                        "12", "--cache", str(tmp_path))
        assert code == 0
        assert out.splitlines()[1].split()[1] == "classes=131"
        assert trivalent.read_bytes() == written
        assert len(list(tmp_path.iterdir())) == 2

    def test_cached_census_missing_a_class_fails(self, capsys, tmp_path):
        # the loaded census meets the closed count as a searched one does
        argv = ("enumerate", "--type", "2,1", "--cache", str(tmp_path))
        run(capsys, *argv)
        victim = cache_path(tmp_path, GENUS_TWO)
        lines = victim.read_text().splitlines()
        assert lines[2] == "count=9"
        victim.write_text("\n".join(lines[:2] + ["count=8"] + lines[4:])
                          + "\n")
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("cache error:")
        assert "%r: vertex profile (3, 3, 3, 3, 3, 3) sums to 96 rooted " \
               "maps, not its closed count 105" % GENUS_TWO in captured.err

    @pytest.mark.parametrize("argv", [
        ("verify", "--identity", "hevol", "--g", "3..1"),
        ("verify", "--identity", "hevol", "--g", "x"),
        ("verify", "--identity", "hevol", "--g", "2..x"),
        ("verify", "--identity", "genus0", "--n", "6..4"),
        ("report", "--identities", "hevol", "--g", "3..1"),
        ("report", "--identities", "hevol", "--g", "x"),
        ("report", "--identities", "genus0,hevol", "--g", "2..x"),
        ("report", "--identities", "genus0", "--n", "x..5"),
        ("report", "--identities", "psi-top,nope"),
        ("report", "--identities", ""),
        ("verify", "--identity", "nope"),
        ("report", "--format", "xml"),
        ("verify", "--cap-edges", "abc"),
        ("enumerate", "--type", "1,1", "--cap-edges", "0"),
        ("enumerate", "--type", "1,1", "--cap-edges", "-1"),
        ("report", "--identities", "hevol,hevol", "--g", "2"),
        ("report", "--identities", "genus0", "--g", "7"),
        ("verify", "--identity", "psi-top", "--n", "5"),
    ], ids=["verify-g-reversed", "verify-g-not-integer", "verify-g-bad-end",
            "verify-n-reversed", "report-g-reversed", "report-g-not-integer",
            "report-g-bad-end", "report-n-bad-start",
            "report-unknown-identity", "report-no-identity",
            "verify-unknown-identity", "report-unknown-format",
            "verify-cap-not-integer", "enumerate-cap-zero",
            "enumerate-cap-negative", "report-repeated-identity",
            "report-g-taken-by-none", "verify-n-taken-by-none"])
    def test_bad_range_exit_one(self, capsys, tmp_path, argv):
        # an empty or malformed range never falls back to the default one,
        # and an unknown identity, or a range that no chosen identity
        # takes, stops the run before any census is built
        code = cli.main([*argv, "--cache", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_tree_leaf_cap_exit_two(self, capsys):
        code = cli.main(["enumerate", "--trees", "--leaves", "40"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("size cap exceeded")
        assert captured.out == ""

    @pytest.mark.parametrize("fmt,match", [
        ("human", "ok"), ("csv", "true"), ("json", True)],
        ids=["human", "csv", "json"])
    def test_all_valence_closed_count(self, capsys, fmt, match):
        # every fatgraph census has a closed count, one per vertex profile
        code, out = run(capsys, "enumerate", "--type", "1,1",
                        "--all-valences", "--format", fmt)
        assert code == 0
        if fmt == "json":
            row = json.loads(out)["rows"][0]
        elif fmt == "csv":
            row = next(csv.DictReader(io.StringIO(out)))
        else:
            fields = out.splitlines()[1].split()
            row = {"value_closed": fields[2], "value_assembled": fields[3],
                   "match": fields[4]}
        assert row["value_closed"] == "5/12"
        assert row["value_assembled"] == "5/12"
        assert row["match"] == match


class TestCache:
    def test_verify_from_cache_identical(self, capsys, tmp_path):
        argv = ("verify", "--identity", "euler", "--g", "1..2",
                "--cache", str(tmp_path), "--format", "json")
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)  # second run reads the cache
        assert code1 == code2 == 0
        assert out1 == out2
        assert list(tmp_path.iterdir())

    def test_no_build_missing_cache(self, capsys, tmp_path, monkeypatch):
        # with a cache directory and with none, --no-build builds nothing
        monkeypatch.delenv("FATMOD_CACHE", raising=False)
        for cache in (("--cache", str(tmp_path)), ()):
            code, _ = run(capsys, "verify", "--identity", "euler", "--g",
                          "1", *cache, "--no-build")
            assert code == 1

    def test_corrupt_cache(self, capsys, tmp_path):
        run(capsys, "verify", "--identity", "euler", "--g", "1",
            "--cache", str(tmp_path))
        # the file the second run reads; the trivalent census it was
        # collapsed from is on disk too
        victim = cache_path(tmp_path, "fatgraphs g=1 n=1 filter=all")
        victim.write_text(victim.read_text().replace(
            "%s %d" % (HEADER, FORMAT_VERSION), "%s 999" % HEADER))
        code, _ = run(capsys, "verify", "--identity", "euler", "--g", "1",
                      "--cache", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("header", ["%s %d " % (HEADER, FORMAT_VERSION),
                                        "%s  %d" % (HEADER, FORMAT_VERSION)],
                             ids=["trailing-blank", "doubled-space"])
    def test_header_line_is_matched_whole(self, capsys, tmp_path, header):
        argv = ("verify", "--identity", "psi-top", "--g", "1",
                "--cache", str(tmp_path))
        run(capsys, *argv)
        descriptor = "fatgraphs g=1 n=1 filter=trivalent"
        victim = cache_path(tmp_path, descriptor)
        lines = victim.read_text().splitlines()
        lines[0] = header
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(CacheError, match="version mismatch"):
            load_records(victim, descriptor)
        code, out = run(capsys, *argv, "--no-build")
        assert code == 1
        assert out == ""

    def test_psi_top_corrupt_aut_order_fails(self, capsys, tmp_path):
        # the load re-derives |Aut|, so the file is rejected before psi-top
        # sums it
        argv = ("verify", "--identity", "psi-top", "--g", "2",
                "--cache", str(tmp_path))
        code, out = run(capsys, *argv)
        assert code == 0 and "1/1152" in out
        victim = cache_path(tmp_path, GENUS_TWO)
        lines = victim.read_text().splitlines()
        aut, rest = lines[3].split(" | ", 1)
        assert aut != "1"
        lines[3] = "1 | " + rest
        victim.write_text("\n".join(lines) + "\n")
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert "cache error" in captured.err
        assert "ok" not in captured.out

    def test_psi_top_missing_class_fails(self, capsys, tmp_path):
        # a well-formed file that lacks a class passes the record checks;
        # its closed rooted count refuses it before psi-top sums it
        self.check_missing_class_refused(capsys, tmp_path, (
            "verify", "--identity", "psi-top", "--g", "2"))

    def test_report_missing_class_is_a_cache_error(self, capsys, tmp_path):
        self.check_missing_class_refused(capsys, tmp_path, (
            "report", "--identities", "psi-top", "--g", "2"))

    @staticmethod
    def check_missing_class_refused(capsys, tmp_path, argv):
        argv += ("--cache", str(tmp_path))
        code, out = run(capsys, *argv)
        assert code == 0 and "ok" in out
        victim = cache_path(tmp_path, GENUS_TWO)
        lines = victim.read_text().splitlines()
        assert lines[2] == "count=9"
        victim.write_text("\n".join(lines[:2] + ["count=8"] + lines[4:])
                          + "\n")
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("cache error:")

    @pytest.mark.parametrize("argv,descriptor,edit", [
        (("--identity", "psi-top", "--g", "2"), GENUS_TWO, "third-field"),
        (("--identity", "psi-top", "--g", "2"), GENUS_TWO, "bad-code"),
        (("--identity", "psi-top", "--g", "2"), GENUS_TWO, "rotated-word"),
        (("--identity", "psi-top", "--g", "2"), GENUS_TWO, "duplicate"),
        (("--identity", "psi-top", "--g", "2"), GENUS_TWO, "count-key"),
    ], ids=["third-field", "graph-bad-code", "graph-rotated-word",
            "graph-duplicate", "graph-count-key"])
    def test_load_rejects_edited_record(self, capsys, tmp_path, argv,
                                        descriptor, edit):
        argv = ("verify",) + argv + ("--cache", str(tmp_path))
        code, _ = run(capsys, *argv)
        assert code == 0
        victim = cache_path(tmp_path, descriptor)
        lines = victim.read_text().splitlines()
        count = int(lines[2].split("=")[1])
        aut, word = lines[3].split(" | ")
        word = word.split(",")
        fields = [aut]
        if edit == "duplicate":
            lines[2] = "count=%d" % (count + 1)
            lines.insert(4, lines[3])
        elif edit == "count-key":
            lines[2] = "bogus=%d" % count
        else:
            if edit == "rotated-word":
                assert word[1:] + word[:1] != word
                word = word[1:] + word[:1]
            elif edit == "third-field":  # the version-2 kind column
                fields.append("graph")
            else:  # an entry of 3m or more: a flag code of 3
                word[0] = str(3 * len(word))
            lines[3] = " | ".join(fields + [",".join(word)])
        victim.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, *argv)
        assert code == 1
        assert "ok" not in out

    @pytest.mark.parametrize("argv,descriptor,old,new", [
        # same |Aut| and edge parity, so the euler sum does not change
        (("--identity", "euler", "--g", "2"),
         "fatgraphs g=2 n=1 filter=all",
         "4 | 2,6,10,2,6,10,2,6,10,2,6,10", "4 | 2,2,2,2"),
        (("--identity", "psi-top", "--g", "2"), GENUS_TWO, None,
         "1 | 2,3,14,2,13,14,9,3,4,4,13,3,12,12,13,7"),
    ], ids=["genus-one-graph-in-genus-two", "eight-edge-graph-in-trivalent"])
    def test_load_rejects_record_of_another_census(self, capsys, tmp_path,
                                                   argv, descriptor, old,
                                                   new):
        # each record is well formed and canonical, with its true |Aut|,
        # but its object is not of the census the file names
        argv = ("verify",) + argv + ("--cache", str(tmp_path))
        code, _ = run(capsys, *argv)
        assert code == 0
        victim = cache_path(tmp_path, descriptor)
        lines = victim.read_text().splitlines()
        lines[lines.index(old) if old else 3] = new
        victim.write_text("\n".join(lines) + "\n")
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("cache error:")

    def test_default_report_cache_layout(self, capsys, tmp_path):
        # tree and cell censuses are built in memory, so only the fatgraph
        # censuses are written
        code, _ = run(capsys, "report", "--cache", str(tmp_path))
        assert code == 0
        graphs = ["fatgraphs_g=%d_n=1_filter=%s.v3.census" % census
                  for census in [(1, "all"), (1, "trivalent"), (2, "all"),
                                 (2, "trivalent"), (3, "trivalent")]]
        assert sorted(p.name for p in tmp_path.iterdir()) == graphs
        for path in tmp_path.iterdir():
            lines = path.read_text().splitlines()
            assert {len(line.split(" | ")) for line in lines[3:]} == {2}

    def test_concurrent_cold_runs_share_one_directory(self, capsys,
                                                      tmp_path, child_env):
        # three cold reports started together on one empty directory each
        # print the serial run's bytes, and the directory ends with the
        # serial run's files, whole, and no temporary file
        serial, shared = tmp_path / "serial", tmp_path / "shared"
        serial.mkdir()
        shared.mkdir()
        code, expected = run(capsys, "report", "--cache", str(serial))
        assert code == 0
        argv = [sys.executable, "-m", "fatmod.cli", "report", "--cache",
                str(shared)]
        children = [subprocess.Popen(argv, env=child_env, cwd=str(tmp_path),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
                    for _ in range(3)]
        try:
            results = [child.communicate(timeout=300) for child in children]
        finally:
            for child in children:
                child.kill()
                child.wait(timeout=30)
        for child, (out, err) in zip(children, results):
            assert child.returncode == 0, err.decode(errors="replace")
            assert out.decode() == expected
        assert sorted(p.name for p in shared.iterdir()) == \
            sorted(p.name for p in serial.iterdir())
        for path in serial.iterdir():
            assert (shared / path.name).read_bytes() == path.read_bytes()

    def test_reader_polls_while_a_cold_report_fills(self, capsys, tmp_path,
                                                    child_env):
        # a --no-build verify started again and again while a cold report
        # fills its directory sees the g=3 file missing, or whole: each
        # poll refuses with one cache error line or prints the serial row,
        # and no poll prints a traceback or a wrong row
        code, expected = run(capsys, "verify", "--identity", "psi-top",
                             "--g", "3")
        assert code == 0
        shared = tmp_path / "shared"
        shared.mkdir()
        poll = [sys.executable, "-m", "fatmod.cli", "verify", "--identity",
                "psi-top", "--g", "3", "--no-build", "--cache", str(shared)]
        writer = subprocess.Popen([sys.executable, "-m", "fatmod.cli",
                                   "report", "--cache", str(shared)],
                                  env=child_env, cwd=str(tmp_path),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
        polls = []
        try:
            while True:
                # the last poll starts after the writer has exited
                done = writer.poll() is not None
                polls.append(subprocess.run(poll, env=child_env,
                                            cwd=str(tmp_path), text=True,
                                            capture_output=True, timeout=120))
                if done:
                    break
            writer.wait(timeout=300)
        finally:
            writer.kill()
            writer.wait(timeout=30)
        assert writer.returncode == 0, writer.stderr.read().decode()
        for result in polls:
            if result.returncode == 1:
                assert result.stdout == ""
                [line] = result.stderr.splitlines()
                assert line.startswith("cache error: ")
            else:
                assert (result.returncode, result.stdout, result.stderr) \
                    == (0, expected, "")
        assert polls[-1].returncode == 0
        assert not [p.name for p in shared.iterdir()
                    if not p.name.endswith(".census")]

    def test_default_report_searches_each_genus_once(self, capsys,
                                                     tmp_path, monkeypatch):
        # the all-valence censuses of g=1, 2 are collapsed from the
        # trivalent censuses the report already holds
        searched = []
        search = cli._enum._trivalent_pairings

        def counted(num_edges):
            searched.append(num_edges)
            return search(num_edges)
        monkeypatch.setattr(cli._enum, "_trivalent_pairings", counted)
        code, _ = run(capsys, "report", "--cache", str(tmp_path))
        assert code == 0
        assert searched == [3, 9, 15]

    def test_w1h_needs_no_cache_file(self, capsys, tmp_path):
        # the cell censuses of w1h are doubled from tree censuses built in
        # memory, which --no-build does not stop and the cache never holds
        code, out = run(capsys, "verify", "--identity", "w1h", "--g", "2",
                        "--cache", str(tmp_path), "--no-build")
        assert code == 0
        assert "ok" in out and "census" in out
        assert not list(tmp_path.iterdir())

    def test_all_valence_file_missing_a_top_cell_fails(self, capsys,
                                                       tmp_path):
        # losing trivalent class 0 with the faces only it has keeps the
        # Euler sum at 1/120, so the file must hold every trivalent class;
        # enumerate reads it through the same check as verify
        argv = ("verify", "--identity", "euler", "--g", "2",
                "--cache", str(tmp_path))
        code, _ = run(capsys, *argv)
        assert code == 0
        trivalent = cli._enum.enumerate_fatgraphs(2)
        without = cli._enum.collapse_closure(census_without(trivalent, 0),
                                             2, cli._enum.ALL)
        victim = cache_path(tmp_path, "fatgraphs g=2 n=1 filter=all")
        lines = victim.read_text().splitlines()
        kept = {",".join(map(str, entry.key)) for entry in without}
        body = [line for line in lines[3:] if line.split(" | ")[1] in kept]
        assert len(body) == len(without) < len(lines) - 3
        victim.write_text("\n".join(lines[:2] + ["count=%d" % len(body)]
                                    + body) + "\n")
        for argv in (argv, ("enumerate", "--type", "2,1", "--all-valences",
                            "--cache", str(tmp_path))):
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("cache error:")

    def test_all_valence_file_missing_a_cancelling_pair_fails(self, capsys,
                                                              tmp_path):
        # both classes have |Aut| 2 and edge counts of opposite parity, so
        # losing both keeps the Euler sum at 1/120 and every trivalent
        # class; the closed counts of their vertex profiles refuse the file
        code, _ = run(capsys, "verify", "--identity", "euler", "--g", "2",
                      "--cache", str(tmp_path))
        assert code == 0
        victim = cache_path(tmp_path, ALL_TWO)
        lines = victim.read_text().splitlines()
        assert lines[2] == "count=160"
        body = [line for line in lines[3:] if line not in
                ("2 | 2,2,6,6,2,2,6,6", "2 | 2,2,8,8,5,2,2,8,8,5")]
        assert len(body) == 158
        victim.write_text("\n".join(lines[:2] + ["count=158"] + body)
                          + "\n")
        for argv in (("verify", "--identity", "euler", "--g", "2",
                      "--no-build"),
                     ("enumerate", "--type", "2,1", "--all-valences")):
            code = cli.main([*argv, "--cache", str(tmp_path)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("cache error: %r: vertex profile"
                                           % ALL_TWO)

    def test_all_valence_file_missing_any_cancelling_pair_fails(self,
                                                                tmp_path):
        # a seeded sample of the record pairs whose loss keeps the Euler
        # sum and spares every trivalent class
        Workspace(cache_dir=tmp_path).all_valence_census(2)
        victim = cache_path(tmp_path, ALL_TWO)
        records = load_records(victim, ALL_TWO)

        def euler(aut, word):
            return Fraction((-1) ** (len(word) // 2 - 1), aut)
        pairs = [(i, j) for i, (a, u) in enumerate(records)
                 for j, (b, w) in enumerate(records[:i])
                 if euler(a, u) + euler(b, w) == 0
                 and len(u) < 18 and len(w) < 18]
        assert len(pairs) == 3625
        for i, j in random.Random(31).sample(pairs, 20):
            save_records(victim, ALL_TWO, [r for k, r in enumerate(records)
                                           if k not in (i, j)])
            with pytest.raises(CacheError, match="vertex profile"):
                Workspace(cache_dir=tmp_path,
                          no_build=True).all_valence_census(2)

    @pytest.mark.parametrize("index", range(9))
    def test_trivalent_file_missing_a_class_is_not_collapsed(
            self, capsys, tmp_path, index):
        # a g=2 trivalent file that lost a class passes the loader; 6 of
        # the 9 removals keep the Euler sum of its collapse closure, so
        # euler must refuse to collapse it rather than print a match
        trivalent = cli._enum.enumerate_fatgraphs(2)
        assert len(trivalent) == 9
        victim = cache_path(tmp_path, GENUS_TWO)
        save_records(victim, GENUS_TWO,
                     [(entry.aut_order, entry.key)
                      for i, entry in enumerate(trivalent) if i != index])
        for fmt in ("human", "csv", "json"):
            code = cli.main(["verify", "--identity", "euler", "--g", "2",
                             "--cache", str(tmp_path), "--format", fmt])
            captured = capsys.readouterr()
            assert code == 1
            assert "true" not in captured.out and "ok" not in captured.out
            assert captured.err.startswith("cache error:")
        assert list(tmp_path.iterdir()) == [victim]

    def test_other_format_version_is_never_read(self, capsys, tmp_path):
        # leftover files of the line format (version 1) and of the record
        # with a kind column (version 2) for the census
        descriptor = "fatgraphs g=1 n=1 filter=trivalent"
        current = cache_path(tmp_path, descriptor)
        for version, record in [
                (1, "6 | graph | 1 1 2 3 | (0,4,2)(1,5,3) | (0,3)(1,4)(2,5) "
                    "| oo"),
                (2, "6 | graph | 3,3,3,3,3,3")]:
            old = current.with_name(current.name.replace(
                ".v%d." % FORMAT_VERSION, ".v%d." % version))
            old.write_text("%s %d\n%s\ncount=1\n%s\n"
                           % (HEADER, version, descriptor, record))
        argv = ("verify", "--identity", "psi-top", "--g", "1",
                "--format", "json")
        code = cli.main(list(argv + ("--cache", str(tmp_path),
                                     "--no-build")))
        assert code == 1
        assert capsys.readouterr().out == ""
        _, fresh = run(capsys, *argv)
        code, out = run(capsys, *argv, "--cache", str(tmp_path))
        assert code == 0
        assert out == fresh
        assert current.exists()
        assert load_records(current, descriptor)[0][0] == 6

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FATMOD_CACHE", str(tmp_path))
        code, _ = run(capsys, "verify", "--identity", "euler", "--g", "1")
        assert code == 0
        assert list(tmp_path.iterdir())

    def test_empty_env_var_is_no_cache(self, capsys, tmp_path, monkeypatch):
        # an empty $FATMOD_CACHE is unset: no file lands in the working
        # directory, and the rows equal a run without a cache
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("FATMOD_CACHE", raising=False)
        argv = ("verify", "--identity", "psi-top", "--g", "1..2")
        _, fresh = run(capsys, *argv)
        monkeypatch.setenv("FATMOD_CACHE", "")
        code, out = run(capsys, *argv)
        assert code == 0
        assert out == fresh
        assert not list(tmp_path.iterdir())

    def test_non_ascii_cache_file_is_a_cache_error(self, capsys, tmp_path):
        descriptor = "fatgraphs g=1 n=1 filter=trivalent"
        # a UTF-16 header with its byte order mark
        header = "%s %d\n" % (HEADER, FORMAT_VERSION)
        cache_path(tmp_path, descriptor).write_bytes(
            b"\xff\xfe" + header.encode("utf-16-le"))
        with pytest.raises(CacheError, match="not ASCII"):
            load_records(cache_path(tmp_path, descriptor), descriptor)
        code = cli.main(["verify", "--identity", "psi-top", "--g", "1",
                         "--cache", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("cache error:")

    def test_enumerate_refuses_corrupt_cache(self, capsys, tmp_path):
        run(capsys, "enumerate", "--type", "1,1", "--cache", str(tmp_path))
        victim = next(tmp_path.iterdir())
        victim.write_text("garbage\n")
        code = cli.main(["enumerate", "--type", "1,1",
                         "--cache", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("cache error:")
        assert captured.err.count("\n") == 1

    def test_report_no_build_missing_cache(self, capsys, tmp_path):
        code, _ = run(capsys, "report", "--identities", "euler",
                      "--g", "1", "--cache", str(tmp_path), "--no-build")
        assert code == 1

    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    def test_unusable_cache_path_is_a_cache_error(self, capsys, tmp_path,
                                                  where):
        # a file where the cache directory, or one of its parents, should
        # be is refused with one line naming it, and nothing is printed
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        cache_dir = afile if where == "file" else afile / "sub"
        code = cli.main(["verify", "--identity", "psi-top", "--g", "2",
                         "--cache", str(cache_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "cache error: cannot make cache directory " \
            "%s\n" % cache_dir
        assert afile.read_text() == "not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]


class TestReport:
    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # report signals a FAIL row by its exit code, as verify does
        def broken(g, ws):
            return IntegralReport("psi-top", "g", g, Fraction(1),
                                  Fraction(2), "census")
        monkeypatch.setitem(cli._int.IDENTITIES, "psi-top", ("g", broken))
        code, out = run(capsys, "report", "--identities", "hevol,psi-top",
                        "--g", "2")
        assert code == 3
        assert [line.split()[4] for line in out.splitlines()[1:]] == \
            ["ok", "FAIL"]

    def test_json_rationals_round_trip(self, capsys):
        code, out = run(capsys, "report", "--identities",
                        "main-theorem,corollary", "--g", "2..3",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            value = parse_rational(row["value_closed"])
            assert cli.rational_str(value) == row["value_closed"]
        closed = {(r["identity"], r["param"]): r["value_closed"]
                  for r in doc["rows"]}
        assert closed[("main-theorem", 2)] == "3/640"
        assert closed[("corollary", 2)] == "37/5760"

    @pytest.mark.parametrize("fmt", ["human", "json", "csv"])
    def test_rationals_past_the_digit_limit(self, capsys, fmt):
        # at g=712 some denominators pass the interpreter's 4300-digit
        # limit on int-to-str conversion; every value is still printed
        # exactly
        names = ["hevol", "w1h", "boundary", "main-theorem", "corollary"]
        code, out = run(capsys, "report", "--identities", ",".join(names),
                        "--g", "712", "--format", fmt)
        assert code == 0
        if fmt == "json":
            rows = [(r["identity"], r["value_closed"], r["value_assembled"])
                    for r in json.loads(out)["rows"]]
        elif fmt == "csv":
            rows = [(r["identity"], r["value_closed"], r["value_assembled"])
                    for r in csv.DictReader(io.StringIO(out))]
        else:
            rows = [tuple(line.split()[i] for i in (0, 2, 3))
                    for line in out.splitlines()[1:]]
        assert [name for name, _, _ in rows] == names
        for name, closed, assembled in rows:
            assert parse_rational(closed) == TABLE[name].closed(712)
            assert parse_rational(assembled) == TABLE[name].closed(712)
        assert max(len(closed) for _, closed, _ in rows) > 4300

    def test_csv_row_count(self, capsys):
        code, out = run(capsys, "report", "--identities",
                        "main-theorem,hevol,corollary", "--g", "2..4",
                        "--format", "csv")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 1 + 3 * 3

    def test_deterministic_output(self, capsys):
        argv = ("report", "--identities", "genus0,main-theorem",
                "--g", "1..3", "--n", "4..6", "--format", "json")
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2


def test_closed_stdout_exits_one_quietly(tmp_path, child_env):
    # a reader that stops early, as ``| head -c 100`` does, closes the pipe
    # while the report is still being written: exit code 1, and neither a
    # traceback nor the interpreter's complaint about its last flush
    env = dict(child_env)
    env.pop("FATMOD_CACHE", None)
    with subprocess.Popen(
            [sys.executable, "-m", "fatmod.cli", "report", "--format", "csv",
             "--identities", "hevol", "--g", "5..300"], env=env,
            cwd=str(tmp_path), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as child:
        try:
            assert child.stdout.read(100).startswith(b"identity,")
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=120)
        finally:
            child.kill()
    assert code == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err
