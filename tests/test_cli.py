import csv
import io
import json
from fractions import Fraction

import pytest

from fatmod import cli
from fatmod.cache import load_records
from fatmod.integrals import IntegralReport


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
        def broken(g, ws):
            return IntegralReport("euler", "g", g, Fraction(1), Fraction(2),
                                  "census", ())
        monkeypatch.setitem(cli._int.IDENTITIES, "euler", ("g", broken))
        code, out = run(capsys, "verify", "--identity", "euler", "--g", "1")
        assert code == 3
        assert "FAIL" in out


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
        ("enumerate_fatgraphs", ("--type", "2,1")),
        ("enumerate_trees", ("--trees", "--leaves", "6")),
        ("enumerate_trees", ("--trees", "--leaves", "6", "--rooted")),
    ], ids=["graphs", "trees", "rooted-trees"])
    def test_missing_class_fails(self, capsys, tmp_path, monkeypatch,
                                 builder, argv):
        # the closed count reads no census, so a lost class shows
        build = getattr(cli._enum, builder)
        monkeypatch.setattr(cli._enum, builder,
                            lambda *a, **k: build(*a, **k).without(0))
        code, out = run(capsys, "enumerate", *argv, "--cache", str(tmp_path))
        assert code == 3
        assert out.splitlines()[1].split()[4] == "FAIL"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("--type", "2"), ("--type", "a,1"), ("--type", "0,1"),
        ("--type", "0,3"), ("--trees", "--leaves", "1"),
        ("--type", "2,1", "--single-k", "0"),
        ("--type", "2,1", "--single-k", "1"),
        ("--type", "2,1", "--single-k", "-1"),
        ("--type", "2,1", "--single-k", "2"),
    ], ids=["type-one-number", "type-not-integer", "type-genus-zero",
            "type-three-boundaries", "trees-one-leaf", "single-k-zero",
            "single-k-one", "single-k-negative", "single-k-two"])
    def test_bad_arguments_exit_one(self, capsys, tmp_path, argv):
        code = cli.main(["enumerate", *argv, "--cache", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_tree_leaf_cap_exit_two(self, capsys, tmp_path):
        code = cli.main(["enumerate", "--trees", "--leaves", "40",
                         "--cache", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("size cap exceeded")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fmt,match", [
        ("human", "n/a"), ("csv", ""), ("json", None)])
    def test_no_closed_count(self, capsys, fmt, match):
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
        assert row["value_closed"] == "-"
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

    def test_no_build_missing_cache(self, capsys, tmp_path):
        code, _ = run(capsys, "verify", "--identity", "euler", "--g", "1",
                      "--cache", str(tmp_path), "--no-build")
        assert code == 1

    def test_corrupt_cache(self, capsys, tmp_path):
        run(capsys, "verify", "--identity", "euler", "--g", "1",
            "--cache", str(tmp_path))
        victim = next(tmp_path.iterdir())
        victim.write_text(victim.read_text().replace("fatmod-census 1",
                                                     "fatmod-census 999"))
        code, _ = run(capsys, "verify", "--identity", "euler", "--g", "1",
                      "--cache", str(tmp_path))
        assert code == 1

    def test_psi_top_corrupt_aut_order_fails(self, capsys, tmp_path):
        # the load re-derives |Aut|, so the file is rejected before psi-top
        # sums it
        argv = ("verify", "--identity", "psi-top", "--g", "2",
                "--cache", str(tmp_path))
        code, out = run(capsys, *argv)
        assert code == 0 and "1/1152" in out
        victim = tmp_path / "fatgraphs_g=2_n=1_filter=trivalent.v1.census"
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
        # a well-formed file that lacks a class passes the load checks; the
        # closed route still catches it
        argv = ("verify", "--identity", "psi-top", "--g", "2",
                "--cache", str(tmp_path))
        code, out = run(capsys, *argv)
        assert code == 0
        victim = tmp_path / "fatgraphs_g=2_n=1_filter=trivalent.v1.census"
        lines = victim.read_text().splitlines()
        assert lines[2] == "count=9"
        victim.write_text("\n".join(lines[:2] + ["count=8"] + lines[4:])
                          + "\n")
        code, out = run(capsys, *argv)
        assert code == 3
        assert "1/1152" in out and "FAIL" in out

    @pytest.mark.parametrize("argv,name,edit", [
        (("--identity", "genus0", "--n", "6"),
         "trees_leaves=5_profile=trivalent_rooting=unrooted", "aut"),
        (("--identity", "hevol", "--g", "2"),
         "hyperelliptic_g=2_maximal_cells", "aut"),
        (("--identity", "hevol", "--g", "2"),
         "hyperelliptic_g=2_maximal_cells", "involution"),
        (("--identity", "psi-top", "--g", "2"),
         "fatgraphs_g=2_n=1_filter=trivalent", "duplicate"),
    ], ids=["tree-aut", "cell-aut", "cell-involution", "graph-duplicate"])
    def test_load_rejects_edited_record(self, capsys, tmp_path, argv, name,
                                        edit):
        argv = ("verify",) + argv + ("--cache", str(tmp_path))
        code, _ = run(capsys, *argv)
        assert code == 0
        victim = tmp_path / (name + ".v1.census")
        lines = victim.read_text().splitlines()
        count = int(lines[2].split("=")[1])
        if edit == "aut":
            aut, rest = lines[3].split(" | ", 1)
            lines[3] = "%d | %s" % (int(aut) + 1, rest)
        elif edit == "involution":
            lines[3] = lines[3].rsplit(" | ", 1)[0] + " | x"
        else:
            lines[2] = "count=%d" % (count + 1)
            lines.insert(4, lines[3])
        victim.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, *argv)
        assert code == 1
        assert "ok" not in out

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FATMOD_CACHE", str(tmp_path))
        code, _ = run(capsys, "verify", "--identity", "euler", "--g", "1")
        assert code == 0
        assert list(tmp_path.iterdir())

    def test_enumerate_refuses_corrupt_cache(self, capsys, tmp_path):
        run(capsys, "enumerate", "--type", "1,1", "--cache", str(tmp_path))
        victim = next(tmp_path.iterdir())
        victim.write_text("garbage\n")
        code, _ = run(capsys, "enumerate", "--type", "1,1",
                      "--cache", str(tmp_path))
        assert code == 1

    def test_report_no_build_missing_cache(self, capsys, tmp_path):
        code, _ = run(capsys, "report", "--identities", "euler",
                      "--g", "1", "--cache", str(tmp_path), "--no-build")
        assert code == 1


class TestReport:
    def test_json_rationals_round_trip(self, capsys):
        code, out = run(capsys, "report", "--identities",
                        "main-theorem,corollary", "--g", "2..3",
                        "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            value = cli.parse_rational(row["value_closed"])
            assert cli.rational_str(value) == row["value_closed"]
        closed = {(r["identity"], r["param"]): r["value_closed"]
                  for r in doc["rows"]}
        assert closed[("main-theorem", 2)] == "3/640"
        assert closed[("corollary", 2)] == "37/5760"

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
