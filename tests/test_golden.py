"""Output bytes pinned against files under ``tests/golden/``.

Each file there is the output of the command its test runs, written by
``python -m fatmod.cli`` with ``FATMOD_CACHE`` unset.  ``sha256sums.txt``
is in ``sha256sum`` format: the five cache files of a cold default report
and ``hyperelliptic-g4.csv``, the CSV report of the five hyperelliptic
identities for g = 2..200.  A change that alters any of these bytes has
to regenerate the files and say why.
"""

import hashlib
from pathlib import Path

import pytest

from fatmod import cli

GOLDEN = Path(__file__).parent / "golden"
SUMS = {name: digest for digest, name in
        (line.split("  ", 1) for line in
         (GOLDEN / "sha256sums.txt").read_text().splitlines())}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_of(capsys, *argv) -> str:
    assert cli.main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.fixture(autouse=True)
def no_env_cache(monkeypatch):
    monkeypatch.delenv("FATMOD_CACHE", raising=False)


def test_default_report(capsys, tmp_path):
    # one format per cache state: none, a cold cache that the run fills,
    # and the filled cache
    assert stdout_of(capsys, "report") == \
        (GOLDEN / "report.human").read_text()
    assert stdout_of(capsys, "report", "--format", "csv",
                     "--cache", str(tmp_path)) == \
        (GOLDEN / "report.csv").read_text()
    written = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert written == {name: digest for name, digest in SUMS.items()
                       if name.endswith(".census")}
    assert stdout_of(capsys, "report", "--format", "json",
                     "--cache", str(tmp_path)) == \
        (GOLDEN / "report.json").read_text()


def test_hyperelliptic_report(capsys):
    out = stdout_of(capsys, "report", "--format", "csv", "--identities",
                    "hevol,w1h,boundary,main-theorem,corollary",
                    "--g", "2..200")
    assert sha256(out.encode()) == SUMS["hyperelliptic-g4.csv"]


@pytest.mark.parametrize("g,valences", [
    (1, "trivalent"), (2, "trivalent"), (3, "trivalent"), (1, "all"),
    (2, "all")])
def test_enumerate(capsys, g, valences):
    argv = ["enumerate", "--type", "%d,1" % g]
    if valences == "all":
        argv.append("--all-valences")
    assert stdout_of(capsys, *argv) == \
        (GOLDEN / ("enumerate-g%d-%s.txt" % (g, valences))).read_text()
