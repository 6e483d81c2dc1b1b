import doctest
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fatmod
from fatmod.cache import FORMAT_VERSION, cache_path, save_records
from fatmod.enumeration import TRIVALENT, fatgraph_descriptor
from fatmod.workspace import Workspace

MODULES = sorted(info.name for info in pkgutil.iter_modules(fatmod.__path__))
README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> str:
    """The text of README's section ``## title``, up to the next one."""
    text = README.read_text()
    start = text.index("\n## %s\n" % title)
    return text[start:text.find("\n## ", start + 1)]


def readme_commands() -> list:
    """The ``fatmod ...`` lines of README's "Command line" block, each
    without its trailing comment."""
    return [line.split("#")[0].split()[1:] for line in re.findall(
        r"^    (fatmod .*)$", readme_section("Command line"), re.M)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module("fatmod." + name)
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_file_format_is_the_cache_format(tmp_path):
    # the version README's "File formats" states is the one the cache
    # writes, and its example record loads as the g=1 trivalent census
    section = readme_section("File formats")
    versions = re.findall(r"format version (\d+)|\.v(\d+)\.census|"
                          r"fatmod-census (\d+)", section)
    assert {v for found in versions for v in found if v} == \
        {str(FORMAT_VERSION)}
    [(aut, word)] = re.findall(r"^    (\d+) \| ([\d,]+)$", section, re.M)
    descriptor = fatgraph_descriptor(1, TRIVALENT)
    save_records(cache_path(tmp_path, descriptor), descriptor,
                 [(int(aut), tuple(map(int, word.split(","))))])
    [entry] = Workspace(cache_dir=tmp_path)._load(descriptor, 1, TRIVALENT)
    assert entry.aut_order == 6


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_line_runs(argv, tmp_path, child_env):
    # every example of README's "Command line" block runs as printed:
    # exit 0 and nothing on stderr, with no cache
    env = dict(child_env)
    env.pop("FATMOD_CACHE", None)
    done = subprocess.run([sys.executable, "-m", "fatmod.cli"] + argv,
                          env=env, cwd=str(tmp_path), capture_output=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout
