import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import fatmod
from fatmod.cache import FORMAT_VERSION, cache_path, save_records
from fatmod.enumeration import TRIVALENT, fatgraph_descriptor
from fatmod.workspace import Workspace

MODULES = sorted(info.name for info in pkgutil.iter_modules(fatmod.__path__))
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module("fatmod." + name)
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_file_format_is_the_cache_format(tmp_path):
    # the version README's "File formats" states is the one the cache
    # writes, and its example record loads as the g=1 trivalent census
    text = README.read_text()
    start = text.index("\n## File formats\n")
    section = text[start:text.find("\n## ", start + 1)]
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
