"""Census cache files.

Layout (ASCII text, one record per line):

    fatmod-census <format version>
    <descriptor>
    count=<N>
    <aut order> | <w0>,<w1>,...

Only fatgraph censuses are stored; tree and cell censuses are built in
memory.  The word is the canonical gap word of the class, its census key
and its one serialization (``Fatgraph.from_word`` rebuilds the graph).
``Workspace.fatgraph_census`` is the one reader and writer: it checks
each record on the word alone (``enumeration.word_census``) and builds no
graph.  A descriptor or version mismatch is reported as corruption, never
silently reused; files of another format version (version 2 had a
``graph`` kind column) have another name and are never read.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from .errors import CacheError

FORMAT_VERSION = 3
HEADER = "fatmod-census"


def cache_path(cache_dir, descriptor: str) -> Path:
    slug = re.sub(r"[^A-Za-z0-9.=-]+", "_", descriptor).strip("_")
    return Path(cache_dir) / ("%s.v%d.census" % (slug, FORMAT_VERSION))


def save_records(path: Path, descriptor: str, records) -> None:
    """records: iterable of (aut_order, word)."""
    records = list(records)
    lines = ["%s %d" % (HEADER, FORMAT_VERSION), descriptor,
             "count=%d" % len(records)]
    lines += ["%d | %s" % (aut, ",".join(map(str, word)))
              for aut, word in records]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # such as a file where the directory or one of its parents should be
        raise CacheError("cannot make cache directory %s" % path.parent) \
            from exc
    # a reader sees the old file or the whole new one, never a partial one;
    # the temp name does not end in .census, so no census lookup finds it
    tmp = path.with_name("%s.%d.tmp" % (path.name, os.getpid()))
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="ascii")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_records(path: Path, descriptor: str):
    """Returns the list of (aut_order, word) or raises CacheError; the
    caller checks each record."""
    try:
        text = path.read_text(encoding="ascii")
    except OSError as exc:
        raise CacheError("cannot read cache file %s" % path) from exc
    except UnicodeDecodeError as exc:
        raise CacheError("cache file %s is not ASCII" % path) from exc
    lines = text.splitlines()
    if len(lines) < 3:
        raise CacheError("truncated cache file %s" % path)
    if lines[0] != "%s %d" % (HEADER, FORMAT_VERSION):
        raise CacheError("cache version mismatch in %s" % path)
    if lines[1] != descriptor:
        raise CacheError("cache descriptor mismatch in %s: %r != %r"
                         % (path, lines[1], descriptor))
    key, _, count = lines[2].partition("=")
    if key != "count" or not count.isdecimal():
        raise CacheError("bad count line in %s" % path)
    count = int(count)
    body = [ln for ln in lines[3:] if ln.strip()]
    if len(body) != count:
        raise CacheError("cache file %s has %d records, header says %d"
                         % (path, len(body), count))
    records = []
    for ln in body:
        try:
            aut_s, word_s = ln.split("|")
            records.append((int(aut_s),
                            tuple(map(int, word_s.split(",")))))
        except ValueError as exc:
            raise CacheError("bad record in %s: %r" % (path, ln)) from exc
    return records
