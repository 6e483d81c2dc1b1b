"""Shared census store with an optional on-disk cache.

All integral evaluations pull censuses from a workspace, so a CLI run, a
cached rerun and a fault-injected test all see the same data path.
"""

from __future__ import annotations

from . import cache as _cache
from . import enumeration as _enum
from . import hyperelliptic as _hyper
from .enumeration import OrbifoldCensus
from .errors import CacheError, FatmodError
from .fatgraph import Fatgraph
from .trees import MARKED, ONE5, TRIVALENT, PlanarTree


class Workspace:
    """``cap_edges`` caps the fatgraph censuses; None keeps the defaults of
    ``enumeration.check_edge_cap``."""

    def __init__(self, cap_edges=None, cache_dir=None,
                 no_build: bool = False):
        self.cap_edges = cap_edges
        self.cache_dir = cache_dir
        self.no_build = no_build
        self._store = {}

    def override(self, descriptor: str, census: OrbifoldCensus) -> None:
        """Install a census under a descriptor (fault injection, tests)."""
        self._store[descriptor] = census

    # -- builders ----------------------------------------------------------

    def trivalent_census(self, g: int) -> OrbifoldCensus:
        return self._get(_enum.fatgraph_descriptor(g, _enum.TRIVALENT),
                         "graph", (g, _enum.TRIVALENT),
                         lambda: _enum.enumerate_fatgraphs(
                             g, _enum.TRIVALENT, cap_edges=self.cap_edges))

    # perfbench/tracer.py patches this name; nothing else may call it
    pristine_trivalent_census = trivalent_census

    def all_valence_census(self, g: int) -> OrbifoldCensus:
        return self._get(_enum.fatgraph_descriptor(g, _enum.ALL), "graph",
                         (g, _enum.ALL),
                         lambda: self.collapse_closure(g, _enum.ALL))

    def collapse_closure(self, g: int, valence_filter) -> OrbifoldCensus:
        """The census of ``valence_filter``, collapsed from this workspace's
        own trivalent census once the cap allows it."""
        _enum.check_edge_cap(g, valence_filter, self.cap_edges)
        return _enum.collapse_closure(self.trivalent_census(g), g,
                                      valence_filter)

    def tree_census(self, leaf_count: int, profile: str) -> OrbifoldCensus:
        return self._get(_enum.tree_descriptor(leaf_count, profile,
                                               "unrooted"), "tree",
                         (leaf_count, profile),
                         lambda: _enum.enumerate_trees(
                             leaf_count, profile, "unrooted"))

    def hyperelliptic_census(self, g: int) -> OrbifoldCensus:
        return self._cells(_hyper.hyperelliptic_descriptor(g),
                           _hyper.hyperelliptic_census, g, 2 * g + 1,
                           TRIVALENT)

    def w1_components(self, g: int) -> _hyper.W1HComponents:
        return _hyper.W1HComponents(
            self._cells(_hyper.w1_component1_descriptor(g),
                        _hyper.w1_component1_census, g, 2 * g + 1, ONE5),
            self._cells(_hyper.w1_component2_descriptor(g),
                        _hyper.w1_component2_census, g, 2 * g, MARKED))

    def _cells(self, descriptor, build, g, leaf_count, profile):
        """A cell census, built from the tree census it doubles and kept in
        memory only, under its descriptor, so ``override`` reaches it."""
        census = self._store.get(descriptor)
        if census is None:
            census = self._store[descriptor] = build(
                g, self.tree_census(leaf_count, profile))
        return census

    # -- cache plumbing ----------------------------------------------------

    def _get(self, descriptor, kind, params, build) -> OrbifoldCensus:
        census = self._store.get(descriptor)
        if census is not None:
            return census
        census = self._load(descriptor, kind, params)
        if census is None:
            if self.no_build:
                raise CacheError("census %r not cached and building is "
                                 "disabled" % descriptor)
            census = build()
            self.save(census, kind)
        self._store[descriptor] = census
        return census

    def _load(self, descriptor, kind, params):
        if self.cache_dir is None:
            return None
        path = _cache.cache_path(self.cache_dir, descriptor)
        if not path.exists():
            if self.no_build:
                raise CacheError("missing cache file %s" % path)
            return None
        entries = sorted((self._entry_from_record(path, kind, params, record)
                          for record in _cache.load_records(path, descriptor)),
                         key=lambda e: e.key)
        for a, b in zip(entries, entries[1:]):
            if a.key == b.key:
                raise CacheError("duplicate class in %s" % path)
        return OrbifoldCensus(descriptor, tuple(entries))

    @staticmethod
    def _entry_from_record(path, kind, params, record):
        """Rebuild a record's object from its word, re-derive its entry
        through the kind's entry function, and check the stored fields
        against them and the object against its census."""
        aut, rec_kind, word = record
        if rec_kind != kind:
            raise CacheError("record kind %r does not match census kind %r "
                             "in %s" % (rec_kind, kind, path))
        cls, entry_of, member = _RECORD_KINDS[kind]
        try:
            obj = cls.from_word(word)
            entry = entry_of(obj)
        except FatmodError as exc:
            raise CacheError("bad %s record in %s: %s"
                             % (kind, path, exc)) from exc
        if obj.canonical_key() != word:
            raise CacheError("stored word is not the canonical key of its "
                             "%s in %s" % (kind, path))
        if not member(obj, *params):
            raise CacheError("%s record %s is outside the census of %s"
                             % (kind, ",".join(map(str, word)), path))
        if entry.aut_order != aut:
            raise CacheError("stored aut order %d, recomputed %d in %s"
                             % (aut, entry.aut_order, path))
        return entry

    def save(self, census: OrbifoldCensus, kind: str) -> None:
        if self.cache_dir is None:
            return
        path = _cache.cache_path(self.cache_dir, census.descriptor)
        records = [(entry.aut_order, kind, entry.key) for entry in census]
        _cache.save_records(path, census.descriptor, records)


# census kind -> (the class a record's word rebuilds, its entry function,
# its membership test, called with the object and the census's params)
_RECORD_KINDS = {"graph": (Fatgraph, _enum.graph_entry,
                           _enum.in_fatgraph_census),
                 "tree": (PlanarTree, _enum.tree_entry,
                          _enum.in_tree_census)}
