"""Shared census store with an optional on-disk cache.

All integral evaluations and ``fatmod enumerate`` pull censuses from a
workspace, so a CLI run, a cached rerun and a fault-injected test all see
the same data path.  Only fatgraph censuses are cached, and
:meth:`Workspace.fatgraph_census` alone decides when one is read, built or
written; tree and cell censuses are built in memory.  A cache file's
records enter their census as the search's and the collapse's words do,
through ``enumeration.word_census``, once sorted and free of repeats.
"""

from __future__ import annotations

from . import cache as _cache
from . import enumeration as _enum
from . import hyperelliptic as _hyper
from .enumeration import OrbifoldCensus
from .errors import CacheError, FatmodError
from .trees import MARKED, ONE5, TRIVALENT


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
        return self.fatgraph_census(g, _enum.TRIVALENT)

    # perfbench/tracer.py patches this name; nothing else may call it
    pristine_trivalent_census = trivalent_census

    def all_valence_census(self, g: int) -> OrbifoldCensus:
        return self.fatgraph_census(g, _enum.ALL)

    def fatgraph_census(self, g: int, valence_filter) -> OrbifoldCensus:
        """The one door to every fatgraph census, of genus g and
        ``valence_filter`` (``enumeration.fatgraph_filter`` normalizes it
        or raises WrongType): kept, read from its file, or built and
        written.  A trivalent census is searched, any other collapsed from
        this workspace's trivalent census once the cap allows it.  Raises
        ResourceLimit for a census past its bounds: :meth:`_load` checks
        the class cap before reading a file, and
        ``enumeration.check_edge_cap`` checks the edge and class caps
        before a build.  Raises CacheError, keeping and writing nothing,
        for a census that misses a closed count
        (:func:`_check_rooted_counts`) or, when building is disabled, is not
        on disk."""
        valence_filter = _enum.fatgraph_filter(g, valence_filter)
        descriptor = _enum.fatgraph_descriptor(g, valence_filter)
        census = self._store.get(descriptor)
        if census is not None:
            return census
        census = self._load(descriptor, g, valence_filter)
        path = None
        if census is None:
            path = (None if self.cache_dir is None
                    else _cache.cache_path(self.cache_dir, descriptor))
            if self.no_build:
                raise CacheError("census %r not cached%s and building is "
                                 "disabled" % (descriptor, "" if path is None
                                               else " (no file %s)" % path))
            _enum.check_edge_cap(g, valence_filter, self.cap_edges)
            census = (_enum.enumerate_fatgraphs(g, cap_edges=self.cap_edges)
                      if valence_filter == _enum.TRIVALENT else
                      _enum.collapse_closure(self.trivalent_census(g), g,
                                             valence_filter))
        _check_rooted_counts(census, g, valence_filter)
        if path is not None:
            _cache.save_records(path, descriptor,
                                [(e.aut_order, e.key) for e in census])
        self._store[descriptor] = census
        return census

    def tree_census(self, leaf_count: int, profile: str) -> OrbifoldCensus:
        return self._kept(_enum.tree_descriptor(leaf_count, profile,
                                                "unrooted"),
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
        """A cell census, built from the tree census it doubles."""
        return self._kept(descriptor, lambda: build(
            g, self.tree_census(leaf_count, profile)))

    def _kept(self, descriptor, build) -> OrbifoldCensus:
        """A census built in memory only and kept under its descriptor, so
        ``override`` reaches it."""
        census = self._store.get(descriptor)
        if census is None:
            census = self._store[descriptor] = build()
        return census

    # -- cache file --------------------------------------------------------

    def _load(self, descriptor, g, valence_filter):
        """The census in the file of ``descriptor``, every record checked
        by ``enumeration.word_census`` and its stored |Aut| against its
        entry; None when there is no cache directory or no file.  Raises
        ResourceLimit, reading nothing, when the census's closed count
        exceeds ``enumeration.MAX_CENSUS_CLASSES``."""
        if self.cache_dir is None:
            return None
        path = _cache.cache_path(self.cache_dir, descriptor)
        if not path.exists():
            return None
        # a load holds this one census, so only its own count bounds it;
        # the edge cap and the levels a build passes through bound builds
        _enum.check_class_cap(g, valence_filter)
        records = sorted(_cache.load_records(path, descriptor),
                         key=lambda record: record[1])
        words = [word for _, word in records]
        if any(a == b for a, b in zip(words, words[1:])):
            raise CacheError("duplicate class in %s" % path)
        try:
            census = _enum.word_census(words, g, valence_filter)
        except FatmodError as exc:
            raise CacheError("bad record in %s: %s" % (path, exc)) from exc
        for (aut, _), entry in zip(records, census):
            if entry.aut_order != aut:
                raise CacheError("stored aut order %d, recomputed %d in %s"
                                 % (aut, entry.aut_order, path))
        return census


def _check_rooted_counts(census, g, valence_filter) -> None:
    """Raise CacheError unless the classes of each vertex profile sum
    2E/|Aut| to its rooted count; a lost class lowers its profile's sum.
    Each class's profile is its payload, read once by ``word_entry``, and
    each rooted count was kept when the class cap read it, in
    :meth:`Workspace._load` or ``enumeration.check_edge_cap``."""
    sums = dict.fromkeys(_enum.fatgraph_profiles(g, valence_filter), 0)
    for e in census:
        sums[e.payload] += len(e.key) // e.aut_order
    for profile, total in sums.items():
        count = _enum.rooted_one_face_count(profile)
        if total != count:
            raise CacheError("%r: vertex profile %s sums to %d rooted maps, "
                             "not its closed count %d"
                             % (census.descriptor, profile, total, count))
