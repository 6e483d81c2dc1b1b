"""Run the fatmod CLI in this process, with spans around module entry points.

    python3 perfbench/tracer.py TRACE_FILE -- report --cache DIR ...

Every wrapper is installed where the callers look the function up (a module
attribute, a class attribute or the identity table), so no file of the
program changes.  Spans stay in memory and are written once, as JSON, to
TRACE_FILE when the CLI returns.  Standard output is the CLI's own, byte for
byte; the exit code is the CLI's.
"""

import functools
import json
import sys
from array import array
from time import perf_counter

import fatmod.cache
import fatmod.cli
import fatmod.enumeration
import fatmod.fatgraph
import fatmod.hyperelliptic
import fatmod.integrals
import fatmod.kontsevich
import fatmod.trees
import fatmod.workspace

ROOT = -1  # parent index of a span that has no parent


class Tracer:
    def __init__(self):
        self.names = []       # span name per name id
        self.name_ids = {}
        # one entry per span in each of these flat arrays, which hold no
        # objects for the garbage collector to walk during the run
        self.span_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [ROOT]
        self.sizes = {}       # span name -> total len() of its results
        self.matrices = []    # every matrix given to pfaffian, hashed later
        self.censuses = []    # (span index, census) per census built or read
        self.loads = []       # descriptor of every census read from disk
        self.reads = []       # [bytes, records] per cache file read
        self.writes = []      # [bytes, records] per cache file written

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def traced(self, name, fn, after=None):
        """Wrap fn in a span called name.

        after(span index, args, result) runs once the span has ended.
        """
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.span_ids, self.parents, self.starts, self.ends, self.stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if after is not None:
                after(index, args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, after=None):
        """Replace owner.attr (a module function or a method) by a traced
        one."""
        setattr(owner, attr, self.traced(name, getattr(owner, attr), after))

    def sized(self, name, keep_census=False):
        def after(index, args, result):
            self.sizes[name] = self.sizes.get(name, 0) + len(result)
            if keep_census:
                self.censuses.append((index, result))
        return after

    def _on_pfaffian(self, index, args, result):
        form = args[0]
        self.matrices.append(getattr(form, "matrix", form))

    def _on_load(self, index, args, result):
        # Workspace._load(self, descriptor, kind) is None when not on disk
        if result is not None:
            self.loads.append(args[1])
            self.censuses.append((index, result))

    def _on_load_records(self, index, args, result):
        self.reads.append([args[0].stat().st_size, len(result)])

    def _on_save_records(self, index, args, result):
        path, records = args[0], args[2]
        self.writes.append([path.stat().st_size, len(records)])

    def install(self):
        patch = self.patch
        enum, hyper, kont = (fatmod.enumeration, fatmod.hyperelliptic,
                             fatmod.kontsevich)
        ws = fatmod.workspace.Workspace
        # enumeration: the pairing search, its gap words, tree censuses, sums
        patch(enum, "enumerate_fatgraphs", "enumeration.census",
              self.sized("enumeration.census", keep_census=True))
        patch(enum, "canonical_gap_word", "enumeration.gap_word")
        patch(enum, "enumerate_trees", "enumeration.tree_census")
        patch(enum.OrbifoldCensus, "orbifold_sum", "enumeration.orbifold_sum")
        # kontsevich: the form, the Pfaffian and its determinant check
        patch(kont, "omega_matrix", "kontsevich.omega")
        patch(kont, "pfaffian", "kontsevich.pfaffian", self._on_pfaffian)
        patch(kont, "_det_fraction", "kontsevich.det_check")
        patch(fatmod.integrals, "hyperelliptic_cell_volume",
              "kontsevich.hyper_volume")
        # cache files
        patch(fatmod.cache, "load_records", "cache.read",
              self._on_load_records)
        patch(fatmod.cache, "save_records", "cache.write",
              self._on_save_records)
        # workspace: census requests, loads from disk and their decoding
        for attr in ("trivalent_census", "pristine_trivalent_census",
                     "all_valence_census", "tree_census",
                     "hyperelliptic_census", "w1_components"):
            patch(ws, attr, "workspace.request")
        patch(ws, "_load", "workspace.load", self._on_load)
        # fatgraph: canonical forms and automorphism groups
        graph = fatmod.fatgraph.Fatgraph
        patch(graph, "canonical_key", "fatgraph.canonical_key")
        patch(graph, "automorphisms", "fatgraph.automorphisms")
        # trees and the hyperelliptic locus
        patch(fatmod.trees, "rooted_trees", "trees.rooted",
              self.sized("trees.rooted"))
        patch(fatmod.trees, "unrooted_trees", "trees.unrooted",
              self.sized("trees.unrooted"))
        patch(hyper, "double_tree", "hyperelliptic.double_tree")
        for attr in ("hyperelliptic_census", "w1_component1_census",
                     "w1_component2_census"):
            patch(hyper, attr, "hyperelliptic.census",
                  self.sized("hyperelliptic.census", keep_census=True))
        # integrals: one span per identity row, as the CLI looks them up
        table = fatmod.integrals.IDENTITIES
        for key, (param_name, func) in list(table.items()):
            table[key] = (param_name, self.traced("integrals." + key, func))

    def run_cli(self, cli_args):
        return self.traced("cli", fatmod.cli.main)(cli_args)

    def document(self):
        return {
            "names": self.names,
            "spans": [list(span) for span in zip(
                self.span_ids, self.starts, self.ends, self.parents)],
            "sizes": self.sizes,
            "pfaffian": {"calls": len(self.matrices),
                         "distinct": len(set(self.matrices)),
                         "max_dim": max(map(len, self.matrices), default=0)},
            "loads": self.loads,
            "reads": self.reads,
            "writes": self.writes,
            "censuses": [census_summary(i, c) for i, c in self.censuses],
        }


def census_summary(index, census):
    """Span index, descriptor, class count and rooted count sum(2E/|Aut|)."""
    rooted = 0
    for entry in census:
        edges = entry.graph.num_edges
        if (2 * edges) % entry.aut_order:
            rooted = None
            break
        rooted += 2 * edges // entry.aut_order
    return [index, census.descriptor, len(census), rooted]


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE_FILE -- CLI ARGS...", file=sys.stderr)
        return 2
    trace_file, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_cli(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump(tracer.document(), fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
