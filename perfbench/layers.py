"""Per-layer metrics and count oracles from one trace written by tracer.py.

A span's self time is its duration minus the durations of its direct child
spans; the run is single-threaded, so children never overlap.
"""

from collections import Counter
from math import factorial

IDENTITIES = ("genus0", "psi-top", "hevol", "w1h", "boundary",
              "main-theorem", "corollary", "euler")

# counts fixed by mathematics, checked on every traced run
TRIVALENT_CLASSES = {3: 1726}
ALL_VALENCE_CLASSES = {2: 160}
HYPERELLIPTIC_CELLS = {4: 49}

# metric name prefixes of the layers that build censuses and write the cache
BUILD_LAYERS = ("enumeration.", "cache.write", "cache.records_written")


def walsh_lehman(g):
    """Rooted one-face trivalent maps of genus g: 2(6g-3)!/(12^g g!(3g-2)!)."""
    return (2 * factorial(6 * g - 3)
            // (12 ** g * factorial(g) * factorial(3 * g - 2)))


def _span_totals(trace):
    names = trace["names"]
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_time = Counter(), Counter(), Counter()
    for i, (nid, start, end, _) in enumerate(spans):
        name = names[nid]
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[i]
    return calls, total, self_time


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace, rows):
    """Every per-layer metric of one traced run, as {name: (value, unit)}.

    rows is the number of report rows the traced run printed.
    """
    calls, total, self_time = _span_totals(trace)
    sizes = trace["sizes"]
    pf = trace["pfaffian"]
    reads, writes, loads = trace["reads"], trace["writes"], trace["loads"]
    classes = sizes.get("enumeration.census", 0)
    gap_words = calls["enumeration.gap_word"]
    rooted = sizes.get("trees.rooted", 0)
    tree_classes = sizes.get("trees.unrooted", 0)
    m = {
        "enumeration.census_s": (self_time["enumeration.census"], "s"),
        "enumeration.classes": (classes, "count"),
        "enumeration.gap_words": (gap_words, "count"),
        "enumeration.gap_word_s": (self_time["enumeration.gap_word"], "s"),
        "enumeration.classes_per_gap_word": (_ratio(classes, gap_words),
                                             "ratio"),
        "enumeration.tree_census_s": (self_time["enumeration.tree_census"],
                                      "s"),
        "enumeration.orbifold_sum_s": (self_time["enumeration.orbifold_sum"],
                                       "s"),
        "kontsevich.omega_s": (self_time["kontsevich.omega"], "s"),
        "kontsevich.pfaffian.calls": (pf["calls"], "count"),
        "kontsevich.pfaffian.distinct": (pf["distinct"], "count"),
        "kontsevich.pfaffian_s": (self_time["kontsevich.pfaffian"], "s"),
        "kontsevich.det_check_s": (self_time["kontsevich.det_check"], "s"),
        "kontsevich.pfaffian.max_dim": (pf["max_dim"], "count"),
        "kontsevich.hyper_volume_s": (self_time["kontsevich.hyper_volume"],
                                      "s"),
        "cache.read_s": (self_time["cache.read"], "s"),
        "cache.read_bytes": (sum(r[0] for r in reads), "bytes"),
        "cache.records_read": (sum(r[1] for r in reads), "count"),
        "cache.write_s": (self_time["cache.write"], "s"),
        "cache.write_bytes": (sum(w[0] for w in writes), "bytes"),
        "cache.records_written": (sum(w[1] for w in writes), "count"),
        "workspace.requests": (calls["workspace.request"], "count"),
        "workspace.builds": (calls["enumeration.census"]
                             + calls["enumeration.tree_census"]
                             + calls["hyperelliptic.census"], "count"),
        "workspace.loads": (len(loads), "count"),
        "workspace.repeat_loads": (len(loads) - len(set(loads)), "count"),
        # loading minus reading: rebuilding keys and doubled cells
        "workspace.decode_s": (total["workspace.load"] - total["cache.read"],
                               "s"),
        "fatgraph.canonical_key.calls": (calls["fatgraph.canonical_key"],
                                         "count"),
        "fatgraph.canonical_key_s": (self_time["fatgraph.canonical_key"],
                                     "s"),
        "fatgraph.automorphisms.calls": (calls["fatgraph.automorphisms"],
                                         "count"),
        "fatgraph.automorphisms_s": (self_time["fatgraph.automorphisms"],
                                     "s"),
        "trees.rooted": (rooted, "count"),
        "trees.classes": (tree_classes, "count"),
        "trees.classes_per_rooted": (_ratio(tree_classes, rooted), "ratio"),
        "trees.s": (self_time["trees.rooted"] + self_time["trees.unrooted"],
                    "s"),
        "hyperelliptic.double_tree.calls": (
            calls["hyperelliptic.double_tree"], "count"),
        "hyperelliptic.double_tree_s": (
            self_time["hyperelliptic.double_tree"], "s"),
        "hyperelliptic.census_s": (self_time["hyperelliptic.census"], "s"),
        "hyperelliptic.cells": (sizes.get("hyperelliptic.census", 0),
                                "count"),
    }
    for name in IDENTITIES:
        m["integrals.%s.s" % name] = (total["integrals." + name], "s")
    m["integrals.s"] = (sum(self_time["integrals." + n] for n in IDENTITIES),
                        "s")
    m["cli.rows"] = (rows, "count")
    m["trace.spans"] = (len(trace["spans"]), "count")
    return m


def build_metrics(trace):
    """The metrics of the layers that build censuses and write them to the
    cache, which a run against a filled cache does not use."""
    return {name: value for name, value in layer_metrics(trace, 0).items()
            if name.startswith(BUILD_LAYERS)}


def oracle_failures(trace, expect_no_search):
    """Messages for every count oracle the traced run breaks."""
    failures = []
    for _, descriptor, classes, rooted in trace["censuses"]:
        words = descriptor.split()
        if words[0] == "fatgraphs" and words[2] == "n=1":
            g = int(words[1][2:])
            if words[3] == "filter=trivalent":
                want = TRIVALENT_CLASSES.get(g, classes)
                if classes != want:
                    failures.append("%s: %d classes, want %d"
                                    % (descriptor, classes, want))
                if rooted != walsh_lehman(g):
                    failures.append("%s: sum 2E/|Aut| = %s, want %d"
                                    % (descriptor, rooted, walsh_lehman(g)))
            elif words[3] == "filter=all":
                want = ALL_VALENCE_CLASSES.get(g, classes)
                if classes != want:
                    failures.append("%s: %d classes, want %d"
                                    % (descriptor, classes, want))
        elif words[0] == "hyperelliptic":
            g = int(words[1][2:])
            want = HYPERELLIPTIC_CELLS.get(g, classes)
            if classes != want:
                failures.append("%s: %d cells, want %d"
                                % (descriptor, classes, want))
    gap_word = trace["names"].index("enumeration.gap_word")
    words = sum(1 for span in trace["spans"] if span[0] == gap_word)
    if expect_no_search and words:
        failures.append("%d gap words on a workload that runs no census "
                        "search" % words)
    return failures


def census_lines(trace):
    """One line per census the traced run built or loaded."""
    names, spans = trace["names"], trace["spans"]
    gap_word = names.index("enumeration.gap_word")
    words = Counter(span[3] for span in spans if span[0] == gap_word)
    lines = []
    for index, descriptor, classes, rooted in trace["censuses"]:
        how = "loaded" if names[spans[index][0]] == "workspace.load" \
            else "built"
        line = "%s %s: %d classes" % (how, descriptor, classes)
        if descriptor.startswith("fatgraphs"):
            line += ", sum 2E/|Aut| %s, %d gap words" % (rooted,
                                                         words[index])
        lines.append(line)
    return lines
