"""Command-line interface: census building, identity verification, reports.

Exit codes: 0 success, 1 cache problems (such as a fatgraph census that
misses a closed count), bad arguments or a closed standard output, 2
size-cap overrun, 3 at least one identity mismatch from ``verify`` or
``report``, or a tree census count mismatch from ``enumerate`` (the CI
signal).  All rationals are exactly ``p/q``; reports with the same
configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import enumeration as _enum
from . import integrals as _int
from .errors import CacheError, FatmodError, ResourceLimit
from .workspace import Workspace

REPORT_FORMAT_VERSION = 1


def rational_str(x: Fraction) -> str:
    # a Decimal prints every digit of an int, also past the interpreter's
    # limit on int-to-str conversion (4300 digits by default)
    x = Fraction(x)
    return "%s/%s" % (Decimal(x.numerator), Decimal(x.denominator))


def _parse_range(text, option, default):
    """``A`` or ``A..B`` as a non-empty range; ``default`` when absent."""
    if text is None:
        return default
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise FatmodError("%s needs an integer or a range A..B, got %r"
                          % (option, text)) from None
    if hi < lo:
        raise FatmodError("%s range %r is empty" % (option, text))
    return range(lo, hi + 1)


def _build_workspace(args) -> Workspace:
    if args.cap_edges is not None and args.cap_edges < 1:
        raise FatmodError("--cap-edges must be at least 1, got %d"
                          % args.cap_edges)
    # an empty --cache or $FATMOD_CACHE is unset, not the working directory
    return Workspace(cap_edges=args.cap_edges,
                     cache_dir=args.cache or os.environ.get("FATMOD_CACHE")
                     or None,
                     no_build=getattr(args, "no_build", False))


def _report_row(report):
    return {
        "identity": report.name,
        "param_name": report.param_name,
        "param": report.param,
        "value_closed": rational_str(report.value_closed),
        "value_assembled": rational_str(report.value_assembled),
        "match": report.match,
        "mode": report.assembled_mode,
    }


def _emit(rows, fmt, command, stream):
    if fmt == "json":
        doc = {
            "fatmod_report": REPORT_FORMAT_VERSION,
            "command": command,
            "rows": rows,
        }
        stream.write(json.dumps(doc, indent=2) + "\n")
    elif fmt == "csv":
        fields = ["identity", "param_name", "param", "value_closed",
                  "value_assembled", "match", "mode"]
        writer = csv.DictWriter(stream, fieldnames=fields,
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(dict(row, match="true" if row["match"] else "false")
                         for row in rows)
    else:
        stream.write("%-14s %-6s %-24s %-24s %-5s %s\n"
                     % ("identity", "param", "closed", "assembled", "match",
                        "mode"))
        for row in rows:
            stream.write("%-14s %s=%-4d %-24s %-24s %-5s %s\n" % (
                row["identity"], row["param_name"], row["param"],
                row["value_closed"], row["value_assembled"],
                "ok" if row["match"] else "FAIL", row["mode"]))


def _run_identities(names, args) -> int:
    """Print one row per identity and parameter; exit 3 on any FAIL.  Each
    identity takes the range of its parameter's option, ``--n`` or
    ``--g``, or else its default range; an option that no identity of
    ``names`` takes is refused."""
    ranges = {p: _parse_range(getattr(args, p), "--" + p, None)
              for p in ("n", "g")}
    taken = {_int.IDENTITIES[name][0] for name in names}
    for param_name, values in ranges.items():
        if values is not None and param_name not in taken:
            raise FatmodError("--%s applies to none of the identities %s"
                              % (param_name, ",".join(names)))
    ws = _build_workspace(args)
    rows = []
    for name in names:
        param_name, func = _int.IDENTITIES[name]
        for value in ranges[param_name] or _int.TABLE[name].default:
            rows.append(_report_row(func(value, ws)))
    _emit(rows, args.format, args.command, sys.stdout)
    return 0 if all(row["match"] for row in rows) else 3


# the options of one census kind, which the other kind refuses; a tree
# census is built in memory and never cached
_GRAPH_OPTIONS = ("type", "all_valences", "single_k", "cap_edges", "cache")
_TREE_OPTIONS = ("leaves", "profile", "rooted")


def cmd_enumerate(args) -> int:
    for dest in _GRAPH_OPTIONS if args.trees else _TREE_OPTIONS:
        value = getattr(args, dest)
        if value is not None and value is not False:
            raise FatmodError("--%s does not apply to a %s census"
                              % (dest.replace("_", "-"),
                                 "tree" if args.trees else "fatgraph"))
    if args.trees:
        leaves = args.leaves
        if leaves is None:
            raise FatmodError("--trees requires --leaves")
        if leaves < 2:
            raise FatmodError("--leaves must be at least 2, got %d" % leaves)
        profile = args.profile or "trivalent"
        rooting = "rooted" if args.rooted else "unrooted"
        closed = _enum.tree_closed_count(leaves, profile, rooting)
        census = _enum.enumerate_trees(leaves, profile, rooting)
    else:
        if args.type is None:
            raise FatmodError("need --type G,N (or --trees)")
        try:
            g, n = (int(x) for x in args.type.split(","))
        except ValueError:
            raise FatmodError("--type needs two integers G,N, got %r"
                              % args.type) from None
        if n != 1:
            raise FatmodError("censuses need type (g,1) with g >= 1, got "
                              "(%d,%d)" % (g, n))
        if args.single_k is not None:
            valence_filter = ("single", args.single_k)
        elif args.all_valences:
            valence_filter = _enum.ALL
        else:
            valence_filter = _enum.TRIVALENT
        # the door checks the filter before the closed count reads it
        census = _build_workspace(args).fatgraph_census(g, valence_filter)
        closed = _enum.fatgraph_closed_count(g, valence_filter)
    row = _int.IntegralReport("census", "classes", len(census), closed,
                              census.orbifold_sum(), census.descriptor)
    _emit([_report_row(row)], args.format, "enumerate", sys.stdout)
    return 0 if row.match else 3


def cmd_verify(args) -> int:
    return _run_identities(
        [args.identity] if args.identity else list(_int.IDENTITIES), args)


def cmd_report(args) -> int:
    names = list(_int.IDENTITIES) if args.identities is None \
        else args.identities.split(",")
    for i, name in enumerate(names):
        if name not in _int.IDENTITIES:
            raise FatmodError("unknown identity %r" % name)
        if name in names[:i]:
            raise FatmodError("identity %r given twice" % name)
    return _run_identities(names, args)


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a :class:`FatmodError`, one ``error:`` line
    and exit code 1, not as argparse's usage message and exit code 2, which
    stands for a size-cap overrun here."""

    def error(self, message):
        raise FatmodError(message)


def _add_common(parser):
    parser.add_argument("--cache", help="census cache directory "
                        "(default: $FATMOD_CACHE)")
    parser.add_argument("--format", choices=("human", "json", "csv"),
                        default="human")
    parser.add_argument("--cap-edges", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fatmod",
        description="Exact fatgraph censuses and hyperelliptic "
                    "intersection numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="build and cache censuses")
    p_enum.add_argument("--type", help="G,N pair, e.g. 2,1")
    valences = p_enum.add_mutually_exclusive_group()
    valences.add_argument("--all-valences", dest="all_valences",
                          action="store_true")
    valences.add_argument("--single-k", dest="single_k", type=int)
    p_enum.add_argument("--trees", action="store_true")
    p_enum.add_argument("--leaves", type=int)
    p_enum.add_argument("--profile", choices=("trivalent", "one5", "marked"))
    p_enum.add_argument("--rooted", action="store_true")
    _add_common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="evaluate identities exactly")
    p_verify.add_argument("--identity", choices=tuple(_int.IDENTITIES))
    p_verify.add_argument("--g", help="genus or range A..B")
    p_verify.add_argument("--n", help="marked-point count or range A..B")
    p_verify.add_argument("--no-build", dest="no_build", action="store_true")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="consolidated report")
    p_report.add_argument("--identities", help="comma-separated subset")
    p_report.add_argument("--g", help="genus or range A..B")
    p_report.add_argument("--n", help="marked-point count or range A..B")
    p_report.add_argument("--no-build", dest="no_build", action="store_true")
    _add_common(p_report)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's flush at exit writes nowhere and stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CacheError as exc:
        print("cache error: %s" % exc, file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print("size cap exceeded: %s" % exc, file=sys.stderr)
        return 2
    except FatmodError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
