#!/usr/bin/env python3
"""The fatmod benchmark: drives the real CLI and checks every row it prints.

    python3 perfbench/run.py --workload report-cached --seed 1 --seconds 25 \\
        --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  Every timed run is a fresh
interpreter (``python -m fatmod.cli report --format csv ...``), one at a time,
with ``FATMOD_CACHE`` unset and a cache directory of the run's own.  The seed
permutes the identity order passed to ``--identities`` (psi-top stays last);
the rows are the same set for every seed.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` adds one traced run (``tracer.py``), traces
the cold run that fills the cache in set-up, and prints the per-layer
metrics.  The last line of standard output is the JSON
result; see README.md.
"""

import argparse
import csv
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from fractions import Fraction
from math import factorial
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_BUDGET_S = 170.0      # a run ends well inside 180 s
IMPORT_SAMPLES = 25       # set-up samples for the workloads without a cache
REFERENCE_CPU_S = 0.02    # least CPU time of the reference loop per run
# Reference-loop chunks per CPU second that define the scale of the rescaled
# times: a time T measured while the loop ran at speed v is reported as
# T * v / REFERENCE_SPEED, the time the run would take on a CPU where the
# loop runs at exactly this speed.  Fixed once; it only sets the scale.
REFERENCE_SPEED = 20000.0


def expected_value(identity, g):
    """The closed formula of each identity, written out here independently;
    g is the row's parameter (n for genus0)."""
    p = Fraction
    if identity == "genus0":
        return p(1)
    if identity == "psi-top":
        return p(1, 24 ** g * factorial(g))
    if identity == "hevol":
        return p(1, 2 ** (2 * g) * factorial(2 * g + 1))
    if identity == "w1h":
        return p(10 * g * g - 13 * g + 3,
                 2 ** (2 * g - 2) * factorial(2 * g + 1))
    if identity == "boundary":
        return p(1, 2 ** (2 * g - 1) * factorial(2 * g - 1))
    if identity == "main-theorem":
        return p((2 * g - 1) ** 2, 2 ** (2 * g) * factorial(2 * g + 1))
    if identity == "corollary":
        return p(14 * g * g - 11 * g + 3,
                 3 * 2 ** (2 * g) * factorial(2 * g + 1))
    if identity == "euler":
        return {1: p(-1, 12), 2: p(1, 120)}[g]  # zeta(1-2g) = -B_2g/2g
    raise KeyError(identity)


HEADLINE = {("main-theorem", 2): "3/640", ("corollary", 2): "37/5760",
            ("psi-top", 3): "1/82944", ("w1h", 2): "17/480",
            ("euler", 2): "1/120", ("hevol", 3): "1/322560"}

# the CLI's default parameter range per identity
DEFAULT_RANGE = {"genus0": range(4, 10), "psi-top": range(1, 4),
                 "hevol": range(1, 4), "w1h": range(2, 4),
                 "boundary": range(2, 4), "main-theorem": range(1, 4),
                 "corollary": range(2, 4), "euler": range(1, 3)}

HYPER = ("hevol", "w1h", "boundary", "main-theorem", "corollary")
LAST = "psi-top"

# name -> (identities, --g range or None, runs against a cache filled in
# set-up, a timed run searches for censuses)
WORKLOADS = {
    "report-cached": (layers.IDENTITIES, None, True, False),
    "hyperelliptic-g4": (HYPER, range(2, 201), False, False),
}


def expected_rows(identities, g_range):
    return {(name, g): expected_value(name, g) for name in identities
            for g in (g_range or DEFAULT_RANGE[name])}


Run = namedtuple("Run", "wall rss_mb code stdout stderr chunks cpu")


class Reference:
    """The reference loop (refloop.py), beside the CLI runs on their CPU."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "refloop.py")],
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference loop did not start")

    def reading(self):
        """(chunks done, CPU seconds used) so far."""
        self.proc.send_signal(signal.SIGUSR1)
        line = self.proc.stdout.readline().split()
        if len(line) != 2:
            raise RuntimeError("the reference loop stopped")
        return int(line[0]), float(line[1])

    def close(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def speed(chunks, cpu):
    """Reference chunks per CPU second."""
    if chunks <= 0:
        raise RuntimeError("the reference loop did no work")
    return chunks / cpu


def rescaled(wall, speed):
    """A time measured at the given reference speed, at REFERENCE_SPEED."""
    return wall * speed / REFERENCE_SPEED


def child_env():
    env = dict(os.environ)
    env.pop("FATMOD_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def launch(cmd, work, deadline, ref):
    """Run cmd to completion; wall time from start to exit, peak RSS, and
    the reference loop's chunks and CPU time meanwhile."""
    out_fd, out_path = tempfile.mkstemp(dir=work, suffix=".out")
    err_fd, err_path = tempfile.mkstemp(dir=work, suffix=".err")
    with os.fdopen(out_fd, "wb") as out, os.fdopen(err_fd, "wb") as err:
        chunks, cpu = ref.reading()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        # a short run can end before the reference loop gets the CPU; let it
        # run alone until it has sampled the CPU for long enough
        chunks_end, cpu_end = ref.reading()
        while cpu_end - cpu < REFERENCE_CPU_S:
            time.sleep(REFERENCE_CPU_S)
            chunks_end, cpu_end = ref.reading()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = Path(out_path).read_bytes(), Path(err_path).read_bytes()
    os.unlink(out_path)
    os.unlink(err_path)
    return Run(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout,
               stderr, chunks_end - chunks, cpu_end - cpu)


def cli_command(argv, trace_file=None):
    if trace_file is None:
        return [sys.executable, "-m", "fatmod.cli"] + argv
    return [sys.executable, str(HERE / "tracer.py"), str(trace_file),
            "--"] + argv


def row_failures(run, expected, reference):
    """(attempted, failed) rows of one CLI run.

    A row fails if it is missing, duplicated or unexpected, if its match is
    false or if a value differs from the expected one.  Every row fails when
    the run exits non-zero or prints other bytes than the workload's first
    run.
    """
    if run.code != 0 or (reference is not None and run.stdout != reference):
        return len(expected), len(expected)
    ok = {}
    extra = 0
    try:
        for row in csv.DictReader(io.StringIO(run.stdout.decode())):
            key = (row["identity"], int(row["param"]))
            if key in ok or key not in expected:
                extra += 1
                continue
            want = expected[key]
            ok[key] = (row["match"] == "true"
                       and Fraction(row["value_closed"]) == want
                       and Fraction(row["value_assembled"]) == want)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return len(expected), len(expected)
    failed = extra + sum(1 for key in expected if not ok.get(key))
    return len(expected) + extra, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def workload_plan(workload, seed):
    """CLI arguments, expected rows, whether it uses a cache filled in
    set-up, and whether a timed run searches for censuses."""
    identities, g_range, cached, searches = WORKLOADS[workload]
    # psi-top builds the largest census, and the process's peak memory
    # depends on what ran before it (33 MB when it runs first, 41.5 MB after
    # euler and genus0).  It always runs last, so every seed measures that
    # higher peak; the seed orders the others.
    order = [name for name in identities if name != LAST]
    random.Random(seed).shuffle(order)
    order += [name for name in identities if name == LAST]
    argv = ["report", "--format", "csv", "--identities", ",".join(order)]
    if g_range is not None:
        argv += ["--g", "%d..%d" % (g_range.start, g_range.stop - 1)]
    return argv, expected_rows(identities, g_range), cached, searches


SMOKE_PLAN = (["verify", "--identity", "psi-top", "--g", "1..2",
               "--format", "csv"], expected_rows(("psi-top",), range(1, 3)),
              False, True)


def bench(label, plan, seconds, trace):
    """One benchmark run; returns (result dict, summary lines)."""
    run_deadline = time.monotonic() + RUN_BUDGET_S
    argv, expected, cached, searches = plan
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    state = {"attempted": 0, "failed": 0, "reference": None, "notes": []}

    def check(run):
        if state["reference"] is None and run.code == 0:
            state["reference"] = run.stdout
        attempted, failed = row_failures(run, expected, state["reference"])
        state["attempted"] += attempted
        state["failed"] += failed
        if failed:
            last = (run.stderr.decode(errors="replace").strip().splitlines()
                    or [""])[-1]
            state["notes"].append("exit %d, %d of %d rows failed %s"
                                  % (run.code, failed, attempted, last))

    def fail_all(note):
        """Count every row of the CLI run just checked as failed."""
        state["notes"].append(note)
        state["failed"] += len(expected)

    cache_dir = work / "filled"
    cache_args = ["--cache", str(cache_dir)] if cached else []

    def cold_fill(trace_file=None):
        """The set-up of a cached workload: one cold run, which builds every
        census and writes it to a cache directory that starts empty (it is
        made here) and must end non-empty."""
        cache_dir.mkdir()
        run = launch(cli_command(argv + cache_args, trace_file), work,
                     run_deadline, ref)
        check(run)
        if not any(cache_dir.iterdir()):
            fail_all("the cold run left its cache empty")
        return run

    def timed_run(trace_file=None):
        """One checked CLI run."""
        run = launch(cli_command(argv + cache_args, trace_file), work,
                     run_deadline, ref)
        check(run)
        return run

    ref = None
    try:
        ref = Reference()
        # set-up: fill the cache, or start the interpreter and import fatmod;
        # a traced run traces the cold fill too, for the census layers
        fill_trace = work / "fill.json" if trace and cached else None
        if cached:
            setup = [cold_fill(fill_trace)]
        else:
            setup = [launch([sys.executable, "-c", "import fatmod"], work,
                            run_deadline, ref)
                     for _ in range(IMPORT_SAMPLES)]
        # timed runs: at least one, then another while it is expected to
        # end within --seconds of the first start, so a run measures about
        # --seconds and never much more; stop early when the run budget has
        # no room for another (and for the traced one)
        runs = []
        start = time.monotonic()
        while True:
            runs.append(timed_run())
            typical = statistics.median(r.wall for r in runs)
            reserve = max(r.wall for r in runs) * (3 if trace else 1.5)
            now = time.monotonic()
            if (now - start + typical > seconds
                    or now + reserve > run_deadline):
                break
        # each timed run is rescaled by the reference speed during that run,
        # and set-up by the speed over all of set-up
        speeds = [speed(r.chunks, r.cpu) for r in runs]
        walls = [rescaled(r.wall, v) for r, v in zip(runs, speeds)]
        wall = statistics.median(walls)
        setup_wall = statistics.median(r.wall for r in setup)
        setup_s = rescaled(setup_wall, speed(sum(r.chunks for r in setup),
                                             sum(r.cpu for r in setup)))
        rss = statistics.median(r.rss_mb for r in runs)
        host = {"host.wall_s": (statistics.median(r.wall for r in runs),
                                "s"),
                "host.speed": (statistics.median(speeds), "1/s")}
        lo, hi = quartiles(walls)
        lines = ["# %s: wall_ref_s median %.4f s (n=%d, q1 %.4f, q3 %.4f),"
                 " setup_s %.4f s (n=%d), peak_rss_mb median %.2f"
                 % (label, wall, len(walls), lo, hi, setup_s, len(setup),
                    rss),
                 "# measured: wall %s s, set-up median %.4f s;"
                 " reference speed %s /s"
                 % (" ".join("%.4f" % r.wall for r in runs),
                    setup_wall,
                    " ".join("%.0f" % v for v in speeds))]
        metrics = {
            "wall_ref_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        if trace:
            trace_file = work / "trace.json"
            traced = timed_run(trace_file)
            traced_wall = rescaled(traced.wall,
                                   speed(traced.chunks, traced.cpu))
            doc = json.loads(trace_file.read_text())
            rows = max(0, traced.stdout.count(b"\n") - 1)
            layer = layers.layer_metrics(doc, rows)
            oracle = layers.oracle_failures(doc,
                                            expect_no_search=not searches)
            lines.extend("# " + c for c in layers.census_lines(doc))
            if fill_trace is not None:
                # a cached run builds and writes nothing: those layers are
                # measured on the cold fill of set-up
                fill = json.loads(fill_trace.read_text())
                layer.update(layers.build_metrics(fill))
                oracle += layers.oracle_failures(fill, expect_no_search=False)
                lines.extend("# set-up " + c
                             for c in layers.census_lines(fill))
            layer["trace.overhead_s"] = (traced_wall - wall, "s")
            layer.update(host)
            metrics = {k: {"value": v, "unit": u} for k, (v, u)
                       in layer.items()}
            for message in oracle:
                fail_all("oracle: " + message)
            lines.append("# traced wall_ref_s %.4f s, overhead %.4f s over"
                         " the untraced median, %d spans"
                         % (traced_wall, traced_wall - wall,
                            len(doc["spans"])))
    finally:
        if ref is not None:
            ref.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    failed = min(state["failed"], state["attempted"])
    lines.append("# error_rate %d/%d" % (failed, state["attempted"]))
    lines.extend("# FAIL " + note for note in state["notes"])
    result = {"correct": failed == 0,
              "attempted": state["attempted"], "failed": failed,
              "metrics": metrics}
    return result, lines


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def smoke():
    """About a second of work: every declared metric is emitted, with its
    unit, and the rows and oracles hold."""
    end_to_end, per_layer = declared_metrics()
    ok = True
    for trace, declared in ((0, end_to_end), (1, per_layer)):
        result, lines = bench("smoke", SMOKE_PLAN, 0, trace)
        print("\n".join(lines))
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if emitted != declared:
            ok = False
            print("# FAIL trace %d: metrics that differ from BENCHMARK.json:"
                  " %s" % (trace, sorted(set(emitted.items())
                                         ^ set(declared.items()))))
        ok = ok and result["correct"]
    print("smoke %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the harness itself in about a second")
    args = parser.parse_args(argv)
    if not (SRC / "fatmod" / "cli.py").is_file():
        print("no fatmod sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    for key, text in HEADLINE.items():
        if expected_value(*key) != Fraction(text):
            print("expected value of %s is not %s" % (key, text),
                  file=sys.stderr)
            return 2
    # the CLI runs and the reference loop share one CPU, so the loop sees
    # the speed the runs get
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # build: byte-compile once, so no timed run pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    label = "%s seed=%d" % (args.workload, args.seed)
    result, lines = bench(label, workload_plan(args.workload, args.seed),
                          args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
