#!/usr/bin/env python3
"""Benchmark of xmodforge: three workloads, timed end to end, with an
optional traced run that times each layer from outside.

    python3 perfbench/run.py --workload hypercover --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its `src/`.
The load is a closed loop: one caller, one thread, one process.  A run
repeats whole rounds of its workload's corpus until it has measured
`--seconds` of operation time and at least 40 operations.  The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; `--trace 0` reports the end-to-end metrics and
`--trace 1` the per-layer ones.  See perfbench/README.md.
"""

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hypercover", "exchanger", "cli")
MIN_OPS = 40
SETUP_RUNS = 5          # set-ups per run, spread over it; setup_s is their median
CHILD_TIMEOUT_S = 120
CORPUS_FILE = "corpus.pickle"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    ap.add_argument("--corpus", metavar="DIR",
                    help="with --setup-only: build the corpus in DIR, keep it "
                         f"there and save its items to DIR/{CORPUS_FILE}")
    return ap.parse_args(argv)


def import_library():
    """Import the library from this checkout's `src/`, and the workloads."""
    src = ROOT / "src"
    if not (src / "xmodforge" / "__init__.py").is_file():
        raise SystemExit(f"no xmodforge sources under {src}")
    sys.path.insert(0, str(src))
    import xmodforge
    if Path(xmodforge.__file__).resolve().parent != (src / "xmodforge").resolve():
        raise SystemExit(f"xmodforge imported from {xmodforge.__file__}, not {src}")
    import workloads
    return workloads


def setup(workload, seed, workdir):
    """Import the library from this checkout and build the corpus."""
    workloads = import_library()
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "cli":
        items = workloads.CORPORA[workload](seed, str(workdir))
    else:
        items = workloads.CORPORA[workload](seed)
    return workloads, items


def setup_only(args, t_start):
    """The set-up of a fresh process: its seconds go to standard output.
    With --corpus the corpus is kept for the measuring process, which
    therefore never holds the generators' pools."""
    keep = args.corpus is not None
    workdir = Path(args.corpus) if keep else ROOT / ".perfbench_run" / f"setup-{os.getpid()}"
    try:
        _, items = setup(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - t_start
        if keep:
            with open(workdir / CORPUS_FILE, "wb") as fh:
                pickle.dump(items, fh)
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)
    print(repr(setup_s))
    return 0


def child_setup_seconds(args, corpus_dir=None):
    """Set-up time of a fresh process: import, corpus generation, rendering."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if corpus_dir is not None:
        cmd += ["--corpus", str(corpus_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Runner:
    """Runs rounds of a corpus and checks every output.

    The first round's outputs are checked against the workload's
    properties; every later round must reproduce them exactly."""

    def __init__(self, workloads, items):
        self.wl = workloads
        self.items = items
        self.first = None
        self.done = 0
        self.problems = []

    def round(self, tracer=None, between=None):
        """One round over the corpus.  `between(busy)` is called after each
        operation with the round's operation seconds so far.  Returns
        (latencies of completed operations, attempted, failed, busy seconds)."""
        wl, perf = self.wl, time.perf_counter
        latencies, summaries, failed, busy = [], [], 0, 0.0
        for item in self.items:
            op = wl.operation(item)
            error = None
            t0 = perf()
            if tracer is not None:
                tracer.begin(t0)
            try:
                result = op(item)
            except Exception as e:  # a failing operation is counted, not fatal
                error = e
            t1 = perf()
            if tracer is not None:
                tracer.end(t1)
            busy += t1 - t0
            if error is not None:
                failed += 1
                summaries.append(("raised", type(error).__name__))
                self.problems += [f"{item.kind} {item.sig}: {p}"
                                  for p in wl.raise_problems(item, error)]
            else:
                latencies.append(t1 - t0)
                summaries.append(wl.summary(item, result))
                if self.first is None:
                    self.problems += [f"{item.kind} {item.sig}: {p}"
                                      for p in wl.check(item, result)]
            if between is not None:
                between(busy)
        self.done += 1
        if self.first is None:
            self.first = summaries
        elif summaries != self.first:
            bad = [self.items[i].kind for i, (a, b) in enumerate(zip(summaries, self.first))
                   if a != b]
            self.problems.append(f"round {self.done} differs from round 1 on {bad}")
        return latencies, len(self.items), failed, busy


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    return ordered[len(ordered) - 11]


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    if args.setup_only:
        return setup_only(args, t_start)
    rundir = ROOT / ".perfbench_run"
    workdir = rundir / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = import_library()
        from xmodforge.fingrpd import unpair
        workdir.mkdir(parents=True)
        setups = [child_setup_seconds(args, workdir)]
        with open(workdir / CORPUS_FILE, "rb") as fh:
            runner = Runner(wl, pickle.load(fh))
        rss_setup = peak_rss_mb()
        unpair.cache_clear()
        # Full collections would otherwise rescan the imported library and
        # the corpus, some 8 ms each, on whichever operations they land.
        gc.collect()
        gc.freeze()
        lat, attempted, failed, busy = [], 0, 0, 0.0
        if args.trace == 0:
            # The other set-ups run between operations at even steps of the
            # measured time and after it, so that they meet different
            # machine speed phases.
            marks = [k * args.seconds / (SETUP_RUNS - 1) for k in range(1, SETUP_RUNS - 1)]

            def between(round_busy):
                if marks and busy + round_busy >= marks[0]:
                    marks.pop(0)
                    setups.append(child_setup_seconds(args))

            while busy < args.seconds or attempted < MIN_OPS:
                r_lat, r_att, r_fail, r_busy = runner.round(between=between)
                lat += r_lat
                attempted, failed, busy = attempted + r_att, failed + r_fail, busy + r_busy
            rss = peak_rss_mb()
            while len(setups) < SETUP_RUNS:
                setups.append(child_setup_seconds(args))
            print(f"peak RSS {rss_setup:.1f} MB after loading the corpus, "
                  f"{rss:.1f} MB after the timed rounds", file=sys.stderr)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (len(lat) / busy, "1/s"),
                "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
                "latency_tail_ms": (1000 * tail(lat), "ms"),
                "peak_rss_mb": (rss, "MB"),
            }
        else:
            # Untraced and traced rounds alternate, so that both see the same
            # warm-up and the same machine speed phases.
            import tracing
            tracer = tracing.Tracer()
            lat_t, busy_t = [], 0.0
            hits = misses = 0
            while busy < args.seconds / 2 or not lat_t:
                r_lat, r_att, r_fail, r_busy = runner.round()
                lat += r_lat
                attempted, failed, busy = attempted + r_att, failed + r_fail, busy + r_busy
                tracer.install()
                before = unpair.cache_info()
                r_lat, r_att, r_fail, r_busy = runner.round(tracer)
                after = unpair.cache_info()
                tracer.uninstall()
                hits, misses = hits + after.hits - before.hits, misses + after.misses - before.misses
                lat_t += r_lat
                attempted, failed, busy_t = attempted + r_att, failed + r_fail, busy_t + r_busy
            metrics, problems = tracing.layer_metrics(tracer, busy_t, (hits, misses),
                                                      len(lat) / busy, len(lat_t) / busy_t)
            runner.problems += problems
            tracer.write(rundir / f"spans-{args.workload}-{args.seed}-{os.getpid()}.tsv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
