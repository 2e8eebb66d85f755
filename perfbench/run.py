"""The torslat benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload silting-ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each pass calls the library once per input of the workload, in order,
with one operation in flight, and checks every result against its
reference.  Passes repeat until the next one would end after
``--seconds``.

``--trace 0`` reports the end-to-end metrics: medians over passes of
``wall_s`` (one pass), ``largest_s`` (the workload's largest input) and
``rest_s`` (every other input), the median ``setup_s`` of several fresh
processes that import torslat and build the inputs, and ``peak_rss_mb``
of this process.  ``--trace 1`` runs one untraced pass and at least two
traced ones (see ``benchtrace.py``) and reports the per-layer metrics
named in ``record.json``, failing if a count differs between passes or a
layer that should move reads zero.

Pass and set-up times are in reference seconds.  On a shared host the
speed of a core swings by half within seconds and drifts over minutes,
and two cores of one machine swing apart.  So the process is pinned to
one core and a ``SpeedProbe`` thread times a short fixed loop on it
every 20 ms.  The wall time of each operation, less the probe's own
loops, is multiplied by the core's mean speed around it relative to a
core that runs the loop in ``REFERENCE_S`` seconds.  The raw wall-clock
median is printed on the line before the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every result matched its reference.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
MIN_TRACED_PASSES = 2
RECORD = HERE / "record.json"
PROBE_SIDE = 32  # the probe loop makes PROBE_SIDE ** 2 steps
REFERENCE_S = 0.0003  # seconds for the probe loop on the reference core
PROBE_PERIOD_S = 0.02
PROBE_WINDOW_S = 0.1  # an interval's speed is averaged this far beyond it


class SpeedProbe:
    """Samples the speed of the core this process is pinned to.

    A daemon thread wakes every PROBE_PERIOD_S seconds and times a fixed
    pure-Python loop that calls nothing in torslat.  Its steps are method
    calls, attribute reads and dict lookups by tuple key, the staples of
    torslat's own code: on a loaded host such a loop tracked the library's
    slowdowns more closely than plain integer arithmetic did.  The main
    thread waits for the loop (it needs the interpreter lock, or the core),
    so the loop's time is taken out of every interval it falls in.
    """

    def __init__(self):
        self._x = 1
        self._table = {(i, j): i * j for i in range(PROBE_SIDE) for j in range(PROBE_SIDE)}
        self.starts = []
        self.seconds = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        while not self.starts:
            time.sleep(PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _step(self, i, j):
        return self._x + self._table[i, j]

    def _sample(self):
        side = range(PROBE_SIDE)
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = perf_counter()
            s = 0
            for i in side:
                for j in side:
                    s += self._step(i, j)
            self.seconds.append(perf_counter() - t0)
            self.starts.append(t0)  # last, so every listed start has its time

    def settle(self):
        """Wait until the window after the latest interval is sampled."""
        time.sleep(PROBE_WINDOW_S + PROBE_PERIOD_S)

    def scaled(self, t0, t1):
        """Reference seconds for the main thread's interval [t0, t1]."""
        n = len(self.starts)
        lo = bisect_left(self.starts, t0 - PROBE_WINDOW_S, 0, n)
        hi = bisect_right(self.starts, t1 + PROBE_WINDOW_S, 0, n)
        if lo == hi:  # no sample near: use the nearest on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        busy = sum(
            self.seconds[k] for k in range(lo, hi)
            if t0 <= self.starts[k] and self.starts[k] + self.seconds[k] <= t1
        )
        speed = statistics.fmean(REFERENCE_S / self.seconds[k] for k in range(lo, hi))
        return (t1 - t0 - busy) * speed


def pin_to_one_core():
    """Keep this process, its threads and its children on one core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _import_library():
    """Put the checkout's src/ first on the path; refuse any other torslat."""
    src = ROOT / "src"
    if not (src / "torslat" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'torslat'} not found; run from a torslat checkout")
    sys.path.insert(0, str(src))
    import torslat

    if Path(torslat.__file__).resolve().parent != (src / "torslat").resolve():
        sys.exit(f"error: imported torslat from {torslat.__file__}, not {src}")


@dataclass
class Pass:
    wall_s: float  # reference seconds with a probe, else wall-clock seconds
    largest_s: float
    rest_s: float
    raw_wall_s: float  # wall-clock seconds
    attempted: int
    failed: int


def run_pass(workload, out=sys.stderr, probe=None):
    """Run every case once; failures are reported on out and counted."""
    gc.collect()
    results = []
    spans = {}
    for case in workload.cases:
        t0 = perf_counter()
        try:
            result = case.run()
        except Exception:  # a failed operation is counted, the pass goes on
            result = error = traceback.format_exc()
        else:
            error = None
        spans[case.name] = (t0, perf_counter())
        results.append((case, result, error))
    failed = 0
    for case, result, error in results:
        if error is not None or result != case.expected:
            failed += 1
            print(f"FAIL {workload.name}/{case.name}: got {result!r}, "
                  f"expected {case.expected!r}", file=out)
    raw = sum(t1 - t0 for t0, t1 in spans.values())
    if probe is None:
        times = {name: t1 - t0 for name, (t0, t1) in spans.items()}
    else:
        probe.settle()
        times = {name: probe.scaled(t0, t1) for name, (t0, t1) in spans.items()}
    wall = sum(times.values())
    largest = times[workload.largest]
    return Pass(wall, largest, wall - largest, raw, len(results), failed)


def run_timed(workload, seconds, probe):
    """Passes until the next one would end more than seconds from now."""
    until = perf_counter() + seconds
    t0 = perf_counter()
    passes = [run_pass(workload, probe=probe)]
    last = perf_counter() - t0
    while perf_counter() + last <= until:
        t0 = perf_counter()
        passes.append(run_pass(workload, probe=probe))
        last = perf_counter() - t0
    return passes


def setup_seconds(workload, seed, probe):
    """Median time from process start until the inputs are ready, over
    fresh processes that import torslat and build the workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                sys.exit("error: set-up process failed")
        probe.settle()
        samples.append(probe.scaled(t0, t1))
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, probe):
    setup_s = setup_seconds(workload.name, seed, probe)
    from benchtrace import wrapped_bindings

    passes = run_timed(workload, seconds, probe)
    if wrapped_bindings():
        sys.exit("error: a traced wrapper is installed in an untraced run")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(passes)
    metrics = {
        "wall_s": _metric(statistics.median(p.wall_s for p in passes), "s"),
        "largest_s": _metric(statistics.median(p.largest_s for p in passes), "s"),
        "rest_s": _metric(statistics.median(p.rest_s for p in passes), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    samples = {"wall_s": n, "largest_s": n, "rest_s": n, "setup_s": SETUP_SAMPLES,
               "peak_rss_mb": 1}
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']} "
              f"(median of {samples[name]})")
    print(f"{workload.name} raw wall = {statistics.median(p.raw_wall_s for p in passes):.6g} s "
          f"(median of {n}, wall clock)")
    return passes, metrics, []


def layer_metrics(record):
    """The per-layer metric names, in the order of the record's table."""
    return [name for row in record["layers"] for name in row["metrics"]]


def per_layer(workload, seconds, record, probe):
    from benchtrace import RESULT_COUNTS, REFUSALS, SPANS, Tracer, wrapped_bindings

    t0 = perf_counter()
    untraced = run_pass(workload, probe=probe)
    passes = [untraced]
    tracers = []
    deadline = t0 + seconds
    while True:
        tracer = Tracer()
        with tracer:
            traced_pass = run_pass(workload, probe=probe)
        if wrapped_bindings():
            sys.exit("error: a traced wrapper survived its pass")
        passes.append(traced_pass)
        tracers.append(tracer)
        if (len(tracers) >= MIN_TRACED_PASSES
                and perf_counter() + traced_pass.raw_wall_s > deadline):
            break
    traced = passes[1:]

    problems = []
    counts = {}
    for name in SPANS:
        counts[f"{name}.calls"] = [t.calls[name] for t in tracers]
    for name in (*RESULT_COUNTS, *REFUSALS):
        counts[name] = [t.counts[name] for t in tracers]
    for name, values in counts.items():
        if len(set(values)) != 1:
            problems.append(f"{name} differs between traced passes: {values}")

    values = {name: (vs[0], "count") for name, vs in counts.items()}
    for name in SPANS:
        values[f"{name}.self_s"] = (statistics.median(t.self_s[name] for t in tracers), "s")
    overhead = (statistics.median(p.wall_s for p in traced) - untraced.wall_s)
    values["trace.overhead_s"] = (overhead, "s")

    for row in record["layers"]:
        if workload.name in row["should_move"]:
            for name in row["metrics"]:
                if values[name][0] <= 0:
                    problems.append(f"{name} reads 0 on {workload.name}, where it should move")
    for prefix in record["workloads"][workload.name]["zero_calls"]:
        for name, (value, unit) in values.items():
            if name.startswith(prefix) and unit == "count" and value != 0:
                problems.append(f"{name} reads {value} on {workload.name}, which makes no such call")

    metrics = {name: _metric(*values[name]) for name in layer_metrics(record)}
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload.name}: 1 untraced and {len(traced)} traced passes")
    return passes, metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)

    _import_library()
    # the benchmark's modules import torslat, so they load after the path is set
    from benchwork import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = make_workload(args.workload, args.seed, ROOT)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    record = json.loads(RECORD.read_text(encoding="utf-8"))
    pin_to_one_core()
    with SpeedProbe() as probe:
        if args.trace:
            passes, metrics, problems = per_layer(workload, args.seconds, record, probe)
        else:
            passes, metrics, problems = end_to_end(workload, args.seed, args.seconds, probe)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not problems
    print(f"{workload.name} seed {args.seed}: {len(passes)} passes, "
          f"fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
