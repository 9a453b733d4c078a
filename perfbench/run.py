"""Benchmark of opframe: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_suite, scenario_stream, dual_roundtrip (see workloads.py
and NOTES.md).  Each is a closed loop: one client in one process, each
operation starting when the previous one ends.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json:
setup_s (median of several fresh processes, from process start until
opframe is imported and the inputs are generated), ops_per_s,
latency_ms.p50 and peak_rss_mb; the printed table adds latency_ms.p90
(where a run has at least 100 operations) and error_rate.

--trace 1 wraps opframe's public functions and the dense kernels, runs the
workload traced, and reports per-layer metrics, the tracing overhead, a
one-BLAS-thread baseline and a grid-size sweep.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it, starting with
"perfbench-record ", holds the full record that compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RECORD_PREFIX = "perfbench-record "

WORKLOAD_NAMES = ("paper_suite", "scenario_stream", "dual_roundtrip")
#: fresh processes timed for setup_s
SETUP_PROBES = 7
#: p90 is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100

sys.path.insert(0, str(HERE))
import envinfo  # noqa: E402  (imports nothing that loads numpy)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal modes, used by the benchmark's own child processes; the
    # window-only mode is the one-BLAS-thread baseline of a traced run
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--window-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def blas_threads(args):
    """BLAS threads of this process: nproc, the default a user gets, except
    in the one-thread baseline."""
    return 1 if args.window_only else envinfo.nproc()


def prepare_process(threads):
    """Environment of this process and its children; before numpy loads."""
    os.environ.pop("OPFRAME_TOL_OVERRIDE", None)
    envinfo.set_blas_threads(os.environ, threads)


def import_program():
    """Import opframe from this checkout's src/, never from elsewhere."""
    if not (SRC / "opframe" / "__init__.py").is_file():
        raise BenchmarkError(f"no opframe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import opframe

    if Path(opframe.__file__).resolve().parent != (SRC / "opframe").resolve():
        raise BenchmarkError(f"imported opframe from {opframe.__file__}, not from {SRC}")
    import workloads

    return workloads


def child_command(args, *extra, seconds=None):
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds or args.seconds), *extra]


def measure_setup(args):
    """Median over fresh processes of the time from spawn to inputs ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(child_command(args, "--setup-probe"), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise BenchmarkError(f"set-up probe failed with exit code {code}")
        samples.append(t1 - t0)
    return samples


class Loop:
    """Closed loop over a workload's operations; counts and checks each."""

    def __init__(self, wl, workloads):
        self.wl = wl
        self.workloads = workloads
        self.next = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def one(self, tracer=None):
        op = self.wl.ops[self.next % len(self.wl.ops)]
        self.next += 1
        self.attempted += 1
        with self.workloads.maybe_span(tracer, "bench.op"):
            t0 = time.perf_counter()
            try:
                out = self.wl.execute(op, tracer)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                elapsed = time.perf_counter() - t0
                self._fail(f"raised {exc!r}")
                return elapsed
            elapsed = time.perf_counter() - t0
            with self.workloads.maybe_span(tracer, self.workloads.CHECK):
                try:
                    self.wl.check(op, out)
                except self.workloads.OpFailed as exc:
                    self._fail(str(exc))
        return elapsed

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def warm_up(self):
        """One block before timing, so lazy imports, BLAS thread start-up and
        first-touch allocation are not timed, and the window starts on a
        block boundary."""
        for _ in range(self.wl.block):
            self.one()

    def window(self, seconds=None, count=None, tracer=None):
        """Run `count` operations, or whole blocks until `seconds` have passed.

        Ending on a block boundary gives every run the same mix of
        operations, so the latency quantiles of two runs compare alike.
        """
        latencies = []
        t_start = time.perf_counter()
        marks = [t_start]
        while True:
            latencies.append(self.one(tracer))
            if len(latencies) % self.wl.block == 0:
                marks.append(time.perf_counter())
                if seconds is not None and marks[-1] - t_start >= seconds:
                    break
            if count is not None and len(latencies) >= count:
                break
        t_end = time.perf_counter()
        block_rates = [self.wl.block / (b - a) for a, b in zip(marks, marks[1:])]
        return {"latencies": latencies, "t0": t_start, "t1": t_end,
                "ops_per_s": len(latencies) / (t_end - t_start),
                "block_rates": block_rates}


def _metric(value, unit, n=None):
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def latency_metrics(latencies):
    ms = [1e3 * t for t in latencies]
    out = {"latency_ms.p50": _metric(statistics.median(ms), "ms", len(ms))}
    if len(ms) >= P90_MIN_SAMPLES:
        out["latency_ms.p90"] = _metric(statistics.quantiles(ms, n=10)[8], "ms", len(ms))
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def block_rate(stats):
    """Median over the window's blocks of operations per second.

    The median keeps a burst of CPU steal on a shared machine from moving
    the whole figure; every block holds the workload's full mix.
    """
    return statistics.median(stats["block_rates"] or [stats["ops_per_s"]])


def run_end_to_end(args, workloads, wl, loop):
    setup = measure_setup(args)
    loop.warm_up()
    stats = loop.window(args.seconds)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "ops_per_s": _metric(block_rate(stats), "1/s", len(stats["latencies"])),
        "ops_per_s.window": _metric(stats["ops_per_s"], "1/s", len(stats["latencies"])),
        **latency_metrics(stats["latencies"]),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "error_rate": _metric(loop.failed / loop.attempted, "ratio", loop.attempted),
    }
    extras = {}
    if hasattr(wl, "scenario_ms"):
        extras["scenario_ms_median"] = {
            k: statistics.median(v) for k, v in wl.scenario_ms.items() if v}
    return metrics, extras


def run_window_only(args, workloads, wl, loop):
    loop.warm_up()
    stats = loop.window(args.seconds)
    return {"ops_per_s": _metric(block_rate(stats), "1/s", len(stats["latencies"]))}, {}


def baseline_one_thread(args, seconds):
    """ops_per_s of the same workload, untraced, at one BLAS thread."""
    cmd = child_command(args, "--window-only", seconds=seconds)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=seconds + 90)
    if proc.returncode != 0:
        raise BenchmarkError(f"one-thread baseline failed: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


def run_traced(args, workloads, wl, loop):
    import sweep
    import tracing

    loop.warm_up()
    start = loop.next
    tracer = tracing.Tracer()
    tracer.install(extra_sites=[workloads])
    try:
        stats = loop.window(args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    # the same operations again, untraced, give the tracing overhead
    loop.next = start
    untraced = loop.window(count=len(stats["latencies"]))
    metrics = tracing.summarize(tracer, (stats["t0"], stats["t1"]))
    metrics["trace.ops_per_s"] = _metric(stats["ops_per_s"], "1/s", len(stats["latencies"]))
    metrics["trace.untraced_ops_per_s"] = _metric(
        untraced["ops_per_s"], "1/s", len(untraced["latencies"]))
    metrics["trace.overhead"] = _metric(untraced["ops_per_s"] / stats["ops_per_s"], "ratio")
    busy = metrics["serialize.busy_s"]["value"]
    op_time = sum(stats["latencies"])
    metrics["serialize.share"] = _metric(busy / op_time if op_time else 0.0, "ratio")

    spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    tracing.write_spans(tracer, spans_path)

    child = baseline_one_thread(args, max(args.seconds / 2.0, 1.0))
    if not child["correct"]:
        loop.failed += child["failed"]
        loop.errors.append("one-thread baseline reported incorrect results")
    metrics["baseline_1thread.ops_per_s"] = _metric(
        child["metrics"]["ops_per_s"]["value"], "1/s", child["metrics"]["ops_per_s"].get("n"))

    sweep_metrics, sweep_ok = sweep.run()
    metrics.update(sweep_metrics)
    if not sweep_ok:
        loop.failed += 1
        loop.errors.append("grid-size sweep gave a wrong bound")
    return metrics, {"spans_file": str(spans_path.relative_to(ROOT)),
                     "spans": len(tracer.names)}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_table(record):
    print(f"# opframe benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    env = record["env"]
    print(f"# env: nproc={env['nproc']} blas={env['blas']['vendor']} "
          f"{env['blas']['version']} threads={env['blas']['threads_reported']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"caches={env['caches']} commit={env['git_commit']} src={env['source_digest']}")
    print(f"# inputs: {json.dumps(record['inputs'])}")
    for name, m in record["metrics"].items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}{n}")
    for message in record["errors"]:
        print(f"# failure: {message}")


def main(argv=None):
    args = parse_args(argv)
    prepare_process(blas_threads(args))
    try:
        workloads = import_program()
        WORK.mkdir(exist_ok=True)
        workdir = WORK / f"tmp-{os.getpid()}"
        workdir.mkdir()
        try:
            wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
            if args.setup_probe:
                print("ready", flush=True)
                return 0
            loop = Loop(wl, workloads)
            if args.window_only:
                mode = run_window_only
            else:
                mode = run_traced if args.trace else run_end_to_end
            metrics, extras = mode(args, workloads, wl, loop)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    correct = loop.failed == 0
    if args.window_only:
        names = list(metrics)
    else:
        names = declared_metrics(args.trace)
        missing = [n for n in names if n not in metrics]
        if missing:
            print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
            return 3
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": blas_threads(args),
            "env": envinfo.environment(ROOT, SRC / "opframe"),
            "inputs": wl.describe(), "correct": correct,
            "attempted": loop.attempted, "failed": loop.failed,
            "errors": loop.errors, "metrics": metrics, "extras": extras,
        }
        print_table(record)
        print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
