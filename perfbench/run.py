"""Benchmark of decoybb84: end-to-end metrics and traced per-layer metrics
of the workloads in ``workloads.py``, every op checked against a stored
reference.

Run from the repository root (no install needed; ``src/`` is put on the path):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, both modes
    python3 perfbench/run.py --smoke                          # tiny sizes, asserts every metric

One process generates the load as a closed loop: the next op starts only
after the previous one returned.  BLAS/OpenMP pools are pinned to one
thread.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes over a fixed op list
and reports the per-layer metrics.  The metric names and units are the ones
``BENCHMARK.json`` lists.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are the same numbers for a reader, plus the run facts.  Result files and
spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
TINY_TRACE_OPS = 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_facts(seed: int) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": find_spec("numba") is not None,
        "blas_threads": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Set-up time: a fresh interpreter imports decoybb84 and runs the smallest op.


def setup_probe(name: str) -> int:
    start = time.perf_counter()
    import decoybb84  # noqa: F401 - the import is what is timed
    from workloads import WORKLOADS
    wl = WORKLOADS[name]()
    op = wl.smallest()
    out = wl.call(wl.prepare(op))
    elapsed = time.perf_counter() - start
    reason = wl.mismatch(op, out)
    wl.close()
    if reason:
        print(f"setup op failed: {reason}", file=sys.stderr)
        return 1
    print(f"setup_s {elapsed!r}")
    return 0


def measure_setup(name: str, probes: int) -> list[float]:
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               "--workload", name],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("setup_s "):
            raise RuntimeError(f"set-up probe for {name} failed:\n{proc.stderr.strip()}")
        times.append(float(lines[-1].split()[1]))
    return times


# ----------------------------------------------------------------------


class Failures:
    """Failed ops of a run; the first few reasons are kept for the report."""

    def __init__(self):
        self.count = 0
        self.reasons: list[str] = []

    def add(self, reason: str) -> None:
        self.count += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def end_to_end(wl, seed: int, seconds: float, probes: int, failures: Failures):
    """Closed loop over the workload's inputs for ``seconds``.

    The input list is issued in cycles, each in a seed-dependent order, so
    a run repeats every input several times.  An op's latency is the
    fastest time its input took in the run: on a shared machine other
    processes slow everything by up to half for seconds at a time, and the
    best of several spread-out repeats removes that.  The percentiles and
    ``ops_per_s`` are taken over the ops of the completed cycles, so the mix
    they describe is the same in every run.  Set-up probes are spread over
    the run for the same reason; their time is not part of ``seconds``.
    Returns (metrics, attempted, notes).
    """
    import numpy as np
    from workloads import timed_op
    inputs = wl.inputs(seed)
    best: dict = {}
    setup: list[float] = []
    attempted = 0
    busy = 0.0                                   # loop time, set-up probes excluded
    cycles = 0                                   # completed cycles
    while busy < seconds or cycles == 0:
        order = np.random.default_rng([seed, cycles]).permutation(len(inputs))
        for j in order:
            if len(setup) < probes and busy >= len(setup) * seconds / probes:
                setup.extend(measure_setup(wl.name, 1))
            if busy >= seconds and cycles > 0:
                break
            op = inputs[j]
            start = time.perf_counter()
            elapsed, reason = timed_op(wl, op)
            busy += time.perf_counter() - start
            attempted += 1
            if reason:
                failures.add(reason)
            else:
                best[op.key] = min(elapsed, best.get(op.key, elapsed))
        else:
            cycles += 1
    setup.extend(measure_setup(wl.name, probes - len(setup)))
    latencies = [best[op.key] for op in inputs if op.key in best] * cycles
    if not latencies:
        raise RuntimeError(f"no op of {wl.name} completed: {failures.reasons}")
    p90 = percentile(latencies, 90)
    metrics = {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "failed_frac": failures.count / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {"ops_measured": len(latencies), "ops_run": attempted, "inputs": len(inputs),
             "distinct_inputs": len(best), "completed_cycles": cycles,
             "ops_beyond_p90": sum(x > p90 for x in latencies),
             "loop_s": busy, "setup_probes_s": setup}
    return metrics, attempted, notes


def traced(wl, seed: int, seconds: float, tiny: bool, failures: Failures):
    """Alternating untraced and traced passes over a fixed op list."""
    from tracer import Tracer, span_of
    from workloads import timed_op

    limit = TINY_TRACE_OPS if tiny else None
    n_ops = len(wl.trace_list(seed, limit))

    def one_pass() -> float:
        busy = 0.0
        for op in wl.trace_list(seed, limit):
            elapsed, reason = timed_op(wl, op)
            busy += elapsed
            if reason:
                failures.add(reason)
        return busy

    tracer = Tracer()
    untraced_s, traced_s, passes = [], [], []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        untraced_s.append(one_pass())
        first = tracer.mark()
        with tracer:
            traced_s.append(one_pass())
        passes.append(tracer.pass_metrics(first))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{wl.name}-seed{seed}.npz")

    counts = passes[0][1]
    counts_repeat = all(p[1] == counts for p in passes[1:])
    present = passes[0][2]
    times = {k: statistics.median(p[0][k] for p in passes) for k in passes[0][0]}
    values = dict(times, **counts)
    values["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    absent = {k for k in values if k != "trace.overhead_frac" and span_of(k) not in present}
    notes = {"passes": len(passes), "ops_per_pass": n_ops, "counts_repeat": counts_repeat,
             "untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
    return values, absent, len(passes) * 2 * n_ops, notes


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> int:
    from workloads import WORKLOADS, timed_op
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    facts = run_facts(seed)
    wl = WORKLOADS[name]()
    failures = Failures()
    try:
        _, reason = timed_op(wl, wl.smallest())     # warm-up: lazy set-up, caches
        if reason:
            failures.add("warm-up " + reason)
        if trace:
            values, absent, attempted, notes = traced(wl, seed, seconds, tiny, failures)
        else:
            values, attempted, notes = end_to_end(wl, seed, seconds, 1 if tiny else SETUP_PROBES,
                                                  failures)
            absent = set()
    finally:
        wl.close()
    correct = failures.count == 0 and notes.get("counts_repeat", True)

    print(f"# {name} seed={seed} seconds={seconds} trace={trace}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    for key, val in notes.items():
        if not isinstance(val, list):
            print(f"# {key} = {val}")
    if not trace:
        print(f"# failed_frac = {values['failed_frac']!r} ratio "
              f"({failures.count} of {attempted} ops)")
    for reason in failures.reasons:
        print(f"# FAILED {reason}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise KeyError(f"BENCHMARK.json names {m['name']!r}, which this run does not measure")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        shown = "absent (span never entered)" if m["name"] in absent else \
            f"{values[m['name']]!r} {m['unit']}"
        print(f"{m['name']} = {shown}")

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"facts": facts, "workload": name, "trace": trace, "seconds": seconds,
                   "correct": correct, "attempted": attempted, "failed": failures.count,
                   "failures": failures.reasons, "metrics": values,
                   "absent": sorted(absent), "notes": notes}, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failures.count,
                      "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------


def run_all(seed: int, seconds: float, tiny: bool) -> dict:
    """Every workload of BENCHMARK.json in both modes, one process each."""
    spec = load_spec()
    results = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--tiny"] if tiny else []), env=child_env(), cwd=ROOT,
                                  capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{w['name']} trace={trace} exited {proc.returncode}:\n"
                                   f"{proc.stderr.strip()}")
            results[(w["name"], trace)] = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
    return results


def check_complete(results: dict) -> list[str]:
    """Problems with the emitted metrics: every named metric, its unit, a number."""
    spec = load_spec()
    problems = []
    for (name, trace), res in results.items():
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = res["metrics"]
        if set(got) != set(want):
            problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                            "missing or extra")
        for key, unit in want.items():
            val = got.get(key, {})
            if val.get("unit") != unit:
                problems.append(f"{name} trace={trace}: {key} unit {val.get('unit')!r} != {unit!r}")
            if not isinstance(val.get("value"), (int, float)) or not math.isfinite(val["value"]):
                problems.append(f"{name} trace={trace}: {key} value {val.get('value')!r}")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            problems.append(f"{name} trace={trace}: correct={res['correct']} "
                            f"attempted={res['attempted']} failed={res['failed']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny runs of every workload; fails unless every metric is emitted")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "decoybb84" / "__init__.py").is_file():
        print(f"error: {SRC / 'decoybb84'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)             # before numpy is imported
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        return setup_probe(args.workload)
    seconds = args.seconds or load_spec()["run_seconds"]
    if args.all or args.smoke:
        seconds = 0.5 if args.smoke else seconds
        results = run_all(args.seed, seconds, tiny=args.smoke)
        problems = check_complete(results)
        print("\nworkload          trace  metric                                   value")
        for (name, trace), res in results.items():
            for key, val in res["metrics"].items():
                print(f"{name:17s} {trace:5d}  {key:40s} {val['value']:.6g} {val['unit']}")
            if not trace:
                print(f"{name:17s} {trace:5d}  {'failed_frac':40s} "
                      f"{res['failed'] / res['attempted']:.6g} ratio")
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / "results.json", "w") as fh:
            json.dump({"facts": run_facts(args.seed), "seconds": seconds,
                       "results": {f"{n}/trace{t}": r for (n, t), r in results.items()}},
                      fh, indent=1, sort_keys=True)
        for p in problems:
            print(f"PROBLEM {p}")
        print("all metrics emitted with their units" if not problems else
              f"{len(problems)} problem(s)")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    return run_workload(args.workload, args.seed, seconds, args.trace, args.tiny)


if __name__ == "__main__":
    sys.exit(main())
