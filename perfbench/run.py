"""Benchmark for opacheck: seeded workloads, end-to-end metrics, a
correctness gate, and a layer-traced mode.

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 25          # every workload

Run from the repository root.  Each workload runs in one process as a
closed loop with a single client: an op starts when the previous one has
returned.  The program is imported from ``src/`` of the checkout, so
nothing needs installing.  The last line of output is one JSON object;
README.md in this directory describes the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from array import array
from collections import Counter
from dataclasses import dataclass, field

from tracing import LAYERS, Tracer, metric_unit
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUPS = 5  # set-ups per run; setup_s is their median
MIN_OPS = 100  # so that at least ten samples lie beyond p90

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import opacheck afresh from ``src/``, so each set-up pays for it."""
    for name in [m for m in sys.modules if m == "opacheck" or m.startswith("opacheck.")]:
        del sys.modules[name]
    modules = {f"opacheck.{layer}": importlib.import_module(f"opacheck.{layer}") for layer in LAYERS}
    return types.SimpleNamespace(
        modules=modules, **{layer: modules[f"opacheck.{layer}"] for layer in LAYERS}
    )


def set_up(workload_cls, seed, workdir):
    """Import, generate inputs, write files and warm up; returns the
    ready workload, its pool size and the seconds it took."""
    start = time.perf_counter()
    workload = workload_cls(import_program(), seed, workdir)
    pool_size = workload.setup()
    for item in workload.warm_items():
        workload.keep(workload.op(item))
    return workload, pool_size, time.perf_counter() - start


@dataclass
class Loop:
    """What a timed loop leaves for the metrics and the gate.  Memory
    stays flat in the number of ops: outputs are kept once per pool
    item, and a repeat is only compared with the first."""

    latencies: array = field(default_factory=lambda: array("d"))
    elapsed: float = 0.0
    first: dict = field(default_factory=dict)  # pool item -> kept output
    visits: Counter = field(default_factory=Counter)  # pool item -> ops
    changed: Counter = field(default_factory=Counter)  # pool item -> repeats that differed
    raised: int = 0
    errors: list = field(default_factory=list)


def timed_loop(workload, pool_size, seconds, limit=None, tracer=None) -> Loop:
    """Closed loop over the pool until ``seconds`` have passed and at
    least MIN_OPS ops ran, or for exactly ``limit`` ops."""
    loop = Loop()
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        index = k % pool_size
        arg = workload.fresh(index)
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        try:
            out = workload.op(arg)
        except Exception as exc:  # a failed op, never a failed run
            t1 = time.perf_counter()
            loop.raised += 1
            if len(loop.errors) < 10:
                loop.errors.append(f"op {k}: {type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            kept = workload.keep(out)
            if loop.first.setdefault(index, kept) != kept:
                loop.changed[index] += 1
            loop.visits[index] += 1
        loop.latencies.append(t1 - t0)
        k += 1
        if (k >= limit) if limit is not None else (t1 >= deadline and k >= MIN_OPS):
            break
    loop.elapsed = time.perf_counter() - start
    return loop


def latency_metrics(latencies):
    """p50 and p90 in ms, each with its sample count and the number of
    samples above it."""
    n = len(latencies)
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "latency_p50_ms": (p50 * 1e3, n, sum(x > p50 for x in latencies)),
        "latency_p90_ms": (p90 * 1e3, n, sum(x > p90 for x in latencies)),
    }


def check_sizes(workload_name, seed, sizes):
    """Compare this run's exact structure sizes with every earlier run
    of the same workload, seed and generator code in this checkout, and
    record the sizes of items not seen before.  Returns the pool items
    whose sizes disagree."""
    with open(os.path.join(HERE, "workloads.py"), "rb") as handle:
        generator = hashlib.sha256(handle.read()).hexdigest()[:12]
    path = os.path.join(RESULTS, f"sizes-{workload_name}-seed{seed}-{generator}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            earlier = {int(k): v for k, v in json.load(handle).items()}
    except FileNotFoundError:
        earlier = {}
    mismatched = {i for i, s in sizes.items() if earlier.setdefault(i, s) != s}
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({str(k): earlier[k] for k in sorted(earlier)}, handle, sort_keys=True)
    os.replace(tmp, path)
    return mismatched


def size_totals(sizes):
    """Exact per-key totals and maxima over the distinct pool items run."""
    totals, maxima = Counter(), {}
    for entry in sizes.values():
        for key, value in entry.items():
            totals[key] += value
            maxima[key] = max(maxima.get(key, 0), value)
    return {"items": len(sizes), "total": dict(totals), "max": maxima}


def environment(seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
    }


def _commit():
    """Commit of the checkout read from .git, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name, seed, seconds, traced):
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=RESULTS)
    try:
        setup_times = []
        for _ in range(SETUPS):
            workload = None  # let the previous set-up go before the next one
            workload, pool_size, took = set_up(WORKLOADS[name], seed, workdir)
            setup_times.append(took)
        # The pool is the harness's data, not the program's: keep the
        # collector from rescanning it during every op.
        gc.collect()
        gc.freeze()

        if traced:
            # The traced loop repeats the untraced loop's ops exactly, so
            # the two rates compare like for like; each gets half the time.
            plain = timed_loop(workload, pool_size, seconds / 2)
            tracer = Tracer(workload.prog.modules)
            with tracer:
                loop = timed_loop(workload, pool_size, 0, limit=len(plain.latencies), tracer=tracer)
        else:
            loop = timed_loop(workload, pool_size, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failing, sizes = workload.gate(loop.first, loop.visits)
        mismatched = check_sizes(name, seed, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(loop.latencies)
    bad = failing | mismatched
    failed = loop.raised + sum(n if i in bad else loop.changed[i] for i, n in loop.visits.items())
    latency = latency_metrics(loop.latencies)
    metrics = {
        "ops_per_s": attempted / loop.elapsed,
        **{k: v[0] for k, v in latency.items()},
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "ops_per_s": f"{attempted} ops in {loop.elapsed:.3f} s",
        **{k: f"n={n}, {above} above" for k, (_, n, above) in latency.items()},
        "setup_s": f"median of {SETUPS} set-ups: " + ", ".join(f"{t:.3f}" for t in setup_times),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    result = {
        "workload": name,
        "traced": traced,
        "environment": environment(seed),
        "pool_items": pool_size,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "errors": loop.errors,
        "failing_items": sorted(failing)[:20],
        "size_mismatches": sorted(mismatched)[:20],
        "sizes": size_totals(sizes),
        "end_to_end": {k: {**reported[k], "samples": samples[k]} for k in metrics},
        "setup_times_s": setup_times,
    }

    print(f"workload {name}  seed {seed}  closed loop, 1 client, {'traced' if traced else 'untraced'}")
    for key, value in metrics.items():
        print(f"  {key:<36} {value:>14.6g} {END_TO_END_UNITS[key]:<5} ({samples[key]})")
    print(f"  {'failed_ratio':<36} {failed / attempted:>14.6g} ratio ({failed} of {attempted} ops)")
    if traced:
        layer = tracer.metrics(len(plain.latencies) / plain.elapsed, metrics["ops_per_s"])
        result["per_layer"] = reported = {k: {"value": v, "unit": metric_unit(k)} for k, v in layer.items()}
        tracer.write_spans(os.path.join(RESULTS, f"spans-{name}.jsonl"))
        for key, value in layer.items():
            print(f"  {key:<36} {value:>14.6g} {metric_unit(key)}")
    for line in loop.errors:
        print(f"  raised: {line}")
    if failing:
        print(f"  outputs failed the gate on pool items {sorted(failing)[:10]}")
    if mismatched:
        print(f"  structure sizes differ from an earlier run of this seed on pool items {sorted(mismatched)[:10]}")

    tag = "-trace" if traced else ""
    with open(os.path.join(RESULTS, f"{name}-seed{seed}{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process, one after another, so that
    peak RSS and imports belong to that workload alone."""
    summary, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary[name] = {"correct": False, "exit_code": proc.returncode}
        if proc.returncode or not summary[name].get("correct"):
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS), help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opacheck", "__init__.py")):
        print(f"error: no opacheck sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
