"""Benchmark of the shadowproj pipeline, one workload per process.

    python3 perfbench/run.py --workload spin-sectors --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics derived from
spans, which are also written to ``perfbench/out/``. ``--workload all``
runs every workload in turn, each in a fresh process. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("spin-sectors", "number-roundtrip", "budget-q6")
SETUP_PASSES = 3

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "shots_per_s": "1/s",
              "peak_rss_mb": "MB"}
# per-layer metric -> (span name, count key or None for a time, unit)
PER_LAYER = {
    "shadows.acquire_ms": ("shadows.acquire", None, "ms"),
    "shadows.snapshots": ("shadows.acquire", "snapshots", "count"),
    "shadows.distinct_bases": ("shadows.acquire", "distinct_bases", "count"),
    "shadows.distinct_snapshots":
        ("shadows.acquire", "distinct_snapshots", "count"),
    "shadows.save_ms": ("shadows.save", None, "ms"),
    "shadows.load_ms": ("shadows.load", None, "ms"),
    "shadows.file_bytes": ("shadows.save", "file_bytes", "B"),
    "shadows.estimate_ms": ("shadows.estimate", None, "ms"),
    "projectors.build_ms": ("projectors.build", None, "ms"),
    "projectors.to_matrix_ms": ("projectors.to_matrix", None, "ms"),
    "projectors.sectors_ms": ("projectors.sectors", None, "ms"),
    "projectors.lcu_terms": ("projectors.sectors", "lcu_terms", "count"),
    "projectors.kernel_products":
        ("projectors.sectors", "kernel_products", "count"),
    "projectors.expand_ms": ("projectors.expand", None, "ms"),
    "projectors.expanded_terms":
        ("projectors.expand", "expanded_terms", "count"),
    "measurement.derandomize_ms": ("measurement.derandomize", None, "ms"),
    "measurement.plan_rounds":
        ("measurement.derandomize", "plan_rounds", "count"),
    "measurement.plan_targets":
        ("measurement.derandomize", "plan_targets", "count"),
    "measurement.rlf_ms": ("measurement.rlf", None, "ms"),
    "measurement.rlf_groups": ("measurement.rlf", "rlf_groups", "count"),
    "measurement.rlf_pairs": ("measurement.rlf", "rlf_pairs", "count"),
    "measurement.counts_ms": ("measurement.counts", None, "ms"),
    "measurement.counts_shots":
        ("measurement.counts", "counts_shots", "count"),
    "statevector.oracle_ms": ("statevector.oracle", None, "ms"),
}


def _timed_op(work, tracer, item, traced: bool, unit: str):
    """Run and check one op; (seconds, shots), or None if it failed."""
    tracer.enabled, tracer.unit = traced, unit
    try:
        t0 = time.perf_counter()
        with tracer.span("op"):
            out = work.run_op(item)
        elapsed = time.perf_counter() - t0
        n_shots, ok = work.finish_op(item, out, keep=not traced)
    except Exception:
        traceback.print_exc()
        return None
    finally:
        tracer.enabled = False
    return (elapsed, n_shots) if ok else None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    import shadowproj  # noqa: F401  (set-up time starts with this import)
    import_s = time.perf_counter() - started
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    work = workloads.WORKLOADS[name](seed, tracer, OUT)
    tracer.enabled = trace
    passes = []
    for k in range(SETUP_PASSES):
        tracer.unit = f"setup-{k}"
        t0 = time.perf_counter()
        with tracer.span("setup"):
            work.setup()
        passes.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(passes)
    tracer.enabled = False
    correct = bool(work.references())

    times = {False: [], True: []}
    shots = {False: 0, True: 0}
    units = {False: [], True: []}
    attempted = failed = 0
    first_round_units: list[str] = []
    r = 0
    start = time.perf_counter()
    try:
        # whole rounds only, as many as end nearest to ``seconds``
        while (r < work.min_rounds
               or (time.perf_counter() - start) * (1 + 0.5 / r) < seconds):
            for k, item in enumerate(work.round(r)):
                # the traced run does each op twice in a row, with spans and
                # without, alternating which goes first, for the overhead
                modes = (False, True) if k % 2 == 0 else (True, False)
                for traced in modes if trace else (False,):
                    unit = f"op-{attempted}"
                    attempted += 1
                    done = _timed_op(work, tracer, item, traced, unit)
                    if done is None:
                        failed += 1
                        continue
                    times[traced].append(done[0])
                    shots[traced] += done[1]
                    units[traced].append(unit)
                    if traced and r == 0:
                        first_round_units.append(unit)
            r += 1
        correct = correct and work.check_run()
    finally:
        work.close()
    if not times[False] or (trace and not times[True]):
        raise SystemExit("every op failed")

    op_p50 = statistics.median(times[False]) * 1e3
    if trace:
        setup_units = [f"setup-{k}" for k in range(SETUP_PASSES)]
        metrics = {
            metric: (tracer.median_time(span, units[True], setup_units)
                     if key is None
                     else tracer.median_count(key, first_round_units))
            for metric, (span, key, _) in PER_LAYER.items()}
        metrics["trace.overhead_ms"] = (
            statistics.median(times[True]) * 1e3 - op_p50)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                     {"workload": name, "seed": seed, "seconds": seconds,
                      "metrics": metrics})
        units_of = {m: unit for m, (_, _, unit) in PER_LAYER.items()}
        units_of["trace.overhead_ms"] = "ms"
    else:
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": op_p50,
            "shots_per_s": shots[False] / sum(times[False]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units_of = END_TO_END
    print(f"workload {name} seed {seed} trace {int(trace)}")
    for metric, value in metrics.items():
        note = f" (n={len(times[False])} ops)" if metric == "op_p50_ms" else ""
        print(f"{metric} {value:.6g} {units_of[metric]}{note}")
    print(f"ops attempted {attempted} failed {failed}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": units_of[m]}
                        for m, v in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own fresh process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "shadowproj" / "__init__.py").is_file():
        print(f"no shadowproj package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
