#!/usr/bin/env python3
"""Time the fig4 budget path, planning on every budget-q6 target set, the
distinct-snapshot pass, shadow file I/O, the plain random, spin-sector and
projected estimates, the dense oracle, acquisition, direct counts and the
figures, and record them in a JSON file.

Every case runs in a fresh spawned process of its own that imports
``shadowproj`` from ``--src`` (``fresh``), because a layer's time depends on
what ran before it in a process; the process that runs ``main`` times
nothing. Unless a case says otherwise, each layer is called k times after
one warm-up call and its median and minimum wall time
(``time.perf_counter``) are kept.

For the pairing Hamiltonian times the half-filling number projector at
q=6 (n0=3) and q=8 (n0=4), on the fig4 state:

* expand: ``expand_projected_observable`` on a freshly built projector;
* derandomize: ``derandomize_plan`` for the expanded terms, weighted by
  |coefficient|, epsilon 0.3, with 2000 rounds at q=6 (as the ``budget-q6``
  workload) and 4000 at q=8, the first round count that measures every one
  of the 2048 terms there;
* estimate: the prescribed ``estimate`` on a shadow measured on that plan;
* hits: ``plan_hit_counts`` of that plan for the expanded terms;
* rlf: ``group_qwc_rlf`` of the expanded sum;
* counts: ``direct_counts_estimate`` with rounds // groups shots per group
  and weighted allocation;
* plan_peak_mb: the ``tracemalloc`` peak of one ``derandomize_plan`` call.

Planning on every ``budget-q6`` target set (parity +-1 and n0 = 1..6 at q=6,
64 to 544 expanded terms): derandomize (2000 rounds) and rlf per set, and
their medians summed over the sets.

The distinct-snapshot pass (``shadows._distinct_snapshots``) at q=4 and q=8
with M=10^4. Shadow file I/O: ``save_shadow`` and ``load_shadow`` of an
M=10^4 shadow of the Gaussian state at q=4 and q=8, with the file size.

Spin sectors with H: one ``projected_estimate_sectors`` call of the pairing
Hamiltonian over every spin sector at q=6, n_p=10, M=10^4 on the fig7
state, on a fresh family, with its time and ``tracemalloc`` peak. Copied
spin tables: the same call at q=4, n_p=10, M=10^4, on a fresh family whose
sectors each hold their own copy of the gate table, which should cost what
a family sharing one table costs.

Plain random estimate: ``estimate`` of the pairing Hamiltonian on a
random shadow of the Gaussian state, M=10^4, at q=4, 6 and 8.

Projected estimates: ``projected_estimate_sectors`` of the pairing
Hamiltonian or the identity over every sector of a family. ``first_ms`` is
the median of k calls, each on a freshly built family (the pattern of the
``number-roundtrip`` workload, which builds its family on every op), and
``later_ms`` the median of k calls on new shadows with one family that has
seen one shadow before; a case times what it names. The cases: the pairing
H over the number family on the Gaussian state at q=4, 6 and 8 with
M=10^4, and at q=8 with M=10^5; over the parity family on the fig4 state at
q=4 with M=3000 (fig4 ``random``); over the n_p=10 spin family on the fig7
state at q=4 with M=10^4; the identity over the spin family on the fig7
state at q=4 and 6 (n_p=10, M=10^4) and q=8 (n_p=4, M=2000), and on the
Gaussian state at q=10 (n_p=4 and 10) and q=12 (n_p=4) with M=2000.

Dense oracle: ``exact_expectation`` of the pairing Hamiltonian times the
half-filling number projector, expanded, on the Gaussian state at q=6, 8
and 10; ``to_matrix`` of the pairing Hamiltonian at q=8 and 10; and
``to_matrix`` of every sector of a freshly built n_p=10 spin family (so no
Pauli expansion is cached) at q=4 and 6.

Acquisition: ``acquire_shadow`` of the Gaussian state at q = 4, 6 and 8
with M = 10^3, 10^4 and 10^5 and at q = 10 and 12 with M = 10^3 and 10^4,
and of the fig4 state at q=6 on the 2000-round n0=3 plan (the ``budget-q6``
shape), each with the sha256 of its outcome bytes, which must be the same
whichever source is timed. ``acquire_peak`` is the ``tracemalloc`` peak of
one q=12, M=10^5 acquisition; it is recorded only when the source timed is
this checkout's own, because older samplers take minutes there.

Counts: on the fig4 state and the pairing Hamiltonian times the
half-filling number projector at q = 6, 8 and 10 (n0 = q/2; q=6 is the
``budget-q6`` counts layer), ``singleton_groups``, ``group_qwc_rlf`` (q <= 8
only; it takes seconds at q=10) and ``measurement._group_distributions`` of
both groupings, checks included, with the group and distinct-basis counts
and the sha256 of the distributions expanded to one row per group, which
must be the same whichever source is timed.

Figures: each of fig2-fig7 at its default config, as ``run_figures.py``
runs it: the wall seconds of ``run_experiment`` plus ``write_results``,
each of k runs in a fresh process (median, minimum and maximum), with the
sha256 of the CSV, which must be the same in every run.

    python scripts/bench.py --out BENCH_24.json --label change
    python scripts/bench.py --out BENCH_24.json --label parent \
        --src /path/to/other/checkout/src

The numbers go under ``layers.<label>`` of ``--out``, with the machine, the
Python and the numpy version; other keys of an existing file are kept.
"""

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

EPSILON = 0.3
# name: (q, n0, plan rounds)
CASES = {"q6_n0_3": (6, 3, 2000), "q8_n0_4": (8, 4, 4000)}
# the budget-q6 target sets; n0 = 0 expands to no terms
PLANNING_SETS = {**{f"parity{e}": ({"type": "parity", "epsilon": e},)
                    for e in (1, -1)},
                 **{f"number{n}": ({"type": "number", "n0": n},)
                    for n in range(1, 7)}}
PLANNING_ROUNDS = 2000
DISTINCT_SHOTS = 10_000
IO_SHOTS = 10_000
PLAIN_SHOTS = 10_000
# q, spin n_p, shots of the spin-sector estimate of H
SPIN_HAMILTONIAN = (6, 10, 10_000)
COPIED_SPIN_HAMILTONIAN = (4, 10, 10_000)
# name: (oracle layer, q)
ORACLE_CASES = {f"{layer}_q{q}": (layer, q) for layer, sizes in (
    ("expectation", (6, 8, 10)), ("pairing_matrix", (8, 10)),
    ("spin_matrices", (4, 6))) for q in sizes}
ORACLE_SPIN_N_P = 10
FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
# name: (q, shots, plan n0 or None for random bases)
ACQUIRE_CASES = {
    **{f"q{q}_m{m}": (q, m, None) for q in (4, 6, 8)
       for m in (10 ** 3, 10 ** 4, 10 ** 5)},
    **{f"q{q}_m{m}": (q, m, None) for q in (10, 12)
       for m in (10 ** 3, 10 ** 4)},
    "plan_q6_m2000": (6, 2000, 3),
}
ACQUIRE_PEAK = (12, 10 ** 5)
COUNTS_SIZES = (6, 8, 10)
# largest q at which the counts section times RLF grouping
COUNTS_RLF_MAX_Q = 8
OWN_SRC = Path(__file__).resolve().parent.parent / "src"
# name: (observable, family spec, q, shots, state, timed calls)
PROJECTED_CASES = {
    "number_fresh_q4": ("pairing", {"type": "number"}, 4, 10_000,
                        "gaussian", ("first",)),
    **{f"number_q{q}": ("pairing", {"type": "number"}, q, 10_000,
                        "gaussian", ("later",)) for q in (4, 6, 8)},
    "number_q8_m100000": ("pairing", {"type": "number"}, 8, 100_000,
                          "gaussian", ("later",)),
    "parity_q4": ("pairing", {"type": "parity"}, 4, 3000, "fig4",
                  ("later",)),
    "spin_pairing_q4": ("pairing", {"type": "spin", "n_p": 10}, 4, 10_000,
                        "spin", ("first", "later")),
    "identity_q4": ("identity", {"type": "spin", "n_p": 10}, 4, 10_000,
                    "spin", ("first", "later")),
    "identity_q6": ("identity", {"type": "spin", "n_p": 10}, 6, 10_000,
                    "spin", ("first", "later")),
    "identity_q8": ("identity", {"type": "spin", "n_p": 4}, 8, 2000,
                    "spin", ("first", "later")),
    **{f"identity_q{q}_np{n_p}": ("identity", {"type": "spin", "n_p": n_p},
                                  q, 2000, "gaussian", ("first",))
       for q, n_p in ((10, 4), (10, 10), (12, 4))},
}


def machine() -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(),
            "arch": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def fresh(src: str, fn, *args):
    """``fn(*args)`` in a fresh spawned process that imports ``shadowproj``
    from ``src``."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_call_with_src, (src, fn, args))


def _call_with_src(src: str, fn, args: tuple):
    sys.path.insert(0, src)
    from shadowproj import projectors

    warnings.simplefilter("ignore", projectors.EmptySectorWarning)
    return fn(*args)


def timed(fn, runs: int) -> tuple[dict, object]:
    """Median and minimum ms of ``runs`` calls after one warm-up call."""
    out = fn()
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - start) * 1e3)
    return {"median_ms": round(statistics.median(times), 3),
            "min_ms": round(min(times), 3)}, out


def bench_case(q: int, n0: int, rounds: int, runs: int) -> dict:
    from shadowproj import experiments, measurement, pairing, projectors
    from shadowproj import shadows

    state = experiments.prepare_fig4_state(q)
    ham = pairing.build_pairing_hamiltonian(pairing.PairingSpec(q, 1.0, 1.0))
    result = {}
    result["expand"], expanded = timed(
        lambda: projectors.expand_projected_observable(
            ham, projectors.number_projector(q, n0)), runs)
    strings = [s for _, s in expanded.terms]
    weights = [abs(c) for c, _ in expanded.terms]
    result["derandomize"], plan = timed(
        lambda: measurement.derandomize_plan(strings, weights, rounds,
                                             epsilon=EPSILON), runs)
    tracemalloc.start()
    measurement.derandomize_plan(strings, weights, rounds, epsilon=EPSILON)
    result["plan_peak_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20,
                                   3)
    tracemalloc.stop()
    shadow = shadows.acquire_shadow(state, rounds, 1,
                                    bases=plan.bases_sequence)
    result["estimate"], _ = timed(
        lambda: shadows.estimate(shadow, expanded), runs)
    result["hits"], _ = timed(
        lambda: measurement.plan_hit_counts(plan, strings), runs)
    result["rlf"], groups = timed(
        lambda: measurement.group_qwc_rlf(expanded), runs)
    per_group = max(1, rounds // len(groups))
    result["counts"], _ = timed(
        lambda: measurement.direct_counts_estimate(
            state, groups, expanded, per_group, 1, weighted_allocation=True),
        runs)
    result["sizes"] = {"expanded_terms": len(expanded),
                       "rlf_groups": len(groups)}
    return result


def bench_planning(spec: dict, runs: int) -> dict:
    from shadowproj import measurement, pairing, projectors

    ham = pairing.build_pairing_hamiltonian(pairing.PairingSpec(6, 1.0, 1.0))
    expanded = projectors.expand_projected_observable(
        ham, projectors.projector_from_spec(6, spec))
    strings = [s for _, s in expanded.terms]
    weights = [abs(c) for c, _ in expanded.terms]
    result = {"terms": len(expanded)}
    result["derandomize"], _ = timed(
        lambda: measurement.derandomize_plan(
            strings, weights, PLANNING_ROUNDS, epsilon=EPSILON), runs)
    result["rlf"], _ = timed(
        lambda: measurement.group_qwc_rlf(expanded), runs)
    return result


def summed(sets: dict) -> dict:
    """``sets`` and, per layer, the sum of their medians."""
    return {**sets, "sum_median_ms": {
        layer: round(sum(case[layer]["median_ms"] for case in sets.values()),
                     3) for layer in ("derandomize", "rlf")}}


def median_ms(times: list) -> float:
    return round(statistics.median(times) * 1e3, 3)


def bench_distinct(q: int, runs: int) -> dict:
    from shadowproj import experiments, shadows

    shadow = shadows.acquire_shadow(experiments.prepare_fig4_state(q),
                                    DISTINCT_SHOTS, 1)
    result, (rows, _) = timed(lambda: shadows._distinct_snapshots(shadow),
                              runs)
    result["distinct_rows"] = len(rows)
    return result


def bench_shadow_io(q: int, runs: int) -> dict:
    from shadowproj import shadows, statevector

    shadow = shadows.acquire_shadow(statevector.prepare_gaussian(q),
                                    IO_SHOTS, 1)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "shadow.txt"
        result = {"save": timed(lambda: shadows.save_shadow(shadow, path),
                                runs)[0],
                  "load": timed(lambda: shadows.load_shadow(path), runs)[0],
                  "file_bytes": path.stat().st_size}
    return result


def bench_plain_random(q: int, runs: int) -> dict:
    from shadowproj import pairing, shadows, statevector

    shadow = shadows.acquire_shadow(statevector.prepare_gaussian(q),
                                    PLAIN_SHOTS, 1)
    ham = pairing.build_pairing_hamiltonian(pairing.PairingSpec(q, 1.0, 1.0))
    result, _ = timed(lambda: shadows.estimate(shadow, ham), runs)
    result["strings"] = len(ham)
    return result


def bench_spin_hamiltonian(q: int, n_points: int, shots: int,
                           copied: bool = False) -> dict:
    from shadowproj import experiments, pairing, projectors, shadows

    shadow = shadows.acquire_shadow(
        experiments.prepare_spin_rotated_gaussian(q), shots, 1)
    ham = pairing.build_pairing_hamiltonian(pairing.PairingSpec(q, 1.0, 1.0))
    family = projectors.all_sector_projectors(q, {"type": "spin",
                                                  "n_p": n_points})
    if copied:
        family = [projectors.ProjectorLCU(q, p.betas, p.gates.copy(), p.label)
                  for p in family]
    tracemalloc.start()
    start = time.perf_counter()
    projectors.projected_estimate_sectors(shadow, ham, family)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"ms": round(elapsed * 1e3, 3), "peak_mb": round(peak / 2**20, 3),
            "sectors": len(family), "lcu_terms": len(family[0].gates)}


def bench_projected(observable: str, spec: dict, q: int, shots: int,
                    state: str, timed_calls: tuple, runs: int) -> dict:
    """One ``PROJECTED_CASES`` case."""
    from shadowproj import experiments, pairing, projectors, shadows
    from shadowproj import statevector
    from shadowproj.paulis import WeightedPauliSum

    state = {"gaussian": statevector.prepare_gaussian,
             "fig4": experiments.prepare_fig4_state,
             "spin": experiments.prepare_spin_rotated_gaussian}[state](q)
    obs = (WeightedPauliSum.identity(q) if observable == "identity" else
           pairing.build_pairing_hamiltonian(pairing.PairingSpec(q, 1.0,
                                                                 1.0)))
    acquired = [shadows.acquire_shadow(state, shots, seed)
                for seed in range(2 * runs + 1)]

    def call(shadow, family) -> float:
        start = time.perf_counter()
        projectors.projected_estimate_sectors(shadow, obs, family)
        return time.perf_counter() - start

    result = {"sectors": len(projectors.all_sector_projectors(q, spec))}
    if "first" in timed_calls:
        call(acquired[0], projectors.all_sector_projectors(q, spec))
        result["first_ms"] = median_ms([
            call(shadow, projectors.all_sector_projectors(q, spec))
            for shadow in acquired[1:runs + 1]])
    if "later" in timed_calls:
        family = projectors.all_sector_projectors(q, spec)
        call(acquired[0], family)
        result["later_ms"] = median_ms([call(shadow, family)
                                        for shadow in acquired[runs + 1:]])
    return result


def bench_oracle(layer: str, q: int, runs: int) -> dict:
    """One dense-oracle layer of ``ORACLE_CASES``."""
    from shadowproj import pairing, projectors, statevector

    ham = pairing.build_pairing_hamiltonian(pairing.PairingSpec(q, 1.0, 1.0))
    if layer == "expectation":
        state = statevector.prepare_gaussian(q)
        expanded = projectors.expand_projected_observable(
            ham, projectors.number_projector(q, q // 2))
        result, _ = timed(
            lambda: statevector.exact_expectation(state, expanded), runs)
        result["terms"] = len(expanded)
    elif layer == "pairing_matrix":
        result, _ = timed(ham.to_matrix, runs)
        result["terms"] = len(ham)
    else:
        families = [projectors.spin_sector_projectors(q, ORACLE_SPIN_N_P)
                    for _ in range(runs + 1)]
        result, _ = timed(lambda: [p.to_matrix() for p in families.pop()],
                          runs)
        result["sectors"] = len(projectors.spin_sectors(q))
    return result


def bench_acquire(q: int, shots: int, n0: int | None, runs: int) -> dict:
    """One ``ACQUIRE_CASES`` case."""
    import hashlib

    from shadowproj import experiments, measurement, pairing, projectors
    from shadowproj import shadows, statevector

    if n0 is None:
        state, bases = statevector.prepare_gaussian(q), None
    else:
        state = experiments.prepare_fig4_state(q)
        expanded = projectors.expand_projected_observable(
            pairing.build_pairing_hamiltonian(pairing.PairingSpec(q, 1.0,
                                                                  1.0)),
            projectors.number_projector(q, n0))
        bases = measurement.derandomize_plan(
            [s for _, s in expanded.terms],
            [abs(c) for c, _ in expanded.terms], shots,
            epsilon=EPSILON).bases_sequence
    result, shadow = timed(
        lambda: shadows.acquire_shadow(state, shots, 1, bases=bases), runs)
    result["outcomes_sha256"] = hashlib.sha256(
        shadow.outcomes.tobytes()).hexdigest()
    return result


def bench_acquire_peak(q: int, shots: int) -> dict:
    """The ``tracemalloc`` peak of one acquisition."""
    from shadowproj import shadows, statevector

    state = statevector.prepare_gaussian(q)
    tracemalloc.start()
    shadows.acquire_shadow(state, shots, 1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"q": q, "shots": shots, "peak_mb": round(peak / 2**20, 3)}


def bench_counts(q: int, runs: int) -> dict:
    """One ``COUNTS_SIZES`` case."""
    import hashlib
    import inspect

    from shadowproj import experiments, measurement, pairing, projectors

    state = experiments.prepare_fig4_state(q)
    expanded = projectors.expand_projected_observable(
        pairing.build_pairing_hamiltonian(pairing.PairingSpec(q, 1.0, 1.0)),
        projectors.number_projector(q, q // 2))
    result = {"terms": len(expanded)}
    groupings = {"singleton": measurement.singleton_groups}
    if q <= COUNTS_RLF_MAX_Q:
        groupings["rlf"] = measurement.group_qwc_rlf
    # sources before the group checks take no observable and return one
    # row per group
    obs = (expanded,) if "obs" in inspect.signature(
        measurement._group_distributions).parameters else ()
    for name, grouping in groupings.items():
        result[name], groups = timed(lambda: grouping(expanded), runs)
        result[f"{name}_distributions"], probs = timed(
            lambda: measurement._group_distributions(state, groups, *obs),
            runs)
        if isinstance(probs, tuple):
            probs = probs[0][probs[1]]
        result[f"{name}_distributions"].update(
            groups=len(groups),
            distinct_bases=len({g.shared_basis for g in groups}),
            sha256=hashlib.sha256(probs.tobytes()).hexdigest())
    return result


def bench_figure_run(fig: str, work: str) -> tuple[float, str]:
    """One ``run_experiment`` + ``write_results`` of a figure's default
    config, and the sha256 of its CSV."""
    import hashlib

    from shadowproj import experiments

    out = Path(work) / f"{fig}.csv"
    start = time.perf_counter()
    experiments.write_results(
        experiments.run_experiment(experiments.default_config(fig)), out)
    seconds = time.perf_counter() - start
    return seconds, hashlib.sha256(out.read_bytes()).hexdigest()


def bench_figure(src: str, fig: str, runs: int) -> dict:
    """``runs`` runs of one figure, each in a fresh process."""
    with tempfile.TemporaryDirectory() as work:
        times, digests = zip(*(fresh(src, bench_figure_run, fig, work)
                               for _ in range(runs)))
    if len(set(digests)) != 1:
        raise RuntimeError(f"{fig}: CSV bytes differ between runs")
    return {"median_s": round(statistics.median(times), 4),
            "min_s": round(min(times), 4), "max_s": round(max(times), 4),
            "csv_sha256": digests[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True,
                        help="JSON file to record the timings in")
    parser.add_argument("--label", default="change")
    parser.add_argument("--runs", type=int, default=7,
                        help="timed calls per layer (median of k)")
    parser.add_argument("--src", default=str(OWN_SRC),
        help="source tree whose shadowproj is timed")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    def each(fn, cases: dict) -> dict:
        return {name: fresh(args.src, fn, *case, args.runs)
                for name, case in cases.items()}

    record = {"machine": machine(), "runs": args.runs,
              "cases": each(bench_case, CASES),
              "planning_q6": summed(each(bench_planning, PLANNING_SETS)),
              "distinct_snapshots": each(bench_distinct,
                                         {f"q{q}": (q,) for q in (4, 8)}),
              "shadow_io": each(bench_shadow_io,
                                {f"q{q}": (q,) for q in (4, 8)}),
              "plain_random": each(bench_plain_random,
                                   {f"q{q}": (q,) for q in (4, 6, 8)}),
              "spin_hamiltonian": fresh(args.src, bench_spin_hamiltonian,
                                        *SPIN_HAMILTONIAN),
              "copied_spin_hamiltonian": fresh(
                  args.src, bench_spin_hamiltonian, *COPIED_SPIN_HAMILTONIAN,
                  True),
              "projected": each(bench_projected, PROJECTED_CASES),
              "oracle": each(bench_oracle, ORACLE_CASES),
              "acquire": each(bench_acquire, ACQUIRE_CASES),
              "counts": each(bench_counts,
                             {f"q{q}": (q,) for q in COUNTS_SIZES}),
              "figures": {fig: bench_figure(args.src, fig, args.runs)
                          for fig in FIGURES}}
    if Path(args.src).resolve() == OWN_SRC:
        record["acquire_peak"] = fresh(args.src, bench_acquire_peak,
                                       *ACQUIRE_PEAK)
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("layers", {})[args.label] = record
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
