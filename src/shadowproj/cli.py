"""Command-line interface.

Subcommands cover the full pipeline: preparing states and model
Hamiltonians, acquiring shadows (random or from a measurement plan),
estimating plain and symmetry-projected expectation values, derandomizing
plans, running the direct-counts baseline, reconstructing (projected)
densities and driving the experiment harness. Results print as JSON on
stdout; config errors exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import experiments, measurement, pairing, projectors, shadows
from . import statevector as sv
from .paulis import WeightedPauliSum


def _read_observable(path: str) -> WeightedPauliSum:
    return WeightedPauliSum.from_json(Path(path).read_text())


def _read_state(path: str) -> sv.Statevector:
    return sv.Statevector.from_json(Path(path).read_text())


def _projector_spec(text: str) -> dict:
    """Inline JSON or a path to a JSON file; it must hold an object."""
    candidate = Path(text)
    spec = json.loads(candidate.read_text() if candidate.exists() else text)
    if not isinstance(spec, dict):
        raise ValueError(f"projector spec must be a JSON object, got {text}")
    return spec


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_state(args) -> int:
    if not 1 <= args.q <= sv.MAX_QUBITS:
        raise ValueError(f"--q must lie in 1..{sv.MAX_QUBITS}, got {args.q}")
    if args.thetas is not None and len(args.thetas) != args.q:
        raise ValueError(f"--thetas needs {args.q} angles, one per qubit, "
                         f"got {len(args.thetas)}")
    if args.kind == "gaussian":
        state = sv.prepare_gaussian(args.q, args.mu, args.sigma,
                                    squared=args.squared)
    elif args.kind == "plus":
        state = experiments.prepare_fig2_state(args.q)
    elif args.kind == "parity-mixture":
        state = sv.prepare_parity_mixture(args.q, args.p_even, args.seed)
    elif args.kind == "product":
        thetas = ([math.pi * (i + 1) / (args.q + 1) for i in range(args.q)]
                  if args.thetas is None else args.thetas)
        state = sv.prepare_product_state(thetas)
    elif args.kind == "spin-gaussian":
        state = experiments.prepare_spin_rotated_gaussian(
            args.q, squared=args.squared)
    else:
        raise ValueError(args.kind)
    Path(args.out).write_text(state.to_json())
    payload = {"q": state.num_qubits, "out": args.out}
    if args.kind == "parity-mixture":
        payload["seed"] = args.seed
    _emit(payload)
    return 0


def _cmd_model_pairing(args) -> int:
    spec = pairing.PairingSpec(args.q, args.geps, args.g)
    ham = pairing.build_pairing_hamiltonian(spec)
    Path(args.out).write_text(ham.to_json())
    _emit({"q": args.q, "terms": len(ham), "out": args.out})
    return 0


def _cmd_acquire(args) -> int:
    state = _read_state(args.state)
    bases = None
    if args.plan:
        plan = measurement.load_plan(args.plan)
        if len(plan) != args.shots:
            raise ValueError(f"plan has {len(plan)} rounds, expected "
                             f"{args.shots}")
        bases = plan.bases_sequence
    shadow = shadows.acquire_shadow(state, args.shots, args.seed, bases=bases)
    shadows.save_shadow(shadow, args.out)
    _emit({"q": shadow.num_qubits, "shots": len(shadow), "seed": args.seed,
           "prescribed": shadow.prescribed, "out": args.out})
    return 0


def _cmd_estimate(args) -> int:
    shadow = shadows.load_shadow(args.shadow, prescribed=args.prescribed)
    obs = _read_observable(args.observable)
    value = shadows.estimate(shadow, obs, median_groups=args.median_groups)
    _emit({"estimate": value, "shots": len(shadow)})
    return 0


def _cmd_project(args) -> int:
    shadow = shadows.load_shadow(args.shadow, prescribed=args.prescribed)
    obs = _read_observable(args.observable)
    spec = _projector_spec(args.projector)
    if args.all_sectors:
        projs = projectors.all_sector_projectors(shadow.num_qubits, spec)
    else:
        projs = [projectors.projector_from_spec(shadow.num_qubits, spec)]
    results = projectors.projected_estimate_sectors(shadow, obs, projs)
    payload = []
    for proj, (num, norm) in zip(projs, results):
        payload.append({"sector": proj.label, "numerator": num, "norm": norm,
                        "ratio": num / norm if norm > 0 else None})
    _emit(payload if args.all_sectors else payload[0])
    return 0


def _cmd_derandomize(args) -> int:
    obs = _read_observable(args.observables)
    if args.projector:
        # target the enlarged set so the plan also serves projected
        # estimation; a string in both sets weighs its summed |coefficient|
        spec = _projector_spec(args.projector)
        proj = projectors.projector_from_spec(obs.num_qubits, spec)
        sources = (projectors.expand_projected_observable(obs, proj),
                   proj.to_pauli_sum())
        obs = WeightedPauliSum.from_arrays(
            obs.num_qubits, np.concatenate([s.codes for s in sources]),
            np.concatenate([s.magnitudes() for s in sources]))
    weights = obs.magnitudes() if args.weights == "coeff" else None
    plan = measurement.derandomize_plan(obs, weights, args.shots,
                                        epsilon=args.epsilon)
    hits = measurement.plan_hit_counts(plan, obs)
    experiments._check_coverage(hits, args.shots)
    measurement.save_plan(plan, args.out)
    _emit({"rounds": len(plan), "targets": len(obs),
           "min_hits": int(hits.min()), "max_hits": int(hits.max()),
           "out": args.out})
    return 0


def _cmd_counts(args) -> int:
    state = _read_state(args.state)
    obs = _read_observable(args.observables)
    if args.grouping == "rlf":
        groups = measurement.group_qwc_rlf(obs)
    else:
        groups = measurement.singleton_groups(obs)
    value = measurement.direct_counts_estimate(
        state, groups, obs, args.shots_per_group, args.seed,
        weighted_allocation=args.weighted_allocation)
    _emit({"estimate": value, "groups": len(groups),
           "shots_per_group": args.shots_per_group,
           "total_measurements": len(groups) * args.shots_per_group,
           "seed": args.seed})
    return 0


def _cmd_reconstruct(args) -> int:
    shadow = shadows.load_shadow(args.shadow)
    if args.projector:
        spec = _projector_spec(args.projector)
        proj = projectors.projector_from_spec(shadow.num_qubits, spec)
        rho = projectors.reconstruct_projected_density(shadow, proj)
    else:
        rho = shadows.reconstruct_density(shadow)
    Path(args.out).write_text(json.dumps(
        [[[v.real, v.imag] for v in row] for row in rho]))
    _emit({"q": shadow.num_qubits, "trace_re": float(np.trace(rho).real),
           "out": args.out})
    return 0


def _cmd_experiment(args) -> int:
    try:
        data = json.loads(Path(args.config).read_text())
        cfg = experiments.ExperimentConfig.from_dict(data)
    except (OSError, json.JSONDecodeError, experiments.ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    result = experiments.run_experiment(cfg)
    experiments.write_results(result, args.out)
    _emit({"experiment": cfg.experiment, "rows": len(result.rows),
           "out": args.out})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadow",
        description="Symmetry-projected observables from classical shadows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="write a prepared state as JSON")
    p.add_argument("kind", choices=["gaussian", "plus", "parity-mixture",
                                    "product", "spin-gaussian"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--squared", action="store_true",
                   help="use the squared Gaussian exponent")
    p.add_argument("--p-even", type=float, default=0.3)
    p.add_argument("--thetas", type=float, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("model", help="model Hamiltonians")
    model_sub = p.add_subparsers(dest="model", required=True)
    mp = model_sub.add_parser("pairing", help="picket-fence pairing model")
    mp.add_argument("--q", type=int, required=True)
    mp.add_argument("--geps", type=float, default=1.0,
                    help="level spacing delta-epsilon")
    mp.add_argument("--g", type=float, default=1.0, help="pair coupling")
    mp.add_argument("--out", required=True)
    mp.set_defaults(func=_cmd_model_pairing)

    p = sub.add_parser("acquire", help="collect a classical shadow")
    p.add_argument("--state", required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plan", default=None,
                   help="measurement plan file with prescribed bases")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_acquire)

    p = sub.add_parser("estimate", help="plain expectation from a shadow")
    p.add_argument("--shadow", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--prescribed", action="store_true",
                   help="treat the shadow's bases as prescribed")
    p.add_argument("--median-groups", type=int, default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("project", help="projected expectation from a shadow")
    p.add_argument("--shadow", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--projector", required=True,
                   help='JSON spec, e.g. {"type":"parity","epsilon":1}')
    p.add_argument("--all-sectors", action="store_true",
                   help="emit every eigenvalue channel from the one shadow")
    p.add_argument("--prescribed", action="store_true")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("derandomize", help="greedy measurement plan")
    p.add_argument("--observables", required=True)
    p.add_argument("--projector", default=None,
                   help="also cover the enlarged set for this projector")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--weights", choices=["coeff", "uniform"],
                   default="coeff")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_derandomize)

    p = sub.add_parser("counts", help="direct-counts estimation")
    p.add_argument("--state", required=True)
    p.add_argument("--observables", required=True)
    p.add_argument("--shots-per-group", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grouping", choices=["none", "rlf"], default="none")
    p.add_argument("--weighted-allocation", action="store_true")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("reconstruct",
                       help="dense (projected) density from a shadow")
    p.add_argument("--shadow", required=True)
    p.add_argument("--projector", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("experiment", help="run a figure experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except experiments.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
