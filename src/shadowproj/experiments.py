"""Experiment runner: convergence curves and method comparisons as CSV.

Each experiment id prepares a documented state, runs repeated seeded
estimations over a shots schedule and emits one row per (method, sector,
shots) with the mean, the population standard deviation over repeats and
the exact oracle target. Identical config and seed give bitwise identical
output files.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import rng as _rng
from .measurement import (direct_counts_estimate, derandomize_plan,
                          group_qwc_rlf, plan_hit_counts, singleton_groups)
from .pairing import PairingSpec, build_pairing_hamiltonian
from .paulis import WeightedPauliSum
from .projectors import (ProjectorLCU, _spin_eigenprojector,
                         all_sector_projectors, exact_number_projector,
                         exact_parity_projector, expand_projected_observable,
                         projected_estimate, projected_estimate_sectors,
                         projector_from_spec, spin_sectors,
                         total_spin_matrices)
from .shadows import _acquire_shadows, acquire_shadow, reconstruct_density
from .shadows import estimate as shadow_estimate
from .statevector import (MAX_QUBITS, H, Statevector, apply_gate,
                          exact_projected_linear, prepare_basis_state,
                          prepare_gaussian, prepare_parity_mixture,
                          prepare_product_state)

EXPERIMENTS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
METHODS = ("random", "derandomized", "counts", "counts-grouped")

_STATE_TAG = 0x57a7e
_REPEAT_TAG = 0x9e9ea7


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:  # a NaN compares False; a big int exactly
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# field: (check of its value, what the value must be)
_FIELD_TYPES = {
    **{name: (_is_int, "an integer") for name in ("q", "repeats", "seed")},
    "shots": (lambda v: isinstance(v, list) and all(map(_is_int, v)),
              "a list of integers"),
    "methods": (lambda v: isinstance(v, list)
                and all(isinstance(m, str) for m in v), "a list of strings"),
    "projector": (lambda v: v is None or isinstance(v, dict),
                  "null or an object"),
    "model": (lambda v: v is None or isinstance(v, dict)
              and set(v) <= {"delta_eps", "g"}
              and all(map(_is_finite, v.values())),
              "null or an object of finite numbers delta_eps and g"),
    "gaussian_squared": (lambda v: isinstance(v, bool), "a boolean"),
}


@dataclass
class ExperimentConfig:
    experiment: str
    q: int
    shots: list[int]
    repeats: int
    seed: int
    methods: list[str] = field(default_factory=lambda: ["random"])
    projector: dict | None = None
    model: dict | None = None
    gaussian_squared: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for name, (check, kind) in _FIELD_TYPES.items():
            if not check(getattr(self, name)):
                raise ConfigError(f"{name} must be {kind}, got "
                                  f"{getattr(self, name)!r}")
        if not 1 <= self.q <= MAX_QUBITS:  # the dense oracle's ceiling
            raise ConfigError(f"q must lie in 1..{MAX_QUBITS}, got {self.q}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.shots or any(m < 1 for m in self.shots):
            raise ConfigError("shots schedule must contain positive values")
        if any(a >= b for a, b in zip(self.shots, self.shots[1:])):
            raise ConfigError("shots schedule must be strictly increasing")
        bad = [m for m in self.methods if m not in METHODS]
        if bad or not self.methods:
            raise ConfigError(f"unknown methods {bad}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict) or "experiment" not in data:
            raise ConfigError("a config is a JSON object with the key "
                              f"'experiment', got {data!r}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        base = asdict(default_config(data["experiment"]))
        base.update(data)
        try:
            return cls(**base)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return asdict(self)


def default_config(experiment: str) -> "ExperimentConfig":
    """The canonical per-figure configuration; any field can be overridden."""
    if experiment == "fig2":
        return ExperimentConfig("fig2", q=2, shots=[1000], repeats=1, seed=7)
    if experiment == "fig3":
        return ExperimentConfig(
            "fig3", q=4, shots=[100, 316, 1000, 3162, 10000], repeats=10,
            seed=7, projector={"type": "parity"})
    if experiment == "fig4":
        return ExperimentConfig(
            "fig4", q=4, shots=[300, 1000, 3000], repeats=10, seed=7,
            methods=list(METHODS),
            projector={"type": "parity", "epsilon": 1},
            model={"delta_eps": 1.0, "g": 1.0})
    if experiment == "fig5":
        return ExperimentConfig(
            "fig5", q=4, shots=[10000], repeats=50, seed=7,
            projector={"type": "number"})
    if experiment == "fig6":
        return ExperimentConfig(
            "fig6", q=4, shots=[100, 500, 1000, 5000, 10000], repeats=50,
            seed=7, projector={"type": "number", "n0": 2},
            model={"delta_eps": 1.0, "g": 1.0})
    if experiment == "fig7":
        return ExperimentConfig(
            "fig7", q=4, shots=[10000], repeats=50, seed=7,
            projector={"type": "spin", "n_p": 10})
    raise ConfigError(f"unknown experiment {experiment!r}")


@dataclass(frozen=True)
class ResultRow:
    method: str
    shots: int
    repeat_count: int
    mean: float
    stddev: float
    oracle: float
    seed: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[ResultRow]
    artifacts: dict = field(default_factory=dict)


def prepare_fig2_state(q: int = 2) -> Statevector:
    """Hadamard on every qubit of |0..0>."""
    state = prepare_basis_state(q)
    for j in range(q):
        state = apply_gate(state, H, j)
    return state


def prepare_fig4_state(q: int) -> Statevector:
    """Default method-comparison test state: a pair-condensate-like product
    state ry(theta_i)|0> with logistic level occupations
    v_i^2 = 1 / (1 + exp(3 (i - (q-1)/2))), i.e. nearly filled below the
    Fermi surface and nearly empty above it, with genuine mixing in between.
    Breaks both pair number and parity."""
    occupations = [1.0 / (1.0 + math.exp(3.0 * (i - (q - 1) / 2)))
                   for i in range(q)]
    return prepare_product_state([2.0 * math.asin(math.sqrt(v))
                                  for v in occupations])


def prepare_spin_rotated_gaussian(q: int, squared: bool = False) -> Statevector:
    """Gaussian amplitudes expressed in the eigenbasis of S^2."""
    s_sq, _ = total_spin_matrices(q)
    _, vecs = np.linalg.eigh(s_sq)
    base = prepare_gaussian(q, squared=squared)
    return Statevector(vecs @ base.amplitudes)


def _check_coverage(hits: np.ndarray, shots: int) -> None:
    """ConfigError unless a derandomized plan of ``shots`` rounds measures
    every target, given the targets' hit counts."""
    uncovered = int((hits == 0).sum())
    if uncovered:
        raise ConfigError(
            f"shots={shots} is too small for derandomized estimation: "
            f"{uncovered} of {hits.size} target observables would never be "
            "measured")


def _repeat_seeds(cfg: ExperimentConfig, *path: int) -> list[int]:
    return [_rng.derive_seed(cfg.seed, _REPEAT_TAG, *path, r)
            for r in range(cfg.repeats)]


def _density_to_json(rho: np.ndarray) -> list:
    return [[[v.real, v.imag] for v in row] for row in rho]


def _run_fig2(cfg: ExperimentConfig) -> ExperimentResult:
    state = prepare_fig2_state(cfg.q)
    shots = cfg.shots[-1]
    shadow = acquire_shadow(state, shots, _rng.derive_seed(cfg.seed, 2))
    rho_exact = state.density_matrix()
    rho_shadow = reconstruct_density(shadow)
    err = float(np.max(np.abs(rho_shadow - rho_exact)))
    rows = [ResultRow("random", shots, 1, err, 0.0, 0.0, cfg.seed)]
    artifacts = {"exact_density": _density_to_json(rho_exact),
                 "reconstructed_density": _density_to_json(rho_shadow)}
    return ExperimentResult(cfg, rows, artifacts)


def _exact_projector(q: int, proj: ProjectorLCU) -> np.ndarray:
    """Dense oracle projector of a sector: the exact eigenprojector of a
    parity or number label; for a spin sector the discretized projector
    itself, which is what the shadow estimator targets at finite mesh."""
    kind, _, value = proj.label.partition("=")
    if kind == "parity":
        return exact_parity_projector(q, int(value))
    if kind == "n0":
        return exact_number_projector(q, int(value))
    return proj.to_matrix()


def _config_projectors(cfg: ExperimentConfig, default: dict | None = None
                       ) -> list[ProjectorLCU]:
    """Every sector of ``cfg.projector``'s symmetry or, given a ``default``
    (the spec of a null projector), the one sector it names, of the
    default's type. A spec that cannot be built is a config error."""
    spec = cfg.projector or default or {}
    if default and spec.get("type") != default["type"]:
        raise ConfigError(f"{cfg.experiment} needs a {default['type']} "
                          f"projector spec, got {spec}")
    try:
        if default is None:
            return all_sector_projectors(cfg.q, spec)
        return [projector_from_spec(cfg.q, spec)]
    except ValueError as exc:
        raise ConfigError(f"projector: {exc}") from None


def _pairing_model(cfg: ExperimentConfig) -> WeightedPauliSum:
    model = cfg.model or {}
    return build_pairing_hamiltonian(PairingSpec(
        cfg.q, model.get("delta_eps", 1.0), model.get("g", 1.0)))


def _sector_rows(cfg: ExperimentConfig, state: Statevector,
                 obs: WeightedPauliSum, projectors: list[ProjectorLCU],
                 part: int) -> list[ResultRow]:
    """One row per (sector, shots): mean and spread over the repeats of
    part 0 (numerator Tr[O P rho]) or 1 (norm Tr[P rho]) of the sector's
    estimate, all sectors from one shadow per repeat, against the oracle."""
    oracles = [exact_projected_linear(state, obs,
                                      _exact_projector(cfg.q, proj))[part]
               for proj in projectors]
    rows = []
    for shots in cfg.shots:
        outcomes = [projected_estimate_sectors(shadow, obs, projectors)
                    for shadow in _acquire_shadows(
                        state, shots, _repeat_seeds(cfg, shots))]
        for si, proj in enumerate(projectors):
            values = np.array([out[si][part] for out in outcomes])
            rows.append(ResultRow(
                f"random/{proj.label}", shots, cfg.repeats,
                float(values.mean()), float(values.std()), oracles[si],
                cfg.seed))
    rows.sort(key=lambda r: (r.method, r.shots))
    return rows


def _run_sector_decomposition(cfg: ExperimentConfig,
                              state: Statevector) -> ExperimentResult:
    """fig3/fig5/fig7: the norm of every sector from one shadow."""
    projectors = _config_projectors(cfg)
    ident = WeightedPauliSum.identity(cfg.q)
    rows = _sector_rows(cfg, state, ident, projectors, 1)
    artifacts = {}
    if cfg.projector.get("type") == "spin":
        # CSV oracles target the discretized projector (what the shadow
        # estimates); record the exact eigenprojector amplitudes alongside
        # so the mesh-resolution gap is visible in the output
        s_sq, _ = total_spin_matrices(cfg.q)
        artifacts["exact_sector_amplitudes"] = {
            f"s={s:g},m={m:g}": exact_projected_linear(
                state, ident, _spin_eigenprojector(s_sq, s, m))[1]
            for s, m in spin_sectors(cfg.q)}
    return ExperimentResult(cfg, rows, artifacts)


def _run_fig4(cfg: ExperimentConfig) -> ExperimentResult:
    [proj] = _config_projectors(cfg, {"type": "parity", "epsilon": 1})
    state = prepare_fig4_state(cfg.q)
    ham = _pairing_model(cfg)
    expanded = expand_projected_observable(ham, proj)
    if not len(expanded) and set(cfg.methods) - {"random"}:
        raise ConfigError(f"q={cfg.q}: H*P is zero, no target to measure")
    oracle = exact_projected_linear(state, ham,
                                    _exact_projector(cfg.q, proj))[0]
    groupings = {method: grouping(expanded) for method, grouping in (
        ("counts", singleton_groups), ("counts-grouped", group_qwc_rlf))
        if method in cfg.methods}
    rows = []
    totals: dict[str, dict] = {}
    for shots in cfg.shots:
        if "derandomized" in cfg.methods:
            plan = derandomize_plan(expanded, expanded.magnitudes(), shots)
            _check_coverage(plan_hit_counts(plan, expanded), shots)
        for method in cfg.methods:
            seeds = _repeat_seeds(cfg, shots, METHODS.index(method))
            total = {"total_measurements": shots}
            if method == "random":
                values = [projected_estimate(shadow, ham, proj)[0]
                          for shadow in _acquire_shadows(state, shots, seeds)]
            elif method == "derandomized":
                values = [shadow_estimate(shadow, expanded)
                          for shadow in _acquire_shadows(
                              state, shots, seeds, plan.codes)]
            else:
                # coefficient-weighted shot allocation: the pairing
                # coefficients are strongly skewed, so the flat split would
                # waste most of the budget on near-irrelevant terms
                groups = groupings[method]
                spg = max(1, shots // len(groups))
                total = {"groups": len(groups), "shots_per_group": spg,
                         "total_measurements": spg * len(groups)}
                values = [direct_counts_estimate(state, groups, expanded, spg,
                                                 seed, weighted_allocation=True)
                          for seed in seeds]
            totals.setdefault(method, {})[str(shots)] = total
            rows.append(ResultRow(method, shots, cfg.repeats,
                                  float(np.mean(values)),
                                  float(np.std(values)), oracle, cfg.seed))
    rows.sort(key=lambda r: (r.method, r.shots))
    return ExperimentResult(cfg, rows, {"measurement_totals": totals})


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment; deterministic for a fixed config and seed."""
    if cfg.experiment == "fig2":
        return _run_fig2(cfg)
    if cfg.experiment == "fig3":
        state = prepare_parity_mixture(cfg.q, 0.3,
                                       _rng.derive_seed(cfg.seed, _STATE_TAG))
        return _run_sector_decomposition(cfg, state)
    if cfg.experiment == "fig4":
        return _run_fig4(cfg)
    if cfg.experiment == "fig5":
        state = prepare_gaussian(cfg.q, squared=cfg.gaussian_squared)
        return _run_sector_decomposition(cfg, state)
    if cfg.experiment == "fig6":  # the pairing energy in one number sector
        state = prepare_gaussian(cfg.q, squared=cfg.gaussian_squared)
        projectors = _config_projectors(cfg, {"type": "number", "n0": 2})
        return ExperimentResult(cfg, _sector_rows(
            cfg, state, _pairing_model(cfg), projectors, 0))
    if cfg.experiment == "fig7":
        state = prepare_spin_rotated_gaussian(cfg.q, cfg.gaussian_squared)
        return _run_sector_decomposition(cfg, state)
    raise ConfigError(f"unknown experiment {cfg.experiment!r}")


CSV_COLUMNS = ("method", "shots", "repeat_count", "mean", "stddev", "oracle",
               "seed")


def write_results(result: ExperimentResult, out_csv: str | Path) -> None:
    """CSV table plus a JSON sidecar of the full config.

    Large artifacts (fig2 density dumps, fig4 measurement totals) go to
    sibling JSON files named after the CSV.
    """
    out_csv = Path(out_csv)
    with out_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow([row.method, row.shots, row.repeat_count,
                             repr(row.mean), repr(row.stddev),
                             repr(row.oracle), row.seed])
    sidecar = out_csv.with_suffix(".config.json")
    sidecar.write_text(json.dumps(result.config.to_dict(), indent=2,
                                  sort_keys=True) + "\n")
    if result.artifacts:
        extra = out_csv.with_suffix(".artifacts.json")
        extra.write_text(json.dumps(result.artifacts, indent=2,
                                    sort_keys=True) + "\n")
