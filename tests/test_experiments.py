import concurrent.futures
import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# tiny-budget runs legitimately estimate near-zero sectors as negative
pytestmark = pytest.mark.filterwarnings(
    "ignore::shadowproj.projectors.EmptySectorWarning")

from shadowproj import experiments
from shadowproj.experiments import (CSV_COLUMNS, ConfigError,
                                    ExperimentConfig, default_config,
                                    prepare_fig2_state, prepare_fig4_state,
                                    prepare_spin_rotated_gaussian,
                                    run_experiment, write_results)
from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.projectors import (exact_number_projector,
                                   exact_parity_projector, number_projector,
                                   parity_projector, spin_sector_projectors,
                                   total_spin_matrices)
from shadowproj.statevector import (exact_expectation,
                                    exact_projected_linear, prepare_gaussian)
from shadowproj.paulis import PauliString, WeightedPauliSum


def small_fig3():
    return ExperimentConfig.from_dict(
        {"experiment": "fig3", "shots": [100, 400], "repeats": 4, "seed": 3})


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "fig9"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "fig3", "shots": [10, 10]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "fig3", "repeats": 0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "fig3",
                                    "methods": ["bogus"]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "fig3", "nope": 1})


def test_default_configs_parse():
    for fig in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
        cfg = default_config(fig)
        assert cfg.experiment == fig
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_fig2_state_and_artifacts():
    state = prepare_fig2_state(2)
    assert np.allclose(state.amplitudes, [0.5] * 4)
    result = run_experiment(default_config("fig2"))
    assert set(result.artifacts) == {"exact_density", "reconstructed_density"}
    exact = np.array([[complex(re, im) for re, im in row]
                      for row in result.artifacts["exact_density"]])
    assert np.allclose(exact, 0.25 * np.ones((4, 4)), atol=1e-12)
    row = result.rows[0]
    assert row.method == "random"
    assert 0.0 < row.mean < 0.3   # finite-shot reconstruction error


def test_fig4_oracle_energy_fixture():
    """Even-parity projected pairing-energy target of the default
    comparison state, frozen from the dense oracle."""
    from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
    from shadowproj.projectors import exact_parity_projector
    from shadowproj.statevector import exact_projected_expectation
    state = prepare_fig4_state(4)
    ham = build_pairing_hamiltonian(PairingSpec(4, 1.0, 1.0))
    num, norm = exact_projected_expectation(state, ham,
                                            exact_parity_projector(4, 1))
    assert num == pytest.approx(-0.37653929834090105, abs=1e-10)
    assert norm == pytest.approx(0.6929399132984924, abs=1e-10)


def test_fig4_state_breaks_both_symmetries():
    state = prepare_fig4_state(4)
    z_obs = WeightedPauliSum(4, ((1.0, PauliString.from_label("ZZZZ")),))
    parity = exact_expectation(state, z_obs)
    assert 0.05 < abs(parity) < 0.95
    n_obs = WeightedPauliSum(4, tuple(
        (0.5, PauliString.identity(4)) if j == 0 else
        (-0.5, PauliString.single(4, j - 1, "Z")) for j in range(5)))
    # mean occupation strictly between integer sectors
    mean_n = 4 / 2 - 0.5 * sum(
        exact_expectation(state, WeightedPauliSum(
            4, ((1.0, PauliString.single(4, j, "Z")),))) for j in range(4))
    assert 1.0 < mean_n < 3.0


def test_spin_rotated_state_lives_in_s2_eigenbasis():
    state = prepare_spin_rotated_gaussian(4)
    s_sq, _ = total_spin_matrices(4)
    vals, vecs = np.linalg.eigh(s_sq)
    coeffs = vecs.conj().T @ state.amplitudes
    from shadowproj.statevector import prepare_gaussian
    assert np.allclose(np.abs(coeffs),
                       np.abs(prepare_gaussian(4).amplitudes), atol=1e-12)


def test_fig7_artifacts_carry_exact_amplitudes():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "fig7", "shots": [400], "repeats": 2, "seed": 2})
    result = run_experiment(cfg)
    exact = result.artifacts["exact_sector_amplitudes"]
    assert len(exact) == 9
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-10)
    # CSV oracle is the discretized target; the artifact is the exact one
    for row in result.rows:
        sector = row.method.split("/")[1]
        assert abs(row.oracle - exact[sector]) < 0.02


def test_run_experiment_deterministic():
    a = run_experiment(small_fig3())
    b = run_experiment(small_fig3())
    assert [(r.method, r.shots, r.mean, r.stddev) for r in a.rows] \
        == [(r.method, r.shots, r.mean, r.stddev) for r in b.rows]


def test_parallel_repeats_match_serial(monkeypatch):
    serial = run_experiment(small_fig3())
    monkeypatch.setenv("SHADOW_THREADS", "3")
    parallel = run_experiment(small_fig3())
    assert [(r.method, r.mean) for r in serial.rows] \
        == [(r.method, r.mean) for r in parallel.rows]


def test_bad_shadow_threads_is_a_config_error(monkeypatch, tmp_path):
    from shadowproj.cli import main
    monkeypatch.setenv("SHADOW_THREADS", "abc")
    with pytest.raises(ConfigError, match="SHADOW_THREADS"):
        run_experiment(small_fig3())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(small_fig3().to_dict()))
    assert main(["experiment", "--config", str(cfg), "--out",
                 str(tmp_path / "out.csv")]) == 2


def test_rows_carry_oracle_targets():
    result = run_experiment(small_fig3())
    for row in result.rows:
        if row.method.endswith("+1"):
            assert row.oracle == pytest.approx(0.3, abs=1e-9)
        else:
            assert row.oracle == pytest.approx(0.7, abs=1e-9)
        assert row.repeat_count == 4


def test_write_results_files(tmp_path):
    result = run_experiment(default_config("fig2"))
    out = tmp_path / "fig2.csv"
    write_results(result, out)
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + len(result.rows)
    sidecar = json.loads((tmp_path / "fig2.config.json").read_text())
    assert sidecar["experiment"] == "fig2"
    artifacts = json.loads((tmp_path / "fig2.artifacts.json").read_text())
    assert "exact_density" in artifacts


def test_write_results_bitwise_deterministic(tmp_path):
    cfg = small_fig3()
    write_results(run_experiment(cfg), tmp_path / "a.csv")
    write_results(run_experiment(cfg), tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_fig4_small_run_has_all_methods(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {"experiment": "fig4", "shots": [500], "repeats": 3, "seed": 5})
    result = run_experiment(cfg)
    assert sorted({r.method for r in result.rows}) \
        == ["counts", "counts-grouped", "derandomized", "random"]
    totals = result.artifacts["measurement_totals"]
    assert totals["random"]["500"]["total_measurements"] == 500
    counts_total = totals["counts"]["500"]
    assert counts_total["groups"] * counts_total["shots_per_group"] \
        == counts_total["total_measurements"] <= 500
    oracle = result.rows[0].oracle
    assert all(r.oracle == oracle for r in result.rows)


@pytest.mark.parametrize("methods,built", [
    (["random", "derandomized"], set()),
    (["random", "counts"], {"singleton"}),
    (["counts-grouped"], {"rlf"})])
def test_fig4_builds_only_the_groupings_its_methods_use(monkeypatch, methods,
                                                        built):
    # RLF alone took seconds and hundreds of MB at q=10 for configs that
    # never read its groups
    calls = set()

    def grouping(name, real):
        def run(obs):
            if name not in built:
                raise AssertionError(f"{name} grouping built")
            calls.add(name)
            return real(obs)
        return run

    monkeypatch.setattr(experiments, "singleton_groups", grouping(
        "singleton", experiments.singleton_groups))
    monkeypatch.setattr(experiments, "group_qwc_rlf", grouping(
        "rlf", experiments.group_qwc_rlf))
    cfg = ExperimentConfig.from_dict({"experiment": "fig4", "shots": [300],
                                      "repeats": 2, "seed": 5,
                                      "methods": methods})
    result = run_experiment(cfg)
    assert calls == built
    assert sorted({r.method for r in result.rows}) == sorted(methods)


# sha256 of CSVs from cheap configs. The README promises bit-for-bit output
# from a seed; a change that moves these bytes must declare it and re-pin.
PINNED_CSV_SHA256 = {
    "fig2": ({},
             "d6a6fcd02bde1a6aa3214c66ade57869ca191f783d060663bf51a3ed6aa55a21"),
    "fig3": ({"shots": [100, 1000], "repeats": 3},
             "78d1c1a7ee7a1eca76dd354d8b193c9e2903a7fb1eda6f13776b169b2c86d181"),
    "fig4": ({"shots": [300], "repeats": 3},
             "4fd4f500dcff755a090ad68c5f536a7acdc0142643c3f1805630eb98bf7cf536"),
    "fig5": ({"shots": [1000], "repeats": 3},
             "fc09e3b0a395a8cc80282f7b06c9c387b3d1aec2f0ee47d71200c190e7939d89"),
    "fig6": ({"shots": [100, 1000], "repeats": 3},
             "fa39a0a0631b7269de190bdcc2f1d3aaca3e3851765410e9dbf9fb2c10e1b2f3"),
    "fig7": ({"shots": [1000], "repeats": 3},
             "695952be07e1487dd2b6eb035c74dd7eeeec3d3b405bf85e62378c0f2989d31d"),
}


@pytest.mark.parametrize("fig", sorted(PINNED_CSV_SHA256))
def test_csv_bytes_are_pinned(tmp_path, fig):
    overrides, digest = PINNED_CSV_SHA256[fig]
    cfg = ExperimentConfig.from_dict({**default_config(fig).to_dict(),
                                      **overrides})
    write_results(run_experiment(cfg), tmp_path / f"{fig}.csv")
    data = (tmp_path / f"{fig}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("key, value, message", [
    ("q", 2.5, "q must be an integer"),
    ("q", True, "q must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", "1", "seed must be an integer"),
    ("repeats", True, "repeats must be an integer"),
    ("repeats", 2.0, "repeats must be an integer"),
    ("shots", [100, 200.5], "shots must be a list of integers"),
    ("shots", [True, 2], "shots must be a list of integers"),
    ("shots", 100, "shots must be a list of integers"),
    ("methods", "random", "methods must be a list of strings"),
    ("methods", ["random", 1], "methods must be a list of strings"),
    ("projector", "parity", "projector must be null or an object"),
    ("projector", [], "projector must be null or an object"),
    ("model", "x", "model must be null or an object"),
    ("model", {"g": "big"}, "model must be null or an object"),
    ("model", {"g": True}, "model must be null or an object"),
    ("model", {"delta_eps": float("nan")}, "model must be null or an"),
    ("model", {"g": 10 ** 400}, "model must be null or an object"),
    ("model", {"mu": 1.0}, "model must be null or an object"),
    ("gaussian_squared", "no", "gaussian_squared must be a boolean"),
    ("gaussian_squared", 1, "gaussian_squared must be a boolean"),
    ("q", 0, "q must lie in 1..12, got 0"),
    ("q", 13, "q must lie in 1..12, got 13"),
    ("seed", -1, "seed must be >= 0, got -1"),
])
def test_config_rejects_wrong_types(key, value, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict({"experiment": "fig3", key: value})


def test_config_accepts_model_numbers():
    cfg = ExperimentConfig.from_dict({"experiment": "fig6",
                                      "model": {"delta_eps": 2, "g": 0.5},
                                      "gaussian_squared": True})
    assert cfg.model == {"delta_eps": 2, "g": 0.5}


@pytest.mark.parametrize("experiment, projector, message", [
    ("fig3", {"type": "bogus"}, "unknown projector type 'bogus'"),
    ("fig3", None, "unknown projector type None"),
    ("fig7", {"type": "spin", "n_p": "10"}, "'n_p' must be an integer"),
    ("fig6", {"type": "number", "n0": 5}, "n0=5 outside 0..2"),
    ("fig6", {"type": "parity", "epsilon": 1}, "fig6 needs a number"),
    ("fig4", {"type": "number", "n0": 1}, "fig4 needs a parity"),
    ("fig4", {"type": "parity"}, "lacks 'epsilon'"),
])
def test_projector_spec_the_figure_cannot_build(experiment, projector,
                                                message):
    cfg = ExperimentConfig.from_dict({"experiment": experiment, "q": 2,
                                      "shots": [100], "repeats": 1,
                                      "projector": projector})
    with pytest.raises(ConfigError, match=message):
        run_experiment(cfg)


def test_estimation_errors_are_not_config_errors(monkeypatch):
    def fail(args):
        raise ValueError("estimation failed")
    monkeypatch.setattr(experiments, "_shadow_sector_task", fail)
    with pytest.raises(ValueError, match="estimation failed") as info:
        run_experiment(small_fig3())
    assert not isinstance(info.value, ConfigError)


def test_pool_starts_at_most_one_worker_per_task(monkeypatch):
    seen = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers and maps
        in this process, so no worker is started."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    cfg = ExperimentConfig.from_dict(
        {"experiment": "fig3", "shots": [100, 400], "repeats": 3, "seed": 3})
    serial = run_experiment(cfg)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setenv("SHADOW_THREADS", "64")
    assert experiments._parallel_map(abs, [-1, 2, -3]) == [1, 2, 3]
    assert seen == [3]
    pooled = run_experiment(cfg)
    assert seen == [3, 3, 3]
    assert pooled.rows == serial.rows


def test_importing_the_package_leaves_the_process_pool_out():
    # the pool's import pulls in multiprocessing, socket and logging
    code = "import sys, shadowproj; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=Path(experiments.__file__).parents[1]).stdout
    assert out.strip() == "False"


def test_fig6_at_a_non_default_sector():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "fig6", "q": 3, "shots": [100, 400], "repeats": 3,
         "seed": 4, "projector": {"type": "number", "n0": 1}})
    result = run_experiment(cfg)
    state = prepare_gaussian(3)
    ham = build_pairing_hamiltonian(PairingSpec(3, 1.0, 1.0))
    oracle = exact_projected_linear(state, ham,
                                    exact_number_projector(3, 1))[0]
    assert [(r.method, r.shots) for r in result.rows] \
        == [("random/n0=1", 100), ("random/n0=1", 400)]
    for row in result.rows:
        assert row.oracle == oracle and row.repeat_count == 3
        nums = np.array([
            experiments._shadow_sector_task(
                (state, ham, [number_projector(3, 1)], row.shots, seed))[0][0]
            for seed in experiments._repeat_seeds(cfg, row.shots)])
        assert (row.mean, row.stddev) == (nums.mean(), nums.std())


@pytest.mark.parametrize("q", [2, 3, 4])
def test_exact_projector_by_sector_label(q):
    for epsilon in (1, -1):
        assert np.array_equal(
            experiments._exact_projector(q, parity_projector(q, epsilon)),
            exact_parity_projector(q, epsilon))
    for n0 in range(q + 1):
        assert np.array_equal(
            experiments._exact_projector(q, number_projector(q, n0)),
            exact_number_projector(q, n0))
    for proj in spin_sector_projectors(q, 4):
        assert np.array_equal(experiments._exact_projector(q, proj),
                              proj.to_matrix())
