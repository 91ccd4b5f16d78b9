import json

import numpy as np
import pytest

from shadowproj.cli import main
from shadowproj.paulis import WeightedPauliSum
from shadowproj.projectors import EmptySectorWarning
from shadowproj.statevector import Statevector


@pytest.fixture
def workdir(tmp_path, capsys):
    """Prepared state and Hamiltonian files for pipeline commands."""
    state = tmp_path / "state.json"
    ham = tmp_path / "ham.json"
    assert main(["state", "gaussian", "--q", "4", "--out", str(state)]) == 0
    assert main(["model", "pairing", "--q", "4", "--geps", "1.0", "--g",
                 "1.0", "--out", str(ham)]) == 0
    capsys.readouterr()
    return tmp_path


def last_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_state_and_model_files(workdir):
    state = Statevector.from_json((workdir / "state.json").read_text())
    assert state.num_qubits == 4
    ham = WeightedPauliSum.from_json((workdir / "ham.json").read_text())
    assert len(ham.terms) == 17


def test_acquire_estimate_project(workdir, capsys):
    shadow = workdir / "shadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "3000", "--seed", "2", "--out",
                 str(shadow)]) == 0
    capsys.readouterr()

    assert main(["estimate", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json")]) == 0
    est = last_json(capsys)
    assert est["shots"] == 3000
    assert -10 < est["estimate"] < 10

    assert main(["project", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--projector",
                 '{"type": "number", "n0": 2}']) == 0
    proj = last_json(capsys)
    assert set(proj) == {"sector", "numerator", "norm", "ratio"}
    assert proj["sector"] == "n0=2"

    assert main(["project", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--projector",
                 '{"type": "number"}', "--all-sectors"]) == 0
    sectors = last_json(capsys)
    assert [s["sector"] for s in sectors] == [f"n0={n}" for n in range(5)]
    assert sum(s["norm"] for s in sectors) == pytest.approx(1.0, abs=1e-9)


def test_derandomize_then_prescribed_estimate(workdir, capsys):
    plan = workdir / "plan.txt"
    # target the parity-enlarged set so projected estimation is covered too
    assert main(["derandomize", "--observables", str(workdir / "ham.json"),
                 "--projector", '{"type": "parity", "epsilon": 1}',
                 "--shots", "300", "--out", str(plan)]) == 0
    info = last_json(capsys)
    assert info["rounds"] == 300
    assert info["min_hits"] >= 1
    assert info["targets"] > 17

    shadow = workdir / "dshadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "300", "--seed", "1", "--plan", str(plan),
                 "--out", str(shadow)]) == 0
    assert last_json(capsys)["prescribed"] is True

    assert main(["estimate", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--prescribed"]) == 0
    assert "estimate" in last_json(capsys)

    assert main(["project", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--projector",
                 '{"type": "parity", "epsilon": 1}', "--prescribed"]) == 0
    proj = last_json(capsys)
    assert proj["sector"] == "parity=+1"
    assert 0.0 < proj["norm"] <= 1.0 + 1e-9


def test_counts_command(workdir, capsys):
    assert main(["counts", "--state", str(workdir / "state.json"),
                 "--observables", str(workdir / "ham.json"),
                 "--shots-per-group", "50", "--seed", "3",
                 "--grouping", "rlf"]) == 0
    out = last_json(capsys)
    assert out["groups"] * out["shots_per_group"] == out["total_measurements"]
    assert main(["counts", "--state", str(workdir / "state.json"),
                 "--observables", str(workdir / "ham.json"),
                 "--shots-per-group", "50", "--seed", "3",
                 "--weighted-allocation"]) == 0
    assert "estimate" in last_json(capsys)


def test_estimate_median_groups_flag(workdir, capsys):
    shadow = workdir / "mshadow.txt"
    main(["acquire", "--state", str(workdir / "state.json"), "--shots",
          "900", "--seed", "8", "--out", str(shadow)])
    capsys.readouterr()
    assert main(["estimate", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--median-groups", "5"]) == 0
    assert "estimate" in last_json(capsys)


def test_state_squared_gaussian_flag(workdir, capsys):
    out = workdir / "sq.json"
    assert main(["state", "gaussian", "--q", "3", "--squared",
                 "--out", str(out)]) == 0
    state = Statevector.from_json(out.read_text())
    p = np.abs(state.amplitudes) ** 2
    assert np.allclose(p, p[::-1], atol=1e-12)


def test_reconstruct_command(workdir, capsys):
    shadow = workdir / "shadow.txt"
    main(["acquire", "--state", str(workdir / "state.json"), "--shots",
          "500", "--seed", "4", "--out", str(shadow)])
    rho_file = workdir / "rho.json"
    assert main(["reconstruct", "--shadow", str(shadow), "--out",
                 str(rho_file)]) == 0
    capsys.readouterr()
    rho = np.array([[complex(re, im) for re, im in row]
                    for row in json.loads(rho_file.read_text())])
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert main(["reconstruct", "--shadow", str(shadow), "--projector",
                 '{"type": "parity", "epsilon": 1}', "--out",
                 str(rho_file)]) == 0


def test_reconstruct_has_no_prescribed_option(workdir, capsys):
    """Reconstruction reads a shadow the same way under either protocol."""
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", "--shadow", str(workdir / "shadow.txt"),
              "--prescribed", "--out", str(workdir / "rho.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --prescribed" in capsys.readouterr().err


def test_experiment_command_and_config_error(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fig3", "shots": [100, 300],
                               "repeats": 3, "seed": 1}))
    out = workdir / "results.csv"
    assert main(["experiment", "--config", str(cfg), "--out",
                 str(out)]) == 0
    capsys.readouterr()
    header = out.read_text().splitlines()[0]
    assert header == "method,shots,repeat_count,mean,stddev,oracle,seed"
    assert (workdir / "results.config.json").exists()

    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"experiment": "nope"}))
    assert main(["experiment", "--config", str(bad), "--out",
                 str(out)]) == 2


@pytest.mark.parametrize("key, value", [("q", 2.5), ("seed", 1.5),
                                        ("repeats", True),
                                        ("methods", "random")])
def test_experiment_config_of_the_wrong_type_exits_2(workdir, capsys, key,
                                                     value):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fig3", "shots": [100],
                               "repeats": 1, "seed": 1, key: value}))
    out = workdir / "results.csv"
    assert main(["experiment", "--config", str(cfg), "--out",
                 str(out)]) == 2
    assert f"{key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"experiment": "fig3", "projector": "parity"},
    {"experiment": "fig5", "q": 40},
    {"experiment": "fig6", "model": "x"},
    {"experiment": "fig6", "model": {"g": "big"}},
    {"experiment": "fig6", "model": {"g": 1.0, "mu": 0.5}},
    {"experiment": "fig5", "gaussian_squared": "no"},
    {"experiment": "fig3", "projector": {"type": "bogus"}},
    {"experiment": "fig7", "projector": {"type": "spin", "n_p": "10"}},
    {"experiment": "fig6", "projector": {"type": "number", "n0": 5}},
    {"experiment": "fig4", "projector": {"type": "number", "n0": 1}},
    {"experiment": "fig7", "projector": {"type": "spin", "np": 4}},
    {"experiment": "fig4", "projector": {"type": "parity", "epsilon": 1,
                                         "n0": 2}},
    5,
])
def test_experiment_config_errors_exit_2(tmp_path, capsys, config):
    if isinstance(config, dict):
        config = {"q": 2, "shots": [100], "repeats": 1, "seed": 1, **config}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "results.csv"
    assert main(["experiment", "--config", str(cfg), "--out",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("methods", [None, ["counts"]])
def test_fig4_without_targets_exits_2(tmp_path, capsys, methods):
    """At q=2 the default model's H*P_+ is the zero operator: a method that
    measures its terms has nothing to measure."""
    config = {"experiment": "fig4", "q": 2, "shots": [10], "repeats": 1}
    if methods:
        config["methods"] = methods
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "results.csv"
    assert main(["experiment", "--config", str(cfg), "--out",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: q=2: H*P is zero")
    assert "Traceback" not in err
    assert not out.exists()


def test_fig4_random_runs_without_targets(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fig4", "q": 2, "shots": [10],
                               "repeats": 1, "methods": ["random"]}))
    out = tmp_path / "results.csv"
    with pytest.warns(EmptySectorWarning):
        assert main(["experiment", "--config", str(cfg), "--out",
                     str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("random,10,1,")


def test_error_exit_code_on_bad_input(workdir, capsys):
    assert main(["estimate", "--shadow", "/does/not/exist",
                 "--observable", str(workdir / "ham.json")]) == 1


def test_estimate_rejects_bits_outside_zero_one(workdir, capsys):
    shadow = workdir / "bad_shadow.txt"
    shadow.write_text("q=4 M=2 seed=0\nXXZZ 0101\nZZZZ 0120\n")
    capsys.readouterr()
    assert main(["estimate", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json")]) == 1
    captured = capsys.readouterr()
    assert "line 3" in captured.err and "'ZZZZ 0120'" in captured.err
    assert "Traceback" not in captured.err


def test_estimate_names_the_line_of_a_byte_that_is_not_utf8(workdir,
                                                             capsys):
    shadow = workdir / "latin1_shadow.txt"
    shadow.write_bytes(b"q=4 M=2 seed=0\nXXZZ 0101\nZZZZ 010\xe9\n")
    capsys.readouterr()
    assert main(["estimate", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json")]) == 1
    captured = capsys.readouterr()
    assert "line 3: byte 0xe9 is not UTF-8" in captured.err
    assert "Traceback" not in captured.err


def test_acquire_rejects_a_malformed_plan(workdir, capsys):
    plan = workdir / "bad_plan.txt"
    plan.write_text("ZZZZ\nZZQZ\n")
    capsys.readouterr()
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "2", "--plan", str(plan), "--out",
                 str(workdir / "shadow.txt")]) == 1
    captured = capsys.readouterr()
    assert "line 2: basis 'Q'" in captured.err
    assert "Traceback" not in captured.err


def test_acquire_rejects_a_negative_seed(workdir, capsys):
    shadow = workdir / "shadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "5", "--seed", "-1", "--out", str(shadow)]) == 1
    captured = capsys.readouterr()
    # numpy's own message named no seed
    assert "error: seed must be a non-negative integer, got -1" in \
        captured.err
    assert not shadow.exists()


def test_plan_shadow_file_estimates_as_prescribed(workdir, capsys):
    plan = workdir / "plan.txt"
    assert main(["derandomize", "--observables", str(workdir / "ham.json"),
                 "--shots", "200", "--out", str(plan)]) == 0
    shadow = workdir / "dshadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "200", "--seed", "1", "--plan", str(plan),
                 "--out", str(shadow)]) == 0
    capsys.readouterr()
    values = []
    for flags in ([], ["--prescribed"]):
        assert main(["estimate", "--shadow", str(shadow), "--observable",
                     str(workdir / "ham.json")] + flags) == 0
        values.append(last_json(capsys)["estimate"])
    assert values[0] == values[1]


@pytest.mark.parametrize("epsilon", ["nan", "0"])
def test_derandomize_rejects_a_bad_epsilon(workdir, capsys, epsilon):
    assert main(["derandomize", "--observables", str(workdir / "ham.json"),
                 "--shots", "10", "--epsilon", epsilon,
                 "--out", str(workdir / "plan.txt")]) == 1
    assert "epsilon" in capsys.readouterr().err
    assert not (workdir / "plan.txt").exists()


def test_derandomize_exits_2_when_the_plan_leaves_targets_unmeasured(
        workdir, capsys):
    plan = workdir / "plan.txt"
    assert main(["derandomize", "--observables", str(workdir / "ham.json"),
                 "--projector", '{"type": "parity", "epsilon": 1}',
                 "--shots", "3", "--out", str(plan)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: shots=3 is too small for "
                          "derandomized estimation: ")
    assert "target observables would never be measured" in err
    assert not plan.exists()


def test_derandomize_number_sector_zero_targets_the_norm(workdir, capsys):
    # H P_0 has no Pauli terms, but the plan also covers the norm terms of
    # P_0 = prod_j (I + Z_j) / 2, so the target set is not empty
    assert main(["derandomize", "--observables", str(workdir / "ham.json"),
                 "--projector", '{"type": "number", "n0": 0}',
                 "--shots", "10", "--out", str(workdir / "plan.txt")]) == 0
    assert last_json(capsys)["targets"] == 2 ** 4


def test_project_rejects_a_malformed_projector_spec(workdir, capsys):
    shadow = workdir / "shadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "50", "--seed", "2", "--out", str(shadow)]) == 0
    capsys.readouterr()
    assert main(["project", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--projector",
                 '{"type": "number", "n0": 2.5}']) == 1
    captured = capsys.readouterr()
    assert "'n0' must be an integer, got 2.5" in captured.err
    assert "Traceback" not in captured.err


def test_project_rejects_a_misspelled_spec_key(workdir, capsys):
    shadow = workdir / "shadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "50", "--seed", "2", "--out", str(shadow)]) == 0
    capsys.readouterr()
    assert main(["project", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--projector",
                 '{"type": "spin", "s": 1, "m": 0, "np": 4}']) == 1
    captured = capsys.readouterr()
    assert "has no key 'np'" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("spec", ["[1]", '"x"', "3", "null"])
def test_project_rejects_a_projector_spec_that_is_not_an_object(
        workdir, capsys, spec):
    shadow = workdir / "shadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "50", "--seed", "2", "--out", str(shadow)]) == 0
    capsys.readouterr()
    assert main(["project", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--projector", spec]) == 1
    captured = capsys.readouterr()
    assert "projector spec must be a JSON object" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("groups", ["500", "51", "0", "-1"])
def test_estimate_rejects_median_groups_outside_the_shadow(workdir, capsys,
                                                           groups):
    shadow = workdir / "shadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "50", "--seed", "2", "--out", str(shadow)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--shadow", str(shadow), "--observable",
                 str(workdir / "ham.json"), "--median-groups", groups]) == 1
    captured = capsys.readouterr()
    assert f"median_groups must lie in 1..50, got {groups}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ('[{"coeff_re": 1.0, "string": "+1 ZIZI"}]',
     "observable term 0: need an object with coeff_re, coeff_im and string"),
    ('{"coeff_re": 1.0, "coeff_im": 0.0, "string": "+1 ZIZI"}',
     "observable must be a JSON list of terms, got dict"),
    ('[{"coeff_re": 1.0, "coeff_im": 0.0, "string": "+1 IIII"}, '
     '{"coeff_re": NaN, "coeff_im": 0.0, "string": "+1 ZIZI"}]',
     "observable term 1: coefficients must be finite numbers"),
])
def test_estimate_rejects_a_malformed_observable_file(workdir, capsys, text,
                                                      message):
    shadow = workdir / "shadow.txt"
    assert main(["acquire", "--state", str(workdir / "state.json"),
                 "--shots", "50", "--seed", "2", "--out", str(shadow)]) == 0
    obs = workdir / "bad_obs.json"
    obs.write_text(text)
    capsys.readouterr()
    assert main(["estimate", "--shadow", str(shadow), "--observable",
                 str(obs)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("[[1, 0], [NaN, 0]]", "amplitude 1 is not finite"),
    ("[[1, 0], [0, Infinity]]", "amplitude 1 is not finite"),
    ('[[1, "x"], [0, 0]]', "amplitude 0: need a pair [re, im] of numbers"),
    ("[[1, 0, 0], [0, 0]]", "amplitude 0: need a pair [re, im] of numbers"),
    ("[1, 0]", "amplitude 0: need a pair [re, im] of numbers"),
    ('{"re": [1, 0]}', "state must be a JSON list of [re, im] pairs"),
    ("[[1, 0], [1, 0]]", "state not normalized"),
])
def test_acquire_rejects_a_malformed_state_file(tmp_path, capsys, text,
                                                message):
    state = tmp_path / "bad_state.json"
    state.write_text(text)
    shadow = tmp_path / "shadow.txt"
    assert main(["acquire", "--state", str(state), "--shots", "5",
                 "--seed", "1", "--out", str(shadow)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not shadow.exists()


@pytest.mark.parametrize("argv, message", [
    (["product", "--q", "3", "--thetas", "0.1", "0.2"],
     "--thetas needs 3 angles, one per qubit, got 2"),
    (["product", "--q", "2", "--thetas"],
     "--thetas needs 2 angles, one per qubit, got 0"),
    (["gaussian", "--q", "0"], "--q must lie in 1..12, got 0"),
    (["plus", "--q", "-1"], "--q must lie in 1..12, got -1"),
    (["parity-mixture", "--q", "13"], "--q must lie in 1..12, got 13"),
])
def test_state_rejects_a_register_size_it_cannot_honour(tmp_path, capsys,
                                                        argv, message):
    out = tmp_path / "state.json"
    assert main(["state"] + argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_state_product_takes_one_angle_per_qubit(tmp_path, capsys):
    out = tmp_path / "state.json"
    assert main(["state", "product", "--q", "3", "--thetas", "0.1", "0.2",
                 "0.3", "--out", str(out)]) == 0
    assert Statevector.from_json(out.read_text()).num_qubits == 3
