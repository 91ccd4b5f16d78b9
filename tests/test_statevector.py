import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowproj import rng as _rng
from shadowproj.paulis import PAULI_MATRICES, PauliString, WeightedPauliSum
from shadowproj.projectors import exact_number_projector, exact_parity_projector
from conftest import (EmptySectorError, exact_projected_expectation,
                      sample_bitstrings)
from shadowproj.statevector import (H, Statevector, apply_gate,
                                    exact_expectation, exact_projected_linear,
                                    prepare_basis_state, prepare_gaussian,
                                    prepare_parity_mixture,
                                    prepare_product_state, rotate_to_bases)
from shadowproj.statevector import _overlap, _projected

# Exact particle-number probabilities of the default q=4 Gaussian profile
# (first-power exponent, mu = 7.5, sigma = 2.5), frozen from the diagonal
# projector oracle below.
GAUSSIAN_Q4_SECTOR_PROBS = [
    0.3302286477758831,
    0.44987304023456026,
    0.191901334759927,
    0.02717842225015773,
    0.0008185549794720585,
]


def random_state(q, seed=0):
    gen = np.random.default_rng(seed)
    v = gen.normal(size=2 ** q) + 1j * gen.normal(size=2 ** q)
    return Statevector(v / np.linalg.norm(v))


def test_statevector_requires_normalization():
    with pytest.raises(ValueError):
        Statevector(np.array([1.0, 1.0], dtype=complex))


def test_statevector_enforces_qubit_ceiling():
    with pytest.raises(ValueError):
        Statevector(np.zeros(2 ** 13, dtype=complex))


@pytest.mark.parametrize("prepare", [
    prepare_basis_state, prepare_gaussian,
    lambda q: prepare_parity_mixture(q, 0.5)])
def test_preparers_check_the_ceiling_before_allocating(prepare):
    """q=40 would need 2^40 amplitudes (16 TiB), so only a check made before
    the allocation gives this error."""
    with pytest.raises(ValueError, match="q=40 exceeds the dense ceiling"):
        prepare(40)


def test_gaussian_flat_limit():
    state = prepare_gaussian(1, mu=0.0, sigma=1e12)
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-9)


def test_gaussian_is_normalized():
    state = prepare_gaussian(2, mu=1.5, sigma=0.5)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


def test_gaussian_q4_sector_probabilities_match_frozen_oracle():
    """Red-dot targets: diagonal projectors applied to the prepared vector."""
    state = prepare_gaussian(4)
    k = np.arange(16)
    ones = np.array([bin(v).count("1") for v in k])
    probs_direct = [float(np.sum(np.abs(state.amplitudes[ones == n]) ** 2))
                    for n in range(5)]
    ident = WeightedPauliSum.identity(4)
    for n in range(5):
        via_proj = exact_projected_linear(state, ident,
                                          exact_number_projector(4, n))[1]
        assert abs(via_proj - probs_direct[n]) < 1e-12
        assert abs(via_proj - GAUSSIAN_Q4_SECTOR_PROBS[n]) < 1e-9


def test_gaussian_squared_variant_is_symmetric():
    state = prepare_gaussian(4, squared=True)
    p = state.probabilities()
    assert np.allclose(p, p[::-1], atol=1e-12)


def test_apply_hadamard():
    state = apply_gate(prepare_basis_state(1), H, 0)
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)


def test_fig2_state_is_uniform():
    state = prepare_basis_state(2)
    for j in range(2):
        state = apply_gate(state, H, j)
    assert np.allclose(state.amplitudes, [0.5] * 4)


def test_apply_z_flips_relative_sign():
    plus = apply_gate(prepare_basis_state(1), H, 0)
    minus = apply_gate(plus, PAULI_MATRICES["Z"], 0)
    assert np.allclose(minus.amplitudes,
                       [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_apply_cnot_ordering():
    # targets[0] is the control (most significant gate index)
    state = prepare_basis_state(2, 0b01)   # qubit 0 set
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    flipped = apply_gate(state, cnot, (0, 1))
    assert np.argmax(np.abs(flipped.amplitudes)) == 0b11


def test_apply_gate_rejects_out_of_range_target():
    with pytest.raises(IndexError):
        apply_gate(prepare_basis_state(1), H, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_unitary_gates_preserve_norm(seed):
    state = random_state(3, seed)
    gen = np.random.default_rng(seed + 1)
    m = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
    unitary, _ = np.linalg.qr(m)
    out = apply_gate(state, unitary, int(gen.integers(0, 3)))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


def test_exact_expectation_examples():
    zero = prepare_basis_state(1)
    z_obs = WeightedPauliSum(1, ((1.0, PauliString(("Z",))),))
    assert exact_expectation(zero, z_obs) == pytest.approx(1.0)

    one = prepare_basis_state(1, 1)
    half_diff = WeightedPauliSum(1, ((0.5, PauliString(("Z",))),
                                     (-0.5, PauliString(("I",)))))
    assert exact_expectation(one, half_diff) == pytest.approx(-1.0)

    bell = Statevector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    xx = WeightedPauliSum(2, ((1.0, PauliString(("X", "X"))),))
    assert exact_expectation(bell, xx) == pytest.approx(1.0)


def test_exact_expectation_rejects_non_hermitian():
    state = prepare_basis_state(1)
    obs = WeightedPauliSum(1, ((1j, PauliString(("Z",))),))
    with pytest.raises(ValueError):
        exact_expectation(state, obs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_expectation_bounded_by_coefficient_sum(seed):
    state = random_state(2, seed)
    gen = np.random.default_rng(seed)
    terms = tuple(
        (float(gen.normal()),
         PauliString(tuple(gen.choice(list("IXYZ"), 2))))
        for _ in range(4))
    obs = WeightedPauliSum(2, terms)
    bound = np.abs(obs.coeffs).sum()
    assert abs(exact_expectation(state, obs)) <= bound + 1e-10


def test_projected_expectation_even_projector_on_00():
    state = prepare_basis_state(2)
    ident = WeightedPauliSum.identity(2)
    num, norm = exact_projected_expectation(state, ident,
                                            exact_parity_projector(2, 1))
    assert num == pytest.approx(1.0)
    assert norm == pytest.approx(1.0)


def test_projected_expectation_parity_mixture_norm():
    state = prepare_parity_mixture(4, 0.3, seed=9)
    ident = WeightedPauliSum.identity(4)
    _, norm = exact_projected_expectation(state, ident,
                                          exact_parity_projector(4, 1))
    assert norm == pytest.approx(0.3, abs=1e-12)


def test_projected_expectation_identity_projector_reduces():
    state = random_state(3, 4)
    gen = np.random.default_rng(4)
    obs = WeightedPauliSum(3, tuple(
        (float(gen.normal()), PauliString(tuple(gen.choice(list("IXYZ"), 3))))
        for _ in range(3)))
    num, norm = exact_projected_expectation(state, obs, np.eye(8))
    assert norm == pytest.approx(1.0, abs=1e-10)
    assert num == pytest.approx(exact_expectation(state, obs), abs=1e-10)


def test_projected_expectation_rejects_non_idempotent():
    state = prepare_basis_state(2)
    with pytest.raises(ValueError):
        exact_projected_expectation(state, WeightedPauliSum.identity(2),
                                    0.5 * np.eye(4))


def test_projected_expectation_empty_sector():
    state = prepare_basis_state(2)  # two 0-bits: even parity
    with pytest.raises(EmptySectorError):
        exact_projected_expectation(state, WeightedPauliSum.identity(2),
                                    exact_parity_projector(2, -1))


def test_projected_linear_agrees_for_idempotent_commuting_case():
    state = prepare_gaussian(4)
    obs = WeightedPauliSum(4, ((1.0, PauliString(("Z", "I", "Z", "I"))),))
    proj = exact_number_projector(4, 2)
    sandwich = exact_projected_expectation(state, obs, proj)
    linear = exact_projected_linear(state, obs, proj)
    assert sandwich[0] == pytest.approx(linear[0], abs=1e-10)
    assert sandwich[1] == pytest.approx(linear[1], abs=1e-10)


def test_projected_pairing_energy_fixture():
    """The two-pair-sector energy numerator of the default Gaussian state,
    frozen from the dense oracle (the convergence target of the
    pair-number experiment)."""
    from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
    state = prepare_gaussian(4)
    ham = build_pairing_hamiltonian(PairingSpec(4, 1.0, 1.0))
    proj = exact_number_projector(4, 2)
    num, norm = exact_projected_expectation(state, ham, proj)
    assert num == pytest.approx(-0.2612891272887364, abs=1e-10)
    assert norm == pytest.approx(GAUSSIAN_Q4_SECTOR_PROBS[2], abs=1e-10)
    assert exact_projected_linear(state, ham, proj)[0] == pytest.approx(
        num, abs=1e-10)


def reference_apply_pauli(amps, string):
    """``string`` applied to ``amps`` as the oracle did it before the
    bit-mask form: one tensordot per support qubit."""
    q = string.num_qubits
    psi = amps.reshape((2,) * q)
    for j in string.support():
        axis = q - 1 - j
        psi = np.moveaxis(psi, axis, 0)
        psi = np.tensordot(PAULI_MATRICES[string.letters[j]], psi,
                           axes=(1, 0))
        psi = np.moveaxis(psi, 0, axis)
    return string.phase * psi.reshape(-1)


def reference_overlap(bra, ket, obs):
    return sum(coeff * np.vdot(bra, reference_apply_pauli(ket, string))
               for coeff, string in obs.terms)


@pytest.mark.parametrize("q", range(1, 7))
def test_overlap_matches_the_per_string_reference(q):
    gen = np.random.default_rng(60 + q)
    sums = [WeightedPauliSum(q), WeightedPauliSum.identity(q, 0.5 - 2j),
            WeightedPauliSum(q, [(complex(*gen.normal(size=2)),
                                  PauliString.single(q, j, "Y"))
                                 for j in range(q)])]
    sums += [WeightedPauliSum.from_arrays(
        q, gen.integers(0, 4, size=(size, q)),
        gen.normal(size=size) + 1j * gen.normal(size=size))
        for size in (1, 5, 40)]
    bra, ket = random_state(q, 2 * q).amplitudes, random_state(q, 2 * q + 1)
    proj = exact_number_projector(q, q // 2)
    phi = proj @ ket.amplitudes
    for obs in sums:
        tol = 1e-12 * np.abs(obs.coeffs).sum()
        for left, right in ((bra, ket.amplitudes), (phi, phi),
                            (ket.amplitudes, phi)):
            assert abs(_overlap(left, right, obs)
                       - reference_overlap(left, right, obs)) <= tol
        assert abs(exact_projected_linear(ket, obs, proj)[0]
                   - reference_overlap(ket.amplitudes, phi, obs).real) <= tol
        hermitian = WeightedPauliSum.from_arrays(q, obs.codes,
                                                 obs.coeffs.real)
        assert abs(exact_expectation(ket, hermitian)
                   - reference_overlap(ket.amplitudes, ket.amplitudes,
                                       hermitian).real) <= tol


@pytest.mark.parametrize("oracle", [
    exact_expectation,
    lambda state, obs: exact_projected_expectation(state, obs, np.eye(8)),
    lambda state, obs: exact_projected_linear(state, obs, np.eye(8)),
])
def test_oracles_reject_an_observable_of_another_qubit_count(oracle):
    with pytest.raises(ValueError,
                       match="observable acts on 2 qubits, the state on 3"):
        oracle(random_state(3), WeightedPauliSum.identity(2))


@pytest.mark.parametrize("oracle", [exact_projected_expectation,
                                    exact_projected_linear])
def test_oracles_reject_a_projector_of_the_wrong_shape(oracle):
    message = "projector shape (4, 4) does not match the 3-qubit state"
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle(random_state(3), WeightedPauliSum.identity(3), np.eye(4))


def test_sample_born_frequencies():
    zero = prepare_basis_state(1)
    gen = _rng.stream(2024)
    bits = sample_bitstrings(zero, ["X"], 10_000, gen)
    freq = bits.mean()
    assert abs(freq - 0.5) < 0.02


def test_rotate_to_bases_requires_letter_per_qubit():
    with pytest.raises(ValueError):
        rotate_to_bases(prepare_basis_state(2), ["Z"])


def test_product_state_matches_kron():
    thetas = [0.3, 1.1]
    state = prepare_product_state(thetas)
    q0 = np.array([math.cos(0.15), math.sin(0.15)])
    q1 = np.array([math.cos(0.55), math.sin(0.55)])
    assert np.allclose(state.amplitudes, np.kron(q1, q0), atol=1e-12)


def test_state_json_roundtrip():
    state = random_state(3, 8)
    again = Statevector.from_json(state.to_json())
    assert np.allclose(again.amplitudes, state.amplitudes, atol=1e-15)


@pytest.mark.parametrize("amps", [[1, np.nan], [np.inf, 0],
                                  [1, complex(0, np.nan)], [np.nan] * 4])
def test_statevector_rejects_non_finite_amplitudes(amps):
    with pytest.raises(ValueError, match="is not finite"):
        Statevector(np.array(amps, dtype=complex))


@pytest.mark.parametrize("text, message", [
    ("[[1, 0], [NaN, 0]]", "amplitude 1 is not finite"),
    ('[[1, "x"], [0, 0]]', "amplitude 0: need a pair"),
    ("[[1, 0], [0, 0, 0]]", "amplitude 1: need a pair"),
    ("[[1, 0], [true, 0]]", "amplitude 1: need a pair"),
    ("[[1, 0], null]", "amplitude 1: need a pair"),
    ("[[1e999, 0], [0, 0]]", "amplitude 0 is not finite"),
    ("[[1" + "0" * 400 + ", 0], [0, 0]]", "amplitude 0: .* is out of range"),
    ('"state"', "state must be a JSON list"),
    ("[]", "amplitude count must be a power of two"),
])
def test_state_json_rejects_malformed_entries(text, message):
    with pytest.raises(ValueError, match=message):
        Statevector.from_json(text)


def test_diagonal_projection_is_exact():
    state = prepare_gaussian(6)
    for n0 in range(7):
        proj = exact_number_projector(6, n0)
        _, phi, _ = _projected(state, proj)
        assert np.array_equal(phi, np.diag(proj) * state.amplitudes)


def test_q10_oracle_bits_do_not_depend_on_blas_threads():
    # 46 masks x 1024 amplitudes: one np.vdot over them all would be split
    # over OpenBLAS's threads
    code = ("from shadowproj.pairing import PairingSpec, "
            "build_pairing_hamiltonian\n"
            "from shadowproj.projectors import exact_number_projector\n"
            "from shadowproj.statevector import exact_projected_linear, "
            "prepare_gaussian\n"
            "num, norm = exact_projected_linear(prepare_gaussian(10), "
            "build_pairing_hamiltonian(PairingSpec(10, 1.0, 1.0)), "
            "exact_number_projector(10, 5))\n"
            "print(num.hex(), norm.hex())")
    src = Path(_rng.__file__).parents[1]
    outs = {subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True, cwd=src,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": n}
                           ).stdout for n in ("1", "2")}
    assert len(outs) == 1
