"""Fixtures shared by the reference tests of the array-native paths, and
the test-only references: random plans, the confidence-bound costs of a
plan, Born sampling of one rotated state, and the sandwiched projected
oracle."""

import math

import numpy as np
import pytest

from shadowproj import rng as _rng
from shadowproj.experiments import prepare_fig4_state
from shadowproj.measurement import (MeasurementPlan, _check_epsilon, _weights,
                                    derandomize_plan, group_qwc_rlf,
                                    plan_hit_counts)
from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.projectors import (expand_projected_observable,
                                   projector_from_spec)
from shadowproj.shadows import BASIS_LETTERS, _check_count, acquire_shadow
from shadowproj.paulis import WeightedPauliSum
from shadowproj.statevector import (Statevector, _overlap, _projected,
                                    rotate_to_bases)

# The eight target sets of the fig4 path at q=6: the pairing Hamiltonian
# times the parity and number projectors (n0 = 0 expands to no terms).
BUDGET_Q6_SPECS = ([{"type": "parity", "epsilon": e} for e in (1, -1)]
                   + [{"type": "number", "n0": n} for n in range(1, 7)])


@pytest.fixture(scope="session")
def budget_q6():
    """Per target set: (spec, H, projector, O P, prescribed shadow on a
    2000-round derandomized plan, RLF groups), with the fig4 state."""
    q = 6
    state = prepare_fig4_state(q)
    ham = build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))
    cases = []
    for n, spec in enumerate(BUDGET_Q6_SPECS):
        proj = projector_from_spec(q, spec)
        expanded = expand_projected_observable(ham, proj)
        plan = derandomize_plan([s for _, s in expanded.terms],
                                [abs(c) for c, _ in expanded.terms], 2000)
        shadow = acquire_shadow(state, 2000, 700 + n,
                                bases=plan.bases_sequence)
        cases.append((spec, ham, proj, expanded, shadow,
                      group_qwc_rlf(expanded)))
    return state, cases


def random_plan(num_qubits, shots, seed):
    """A plan of uniform-random bases from the stream (seed, 0x91a7)."""
    _check_count(num_qubits, "num_qubits")
    _check_count(shots)
    gen = _rng.stream(seed, 0x91a7)
    codes = gen.integers(0, 3, size=(shots, num_qubits))
    rows = tuple(tuple(BASIS_LETTERS[c] for c in row) for row in codes)
    return MeasurementPlan(rows)


def plan_cost(plan, obs_list, weights=None, epsilon=0.3):
    """Realized confidence-bound cost sum_i w_i exp(-eps^2/2 * hits_i)."""
    w = _weights(weights, len(obs_list))
    _check_epsilon(epsilon)
    hits = plan_hit_counts(plan, obs_list)
    return float(np.sum(w * np.exp(-epsilon ** 2 / 2 * hits)))


def expected_random_cost(obs_list, shots, weights=None, epsilon=0.3):
    """Expected confidence-bound cost of a uniform-random plan."""
    _check_count(shots)
    w = _weights(weights, len(obs_list))
    _check_epsilon(epsilon)
    nu = 1.0 - math.exp(-epsilon ** 2 / 2)
    locality = np.array([p.weight() for p in obs_list], dtype=float)
    return float(np.sum(w * (1.0 - nu * 3.0 ** (-locality)) ** shots))


def sample_bitstrings(state, bases, shots, gen):
    """(shots, q) outcome bits of ``state`` measured in ``bases``, drawn by
    ``gen.choice`` over its rotated probabilities; column j is qubit j."""
    probs = rotate_to_bases(state, bases).probabilities()
    idx = gen.choice(probs.size, size=shots, p=probs)
    q = state.num_qubits
    return ((idx[:, None] >> np.arange(q)) & 1).astype(np.uint8)


class EmptySectorError(ValueError):
    """Projection norm too small for a meaningful projected expectation."""


def exact_projected_expectation(state: Statevector, obs: WeightedPauliSum,
                                proj: np.ndarray) -> tuple[float, float]:
    """(<psi|P O P|psi>, <psi|P|psi>) for an idempotent Hermitian P."""
    proj, phi, norm = _projected(state, proj)
    if np.max(np.abs(proj @ proj - proj)) > 1e-10:
        raise ValueError("projector is not idempotent within tolerance")
    if np.max(np.abs(proj - proj.conj().T)) > 1e-10:
        raise ValueError("projector is not Hermitian within tolerance")
    if norm < 1e-12:
        raise EmptySectorError(f"projected norm {norm} below 1e-12")
    total = _overlap(phi, phi, obs)
    if abs(total.imag) > 1e-10:
        raise ValueError(f"non-Hermitian projected expectation: {total.imag}")
    return float(total.real), norm
