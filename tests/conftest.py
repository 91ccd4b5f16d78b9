"""Fixtures shared by the reference tests of the array-native paths."""

import pytest

from shadowproj.experiments import prepare_fig4_state
from shadowproj.measurement import derandomize_plan, group_qwc_rlf
from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.projectors import (expand_projected_observable,
                                   projector_from_spec)
from shadowproj.shadows import acquire_shadow

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
