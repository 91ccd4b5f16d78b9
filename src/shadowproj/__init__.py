"""Symmetry-projected expectation values from classical shadows.

The workflow: prepare a symmetry-breaking state on the dense simulator,
collect a classical shadow of it, then read off expectation values on any
symmetry-restored sector (parity, particle number, total spin) in classical
post-processing, optionally with derandomized measurement bases or the
direct-counts baseline for comparison.
"""

from .paulis import (PauliString, WeightedPauliSum, decompose_2x2, multiply,
                     multiply_sums, qwc_commutes)
from .statevector import (Statevector, apply_gate, exact_expectation,
                          exact_projected_expectation, exact_projected_linear,
                          prepare_basis_state, prepare_gaussian,
                          prepare_parity_mixture, prepare_product_state)
from .shadows import (ClassicalShadow, Snapshot, acquire_shadow, estimate,
                      load_shadow, qubit_trace_factor, reconstruct_density,
                      save_shadow)
from .projectors import (ProjectorLCU, expand_projected_observable,
                         number_projector, parity_projector,
                         projected_estimate, projected_estimate_sectors,
                         spin_projector, wigner_small_d)
from .measurement import (MeasurementPlan, ObservableGroup,
                          derandomize_plan, direct_counts_estimate,
                          group_qwc_rlf)
from .pairing import PairingSpec, build_pairing_hamiltonian
from .experiments import ExperimentConfig, run_experiment, write_results

__version__ = "0.1.0"
