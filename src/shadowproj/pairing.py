"""Pairing (picket-fence) Hamiltonian in the seniority-zero pair encoding.

One qubit per doubly degenerate level: |1> on qubit i means level i holds a
time-reversed pair. With equidistant levels eps_i = i * delta_eps the
Hamiltonian is

    H = sum_i 2 eps_i n_i - g sum_ij Pdag_i P_j,

where Pdag_i = (X_i - i Y_i)/2 raises qubit i, n_i = (I - Z_i)/2, and the
unrestricted ij sum keeps the diagonal i = j term (a -g n_i level shift).
All resulting Pauli terms act on at most two qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paulis import PauliString, WeightedPauliSum


@dataclass(frozen=True)
class PairingSpec:
    """q doubly degenerate levels, spacing delta_eps, pair coupling g."""

    q: int
    delta_eps: float = 1.0
    g: float = 0.0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one level")

    def level_energy(self, i: int) -> float:
        return i * self.delta_eps


def build_pairing_hamiltonian(spec: PairingSpec) -> WeightedPauliSum:
    """Qubit form of the pairing Hamiltonian.

    Expansion of the definition above:
    sum_i (2 eps_i - g) (I - Z_i)/2  -  (g/2) sum_{i<j} (X_i X_j + Y_i Y_j).
    """
    q = spec.q
    terms: list[tuple[complex, PauliString]] = []
    for i in range(q):
        level = 2 * spec.level_energy(i) - spec.g
        terms.append((level / 2, PauliString.identity(q)))
        terms.append((-level / 2, PauliString.single(q, i, "Z")))
    for i in range(q):
        for j in range(i + 1, q):
            for letter in ("X", "Y"):
                letters = ["I"] * q
                letters[i] = letter
                letters[j] = letter
                terms.append((-spec.g / 2, PauliString(tuple(letters))))
    return WeightedPauliSum(q, tuple(terms))


def pairing_dense(spec: PairingSpec) -> np.ndarray:
    """Dense matrix of the qubit Hamiltonian."""
    return build_pairing_hamiltonian(spec).to_matrix()


def exact_sector_ground_energy(spec: PairingSpec, n_pairs: int) -> float:
    """Minimum eigenvalue within the fixed-pair-number subspace."""
    if not 0 <= n_pairs <= spec.q:
        raise ValueError(f"n_pairs={n_pairs} outside 0..{spec.q}")
    dense = pairing_dense(spec)
    idx = np.flatnonzero(np.bitwise_count(np.arange(2 ** spec.q)) == n_pairs)
    block = dense[np.ix_(idx, idx)]
    return float(np.linalg.eigvalsh(block)[0])
