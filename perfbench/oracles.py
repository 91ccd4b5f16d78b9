"""Reference values computed apart from the program.

Nothing here calls the program's projector, Pauli-algebra or estimator
code. Operators are built from plain numpy matrices: total-spin matrices
from Pauli kron products, the pairing Hamiltonian from its second-quantized
formula, parity and number projectors from bit counts. Shadow estimates
are computed directly from snapshot letters and bits: the plain
inverse-channel estimate of a Pauli sum, and the same estimator of a dense
operator from dense snapshot densities. Qubit 0 is the least significant
bit of a basis index, and |1> is the occupied state, as in the program.
"""

from __future__ import annotations

import math

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_RAISE = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
_BASIS = {"X": 0, "Y": 1, "Z": 2}


def on_qubit(num_qubits: int, qubit: int, op: np.ndarray) -> np.ndarray:
    """``op`` on one qubit, identity elsewhere; qubit 0 is the last factor."""
    out = np.eye(1, dtype=complex)
    for j in reversed(range(num_qubits)):
        out = np.kron(out, op if j == qubit else np.eye(2))
    return out


def popcounts(num_qubits: int) -> np.ndarray:
    idx = np.arange(2 ** num_qubits)
    return ((idx[:, None] >> np.arange(num_qubits)) & 1).sum(axis=1)


def number_projector(num_qubits: int, n0: int) -> np.ndarray:
    return np.diag((popcounts(num_qubits) == n0).astype(complex))


def parity_projector(num_qubits: int, epsilon: int) -> np.ndarray:
    parity = 1 - 2 * (popcounts(num_qubits) % 2)
    return np.diag((parity == epsilon).astype(complex))


def pairing_hamiltonian(num_qubits: int, delta_eps: float,
                        g: float) -> np.ndarray:
    """H = sum_i 2 eps_i n_i - g sum_ij Pdag_i P_j with eps_i = i delta_eps."""
    raises = [on_qubit(num_qubits, i, _RAISE) for i in range(num_qubits)]
    ham = np.zeros_like(raises[0])
    for i, up in enumerate(raises):
        ham += 2 * i * delta_eps * (up @ up.conj().T)
        for down in raises:
            ham -= g * up @ down.conj().T
    return ham


def _spin_irrep_jy(s: float) -> np.ndarray:
    """J_y of the spin-s irrep in the basis m = s, s-1, ..., -s."""
    ms = s - np.arange(round(2 * s) + 1)
    jp = np.zeros((ms.size, ms.size))
    for k in range(1, ms.size):
        m = ms[k]
        jp[k - 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    return (jp - jp.T) / 2j


def _small_d_diag(s: float, m: float, beta: float) -> float:
    """<s m| exp(-i beta J_y) |s m> from the irrep's own eigenbasis."""
    vals, vecs = np.linalg.eigh(_spin_irrep_jy(s))
    k = round(s - m)
    row = vecs[k]
    return float((row * np.exp(-1j * beta * vals) @ row.conj()).real)


def midpoint_spin_projector(num_qubits: int, s: float, m: float,
                            n_points: int) -> np.ndarray:
    """The n_points**3 midpoint-mesh rotation-group projector as a matrix.

    P = (2s+1)/(8 pi^2) dA dB dG sum sin(b) conj(D^s_mm(a, b, g)) R(a, b, g)
    with R = exp(-i a S_z) exp(-i b S_y) exp(-i g S_z). The a and g sums
    factor out of the mesh, so P = A B A with A diagonal.
    """
    s_y = sum(on_qubit(num_qubits, j, _PAULI["Y"])
              for j in range(num_qubits)) / 2
    s_z = np.real(np.diag(sum(on_qubit(num_qubits, j, _PAULI["Z"])
                              for j in range(num_qubits)))) / 2
    d_ang = 2 * math.pi / n_points
    d_beta = math.pi / n_points
    nodes = np.arange(n_points) + 0.5
    side = sum(np.exp(1j * a * (m - s_z)) for a in nodes * d_ang)
    vals, vecs = np.linalg.eigh(s_y)
    middle = np.zeros_like(s_y)
    for b in nodes * d_beta:
        rot = (vecs * np.exp(-1j * b * vals)) @ vecs.conj().T
        middle += math.sin(b) * _small_d_diag(s, m, b) * rot
    norm = (2 * s + 1) / (8 * math.pi ** 2) * d_ang * d_beta * d_ang
    return norm * side[:, None] * middle * side[None, :]


def expectation(state: np.ndarray, op: np.ndarray) -> float:
    """Re <psi|op|psi>."""
    return float(np.vdot(state, op @ state).real)


def pauli_codes(letter_rows) -> np.ndarray:
    """(L, q) basis codes of letter tuples (qubit j at index j), -1 for I."""
    return np.array([[_BASIS.get(c, -1) for c in row] for row in letter_rows],
                    dtype=np.int8).reshape(len(letter_rows), -1)


def snapshot_arrays(snapshots) -> tuple[np.ndarray, np.ndarray]:
    """(bases, bits) as (M, q) int8 arrays from snapshot objects."""
    codes = pauli_codes([s.bases for s in snapshots])
    bits = np.array([s.outcome for s in snapshots], dtype=np.int8)
    return codes, bits


def plain_shadow_estimate(codes: np.ndarray, bits: np.ndarray,
                          terms) -> float:
    """Inverse-channel estimate sum_a c_a mean_n prod_j 3 (-1)^b [basis]."""
    sign3 = 3.0 * (1 - 2 * bits.astype(float))
    total = 0j
    for coeff, letters in terms:
        vals = np.ones(codes.shape[0])
        for j, letter in enumerate(letters):
            if letter != "I":
                vals *= sign3[:, j] * (codes[:, j] == _BASIS[letter])
        total += coeff * vals.mean()
    return float(total.real)


def linear_shadow_estimates(codes: np.ndarray, bits: np.ndarray,
                            operators: list) -> np.ndarray:
    """Mean over snapshots of Tr[A rho_n] for each matrix A, where
    rho_n = (x)_j (I + 3 (-1)^b_j sigma_j) / 2 is the inverted-channel
    snapshot density, summed once per distinct snapshot."""
    keys, counts = np.unique(np.hstack([codes, bits]), axis=0,
                             return_counts=True)
    q = codes.shape[1]
    sigma = np.stack([_PAULI["X"], _PAULI["Y"], _PAULI["Z"]])
    signs = 1 - 2 * keys[:, q:].astype(float)
    factors = (np.eye(2) + 3 * signs[:, :, None, None]
               * sigma[keys[:, :q]]) / 2
    rho = factors[:, q - 1]
    for j in reversed(range(q - 1)):
        dim = 2 * rho.shape[1]
        rho = np.einsum("kab,kcd->kacbd", rho, factors[:, j]).reshape(
            -1, dim, dim)
    ops = np.asarray(operators).reshape(len(operators), -1)
    traces = ops @ rho.transpose(0, 2, 1).reshape(rho.shape[0], -1).T
    return (traces @ counts).real / codes.shape[0]


def compatibility(term_codes: np.ndarray, round_codes: np.ndarray
                  ) -> np.ndarray:
    """(L, R) mask: round r measures every qubit of term i in its basis."""
    free = term_codes[:, None, :] < 0
    same = term_codes[:, None, :] == round_codes[None, :, :]
    return (free | same).all(axis=2)


def conflict_pairs(term_codes: np.ndarray) -> int:
    """Pairs of terms that are not qubit-wise commuting."""
    both = (term_codes[:, None, :] >= 0) & (term_codes[None, :, :] >= 0)
    clash = both & (term_codes[:, None, :] != term_codes[None, :, :])
    return int(clash.any(axis=2).sum()) // 2


def log_sum_exp(values: np.ndarray) -> float:
    peak = float(np.max(values))
    return peak + math.log(float(np.sum(np.exp(values - peak))))
