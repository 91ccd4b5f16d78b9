"""Dense statevector simulation for small registers.

Ground truth for everything else: state preparation, gate application,
exact (projected) expectation values and exact Born-rule sampling in
rotated measurement bases. Amplitude index k encodes the bitstring
b_{q-1}..b_0 with qubit 0 as the least significant bit.

Each exact expectation is one overlap sum_m sum_x conj(bra[x ^ m]) d_m[x]
ket[x] in the bit-mask form of :mod:`paulis`, whose (masks, 2^q) array is
never larger than the dense 2^q x 2^q projector the projected oracles take.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as _rng
from .paulis import PAULI_MATRICES, WeightedPauliSum, _mask_form

MAX_QUBITS = 12
NORM_TOLERANCE = 1e-10

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)
S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
SDG = S.conj().T
I2 = PAULI_MATRICES["I"]

# Basis-change unitaries U applied before a computational-basis measurement,
# chosen so that U^dag Z U is the measured Pauli: H for X, H S^dag for Y.
BASIS_ROTATIONS = {"X": H, "Y": H @ SDG, "Z": I2}


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def phase_gate(phi: float) -> np.ndarray:
    """diag(1, e^{i phi}); the authoritative definition of Q(phi)."""
    return np.diag([1.0, np.exp(1j * phi)])


class EmptySectorError(ValueError):
    """Projection norm too small for a meaningful projected expectation."""


@dataclass(frozen=True)
class Statevector:
    """Normalized amplitude vector over 2**num_qubits basis states."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError("amplitude count must be a power of two >= 2")
        _dimension(amps.size.bit_length() - 1)
        bad = np.flatnonzero(~np.isfinite(amps))
        if bad.size:
            raise ValueError(f"amplitude {bad[0]} is not finite: "
                             f"{amps[bad[0]]}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amplitudes) ** 2
        return p / p.sum()

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_json(self) -> str:
        return json.dumps([[a.real, a.imag] for a in self.amplitudes])

    @classmethod
    def from_json(cls, text: str) -> "Statevector":
        """Parse :meth:`to_json` output: a list of [re, im] pairs of finite
        numbers. ValueError names the first malformed entry."""
        pairs = json.loads(text)
        if not isinstance(pairs, list):
            raise ValueError("state must be a JSON list of [re, im] pairs, "
                             f"got {type(pairs).__name__}")
        amps = []
        for n, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in pair)):
                raise ValueError(f"amplitude {n}: need a pair [re, im] of "
                                 f"numbers, got {pair!r}")
            try:
                amps.append(complex(*pair))
            except OverflowError:
                raise ValueError(f"amplitude {n}: {pair!r} is out of "
                                 "range") from None
        return cls(np.array(amps, dtype=complex))


def _dimension(q: int) -> int:
    """2**q for q in 1..MAX_QUBITS, checked before any allocation."""
    if q < 1:
        raise ValueError("amplitude count must be a power of two >= 2")
    if q > MAX_QUBITS:
        raise ValueError(f"q={q} exceeds the dense ceiling of {MAX_QUBITS}")
    return 2 ** q


def prepare_basis_state(num_qubits: int, index: int = 0) -> Statevector:
    amps = np.zeros(_dimension(num_qubits), dtype=complex)
    amps[index] = 1.0
    return Statevector(amps)


def prepare_gaussian(num_qubits: int, mu: float | None = None,
                     sigma: float | None = None,
                     squared: bool = False) -> Statevector:
    """Gaussian-profile amplitudes over the register index k.

    The default exponent is the first power of (k - mu)/sigma; pass
    ``squared=True`` for the conventional squared form. Defaults follow
    mu = (2**q - 1)/2 and sigma = mu/3.
    """
    if mu is None:
        mu = (2 ** num_qubits - 1) / 2
    if sigma is None:
        sigma = mu / 3
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k = np.arange(_dimension(num_qubits), dtype=float)
    arg = (k - mu) / sigma
    if squared:
        arg = arg ** 2
    amps = np.exp(-0.5 * arg).astype(complex)
    return Statevector(amps / np.linalg.norm(amps))


def prepare_product_state(thetas: Sequence[float]) -> Statevector:
    """Product state ry(theta_j)|0> on each qubit j."""
    amps = np.array([1.0 + 0j])
    for theta in reversed(list(thetas)):
        qubit = np.array([math.cos(theta / 2), math.sin(theta / 2)],
                         dtype=complex)
        amps = np.kron(amps, qubit)
    return Statevector(amps)


def prepare_parity_mixture(num_qubits: int, p_even: float,
                           seed: int = 0) -> Statevector:
    """Pseudo-random state with an exact even-parity probability ``p_even``."""
    if not 0.0 < p_even < 1.0:
        raise ValueError("p_even must be strictly between 0 and 1")
    ones = np.bitwise_count(np.arange(_dimension(num_qubits)))
    gen = _rng.stream(seed, 0x5747)
    vec = gen.normal(size=ones.size) + 1j * gen.normal(size=ones.size)
    even = vec * (ones % 2 == 0)
    odd = vec * (ones % 2 == 1)
    even /= np.linalg.norm(even)
    odd /= np.linalg.norm(odd)
    return Statevector(math.sqrt(p_even) * even + math.sqrt(1 - p_even) * odd)


def apply_gate(state: Statevector, matrix: np.ndarray,
               targets: int | Sequence[int]) -> Statevector:
    """Apply a k-qubit gate; targets[0] is the gate's most significant index."""
    if isinstance(targets, (int, np.integer)):
        targets = (int(targets),)
    targets = tuple(int(t) for t in targets)
    q = state.num_qubits
    if any(t < 0 or t >= q for t in targets):
        raise IndexError(f"target out of range for q={q}: {targets}")
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate targets")
    t = len(targets)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2 ** t, 2 ** t):
        raise ValueError(f"gate shape {matrix.shape} does not match targets")
    psi = state.amplitudes.reshape((2,) * q)
    axes = [q - 1 - j for j in targets]
    psi = np.moveaxis(psi, axes, range(t))
    rest = psi.shape[t:]
    psi = (matrix @ psi.reshape(2 ** t, -1)).reshape((2,) * t + rest)
    psi = np.moveaxis(psi, range(t), axes)
    return Statevector(psi.reshape(-1))


def _overlap(bra: np.ndarray, ket: np.ndarray,
             obs: WeightedPauliSum) -> complex:
    """<bra|O|ket> = sum_m sum_x conj(bra[x ^ m]) d_m[x] ket[x]."""
    if obs.num_qubits != ket.size.bit_length() - 1:
        raise ValueError(f"observable acts on {obs.num_qubits} qubits, the "
                         f"state on {ket.size.bit_length() - 1}")
    masks, diagonals = _mask_form(obs)
    diagonals *= ket
    x = np.arange(ket.size)
    return complex(np.vdot(bra[x ^ masks[:, None]], diagonals))


def _projected(state: Statevector, proj) -> tuple:
    """(P, P|psi>, <psi|P|psi>) for a dense P of the state's dimension."""
    proj = np.asarray(proj, dtype=complex)
    if proj.shape != (state.amplitudes.size,) * 2:
        raise ValueError(f"projector shape {proj.shape} does not match the "
                         f"{state.num_qubits}-qubit state")
    phi = proj @ state.amplitudes
    return proj, phi, float(np.vdot(state.amplitudes, phi).real)


def exact_expectation(state: Statevector, obs: WeightedPauliSum) -> float:
    """sum_a gamma_a <psi|O_a|psi>; raises if the result is not real."""
    total = _overlap(state.amplitudes, state.amplitudes, obs)
    if abs(total.imag) > 1e-10:
        raise ValueError(f"non-Hermitian expectation: imag = {total.imag}")
    return float(total.real)


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


def exact_projected_linear(state: Statevector, obs: WeightedPauliSum,
                           proj: np.ndarray) -> tuple[float, float]:
    """(Tr[O P rho], Tr[P rho]) with a single projector application.

    This is the quantity the shadow-side projected estimator targets. For an
    exactly idempotent P commuting with O it coincides with
    :func:`exact_projected_expectation`; for a discretized projector it is
    the honest linear functional of that matrix.
    """
    _, phi, norm = _projected(state, proj)
    return float(_overlap(state.amplitudes, phi, obs).real), norm


def rotate_to_bases(state: Statevector, bases: Sequence[str]) -> Statevector:
    """Apply the per-qubit basis-change unitary (H, H S^dag or I)."""
    if len(bases) != state.num_qubits:
        raise ValueError("need one basis letter per qubit")
    out = state
    for j, basis in enumerate(bases):
        if basis == "Z":
            continue
        out = apply_gate(out, BASIS_ROTATIONS[basis], j)
    return out

