"""Symmetry projectors as linear combinations of tensor-product unitaries,
and projected expectation values over classical shadows.

Each projector is stored as sum_k beta_k (x)_j G_k^j with every single-qubit
gate G kept by its four Pauli coefficients. Estimation over a shadow then
factorizes per qubit: the observable letter multiplies each gate's Pauli
expansion, and every product letter feeds the same {0, 1, +-3} trace kernel
used for plain estimation. All sector information lives in the beta weights,
so one shadow serves every eigenvalue channel of a symmetry at once.

Conventions fixed here: the particle-number operator counts 1-bits
(n_j = (I - Z_j)/2), phase gates are diag(1, e^{i phi}), and Euler rotations
are rz(a) ry(b) rz(g) with rz/ry = exp(-i theta Z/2), exp(-i theta Y/2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .paulis import (LETTERS, PAULI_MATRICES, PauliString, SingleQubitGate,
                     WeightedPauliSum, decompose_2x2, letter_product,
                     multiply_sums)
from .shadows import ClassicalShadow
from .shadows import estimate as shadow_estimate
from .shadows import reconstruct_density
from .statevector import phase_gate, ry, rz

# Left-multiplication tables: _PERM[L][res, m] is the phase of L * P_m when
# the product letter is res, so transformed coefficients are _PERM[L] @ c.
def _build_perm_tables():
    tables = {}
    for left in LETTERS:
        mat = np.zeros((4, 4), dtype=complex)
        for m, right in enumerate(LETTERS):
            phase, res = letter_product(left, right)
            mat[LETTERS.index(res), m] = phase
        tables[left] = mat
    return tables


_PERM = _build_perm_tables()


# Per-qubit trace kernel on the six (basis, bit) symbols s = 2 * code + bit:
# _LETTER_KERNEL[L][m, s] = Tr[L P_m (3 r_s - I)], so a gate with Pauli
# coefficients c under observable letter L has the factor c @ K_L on s.
def _build_letter_kernels():
    kernel = np.zeros((4, 6))
    kernel[0] = 1.0
    for code in range(3):
        kernel[code + 1, 2 * code:2 * code + 2] = (3.0, -3.0)
    return {left: _PERM[left].T @ kernel for left in LETTERS}


_LETTER_KERNEL = _build_letter_kernels()


class EmptySectorWarning(UserWarning):
    """Estimated sector norm is not positive; the ratio is undefined."""


@dataclass(frozen=True)
class ProjectorLCU:
    """Projector sum_k beta_k (x)_j G_k^j over tensor-product gates.

    ``gates[k][j]`` acts on qubit j in term k. Families of sectors of one
    symmetry share the identical ``gates`` object and differ only in betas.
    """

    num_qubits: int
    betas: tuple[complex, ...]
    gates: tuple[tuple[SingleQubitGate, ...], ...]
    label: str = ""

    def __post_init__(self):
        if len(self.betas) != len(self.gates):
            raise ValueError("betas and gates lengths differ")
        if any(len(row) != self.num_qubits for row in self.gates):
            raise ValueError("every term needs one gate per qubit")
        object.__setattr__(self, "betas",
                           tuple(complex(b) for b in self.betas))

    @property
    def terms(self) -> tuple[tuple[complex, tuple[SingleQubitGate, ...]], ...]:
        return tuple(zip(self.betas, self.gates))

    def to_matrix(self) -> np.ndarray:
        """Dense matrix sum_k beta_k kron(G_k^{q-1}, ..., G_k^0).

        Terms are batched (chunked kron over the term axis) so large
        quadrature meshes assemble in vectorized numpy.
        """
        q, n_terms = self.num_qubits, len(self.betas)
        dim = 2 ** q
        pauli_stack = np.stack([PAULI_MATRICES[l] for l in LETTERS])
        coeffs = np.array([[row[j].pauli_coeffs for j in range(q)]
                           for row in self.gates])
        mats = np.einsum("kjc,cab->kjab", coeffs, pauli_stack)
        betas = np.asarray(self.betas)
        out = np.zeros((dim, dim), dtype=complex)
        chunk = max(1, 2 ** 21 // dim ** 2)
        for start in range(0, n_terms, chunk):
            sl = slice(start, min(start + chunk, n_terms))
            block = mats[sl, q - 1]
            for j in range(q - 2, -1, -1):
                width = block.shape[1]
                block = (block[:, :, None, :, None]
                         * mats[sl, j][:, None, :, None, :]
                         ).reshape(-1, width * 2, width * 2)
            out += np.tensordot(betas[sl], block, axes=(0, 0))
        return out

    def to_pauli_sum(self) -> WeightedPauliSum:
        """Expansion into a merged weighted Pauli sum (cached)."""
        cached = getattr(self, "_pauli_sum", None)
        if cached is not None:
            return cached
        accum: dict[tuple[str, ...], complex] = {}
        for beta, row in zip(self.betas, self.gates):
            paths: dict[tuple[str, ...], complex] = {(): beta}
            for gate in row:
                new: dict[tuple[str, ...], complex] = {}
                for letters, coeff in paths.items():
                    for m, c in enumerate(gate.pauli_coeffs):
                        if abs(c) < 1e-14:
                            continue
                        key = letters + (LETTERS[m],)
                        new[key] = new.get(key, 0j) + coeff * c
                paths = new
            for letters, coeff in paths.items():
                accum[letters] = accum.get(letters, 0j) + coeff
        result = WeightedPauliSum(
            self.num_qubits,
            tuple((c, PauliString(l)) for l, c in accum.items()))
        object.__setattr__(self, "_pauli_sum", result)
        return result


def identity_lcu(num_qubits: int) -> ProjectorLCU:
    row = (SingleQubitGate.identity(),) * num_qubits
    return ProjectorLCU(num_qubits, (1 + 0j,), (row,), label="identity")


def parity_projector(num_qubits: int, epsilon: int) -> ProjectorLCU:
    """(I + epsilon Z^(x)q) / 2 as a two-term LCU."""
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    iden = (SingleQubitGate.identity(),) * num_qubits
    zrow = (SingleQubitGate((0j, 0j, 0j, 1 + 0j)),) * num_qubits
    return ProjectorLCU(num_qubits, (0.5 + 0j, 0.5 * epsilon + 0j),
                        (iden, zrow), label=f"parity={epsilon:+d}")


def parity_sector_projectors(num_qubits: int) -> list[ProjectorLCU]:
    plus = parity_projector(num_qubits, +1)
    minus = ProjectorLCU(num_qubits, (0.5 + 0j, -0.5 + 0j), plus.gates,
                         label="parity=-1")
    return [plus, minus]


def _number_gates(num_qubits: int) -> tuple:
    rows = []
    for k in range(num_qubits + 1):
        phi = 2 * math.pi * k / (num_qubits + 1)
        rows.append((decompose_2x2(phase_gate(phi)),) * num_qubits)
    return tuple(rows)


def _number_betas(num_qubits: int, n0: int) -> tuple[complex, ...]:
    q1 = num_qubits + 1
    return tuple(np.exp(-2j * math.pi * k * n0 / q1) / q1 for k in range(q1))


def number_projector(num_qubits: int, n0: int) -> ProjectorLCU:
    """Fourier-sum projector onto the sector with n0 occupied qubits.

    q+1 terms g_k (x)_j Q_j(phi_k) with phi_k = 2 pi k / (q+1); the occupied
    state is |1>, so the sector eigenvalue is the number of 1-bits.
    """
    if not 0 <= n0 <= num_qubits:
        raise ValueError(f"n0={n0} outside 0..{num_qubits}")
    return ProjectorLCU(num_qubits, _number_betas(num_qubits, n0),
                        _number_gates(num_qubits), label=f"n0={n0}")


def number_sector_projectors(num_qubits: int) -> list[ProjectorLCU]:
    gates = _number_gates(num_qubits)
    return [ProjectorLCU(num_qubits, _number_betas(num_qubits, n0), gates,
                         label=f"n0={n0}")
            for n0 in range(num_qubits + 1)]


def wigner_small_d(s: float, m1: float, m2: float, beta: float) -> float:
    """Real small-d matrix element <s m1|exp(-i beta Jy)|s m2> via the
    explicit factorial sum."""
    s2, m1_2, m2_2 = round(2 * s), round(2 * m1), round(2 * m2)
    if abs(2 * s - s2) > 1e-9 or abs(2 * m1 - m1_2) > 1e-9 \
            or abs(2 * m2 - m2_2) > 1e-9:
        raise ValueError("s, m must be integers or half-integers")
    if (s2 + m1_2) % 2 or (s2 + m2_2) % 2:
        raise ValueError("s and m must differ by an integer")
    if abs(m1_2) > s2 or abs(m2_2) > s2:
        raise ValueError("|m| must not exceed s")
    jp1, jm1 = (s2 + m1_2) // 2, (s2 - m1_2) // 2
    jp2, jm2 = (s2 + m2_2) // 2, (s2 - m2_2) // 2
    pref = math.sqrt(math.factorial(jp1) * math.factorial(jm1)
                     * math.factorial(jp2) * math.factorial(jm2))
    c, sn = math.cos(beta / 2), math.sin(beta / 2)
    total = 0.0
    for k in range(max(0, (m2_2 - m1_2) // 2), min(jp2, jm1) + 1):
        denom = (math.factorial(jp2 - k) * math.factorial(k)
                 * math.factorial(jm1 - k)
                 * math.factorial(k + (m1_2 - m2_2) // 2))
        cos_pow = (2 * s2 - 4 * k + m2_2 - m1_2) // 2
        sin_pow = (4 * k - m2_2 + m1_2) // 2
        total += ((-1) ** (k + (m1_2 - m2_2) // 2)
                  * c ** cos_pow * sn ** sin_pow / denom)
    return pref * total


def wigner_d(s: float, m: float, alpha: float, beta: float,
             gamma: float) -> complex:
    """Diagonal Wigner-D element e^{-i m alpha} d^s_{m,m}(beta) e^{-i m gamma}."""
    return (np.exp(-1j * m * alpha) * wigner_small_d(s, m, m, beta)
            * np.exp(-1j * m * gamma))


def spin_sectors(num_qubits: int) -> list[tuple[float, float]]:
    """All (s, m) labels compatible with q spin-1/2 constituents."""
    sectors = []
    s2 = num_qubits
    while s2 >= 0:
        s = s2 / 2
        for m2 in range(-s2, s2 + 1, 2):
            sectors.append((s, m2 / 2))
        s2 -= 2
    return sectors


def _validate_spin_labels(num_qubits: int, s: float, m: float) -> None:
    s2, m2 = round(2 * s), round(2 * m)
    if abs(2 * s - s2) > 1e-9 or abs(2 * m - m2) > 1e-9:
        raise ValueError("s and m must be integers or half-integers")
    if s2 < 0 or s2 > num_qubits or (num_qubits - s2) % 2:
        raise ValueError(f"s={s} incompatible with q={num_qubits}")
    if abs(m2) > s2 or (s2 - m2) % 2:
        raise ValueError(f"m={m} incompatible with s={s}")


def _spin_mesh(num_qubits: int, n_points: int):
    """Midpoint mesh over the Euler angles and the per-node gate rows.

    alpha, gamma in [0, 2pi), beta in [0, pi], each with n_points midpoint
    nodes; the sin(beta) measure never hits its vanishing endpoints.
    """
    if n_points < 2:
        raise ValueError("need at least two quadrature points per angle")
    d_alpha = 2 * math.pi / n_points
    d_beta = math.pi / n_points
    alphas = (np.arange(n_points) + 0.5) * d_alpha
    betas = (np.arange(n_points) + 0.5) * d_beta
    gammas = (np.arange(n_points) + 0.5) * d_alpha
    nodes = []
    rows = []
    for a in alphas:
        for b in betas:
            for g in gammas:
                nodes.append((a, b, g))
                gate = decompose_2x2(rz(a) @ ry(b) @ rz(g))
                rows.append((gate,) * num_qubits)
    steps = (d_alpha, d_beta, d_alpha)
    return nodes, tuple(rows), steps


def _spin_betas(nodes, steps, s: float, m: float) -> tuple[complex, ...]:
    d_alpha, d_beta, d_gamma = steps
    norm = (2 * s + 1) / (8 * math.pi ** 2) * d_alpha * d_beta * d_gamma
    small_d = {}
    betas = []
    for a, b, g in nodes:
        if b not in small_d:
            small_d[b] = wigner_small_d(s, m, m, b)
        d_val = small_d[b] * np.exp(-1j * m * a) * np.exp(-1j * m * g)
        betas.append(norm * math.sin(b) * np.conj(d_val))
    return tuple(betas)


def spin_projector(num_qubits: int, s: float, m: float,
                   n_points: int) -> ProjectorLCU:
    """Discretized rotation-group projector onto the |s, m> eigenspace.

    n_points**3 quadrature terms; accuracy is certified by the convergence
    tests, roughly 1% at n_points = 10 for q = 4.
    """
    _validate_spin_labels(num_qubits, s, m)
    nodes, rows, steps = _spin_mesh(num_qubits, n_points)
    return ProjectorLCU(num_qubits, _spin_betas(nodes, steps, s, m), rows,
                        label=f"s={s:g},m={m:g}")


def spin_sector_projectors(num_qubits: int, n_points: int
                           ) -> list[ProjectorLCU]:
    nodes, rows, steps = _spin_mesh(num_qubits, n_points)
    return [ProjectorLCU(num_qubits, _spin_betas(nodes, steps, s, m), rows,
                         label=f"s={s:g},m={m:g}")
            for s, m in spin_sectors(num_qubits)]


def _distinct_symbols(shadow: ClassicalShadow
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (M', q) symbol rows 2 * code + bit, in lexicographic order,
    and their weights: the fraction of snapshots equal to each row."""
    symbols = 2 * shadow.codes + shadow.outcomes
    symbols = symbols[np.lexsort(symbols.T[::-1])]
    first = np.ones(len(symbols), dtype=bool)
    first[1:] = (symbols[1:] != symbols[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(symbols))
    return symbols[starts].astype(np.intp), counts / len(symbols)


def _gate_coeffs(gates: tuple) -> np.ndarray:
    """(terms, q, 4) Pauli coefficients of every gate."""
    return np.array([[gate.pauli_coeffs for gate in row] for row in gates],
                    dtype=complex)


def _term_products(symbols: tuple[np.ndarray, np.ndarray],
                   letters: Sequence[str], gate_coeffs: np.ndarray,
                   chunk: int = 1 << 16) -> np.ndarray:
    """Snapshot-mean of prod_j sum_m alpha_m Tr[P_j P'_m (3r - I)] per term.

    A qubit's factor depends only on its (basis, bit) symbol, so every term
    gets a table of six values per qubit, the product over qubits runs once
    per distinct symbol row, and the rows are weighted by their frequency.
    ``chunk`` bounds the (terms x rows) block in elements. Returns one
    complex mean per LCU term; the caller contracts with betas. The
    weighting is a product and a sum, not a matrix-vector product: threaded
    BLAS takes milliseconds per call at these shapes.
    """
    rows, weights = symbols
    n_terms, q, _ = gate_coeffs.shape
    kernels = np.stack([_LETTER_KERNEL[letter] for letter in letters])
    # table[j, k, s]: factor of term k on qubit j under symbol s
    table = np.einsum("kjm,jms->jks", gate_coeffs, kernels)
    step = max(1, chunk // n_terms)
    out = np.zeros(n_terms, dtype=complex)
    for start in range(0, rows.shape[0], step):
        sym = rows[start:start + step]
        block = table[0].take(sym[:, 0], axis=1) * weights[start:start + step]
        for j in range(1, q):
            block *= table[j].take(sym[:, j], axis=1)
        out += block.sum(axis=1)
    return out


def expand_projected_observable(obs: WeightedPauliSum,
                                proj: ProjectorLCU) -> WeightedPauliSum:
    """O P as a merged Pauli sum (the enlarged operator set O'_a)."""
    return multiply_sums(obs, proj.to_pauli_sum())


def _warn_if_empty(norm: float, label: str) -> None:
    if norm <= 0.0:
        warnings.warn(f"estimated norm {norm} <= 0 for sector {label}; "
                      "the projected ratio is undefined", EmptySectorWarning,
                      stacklevel=3)


def projected_estimate(shadow: ClassicalShadow, obs: WeightedPauliSum,
                       proj: ProjectorLCU) -> tuple[float, float]:
    """(numerator, norm) of the projected expectation over a shadow.

    numerator estimates Tr[O P rho] and norm estimates Tr[P rho]; their
    ratio is the symmetry-restored expectation value when the norm is
    positive. Prescribed-basis shadows are handled through the enlarged
    Pauli set with the direct compatible-count estimator.
    """
    return projected_estimate_sectors(shadow, obs, [proj])[0]


def projected_estimate_sectors(shadow: ClassicalShadow,
                               obs: WeightedPauliSum,
                               projectors: Sequence[ProjectorLCU]
                               ) -> list[tuple[float, float]]:
    """Projected estimates for many sectors of one symmetry at once.

    Projectors sharing their ``gates`` object (sector families) reuse the
    per-term snapshot products, so the whole decomposition costs one pass
    over the distinct snapshots. Results match :func:`projected_estimate`.
    """
    if obs.num_qubits != shadow.num_qubits \
            or any(p.num_qubits != shadow.num_qubits for p in projectors):
        raise ValueError("qubit counts of shadow, observable and projector "
                         "must agree")
    if shadow.prescribed:
        results = [(shadow_estimate(shadow,
                                    expand_projected_observable(obs, p)),
                    shadow_estimate(shadow, p.to_pauli_sum()))
                   for p in projectors]
    else:
        results = _random_sectors(shadow, obs, projectors)
    for proj, (_, norm) in zip(projectors, results):
        _warn_if_empty(norm, proj.label)
    return results


def _random_sectors(shadow: ClassicalShadow, obs: WeightedPauliSum,
                    projectors: Sequence[ProjectorLCU]
                    ) -> list[tuple[float, float]]:
    results: list[tuple[float, float]] = [(0.0, 0.0)] * len(projectors)
    symbols = _distinct_symbols(shadow)
    iden = ("I",) * shadow.num_qubits
    by_gates: dict[int, list[int]] = {}
    for i, proj in enumerate(projectors):
        by_gates.setdefault(id(proj.gates), []).append(i)
    for indices in by_gates.values():
        gate_coeffs = _gate_coeffs(projectors[indices[0]].gates)
        prods_norm = _term_products(symbols, iden, gate_coeffs)
        prods_obs = [(coeff * string.phase,
                      prods_norm if string.letters == iden
                      else _term_products(symbols, string.letters,
                                          gate_coeffs))
                     for coeff, string in obs.terms]
        for i in indices:
            betas = np.asarray(projectors[i].betas)
            norm = float((betas @ prods_norm).real)
            num = float(sum(c * (betas @ p) for c, p in prods_obs).real)
            results[i] = (num, norm)
    return results


def reconstruct_projected_density(shadow: ClassicalShadow,
                                  proj: ProjectorLCU,
                                  max_qubits: int = 4) -> np.ndarray:
    """Mean of P rho_hat P over the shadow (equals P rho_hat_mean P)."""
    p = proj.to_matrix()
    rho = reconstruct_density(shadow, max_qubits=max_qubits)
    return p @ rho @ p


def number_operator(num_qubits: int) -> WeightedPauliSum:
    """N = sum_j (I - Z_j)/2, eigenvalue = number of 1-bits."""
    terms = [(num_qubits / 2 + 0j, PauliString.identity(num_qubits))]
    for j in range(num_qubits):
        terms.append((-0.5 + 0j, PauliString.single(num_qubits, j, "Z")))
    return WeightedPauliSum(num_qubits, tuple(terms))


def _popcounts(num_qubits: int) -> np.ndarray:
    k = np.arange(2 ** num_qubits)
    return np.array([bin(v).count("1") for v in k])


def exact_parity_projector(num_qubits: int, epsilon: int) -> np.ndarray:
    """Diagonal eigenprojector of the parity operator (oracle path)."""
    parity = 1 - 2 * (_popcounts(num_qubits) % 2)
    return np.diag((parity == epsilon).astype(complex))


def exact_number_projector(num_qubits: int, n0: int) -> np.ndarray:
    """Diagonal eigenprojector onto popcount == n0 (oracle path)."""
    return np.diag((_popcounts(num_qubits) == n0).astype(complex))


def total_spin_matrices(num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(S^2, S_z) dense matrices with S_a = (1/2) sum_j sigma_a^(j)."""
    dim = 2 ** num_qubits
    comps = []
    for letter in ("X", "Y", "Z"):
        total = np.zeros((dim, dim), dtype=complex)
        for j in range(num_qubits):
            total += PauliString.single(num_qubits, j, letter).to_matrix()
        comps.append(total / 2)
    s_sq = sum(c @ c for c in comps)
    return s_sq, comps[2]


def exact_spin_projector(num_qubits: int, s: float, m: float) -> np.ndarray:
    """Eigenprojector of (S^2, S_z) by dense block diagonalization."""
    _validate_spin_labels(num_qubits, s, m)
    s_sq, _ = total_spin_matrices(num_qubits)
    mz = (num_qubits - 2 * _popcounts(num_qubits)) / 2
    idx = np.nonzero(np.abs(mz - m) < 1e-9)[0]
    proj = np.zeros_like(s_sq)
    if idx.size == 0:
        return proj
    block = s_sq[np.ix_(idx, idx)]
    vals, vecs = np.linalg.eigh(block)
    sel = np.abs(vals - s * (s + 1)) < 1e-8
    if sel.any():
        v = vecs[:, sel]
        proj[np.ix_(idx, idx)] = v @ v.conj().T
    return proj


def projector_from_spec(num_qubits: int, spec: dict) -> ProjectorLCU:
    """Build a projector from the CLI/config mapping.

    ``{"type": "parity", "epsilon": +-1}``,
    ``{"type": "number", "n0": int}`` or
    ``{"type": "spin", "s": ..., "m": ..., "n_p": int}``.
    """
    kind = spec.get("type")
    if kind == "parity":
        return parity_projector(num_qubits, int(spec["epsilon"]))
    if kind == "number":
        return number_projector(num_qubits, int(spec["n0"]))
    if kind == "spin":
        return spin_projector(num_qubits, float(spec["s"]),
                              float(spec["m"]), int(spec.get("n_p", 10)))
    raise ValueError(f"unknown projector type {kind!r}")


def all_sector_projectors(num_qubits: int, spec: dict) -> list[ProjectorLCU]:
    """Every eigenvalue channel of the symmetry named in ``spec``."""
    kind = spec.get("type")
    if kind == "parity":
        return parity_sector_projectors(num_qubits)
    if kind == "number":
        return number_sector_projectors(num_qubits)
    if kind == "spin":
        return spin_sector_projectors(num_qubits, int(spec.get("n_p", 10)))
    raise ValueError(f"unknown projector type {kind!r}")
