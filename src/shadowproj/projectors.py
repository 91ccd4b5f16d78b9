"""Symmetry projectors as linear combinations of tensor-power unitaries,
and projected expectation values over classical shadows.

Every projector here applies the same single-qubit gate on each qubit, so it
is stored as plain data: sum_k beta_k G_k^(x)q with one (K, 4) table of the
Pauli coefficients (c_I, c_X, c_Y, c_Z) of the G_k and K beta weights.
Estimation over a shadow then factorizes per qubit: the observable letter
multiplies the gate's Pauli expansion, and every product letter feeds the
{0, 1, +-3} trace kernel, the signed-count factors of plain estimation
scaled by 3. A string's product over qubits runs once per distinct snapshot
row, and strings that agree on their first qubits share the product over
them. The all-I string, which gives the norm, has one value per class of
rows with equal counts of the six (basis, bit) symbols, C(q+5, 5) classes,
and that value depends on the projector alone: each projector keeps a table
of it over every class, filled once on first use, and a shadow's norm is the
sum of its class weights times the table entries. The Pauli expansion of a
projector groups strings by their letter counts (n_I, n_X, n_Y, n_Z): every
string of one class has the coefficient sum_k beta_k prod_m c_km^n_m. All
sector information lives in the beta weights: the sectors of one symmetry
have equal gate tables, and projectors whose gate tables are equal, compared
by content, form a family that one pass over a shadow serves at once.

Conventions fixed here: the particle-number operator counts 1-bits
(n_j = (I - Z_j)/2), phase gates are diag(1, e^{i phi}), and Euler rotations
are rz(a) ry(b) rz(g) with rz/ry = exp(-i theta Z/2), exp(-i theta Y/2).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import warnings
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .paulis import (_I_POWERS, _PRODUCT_POWER, LETTERS, MERGE_TOLERANCE,
                     PauliString, WeightedPauliSum, decompose_2x2,
                     multiply_sums)
from .shadows import _LETTER_FACTOR, ClassicalShadow, _distinct_snapshots
from .shadows import estimate as shadow_estimate
from .shadows import reconstruct_density
from .statevector import phase_gate, ry, rz

# Per-qubit trace kernel on the six (basis, bit) symbols s = 2 * code + bit:
# _LETTER_KERNEL[L][m, s] = Tr[L P_m (3 r_s - I)], so a gate with Pauli
# coefficients c under observable letter L has the factor c @ K_L on s.
# L P_m = i^p P_(L ^ m) with p = _PRODUCT_POWER[L, m], and Tr[P (3 r_s - I)]
# is the signed-count factor, times 3 unless P is I.
_TRACE_FACTOR = _LETTER_FACTOR * [[1], [3], [3], [3]]
_LETTER_KERNEL = {left: _I_POWERS[_PRODUCT_POWER[a], None]
                  * _TRACE_FACTOR[a ^ np.arange(4)]
                  for a, left in enumerate(LETTERS)}


class EmptySectorWarning(UserWarning):
    """Estimated sector norm is not positive; the ratio is undefined."""


def _readonly(values) -> np.ndarray:
    """Values as a read-only complex array; one that is already read-only is
    kept as it is, so the sectors of a family share one gate table object
    and are grouped without comparing it."""
    arr = np.asarray(values, dtype=complex)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProjectorLCU:
    """Projector sum_k beta_k G_k^(x)q: term k applies G_k on every qubit.

    ``gates`` is a read-only (K, 4) complex array whose row k holds the
    Pauli coefficients (c_I, c_X, c_Y, c_Z) of G_k, and ``betas`` a
    read-only (K,) complex array. The sectors of one symmetry have equal
    gate tables and differ only in betas.
    """

    num_qubits: int
    betas: np.ndarray
    gates: np.ndarray
    label: str = ""

    def __post_init__(self):
        betas, gates = _readonly(self.betas), _readonly(self.gates)
        if gates.ndim != 2 or gates.shape[1] != 4 \
                or betas.shape != gates.shape[:1]:
            raise ValueError("need (K,) betas and a (K, 4) gate table, got "
                             f"{betas.shape} and {gates.shape}")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gates", gates)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix sum_k beta_k G_k^(x)q, from its Pauli expansion."""
        return self.to_pauli_sum().to_matrix()

    def to_pauli_sum(self) -> WeightedPauliSum:
        """Expansion into a merged weighted Pauli sum (cached).

        A string's coefficient depends only on its letter counts n_m:
        sum_k beta_k prod_m c_km^n_m, computed once per count class. Only
        letters that some term uses (|c_km| >= 1e-14) are enumerated, and
        coefficients below 1e-14 are dropped.
        """
        cached = getattr(self, "_pauli_sum", None)
        if cached is not None:
            return cached
        q = self.num_qubits
        used = np.flatnonzero((abs(self.gates) >= MERGE_TOLERANCE).any(axis=0))
        strings = np.array(list(itertools.product(used, repeat=q)))
        counts = (strings[:, :, None] == np.arange(4)).sum(axis=1)
        classes, which = np.unique(counts, axis=0, return_inverse=True)
        # c_km^n per count n; np.take's C-ordered copy keeps prod's rounding
        table = self.gates[:, :, None] ** np.arange(q + 1)
        powers = np.take(table.reshape(len(table), -1),
                         classes + (q + 1) * np.arange(4), axis=1).prod(axis=2)
        values = np.einsum("k,kc->c", self.betas, powers)[which.ravel()]
        keep = np.abs(values) >= MERGE_TOLERANCE
        result = WeightedPauliSum.from_arrays(q, strings[keep], values[keep])
        object.__setattr__(self, "_pauli_sum", result)
        return result


def identity_lcu(num_qubits: int) -> ProjectorLCU:
    return ProjectorLCU(num_qubits, [1], [[1, 0, 0, 0]], label="identity")


def parity_projector(num_qubits: int, epsilon: int) -> ProjectorLCU:
    """(I + epsilon Z^(x)q) / 2 as a two-term LCU."""
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    return parity_sector_projectors(num_qubits)[0 if epsilon == 1 else 1]


def parity_sector_projectors(num_qubits: int) -> list[ProjectorLCU]:
    gates = _readonly([[1, 0, 0, 0], [0, 0, 0, 1]])
    return [ProjectorLCU(num_qubits, [0.5, 0.5 * epsilon], gates,
                         label=f"parity={epsilon:+d}")
            for epsilon in (1, -1)]


def number_projector(num_qubits: int, n0: int) -> ProjectorLCU:
    """Fourier-sum projector onto the sector with n0 occupied qubits."""
    if not 0 <= n0 <= num_qubits:
        raise ValueError(f"n0={n0} outside 0..{num_qubits}")
    return number_sector_projectors(num_qubits)[n0]


def number_sector_projectors(num_qubits: int) -> list[ProjectorLCU]:
    """Fourier-sum projectors onto the sectors n0 = 0..q.

    q+1 terms g_k (x)_j Q_j(phi_k) with phi_k = 2 pi k / (q+1); the occupied
    state is |1>, so the sector eigenvalue is the number of 1-bits.
    """
    q1 = num_qubits + 1
    gates = _readonly(decompose_2x2(
        [phase_gate(2 * math.pi * k / q1) for k in range(q1)]))
    return [ProjectorLCU(num_qubits,
                         [np.exp(-2j * math.pi * k * n0 / q1) / q1
                          for k in range(q1)], gates, label=f"n0={n0}")
            for n0 in range(q1)]


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


def spin_projector(num_qubits: int, s: float, m: float,
                   n_points: int) -> ProjectorLCU:
    """Discretized rotation-group projector onto the |s, m> eigenspace: the
    (s, m) member of :func:`spin_sector_projectors`."""
    _validate_spin_labels(num_qubits, s, m)
    family = spin_sector_projectors(num_qubits, n_points)
    return family[spin_sectors(num_qubits).index((round(2 * s) / 2,
                                                  round(2 * m) / 2))]


def spin_sector_projectors(num_qubits: int, n_points: int
                           ) -> list[ProjectorLCU]:
    """Discretized rotation-group projectors onto every |s, m> eigenspace.

    A midpoint mesh over the Euler angles: alpha, gamma in [0, 2pi) and
    beta in [0, pi], each with n_points nodes, so the sin(beta) measure
    never hits its vanishing endpoints. Node (a, b, g) is row
    (a * n + b) * n + g of the (n**3, 4) gate table. Accuracy is certified
    by the convergence tests, roughly 1% at n_points = 10 for q = 4.
    """
    if n_points < 2:
        raise ValueError("need at least two quadrature points per angle")
    d_alpha = 2 * math.pi / n_points
    d_beta = math.pi / n_points
    alphas = (np.arange(n_points) + 0.5) * d_alpha  # also the gammas
    betas = (np.arange(n_points) + 0.5) * d_beta
    rz_a = np.array([rz(a) for a in alphas])
    ry_b = np.array([ry(b) for b in betas])
    mats = rz_a[:, None, None] @ ry_b[None, :, None] @ rz_a[None, None, :]
    gates = _readonly(decompose_2x2(mats).reshape(-1, 4))
    family = []
    for s, m in spin_sectors(num_qubits):
        norm = (2 * s + 1) / (8 * math.pi ** 2) * d_alpha * d_beta * d_alpha
        small_d = np.array([wigner_small_d(s, m, m, b) for b in betas])
        weight = np.array([norm * math.sin(b) for b in betas])
        phase = np.exp(-1j * m * alphas)
        d_val = (small_d[None, :, None] * phase[:, None, None]
                 * phase[None, None, :])
        family.append(ProjectorLCU(
            num_qubits, (weight[None, :, None] * np.conj(d_val)).ravel(),
            gates, label=f"s={s:g},m={m:g}"))
    return family


# Each projector's exact norm Tr[P rho_c] on every symbol-count class c, in
# the order of _all_classes. Keyed by the projector, which compares by
# identity, so a table lives exactly as long as its projector.
_CLASS_NORMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@functools.lru_cache(maxsize=None)
def _all_classes(num_qubits: int) -> np.ndarray:
    """Sorted keys of all C(q+5, 5) symbol-count classes of q-qubit rows,
    keyed as in :func:`_symbol_classes`: one per multiset of q symbols."""
    multisets = np.array(list(itertools.combinations_with_replacement(
        range(6), num_qubits)))
    keys = np.sort(((num_qubits + 1) ** multisets).sum(axis=1))
    keys.setflags(write=False)
    return keys


def _symbol_classes(rows: np.ndarray, counts: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys of the symbol-count classes of distinct rows, and the
    fraction of snapshots in each.

    Rows with equal counts n_s = #{j: row[j] = s} of the six symbols form a
    class, keyed by sum_s n_s (q+1)^s. With every letter I, term k's product
    over a row is prod_s T[k, s]^n_s, the same for every row of its class:
    at most C(q+5, 5) classes against up to 6^q distinct rows.
    """
    radix = rows.shape[1] + 1
    keys, which = np.unique((radix ** np.arange(6))[rows].sum(axis=1),
                            return_inverse=True)
    return keys, np.bincount(which, counts) / counts.sum()


def _norms_on_classes(gates: np.ndarray, betas: np.ndarray,
                      keys: np.ndarray, num_qubits: int,
                      chunk: int = 1 << 14) -> np.ndarray:
    """(S, C) values sum_k betas[i, k] prod_s T[k, s]^n_s of the classes
    ``keys``, T the all-I trace kernel of the gates.

    The per-term products of a chunk of classes (at most ``chunk`` elements,
    256 KiB, so the factors of a block stay in cache) are built from a table
    per basis of T[k, 2b]^i T[k, 2b + 1]^j over the pairs (i, j) in use.
    Every (projector, class) value is a dot product of its own, so it is the
    same whichever classes and projectors are filled with it: a column of a
    matrix product can change in its last bits with the other columns of
    the call, and threaded BLAS took milliseconds per call at these shapes.
    """
    radix = num_qubits + 1
    counts = keys[:, None] // radix ** np.arange(6) % radix
    factor = np.einsum("km,ms->sk", gates, _LETTER_KERNEL["I"])
    powers = np.ones((6, radix, len(gates)), dtype=complex)
    for n in range(1, radix):
        powers[:, n] = powers[:, n - 1] * factor
    by_basis, pairs = [], np.empty((len(keys), 3), dtype=np.intp)
    for b in range(3):
        used, pairs[:, b] = np.unique(
            counts[:, 2 * b] * radix + counts[:, 2 * b + 1],
            return_inverse=True)
        by_basis.append(powers[2 * b, used // radix]
                        * powers[2 * b + 1, used % radix])
    out = np.empty((len(betas), len(keys)), dtype=complex)
    step = max(1, chunk // len(gates))
    for start in range(0, len(keys), step):
        pair = pairs[start:start + step]
        block = by_basis[0][pair[:, 0]] * by_basis[1][pair[:, 1]]
        block *= by_basis[2][pair[:, 2]]
        out[:, start:start + step] = np.matmul(
            betas[:, None, None, :], block[None, :, :, None])[:, :, 0, 0]
    return out


def _class_norms(family: Sequence[ProjectorLCU], keys: np.ndarray,
                 weights: np.ndarray) -> list[complex]:
    """Norm of each projector of a family with equal gate tables on a shadow
    with the sorted class ``keys`` and their ``weights``: sum_c w_c
    table[c], one dot product per projector.

    A projector's table covers every class of :func:`_all_classes`. The
    tables that the family lacks are filled on first use, in one pass, so a
    later shadow computes no class value.
    """
    classes = _all_classes(family[0].num_qubits)
    lacking = [proj for proj in family if proj not in _CLASS_NORMS]
    if lacking:
        _CLASS_NORMS.update(zip(lacking, _norms_on_classes(
            lacking[0].gates, np.stack([p.betas for p in lacking]), classes,
            family[0].num_qubits)))
    where = np.searchsorted(classes, keys)
    weights = weights.astype(complex)
    return [_CLASS_NORMS[proj][where] @ weights for proj in family]


def _term_products(symbols: tuple[np.ndarray, np.ndarray],
                   codes: np.ndarray, gates: np.ndarray,
                   chunk: int = 1 << 16) -> np.ndarray:
    """Snapshot-mean of prod_j sum_m alpha_m Tr[P_j P'_m (3r - I)] for S
    strings and K terms: an (S, K) array, given the (S, q) letter codes
    (I=0, X=1, Y=2, Z=3) of the strings and the (K, 4) ``gates``.

    A qubit's factor depends only on its letter and its (basis, bit)
    symbol, so every letter in use gets a (terms, 6) table, the product
    over qubits runs once per distinct symbol row, and the rows are weighted
    by their frequency. ``chunk`` bounds the (terms x rows) block in
    elements. The strings run in lexicographic order with one block per
    qubit, so the product over the qubits a string shares with the one
    before is not formed again. Each product still runs from the row
    weights and qubit 0 up, and each chunk is summed on its own, so a
    string's values do not depend on the other strings. The caller
    contracts with betas. The weighting is a product and a sum, not a
    matrix-vector product: threaded BLAS takes milliseconds per call at
    these shapes. The all-I string, which gives the norm, goes through
    :func:`_class_norms` instead.
    """
    rows, weights = symbols
    n_strings, q = codes.shape
    n_terms = len(gates)
    # tables[L][k, s]: factor of term k on a qubit with letter L, symbol s
    tables = {code: np.einsum("km,ms->ks", gates,
                              _LETTER_KERNEL[LETTERS[code]])
              for code in np.unique(codes).tolist()}
    order = np.lexsort(codes.T[::-1])
    # first qubit at which each string differs from the one before it
    changed = codes[order[1:]] != codes[order[:-1]]
    fresh = [0] + np.where(changed.any(axis=1), changed.argmax(axis=1),
                           q).tolist()
    visits = list(zip(order.tolist(), codes[order].tolist(), fresh))
    step = max(1, chunk // n_terms)
    # one block per qubit, shared by the chunks of rows; the factors of a
    # qubit are gathered into its block and multiplied there in place
    pool = np.empty(q * n_terms * min(step, len(rows)), dtype=complex)
    out = np.zeros((n_strings, n_terms), dtype=complex)
    for start in range(0, len(rows), step):
        sym = rows[start:start + step].T.copy()
        prefix = pool[:sym.size * n_terms].reshape(q, n_terms, -1)
        for s, letters, first in visits:
            for j in range(first, q):
                tables[letters[j]].take(sym[j], axis=1, out=prefix[j],
                                        mode="clip")
                if j == 0:
                    prefix[0] *= weights[start:start + step]
                else:  # prefix first: a SIMD complex product with FMA
                    # need not give the same bits with its operands swapped
                    np.multiply(prefix[j - 1], prefix[j], out=prefix[j])
            out[s] += prefix[-1].sum(axis=1)
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

    Projectors whose gate tables are equal, compared by content, form a
    sector family: they reuse the per-term snapshot products, so the whole
    decomposition costs one pass over the distinct snapshots, and fill
    their class-norm tables in one pass. Results match
    :func:`projected_estimate`.
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
    rows, counts = _distinct_snapshots(shadow)
    symbols = rows, counts / len(shadow)
    keys, weights = _symbol_classes(rows, counts)
    live = obs.codes.any(axis=1)  # the strings other than all-I
    live_codes = obs.codes[live]
    families: list[list[int]] = []  # projectors with equal gate tables
    for i, proj in enumerate(projectors):
        for indices in families:
            gates = projectors[indices[0]].gates
            if gates is proj.gates or np.array_equal(gates, proj.gates):
                indices.append(i)
                break
        else:
            families.append([i])
    for indices in families:
        family = [projectors[i] for i in indices]
        norms = _class_norms(family, keys, weights)
        products = iter(_term_products(symbols, live_codes, family[0].gates)
                        if len(live_codes) else ())
        # None stands for the all-I string, whose value is the norm
        prods_obs = [(coeff, next(products) if is_live else None)
                     for coeff, is_live in zip(obs.coeffs.tolist(), live)]
        for i, proj, norm in zip(indices, family, norms):
            num = sum(c * (norm if p is None else proj.betas @ p)
                      for c, p in prods_obs)
            results[i] = (float(num.real), float(norm.real))
    return results


def reconstruct_projected_density(shadow: ClassicalShadow,
                                  proj: ProjectorLCU) -> np.ndarray:
    """Mean of P rho_hat P over the shadow (equals P rho_hat_mean P)."""
    p = proj.to_matrix()
    rho = reconstruct_density(shadow)
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
    comps = [WeightedPauliSum(num_qubits, [
        (0.5, PauliString.single(num_qubits, j, letter))
        for j in range(num_qubits)]).to_matrix() for letter in "XYZ"]
    return sum(c @ c for c in comps), comps[2]


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


def _spec_number(spec: dict, key: str, integer: bool = True, default=None):
    """``spec[key]`` as an int, or a float when not ``integer``. A missing
    key without default, booleans, strings and non-integral numbers for an
    integer key are rejected."""
    value = spec.get(key, default)
    if value is None:
        raise ValueError(f"projector spec {spec} lacks {key!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            integer and not isinstance(value, numbers.Integral)
            and not float(value).is_integer()):
        raise ValueError(f"projector spec {key!r} must be "
                         f"{'an integer' if integer else 'a number'}, "
                         f"got {value!r}")
    return int(value) if integer else float(value)


def projector_from_spec(num_qubits: int, spec: dict) -> ProjectorLCU:
    """Build a projector from the CLI/config mapping.

    ``{"type": "parity", "epsilon": +-1}``,
    ``{"type": "number", "n0": int}`` or
    ``{"type": "spin", "s": ..., "m": ..., "n_p": int}``.
    """
    kind = spec.get("type")
    if kind == "parity":
        return parity_projector(num_qubits, _spec_number(spec, "epsilon"))
    if kind == "number":
        return number_projector(num_qubits, _spec_number(spec, "n0"))
    if kind == "spin":
        return spin_projector(num_qubits,
                              _spec_number(spec, "s", integer=False),
                              _spec_number(spec, "m", integer=False),
                              _spec_number(spec, "n_p", default=10))
    raise ValueError(f"unknown projector type {kind!r}")


def all_sector_projectors(num_qubits: int, spec: dict) -> list[ProjectorLCU]:
    """Every eigenvalue channel of the symmetry named in ``spec``."""
    kind = spec.get("type")
    if kind == "parity":
        return parity_sector_projectors(num_qubits)
    if kind == "number":
        return number_sector_projectors(num_qubits)
    if kind == "spin":
        return spin_sector_projectors(
            num_qubits, _spec_number(spec, "n_p", default=10))
    raise ValueError(f"unknown projector type {kind!r}")
