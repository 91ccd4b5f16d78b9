"""Symmetry projectors as linear combinations of tensor-power unitaries,
and projected expectation values over classical shadows.

Every projector here applies the same single-qubit gate on each qubit, so it
is stored as plain data: sum_k beta_k G_k^(x)q with one (K, 4) table of the
Pauli coefficients (c_I, c_X, c_Y, c_Z) of the G_k and K beta weights.
Estimation over a shadow then factorizes per qubit: the observable letter
multiplies the gate's Pauli expansion, and every product letter feeds the
{0, 1, +-3} trace kernel, the signed-count factors of plain estimation
scaled by 3. So a string's value on a snapshot row depends only on a class
key: the row's counts of the six (basis, bit) symbols, one of C(q+5, 5)
classes, and the multiset of (letter, symbol) pairs on the string's
support; the all-I string, which gives the norm, keys a row by its class
alone. One histogram sums the coefficient times the row weight per key,
and each family of projectors keeps a table of exact values on keys, every
class filled on first use and other keys as shadows meet them, so a
sector's numerator and norm are dot products of its values with the
histogram. The Pauli expansion of a projector groups strings by their
letter counts (n_I, n_X, n_Y, n_Z): every string of one class has the
coefficient sum_k beta_k prod_m c_km^n_m. All sector information lives in
the beta weights: the sectors of one symmetry have equal gate tables, and
projectors whose gate tables are equal, compared by content, form a family
that one pass over a shadow serves at once.

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
from .shadows import (_DENSE_KEYS, _LETTER_FACTOR, ClassicalShadow,
                      _check_count, _distinct_snapshots)
from .shadows import estimate as shadow_estimate
from .shadows import reconstruct_density
from .statevector import _dot, phase_gate, ry, rz

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
        _check_count(self.num_qubits, "num_qubits")
        betas, gates = _readonly(self.betas), _readonly(self.gates)
        if gates.ndim != 2 or gates.shape[1] != 4 \
                or betas.shape != gates.shape[:1]:
            raise ValueError("need (K,) betas and a (K, 4) gate table, got "
                             f"{betas.shape} and {gates.shape}")
        if not len(betas):
            raise ValueError("betas and gates need at least one term")
        for name, values in (("betas", betas), ("gates", gates)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "gates", gates)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix sum_k beta_k G_k^(x)q. Entry <x|G^(x)q|y> is
        prod_ab g_ab^n_ab, g_ab = <a|G|b>, n_ab the qubits whose bits (x_j,
        y_j) are ab: one value per class n_01 r^2 + n_10 r + n_11 (r = q+1),
        taken 2^16 at a time through class codes built by doubling qubits."""
        q, r = self.num_qubits, self.num_qubits + 1
        c_i, c_x, c_y, c_z = self.gates.T
        table = np.ones((r, 4, len(c_i)), dtype=complex)  # g_kab^n
        table[1] = c_i + c_z, c_x - 1j * c_y, c_x + 1j * c_y, c_i - c_z
        for n in range(2, r):
            table[n] = table[n - 1] * table[1]
        counts = np.indices((r, r, r)).reshape(3, -1)
        counts = np.vstack([q - counts.sum(axis=0), counts])  # n_ab by code
        valid = np.flatnonzero(counts[0] >= 0)
        values = np.zeros(r ** 3, dtype=complex)
        step = max(1, (1 << 12) // len(c_i))  # small blocks reuse memory
        for part in np.split(valid, range(step, len(valid), step)):
            block = table[counts[:, part], np.arange(4)[:, None]].prod(axis=0)
            values[part] = np.einsum("k,ck->c", self.betas, block)
        codes = w = np.array([[0, r * r], [r, 1]], np.min_scalar_type(r ** 3))
        for _ in range(q - 1):
            codes = np.add.outer(w, codes).swapaxes(1, 2).reshape(
                2 * len(codes), -1)
        out, chunk = np.empty(codes.shape, complex), max(1, (1 << 16) >> q)
        for start in range(0, len(codes), chunk):
            np.take(values, codes[start:start + chunk],
                    out=out[start:start + chunk])
        return out

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


# Each projector's (table, row); a family shares a table: sorted keys of
# :func:`_keys`, a row of exact values per projector, and the live codes.
# Keyed by the projector, so a table lives as long as its projectors.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# _KERNEL[m, 6 L + s] = _LETTER_KERNEL[L][m, s]: the pair codes 6 L + s of
# X, Y and Z run over 6..23, and _PAD pads a key's codes with the factor 1.
_KERNEL = np.stack(list(_LETTER_KERNEL.values()), axis=1).reshape(4, 24)
_PAD = 24
# Largest table, 8 MiB: the pairing H over a family at q <= 8 needs 2 MiB.
_TABLE_BYTES = 1 << 23


@functools.lru_cache(maxsize=None)
def _all_classes(num_qubits: int) -> np.ndarray:
    """Sorted keys sum_s n_s (q+1)^s of all C(q+5, 5) symbol-count classes
    of q-qubit rows, n_s = #{j: row[j] = s}: one per multiset of q
    symbols."""
    multisets = np.array(list(itertools.combinations_with_replacement(
        range(6), num_qubits)))
    keys = np.sort(((num_qubits + 1) ** multisets).sum(axis=1))
    keys.setflags(write=False)
    return keys


def _row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted class indices (:func:`_all_classes`) of ``rows``, and each
    row's position among them."""
    powers = (rows.shape[1] + 1) ** np.arange(6)
    keys = sum(powers.take(column) for column in rows.T)
    keys, which = np.unique(keys, return_inverse=True)
    return np.searchsorted(_all_classes(rows.shape[1]), keys), which


def _live_codes(gates: np.ndarray) -> np.ndarray:
    """Pair codes 6 L + s of X, Y and Z whose kernel entry meets a Pauli
    coefficient the gates use; the others are 0 on every term."""
    return 6 + np.flatnonzero((_KERNEL[:, 6:] != 0)[gates.any(axis=0)].any(
        axis=0))


@functools.lru_cache(maxsize=None)
def _offsets(num_qubits: int, base: int) -> tuple[int, ...]:
    """First key of each string weight w = 0..q+1, C sum_{v<w} base^v."""
    size = math.comb(num_qubits + 5, 5)
    return tuple(itertools.accumulate(
        (size * base ** w for w in range(num_qubits + 1)), initial=0))


def _keys(num_qubits: int, base: int, weight: int, cls, digits):
    """Keys offset_w + cls base^w + digits of one string weight: int64
    while every q-qubit key fits in 63 bits, else Python ints."""
    offsets = _offsets(num_qubits, base)
    keys = np.asarray(cls).astype(np.int64 if offsets[-1] < 1 << 63
                                  else object)
    for column in digits:
        keys = keys * base + column.astype(keys.dtype)
    return keys + offsets[weight]


@functools.lru_cache(maxsize=None)
def _class_counts(num_qubits: int) -> np.ndarray:
    """(C, 6) symbol counts n_s of the classes of :func:`_all_classes`."""
    radix = num_qubits + 1
    return _all_classes(num_qubits)[:, None] // radix ** np.arange(6) % radix


def _key_terms(num_qubits: int, live: np.ndarray, keys: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 6) symbol counts off the support and the (N, w_max) pair
    codes on it, padded with _PAD, of sorted :func:`_keys` keys."""
    base, offsets = len(live), _offsets(num_qubits, len(live))
    bounds = np.searchsorted(keys, np.array(offsets, dtype=keys.dtype))
    present = np.flatnonzero(np.diff(bounds)).tolist()
    codes = np.full((len(keys), max(present, default=0)), _PAD)
    cls = np.empty(len(keys), dtype=np.intp)
    for w in present:  # a multiset: any fixed order of digits will do
        low, high = bounds[w:w + 2]
        powers = np.array([base ** i for i in range(w + 1)], keys.dtype)
        rest = keys[low:high] - offsets[w]
        cls[low:high] = rest // powers[w]
        codes[low:high, :w] = live[(rest[:, None] // powers[:w] % base)
                                   .astype(np.intp)]
    # the symbols on the support, a pad's counted as a seventh
    symbols = np.where(codes < _PAD, codes % 6, 6) + 7 * np.arange(
        len(keys))[:, None]
    return _class_counts(num_qubits)[cls] - np.bincount(
        symbols.ravel(), minlength=7 * len(keys)).reshape(-1, 7)[:, :6], codes


def _sum_by_key(keys, values, dense):
    """Sorted distinct ``keys`` and the (m, N) sums per key of the m
    ``values`` (None for zeros): by bincount over keys lo..lo+size-1 when
    ``dense`` is (lo, size), else by a sort."""
    if dense is None:
        met, index = np.unique(keys, return_inverse=True)
        size, take = len(met), slice(None)
    else:
        index, size = keys - dense[0], dense[1]
        take = np.flatnonzero(np.bincount(index, minlength=size) != 0)
        met = take + dense[0]
    sums = np.zeros((len(values), len(met)))
    for row, column in zip(sums, values):
        if column is not None:
            row[:] = np.bincount(index, column, size)[take]
    return met, sums


def _histogram(rows, live, classes, which, counts, codes, scale,
               chunk=1 << 16):
    """Sorted keys met by the (string, row) pairs of ``codes`` over distinct
    ``rows`` (with their :func:`_row_classes`), and the (m, N) sums per key
    of scale[a] count_r / M, for an (S, m) real ``scale``.

    Term k's product over a row is prod_s T[I, s]^(n_s - m_s) prod_i
    T[L_i, s_i], n the row's class and m the counts of its symbols s_i on
    the support, where the string has letters L_i. So a pair's key is the
    string weight, the row's class and the sorted ranks among the ``live``
    codes of the pair codes 6 L_i + s_i; a code that is not live is 0 on
    every term and drops the pair. The C B^w keys of weight w, B live
    codes, are summed densely when at most four times its pairs and
    _DENSE_KEYS, else by a sort; ``chunk`` bounds the (strings x rows)
    block.
    """
    q, base = rows.shape[1], len(live)
    offsets = _offsets(q, base)
    weights = np.count_nonzero(codes, axis=1)
    if weights.any():  # digits[q (L - 1) + j, r]: letter L on qubit j of r
        rank = np.full(_PAD, -1, dtype=np.int8)
        rank[live] = np.arange(base)
        digits = rank.reshape(4, 6)[1:].take(rows.T, axis=1).reshape(3 * q,
                                                                     -1)
        row_class = classes[which]
    out = []
    for weight in sorted(set(weights.tolist())):
        group, factor = codes[weights == weight], scale[weights == weight]
        if not weight:  # every all-I string keys a row by its class
            out.append((_keys(q, base, 0, classes, []), np.outer(
                factor.sum(axis=0), np.bincount(which, counts))))
            continue
        where = q * (group[group != 0].reshape(len(group), weight) - 1)
        where += np.nonzero(group)[1].reshape(len(group), weight)
        low, high = offsets[weight:weight + 2]
        dense = ((low, high - low) if offsets[-1] < 1 << 63 and high - low
                 <= min(4 * len(group) * len(counts), _DENSE_KEYS) else None)
        step = max(1, max(chunk, dense[1] if dense else 0) // len(counts))
        parts = []
        for start in range(0, len(group), step):
            cols = [digits.take(column, axis=0)
                    for column in where[start:start + step].T]
            for i in range(weight):  # odd-even transposition sort
                for j in range(i % 2, weight - 1, 2):
                    cols[j], cols[j + 1] = (np.minimum(cols[j], cols[j + 1]),
                                            np.maximum(cols[j], cols[j + 1]))
            kept = cols[0] >= 0
            parts.append(_sum_by_key(
                _keys(q, base, weight, row_class, cols)[kept],
                [np.outer(column, counts)[kept] if column.any() else None
                 for column in factor[start:start + step].T], dense))
        out.append(parts[0] if len(parts) == 1 else _sum_by_key(
            np.concatenate([met for met, _ in parts]),
            np.concatenate([sums for _, sums in parts], axis=1), dense))
    return (np.concatenate([met for met, _ in out]),
            np.concatenate([sums for _, sums in out], axis=1) / counts.sum())


def _key_values(gates, betas, counts, codes, chunk=1 << 14):
    """(P, N) values sum_k betas[i, k] prod_s T[I, s]^counts[n, s]
    prod_i T[codes[n, i]] of N keys (:func:`_key_terms`), T[6 L + s, k]
    the factor of term k on a qubit with letter L and symbol s.

    A chunk of keys (``chunk`` elements, 256 KiB, stays in cache) takes its
    products from a table per basis of T[I, 2b]^i T[I, 2b + 1]^j over the
    pairs (i, j) in use, then the pair factors. Each (projector, key) value is a dot product of its own,
    so its bits do not depend on what else is filled: a column of a matrix
    product can change with the other columns, and threaded BLAS took
    milliseconds per call at these shapes.
    """
    factors = np.empty((_PAD + 1, len(gates)), dtype=complex)
    factors[:6] = np.einsum("km,ms->sk", gates, _LETTER_KERNEL["I"])
    factors[_PAD] = 1
    used = sorted(set(codes[codes < _PAD].tolist()))
    factors[used] = (gates * _KERNEL[:, used].T[:, None]).sum(axis=2)
    radix = counts.max(initial=0) + 1
    powers = np.ones((6, radix, len(gates)), dtype=complex)
    for n in range(1, radix):
        powers[:, n] = powers[:, n - 1] * factors[:6]
    by_basis, pairs = [], counts[:, 0::2] * radix + counts[:, 1::2]
    for b, column in enumerate(pairs.T):  # the pairs (i, j) in use
        used = np.flatnonzero(np.bincount(column, minlength=radix * radix))
        pairs[:, b] = np.searchsorted(used, column)
        by_basis.append(powers[2 * b, used // radix]
                        * powers[2 * b + 1, used % radix])
    out = np.empty((len(betas), len(counts)), dtype=complex)
    step = max(1, chunk // len(gates))
    for start in range(0, len(counts), step):
        pair = pairs[start:start + step]
        block = by_basis[0][pair[:, 0]] * by_basis[1][pair[:, 1]]
        block *= by_basis[2][pair[:, 2]]
        for column in codes[start:start + step].T:
            block *= factors[column]
        out[:, start:start + step] = np.matmul(
            betas[:, None, None, :], block[None, :, :, None])[:, :, 0, 0]
    return out


def _table_values(family: Sequence[ProjectorLCU], met: np.ndarray,
                  live: np.ndarray) -> np.ndarray:
    """(P, N) values of a family on the sorted keys ``met``, filling those
    its shared table lacks in one pass. A new table starts from every class
    and the keys met; so does a family filled apart, and one whose table
    would pass _TABLE_BYTES, as keys of high weight rarely recur."""
    q = family[0].num_qubits
    entries = [_TABLES.get(proj) for proj in family]
    table, rows = entries[0][0] if entries[0] else None, None
    if table is not None and all(e and e[0] is table for e in entries):
        rows = [row for _, row in entries]
        keys, values, _ = table
        where = np.searchsorted(keys, met)
        lacking = met[keys[np.minimum(where, len(keys) - 1)] != met]
        size = len(values) * (len(keys) + len(lacking))
    if rows is None or 16 * size > _TABLE_BYTES:
        classes = _keys(q, len(live), 0, np.arange(math.comb(q + 5, 5)), [])
        # all-I keys are 0..C-1, below every other key
        lacking = np.concatenate([classes, met[np.searchsorted(
            met, len(classes)):]])
        keys, values = lacking[:0], np.empty((len(family), 0), complex)
        rows, entries, table = list(range(len(family))), None, None
        for proj in family:  # free an old table before the new one fills
            _TABLES.pop(proj, None)
    if lacking.size:
        fresh = _key_values(family[0].gates, np.stack([p.betas
                                                       for p in family]),
                            *_key_terms(q, live, lacking))
        if len(keys):
            at = np.searchsorted(keys, lacking)
            lacking = np.insert(keys, at, lacking)
            fresh = np.insert(values[rows], at, fresh, axis=1)
        table = (lacking, fresh, live)
        for row, proj in enumerate(family):
            _TABLES[proj] = table, row
        rows, where = list(range(len(family))), np.searchsorted(lacking, met)
    return table[1][np.ix_(rows, where)]


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
    sector family: one histogram of the observable's class keys over the
    distinct snapshots serves every sector, and the keys the family's table
    lacks are filled in one pass. Results match :func:`projected_estimate`.
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
    classes, which = _row_classes(rows)
    # the norm is an all-I string of its own; scale columns norm, Re, Im
    codes = np.concatenate([np.zeros((1, shadow.num_qubits),
                                     dtype=obs.codes.dtype), obs.codes])
    scale = np.zeros((len(codes), 3))
    scale[0, 0], scale[1:, 1], scale[1:, 2] = 1, obs.coeffs.real, \
        obs.coeffs.imag
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
        entry = _TABLES.get(family[0])
        live = entry[0][2] if entry else _live_codes(family[0].gates)
        met, sums = _histogram(rows, live, classes, which, counts, codes,
                               scale)
        values = _table_values(family, met, live).conj()
        # one dot product per projector, as for the table values, in runs
        # that no BLAS thread splits; the all-I keys come first and alone
        # carry the norm
        norm_keys, num_sums = np.count_nonzero(sums[0]), sums[1] + 1j * sums[2]
        for i, row in zip(indices, values):
            results[i] = (_dot(row, num_sums).real,
                          _dot(row[:norm_keys], sums[0, :norm_keys]).real)
    return results


def reconstruct_projected_density(shadow: ClassicalShadow,
                                  proj: ProjectorLCU) -> np.ndarray:
    """Mean of P rho_hat P over the shadow (equals P rho_hat_mean P)."""
    p = proj.to_matrix()
    rho = reconstruct_density(shadow)
    return p @ rho @ p


def _popcounts(num_qubits: int) -> np.ndarray:
    return np.bitwise_count(np.arange(2 ** num_qubits)).astype(np.int64)


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
    return _spin_eigenprojector(total_spin_matrices(num_qubits)[0], s, m)


def _spin_eigenprojector(s_sq: np.ndarray, s: float, m: float) -> np.ndarray:
    """:func:`exact_spin_projector` from the S^2 matrix of the register, so
    that the sectors of one register build it once."""
    num_qubits = len(s_sq).bit_length() - 1
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


# The keys of a projector spec of each type.
_SPEC_KEYS = {"parity": {"type", "epsilon"}, "number": {"type", "n0"},
              "spin": {"type", "s", "m", "n_p"}}


def _spec_type(spec: dict) -> str:
    """``spec["type"]``; ValueError for an unknown type, or naming a key
    that no spec of that type has."""
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ValueError(f"unknown projector type {kind!r}")
    unknown = [key for key in spec if key not in _SPEC_KEYS[kind]]
    if unknown:
        raise ValueError(f"{kind} projector spec has no key {unknown[0]!r}")
    return kind


def projector_from_spec(num_qubits: int, spec: dict) -> ProjectorLCU:
    """Build a projector from the CLI/config mapping.

    ``{"type": "parity", "epsilon": +-1}``,
    ``{"type": "number", "n0": int}`` or
    ``{"type": "spin", "s": ..., "m": ..., "n_p": int}``.
    """
    kind = _spec_type(spec)
    if kind == "parity":
        return parity_projector(num_qubits, _spec_number(spec, "epsilon"))
    if kind == "number":
        return number_projector(num_qubits, _spec_number(spec, "n0"))
    return spin_projector(num_qubits, _spec_number(spec, "s", integer=False),
                          _spec_number(spec, "m", integer=False),
                          _spec_number(spec, "n_p", default=10))


def all_sector_projectors(num_qubits: int, spec: dict) -> list[ProjectorLCU]:
    """Every eigenvalue channel of the symmetry named in ``spec``."""
    kind = _spec_type(spec)
    if kind == "parity":
        return parity_sector_projectors(num_qubits)
    if kind == "number":
        return number_sector_projectors(num_qubits)
    return spin_sector_projectors(
        num_qubits, _spec_number(spec, "n_p", default=10))
