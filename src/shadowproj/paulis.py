"""Pauli-string algebra with exact phase tracking.

Strings are tensor products of I/X/Y/Z over ``num_qubits`` qubits carrying a
phase restricted to the four Gaussian units {+1, -1, +i, -i}; arbitrary
complex scalars live only in the coefficients of :class:`WeightedPauliSum`.
Qubit ``j = 0`` is the least significant one; text labels are written with
the most significant qubit leftmost, e.g. ``"+1 ZIZY"``.

A :class:`WeightedPauliSum` is held as arrays: an (L, q) int8 table of
letter codes I=0, X=1, Y=2, Z=3 (column j is qubit j) and L complex
coefficients. In that code the product of two letters is the letter
``a ^ b`` up to a power of i, so :func:`multiply_sums` multiplies whole sums
by array operations. Terms are merged and ordered by an integer key that
reads a string's codes as a base-4 number with qubit 0 as the leading
digit, two bits per qubit; the key order is the order of the sorted letter
tuples.

Dense matrices and the statevector oracle use one bit-mask form. As Y = iXZ,
a string is i^n_Y X^m Z^z for its X mask m (bit j set by X or Y on qubit j)
and Z mask z (Z or Y), so O|x> = sum_m d_m[x] |x ^ m>, each d_m one
Walsh-Hadamard transform: O(masks q 2^q) time, one (masks, 2^q) array.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

LETTERS = ("I", "X", "Y", "Z")
GAUSSIAN_UNITS = (1 + 0j, -1 + 0j, 1j, -1j)

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Products of the non-identity letters: a*b = phase * letter.
_XYZ_MUL = {
    ("X", "X"): (1 + 0j, "I"),
    ("Y", "Y"): (1 + 0j, "I"),
    ("Z", "Z"): (1 + 0j, "I"),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}

MERGE_TOLERANCE = 1e-14
# Keys hold two bits per qubit in an int64.
MAX_SUM_QUBITS = 31

_PHASE_PREFIXES = {"+1": 1, "-1": -1, "+i": 1j, "-i": -1j}


def letter_product(a: str, b: str) -> tuple[complex, str]:
    """Single-qubit product a*b as (phase, letter)."""
    if a == "I":
        return 1 + 0j, b
    if b == "I":
        return 1 + 0j, a
    return _XYZ_MUL[a, b]


def _canonical_phase(phase: complex) -> complex:
    for unit in GAUSSIAN_UNITS:
        if abs(phase - unit) < 1e-12:
            return unit
    raise ValueError(f"phase {phase} is not one of the four Gaussian units")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of Pauli letters with a Gaussian-unit phase.

    ``letters[j]`` acts on qubit ``j``.
    """

    letters: tuple[str, ...]
    phase: complex = 1 + 0j

    def __post_init__(self):
        if not self.letters:
            raise ValueError("need at least one qubit")
        if any(l not in LETTERS for l in self.letters):
            raise ValueError(f"invalid letters {self.letters}")
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "phase", _canonical_phase(self.phase))

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(("I",) * num_qubits)

    @classmethod
    def from_label(cls, label: str, phase: complex = 1 + 0j) -> "PauliString":
        """Parse a most-significant-qubit-leftmost label, e.g. ``"ZIZY"``.

        An optional phase prefix ``+1/-1/+i/-i`` separated by a space is
        accepted, so ``from_label(str(p))`` round-trips.
        """
        label = label.strip()
        if " " in label:
            prefix, label = label.split(None, 1)
            if prefix not in _PHASE_PREFIXES:
                raise ValueError(f"unknown phase prefix {prefix!r}")
            phase = phase * _PHASE_PREFIXES[prefix]
            label = label.strip()
        return cls(tuple(reversed(label)), phase)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, letter: str,
               phase: complex = 1 + 0j) -> "PauliString":
        letters = ["I"] * num_qubits
        letters[qubit] = letter
        return cls(tuple(letters), phase)

    def __str__(self) -> str:
        prefix = {1 + 0j: "+1", -1 + 0j: "-1", 1j: "+i", -1j: "-i"}[self.phase]
        return prefix + " " + "".join(reversed(self.letters))

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, l in enumerate(self.letters) if l != "I")

    def weight(self) -> int:
        """Number of non-identity letters (locality)."""
        return len(self.support())

    def to_matrix(self) -> np.ndarray:
        """Dense matrix; row/column index k encodes bits b_{q-1}..b_0."""
        return WeightedPauliSum(self.num_qubits, ((1, self),)).to_matrix()

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b with the accumulated phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {a.num_qubits} vs {b.num_qubits}")
    phase = a.phase * b.phase
    letters = []
    for la, lb in zip(a.letters, b.letters):
        ph, lc = letter_product(la, lb)
        phase *= ph
        letters.append(lc)
    return PauliString(tuple(letters), phase)


def qwc_commutes(a: PauliString, b: PauliString) -> bool:
    """Qubit-wise commutation: letters equal or identity at every position."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit count mismatch: {a.num_qubits} vs {b.num_qubits}")
    return all(la == lb or la == "I" or lb == "I"
               for la, lb in zip(a.letters, b.letters))


def decompose_2x2(m) -> np.ndarray:
    """Hilbert-Schmidt decomposition c_P = Tr(P m) / 2 for P in {I,X,Y,Z}.

    Maps (..., 2, 2) matrices to (..., 4) coefficients (c_I, c_X, c_Y, c_Z).
    Works for arbitrary complex matrices, not only unitaries.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected (..., 2, 2) matrices, got shape {m.shape}")
    c_i = (m[..., 0, 0] + m[..., 1, 1]) / 2
    c_x = (m[..., 0, 1] + m[..., 1, 0]) / 2
    c_y = (1j * m[..., 0, 1] - 1j * m[..., 1, 0]) / 2
    c_z = (m[..., 0, 0] - m[..., 1, 1]) / 2
    return np.stack([c_i, c_x, c_y, c_z], axis=-1)


# Letter code of each ASCII byte; -1 for bytes that are no letter.
_BYTE_LETTER = np.full(256, -1, dtype=np.int8)
_BYTE_LETTER[np.frombuffer("".join(LETTERS).encode(), np.uint8)] = range(4)
_LETTER_ARRAY = np.array(LETTERS)
# i^p for p = 0..3
_I_POWERS = np.array([1, 1j, -1, -1j])


def _build_product_powers() -> np.ndarray:
    """[a, b] -> p with letter a * letter b = i^p * letter (a ^ b)."""
    powers = np.zeros((4, 4), dtype=np.int8)
    for a, b in itertools.product(range(4), repeat=2):
        phase, _ = letter_product(LETTERS[a], LETTERS[b])
        powers[a, b] = _I_POWERS.tolist().index(phase)
    return powers


_PRODUCT_POWER = _build_product_powers()


def letter_codes(strings: Sequence[PauliString], num_qubits: int
                 ) -> np.ndarray:
    """(L, q) int8 letter codes (I=0, X=1, Y=2, Z=3) of strings that all
    act on ``num_qubits`` qubits; phases are ignored."""
    text = "".join("".join(string.letters) for string in strings)
    return _BYTE_LETTER[np.frombuffer(text.encode(), np.uint8)].reshape(
        len(strings), num_qubits)


def _digit_keys(digits: np.ndarray, base: int) -> np.ndarray:
    """Each row of digits as one int64 number, column 0 the leading digit:
    letter codes in base 4 are the merge keys of :class:`WeightedPauliSum`,
    basis codes in base 3 the keys of ``shadows._born_probabilities``."""
    keys = np.zeros(len(digits), dtype=np.int64)
    for column in digits.T:
        keys *= base
        keys += column
    return keys


def _complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b rounded as Python's complex product rounds it: four real
    products, one subtraction and one addition, none of them fused.
    numpy's complex multiply may fuse them and differ in the last bit."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked later
        re = a.real * b.real - a.imag * b.imag
        im = a.real * b.imag + a.imag * b.real
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


class WeightedPauliSum:
    """Observable O = sum_a gamma_a O_a in canonical merged form.

    The sum is two read-only arrays: ``codes``, an (L, q) int8 array of
    letter codes (I=0, X=1, Y=2, Z=3; column j is qubit j), and ``coeffs``,
    the (L,) complex coefficients with every string phase folded in.
    Construction merges duplicate letter patterns by an integer key that
    reads a row as a base-4 number with qubit 0 as the leading digit, adding
    each key's coefficients in input order; it drops |coeff| < 1e-14 and
    keeps the terms in key order, which is the order of the sorted letter
    tuples. Two sums built from the same operator therefore compare equal.

    ``WeightedPauliSum(q, terms)`` converts (coefficient, PauliString)
    pairs; :meth:`from_arrays` takes letter codes directly. ``terms`` is a
    tuple view of (coefficient, PauliString) pairs, built on first use.
    Non-finite coefficients raise ValueError naming the term.
    """

    __slots__ = ("num_qubits", "codes", "coeffs", "_keys", "_terms")

    def __init__(self, num_qubits: int,
                 terms: Iterable[tuple[complex, PauliString]] = ()):
        terms = tuple(terms)
        if any(string.num_qubits != num_qubits for _, string in terms):
            raise ValueError("all terms must share num_qubits")
        codes = letter_codes([string for _, string in terms], num_qubits)
        coeffs = np.array([complex(coeff) * string.phase
                           for coeff, string in terms], dtype=complex)
        self._assign(num_qubits, _digit_keys(codes, 4), coeffs)

    @classmethod
    def from_arrays(cls, num_qubits: int, codes, coeffs
                    ) -> "WeightedPauliSum":
        """Sum of ``coeffs[a]`` times the phase-free string ``codes[a]``,
        merged like the constructor merges."""
        codes = np.asarray(codes)
        coeffs = np.asarray(coeffs, dtype=complex)
        if codes.shape != (len(coeffs), num_qubits) or coeffs.ndim != 1:
            raise ValueError(f"need ({len(coeffs)}, {num_qubits}) letter "
                             f"codes and (L,) coefficients, got "
                             f"{codes.shape} and {coeffs.shape}")
        if codes.size and (codes.dtype.kind not in "iu" or codes.min() < 0
                           or codes.max() > 3):
            raise ValueError("letter codes must be integers in 0..3 "
                             "(I, X, Y, Z)")
        obj = cls.__new__(cls)
        obj._assign(num_qubits, _digit_keys(codes.astype(np.int8), 4), coeffs)
        return obj

    def _assign(self, num_qubits: int, keys: np.ndarray,
                coeffs: np.ndarray) -> None:
        """Check, merge by key, drop negligible terms, freeze."""
        if not 1 <= num_qubits <= MAX_SUM_QUBITS:
            raise ValueError(f"num_qubits must lie in 1..{MAX_SUM_QUBITS}, "
                             f"got {num_qubits}")
        shifts = 2 * np.arange(num_qubits - 1, -1, -1)
        bad = np.flatnonzero(~np.isfinite(coeffs))
        if bad.size:
            n = bad[0]
            string = PauliString(tuple(LETTERS[k]
                                       for k in (keys[n] >> shifts) & 3))
            raise ValueError(f"term {n} ({string}): coefficient must be "
                             f"finite, got {coeffs[n]}")
        distinct, which = np.unique(keys, return_inverse=True)
        sums = np.zeros(distinct.size, dtype=complex)
        # a running sum per key in input order, from 0, as a dict merge adds
        np.add.at(sums, which, coeffs)
        # hypot is the abs of a Python complex; np.abs may round differently
        keep = np.hypot(sums.real, sums.imag) >= MERGE_TOLERANCE
        keys, coeffs = distinct[keep], sums[keep]
        codes = ((keys[:, None] >> shifts) & 3).astype(np.int8)
        for arr in (keys, codes, coeffs):
            arr.setflags(write=False)
        for name, value in (("num_qubits", int(num_qubits)), ("codes", codes),
                            ("coeffs", coeffs), ("_keys", keys),
                            ("_terms", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedPauliSum is immutable")

    def __reduce__(self):
        return WeightedPauliSum.from_arrays, (self.num_qubits, self.codes,
                                              self.coeffs)

    @property
    def terms(self) -> tuple[tuple[complex, PauliString], ...]:
        """(coefficient, PauliString) pairs in key order (cached)."""
        if self._terms is None:
            object.__setattr__(self, "_terms", tuple(
                (coeff, PauliString(tuple(row)))
                for coeff, row in zip(self.coeffs.tolist(),
                                      _LETTER_ARRAY[self.codes].tolist())))
        return self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedPauliSum):
            return NotImplemented
        return (self.num_qubits == other.num_qubits
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash((self.num_qubits, self._keys.tobytes(),
                     self.coeffs.tobytes()))

    def __repr__(self) -> str:
        return f"WeightedPauliSum({self.num_qubits}, {self.terms!r})"

    @classmethod
    def identity(cls, num_qubits: int, coeff: complex = 1 + 0j
                 ) -> "WeightedPauliSum":
        return cls(num_qubits, ((coeff, PauliString.identity(num_qubits)),))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other: "WeightedPauliSum") -> "WeightedPauliSum":
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        return WeightedPauliSum.from_arrays(
            self.num_qubits, np.concatenate([self.codes, other.codes]),
            np.concatenate([self.coeffs, other.coeffs]))

    def magnitudes(self) -> np.ndarray:
        """|gamma_a| per term, float for float as Python's ``abs``."""
        return np.hypot(self.coeffs.real, self.coeffs.imag)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix: d_m[x] of :func:`_mask_form` in row x ^ m."""
        masks, diagonals = _mask_form(self)
        cols = np.arange(2 ** self.num_qubits)
        out = np.zeros((cols.size, cols.size), dtype=complex)
        out[cols ^ masks[:, None], cols] = diagonals
        return out

    def to_json(self) -> str:
        return json.dumps([
            {"coeff_re": c.real, "coeff_im": c.imag, "string": str(s)}
            for c, s in self.terms])

    @classmethod
    def from_json(cls, text: str, num_qubits: int | None = None
                  ) -> "WeightedPauliSum":
        """Parse :meth:`to_json` output: a list of objects, each with finite
        numbers ``coeff_re`` and ``coeff_im`` and a Pauli label ``string``.
        ValueError names the first malformed entry."""
        entries = json.loads(text)
        if not isinstance(entries, list):
            raise ValueError("observable must be a JSON list of terms, got "
                             f"{type(entries).__name__}")
        terms = []
        for n, entry in enumerate(entries):
            try:
                terms.append(_json_term(entry))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"observable term {n}: {exc}") from None
        if num_qubits is None:
            if not terms:
                raise ValueError("empty sum needs an explicit num_qubits")
            num_qubits = terms[0][1].num_qubits
        return cls(num_qubits, tuple(terms))


def _json_term(entry) -> tuple[complex, PauliString]:
    """One observable-file entry as (coefficient, string), or ValueError."""
    if not isinstance(entry, dict) \
            or not {"coeff_re", "coeff_im", "string"} <= entry.keys():
        raise ValueError("need an object with coeff_re, coeff_im and "
                         f"string, got {entry!r}")
    parts = entry["coeff_re"], entry["coeff_im"]
    if any(isinstance(v, bool) or not isinstance(v, (int, float))
           or not math.isfinite(v) for v in parts):
        raise ValueError(f"coefficients must be finite numbers, got {parts}")
    if not isinstance(entry["string"], str):
        raise ValueError(f"string must be a Pauli label, got "
                         f"{entry['string']!r}")
    return complex(*parts), PauliString.from_label(entry["string"])


def _mask_form(obs: WeightedPauliSum) -> tuple[np.ndarray, np.ndarray]:
    """The distinct X masks m of a sum and the (masks, 2**q) array of
    d_m[x] = sum_a gamma_a i^n_Y (-1)^popcount(z_a & x) over mask m."""
    q, codes = obs.num_qubits, obs.codes
    bits = 1 << np.arange(q, dtype=np.int64)
    masks, rows = np.unique(np.isin(codes, (1, 2)) @ bits, return_inverse=True)
    out = np.zeros((len(masks), 2 ** q), dtype=complex)
    out[rows, (codes >= 2) @ bits] = (
        obs.coeffs * _I_POWERS[(codes == 2).sum(axis=1) & 3])
    for j in range(q):  # in place, with one half-size temporary
        pairs = out.reshape(len(masks), 2 ** (q - 1 - j), 2, 2 ** j)
        diff = pairs[:, :, 0] - pairs[:, :, 1]
        pairs[:, :, 0] += pairs[:, :, 1]
        pairs[:, :, 1] = diff
    return masks, out


def multiply_sums(a: WeightedPauliSum, b: WeightedPauliSum) -> WeightedPauliSum:
    """Operator product a @ b, merged like the constructor merges.

    Product string (m, n) has the codes ``a.codes[m] ^ b.codes[n]``, hence
    the key of the XOR of their keys, and the phase i^p with p summed over
    qubits from :func:`letter_product`. The products are merged in the
    order of a loop over a's terms, then b's.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit count mismatch")
    power = _PRODUCT_POWER[a.codes[:, None, :], b.codes[None, :, :]].sum(
        axis=2)
    with np.errstate(invalid="ignore"):  # an overflow's inf * 0; rejected
        coeffs = (_complex_product(a.coeffs[:, None], b.coeffs[None, :])
                  * _I_POWERS[power & 3])
    keys = a._keys[:, None] ^ b._keys[None, :]
    product = WeightedPauliSum.__new__(WeightedPauliSum)
    product._assign(a.num_qubits, keys.ravel(), coeffs.ravel())
    return product
