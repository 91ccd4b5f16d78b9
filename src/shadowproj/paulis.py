"""Pauli-string algebra with exact phase tracking.

Strings are tensor products of I/X/Y/Z over ``num_qubits`` qubits carrying a
phase restricted to the four Gaussian units {+1, -1, +i, -i}; arbitrary
complex scalars live only in the coefficients of :class:`WeightedPauliSum`.
Qubit ``j = 0`` is the least significant one; text labels are written with
the most significant qubit leftmost, e.g. ``"+1 ZIZY"``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

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

    def with_phase(self, phase: complex) -> "PauliString":
        return PauliString(self.letters, phase)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix; row/column index k encodes bits b_{q-1}..b_0."""
        m = np.array([[self.phase]], dtype=complex)
        for letter in reversed(self.letters):
            m = np.kron(m, PAULI_MATRICES[letter])
        return m

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


@dataclass(frozen=True)
class WeightedPauliSum:
    """Observable O = sum_a gamma_a O_a in canonical merged form.

    Construction folds each string's phase into its coefficient, merges
    duplicate letter patterns, drops |coeff| < 1e-14 and sorts terms, so two
    sums built from the same operator compare equal.
    """

    num_qubits: int
    terms: tuple[tuple[complex, PauliString], ...] = field(default=())

    def __post_init__(self):
        merged: dict[tuple[str, ...], complex] = {}
        for coeff, string in self.terms:
            if string.num_qubits != self.num_qubits:
                raise ValueError("all terms must share num_qubits")
            key = string.letters
            merged[key] = merged.get(key, 0j) + complex(coeff) * string.phase
        canonical = tuple(
            (coeff, PauliString(letters))
            for letters, coeff in sorted(merged.items())
            if abs(coeff) >= MERGE_TOLERANCE)
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def from_terms(cls, num_qubits: int,
                   terms: Iterable[tuple[complex, PauliString]]
                   ) -> "WeightedPauliSum":
        return cls(num_qubits, tuple(terms))

    @classmethod
    def identity(cls, num_qubits: int, coeff: complex = 1 + 0j
                 ) -> "WeightedPauliSum":
        return cls(num_qubits, ((coeff, PauliString.identity(num_qubits)),))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __add__(self, other: "WeightedPauliSum") -> "WeightedPauliSum":
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        return WeightedPauliSum(self.num_qubits, self.terms + other.terms)

    def scaled(self, factor: complex) -> "WeightedPauliSum":
        return WeightedPauliSum(
            self.num_qubits,
            tuple((factor * c, s) for c, s in self.terms))

    def coefficient_bound(self) -> float:
        """sum_a |gamma_a|, an upper bound on |<O>| for Hermitian O."""
        return float(sum(abs(c) for c, _ in self.terms))

    def max_weight(self) -> int:
        return max((s.weight() for _, s in self.terms), default=0)

    def to_matrix(self) -> np.ndarray:
        dim = 2 ** self.num_qubits
        m = np.zeros((dim, dim), dtype=complex)
        for coeff, string in self.terms:
            m += coeff * string.to_matrix()
        return m

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


def multiply_sums(a: WeightedPauliSum, b: WeightedPauliSum) -> WeightedPauliSum:
    """Operator product a @ b expanded and merged term by term."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit count mismatch")
    terms = []
    for ca, sa in a.terms:
        for cb, sb in b.terms:
            terms.append((ca * cb, multiply(sa, sb)))
    return WeightedPauliSum(a.num_qubits, tuple(terms))
