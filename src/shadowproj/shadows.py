"""Classical-shadow acquisition and estimation with the single-qubit
Pauli measurement ensemble.

A snapshot is one (per-qubit basis, outcome bitstring) pair. Estimation of a
Pauli observable reduces to per-qubit trace factors that take values in
{0, 1, +3, -3} for uniformly random bases, or to direct compatible-outcome
averages when the bases were prescribed by a measurement plan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import rng as _rng
from .paulis import WeightedPauliSum
from .statevector import BASIS_ROTATIONS, I2, Statevector, rotate_to_bases

BASIS_LETTERS = ("X", "Y", "Z")
BASIS_CODE = {"X": 0, "Y": 1, "Z": 2}
_ACQUIRE_TAG = 0x5d0b

# Dense single-qubit retro-rotated outcome densities r = U^dag |b><b| U.
def _build_outcome_densities():
    table = {}
    for basis in BASIS_LETTERS:
        u = BASIS_ROTATIONS[basis]
        for bit in (0, 1):
            v = u.conj().T[:, bit]
            table[basis, bit] = np.outer(v, v.conj())
    return table


_SINGLE_R = _build_outcome_densities()


@dataclass(frozen=True)
class Snapshot:
    """One measurement event: per-qubit bases and the outcome bits.

    ``bases[j]`` and ``outcome[j]`` belong to qubit j.
    """

    bases: tuple[str, ...]
    outcome: tuple[int, ...]

    def __post_init__(self):
        if len(self.bases) != len(self.outcome):
            raise ValueError("bases and outcome lengths differ")
        if any(b not in BASIS_LETTERS for b in self.bases):
            raise ValueError(f"invalid bases {self.bases}")
        object.__setattr__(self, "bases", tuple(self.bases))
        object.__setattr__(self, "outcome", tuple(int(b) for b in self.outcome))

    @property
    def num_qubits(self) -> int:
        return len(self.bases)


class InvalidSnapshot(ValueError):
    """A snapshot with a basis code outside {X, Y, Z} or a bit outside
    {0, 1}; ``index`` is its position in the shadow."""

    rule = "bases must be X, Y or Z and outcome bits 0 or 1"

    def __init__(self, index: int):
        super().__init__(f"snapshot {index}: {self.rule}")
        self.index = index


class ClassicalShadow:
    """An ordered collection of snapshots plus the seed that produced it.

    The snapshots are held as two read-only (M, q) int8 arrays: ``codes``
    (basis per qubit, X=0, Y=1, Z=2) and ``outcomes`` (bit per qubit).
    ``prescribed`` records whether the bases came from a measurement plan
    rather than the uniform-random ensemble; it selects the estimator in
    :func:`estimate`.

    ``ClassicalShadow(q, snapshots, seed)`` converts Snapshot objects once;
    :meth:`from_arrays` takes the arrays directly.
    """

    __slots__ = ("codes", "outcomes", "seed", "prescribed")

    def __init__(self, num_qubits: int, snapshots: Sequence[Snapshot],
                 seed: int, prescribed: bool = False):
        snapshots = tuple(snapshots)
        if any(s.num_qubits != num_qubits for s in snapshots):
            raise ValueError("all snapshots must share num_qubits")
        shape = (len(snapshots), num_qubits)
        codes = np.array([[BASIS_CODE[b] for b in s.bases]
                          for s in snapshots], dtype=np.int8).reshape(shape)
        outcomes = np.array([s.outcome for s in snapshots],
                            dtype=np.int64).reshape(shape)
        self._assign(codes, outcomes, seed, prescribed)

    @classmethod
    def from_arrays(cls, codes: np.ndarray, outcomes: np.ndarray, seed: int,
                    prescribed: bool = False) -> "ClassicalShadow":
        shadow = cls.__new__(cls)
        shadow._assign(codes, outcomes, seed, prescribed)
        return shadow

    def _assign(self, codes, outcomes, seed, prescribed) -> None:
        """The one entry point of snapshot data: validate, then freeze."""
        codes, outcomes = np.asarray(codes), np.asarray(outcomes)
        if codes.ndim != 2 or codes.shape != outcomes.shape:
            raise ValueError("codes and outcomes must be equal (M, q) arrays")
        if codes.shape[0] < 1:
            raise ValueError("a shadow needs at least one snapshot")
        bad = ((codes < 0) | (codes > 2) | (outcomes < 0) | (outcomes > 1)
               ).any(axis=1)
        if bad.any():
            raise InvalidSnapshot(int(np.argmax(bad)))
        for name, arr in (("codes", codes), ("outcomes", outcomes)):
            arr = arr.astype(np.int8)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "prescribed", bool(prescribed))

    def __setattr__(self, name, value):
        raise AttributeError("ClassicalShadow is immutable")

    @property
    def num_qubits(self) -> int:
        return self.codes.shape[1]

    @property
    def snapshots(self) -> tuple[Snapshot, ...]:
        """Snapshot objects built from the arrays on every access."""
        return tuple(Snapshot(tuple(BASIS_LETTERS[c] for c in row),
                              tuple(bits))
                     for row, bits in zip(self.codes.tolist(),
                                          self.outcomes.tolist()))

    def __len__(self) -> int:
        return self.codes.shape[0]


def acquire_shadow(state: Statevector, shots: int, seed: int,
                   bases: Sequence[Sequence[str]] | None = None
                   ) -> ClassicalShadow:
    """Collect ``shots`` snapshots of ``state``.

    With ``bases=None`` every qubit's basis is drawn i.i.d. uniformly from
    {X, Y, Z}; otherwise the prescribed per-round bases are used (length must
    equal ``shots``). Snapshot n consumes row n of a counter-based uniform
    block derived from the seed, so results are reproducible and independent
    of any parallel execution order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    q = state.num_qubits
    block = _rng.uniform_block(seed, (_ACQUIRE_TAG,), shots, q + 1)
    if bases is None:
        codes = np.minimum((block[:, :q] * 3).astype(np.int8), 2)
        prescribed = False
    else:
        bases = list(bases)
        if len(bases) != shots:
            raise ValueError("prescribed basis list length must equal shots")
        codes = np.array([[BASIS_CODE[b] for b in row] for row in bases],
                         dtype=np.int8)
        if codes.shape != (shots, q):
            raise ValueError("each prescribed entry needs q basis letters")
        prescribed = True

    uniforms = block[:, q]
    outcomes = np.empty((shots, q), dtype=np.int8)
    unique_rows, inverse = np.unique(codes, axis=0, return_inverse=True)
    for gi, row in enumerate(unique_rows):
        members = np.nonzero(inverse == gi)[0]
        letters = [BASIS_LETTERS[c] for c in row]
        cdf = np.cumsum(rotate_to_bases(state, letters).probabilities())
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, uniforms[members], side="right")
        idx = np.minimum(idx, cdf.size - 1)
        outcomes[members] = (idx[:, None] >> np.arange(q)) & 1

    return ClassicalShadow.from_arrays(codes, outcomes, seed, prescribed)


def qubit_trace_factor(basis: str, outcome_bit: int, p: str) -> int:
    """Per-qubit trace factor: 1 for identity, +-3 on a basis match, else 0."""
    if p == "I":
        return 1
    if basis == p:
        return 3 if outcome_bit == 0 else -3
    return 0


def _per_snapshot_values(shadow: ClassicalShadow,
                         obs: WeightedPauliSum) -> np.ndarray:
    """Inverse-channel estimator value of obs on every snapshot."""
    bases, outcomes = shadow.codes, shadow.outcomes
    sign3 = 3.0 * (1.0 - 2.0 * outcomes)
    totals = np.zeros(len(shadow), dtype=complex)
    for coeff, string in obs.terms:
        v = np.ones(len(shadow))
        for j in string.support():
            v = v * (sign3[:, j] * (bases[:, j] == BASIS_CODE[string.letters[j]]))
        totals += (coeff * string.phase) * v
    return totals


def _estimate_prescribed(shadow: ClassicalShadow,
                         obs: WeightedPauliSum) -> float:
    bases, outcomes = shadow.codes, shadow.outcomes
    sign = 1.0 - 2.0 * outcomes
    total = 0j
    for coeff, string in obs.terms:
        support = string.support()
        mask = np.ones(len(shadow), dtype=bool)
        vals = np.ones(len(shadow))
        for j in support:
            mask &= bases[:, j] == BASIS_CODE[string.letters[j]]
            vals = vals * sign[:, j]
        hits = int(mask.sum())
        if hits == 0:
            raise ValueError(f"no compatible snapshots for term {string}")
        total += (coeff * string.phase) * (vals[mask].sum() / hits)
    return float(total.real)


def estimate(shadow: ClassicalShadow, obs: WeightedPauliSum,
             median_groups: int | None = None) -> float:
    """Estimate <obs> from the shadow.

    Uniform-random shadows use the inverted-channel mean with the factor-3
    per-qubit kernel; prescribed shadows switch to the direct
    compatible-count average (no factor 3), the only unbiased choice there.
    ``median_groups`` enables median-of-means on random shadows for
    robustness studies; the plain mean is the default.
    """
    if obs.num_qubits != shadow.num_qubits:
        raise ValueError("observable and shadow qubit counts differ")
    if shadow.prescribed:
        if median_groups not in (None, 1):
            raise ValueError("median-of-means applies to random shadows only")
        return _estimate_prescribed(shadow, obs)
    values = _per_snapshot_values(shadow, obs)
    if median_groups in (None, 1):
        return float(values.mean().real)
    chunks = np.array_split(values.real, median_groups)
    return float(np.median([chunk.mean() for chunk in chunks]))


def snapshot_density(snapshot: Snapshot) -> np.ndarray:
    """Dense inverted-channel density of one snapshot, kron over qubits."""
    m = np.array([[1.0 + 0j]])
    for j in reversed(range(snapshot.num_qubits)):
        r = _SINGLE_R[snapshot.bases[j], snapshot.outcome[j]]
        m = np.kron(m, 3.0 * r - I2)
    return m


def reconstruct_density(shadow: ClassicalShadow,
                        max_qubits: int = 4) -> np.ndarray:
    """Mean of snapshot densities; Hermitian with unit trace by construction.

    The output is generally not positive semidefinite at finite M. Dense
    reconstruction is guarded to small registers.
    """
    if shadow.num_qubits > max_qubits:
        raise ValueError(
            f"dense reconstruction limited to q <= {max_qubits}")
    q = shadow.num_qubits
    acc = np.zeros((2 ** q, 2 ** q), dtype=complex)
    keys, first, counts = np.unique(
        np.hstack([shadow.codes, shadow.outcomes]), axis=0,
        return_index=True, return_counts=True)
    # distinct snapshots in order of first appearance
    for i in np.argsort(first):
        snap = Snapshot(tuple(BASIS_LETTERS[c] for c in keys[i, :q]),
                        tuple(keys[i, q:]))
        acc += counts[i] * snapshot_density(snap)
    return acc / len(shadow)


def iter_snapshot_distribution(state: Statevector
                               ) -> Iterator[tuple[Snapshot, float]]:
    """All (snapshot, probability) pairs of the random-Pauli protocol.

    Enumerates the 3^q basis combinations times the 2^q outcomes with their
    exact Born probabilities; the weights sum to one. Intended for exact
    unbiasedness checks at small q.
    """
    q = state.num_qubits
    for combo in itertools.product(BASIS_LETTERS, repeat=q):
        probs = rotate_to_bases(state, combo).probabilities()
        for k in range(2 ** q):
            p = probs[k] / 3 ** q
            if p == 0.0:
                continue
            bits = tuple((k >> j) & 1 for j in range(q))
            yield Snapshot(combo, bits), float(p)


_LETTER_BYTES = np.frombuffer("".join(BASIS_LETTERS).encode(), np.uint8)
_BYTE_CODES = np.full(256, -1, dtype=np.int8)
_BYTE_CODES[_LETTER_BYTES] = np.arange(3)


def save_shadow(shadow: ClassicalShadow, path: str | Path) -> None:
    """Write the text format: header ``q= M= seed=`` (plus
    ``protocol=prescribed`` for plan-based shadows), then one line per
    snapshot, basis letters and outcome bits most-significant qubit first."""
    header = f"q={shadow.num_qubits} M={len(shadow)} seed={shadow.seed}"
    if shadow.prescribed:
        header += " protocol=prescribed"
    q = shadow.num_qubits
    rows = np.empty((len(shadow), 2 * q + 2), dtype=np.uint8)
    rows[:, :q] = _LETTER_BYTES[shadow.codes[:, ::-1]]
    rows[:, q] = ord(" ")
    rows[:, q + 1:-1] = ord("0") + shadow.outcomes[:, ::-1]
    rows[:, -1] = ord("\n")
    Path(path).write_bytes(header.encode() + b"\n" + rows.tobytes())


def load_shadow(path: str | Path, prescribed: bool = False) -> ClassicalShadow:
    """Read the format of :func:`save_shadow`.

    The protocol comes from the header; a file without ``protocol=`` reads
    as a random shadow, and ``prescribed=True`` forces the prescribed one.
    Malformed input raises ValueError naming the offending line.
    """
    lines = Path(path).read_text().strip().splitlines()
    try:
        header = dict(item.split("=") for item in lines[0].split())
        q, m, seed = int(header["q"]), int(header["M"]), int(header["seed"])
        protocol = header.get("protocol", "random")
        if q < 1 or protocol not in ("random", "prescribed"):
            raise ValueError(f"q={q} protocol={protocol}")
    except (IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"{path} line 1: bad header: {exc}") from None
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"{path}: header says M={m} but found {len(body)} "
                         "snapshot lines")
    width = 2 * q + 1
    lengths = np.fromiter(map(len, body), dtype=np.int64, count=m)
    bad = np.flatnonzero(lengths != width)
    if not bad.size:
        rows = np.frombuffer("".join(body).encode("ascii", "replace"),
                             dtype=np.uint8).reshape(m, width)
        bad = np.flatnonzero(rows[:, q] != ord(" "))
    if bad.size:
        raise ValueError(f"{path} line {bad[0] + 2}: expected {q} basis "
                         f"letters, a space and {q} bits, got "
                         f"{body[bad[0]]!r}")
    try:
        return ClassicalShadow.from_arrays(
            _BYTE_CODES[rows[:, q - 1::-1]], rows[:, :q:-1] - ord("0"),
            seed, prescribed or protocol == "prescribed")
    except InvalidSnapshot as exc:
        raise ValueError(f"{path} line {exc.index + 2}: malformed snapshot "
                         f"{body[exc.index]!r}: {exc.rule}") from None
