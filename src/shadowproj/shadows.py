"""Classical-shadow acquisition and estimation with the single-qubit
Pauli measurement ensemble.

A snapshot is one (per-qubit basis, outcome bitstring) pair. Estimators run
over the distinct (basis, bit) rows of a shadow, weighted by how many
snapshots equal each, with one of two kernels. Plain Pauli sums, under both
protocols, and the coverage of a measurement plan use the integer counts of
:func:`_term_counts`: a string's signed and hit counts over the rows, from
per-qubit factors in {1, -1, 0}. The inverse-channel mean of random bases
weighs a signed count by 3^weight / M; the compatible-count average of
prescribed bases divides it by the string's hits. The LCU projectors run a
complex kernel over class keys of the rows, in :mod:`shadowproj.projectors`.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import rng as _rng
from .paulis import WeightedPauliSum, _digit_keys
from .statevector import BASIS_ROTATIONS, I2, Statevector

BASIS_LETTERS = ("X", "Y", "Z")
BASIS_CODE = {"X": 0, "Y": 1, "Z": 2}
_ACQUIRE_TAG = 0x5d0b
# Largest register reconstruct_density builds a dense 2^q x 2^q matrix for.
MAX_DENSE_QUBITS = 4

# _SYMBOL_DENSITY[2 * code + bit] = 3 r - I, where r = U^dag |bit><bit| U is
# the retro-rotated outcome density of the basis with that code.
_SYMBOL_DENSITY = np.stack([3.0 * np.outer(u[bit].conj(), u[bit]) - I2
                            for u in map(BASIS_ROTATIONS.get, BASIS_LETTERS)
                            for bit in (0, 1)])


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


def _check_count(value, name: str = "shots") -> None:
    """ValueError unless ``value`` is an integer of at least 1 (not a
    bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
    :meth:`from_arrays` takes the arrays directly. Either way the seed must
    be a non-negative integer, as for :func:`acquire_shadow`.
    """

    __slots__ = ("codes", "outcomes", "seed", "prescribed")

    def __init__(self, num_qubits: int, snapshots: Sequence[Snapshot],
                 seed: int, prescribed: bool = False):
        _check_count(num_qubits, "num_qubits")
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
        _check_count(codes.shape[1], "num_qubits")
        _rng._check_seed(seed)
        # one flat test: a reduction along rows of q entries is slow
        bad = (codes < 0) | (codes > 2) | (outcomes < 0) | (outcomes > 1)
        if bad.any():
            raise InvalidSnapshot(int(np.argmax(bad)) // codes.shape[1])
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
    {X, Y, Z}; otherwise the prescribed per-round bases are used: ``shots``
    rounds of q letters X, Y or Z, or ValueError naming the first bad round.
    Snapshot n consumes row n of a counter-based uniform block derived from
    the seed (q basis draws, unused for prescribed bases, then the outcome
    draw), so results are reproducible and independent of any parallel
    execution order. :func:`_descend` draws the outcomes.
    """
    _check_count(shots)
    q = state.num_qubits
    block = _rng.uniform_block(seed, (_ACQUIRE_TAG,), shots, q + 1)
    if bases is None:
        codes = np.minimum((block[:, :q] * 3).astype(np.int8), 2)
    else:
        codes = _prescribed_codes(list(bases), shots, q)
    # level k holds at most min(shots, 3 * 6^k) keys of 2^(q-k) amplitudes
    step = max(1, min([shots] + [_DESCENT_BUDGET >> (q - k) for k in range(q)
                                 if 3 * 6 ** k << (q - k) > _DESCENT_BUDGET]))
    outcomes = np.empty((shots, q), dtype=np.int8)
    for start in range(0, shots, step):
        run = slice(start, start + step)
        _descend(state, codes[run], block[run, q], outcomes[run])
    return ClassicalShadow.from_arrays(codes, outcomes, seed,
                                       bases is not None)


def _descend(state: Statevector, codes: np.ndarray, uniforms: np.ndarray,
             outcomes: np.ndarray) -> None:
    """Write into ``outcomes`` each shot's inverse-CDF outcome of its
    uniform u, one qubit at a time from qubit q-1, the leading bit: the
    shot's basis rotates its node (a history of bases and bits), and it
    takes bit 1 iff its residual u |psi|^2 is at least the bit-0 child's
    mass and the bit-1 child's mass is not zero, then drops that mass.
    Nodes are all 6^k histories while 3 * 6^k is at most a quarter of the
    shots, and then only the (node, basis) keys some shot reached."""
    q = state.num_qubits
    amps, node = state.amplitudes[None], np.zeros(len(codes), dtype=np.intp)
    residual = uniforms * (np.abs(state.amplitudes) ** 2).sum()
    for k, j in enumerate(range(q - 1, -1, -1)):
        key = 3 * node + codes[:, j]
        reached = np.arange(3 * len(amps))
        if 12 * 6 ** k > len(codes):  # keys < 6 * shots: no sort needed
            seen = np.bincount(key, minlength=reached.size) > 0
            reached, key = np.flatnonzero(seen), (np.cumsum(seen) - 1)[key]
        half, parent = amps.shape[1] // 2, reached // 3
        low, high = amps[parent, None, :half], amps[parent, None, half:]
        del amps
        gate = _LEVEL_GATES[reached % 3][:, :, :, None]
        children = gate[:, :, 0] * low  # (keys, bit, 2^j)
        children += gate[:, :, 1] * high
        amps = children.reshape(-1, half)
        mass = (np.abs(children) ** 2).sum(axis=2)
        edge = np.where(mass[:, 1] > 0, mass[:, 0], np.inf)[key]
        bit = residual >= edge
        residual = np.where(bit, residual - edge, residual)
        outcomes[:, j], node = bit, 2 * key + bit


def _prescribed_codes(bases: list, shots: int, q: int,
                      name: str = "prescribed round") -> np.ndarray:
    """(shots, q) int8 codes of prescribed basis rows; ValueError names the
    first row, as ``name`` and its index, that is not q letters X, Y or
    Z."""
    if len(bases) != shots:
        raise ValueError("prescribed basis list length must equal shots")
    try:
        rows = ["".join(row) for row in bases]
        sizes = np.fromiter(map(len, bases), dtype=np.int64, count=shots)
    except TypeError:  # some round is not a sequence of strings
        bad = np.flatnonzero([not _letter_round(row, q) for row in bases])
    else:
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=shots)
        bad = np.flatnonzero((sizes != q) | (lengths != q))
    if not bad.size:
        codes = _BYTE_CODES[np.frombuffer(
            "".join(rows).encode("ascii", "replace"),
            dtype=np.uint8)].reshape(shots, q)
        bad = np.flatnonzero((codes < 0).any(axis=1))
    if bad.size:
        raise ValueError(f"{name} {bad[0]}: expected {q} basis "
                         f"letters X, Y or Z, got {bases[bad[0]]!r}")
    return codes


def _letter_round(row, q: int) -> bool:
    """Whether one prescribed round is q letters X, Y or Z."""
    try:
        return len(row) == q and all(b in BASIS_CODE for b in row)
    except TypeError:
        return False


# The basis rotations by code. rotate_to_bases skips Z; here Z is the
# identity, whose product returns its input exactly, up to the sign of a
# zero, which no later sum or probability can see.
_LEVEL_GATES = np.stack([BASIS_ROTATIONS[b] for b in BASIS_LETTERS])

# Amplitudes one level may hold: 2^21 complex values (32 MiB) in the
# acquisition descent, whose shots go in consecutive runs to keep to it, and
# 2^13 (128 KiB) in the rotations of whole distributions.
_DESCENT_BUDGET, _AMPLITUDE_BUDGET = 1 << 21, 1 << 13


def _born_probabilities(state: Statevector, keys: np.ndarray) -> np.ndarray:
    """(K, 2^q) outcome distributions of ``state`` in the bases ``keys``.

    A key reads a basis row as a base-3 number with qubit 0 as its leading
    digit; keys may come in any order and repeat. Row i equals, float for
    float, ``rotate_to_bases(state, row).probabilities()`` for ``keys[i]``:
    the gates go on qubit 0 first, each as the same (2, 2) @ (2, 2^(q-1))
    product, and Z applies the identity. Every key gets its own rotations,
    one batched product per qubit over chunks of ``_AMPLITUDE_BUDGET >> q``
    keys.
    """
    q = state.num_qubits
    dim = 1 << q
    codes = keys[:, None] // 3 ** np.arange(q - 1, -1, -1) % 3
    per_chunk = max(1, _AMPLITUDE_BUDGET >> q)
    probs = np.empty((keys.size, dim))
    for start in range(0, keys.size, per_chunk):
        rows = codes[start:start + per_chunk]
        amps = np.broadcast_to(state.amplitudes, (len(rows), dim))
        for j in range(q):
            # amps leads with qubit j-1, the rest in order; qubit j in its
            # place is apply_gate's (2, 2^(q-1)) layout, and after qubit
            # q-1 the order is the natural one
            split = (len(rows), -1, dim >> (j + 1), 2, max(1, 1 << j >> 1))
            slab = amps.reshape(split).transpose(0, 3, 2, 1, 4)
            amps = _LEVEL_GATES[rows[:, j]] @ slab.reshape(len(rows), 2, -1)
        part = np.abs(amps.reshape(len(rows), dim)) ** 2
        probs[start:start + per_chunk] = part / part.sum(axis=1, keepdims=True)
    return probs


def qubit_trace_factor(basis: str, outcome_bit: int, p: str) -> int:
    """Per-qubit trace factor: 1 for identity, +-3 on a basis match, else 0."""
    if p == "I":
        return 1
    if basis == p:
        return 3 if outcome_bit == 0 else -3
    return 0


# Qubits per int64 word of a snapshot key: 6^24 < 2^63.
_SYMBOLS_PER_WORD = 24


def _distinct_snapshots(shadow: ClassicalShadow
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (M', q) symbol rows 2 * code + bit, in lexicographic order,
    and the number of snapshots equal to each.

    A row is read as base-6 int64 words of 24 qubits, qubit 0 the leading
    digit of the first word, so rows sort as their keys. A single word is
    sorted unstably: the rows of a run of equal keys are equal.
    """
    symbols = 2 * shadow.codes + shadow.outcomes
    words = np.stack([
        _digit_keys(symbols[:, start:start + _SYMBOLS_PER_WORD], 6)
        for start in range(0, shadow.num_qubits, _SYMBOLS_PER_WORD)])
    order = (np.argsort(words[0]) if len(words) == 1
             else np.lexsort(words[::-1]))
    words = words[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (words[:, 1:] != words[:, :-1]).any(axis=0)
    starts = np.flatnonzero(first)
    return (symbols[order[starts]].astype(np.intp),
            np.diff(starts, append=len(order)))


# _LETTER_FACTOR[letter, symbol]: a qubit's factor in a signed count; 1 for
# I, (-1)^bit where the basis measured the letter, else 0.
_LETTER_FACTOR = np.array([[1, 1, 1, 1, 1, 1],
                           [1, -1, 0, 0, 0, 0],
                           [0, 0, 1, -1, 0, 0],
                           [0, 0, 0, 0, 1, -1]], dtype=np.int8)


def _sum_in_order(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., left to right: the rounding of a
    running total, which a pairwise ``sum`` does not keep."""
    return float(np.cumsum(np.append(0.0, values))[-1])


def _term_counts(rows: np.ndarray, counts: np.ndarray, codes: np.ndarray,
                 chunk: int = 1 << 18) -> tuple[np.ndarray, np.ndarray]:
    """Signed and hit counts of S strings over distinct symbol rows.

    ``rows`` are (R, q) symbols 2 * code + bit, ``counts`` the snapshots
    equal to each, ``codes`` the (S, q) letter codes (I=0, X=1, Y=2, Z=3)
    of the strings. A string's value on a row is the product over qubits of
    ``_LETTER_FACTOR``, in {1, -1, 0}; ``signed`` sums it and ``hits`` its
    magnitude over the rows, weighted by the counts, as exact int64. The
    (4, R) factors of each qubit are gathered once; ``chunk`` bounds the
    (strings x rows) block in elements.
    """
    factors = [_LETTER_FACTOR[:, column] for column in rows.T]
    signed = np.empty(len(codes), dtype=np.int64)
    hits = np.empty(len(codes), dtype=np.int64)
    step = max(1, chunk // len(rows))
    gathered = np.empty((min(step, len(codes)), len(rows)), dtype=np.int8)
    for start in range(0, len(codes), step):
        block = codes[start:start + step]
        values = factors[0][block[:, 0]]
        for factor, letters in zip(factors[1:], block.T[1:]):
            values *= factor.take(letters, axis=0, out=gathered[:len(block)])
        signed[start:start + step] = (values * counts).sum(axis=1)
        hits[start:start + step] = ((values != 0) * counts).sum(axis=1)
    return signed, hits


def estimate(shadow: ClassicalShadow, obs: WeightedPauliSum,
             median_groups: int | None = None) -> float:
    """Estimate <obs> from the shadow: sum_a Re(gamma_a) <O_a>, added term
    by term in order, from the counts of :func:`_term_counts`.

    Uniform-random shadows use the inverted-channel mean, 3^weight signed /
    M per term, so the all-I string gives exactly its coefficient.
    Prescribed shadows switch to the direct compatible-count average
    signed / hits (no factor 3), the only unbiased choice there.
    ``median_groups`` enables median-of-means on random shadows for
    robustness studies: the median of the estimates on that many
    contiguous runs of snapshots, split as ``np.array_split`` splits. The
    plain mean is the default. It must lie in 1..len(shadow), or
    ValueError.
    """
    if obs.num_qubits != shadow.num_qubits:
        raise ValueError("observable and shadow qubit counts differ")
    if median_groups is not None and not 1 <= median_groups <= len(shadow):
        raise ValueError(f"median_groups must lie in 1..{len(shadow)}, "
                         f"got {median_groups}")
    if median_groups not in (None, 1):
        if shadow.prescribed:
            raise ValueError("median-of-means applies to random shadows only")
        parts = zip(np.array_split(shadow.codes, median_groups),
                    np.array_split(shadow.outcomes, median_groups))
        return float(np.median([
            estimate(ClassicalShadow.from_arrays(codes, bits, shadow.seed),
                     obs) for codes, bits in parts]))
    signed, hits = _term_counts(*_distinct_snapshots(shadow), obs.codes)
    if not shadow.prescribed:
        weight = np.count_nonzero(obs.codes, axis=1)
        return _sum_in_order(obs.coeffs.real
                             * (3.0 ** weight * signed / len(shadow)))
    empty = np.flatnonzero(hits == 0)
    if empty.size:
        raise ValueError(f"no compatible snapshots for term "
                         f"{obs.terms[empty[0]][1]}")
    return _sum_in_order(obs.coeffs.real * (signed / hits))


def snapshot_density(snapshot: Snapshot) -> np.ndarray:
    """Dense inverted-channel density of one snapshot, kron over qubits."""
    m = np.array([[1.0 + 0j]])
    for j in reversed(range(snapshot.num_qubits)):
        symbol = 2 * BASIS_CODE[snapshot.bases[j]] + snapshot.outcome[j]
        m = np.kron(m, _SYMBOL_DENSITY[symbol])
    return m


def reconstruct_density(shadow: ClassicalShadow) -> np.ndarray:
    """Mean of snapshot densities; Hermitian with unit trace by construction.

    The output is generally not positive semidefinite at finite M. Dense
    reconstruction is guarded to small registers. The distinct rows are
    contracted from qubit q-1 down: once the factors of qubits j.. are in,
    rows that agree on qubits 0..j-1 are summed.
    """
    if shadow.num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense reconstruction limited to q <= {MAX_DENSE_QUBITS}")
    rows, counts = _distinct_snapshots(shadow)
    keys = _digit_keys(rows, 6)  # sorted; qubit 0 the leading digit
    sums = counts.astype(complex)[:, None, None]
    for _ in range(shadow.num_qubits):
        dim = 2 * sums.shape[1]
        factor = _SYMBOL_DENSITY[keys % 6]
        sums = (sums[:, :, None, :, None] * factor[:, None, :, None, :]
                ).reshape(-1, dim, dim)
        keys //= 6
        starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
        sums, keys = np.add.reduceat(sums, starts), keys[starts]
    return sums[0] / len(shadow)


def iter_snapshot_distribution(state: Statevector
                               ) -> Iterator[tuple[Snapshot, float]]:
    """All (snapshot, probability) pairs of the random-Pauli protocol.

    Enumerates the 3^q basis combinations times the 2^q outcomes with their
    exact Born probabilities; the weights sum to one. Intended for exact
    unbiasedness checks at small q.
    """
    q = state.num_qubits
    combos = itertools.product(BASIS_LETTERS, repeat=q)
    # itertools.product order is key order: qubit 0 is the leading digit
    for probs, combo in zip(_born_probabilities(state, np.arange(3 ** q)),
                            combos):
        for k in range(2 ** q):
            p = probs[k] / 3 ** q
            if p == 0.0:
                continue
            bits = tuple((k >> j) & 1 for j in range(q))
            yield Snapshot(combo, bits), float(p)


_BYTE_CODES = np.full(256, -1, dtype=np.int8)
_BYTE_CODES[[ord(letter) for letter in BASIS_LETTERS]] = np.arange(3)
# X, Y and Z are consecutive bytes, so a basis code is its letter minus X.
_FIRST_LETTER = ord(BASIS_LETTERS[0])


def save_shadow(shadow: ClassicalShadow, path: str | Path) -> None:
    """Write the text format: header ``q= M= seed=`` (plus
    ``protocol=prescribed`` for plan-based shadows), then one line per
    snapshot, basis letters and outcome bits most-significant qubit first."""
    header = f"q={shadow.num_qubits} M={len(shadow)} seed={shadow.seed}"
    if shadow.prescribed:
        header += " protocol=prescribed"
    column = (len(shadow), 1)
    rows = np.concatenate([shadow.codes[:, ::-1] + _FIRST_LETTER,
                           np.full(column, ord(" "), dtype=np.int8),
                           shadow.outcomes[:, ::-1] + ord("0"),
                           np.full(column, ord("\n"), dtype=np.int8)],
                          axis=1)
    Path(path).write_bytes(header.encode() + b"\n" + rows.tobytes())


def _line_text(path, lineno: int, raw: bytes) -> str:
    """One line of a text file, decoded for an error message; ValueError
    naming the line if it is not UTF-8."""
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} line {lineno}: byte {raw[exc.start]:#04x} "
                         "is not UTF-8 text") from None


def _body_error(path, q: int, m: int, body: bytes) -> ValueError:
    """The error for a body that is not M lines of q letters, a space and q
    bits: the M= mismatch, or else the first line of the wrong form."""
    lines = body.splitlines()
    if len(lines) != m:
        return ValueError(f"{path}: header says M={m} but found {len(lines)} "
                          "snapshot lines")
    n = next(n for n, line in enumerate(lines)
             if len(line) != 2 * q + 1 or line[q] != ord(" "))
    return ValueError(f"{path} line {n + 2}: expected {q} basis letters, a "
                      f"space and {q} bits, got "
                      f"{_line_text(path, n + 2, lines[n])!r}")


def load_shadow(path: str | Path, prescribed: bool = False) -> ClassicalShadow:
    """Read the format of :func:`save_shadow`.

    The protocol comes from the header; a file without ``protocol=`` reads
    as a random shadow, and ``prescribed=True`` forces the prescribed one.
    Lines may end in LF, CRLF or CR, and the last one may lack its line
    end; whitespace around the text and between header fields is ignored.
    Malformed input, a byte that is not UTF-8 included, raises ValueError
    naming the offending line; so does a header field other than q, M, seed
    and protocol, or one given twice.

    The body is viewed as one (M, 2q + 2) byte array; a row must hold a
    space at column q and a line end at its last column. Only a body that
    fails this is split into lines, to name the first bad one.
    """
    data = Path(path).read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, _, body = data.strip().partition(b"\n")
    try:
        items = [item.split("=") for item in head.decode().split()]
        header, names = dict(items), [item[0] for item in items]
        for name in names:
            if names.count(name) > 1 or name not in ("q", "M", "seed",
                                                     "protocol"):
                raise ValueError(f"unknown or repeated field {name!r}")
        q, m, seed = int(header["q"]), int(header["M"]), int(header["seed"])
        _rng._check_seed(seed)
        protocol = header.get("protocol", "random")
        if q < 1 or m < 1 or protocol not in ("random", "prescribed"):
            raise ValueError(f"q={q} M={m} protocol={protocol}")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path} line 1: bad header: {exc}") from None
    if body:
        body += b"\n"
    width = 2 * q + 2
    fits = len(body) == m * width
    if fits:
        rows = np.frombuffer(body, dtype=np.uint8).reshape(m, width)
        fits = ((rows[:, q] == ord(" ")) & (rows[:, -1] == ord("\n"))).all()
    if not fits:
        raise _body_error(path, q, m, body)
    try:
        return ClassicalShadow.from_arrays(
            rows[:, q - 1::-1] - _FIRST_LETTER, rows[:, 2 * q:q:-1] - ord("0"),
            seed, prescribed or protocol == "prescribed")
    except InvalidSnapshot as exc:
        line = _line_text(path, exc.index + 2, rows[exc.index, :-1].tobytes())
        raise ValueError(f"{path} line {exc.index + 2}: malformed snapshot "
                         f"{line!r}: {exc.rule}") from None
