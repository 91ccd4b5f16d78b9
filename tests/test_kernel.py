"""The class-key trace kernel against the per-snapshot reference loop.

``reference_term_products`` is the kernel as it ran before it was collapsed
over distinct snapshots: the full product over qubits for every snapshot, in
chunks of snapshots. ``reference_string_products`` is the string kernel as
it ran once per string over the distinct rows. The class-key kernel keys
each (string, row) pair by the row's symbol-count class and the (letter,
symbol) pairs on the string's support, and each projector keeps a table of
exact values on those keys; it must agree with both references to 1e-12.
"""

import gc
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowproj.experiments import prepare_spin_rotated_gaussian
from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.paulis import (LETTERS, PAULI_MATRICES, PauliString,
                               WeightedPauliSum, letter_product)
from shadowproj import projectors, shadows
from shadowproj.projectors import (_LETTER_KERNEL, _PAD, _TABLES,
                                   EmptySectorWarning, _all_classes,
                                   _histogram, _key_terms, _live_codes,
                                   _key_values, _row_classes,
                                   all_sector_projectors,
                                   projected_estimate_sectors)
from shadowproj.shadows import (BASIS_LETTERS, ClassicalShadow,
                                _distinct_snapshots, acquire_shadow)
from shadowproj.statevector import (BASIS_ROTATIONS, Statevector,
                                    prepare_basis_state, prepare_gaussian)


def build_perm_tables():
    """Left-multiplication tables from ``letter_product``: PERM[L][res, m]
    is the phase of L * P_m when the product letter is res, so the
    coefficients of L times a gate c are PERM[L] @ c."""
    tables = {}
    for left in LETTERS:
        mat = np.zeros((4, 4), dtype=complex)
        for m, right in enumerate(LETTERS):
            phase, res = letter_product(left, right)
            mat[LETTERS.index(res), m] = phase
        tables[left] = mat
    return tables


PERM = build_perm_tables()


def reference_term_products(codes, outcomes, letters, gates, chunk=4096):
    """Snapshot-mean of prod_j sum_m alpha_m Tr[P_j P'_m (3r - I)] per term,
    one snapshot at a time. ``gates`` is the (K, 4) table shared by every
    qubit."""
    n_snap, q = codes.shape
    n_terms = len(gates)
    coeffs = np.empty((n_terms, q, 4), dtype=complex)
    for k, row in enumerate(gates):
        for j in range(q):
            coeffs[k, j] = PERM[letters[j]] @ row
    sign3 = 3.0 * (1.0 - 2.0 * outcomes)
    out = np.zeros(n_terms, dtype=complex)
    for start in range(0, n_snap, chunk):
        stop = min(start + chunk, n_snap)
        width = stop - start
        block = np.ones((n_terms, width), dtype=complex)
        for j in range(q):
            kernel = np.empty((4, width))
            kernel[0] = 1.0
            for code in range(3):
                kernel[code + 1] = (sign3[start:stop, j]
                                    * (codes[start:stop, j] == code))
            block *= coeffs[:, j, :] @ kernel
        out += block.sum(axis=1)
    return out / n_snap


def reference_sectors(shadow, obs, projectors):
    gates = projectors[0].gates
    iden = ("I",) * shadow.num_qubits
    prods_norm = reference_term_products(shadow.codes, shadow.outcomes,
                                         iden, gates)
    prods_obs = [(c * s.phase, reference_term_products(
        shadow.codes, shadow.outcomes, s.letters, gates))
        for c, s in obs.terms]
    out = []
    for proj in projectors:
        betas = np.asarray(proj.betas)
        num = sum(c * (betas @ p) for c, p in prods_obs)
        out.append((float(num.real), float((betas @ prods_norm).real)))
    return out


def reference_distinct_snapshots(codes, outcomes):
    """Distinct symbol rows and their counts by a lexsort over the q
    columns and a row compare."""
    symbols = 2 * codes + outcomes
    symbols = symbols[np.lexsort(symbols.T[::-1])]
    first = np.ones(len(symbols), dtype=bool)
    first[1:] = (symbols[1:] != symbols[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return symbols[starts], np.diff(starts, append=len(symbols))


def distinct_symbols(shadow):
    """Distinct symbol rows and the fraction of snapshots equal to each."""
    rows, counts = _distinct_snapshots(shadow)
    return rows, counts / len(shadow)


def symbol_classes(rows, counts):
    """Sorted keys of the symbol-count classes that rows fall in, and the
    fraction of the counts in each."""
    classes, which = _row_classes(rows)
    return (_all_classes(rows.shape[1])[classes],
            np.bincount(which, counts) / counts.sum())


def class_products(shadow, codes, gates, hist_chunk=1 << 16,
                   fill_chunk=1 << 14):
    """(S, K) snapshot means of each string's per-term products through the
    class keys: one histogram for all strings, a scale column of its own
    for each, and the per-term values of the keys (unit betas)."""
    rows, counts = _distinct_snapshots(shadow)
    live = _live_codes(gates)
    met, sums = _histogram(rows, live, *_row_classes(rows), counts, codes,
                           np.eye(len(codes)), chunk=hist_chunk)
    values = _key_values(gates, np.eye(len(gates), dtype=complex),
                         *_key_terms(shadow.num_qubits, live, met),
                         chunk=fill_chunk)
    return np.array([[v @ weights for v in values] for weights in sums])


def random_state(q, seed):
    gen = np.random.default_rng(seed)
    v = gen.normal(size=2 ** q) + 1j * gen.normal(size=2 ** q)
    return Statevector(v / np.linalg.norm(v))


def random_obs(q, seed, nterms=4):
    gen = np.random.default_rng(seed)
    return WeightedPauliSum(q, tuple(
        (float(gen.normal()), PauliString(tuple(gen.choice(list("IXYZ"), q))))
        for _ in range(nterms)))


def assert_sectors_agree(shadow, obs, family):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySectorWarning)
        got = projected_estimate_sectors(shadow, obs, family)
    want = reference_sectors(shadow, obs, family)
    assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12


def test_spin_family_q4_np10():
    q = 4
    shadow = acquire_shadow(prepare_spin_rotated_gaussian(q), 3000, seed=5)
    family = all_sector_projectors(q, {"type": "spin", "n_p": 10})
    assert len(family[0].gates) == 1000
    assert_sectors_agree(shadow, WeightedPauliSum.identity(q), family)
    assert_sectors_agree(shadow, random_obs(q, 1, nterms=2), family)


def test_number_family_with_pairing_hamiltonian():
    q = 4
    shadow = acquire_shadow(prepare_gaussian(q), 5000, seed=8)
    ham = build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))
    family = all_sector_projectors(q, {"type": "number"})
    assert_sectors_agree(shadow, ham, family)


def test_q8_shadow_with_nearly_all_rows_distinct():
    q = 8
    shadow = acquire_shadow(random_state(q, 4), 3000, seed=12)
    rows, _ = _distinct_snapshots(shadow)
    assert len(rows) > 0.95 * len(shadow)
    for spec in ({"type": "number"}, {"type": "spin", "n_p": 3}):
        family = all_sector_projectors(q, spec)
        assert_sectors_agree(shadow, random_obs(q, 2, nterms=3), family)


@pytest.mark.parametrize("letters", [("I", "I", "I"), ("X", "I", "Z"),
                                     ("Y", "Y", "X")])
def test_distinct_rows_cross_the_chunk(letters):
    q = 3
    shadow = acquire_shadow(random_state(q, 6), 2000, seed=3)
    gates = all_sector_projectors(q, {"type": "spin", "n_p": 4})[0].gates
    codes = np.array([[LETTERS.index(letter) for letter in letters]])
    rows, counts = _distinct_snapshots(shadow)
    met, _ = _histogram(rows, _live_codes(gates), *_row_classes(rows),
                        counts, codes, np.ones((1, 1)))
    step = 3
    assert len(met) > 10 * step
    chunked = class_products(shadow, codes, gates, hist_chunk=1,
                             fill_chunk=step * len(gates))[0]
    whole = class_products(shadow, codes, gates)[0]
    want = reference_term_products(shadow.codes, shadow.outcomes, letters,
                                   gates)
    assert np.abs(chunked - want).max() <= 1e-12
    assert np.abs(whole - want).max() <= 1e-12


def test_letter_kernel_is_the_dense_trace():
    """The kernel, built from the product-power table and the signed-count
    table with X, Y and Z scaled by 3, equals the float table built from
    ``letter_product``, and Tr[L P_m (3 r_s - I)] to rounding; the per-term
    factors of a gate table are the kernel rows it weighs, the all-I rows
    as einsum sums them."""
    table = np.zeros((4, 6))
    table[0] = 1.0
    for code in range(3):
        table[code + 1, 2 * code:2 * code + 2] = (3.0, -3.0)
    for left in LETTERS:
        assert np.array_equal(_LETTER_KERNEL[left], PERM[left].T @ table)
        for m, right in enumerate(LETTERS):
            for s in range(6):
                u = BASIS_ROTATIONS[BASIS_LETTERS[s // 2]]
                r = np.outer(u[s % 2].conj(), u[s % 2])
                dense = np.trace(PAULI_MATRICES[left] @ PAULI_MATRICES[right]
                                 @ (3 * r - np.eye(2)))
                assert abs(_LETTER_KERNEL[left][m, s] - dense) < 1e-12
    # the per-term factor of a letter L and symbol s is the kernel entry
    # weighed by the gate's Pauli coefficients; the all-I ones are as
    # einsum sums them, and a letter whose entries meet only unused
    # coefficients is 0 on every term and not live
    q = 3
    for spec in ({"type": "number"}, {"type": "spin", "n_p": 3}):
        gates = all_sector_projectors(q, spec)[0].gates
        codes = np.arange(6, _PAD)[:, None]
        counts = np.zeros((len(codes), 6), dtype=np.intp)
        got = _key_values(gates, np.eye(len(gates), dtype=complex), counts,
                          codes)
        want = np.concatenate([(gates @ _LETTER_KERNEL[left]).T
                               for left in "XYZ"])
        assert np.abs(got - want.T).max() <= 1e-14
        live = _live_codes(gates)
        assert np.array_equal(live, 6 + np.flatnonzero(
            np.abs(want).max(axis=1) > 0))
        ones = np.eye(6, dtype=np.intp)
        got = _key_values(gates, np.eye(len(gates), dtype=complex), ones,
                          np.empty((6, 0), dtype=np.intp))
        assert np.array_equal(got, np.einsum("km,ms->ks", gates,
                                             _LETTER_KERNEL["I"]))
    # number gates have no X or Y part: X and Y letters vanish on Z symbols
    live = _live_codes(all_sector_projectors(q, {"type": "number"})[0].gates)
    assert sorted(set(range(6, _PAD)) - set(live.tolist())) == [
        10, 11, 16, 17]


def reference_string_products(symbols, letters, gates, chunk):
    """One string's products per term, by the kernel as it ran once per
    string: the whole product over qubits for each chunk of rows."""
    rows, weights = symbols
    tables = {letter: np.einsum("km,ms->ks", gates, _LETTER_KERNEL[letter])
              for letter in set(letters)}
    step = max(1, chunk // len(gates))
    out = np.zeros(len(gates), dtype=complex)
    for start in range(0, rows.shape[0], step):
        sym = rows[start:start + step]
        block = (tables[letters[0]].take(sym[:, 0], axis=1)
                 * weights[start:start + step])
        for j in range(1, len(letters)):
            block *= tables[letters[j]].take(sym[:, j], axis=1)
        out += block.sum(axis=1)
    return out


@pytest.mark.parametrize("spec", [{"type": "number"}, {"type": "parity"},
                                  {"type": "spin", "n_p": 4}])
def test_one_call_kernel_equals_the_per_string_loop(spec):
    q = 3
    shadow = acquire_shadow(random_state(q, 7), 2000, seed=4)
    gates = all_sector_projectors(q, spec)[0].gates
    symbols = distinct_symbols(shadow)
    step = 7
    assert len(symbols[0]) > 10 * step
    # every non-identity string, shuffled, and three of them twice
    codes = np.array(list(itertools.product(range(4), repeat=q)))[1:]
    codes = codes[np.random.default_rng(0).permutation(len(codes))]
    codes = np.concatenate([codes, codes[:3]])
    # a histogram chunk of 2 rows' worth holds two strings: the strings
    # cross the chunk, and so do the keys of a fill chunk of 7
    chunked = class_products(shadow, codes, gates,
                             hist_chunk=2 * len(symbols[0]),
                             fill_chunk=step * len(gates))
    whole = class_products(shadow, codes, gates)
    assert np.array_equal(chunked, whole)
    assert np.array_equal(whole[-3:], whole[:3])
    want = np.stack([reference_string_products(
        symbols, [LETTERS[c] for c in row], gates, 1 << 16)
        for row in codes])
    assert np.abs(whole - want).max() <= 1e-12


@pytest.mark.parametrize("spec", [{"type": "number"}, {"type": "parity"},
                                  {"type": "spin", "n_p": 4}])
def test_identity_observable_never_reaches_the_string_kernel(spec):
    q = 3
    shadow = acquire_shadow(random_state(q, 8), 500, seed=2)
    family = all_sector_projectors(q, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySectorWarning)
        results = projected_estimate_sectors(
            shadow, WeightedPauliSum.identity(q), family)
    assert all(num == norm for num, norm in results)
    # the table holds the all-I keys alone, one per class
    table, _ = _TABLES[family[0]]
    assert np.array_equal(table[0], np.arange(math.comb(q + 5, 5)))
    assert all(_TABLES[p][0] is table for p in family)


def test_distinct_symbols_count_every_snapshot():
    shadow = acquire_shadow(random_state(3, 9), 500, seed=1)
    rows, counts = _distinct_snapshots(shadow)
    symbols = 2 * shadow.codes + shadow.outcomes
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert counts.sum() == len(shadow)
    for row, count in zip(rows, counts):
        assert count == (symbols == row).all(axis=1).sum()


def assert_distinct_match_reference(shadow):
    rows, counts = _distinct_snapshots(shadow)
    want_rows, want_counts = reference_distinct_snapshots(shadow.codes,
                                                          shadow.outcomes)
    assert rows.dtype == np.intp
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("q", [1, 4, 8])
def test_distinct_snapshots_match_the_lexsort_version(q):
    for shots, seed in ((1, 0), (50, 1), (3000, 2)):
        assert_distinct_match_reference(
            acquire_shadow(random_state(q, 40 + q), shots, seed=seed))


def test_distinct_snapshots_over_two_key_words():
    # q = 25 needs two base-6 words; few distinct rows per word keep runs
    # that tie on the first word and differ on the second
    gen = np.random.default_rng(3)
    q, shots = 25, 4000
    codes = gen.integers(0, 3, size=(shots, q))
    outcomes = gen.integers(0, 2, size=(shots, q))
    codes[:, 1:24] = codes[gen.integers(0, 5, shots), 1:24]
    outcomes[:, 1:24] = 0
    codes[:, 24] = gen.integers(0, 2, shots) * 2
    shadow = ClassicalShadow.from_arrays(codes, outcomes, seed=0)
    rows, _ = _distinct_snapshots(shadow)
    assert len(rows) < shots
    assert len(np.unique(rows[:, :24], axis=0)) < len(rows)
    assert_distinct_match_reference(shadow)


@pytest.mark.parametrize("prescribed", [False, True])
@pytest.mark.parametrize("q", range(1, 8))
def test_counted_and_sorted_distinct_snapshots_agree(q, prescribed,
                                                     monkeypatch):
    """Keys are counted densely from M >= 6^q / 4 on, up to q=6, where 6^7
    passes _DENSE_KEYS; with _DENSE_KEYS = 0 every shadow is sorted. Both
    give the same rows, order, dtypes and counts, on random bases and on the
    few repeated rows of a prescribed plan, at M = 1 and on both sides of
    the switch."""
    gen = np.random.default_rng(q)
    switch = -(-6 ** q // 4)
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(shadows.np, "bincount",
                        lambda *a, **k: calls.append(1) or bincount(*a, **k))
    for shots in sorted({1, max(1, switch - 1), switch, 3 * switch}):
        codes = gen.integers(0, 3, size=(shots, q))
        if prescribed:
            codes = codes[:5][gen.integers(0, min(5, shots), shots)]
        outcomes = gen.integers(0, 2, size=(shots, q))
        shadow = ClassicalShadow.from_arrays(codes, outcomes, 0, prescribed)
        calls.clear()
        counted = _distinct_snapshots(shadow)
        assert bool(calls) == (shots >= switch and q <= 6)
        with monkeypatch.context() as patch:
            patch.setattr(shadows, "_DENSE_KEYS", 0)
            ordered = _distinct_snapshots(shadow)
        for got, want in zip(counted, ordered):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert_distinct_match_reference(shadow)


# --- the all-I string over symbol-count classes -----------------------------

def assert_classes_match_reference(shadow, family, **kwargs):
    q = shadow.num_qubits
    rows, counts = _distinct_snapshots(shadow)
    classes, which = _row_classes(rows)
    betas = np.stack([p.betas for p in family])
    values = _key_values(family[0].gates, betas,
                         *_key_terms(q, np.arange(6, _PAD), classes),
                         **kwargs)
    got = values @ (np.bincount(which, counts) / counts.sum())
    want = betas @ reference_term_products(shadow.codes, shadow.outcomes,
                                           ("I",) * q, family[0].gates)
    assert np.abs(got - want).max() <= 1e-12


def symbol_counts(rows):
    return (rows[:, :, None] == np.arange(6)).sum(axis=1)


@pytest.mark.parametrize("q", range(1, 9))
def test_class_products_match_reference(q):
    shadow = acquire_shadow(random_state(q, 20 + q), 2000, seed=q)
    for spec in ({"type": "number"}, {"type": "spin", "n_p": 3}):
        assert_classes_match_reference(shadow, all_sector_projectors(q, spec))


def test_class_products_on_the_q4_spin_and_number_families():
    q = 4
    spin = acquire_shadow(prepare_spin_rotated_gaussian(q), 3000, seed=5)
    family = all_sector_projectors(q, {"type": "spin", "n_p": 10})
    assert len(family[0].gates) == 1000
    assert_classes_match_reference(spin, family)
    number = acquire_shadow(prepare_gaussian(q), 5000, seed=8)
    family = all_sector_projectors(q, {"type": "number"})
    assert_classes_match_reference(number, family)
    # the pairing H holds the all-I string, whose value is the norm
    ham = build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))
    assert ("I",) * q in [s.letters for _, s in ham.terms]
    assert_sectors_agree(number, ham, family)


def test_classes_cross_the_chunk():
    q = 6
    shadow = acquire_shadow(random_state(q, 7), 3000, seed=2)
    family = all_sector_projectors(q, {"type": "spin", "n_p": 3})
    keys, _ = symbol_classes(*_distinct_snapshots(shadow))
    step = 5
    assert len(keys) > 10 * step
    assert_classes_match_reference(shadow, family,
                                   chunk=step * len(family[0].gates))
    assert_classes_match_reference(shadow, family, chunk=1)


def test_basis_state_rows_fall_in_few_classes():
    q = 5
    shadow = acquire_shadow(prepare_basis_state(q, 0b10110), 2000, seed=4)
    rows, counts = _distinct_snapshots(shadow)
    keys, weights = symbol_classes(rows, counts)
    assert len(keys) < len(rows)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    for spec in ({"type": "number"}, {"type": "spin", "n_p": 4}):
        assert_classes_match_reference(shadow, all_sector_projectors(q, spec))
    # every snapshot equal: one class holding all the weight
    same = ClassicalShadow.from_arrays(np.full((40, q), 2), np.zeros((40, q)),
                                       seed=0)
    keys, weights = symbol_classes(*_distinct_snapshots(same))
    assert keys.tolist() == [q * (q + 1) ** 4]  # n_4 = q: Z basis, bit 0
    assert weights.tolist() == [1.0]
    assert_classes_match_reference(
        same, all_sector_projectors(q, {"type": "number"}))


def test_count_classes_partition_the_rows():
    q = 4
    shadow = acquire_shadow(random_state(q, 3), 1500, seed=6)
    rows, counts = _distinct_snapshots(shadow)
    keys, weights = symbol_classes(rows, counts)
    assert len(keys) <= math.comb(q + 5, 5)
    assert np.all(np.diff(keys) > 0)
    classes = keys[:, None] // (q + 1) ** np.arange(6) % (q + 1)
    assert np.all(classes.sum(axis=1) == q)
    row_counts = symbol_counts(rows)
    for counts_c, weight in zip(classes, weights):
        members = (row_counts == counts_c).all(axis=1)
        assert members.any()
        assert weight == pytest.approx(counts[members].sum() / len(shadow),
                                       abs=1e-15)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 16), st.integers(1, 300))
def test_class_products_property(q, seed, shots):
    shadow = acquire_shadow(random_state(q, seed), shots, seed=seed)
    family = all_sector_projectors(q, {"type": "spin", "n_p": 3})
    assert_classes_match_reference(shadow, family)


# --- per-family tables of values on class keys ------------------------------

def sector_norms(shadow, family, obs=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySectorWarning)
        return projected_estimate_sectors(
            shadow, obs or WeightedPauliSum.identity(shadow.num_qubits),
            family)


def pairing(q):
    return build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))


@pytest.fixture
def fills(monkeypatch):
    """The keys, as rows of the symbol counts off the support and the pair
    codes padded to 16, and the beta rows of every call of the fill
    step."""
    calls = []

    def spy(factors, betas, counts, codes, **kwargs):
        padded = np.full((len(codes), 16), _PAD)
        padded[:, :codes.shape[1]] = codes
        calls.append(({tuple(key) for key in np.hstack([counts, padded])
                       .tolist()}, betas.shape[0]))
        return _key_values(factors, betas, counts, codes, **kwargs)

    monkeypatch.setattr(projectors, "_key_values", spy)
    return calls


def class_keys(q):
    """The fill keys of every class of the all-I string."""
    counts = _all_classes(q)[:, None] // (q + 1) ** np.arange(6) % (q + 1)
    return {tuple(row) + (_PAD,) * 16 for row in counts.tolist()}


def test_second_call_computes_no_class_twice(fills):
    q = 4
    family = all_sector_projectors(q, {"type": "spin", "n_p": 10})
    first = acquire_shadow(prepare_spin_rotated_gaussian(q), 2000, seed=1)
    second = acquire_shadow(prepare_spin_rotated_gaussian(q), 2000, seed=2)
    assert sector_norms(first, family) == sector_norms(first, family)
    # the first call fills every class for the whole family in one pass
    assert len(fills) == 1
    assert fills[0] == (class_keys(q), len(family))
    assert all(len(_TABLES[p][0][0]) == math.comb(q + 5, 5) for p in family)
    sector_norms(second, family)
    assert len(fills) == 1


@pytest.mark.parametrize("spec", [{"type": "number"},
                                  {"type": "spin", "n_p": 10}])
def test_later_shadows_fill_no_class(fills, spec):
    q = 4
    state = random_state(q, 11)
    # a basis state meets few classes; the random state then meets more
    narrow = acquire_shadow(prepare_basis_state(q, 0b0110), 400, seed=3)
    wide = acquire_shadow(state, 3000, seed=4)
    narrow_keys = symbol_classes(*_distinct_snapshots(narrow))[0]
    wide_keys = symbol_classes(*_distinct_snapshots(wide))[0]
    assert len(np.setdiff1d(wide_keys, narrow_keys)) > 0
    obs = random_obs(q, 5, nterms=3)
    for shadow in (narrow, wide):
        got = sector_norms(shadow, all_sector_projectors(q, spec), obs)
        want = reference_sectors(shadow, obs, all_sector_projectors(q, spec))
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12
    for obs in (obs, pairing(q)):
        family = all_sector_projectors(q, spec)
        fills.clear()
        for shadow in (narrow, wide, narrow):
            before = len(fills)
            got = sector_norms(shadow, family, obs)
            fills_so_far = len(fills)
            # the same bits as a family that sees this shadow alone
            assert got == sector_norms(shadow, all_sector_projectors(
                q, spec), obs)
            del fills[fills_so_far:]
        # the last shadow was seen: it fills nothing
        assert len(fills) == before == 2
        # every class once, on the first call; no key twice
        assert class_keys(q) <= fills[0][0]
        assert not class_keys(q) & fills[1][0]
        assert not fills[0][0] & fills[1][0]


@pytest.mark.parametrize("q", range(1, 13))
def test_all_classes_are_every_symbol_count(q):
    keys = _all_classes(q)
    assert len(keys) == math.comb(q + 5, 5)
    assert np.all(np.diff(keys) > 0)
    counts = keys[:, None] // (q + 1) ** np.arange(6) % (q + 1)
    assert np.all(counts.sum(axis=1) == q)
    rows = np.random.default_rng(q).integers(0, 6, size=(3000, q))
    rows = np.concatenate([rows, np.repeat(np.arange(6)[:, None], q, axis=1)])
    met, _ = symbol_classes(rows, np.ones(len(rows)))
    assert np.isin(met, keys).all()


@pytest.mark.parametrize("q", range(2, 9))
def test_families_match_reference_through_the_tables(q):
    state = random_state(q, 60 + q)
    obs = random_obs(q, q, nterms=2)
    specs = [{"type": "parity"}, {"type": "number"},
             {"type": "spin", "n_p": 3}, {"type": "spin", "n_p": 10}]
    for spec in specs:
        family = all_sector_projectors(q, spec)
        for seed in (1, 2):
            shadow = acquire_shadow(state, 300, seed=seed)
            got = sector_norms(shadow, family, obs)
            want = reference_sectors(shadow, obs, family)
            assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12


def test_tables_die_with_their_projectors():
    gc.collect()
    before = len(_TABLES)
    family = all_sector_projectors(3, {"type": "spin", "n_p": 3})
    sector_norms(acquire_shadow(random_state(3, 1), 200, seed=1), family,
                 random_obs(3, 1))
    assert len(_TABLES) == before + len(family)
    del family
    gc.collect()
    assert len(_TABLES) == before


def fill_weights(keys):
    """The string weights of fill keys: the pair codes that are not pads."""
    return {sum(code != _PAD for code in key[6:]) for key in keys}


def test_a_family_fills_in_one_pass(fills):
    q = 4
    shadow = acquire_shadow(random_state(q, 2), 1000, seed=7)
    obs = random_obs(q, 3, nterms=3)
    weights = {s.weight() for _, s in obs.terms}
    assert len(weights - {0}) >= 2
    family = all_sector_projectors(q, {"type": "spin", "n_p": 4})
    assert all(p.gates is family[0].gates for p in family)
    shared = sector_norms(shadow, family, obs)
    # one fill for the family: every class, and the keys of every weight
    assert [rows for _, rows in fills] == [len(family)]
    assert class_keys(q) <= fills[0][0]
    assert fill_weights(fills[0][0]) == weights | {0}
    # copied gate tables are one family too: equal content is what counts
    copied = [projectors.ProjectorLCU(q, p.betas, p.gates.copy(), p.label)
              for p in family]
    assert len({id(p.gates) for p in copied}) == len(family)
    fills.clear()
    assert sector_norms(shadow, copied, obs) == shared
    assert [rows for _, rows in fills] == [len(family)]


def test_class_values_do_not_depend_on_the_fill_order():
    q = 4
    state = random_state(q, 8)
    shadows = [acquire_shadow(state, 500, seed=s) for s in range(3)]
    for spec in ({"type": "spin", "n_p": 4}, {"type": "number"}):
        for obs in (None, pairing(q), random_obs(q, 9, nterms=4)):
            reused = all_sector_projectors(q, spec)
            backwards = all_sector_projectors(q, spec)
            for shadow in shadows[::-1]:
                sector_norms(shadow, backwards, obs)
            for shadow in shadows:
                once = sector_norms(shadow, all_sector_projectors(q, spec),
                                    obs)
                assert sector_norms(shadow, reused, obs) == once
                assert sector_norms(shadow, backwards, obs) == once


# A q=8 key of weight 8 spans C(13, 5) 18^8 = 1.4e13 values: a dense
# histogram over it could not be allocated at all.
PEAK_BYTES = 24 << 20


def test_weight_eight_strings_at_q8_stay_small():
    q = 8
    state = random_state(q, 4)
    gen = np.random.default_rng(5)
    obs = WeightedPauliSum(q, tuple(
        (float(gen.normal()), PauliString(tuple(gen.choice(list("XYZ"), q))))
        for _ in range(3)))
    for spec in ({"type": "number"}, {"type": "spin", "n_p": 3}):
        family = all_sector_projectors(q, spec)
        for seed in (12, 13):  # the second shadow adds to the table
            shadow = acquire_shadow(state, 3000, seed=seed)
            tracemalloc.start()
            got = sector_norms(shadow, family, obs)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < PEAK_BYTES
            want = reference_sectors(shadow, obs, family)
            assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12


def test_keys_past_63_bits_match_reference():
    # at q=13 the keys of the 18 spin pair codes pass 63 bits and are
    # Python ints; the number family's 14 live codes still fit in int64
    q = 13  # past the dense simulator: random snapshots, few distinct
    gen = np.random.default_rng(3)
    codes, bits = gen.integers(0, 3, (300, q)), gen.integers(0, 2, (300, q))
    codes[:, :6], bits[:, :6] = 2, 0
    shadow = ClassicalShadow.from_arrays(codes, bits, seed=0)
    obs = random_obs(q, 6, nterms=4)
    assert max(s.weight() for _, s in obs.terms) >= 10
    for spec in ({"type": "spin", "n_p": 2}, {"type": "number"}):
        family = all_sector_projectors(q, spec)
        got = sector_norms(shadow, family, obs)
        want = reference_sectors(shadow, obs, family)
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12 * max(
            1.0, np.abs(want).max())
    assert _TABLES[family[0]][0][0].dtype == np.int64
    spin = all_sector_projectors(q, {"type": "spin", "n_p": 2})
    sector_norms(shadow, spin, obs)
    assert _TABLES[spin[0]][0][0].dtype == object
