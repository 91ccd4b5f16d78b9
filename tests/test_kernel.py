"""The collapsed trace kernel against the per-snapshot reference loop.

``reference_term_products`` is the kernel as it ran before it was collapsed
over distinct snapshots: the full product over qubits for every snapshot, in
chunks of snapshots. The collapsed kernel must agree with it to 1e-12, both
per distinct row and, for the all-I string, per symbol-count class.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowproj.experiments import prepare_spin_rotated_gaussian
from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.paulis import PauliString, WeightedPauliSum
from shadowproj.projectors import (_PERM, EmptySectorWarning,
                                   _count_classes, _distinct_symbols,
                                   _term_products, all_sector_projectors,
                                   projected_estimate_sectors)
from shadowproj.shadows import ClassicalShadow, acquire_shadow
from shadowproj.statevector import (Statevector, prepare_basis_state,
                                    prepare_gaussian)


def reference_term_products(codes, outcomes, letters, gates, chunk=4096):
    """Snapshot-mean of prod_j sum_m alpha_m Tr[P_j P'_m (3r - I)] per term,
    one snapshot at a time. ``gates`` is the (K, 4) table shared by every
    qubit."""
    n_snap, q = codes.shape
    n_terms = len(gates)
    coeffs = np.empty((n_terms, q, 4), dtype=complex)
    for k, row in enumerate(gates):
        for j in range(q):
            coeffs[k, j] = _PERM[letters[j]] @ row
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
    rows, _ = _distinct_symbols(shadow)
    assert len(rows) > 0.95 * len(shadow)
    for spec in ({"type": "number"}, {"type": "spin", "n_p": 3}):
        family = all_sector_projectors(q, spec)
        assert_sectors_agree(shadow, random_obs(q, 2, nterms=3), family)


@pytest.mark.parametrize("letters", [("I", "I", "I"), ("X", "I", "Z"),
                                     ("Y", "Y", "X")])
def test_distinct_rows_cross_the_chunk(letters):
    q = 3
    shadow = acquire_shadow(random_state(q, 6), 2000, seed=3)
    family = all_sector_projectors(q, {"type": "spin", "n_p": 4})
    gates = family[0].gates
    symbols = _distinct_symbols(shadow)
    n_rows = len(symbols[0])
    step = 7
    assert n_rows > 10 * step
    chunked = _term_products(symbols, letters, gates,
                             chunk=step * len(gates))
    whole = _term_products(symbols, letters, gates)
    want = reference_term_products(shadow.codes, shadow.outcomes, letters,
                                   gates)
    assert np.abs(chunked - want).max() <= 1e-12
    assert np.abs(whole - want).max() <= 1e-12


def test_distinct_symbols_count_every_snapshot():
    shadow = acquire_shadow(random_state(3, 9), 500, seed=1)
    rows, weights = _distinct_symbols(shadow)
    symbols = 2 * shadow.codes + shadow.outcomes
    assert len(np.unique(rows, axis=0)) == len(rows)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    for row, weight in zip(rows, weights):
        hits = (symbols == row).all(axis=1).sum()
        assert weight == hits / len(shadow)


# --- the all-I string over symbol-count classes -----------------------------

def assert_classes_match_reference(shadow, gates, **kwargs):
    q = shadow.num_qubits
    got = _term_products(_count_classes(_distinct_symbols(shadow)),
                         ("I",) * q, gates, **kwargs)
    want = reference_term_products(shadow.codes, shadow.outcomes, ("I",) * q,
                                   gates)
    assert np.abs(got - want).max() <= 1e-12


def symbol_counts(rows):
    return (rows[:, :, None] == np.arange(6)).sum(axis=1)


@pytest.mark.parametrize("q", range(1, 9))
def test_class_products_match_reference(q):
    shadow = acquire_shadow(random_state(q, 20 + q), 2000, seed=q)
    for spec in ({"type": "number"}, {"type": "spin", "n_p": 3}):
        gates = all_sector_projectors(q, spec)[0].gates
        assert_classes_match_reference(shadow, gates)


def test_class_products_on_the_q4_spin_and_number_families():
    q = 4
    spin = acquire_shadow(prepare_spin_rotated_gaussian(q), 3000, seed=5)
    gates = all_sector_projectors(q, {"type": "spin", "n_p": 10})[0].gates
    assert len(gates) == 1000
    assert_classes_match_reference(spin, gates)
    number = acquire_shadow(prepare_gaussian(q), 5000, seed=8)
    family = all_sector_projectors(q, {"type": "number"})
    assert_classes_match_reference(number, family[0].gates)
    # the pairing H holds the all-I string, which reuses the class products
    ham = build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))
    assert ("I",) * q in [s.letters for _, s in ham.terms]
    assert_sectors_agree(number, ham, family)


def test_classes_cross_the_chunk():
    q = 6
    shadow = acquire_shadow(random_state(q, 7), 3000, seed=2)
    gates = all_sector_projectors(q, {"type": "spin", "n_p": 3})[0].gates
    reps, _ = _count_classes(_distinct_symbols(shadow))
    step = 5
    assert len(reps) > 10 * step
    assert_classes_match_reference(shadow, gates, chunk=step * len(gates))
    assert_classes_match_reference(shadow, gates, chunk=1)


def test_basis_state_rows_fall_in_few_classes():
    q = 5
    shadow = acquire_shadow(prepare_basis_state(q, 0b10110), 2000, seed=4)
    symbols = _distinct_symbols(shadow)
    reps, weights = _count_classes(symbols)
    assert len(reps) < len(symbols[0])
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    for spec in ({"type": "number"}, {"type": "spin", "n_p": 4}):
        gates = all_sector_projectors(q, spec)[0].gates
        assert_classes_match_reference(shadow, gates)
    # every snapshot equal: one class holding all the weight
    same = ClassicalShadow.from_arrays(np.full((40, q), 2), np.zeros((40, q)),
                                       seed=0)
    reps, weights = _count_classes(_distinct_symbols(same))
    assert reps.tolist() == [[4] * q]
    assert weights.tolist() == [1.0]
    gates = all_sector_projectors(q, {"type": "number"})[0].gates
    assert_classes_match_reference(same, gates)


def test_count_classes_partition_the_rows():
    q = 4
    shadow = acquire_shadow(random_state(q, 3), 1500, seed=6)
    rows, weights = _distinct_symbols(shadow)
    reps, class_weights = _count_classes((rows, weights))
    assert len(reps) <= math.comb(q + 5, 5)
    classes = symbol_counts(reps)
    assert len({tuple(c) for c in classes.tolist()}) == len(classes)
    row_counts = symbol_counts(rows)
    for rep, counts, weight in zip(reps, classes, class_weights):
        assert (rows == rep).all(axis=1).any()
        members = (row_counts == counts).all(axis=1)
        assert weight == pytest.approx(weights[members].sum(), abs=1e-15)
    assert class_weights.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 16), st.integers(1, 300))
def test_class_products_property(q, seed, shots):
    shadow = acquire_shadow(random_state(q, seed), shots, seed=seed)
    gates = all_sector_projectors(q, {"type": "spin", "n_p": 3})[0].gates
    assert_classes_match_reference(shadow, gates)
