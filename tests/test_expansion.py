"""The letter-count Pauli expansion against the per-path reference.

``reference_pauli_sum`` is the expansion as it ran before projectors became
arrays: every term walks all letter paths qubit by qubit in Python dicts,
skipping coefficients below 1e-14. ``ProjectorLCU.to_pauli_sum`` computes
one coefficient per letter-count class instead; the two must give the same
strings with coefficients within 1e-14.

``reference_lcu_matrix`` is the dense matrix as it was built before it
went through the expansion: chunked Kronecker powers of the gates.
``ProjectorLCU.to_matrix``, which gathers one value per class of bit-pair
counts, must agree with it within 1e-12 on every projector checked here,
up to q=8.

``reference_multiply_sums`` is ``multiply_sums`` as it ran on PauliString
objects, one product per pair of terms merged in a dict. The array products
must equal it exactly, coefficient for coefficient.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.paulis import (_PRODUCT_POWER, GAUSSIAN_UNITS, LETTERS,
                               PAULI_MATRICES, PauliString, WeightedPauliSum,
                               letter_product, multiply, multiply_sums)
from shadowproj.projectors import (ProjectorLCU, expand_projected_observable,
                                   number_projector, number_sector_projectors,
                                   parity_sector_projectors, spin_projector,
                                   spin_sector_projectors)


def reference_pauli_sum(proj):
    accum = {}
    for beta, row in zip(proj.betas, proj.gates):
        gate = [complex(c) for c in row]
        paths = {(): complex(beta)}
        for _ in range(proj.num_qubits):
            new = {}
            for letters, coeff in paths.items():
                for m, c in enumerate(gate):
                    if abs(c) < 1e-14:
                        continue
                    key = letters + (LETTERS[m],)
                    new[key] = new.get(key, 0j) + coeff * c
            paths = new
        for letters, coeff in paths.items():
            accum[letters] = accum.get(letters, 0j) + coeff
    return WeightedPauliSum(proj.num_qubits, tuple(
        (c, PauliString(l)) for l, c in accum.items()))


def reference_lcu_matrix(proj):
    """``ProjectorLCU.to_matrix`` as it ran before it went through the
    Pauli expansion: the Kronecker power of each gate, built for a chunk of
    terms at once and contracted with their betas."""
    q, n_terms = proj.num_qubits, len(proj.betas)
    dim = 2 ** q
    stack = np.stack([PAULI_MATRICES[letter] for letter in LETTERS])
    mats = np.einsum("km,mab->kab", proj.gates, stack)
    out = np.zeros((dim, dim), dtype=complex)
    chunk = max(1, 2 ** 21 // dim ** 2)
    for start in range(0, n_terms, chunk):
        sl = slice(start, start + chunk)
        block = mats[sl]
        for _ in range(q - 1):
            width = block.shape[1]
            block = (block[:, :, None, :, None]
                     * mats[sl, None, :, None, :]
                     ).reshape(-1, width * 2, width * 2)
        out += np.einsum("k,kab->ab", proj.betas[sl], block)
    return out


def assert_expansions_agree(proj):
    got = {s.letters: c for c, s in proj.to_pauli_sum().terms}
    want = {s.letters: c for c, s in reference_pauli_sum(proj).terms}
    assert set(got) == set(want)
    assert max(abs(got[key] - want[key]) for key in want) <= 1e-14
    assert_matrix_agrees(proj)


def assert_matrix_agrees(proj):
    assert np.abs(proj.to_matrix()
                  - reference_lcu_matrix(proj)).max() <= 1e-12


@pytest.mark.parametrize("q", range(1, 9))
def test_parity_and_number_families(q):
    for proj in parity_sector_projectors(q) + number_sector_projectors(q):
        assert_expansions_agree(proj)


@pytest.mark.parametrize("n_p", [3, 4])
@pytest.mark.parametrize("q", range(1, 7))
def test_spin_families(q, n_p):
    family = spin_sector_projectors(q, n_p)
    # 16 sectors of 4096 strings each at q=6 take seconds; check the
    # highest-spin and the lowest-spin sector there
    for proj in (family if q <= 5 else (family[0], family[-1])):
        assert_expansions_agree(proj)


@pytest.mark.parametrize("q", [7, 8])
def test_spin_matrices_past_the_expansion_sizes(q):
    # class codes pass 255 from q=6 on (up to q (q+1)^2 = 448 at q=7), so
    # codes or counts kept in 8 bits would wrap; the reference takes most
    # of a second per sector at q=8, so check the highest-spin and the
    # lowest-spin sector of the n_p=10 family
    family = spin_sector_projectors(q, 10)
    for proj in (family[0], family[-1]):
        assert_matrix_agrees(proj)


def test_q6_spin_expansion_matches_the_dense_matrix():
    proj = spin_projector(6, 1, 0, 10)
    assert len(proj.gates) == 1000
    dense = reference_lcu_matrix(proj)
    assert np.abs(proj.to_pauli_sum().to_matrix() - dense).max() <= 1e-12


def test_small_and_unused_letters():
    # X coefficients of 1e-6 keep strings with up to two X letters; Y is
    # used by no term, so no string carries a Y
    gen = np.random.default_rng(3)
    gates = gen.normal(size=(5, 4)) + 1j * gen.normal(size=(5, 4))
    gates[:, 1] *= 1e-6
    gates[:, 2] = 0
    proj = ProjectorLCU(4, gen.normal(size=5), gates)
    assert_expansions_agree(proj)
    strings = [s.letters for _, s in proj.to_pauli_sum().terms]
    assert max(s.count("X") for s in strings) == 2
    assert not any("Y" in s for s in strings)


# --- O P as array products against the per-pair reference ------------------

def reference_merge(terms):
    """The merge as WeightedPauliSum did it term by term: fold the phase,
    add per letter tuple into 0j in input order, sort, drop |c| < 1e-14."""
    merged = {}
    for coeff, string in terms:
        merged[string.letters] = (merged.get(string.letters, 0j)
                                  + complex(coeff) * string.phase)
    return [(c, letters) for letters, c in sorted(merged.items())
            if abs(c) >= 1e-14]


def reference_multiply_sums(a, b):
    """a @ b by one PauliString product per pair of terms."""
    return reference_merge([(ca * cb, multiply(sa, sb))
                            for ca, sa in a.terms for cb, sb in b.terms])


def as_list(total):
    return [(c, s.letters) for c, s in total.terms]


def test_letter_code_products_follow_letter_product():
    for a, b in itertools.product(range(4), repeat=2):
        phase, letter = letter_product(LETTERS[a], LETTERS[b])
        assert LETTERS[a ^ b] == letter
        assert 1j ** int(_PRODUCT_POWER[a, b]) == phase


def test_budget_q6_expansions_match_the_pairwise_loop(budget_q6):
    _, cases = budget_q6
    sizes = []
    for spec, ham, proj, expanded, _, _ in cases:
        assert as_list(expanded) == reference_multiply_sums(
            ham, proj.to_pauli_sum()), spec
        sizes.append(len(expanded))
    # median 331, the benchmark's traced expanded_terms
    assert sizes == [74, 74, 540, 358, 304, 360, 544, 64]


@pytest.mark.parametrize("q, size", [(8, 2048), (10, 12_544)])
def test_half_filling_expansion_matches_the_pairwise_loop(q, size):
    ham = build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))
    proj = number_projector(q, q // 2)
    expanded = expand_projected_observable(ham, proj)
    assert len(expanded) == size
    assert as_list(expanded) == reference_multiply_sums(
        ham, proj.to_pauli_sum())


coefficients = st.floats(-4, 4, allow_nan=False).filter(lambda x: x != 0)


def pauli_sums(q):
    """Sums with phased strings, the identity string and, optionally, the
    negation of their first terms, so that some coefficients cancel."""
    string = st.builds(PauliString, st.lists(
        st.sampled_from(LETTERS), min_size=q, max_size=q).map(tuple),
        st.sampled_from(GAUSSIAN_UNITS))
    term = st.tuples(st.builds(complex, coefficients, coefficients), string)
    return st.tuples(st.lists(term, max_size=10),
                     st.booleans(), st.integers(0, 4)).map(
        lambda t: t[0] + ([(1.5, PauliString.identity(q))] if t[1] else [])
        + [(-c, s) for c, s in t[0][:t[2]]])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda q: st.tuples(st.just(q), pauli_sums(q), pauli_sums(q))))
def test_array_products_match_the_pairwise_loop(case):
    q, terms_a, terms_b = case
    a, b = WeightedPauliSum(q, terms_a), WeightedPauliSum(q, terms_b)
    assert as_list(a) == reference_merge(terms_a)
    assert as_list(multiply_sums(a, b)) == reference_multiply_sums(a, b)
    assert as_list(a + b) == reference_merge(a.terms + b.terms)


def test_products_with_the_empty_sum_are_empty():
    a = WeightedPauliSum(3, ((2.0, PauliString(("X", "Y", "Z"))),))
    empty = WeightedPauliSum(3)
    assert multiply_sums(a, empty) == empty == multiply_sums(empty, a)
    assert multiply_sums(empty, empty).codes.shape == (0, 3)


def test_cancelling_products_are_dropped():
    # (X + Y)(X - Y) = -XY + YX = -2i Z, and (X + iY)(X + iY) = 0
    x, y = PauliString(("X",)), PauliString(("Y",))
    a = WeightedPauliSum(1, ((1, x), (1, y)))
    b = WeightedPauliSum(1, ((1, x), (-1, y)))
    assert as_list(multiply_sums(a, b)) == [(-2j, ("Z",))]
    c = WeightedPauliSum(1, ((1, x), (1j, y)))
    assert len(multiply_sums(c, c)) == 0
