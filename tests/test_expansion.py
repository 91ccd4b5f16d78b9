"""The letter-count Pauli expansion against the per-path reference.

``reference_pauli_sum`` is the expansion as it ran before projectors became
arrays: every term walks all letter paths qubit by qubit in Python dicts,
skipping coefficients below 1e-14. ``ProjectorLCU.to_pauli_sum`` computes
one coefficient per letter-count class instead; the two must give the same
strings with coefficients within 1e-14.
"""

import numpy as np
import pytest

from shadowproj.paulis import LETTERS, PauliString, WeightedPauliSum
from shadowproj.projectors import (ProjectorLCU, number_sector_projectors,
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


def assert_expansions_agree(proj):
    got = {s.letters: c for c, s in proj.to_pauli_sum().terms}
    want = {s.letters: c for c, s in reference_pauli_sum(proj).terms}
    assert set(got) == set(want)
    assert max(abs(got[key] - want[key]) for key in want) <= 1e-14


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


def test_q6_spin_expansion_matches_the_dense_matrix():
    proj = spin_projector(6, 1, 0, 10)
    assert len(proj.gates) == 1000
    dense = proj.to_matrix()
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
