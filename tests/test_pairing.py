import numpy as np
import pytest

from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian

# Frozen fixtures from the fermionic dense oracle below.
Q2_G05_SPECTRUM = [-0.6180339887498948, 0.0, 1.0, 1.618033988749895]
Q2_G05_SECTOR_GROUNDS = [0.0, -0.6180339887498948, 1.0]
Q4_G1_SECTOR2_GROUND = -1.4896521553638464


def fermionic_dense(q, delta_eps, g):
    """Independent dense build from the pair-operator definition: diagonal
    level terms plus -g pair hops between occupied and empty levels."""
    dim = 2 ** q
    h = np.zeros((dim, dim))
    for k in range(dim):
        bits = [(k >> i) & 1 for i in range(q)]
        h[k, k] = sum(2 * i * delta_eps * b for i, b in enumerate(bits)) \
            - g * sum(bits)
        for i in range(q):
            for j in range(q):
                if i != j and bits[j] == 1 and bits[i] == 0:
                    h[k - (1 << j) + (1 << i), k] += -g
    return h


def exact_sector_ground_energy(spec, n_pairs):
    """Minimum eigenvalue within the fixed-pair-number subspace."""
    if not 0 <= n_pairs <= spec.q:
        raise ValueError(f"n_pairs={n_pairs} outside 0..{spec.q}")
    dense = build_pairing_hamiltonian(spec).to_matrix()
    idx = np.flatnonzero(np.bitwise_count(np.arange(2 ** spec.q)) == n_pairs)
    block = dense[np.ix_(idx, idx)]
    return float(np.linalg.eigvalsh(block)[0])


def test_qubit_hamiltonian_matches_fermionic_oracle():
    for q, de, g in ((2, 1.0, 0.5), (3, 0.5, 2.0), (4, 1.0, 1.0),
                     (6, 0.7, 1.3)):
        spec = PairingSpec(q, de, g)
        assert np.max(np.abs(build_pairing_hamiltonian(spec).to_matrix()
                             - fermionic_dense(q, de, g))) < 1e-10


def test_noninteracting_sector_grounds():
    spec = PairingSpec(2, delta_eps=1.0, g=0.0)
    # filling the lowest levels: eps = {0, 1} doubled
    assert exact_sector_ground_energy(spec, 0) == pytest.approx(0.0)
    assert exact_sector_ground_energy(spec, 1) == pytest.approx(0.0)
    assert exact_sector_ground_energy(spec, 2) == pytest.approx(2.0)


def test_single_level_closed_form():
    for g in (0.0, 0.7, -1.2):
        spec = PairingSpec(1, delta_eps=1.0, g=g)
        assert exact_sector_ground_energy(spec, 1) == pytest.approx(-g)


def test_q2_spectrum_fixture():
    spec = PairingSpec(2, 1.0, 0.5)
    spectrum = np.linalg.eigvalsh(build_pairing_hamiltonian(spec).to_matrix())
    assert np.allclose(spectrum, Q2_G05_SPECTRUM, atol=1e-10)
    assert np.allclose(np.linalg.eigvalsh(fermionic_dense(2, 1.0, 0.5)),
                       Q2_G05_SPECTRUM, atol=1e-10)
    grounds = [exact_sector_ground_energy(spec, n) for n in range(3)]
    assert np.allclose(grounds, Q2_G05_SECTOR_GROUNDS, atol=1e-10)
    # the interacting 1-pair ground state is the golden-ratio root
    assert grounds[1] == pytest.approx((1 - np.sqrt(5)) / 2, abs=1e-12)


def test_q4_sector2_fixture():
    spec = PairingSpec(4, 1.0, 1.0)
    val = exact_sector_ground_energy(spec, 2)
    assert val == pytest.approx(Q4_G1_SECTOR2_GROUND, abs=1e-10)
    block = fermionic_dense(4, 1.0, 1.0)
    idx = [k for k in range(16) if bin(k).count("1") == 2]
    oracle = np.linalg.eigvalsh(block[np.ix_(idx, idx)])[0]
    assert val == pytest.approx(oracle, abs=1e-12)


def test_sector_range_check():
    with pytest.raises(ValueError):
        exact_sector_ground_energy(PairingSpec(2), 3)


def test_hamiltonian_commutes_with_number_operator():
    spec = PairingSpec(4, 1.0, 1.0)
    h = build_pairing_hamiltonian(spec).to_matrix()
    n = np.diag(np.bitwise_count(np.arange(16)))
    assert np.max(np.abs(h @ n - n @ h)) < 1e-10


def test_all_terms_at_most_two_local():
    ham = build_pairing_hamiltonian(PairingSpec(5, 1.0, 0.8))
    assert (ham.codes > 0).sum(axis=1).max() <= 2


def test_spec_validation():
    with pytest.raises(ValueError):
        PairingSpec(0)
