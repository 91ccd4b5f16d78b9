import math
import warnings

import numpy as np
import pytest

from shadowproj.paulis import PauliString, WeightedPauliSum
from shadowproj.projectors import (EmptySectorWarning, ProjectorLCU,
                                   all_sector_projectors,
                                   exact_number_projector,
                                   exact_parity_projector,
                                   exact_spin_projector,
                                   expand_projected_observable,
                                   number_projector,
                                   number_sector_projectors, parity_projector,
                                   parity_sector_projectors,
                                   projected_estimate,
                                   projected_estimate_sectors,
                                   projector_from_spec,
                                   reconstruct_projected_density,
                                   spin_projector, spin_sector_projectors,
                                   spin_sectors, total_spin_matrices,
                                   wigner_small_d)
from shadowproj.shadows import (ClassicalShadow, acquire_shadow, estimate,
                                iter_snapshot_distribution,
                                reconstruct_density)
from shadowproj.statevector import (Statevector,
                                    exact_projected_linear,
                                    prepare_basis_state, prepare_gaussian,
                                    prepare_parity_mixture, ry, rz)


def random_state(q, seed=0):
    gen = np.random.default_rng(seed)
    v = gen.normal(size=2 ** q) + 1j * gen.normal(size=2 ** q)
    return Statevector(v / np.linalg.norm(v))


def random_obs(q, seed=0, nterms=3):
    gen = np.random.default_rng(seed)
    return WeightedPauliSum(q, tuple(
        (float(gen.normal()), PauliString(tuple(gen.choice(list("IXYZ"), q))))
        for _ in range(nterms)))


IDENT4 = WeightedPauliSum.identity(4)


# --- parity -----------------------------------------------------------------

def test_parity_projector_dense_q2():
    dense = parity_projector(2, +1).to_matrix()
    assert np.allclose(dense, np.diag([1, 0, 0, 1]), atol=1e-14)


def test_parity_projector_term_structure():
    proj = parity_projector(3, -1)
    assert len(proj.betas) == 2
    assert proj.betas.tolist() == [0.5, -0.5]
    assert proj.gates.tolist() == [[1, 0, 0, 0], [0, 0, 0, 1]]


def test_parity_resolution_of_identity():
    for q in (1, 2, 3, 4):
        total = sum(p.to_matrix() for p in parity_sector_projectors(q))
        assert np.max(np.abs(total - np.eye(2 ** q))) < 1e-14


def test_parity_matches_exact_eigenprojector():
    for q in (1, 2, 3, 4):
        for eps in (1, -1):
            assert np.max(np.abs(parity_projector(q, eps).to_matrix()
                                 - exact_parity_projector(q, eps))) < 1e-12


def test_parity_norm_on_engineered_state():
    state = prepare_parity_mixture(4, 0.3, seed=5)
    dense = parity_projector(4, +1).to_matrix()
    norm = float(np.vdot(state.amplitudes, dense @ state.amplitudes).real)
    assert norm == pytest.approx(0.3, abs=1e-12)


# --- particle number --------------------------------------------------------

def test_number_projector_completeness():
    for q in (1, 2, 3, 4):
        total = sum(p.to_matrix() for p in number_sector_projectors(q))
        assert np.max(np.abs(total - np.eye(2 ** q))) < 1e-12


def test_number_projector_on_eigenstate():
    state = prepare_basis_state(4, 0b0011)
    dense = number_projector(4, 2).to_matrix()
    val = float(np.vdot(state.amplitudes, dense @ state.amplitudes).real)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_number_projector_has_q_plus_one_terms():
    proj = number_projector(4, 1)
    assert len(proj.betas) == 5


def test_number_projector_range_check():
    with pytest.raises(ValueError):
        number_projector(3, 4)


def test_number_projector_matches_exact():
    for q in (2, 3, 4):
        for n0 in range(q + 1):
            assert np.max(np.abs(number_projector(q, n0).to_matrix()
                                 - exact_number_projector(q, n0))) < 1e-12


def test_idempotence_and_hermiticity_dense():
    for proj in (parity_projector(4, 1), parity_projector(3, -1),
                 number_projector(4, 2), number_projector(3, 0)):
        dense = proj.to_matrix()
        assert np.max(np.abs(dense @ dense - dense)) < 1e-10
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-10


# --- wigner -----------------------------------------------------------------

def test_wigner_closed_forms():
    for beta in (0.0, 0.4, 1.3, 2.9):
        assert wigner_small_d(0.5, 0.5, 0.5, beta) == pytest.approx(
            math.cos(beta / 2), abs=1e-12)
        assert wigner_small_d(1, 1, 1, beta) == pytest.approx(
            (1 + math.cos(beta)) / 2, abs=1e-12)


def test_wigner_small_d_matches_rotation_matrix():
    """The full d-matrix must equal exp(-i beta Jy) in the |s, m> basis."""
    beta = 0.813
    # s = 1/2: Jy = Y/2 in the (m=+1/2, m=-1/2) basis.
    expected = np.array([[math.cos(beta / 2), -math.sin(beta / 2)],
                         [math.sin(beta / 2), math.cos(beta / 2)]])
    got = np.array([[wigner_small_d(0.5, m1, m2, beta)
                     for m2 in (0.5, -0.5)] for m1 in (0.5, -0.5)])
    assert np.allclose(got, expected, atol=1e-12)
    # s = 1: exponentiate Jy directly.
    jy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2)
    vals, vecs = np.linalg.eigh(jy)
    rot = (vecs * np.exp(-1j * beta * vals)) @ vecs.conj().T
    ms = (1.0, 0.0, -1.0)
    got = np.array([[wigner_small_d(1, m1, m2, beta) for m2 in ms]
                    for m1 in ms])
    assert np.allclose(got, rot.real, atol=1e-12)
    assert np.max(np.abs(rot.imag)) < 1e-12


@pytest.mark.parametrize("s", [1.5, 2.0])
def test_wigner_small_d_higher_spins(s):
    """Cross-check the factorial sum against exponentiating Jy directly."""
    beta = 1.137
    dim = round(2 * s) + 1
    ms = [s - k for k in range(dim)]
    jy = np.zeros((dim, dim), dtype=complex)
    for a, m1 in enumerate(ms):
        for b, m2 in enumerate(ms):
            if abs(m1 - m2 - 1) < 1e-9:   # J+ contribution to Jy
                jy[a, b] = -0.5j * math.sqrt(s * (s + 1) - m2 * (m2 + 1))
            elif abs(m1 - m2 + 1) < 1e-9:
                jy[a, b] = 0.5j * math.sqrt(s * (s + 1) - m2 * (m2 - 1))
    vals, vecs = np.linalg.eigh(jy)
    rot = (vecs * np.exp(-1j * beta * vals)) @ vecs.conj().T
    got = np.array([[wigner_small_d(s, m1, m2, beta) for m2 in ms]
                    for m1 in ms])
    assert np.allclose(got, rot.real, atol=1e-12)
    assert np.max(np.abs(rot.imag)) < 1e-12


def test_wigner_validation():
    with pytest.raises(ValueError):
        wigner_small_d(0.5, 1.5, 0.5, 0.3)
    with pytest.raises(ValueError):
        wigner_small_d(1, 0.5, 0.5, 0.3)


# --- spin projector ---------------------------------------------------------

def test_spin_sector_labels():
    assert spin_sectors(2) == [(1.0, -1.0), (1.0, 0.0), (1.0, 1.0),
                               (0.0, 0.0)]
    assert (0.5, 0.5) in spin_sectors(3)
    assert len(spin_sectors(4)) == 9


def test_spin_projector_validation():
    with pytest.raises(ValueError):
        spin_projector(2, 0.5, 0.5, 8)     # s must differ from q/2 by int
    with pytest.raises(ValueError):
        spin_projector(2, 1, 2, 8)         # |m| <= s
    with pytest.raises(ValueError):
        spin_projector(2, 1, 0, 1)         # mesh too small


def test_spin_projector_singlet_amplitude():
    singlet = Statevector(np.array([0, 1, -1, 0], dtype=complex)
                          / math.sqrt(2))
    dense = spin_projector(2, 0, 0, 10).to_matrix()
    val = np.vdot(singlet.amplitudes, dense @ singlet.amplitudes).real
    assert val == pytest.approx(1.0, abs=0.02)


def test_spin_projector_stretched_state():
    state = prepare_basis_state(2, 0)   # both spins up: |1,1>
    dense = spin_projector(2, 1, 1, 10).to_matrix()
    val = np.vdot(state.amplitudes, dense @ state.amplitudes).real
    assert val == pytest.approx(1.0, abs=0.02)


def test_spin_projector_term_count():
    assert len(spin_projector(2, 1, 0, 4).betas) == 64


def test_spin_completeness_two_percent_at_np10():
    for q in (2, 3, 4):
        total = sum(p.to_matrix() for p in spin_sector_projectors(q, 10))
        assert np.max(np.abs(total - np.eye(2 ** q))) < 0.02


def test_spin_discretization_converges_monotonically():
    meshes = (4, 8, 16, 32)
    for q, wanted in ((2, spin_sectors(2)), (4, [(2.0, 2.0), (1.0, 0.0),
                                                 (0.0, 0.0)])):
        errors = {sector: [] for sector in wanted}
        for n_p in meshes:
            family = {(s, m): p for (s, m), p in
                      zip(spin_sectors(q), spin_sector_projectors(q, n_p))}
            for sector in wanted:
                dense = family[sector].to_matrix()
                exact = exact_spin_projector(q, *sector)
                errors[sector].append(np.max(np.abs(dense - exact)))
        for sector, errs in errors.items():
            assert all(a > b for a, b in zip(errs, errs[1:])), \
                (q, sector, errs)


def test_spin_discretization_error_near_one_percent_at_np10():
    worst = 0.0
    for s, m in spin_sectors(4):
        dense = spin_projector(4, s, m, 10).to_matrix()
        worst = max(worst, np.max(np.abs(dense - exact_spin_projector(4, s, m))))
    assert worst < 0.015


def test_spin_hermiticity_within_discretization():
    dense = spin_projector(4, 1, 0, 10).to_matrix()
    assert np.max(np.abs(dense - dense.conj().T)) < 0.02


def test_total_spin_matrices_commute():
    s_sq, s_z = total_spin_matrices(3)
    assert np.max(np.abs(s_sq @ s_z - s_z @ s_sq)) < 1e-10


def test_exact_spin_projectors_resolve_identity():
    for q in (2, 3, 4):
        total = sum(exact_spin_projector(q, s, m)
                    for s, m in spin_sectors(q))
        assert np.max(np.abs(total - np.eye(2 ** q))) < 1e-10


# --- gate conventions -------------------------------------------------------

def test_rotation_gate_conventions():
    theta = 0.731
    assert np.allclose(rz(theta),
                       np.diag([np.exp(-1j * theta / 2),
                                np.exp(1j * theta / 2)]), atol=1e-14)
    expected_ry = np.array([[math.cos(theta / 2), -math.sin(theta / 2)],
                            [math.sin(theta / 2), math.cos(theta / 2)]])
    assert np.allclose(ry(theta), expected_ry, atol=1e-14)


def test_euler_product_matches_many_body_rotation():
    """(x)_j rz ry rz must equal exp(-ia Sz) exp(-ib Sy) exp(-ig Sz)."""
    q = 2
    a, b, g = 0.6, 1.1, 2.3
    single = rz(a) @ ry(b) @ rz(g)
    tensor = np.kron(single, single)
    s_sq, s_z = total_spin_matrices(q)
    from shadowproj.paulis import PauliString as PS
    s_y = sum(PS.single(q, j, "Y").to_matrix() for j in range(q)) / 2
    def expm(h, t):
        vals, vecs = np.linalg.eigh(h)
        return (vecs * np.exp(-1j * t * vals)) @ vecs.conj().T
    many = expm(s_z, a) @ expm(s_y, b) @ expm(s_z, g)
    assert np.max(np.abs(tensor - many)) < 1e-12


# --- projected estimation ---------------------------------------------------

def test_identity_lcu_reduces_to_plain_estimate():
    state = random_state(3, 11)
    shadow = acquire_shadow(state, 200, seed=4)
    obs = random_obs(3, 11)
    identity = ProjectorLCU(3, [1], [[1, 0, 0, 0]])
    num, norm = projected_estimate(shadow, obs, identity)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert num == pytest.approx(estimate(shadow, obs), abs=1e-12)


def test_projected_estimate_enumeration_unbiased_all_families():
    """Exact unbiasedness: weighted enumeration equals Tr[O P rho], Tr[P rho]."""
    cases = [
        (2, parity_projector(2, 1)),
        (2, parity_projector(2, -1)),
        (3, number_projector(3, 1)),
        (2, spin_projector(2, 1, 0, 4)),
        (3, spin_projector(3, 0.5, 0.5, 4)),
    ]
    for q, proj in cases:
        state = random_state(q, seed=q + 31)
        obs = random_obs(q, seed=q)
        num_acc = norm_acc = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptySectorWarning)
            for snap, prob in iter_snapshot_distribution(state):
                shadow = ClassicalShadow(q, (snap,), 0)
                num, norm = projected_estimate(shadow, obs, proj)
                num_acc += prob * num
                norm_acc += prob * norm
        exact_num, exact_norm = exact_projected_linear(state, obs,
                                                       proj.to_matrix())
        assert num_acc == pytest.approx(exact_num, abs=1e-10)
        assert norm_acc == pytest.approx(exact_norm, abs=1e-10)


def test_projected_estimate_linear_in_coefficients():
    state = random_state(2, 5)
    shadow = acquire_shadow(state, 300, seed=2)
    proj = parity_projector(2, 1)
    a = random_obs(2, 1)
    b = random_obs(2, 2)
    num_a, _ = projected_estimate(shadow, a, proj)
    num_b, _ = projected_estimate(shadow, b, proj)
    combo = WeightedPauliSum.from_arrays(
        2, np.concatenate([a.codes, b.codes]),
        np.concatenate([0.7 * a.coeffs, -1.3 * b.coeffs]))
    num_c, _ = projected_estimate(shadow, combo, proj)
    assert num_c == pytest.approx(0.7 * num_a - 1.3 * num_b, abs=1e-9)


def test_projected_estimate_parity_probability_converges():
    state = prepare_parity_mixture(4, 0.3, seed=5)
    shadow = acquire_shadow(state, 10_000, seed=61)
    _, p_plus = projected_estimate(shadow, IDENT4, parity_projector(4, 1))
    _, p_minus = projected_estimate(shadow, IDENT4, parity_projector(4, -1))
    assert p_plus == pytest.approx(0.3, abs=0.05)
    assert p_minus == pytest.approx(0.7, abs=0.05)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-10)


def test_projected_estimate_prescribed_path_matches_expansion():
    state = random_state(2, 8)
    proj = number_projector(2, 1)
    obs = random_obs(2, 3)
    plan = [["Z", "Z"], ["X", "Z"], ["Z", "X"], ["X", "X"],
            ["Y", "Y"], ["Z", "Y"], ["Y", "Z"], ["X", "Y"], ["Y", "X"]] * 4
    shadow = acquire_shadow(state, len(plan), seed=3, bases=plan)
    num, norm = projected_estimate(shadow, obs, proj)
    expanded = expand_projected_observable(obs, proj)
    assert num == pytest.approx(estimate(shadow, expanded), abs=1e-12)
    assert norm == pytest.approx(estimate(shadow, proj.to_pauli_sum()),
                                 abs=1e-12)


def test_empty_sector_warning():
    state = prepare_basis_state(2)   # pure even parity
    shadow = acquire_shadow(state, 30, seed=1, bases=[["Z", "Z"]] * 30)
    shadow = ClassicalShadow(2, shadow.snapshots, 1, prescribed=False)
    with pytest.warns(EmptySectorWarning):
        num, norm = projected_estimate(shadow, WeightedPauliSum.identity(2),
                                       parity_projector(2, -1))
    assert norm <= 0.0


def test_sector_batch_matches_single_calls():
    state = prepare_gaussian(4)
    shadow = acquire_shadow(state, 2000, seed=9)
    projs = number_sector_projectors(4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptySectorWarning)
        batched = projected_estimate_sectors(shadow, IDENT4, projs)
        singles = [projected_estimate(shadow, IDENT4, p) for p in projs]
    for (bn, bd), (sn, sd) in zip(batched, singles):
        assert bn == pytest.approx(sn, abs=1e-12)
        assert bd == pytest.approx(sd, abs=1e-12)
    # completeness holds exactly, snapshot by snapshot
    assert sum(d for _, d in batched) == pytest.approx(1.0, abs=1e-10)


def test_expansion_matches_dense_product():
    obs = random_obs(3, 17, nterms=4)
    for proj in (parity_projector(3, -1), number_projector(3, 2),
                 spin_projector(3, 1.5, 0.5, 3)):
        expanded = expand_projected_observable(obs, proj)
        dense = obs.to_matrix() @ proj.to_matrix()
        assert np.max(np.abs(expanded.to_matrix() - dense)) < 1e-10


def test_parity_expansion_enlarges_by_z_products():
    # {P} -> {P, P*Z} : the two-term parity LCU doubles terms at most
    obs = random_obs(4, 2, nterms=5)
    expanded = expand_projected_observable(obs, parity_projector(4, 1))
    assert len(expanded.terms) <= 2 * len(obs.terms)


def test_reconstruct_projected_density_splits_sectors():
    state = prepare_parity_mixture(2, 0.4, seed=3)
    shadow = acquire_shadow(state, 4000, seed=13)
    rho = reconstruct_density(shadow)
    even = reconstruct_projected_density(shadow, parity_projector(2, 1))
    odd = reconstruct_projected_density(shadow, parity_projector(2, -1))
    dense_p = parity_projector(2, 1).to_matrix()
    dense_m = parity_projector(2, -1).to_matrix()
    assert np.allclose(even, dense_p @ rho @ dense_p, atol=1e-12)
    assert np.allclose(odd, dense_m @ rho @ dense_m, atol=1e-12)
    exact_even = dense_p @ state.density_matrix() @ dense_p
    assert np.max(np.abs(even - exact_even)) < 0.25


def test_projector_from_spec_and_families():
    assert projector_from_spec(3, {"type": "parity", "epsilon": -1}).label \
        == "parity=-1"
    assert projector_from_spec(3, {"type": "number", "n0": 2}).label == "n0=2"
    spin = projector_from_spec(2, {"type": "spin", "s": 1, "m": 0, "n_p": 4})
    assert spin.label == "s=1,m=0"
    with pytest.raises(ValueError):
        projector_from_spec(2, {"type": "bogus"})
    assert len(all_sector_projectors(4, {"type": "parity"})) == 2
    assert len(all_sector_projectors(4, {"type": "number"})) == 5
    assert len(all_sector_projectors(4, {"type": "spin", "n_p": 3})) == 9



@pytest.mark.parametrize("spec, key", [
    ({"type": "number", "n0": 2.5}, "n0"),
    ({"type": "number", "n0": True}, "n0"),
    ({"type": "number", "n0": "2"}, "n0"),
    ({"type": "parity", "epsilon": 1.9}, "epsilon"),
    ({"type": "parity", "epsilon": False}, "epsilon"),
    ({"type": "spin", "s": 1, "m": 0, "n_p": 4.7}, "n_p"),
    ({"type": "spin", "s": "1", "m": 0}, "s"),
    ({"type": "spin", "s": 1, "m": True}, "m"),
])
def test_projector_spec_rejects_malformed_numbers(spec, key):
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        projector_from_spec(2, spec)


@pytest.mark.parametrize("spec", [{"type": "spin", "n_p": 4.7},
                                  {"type": "spin", "n_p": "4"},
                                  {"type": "spin", "n_p": True}])
def test_all_sectors_rejects_a_malformed_mesh_size(spec):
    with pytest.raises(ValueError, match="'n_p' must be an integer"):
        all_sector_projectors(2, spec)


@pytest.mark.parametrize("spec, key", [({"type": "number"}, "n0"),
                                       ({"type": "parity"}, "epsilon"),
                                       ({"type": "spin", "m": 0}, "s"),
                                       ({"type": "spin", "s": 1}, "m")])
def test_projector_spec_names_a_missing_key(spec, key):
    with pytest.raises(ValueError, match=f"lacks '{key}'"):
        projector_from_spec(2, spec)


def test_projector_spec_accepts_integral_numbers():
    assert projector_from_spec(3, {"type": "number", "n0": 2.0}).label \
        == "n0=2"
    assert projector_from_spec(3, {"type": "number",
                                   "n0": np.int64(1)}).label == "n0=1"
    assert len(projector_from_spec(2, {"type": "spin", "s": 1.0, "m": 0,
                                       "n_p": 3.0}).betas) == 27


def test_projector_arrays_are_read_only():
    proj = spin_projector(2, 1, 0, 3)
    assert proj.gates.shape == (27, 4) and proj.betas.shape == (27,)
    assert proj.gates.dtype == complex and proj.betas.dtype == complex
    for arr in (proj.gates, proj.betas):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(ValueError):
        ProjectorLCU(2, [1, 1], [[1, 0, 0, 0]])

def test_sector_family_shares_gates():
    projs = number_sector_projectors(4)
    assert all(p.gates is projs[0].gates for p in projs[1:])
    spins = spin_sector_projectors(2, 4)
    assert all(p.gates is spins[0].gates for p in spins[1:])


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_single_sector_constructors_return_the_family_member(q):
    pairs = ([(parity_projector(q, e), p)
              for e, p in zip((1, -1), parity_sector_projectors(q))]
             + [(number_projector(q, n), p)
                for n, p in enumerate(number_sector_projectors(q))]
             + [(spin_projector(q, s, m, 3), p)
                for (s, m), p in zip(spin_sectors(q),
                                     spin_sector_projectors(q, 3))])
    for single, member in pairs:
        assert single.label == member.label
        assert np.array_equal(single.betas, member.betas)
        assert np.array_equal(single.gates, member.gates)
    assert spin_projector(2, 1, 0, 3).label == "s=1,m=0"


@pytest.mark.parametrize("build, message", [
    (lambda: parity_projector(3, 0), r"epsilon must be \+1 or -1"),
    (lambda: parity_projector(3, 2), r"epsilon must be \+1 or -1"),
    (lambda: number_projector(3, 4), r"n0=4 outside 0\.\.3"),
    (lambda: number_projector(3, -1), r"n0=-1 outside 0\.\.3"),
    (lambda: spin_projector(2, 0.5, 0.5, 8), "s=0.5 incompatible with q=2"),
    (lambda: spin_projector(2, 1, 2, 8), "m=2 incompatible with s=1"),
    (lambda: spin_projector(2, 1.3, 0, 8),
     "s and m must be integers or half-integers"),
    (lambda: spin_projector(2, 1, 0, 1),
     "need at least two quadrature points per angle"),
    # malformed tables fail here, before estimation divides by them
    (lambda: ProjectorLCU(3, [], np.zeros((0, 4))),
     "betas and gates need at least one term"),
    (lambda: ProjectorLCU(2, [1], [[np.nan, 0, 0, 0]]),
     "gates must be finite"),
    (lambda: ProjectorLCU(2, [np.inf], [[1, 0, 0, 0]]),
     "betas must be finite"),
    (lambda: ProjectorLCU(0, [1], [[1, 0, 0, 0]]),
     "num_qubits must be an integer >= 1, got 0"),
    (lambda: ProjectorLCU(2.5, [1], [[1, 0, 0, 0]]),
     "num_qubits must be an integer >= 1, got 2.5"),
])
def test_single_sector_constructors_reject_bad_labels(build, message):
    with pytest.raises(ValueError, match=message):
        build()
