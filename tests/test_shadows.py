import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_plan
from shadowproj.paulis import PauliString, WeightedPauliSum
from shadowproj.projectors import (parity_projector,
                                   reconstruct_projected_density)
from shadowproj.shadows import (ClassicalShadow, Snapshot,
                                _distinct_snapshots, _sum_in_order,
                                _term_counts, acquire_shadow, estimate,
                                iter_snapshot_distribution,
                                load_shadow, qubit_trace_factor,
                                reconstruct_density, save_shadow,
                                snapshot_density)
from shadowproj.statevector import (H, Statevector, apply_gate,
                                    exact_expectation, prepare_basis_state)


def random_state(q, seed=0):
    gen = np.random.default_rng(seed)
    v = gen.normal(size=2 ** q) + 1j * gen.normal(size=2 ** q)
    return Statevector(v / np.linalg.norm(v))


def fig2_state():
    state = prepare_basis_state(2)
    for j in range(2):
        state = apply_gate(state, H, j)
    return state


def single(letter, q=1, qubit=0):
    return WeightedPauliSum(q, ((1.0, PauliString.single(q, qubit, letter)),))


# --- Table-1 kernel ---------------------------------------------------------

def test_trace_factor_full_table():
    """All 12 cells of the per-qubit outcome table, both outcome states."""
    expected = {
        ("X", "I"): (1, 1), ("X", "X"): (3, -3),
        ("X", "Y"): (0, 0), ("X", "Z"): (0, 0),
        ("Y", "I"): (1, 1), ("Y", "X"): (0, 0),
        ("Y", "Y"): (3, -3), ("Y", "Z"): (0, 0),
        ("Z", "I"): (1, 1), ("Z", "X"): (0, 0),
        ("Z", "Y"): (0, 0), ("Z", "Z"): (3, -3),
    }
    for (basis, p), (on_zero, on_one) in expected.items():
        assert qubit_trace_factor(basis, 0, p) == on_zero
        assert qubit_trace_factor(basis, 1, p) == on_one


def test_trace_factor_matches_dense_trace():
    from shadowproj.paulis import PAULI_MATRICES
    from shadowproj.statevector import BASIS_ROTATIONS
    for basis in "XYZ":
        u = BASIS_ROTATIONS[basis]
        for bit in (0, 1):
            v = u.conj().T[:, bit]
            r = np.outer(v, v.conj())
            for p in "IXYZ":
                dense = np.trace(PAULI_MATRICES[p] @ (3 * r - np.eye(2)))
                assert qubit_trace_factor(basis, bit, p) == pytest.approx(
                    dense.real, abs=1e-12)
                assert abs(dense.imag) < 1e-12


# --- acquisition ------------------------------------------------------------

def test_acquire_prescribed_all_z_on_zero_state():
    state = prepare_basis_state(1)
    shadow = acquire_shadow(state, 3, seed=0, bases=[["Z"]] * 3)
    assert shadow.prescribed
    assert all(s.outcome == (0,) for s in shadow.snapshots)


def test_acquire_uniform_basis_frequencies():
    state = fig2_state()
    shadow = acquire_shadow(state, 10_000, seed=42)
    counts = {}
    for snap in shadow.snapshots:
        counts[snap.bases] = counts.get(snap.bases, 0) + 1
    assert len(counts) == 9
    for v in counts.values():
        assert abs(v / 10_000 - 1 / 9) < 0.01


def test_acquire_deterministic_in_seed():
    state = random_state(3, 1)
    a = acquire_shadow(state, 50, seed=5)
    b = acquire_shadow(state, 50, seed=5)
    c = acquire_shadow(state, 50, seed=6)
    assert a.snapshots == b.snapshots
    assert a.snapshots != c.snapshots


def test_snapshot_streams_independent_of_count():
    """Snapshot n only depends on (seed, n), not on how many are taken."""
    state = random_state(2, 2)
    small = acquire_shadow(state, 10, seed=9)
    large = acquire_shadow(state, 200, seed=9)
    assert large.snapshots[:10] == small.snapshots


def test_shadow_requires_snapshot():
    with pytest.raises(ValueError):
        ClassicalShadow(1, (), seed=0)


# --- estimation -------------------------------------------------------------

def test_estimate_prescribed_all_z_gives_plus_one():
    state = prepare_basis_state(1)
    shadow = acquire_shadow(state, 5, seed=0, bases=[["Z"]] * 5)
    assert estimate(shadow, single("Z")) == pytest.approx(1.0)


def test_estimate_identity_is_exactly_one():
    state = random_state(2, 3)
    shadow = acquire_shadow(state, 17, seed=1)
    ident = WeightedPauliSum.identity(2)
    assert estimate(shadow, ident) == 1.0
    prescribed = acquire_shadow(state, 4, seed=1, bases=[["Z", "Z"]] * 4)
    assert estimate(prescribed, ident) == 1.0


def test_estimate_fig2_observables_against_oracle():
    state = fig2_state()
    shadow = acquire_shadow(state, 10_000, seed=1234)
    for letter, qubit in (("X", 0), ("X", 1), ("Z", 0)):
        obs = single(letter, q=2, qubit=qubit)
        assert estimate(shadow, obs) == pytest.approx(
            exact_expectation(state, obs), abs=0.1)


def test_estimate_only_uses_matching_snapshots():
    # a Z-basis-only shadow gives exactly 0 for any X observable
    state = fig2_state()
    shadow = acquire_shadow(state, 20, seed=0, bases=[["Z", "Z"]] * 20)
    random_style = ClassicalShadow(2, shadow.snapshots, 0, prescribed=False)
    assert estimate(random_style, single("X", q=2)) == 0.0


def test_estimate_prescribed_raises_on_uncovered_term():
    state = prepare_basis_state(2)
    shadow = acquire_shadow(state, 5, seed=0, bases=[["Z", "Z"]] * 5)
    with pytest.raises(ValueError):
        estimate(shadow, single("X", q=2))


def test_estimate_unbiased_by_enumeration():
    """Probability-weighted enumeration reproduces the exact expectation."""
    for q in (1, 2, 3):
        state = random_state(q, seed=10 + q)
        gen = np.random.default_rng(q)
        obs = WeightedPauliSum(q, tuple(
            (float(gen.normal()),
             PauliString(tuple(gen.choice(list("IXYZ"), q))))
            for _ in range(3)))
        acc = 0.0
        for snap, prob in iter_snapshot_distribution(state):
            shadow = ClassicalShadow(q, (snap,), 0)
            acc += prob * estimate(shadow, obs)
        assert acc == pytest.approx(exact_expectation(state, obs), abs=1e-10)


def test_prescribed_estimator_unbiased_by_enumeration():
    """For a fixed basis row, outcome-weighted enumeration of the direct
    estimator reproduces the exact expectation of every compatible term."""
    from shadowproj.statevector import rotate_to_bases
    state = random_state(2, seed=6)
    bases = ("X", "Z")
    obs = WeightedPauliSum(2, (
        (0.8, PauliString(("X", "I"))),
        (-0.4, PauliString(("I", "Z"))),
        (1.1, PauliString(("X", "Z"))),
    ))
    probs = rotate_to_bases(state, bases).probabilities()
    acc = 0.0
    for k in range(4):
        if probs[k] == 0.0:
            continue
        snap = Snapshot(bases, (k & 1, (k >> 1) & 1))
        shadow = ClassicalShadow(2, (snap,), 0, prescribed=True)
        acc += probs[k] * estimate(shadow, obs)
    assert acc == pytest.approx(exact_expectation(state, obs), abs=1e-12)


def test_median_of_means_close_to_mean():
    state = fig2_state()
    shadow = acquire_shadow(state, 3000, seed=3)
    obs = single("X", q=2)
    plain = estimate(shadow, obs)
    robust = estimate(shadow, obs, median_groups=5)
    assert abs(plain - exact_expectation(state, obs)) < 0.2
    assert abs(robust - exact_expectation(state, obs)) < 0.3


@pytest.mark.parametrize("groups", [2, 5, 7, 50])
def test_median_of_means_is_the_median_of_sub_shadow_estimates(groups):
    """Groups are contiguous runs of snapshots, the first M % groups of them
    one snapshot longer, and each gives the plain estimate bit for bit."""
    shadow = acquire_shadow(random_state(3, 4), 50, seed=8)
    obs = WeightedPauliSum.from_arrays(
        3, [[1, 0, 3], [0, 2, 2], [3, 3, 3], [0, 0, 0]],
        [0.7, -1.2 + 0.5j, 0.4, 0.3])
    sizes = [50 // groups + (i < 50 % groups) for i in range(groups)]
    bounds = np.cumsum([0] + sizes)
    plain = [estimate(ClassicalShadow.from_arrays(shadow.codes[a:b],
                                                  shadow.outcomes[a:b], 8),
                      obs)
             for a, b in zip(bounds, bounds[1:])]
    assert estimate(shadow, obs, median_groups=groups) == np.median(plain)



@pytest.mark.parametrize("groups", [0, -1, 51, 500])
def test_median_groups_outside_the_shadow_are_rejected(groups):
    shadow = acquire_shadow(fig2_state(), 50, seed=3)
    with pytest.raises(ValueError, match="median_groups must lie in 1..50"):
        estimate(shadow, single("X", q=2), median_groups=groups)


def test_median_groups_up_to_the_shadow_size_are_accepted():
    shadow = acquire_shadow(fig2_state(), 50, seed=3)
    obs = single("X", q=2)
    values = [estimate(shadow, obs, median_groups=g) for g in (1, 50)]
    assert values[0] == estimate(shadow, obs)
    assert np.isfinite(values[1])

# --- density reconstruction -------------------------------------------------

def test_reconstruct_eigenstate_prescribed_z():
    state = prepare_basis_state(1)
    shadow = acquire_shadow(state, 10, seed=0, bases=[["Z"]] * 10)
    rho = reconstruct_density(shadow)
    # channel inversion is exact only on average over bases; for an
    # all-Z shadow of |0> each snapshot density is diag(2, -1) + |0><0| terms
    assert rho[0, 0].real > rho[1, 1].real
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-10)


def test_reconstruct_density_properties():
    state = random_state(2, 7)
    shadow = acquire_shadow(state, 500, seed=7)
    rho = reconstruct_density(shadow)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


def test_reconstruct_density_guard():
    state = random_state(5, 1)
    shadow = acquire_shadow(state, 2, seed=1)
    with pytest.raises(ValueError, match="limited to q <= 4"):
        reconstruct_density(shadow)
    with pytest.raises(ValueError, match="limited to q <= 4"):
        reconstruct_projected_density(shadow, parity_projector(5, 1))
    assert reconstruct_density(acquire_shadow(random_state(4, 1), 2,
                                              seed=1)).shape == (16, 16)


def test_channel_inversion_exact_by_enumeration():
    for q in (1, 2, 3):
        state = random_state(q, seed=20 + q)
        rho = state.density_matrix()
        acc = np.zeros_like(rho)
        for snap, prob in iter_snapshot_distribution(state):
            acc += prob * snapshot_density(snap)
        assert np.max(np.abs(acc - rho)) < 1e-10


@pytest.mark.parametrize("q,prescribed", [(1, False), (2, False), (3, True),
                                          (4, False)])
def test_reconstruct_density_matches_the_snapshot_mean(q, prescribed):
    """Against the mean of every snapshot's Kronecker product. The two sum
    in different orders; an entry of a snapshot density is at most 2^q = 16
    in magnitude, so 300 of them agree to 1e-12 (about 300 * 16 * 2^-52)."""
    bases = random_plan(q, 300, 5).bases_sequence if prescribed else None
    shadow = acquire_shadow(random_state(q, 30 + q), 300, seed=q, bases=bases)
    want = sum(snapshot_density(snap) for snap in shadow.snapshots) / 300
    assert np.max(np.abs(reconstruct_density(shadow) - want)) < 1e-12


def test_fig2_reconstruction_error_is_finite_shot_noise():
    state = fig2_state()
    shadow = acquire_shadow(state, 1000, seed=2)
    rho = reconstruct_density(shadow)
    err = np.max(np.abs(rho - state.density_matrix()))
    assert 0.0 < err < 0.3


# --- serialization ----------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.lists(st.sampled_from("XYZ"), min_size=3, max_size=3),
              st.lists(st.integers(0, 1), min_size=3, max_size=3)),
    min_size=1, max_size=12))
def test_shadow_file_roundtrip_property(tmp_path_factory, raw):
    snapshots = tuple(Snapshot(tuple(b), tuple(o)) for b, o in raw)
    shadow = ClassicalShadow(3, snapshots, seed=5)
    path = tmp_path_factory.mktemp("shadow") / "s.txt"
    save_shadow(shadow, path)
    again = load_shadow(path)
    assert again.snapshots == shadow.snapshots


def test_shadow_file_roundtrip(tmp_path):
    state = random_state(3, 5)
    shadow = acquire_shadow(state, 25, seed=77)
    path = tmp_path / "shadow.txt"
    save_shadow(shadow, path)
    text = path.read_text().splitlines()
    assert text[0] == "q=3 M=25 seed=77"
    letters, bits = text[1].split()
    assert len(letters) == 3 and len(bits) == 3
    again = load_shadow(path)
    assert again.snapshots == shadow.snapshots
    assert again.seed == 77
    assert not again.prescribed
    assert load_shadow(path, prescribed=True).prescribed


def test_shadow_file_records_prescribed_protocol(tmp_path):
    plan = [["X", "Z"], ["Z", "Z"], ["Y", "X"]] * 4
    shadow = acquire_shadow(random_state(2, 2), len(plan), seed=4,
                            bases=plan)
    path = tmp_path / "plan_shadow.txt"
    save_shadow(shadow, path)
    assert path.read_text().splitlines()[0] \
        == "q=2 M=12 seed=4 protocol=prescribed"
    again = load_shadow(path)
    assert again.prescribed
    assert again.snapshots == shadow.snapshots
    obs = single("X", q=2, qubit=1)
    assert estimate(again, obs) == estimate(shadow, obs)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5).flatmap(lambda q: st.tuples(
    st.lists(st.lists(st.integers(0, 2), min_size=q, max_size=q),
             min_size=1, max_size=12),
    st.lists(st.lists(st.integers(0, 1), min_size=q, max_size=q),
             min_size=12, max_size=12),
    st.integers(0, 2 ** 40), st.booleans())))
def test_shadow_file_roundtrip_arrays_and_protocol(tmp_path_factory, data):
    codes, bits, seed, prescribed = data
    codes = np.array(codes, dtype=np.int8)
    bits = np.array(bits[:len(codes)], dtype=np.int8)
    shadow = ClassicalShadow.from_arrays(codes, bits, seed, prescribed)
    path = tmp_path_factory.mktemp("shadow") / "s.txt"
    save_shadow(shadow, path)
    again = load_shadow(path)
    assert np.array_equal(again.codes, codes)
    assert np.array_equal(again.outcomes, bits)
    assert (again.seed, again.prescribed) == (seed, prescribed)


def test_shadow_arrays_match_snapshot_view():
    snaps = (Snapshot(("X", "Z"), (1, 0)), Snapshot(("Y", "Y"), (0, 1)))
    shadow = ClassicalShadow(2, snaps, seed=0)
    assert shadow.codes.tolist() == [[0, 2], [1, 1]]
    assert shadow.outcomes.tolist() == [[1, 0], [0, 1]]
    assert shadow.codes.dtype == shadow.outcomes.dtype == np.int8
    assert shadow.snapshots == snaps
    with pytest.raises(ValueError):
        shadow.codes[0, 0] = 1
    with pytest.raises(AttributeError):
        shadow.seed = 1


def test_outcome_bits_outside_zero_one_rejected():
    with pytest.raises(ValueError, match="snapshot 0"):
        ClassicalShadow(1, (Snapshot(("X",), (2,)),), seed=0)
    with pytest.raises(ValueError, match="snapshot 1"):
        ClassicalShadow.from_arrays(np.zeros((2, 2)), [[0, 1], [-1, 0]], 0)
    with pytest.raises(ValueError, match="snapshot 0"):
        ClassicalShadow.from_arrays([[3]], [[0]], 0)


def test_zero_qubit_arrays_are_rejected():
    with pytest.raises(ValueError, match="num_qubits must be an integer >= 1"):
        ClassicalShadow.from_arrays(np.zeros((3, 0)), np.zeros((3, 0)), 1)


@pytest.mark.parametrize("seed", [1.5, -7, True, "3"])
def test_a_shadow_seed_is_a_non_negative_integer(seed):
    # from_arrays(codes, bits, 1.5) once saved a file that load_shadow
    # rejects, and seed=-7 was saved and loaded back, though acquire_shadow
    # rejects both
    message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        ClassicalShadow.from_arrays([[0, 2]], [[1, 0]], seed)
    with pytest.raises(ValueError, match=message):
        ClassicalShadow(2, (Snapshot(("X", "Z"), (1, 0)),), seed)


def test_a_numpy_integer_seed_is_saved_as_the_integer(tmp_path):
    shadow = ClassicalShadow.from_arrays([[0, 2]], [[1, 0]], np.int64(3))
    save_shadow(shadow, tmp_path / "s.txt")
    assert load_shadow(tmp_path / "s.txt").seed == 3


def test_a_negative_header_seed_is_a_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("q=2 M=1 seed=-7\nXZ 01\n")
    with pytest.raises(ValueError, match="line 1: bad header: seed must be a "
                                         "non-negative integer, got -7"):
        load_shadow(path)


@pytest.mark.parametrize("q", [0, -1, 2.5, True])
def test_no_zero_qubit_shadow_reaches_save_shadow(q):
    # a q=0 shadow was once accepted, and save_shadow wrote a file that
    # load_shadow rejects
    with pytest.raises(ValueError, match="num_qubits must be an integer >= 1"):
        ClassicalShadow(q, (Snapshot((), ()),), seed=0)


@pytest.mark.parametrize("line", ["XZ 02", "XW 01", "XZ_01", "XZ 0", "XZ 011",
                                  "XZ  01", "XZ 0é"])
def test_malformed_shadow_line_names_the_line(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text(f"q=2 M=3 seed=0\nXZ 01\nYY 10\n{line}\n")
    with pytest.raises(ValueError, match="line 4"):
        load_shadow(path)


@pytest.mark.parametrize("header", ["q=2 M=1", "q=2 M=1 seed=x",
                                    "q=2 M=1 seed=0 protocol=other",
                                    "q=0 M=1 seed=0", "q 2",
                                    "q=2 M=0 seed=0",
                                    # a misspelled protocol once read as
                                    # random; a repeat kept the last value
                                    "q=2 M=1 seed=1 protocl=prescribed",
                                    "q=2 M=1 seed=1 seed=2"])
def test_malformed_shadow_header_names_line_one(tmp_path, header):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\nXZ 01\n")
    with pytest.raises(ValueError, match="line 1"):
        load_shadow(path)


# The text of a q=2, M=3 shadow file as save_shadow writes it, and its
# arrays (qubit 0 is the rightmost letter and bit).
CANONICAL = "q=2 M=3 seed=9\nXZ 01\nYY 10\nZX 11\n"
CANONICAL_CODES = [[2, 0], [1, 1], [0, 2]]
CANONICAL_BITS = [[1, 0], [0, 1], [1, 1]]


@pytest.mark.parametrize("text", [
    CANONICAL.replace("\n", "\r\n"),  # CRLF line ends
    CANONICAL.replace("\n", "\r"),  # CR line ends
    CANONICAL.rstrip("\n"),  # no final line end
    CANONICAL + "\n\n  \n",  # trailing blank lines
    "\n" + CANONICAL,  # a leading blank line
    "q=2\tM=3  seed=9 \nXZ 01\nYY 10\nZX 11\n",  # header whitespace
])
def test_loader_accepts_line_end_and_whitespace_variants(tmp_path, text):
    path = tmp_path / "variant.txt"
    path.write_bytes(text.encode())
    got = load_shadow(path)
    assert got.codes.tolist() == CANONICAL_CODES
    assert got.outcomes.tolist() == CANONICAL_BITS
    assert (got.seed, got.prescribed) == (9, False)


def test_blank_line_inside_the_body_is_an_m_mismatch(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text("q=2 M=3 seed=9\nXZ 01\n\nYY 10\nZX 11\n")
    with pytest.raises(ValueError, match="header says M=3 but found 4"):
        load_shadow(path)


@pytest.mark.parametrize("raw,line", [
    (b"q=2 M=1 seed=0\nXZ 0\xe9\n", "line 2"),
    (b"q=2 M=2 seed=0\nXZ 01\n\xe9Z 01\n", "line 3"),
    (b"q=2 M=1 seed=\xe9\nXZ 01\n", "line 1"),
])
def test_byte_that_is_not_utf8_names_its_line(tmp_path, raw, line):
    path = tmp_path / "latin1.txt"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))} {line}"):
        load_shadow(path)


@pytest.mark.parametrize("prescribed,digest", [
    (False,
     "6462173a6faf6d151bc92495d31ec7dbd5d400703192654f52de073151ac97e8"),
    (True,
     "2f8476041eff4a0bbc395becc220ddad7b09397d6416c61bf6b72db2bcc278b9"),
])
def test_shadow_file_bytes_are_pinned(tmp_path, prescribed, digest):
    if prescribed:
        shadow = acquire_shadow(random_state(4, 12), 1000, seed=14,
                                bases=random_plan(4, 1000, 3).bases_sequence)
    else:
        shadow = acquire_shadow(random_state(4, 11), 1000, seed=13)
    path = tmp_path / "pinned.txt"
    save_shadow(shadow, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# --- estimators against their per-term references --------------------------

BASIS_CODE = {"X": 0, "Y": 1, "Z": 2}


def reference_estimate_prescribed(shadow, obs):
    """The prescribed estimator as one pass over all snapshots per term."""
    bases, outcomes = shadow.codes, shadow.outcomes
    sign = 1.0 - 2.0 * outcomes
    total = 0j
    for coeff, string in obs.terms:
        mask = np.ones(len(shadow), dtype=bool)
        vals = np.ones(len(shadow))
        for j in string.support():
            mask &= bases[:, j] == BASIS_CODE[string.letters[j]]
            vals = vals * sign[:, j]
        hits = int(mask.sum())
        if hits == 0:
            raise ValueError(f"no compatible snapshots for term {string}")
        total += (coeff * string.phase) * (vals[mask].sum() / hits)
    return float(total.real)


def reference_random_estimate(shadow, obs):
    """The inverse-channel mean term by term: 3^weight times the term's
    signed count over every snapshot, over M, added in order."""
    sign = 1 - 2 * shadow.outcomes.astype(np.int64)
    total = 0.0
    for coeff, string in obs.terms:
        v = np.ones(len(shadow), dtype=np.int64)
        for j in string.support():
            v *= sign[:, j] * (shadow.codes[:, j]
                               == BASIS_CODE[string.letters[j]])
        total += (coeff * string.phase).real * (
            3.0 ** len(string.support()) * int(v.sum()) / len(shadow))
    return total


def reference_per_snapshot_values(shadow, obs):
    """Inverse-channel values walking each term's support()."""
    sign3 = 3.0 * (1.0 - 2.0 * shadow.outcomes)
    totals = np.zeros(len(shadow), dtype=complex)
    for coeff, string in obs.terms:
        v = np.ones(len(shadow))
        for j in string.support():
            v = v * (sign3[:, j] * (shadow.codes[:, j]
                                    == BASIS_CODE[string.letters[j]]))
        totals += (coeff * string.phase) * v
    return totals


def test_budget_q6_prescribed_estimates_match_the_reference(budget_q6):
    _, cases = budget_q6
    for spec, _, proj, expanded, shadow, _ in cases:
        for obs in (expanded, proj.to_pauli_sum()):
            assert estimate(shadow, obs) \
                == reference_estimate_prescribed(shadow, obs), spec


def test_prescribed_estimate_in_term_chunks_matches_the_reference(budget_q6):
    _, cases = budget_q6
    _, _, _, expanded, shadow, _ = cases[2]
    want = reference_estimate_prescribed(shadow, expanded)
    rows, counts = _distinct_snapshots(shadow)
    whole = _term_counts(rows, counts, expanded.codes)
    for chunk in (1, 997):
        signed, hits = _term_counts(rows, counts, expanded.codes, chunk)
        assert np.array_equal(signed, whole[0])
        assert np.array_equal(hits, whole[1])
        assert _sum_in_order(expanded.coeffs.real * (signed / hits)) == want


def sums_and_shadows(q):
    term = st.tuples(st.floats(-3, 3), st.floats(-3, 3),
                     st.lists(st.integers(0, 3), min_size=q, max_size=q))
    rows = st.lists(st.tuples(
        st.lists(st.integers(0, 2), min_size=q, max_size=q),
        st.lists(st.integers(0, 1), min_size=q, max_size=q)),
        min_size=1, max_size=40)
    return st.tuples(st.just(q), st.lists(term, max_size=8), rows)


def build_case(case, prescribed):
    q, terms, rows = case
    obs = WeightedPauliSum.from_arrays(
        q, np.array([t[2] for t in terms], dtype=np.int8).reshape(-1, q),
        [complex(re, im) for re, im, _ in terms])
    shadow = ClassicalShadow.from_arrays([r[0] for r in rows],
                                         [r[1] for r in rows], 0, prescribed)
    return obs, shadow


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(sums_and_shadows))
def test_prescribed_estimate_matches_the_reference(case):
    obs, shadow = build_case(case, prescribed=True)
    try:
        want = reference_estimate_prescribed(shadow, obs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            estimate(shadow, obs)
    else:
        assert estimate(shadow, obs) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(sums_and_shadows))
def test_per_snapshot_values_match_the_reference(case):
    """The random estimate equals the per-snapshot signed-count reference
    exactly, and the mean of the per-snapshot inverse-channel values to
    1e-12 times sum_a |gamma_a| 3^weight_a, the largest value a snapshot
    can take: the two add at most 8 terms over at most 40 snapshots in
    different orders."""
    obs, shadow = build_case(case, prescribed=False)
    got = estimate(shadow, obs)
    assert got == reference_random_estimate(shadow, obs)
    scale = np.sum(np.abs(obs.coeffs) * 3.0 ** (obs.codes > 0).sum(axis=1))
    want = reference_per_snapshot_values(shadow, obs).mean().real
    assert abs(got - want) <= 1e-12 * scale
