"""Born sampling in acquire_shadow against the per-basis-row reference.

The reference rotates the state once per distinct basis row with
``rotate_to_bases`` and searches that row's CDF; the shadow acquired through
the descent over the (basis, outcome) prefix tree must match it byte for
byte.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowproj import rng as _rng
from shadowproj import shadows
from shadowproj.experiments import (prepare_fig4_state,
                                    prepare_spin_rotated_gaussian)
from shadowproj.measurement import derandomize_plan
from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.projectors import (expand_projected_observable,
                                   projector_from_spec)
from shadowproj.shadows import (BASIS_CODE, BASIS_LETTERS, ClassicalShadow,
                                acquire_shadow, iter_snapshot_distribution)
from shadowproj.statevector import (Statevector, prepare_basis_state,
                                    prepare_gaussian, prepare_parity_mixture,
                                    rotate_to_bases)


def reference_acquire_shadow(state, shots, seed, bases=None):
    """One rotate_to_bases and one searchsorted per distinct basis row."""
    q = state.num_qubits
    block = _rng.uniform_block(seed, (shadows._ACQUIRE_TAG,), shots, q + 1)
    if bases is None:
        codes = np.minimum((block[:, :q] * 3).astype(np.int8), 2)
    else:
        codes = np.array([[BASIS_CODE[b] for b in row] for row in bases],
                         dtype=np.int8)
    uniforms = block[:, q]
    outcomes = np.empty((shots, q), dtype=np.int8)
    unique_rows, inverse = np.unique(codes, axis=0, return_inverse=True)
    for gi, row in enumerate(unique_rows):
        members = np.nonzero(inverse.reshape(-1) == gi)[0]
        letters = [BASIS_LETTERS[c] for c in row]
        cdf = np.cumsum(rotate_to_bases(state, letters).probabilities())
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, uniforms[members], side="right")
        idx = np.minimum(idx, cdf.size - 1)
        outcomes[members] = (idx[:, None] >> np.arange(q)) & 1
    return ClassicalShadow.from_arrays(codes, outcomes, seed,
                                       bases is not None)


def random_state(q, seed):
    gen = np.random.default_rng(seed)
    v = gen.normal(size=2 ** q) + 1j * gen.normal(size=2 ** q)
    return Statevector(v / np.linalg.norm(v))


def assert_same_shadow(got, want):
    assert got.codes.tobytes() == want.codes.tobytes()
    assert got.outcomes.tobytes() == want.outcomes.tobytes()
    assert got.prescribed == want.prescribed
    assert got.seed == want.seed


STATES = {
    "gaussian": lambda q: prepare_gaussian(q),
    "spin": prepare_spin_rotated_gaussian,
    "fig4": prepare_fig4_state,
    "random": lambda q: random_state(q, 100 + q),
    # exact zeros in the Z basis leave flat runs in the CDF
    "basis": lambda q: prepare_basis_state(q, (1 << q) // 3),
}


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("q", range(1, 9))
def test_random_shadow_matches_reference(kind, q):
    state = STATES[kind](q)
    shots = 3000 if q < 7 else 800
    for seed in (0, 11):
        assert_same_shadow(acquire_shadow(state, shots, seed),
                           reference_acquire_shadow(state, shots, seed))


def test_prescribed_shadow_on_a_derandomized_q6_plan_matches_reference():
    q = 6
    ham = build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))
    proj = projector_from_spec(q, {"type": "number", "n0": 3})
    expanded = expand_projected_observable(ham, proj)
    plan = derandomize_plan([s for _, s in expanded.terms],
                            [abs(c) for c, _ in expanded.terms], 400,
                            epsilon=0.3)
    state = prepare_fig4_state(q)
    for seed in (1, 2):
        got = acquire_shadow(state, len(plan), seed,
                             bases=plan.bases_sequence)
        assert got.prescribed
        assert_same_shadow(got, reference_acquire_shadow(
            state, len(plan), seed, bases=plan.bases_sequence))


def test_q10_shadow_matches_reference():
    state = random_state(10, 7)
    assert_same_shadow(acquire_shadow(state, 120, 5),
                       reference_acquire_shadow(state, 120, 5))


def assert_reference_distributions(state):
    """Every row of _born_probabilities over all 3^q bases equals
    rotate_to_bases's probabilities float for float."""
    combos = itertools.product(BASIS_LETTERS, repeat=state.num_qubits)
    probs = shadows._born_probabilities(state,
                                        np.arange(3 ** state.num_qubits))
    for row, combo in zip(probs, combos, strict=True):
        want = rotate_to_bases(state, combo).probabilities()
        assert row.tobytes() == want.tobytes()


def test_keys_crossing_the_chunk_budget_match_reference(monkeypatch):
    # the module budget alone splits the 729 q=6 bases into several chunks
    assert 3 ** 6 > 2 * (shadows._AMPLITUDE_BUDGET >> 6)
    state = random_state(6, 3)
    assert_reference_distributions(state)
    assert_same_shadow(acquire_shadow(state, 6000, 4),
                       reference_acquire_shadow(state, 6000, 4))
    # two keys per chunk
    monkeypatch.setattr(shadows, "_AMPLITUDE_BUDGET", 16)
    state = random_state(3, 3)
    assert_reference_distributions(state)
    assert_same_shadow(acquire_shadow(state, 500, 4),
                       reference_acquire_shadow(state, 500, 4))


def assert_keys_match_reference(state, keys):
    """Row i of _born_probabilities is rotate_to_bases's probabilities in
    the basis of keys[i], float for float."""
    q = state.num_qubits
    probs = shadows._born_probabilities(state, keys)
    assert probs.shape == (len(keys), 1 << q)
    for row, key in zip(probs, keys.tolist()):
        combo = [BASIS_LETTERS[key // 3 ** (q - 1 - j) % 3] for j in range(q)]
        want = rotate_to_bases(state, combo).probabilities()
        assert row.tobytes() == want.tobytes()


def test_unsorted_and_repeated_keys_match_reference():
    keys = np.array([17, 3, 17, 0, 80, 3, 41, 0, 17])
    assert_keys_match_reference(random_state(4, 11), keys)


def test_q10_keys_crossing_the_chunk_budget_match_reference():
    # 8 keys per chunk at q=10; 30 unsorted keys with repeats span 4 chunks
    assert shadows._AMPLITUDE_BUDGET >> 10 == 8
    keys = np.random.default_rng(5).integers(0, 3 ** 10, size=30)
    keys[[7, 8, 20]] = keys[0]
    assert_keys_match_reference(random_state(10, 12), keys)


@pytest.mark.parametrize("q, budget, chunk", [(5, 64, 2), (8, 1 << 10, 8)])
def test_descending_in_small_chunks_gives_the_same_bytes(monkeypatch, q,
                                                         budget, chunk):
    state = random_state(q, 21)
    whole = acquire_shadow(state, 400, 6)
    assert_same_shadow(whole, reference_acquire_shadow(state, 400, 6))
    calls = []
    descend = shadows._descend
    monkeypatch.setattr(shadows, "_DESCENT_BUDGET", budget)
    monkeypatch.setattr(shadows, "_descend",
                        lambda *args: calls.append(len(args[1]))
                        or descend(*args))
    assert_same_shadow(acquire_shadow(state, 400, 6), whole)
    assert calls == [chunk] * (400 // chunk)


@pytest.mark.parametrize("prescribed", [False, True])
def test_many_seeds_match_one_acquisition_per_seed(monkeypatch, prescribed):
    # 7 seeds of 300 shots, at most 1000 shots a batch at q = 6: batches of
    # 3, 3 and 1 seed, each drawn only when its first shadow is asked for
    state, shots = random_state(6, 31), 300
    bases = [[BASIS_LETTERS[(n * j + n) % 3] for j in range(6)]
             for n in range(shots)] if prescribed else None
    seeds = [4, 0, 17, 9, 2 ** 40, 3, 11]
    singles = [acquire_shadow(state, shots, seed, bases) for seed in seeds]
    calls = []
    descend = shadows._descend
    monkeypatch.setattr(shadows, "_BATCH_SHOTS", 1000 << 2)
    monkeypatch.setattr(shadows, "_descend",
                        lambda *args: calls.append(len(args[1]))
                        or descend(*args))
    codes = (None if bases is None
             else shadows._prescribed_codes(bases, shots, 6))
    batched = shadows._acquire_shadows(state, shots, seeds, codes)
    first = next(batched)
    assert calls == [900]
    for single, shadow in zip(singles, [first, *batched], strict=True):
        assert_same_shadow(shadow, single)
    assert calls == [900, 900, 300]


def test_seeds_past_the_batch_bound_descend_one_at_a_time(monkeypatch):
    state = random_state(5, 8)
    singles = [acquire_shadow(state, 700, seed) for seed in (1, 2)]
    calls = []
    descend = shadows._descend
    monkeypatch.setattr(shadows, "_BATCH_SHOTS", 500 << 3)
    monkeypatch.setattr(shadows, "_descend",
                        lambda *args: calls.append(len(args[1]))
                        or descend(*args))
    for single, shadow in zip(singles, shadows._acquire_shadows(
            state, 700, [1, 2]), strict=True):
        assert_same_shadow(shadow, single)
    assert calls == [700, 700]


def even_parity_state(q):
    """A parity mixture with its odd-parity amplitudes set to exact zeros."""
    amps = prepare_parity_mixture(q, 0.5, seed=q).amplitudes.copy()
    amps[np.bitwise_count(np.arange(1 << q)) % 2 == 1] = 0.0
    return Statevector(amps / np.linalg.norm(amps))


@pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0), 1.0])
def test_the_descent_never_lands_on_an_outcome_of_probability_zero(u):
    # u = 0 meets zero-mass bit-0 children, u = 1 zero-mass bit-1 children
    for state, allowed in ((prepare_basis_state(5, 0b10110), [0b10110]),
                           (even_parity_state(5), [
                               k for k in range(32) if k.bit_count() % 2 == 0
                           ])):
        outcomes = np.empty((1, 5), dtype=np.int8)
        shadows._descend(state, np.full((1, 5), 2, dtype=np.int8),
                         np.array([u]), outcomes)
        assert int(outcomes[0] @ (1 << np.arange(5))) in allowed


class BoundaryShot(UserWarning):
    """A shot whose outcome differs from the reference's, with its uniform
    within rounding of the reference CDF boundary between the two."""


SWEEP_STATES = {**STATES, "parity": even_parity_state}
# q, seeds, shots per seed
SWEEP_SIZES = [*((q, 200, 100) for q in range(1, 7)), (7, 6, 200),
               (8, 4, 200), (9, 2, 200), (10, 2, 200)]


@pytest.mark.parametrize("kind", sorted(SWEEP_STATES))
@pytest.mark.parametrize("q, seeds, shots", SWEEP_SIZES)
def test_descent_matches_the_reference_over_a_seed_sweep(kind, q, seeds,
                                                         shots):
    """Outcomes equal the reference's clamped CDF search, except a shot
    whose uniform lies within 2^q * 1e-15 of the boundary between the two
    outcomes, which is reported as a BoundaryShot warning."""
    state = SWEEP_STATES[kind](q)
    cdfs = {}  # basis key -> the reference's CDF
    for seed in range(seeds):
        got = acquire_shadow(state, shots, seed)
        block = _rng.uniform_block(seed, (shadows._ACQUIRE_TAG,), shots,
                                   q + 1)
        assert got.codes.tobytes() == np.minimum(
            (block[:, :q] * 3).astype(np.int8), 2).tobytes()
        keys = shadows._digit_keys(got.codes, 3)
        for key, row in zip(keys.tolist(), got.codes):
            if key not in cdfs:
                cdf = np.cumsum(rotate_to_bases(
                    state, [BASIS_LETTERS[c] for c in row]).probabilities())
                cdf[-1] = 1.0
                cdfs[key] = cdf
        cdf = np.stack([cdfs[key] for key in keys.tolist()])
        u = block[:, q]
        # searchsorted(side="right") as a count; u < 1 = cdf[-1]
        want = np.minimum((cdf <= u[:, None]).sum(axis=1), (1 << q) - 1)
        index = got.outcomes.astype(np.int64) @ (1 << np.arange(q))
        for n in np.flatnonzero(index != want):
            low, high = sorted((index[n], want[n]))
            gap = np.abs(cdf[n, low:high] - u[n]).min()
            assert gap <= 2 ** q * 1e-15, (seed, n, index[n], want[n], gap)
            warnings.warn(BoundaryShot(
                f"{kind} q={q} seed={seed} shot {n}: outcome {index[n]}, "
                f"reference {want[n]}, |u - cdf| = {gap:.2e}"))


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       shots=st.integers(1, 200))
def test_acquire_matches_reference_property(q, seed, shots):
    state = random_state(q, seed)
    assert_same_shadow(acquire_shadow(state, shots, seed),
                       reference_acquire_shadow(state, shots, seed))


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_snapshot_distribution_matches_per_basis_rotation(q):
    state = random_state(q, 9)
    want = []
    for combo in itertools.product(BASIS_LETTERS, repeat=q):
        probs = rotate_to_bases(state, combo).probabilities()
        for k in range(2 ** q):
            if probs[k] / 3 ** q != 0.0:
                want.append((combo, tuple((k >> j) & 1 for j in range(q)),
                             float(probs[k] / 3 ** q)))
    got = [(s.bases, s.outcome, p) for s, p in iter_snapshot_distribution(
        state)]
    assert got == want


@pytest.mark.parametrize("bases, round_", [
    ([["Q", "Z"], ["Z", "Z"]], 0),
    ([["Z", "Z"], ["Z"]], 1),
    ([["Z", "Z"], ["X", "Y", "Z"]], 1),
    ([["Z", "Z"], ["XY", "Z"]], 1),
    ([["X", "x"], ["Z", "Z"]], 0),
    (["ZZ", "Zé"], 1),
    ([("XY", ""), ("Z", "Z")], 0),
])
def test_prescribed_bases_are_validated(bases, round_):
    with pytest.raises(ValueError, match=f"prescribed round {round_}:"):
        acquire_shadow(prepare_gaussian(2), 2, 1, bases=bases)


def test_prescribed_bases_accept_strings_and_tuples():
    state = random_state(3, 1)
    rows = ["XYZ", ("Z", "Z", "X"), ["Y", "X", "X"]]
    got = acquire_shadow(state, 3, 8, bases=rows)
    assert got.codes.tolist() == [[0, 1, 2], [2, 2, 0], [1, 0, 0]]
    assert_same_shadow(got, reference_acquire_shadow(state, 3, 8,
                                                     bases=rows))


@pytest.mark.parametrize("bases, round_", [
    ([["Z", "Z", "Z"], [2, 2, 2]], 1),
    ([[0, "Z", "Z"], ["Z", "Z", "Z"]], 0),
    (["ZZZ", 5], 1),
    ([["Z", "Z"], ["X", ["Y"], "Z"]], 0),
    (["ZZZ", ["X", ["Y"], "Z"]], 1),
])
def test_rounds_holding_non_strings_are_named(bases, round_):
    with pytest.raises(ValueError, match=f"prescribed round {round_}:"):
        acquire_shadow(prepare_gaussian(3), 2, 1, bases=bases)


@pytest.mark.parametrize("shots", [0, -2, 2.5, True, "3"])
def test_shot_count_must_be_a_positive_integer(shots):
    # 2.5, True and "3" once ended in raw TypeErrors from the sampler
    with pytest.raises(ValueError, match="shots must be an integer >= 1"):
        acquire_shadow(prepare_basis_state(2, 0), shots, 0)
