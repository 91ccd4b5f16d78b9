import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowproj import rng as _rng
from conftest import (expected_random_cost, plan_cost, random_plan,
                      sample_bitstrings)
from shadowproj.measurement import (MeasurementPlan, ObservableGroup,
                                    _group_distributions, _observable_codes,
                                    allocate_shots, counts_expectation_exact,
                                    derandomize_plan, direct_counts_estimate,
                                    group_qwc_greedy, group_qwc_rlf,
                                    load_plan, plan_hit_counts, save_plan,
                                    singleton_groups)
from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.paulis import PauliString, WeightedPauliSum, qwc_commutes
from shadowproj.shadows import BASIS_CODE
from shadowproj.statevector import (Statevector, exact_expectation,
                                    prepare_basis_state, rotate_to_bases)


def pairing_observables(q=4):
    ham = build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))
    return ham, [s for _, s in ham.terms], [abs(c) for c, _ in ham.terms]


def random_obs(q, seed, nterms):
    gen = np.random.default_rng(seed)
    return WeightedPauliSum(q, tuple(
        (float(gen.normal()), PauliString(tuple(gen.choice(list("IXYZ"), q))))
        for _ in range(nterms)))


# --- derandomization --------------------------------------------------------

def test_derandomize_all_z_observable():
    zz = PauliString.from_label("ZZZZ")
    plan = derandomize_plan([zz], None, 7)
    assert all(row == ("Z",) * 4 for row in plan.bases_sequence)


def test_derandomize_disjoint_supports_covered_together():
    x0 = PauliString.from_label("IX")
    z1 = PauliString.from_label("ZI")
    plan = derandomize_plan([x0, z1], None, 6)
    assert all(row == ("X", "Z") for row in plan.bases_sequence)
    assert plan_hit_counts(plan, [x0, z1]).min() == 6


def test_plan_hit_counts_rejects_a_qubit_count_mismatch():
    with pytest.raises(ValueError, match="num_qubits"):
        plan_hit_counts(random_plan(6, 5, seed=1),
                        [PauliString.from_label("ZZ")])


@pytest.mark.parametrize("count", [
    plan_hit_counts, lambda plan, strings: plan_cost(plan, strings),
    lambda plan, strings: plan_cost(plan, strings, [])],
    ids=["plan_hit_counts", "plan_cost", "plan_cost_weighted"])
def test_plan_counts_reject_an_empty_target_list(count):
    # an empty list once raised "plan and observables differ in num_qubits"
    with pytest.raises(ValueError, match="no target observables"):
        count(random_plan(2, 4, seed=1), [])


def reference_plan_hit_counts(plan, obs_list):
    """The per-round loop plan_hit_counts ran before the shared count
    kernel: chunks of rounds against every target's support."""
    codes = _observable_codes(obs_list)
    rows = np.array([[BASIS_CODE[b] for b in row]
                     for row in plan.bases_sequence], dtype=np.int8)
    counts = np.zeros(len(obs_list), dtype=int)
    chunk = max(1, 2 ** 20 // len(obs_list))
    for start in range(0, len(rows), chunk):
        block = rows[start:start + chunk]
        covered = np.ones((len(block), len(obs_list)), dtype=bool)
        for j in range(codes.shape[1]):
            covered &= (codes[:, j] < 0) | (block[:, j, None] == codes[:, j])
        counts += covered.sum(axis=0)
    return counts


@pytest.mark.parametrize("q", range(1, 7))
def test_plan_hit_counts_match_the_per_round_loop(q):
    """Random, derandomized and few-row plans, whose rounds repeat, against
    targets with repeats and the all-I string."""
    gen = np.random.default_rng(q)
    strings = [PauliString(tuple(gen.choice(list("IXYZ"), q)))
               for _ in range(30)]
    strings += strings[:3] + [PauliString.identity(q)]
    few = random_plan(q, 5, seed=q).bases_sequence
    plans = [random_plan(q, 400, seed=q),
             derandomize_plan(strings, None, 60),
             MeasurementPlan(tuple(few[i] for i in gen.integers(0, 5, 200)))]
    for plan in plans:
        got = plan_hit_counts(plan, strings)
        want = reference_plan_hit_counts(plan, strings)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_derandomize_pairing_set_coverage_and_cost():
    """Every observable is hit and the plan beats random plans on cost."""
    ham, strings, weights = pairing_observables()
    plan = derandomize_plan(strings, weights, 1000)
    hits = plan_hit_counts(plan, strings)
    assert hits.min() >= 1
    cost = plan_cost(plan, strings, weights)
    mc = [plan_cost(random_plan(4, 1000, seed), strings, weights)
          for seed in range(100)]
    assert cost <= np.mean(mc)


def test_derandomize_greedy_guarantee():
    """Log conditional cost never increases and ends below the random
    ensemble's expected cost."""
    _, strings, weights = pairing_observables()
    plan, trace = derandomize_plan(strings, weights, 60, return_cost=True)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert trace[-1] <= math.log(
        expected_random_cost(strings, 60, weights)) + 1e-9
    assert math.log(plan_cost(plan, strings, weights)) <= trace[-1] + 1e-9


def test_derandomize_validation():
    with pytest.raises(ValueError):
        derandomize_plan([PauliString.identity(2)], None, 0)
    with pytest.raises(ValueError):
        derandomize_plan([PauliString.identity(2)], [-1.0], 5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            derandomize_plan([PauliString.identity(2)], [bad], 5)
    with pytest.raises(ValueError, match="no target observables"):
        derandomize_plan([], None, 5)


@pytest.mark.parametrize("func", [
    lambda strings, eps: derandomize_plan(strings, None, 5, epsilon=eps),
    lambda strings, eps: plan_cost(random_plan(2, 4, seed=1), strings,
                                   epsilon=eps),
    lambda strings, eps: expected_random_cost(strings, 4, epsilon=eps)],
    ids=["derandomize_plan", "plan_cost", "expected_random_cost"])
@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -0.3])
def test_epsilon_must_be_finite_and_positive(func, epsilon):
    # NaN ended derandomization in a bare StopIteration, at 0 every letter
    # tied into an all-Z plan, and the cost functions returned NaN
    strings = [PauliString.from_label("XI"), PauliString.from_label("ZZ")]
    with pytest.raises(ValueError, match="epsilon must be finite"):
        func(strings, epsilon)


def test_derandomize_large_epsilon_with_an_identity_target():
    # nu rounds to 1, so the identity target's round factor is 0; its
    # infinite tail exponent once made the last round NaN
    plan = derandomize_plan([PauliString.identity(2),
                             PauliString.from_label("IX")], None, 3,
                            epsilon=10.0)
    assert plan.bases_sequence == (("X", "Z"),) * 3


@pytest.mark.parametrize("cost", [
    lambda strings, w: plan_cost(random_plan(2, 4, seed=1), strings, w),
    lambda strings, w: expected_random_cost(strings, 4, w),
    lambda strings, w: derandomize_plan(strings, w, 4)],
    ids=["plan_cost", "expected_random_cost", "derandomize_plan"])
@pytest.mark.parametrize("weights", [[2.0], [1.0, math.nan], [1.0, -1.0],
                                     [1.0, 1.0, 1.0]])
def test_cost_functions_check_weights(cost, weights):
    # a single weight used to be broadcast, and a NaN to give a NaN cost
    strings = [PauliString.from_label("XI"), PauliString.from_label("ZZ")]
    with pytest.raises(ValueError, match="one finite, non-negative weight"):
        cost(strings, weights)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(lambda q: st.lists(
    st.lists(st.sampled_from("XYZ"), min_size=q, max_size=q),
    min_size=1, max_size=50)))
def test_plan_file_roundtrip(tmp_path_factory, rows):
    plan = MeasurementPlan(tuple(map(tuple, rows)))
    path = tmp_path_factory.mktemp("plan") / "plan.txt"
    save_plan(plan, path)
    again = load_plan(path)
    assert again.bases_sequence == plan.bases_sequence


# --- grouping ---------------------------------------------------------------

def test_group_qwc_rlf_simple_cases():
    mutually = WeightedPauliSum(2, (
        (1.0, PauliString.from_label("IZ")),
        (1.0, PauliString.from_label("ZI")),
        (1.0, PauliString.from_label("ZZ")),
    ))
    groups = group_qwc_rlf(mutually)
    assert len(groups) == 1
    assert groups[0].shared_basis == ("Z", "Z")

    clashing = WeightedPauliSum(2, (
        (1.0, PauliString.from_label("IX")),
        (1.0, PauliString.from_label("IZ")),
    ))
    assert len(group_qwc_rlf(clashing)) == 2


def test_group_qwc_rlf_partition_validity():
    obs = random_obs(4, 3, 20)
    groups = group_qwc_rlf(obs)
    seen = sorted(i for g in groups for i in g.members)
    assert seen == list(range(len(obs.terms)))
    for g in groups:
        for a in g.members:
            for b in g.members:
                assert qwc_commutes(obs.terms[a][1], obs.terms[b][1])
            string = obs.terms[a][1]
            for j in string.support():
                assert g.shared_basis[j] == string.letters[j]


def test_rlf_not_worse_than_greedy_on_random_sets():
    gen = _rng.stream(12345)
    for _ in range(50):
        q = int(gen.integers(2, 5))
        nterms = int(gen.integers(5, 25))
        obs = WeightedPauliSum(q, tuple(
            (1.0 + 0j, PauliString(tuple("IXYZ"[c]
                                         for c in gen.integers(0, 4, q))))
            for _ in range(nterms)))
        assert len(group_qwc_rlf(obs)) <= len(group_qwc_greedy(obs))


def test_rlf_on_pairing_terms():
    ham, _, _ = pairing_observables()
    rlf = group_qwc_rlf(ham)
    greedy = group_qwc_greedy(ham)
    assert len(rlf) <= len(greedy)
    assert len(rlf) < len(ham.terms)


# --- direct counts ----------------------------------------------------------

def test_singleton_groups_are_each_term_with_z_where_it_acts_as_i():
    ham = build_pairing_hamiltonian(PairingSpec(8, 1.0, 1.0))
    obs = WeightedPauliSum.from_arrays(
        8, np.concatenate([ham.codes, random_obs(8, 3, 40).codes]),
        np.ones(len(ham) + 40))
    groups = singleton_groups(obs)
    assert [g.members for g in groups] == [(a,) for a in range(len(obs))]
    for group, (_, string) in zip(groups, obs.terms, strict=True):
        assert group.shared_basis == tuple(
            "Z" if letter == "I" else letter for letter in string.letters)


def test_counts_on_z_eigenstate():
    state = prepare_basis_state(1)
    obs = WeightedPauliSum(1, ((1.0, PauliString(("Z",))),))
    groups = singleton_groups(obs)
    assert direct_counts_estimate(state, groups, obs, 10, seed=0) == 1.0


def test_counts_on_bell_state():
    bell = Statevector(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
    obs = WeightedPauliSum(2, ((1.0, PauliString(("X", "X"))),))
    groups = singleton_groups(obs)
    val = direct_counts_estimate(bell, groups, obs, 10_000, seed=1)
    assert val == pytest.approx(1.0, abs=0.02)


def test_counts_requires_cover():
    obs = random_obs(2, 1, 3)
    groups = singleton_groups(obs)[:-1]
    with pytest.raises(ValueError):
        direct_counts_estimate(prepare_basis_state(2), groups, obs, 5, seed=0)


def test_counts_enumeration_unbiased():
    for q in (1, 2, 3):
        gen = np.random.default_rng(40 + q)
        v = gen.normal(size=2 ** q) + 1j * gen.normal(size=2 ** q)
        state = Statevector(v / np.linalg.norm(v))
        obs = random_obs(q, 50 + q, 5)
        for grouping in (singleton_groups, group_qwc_rlf):
            val = counts_expectation_exact(state, grouping(obs), obs)
            assert val == pytest.approx(exact_expectation(state, obs),
                                        abs=1e-10)


def test_weighted_allocation_preserves_total():
    obs = random_obs(3, 9, 6)
    groups = group_qwc_rlf(obs)
    alloc = allocate_shots(groups, obs, 50, weighted=True)
    assert sum(alloc) == 50 * len(groups)
    assert min(alloc) >= 1
    assert allocate_shots(groups, obs, 50) == [50] * len(groups)


@pytest.mark.parametrize("func", [
    lambda n: derandomize_plan([PauliString.from_label("XI")], None, n),
    lambda n: expected_random_cost([PauliString.from_label("XI")], n),
    lambda n: random_plan(2, n, 0),
    lambda n: allocate_shots(*_two_groups(), n, weighted=True)],
    ids=["derandomize_plan", "expected_random_cost", "random_plan",
         "allocate_shots"])
@pytest.mark.parametrize("shots", [0, -3, 2.5, True, "4", None])
def test_shot_counts_must_be_positive_integers(func, shots):
    # 2.5 once ended in a raw TypeError, True gave a 1-round plan, -3 a
    # random cost above the weight sum, -1 a numpy shape error and 0 two
    # shots from a budget of none
    with pytest.raises(ValueError, match="must be an integer >= 1"):
        func(shots)


def test_plan_of_zero_qubit_rounds_is_rejected():
    with pytest.raises(ValueError, match="num_qubits must be an integer >= 1"):
        MeasurementPlan(((), ()))


@pytest.mark.parametrize("q", [0, -1, 2.5, True, "4"])
def test_random_plan_qubit_count_must_be_a_positive_integer(q):
    # 0 once gave rounds with no letters, -1 a numpy shape error and 2.5 a
    # raw TypeError
    with pytest.raises(ValueError, match="num_qubits must be an integer >= 1"):
        random_plan(q, 3, 0)


def _two_groups():
    obs = WeightedPauliSum(2, (
        (1.0, PauliString.from_label("XI")),
        (2.0, PauliString.from_label("IZ"))))
    return singleton_groups(obs), obs


def test_shot_counts_accept_numpy_integers():
    assert len(random_plan(2, np.int64(3), 0)) == 3
    assert len(derandomize_plan([PauliString.from_label("XI")], None,
                                np.int32(2))) == 2


def test_counts_deterministic_in_seed():
    state = prepare_basis_state(3, 0b101)
    obs = random_obs(3, 2, 4)
    groups = group_qwc_rlf(obs)
    a = direct_counts_estimate(state, groups, obs, 100, seed=5)
    b = direct_counts_estimate(state, groups, obs, 100, seed=5)
    assert a == b


def test_measurement_plan_validation():
    with pytest.raises(ValueError):
        MeasurementPlan(())
    with pytest.raises(ValueError):
        MeasurementPlan((("X",), ("X", "Z")))
    with pytest.raises(ValueError, match="'Q'"):
        MeasurementPlan((("Z", "Q"),))


@pytest.mark.parametrize("text,message", [
    ("ZZ\nZQ\n", "line 2: basis 'Q' is not X, Y or Z"),
    ("XY\n\nXYZ\n", "line 3: 3 bases, expected 2"),
])
def test_load_plan_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "plan.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_plan(path)


def test_load_plan_names_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "plan.txt"
    path.write_bytes(b"ZZ\nXY\nZ\xe9\n")
    with pytest.raises(ValueError, match="line 3: byte 0xe9 is not UTF-8"):
        load_plan(path)


# --- direct counts against the per-member reference ------------------------

def reference_allocate(groups, obs, shots_per_group, weighted):
    """allocate_shots summing abs() over the terms view."""
    n = len(groups)
    if not weighted:
        return [shots_per_group] * n
    total = n * shots_per_group
    weight = np.array([sum(abs(obs.terms[i][0]) for i in g.members)
                       for g in groups])
    if weight.sum() == 0:
        return [shots_per_group] * n
    raw = weight / weight.sum() * (total - n)
    alloc = np.ones(n, dtype=int) + raw.astype(int)
    remainder = raw - raw.astype(int)
    for i in np.argsort(-remainder)[: total - int(alloc.sum())]:
        alloc[i] += 1
    return alloc.tolist()


def reference_direct_counts(state, groups, obs, shots_per_group, seed,
                            weighted_allocation=False):
    """One sample_bitstrings per group and one product per member."""
    alloc = reference_allocate(groups, obs, shots_per_group,
                               weighted_allocation)
    total = 0j
    for gi, group in enumerate(groups):
        gen = _rng.stream(seed, 0xc0de, gi)
        bits = sample_bitstrings(state, group.shared_basis, alloc[gi], gen)
        sign = 1.0 - 2.0 * bits
        for i in group.members:
            coeff, string = obs.terms[i]
            vals = np.ones(alloc[gi])
            for j in string.support():
                vals = vals * sign[:, j]
            total += coeff * string.phase * vals.mean()
    return float(total.real)


def reference_counts_exact(state, groups, obs):
    q = state.num_qubits
    k = np.arange(2 ** q)
    bit_signs = 1.0 - 2.0 * ((k[:, None] >> np.arange(q)) & 1)
    total = 0j
    for group in groups:
        probs = rotate_to_bases(state, group.shared_basis).probabilities()
        for i in group.members:
            coeff, string = obs.terms[i]
            vals = np.ones(2 ** q)
            for j in string.support():
                vals = vals * bit_signs[:, j]
            total += coeff * string.phase * float(probs @ vals)
    return float(total.real)


def test_budget_q6_counts_match_the_reference(budget_q6):
    state, cases = budget_q6
    for n, (spec, _, _, expanded, _, groups) in enumerate(cases):
        per_group = max(1, 2000 // len(groups))
        got = direct_counts_estimate(state, groups, expanded, per_group,
                                     900 + n, weighted_allocation=True)
        assert got == reference_direct_counts(
            state, groups, expanded, per_group, 900 + n,
            weighted_allocation=True), spec
        assert allocate_shots(groups, expanded, per_group, weighted=True) \
            == reference_allocate(groups, expanded, per_group, True)
        assert counts_expectation_exact(state, groups, expanded) \
            == pytest.approx(reference_counts_exact(state, groups, expanded),
                             abs=1e-12)


def test_group_distributions_equal_rotated_probabilities(budget_q6):
    state, cases = budget_q6
    expanded = cases[4][3]
    for groups in (cases[4][5], singleton_groups(expanded)):
        probs, which = _group_distributions(state, groups, expanded)
        # one row per distinct basis: singletons share many
        assert len(probs) == len({g.shared_basis for g in groups})
        for row, group in zip(probs[which], groups, strict=True):
            want = rotate_to_bases(state, group.shared_basis).probabilities()
            assert np.array_equal(row, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32), st.integers(1, 9),
       st.integers(1, 40), st.sampled_from(["rlf", "greedy", "single"]),
       st.booleans())
def test_counts_match_the_reference(q, seed, n_terms, shots, grouping,
                                    weighted):
    gen = np.random.default_rng(seed)
    v = gen.normal(size=2 ** q) + 1j * gen.normal(size=2 ** q)
    state = Statevector(v / np.linalg.norm(v))
    obs = random_obs(q, seed, n_terms)
    groups = {"rlf": group_qwc_rlf, "greedy": group_qwc_greedy,
              "single": singleton_groups}[grouping](obs)
    assert direct_counts_estimate(state, groups, obs, shots, seed,
                                  weighted) \
        == reference_direct_counts(state, groups, obs, shots, seed, weighted)
    assert counts_expectation_exact(state, groups, obs) == pytest.approx(
        reference_counts_exact(state, groups, obs), abs=1e-12)


def test_counts_reject_a_qubit_count_mismatch():
    obs = random_obs(3, 1, 4)
    groups = group_qwc_rlf(obs)
    state = prepare_basis_state(2)
    with pytest.raises(ValueError, match="state has 2 qubits but the "
                                         "observable 3"):
        direct_counts_estimate(state, groups, obs, 10, 0)
    with pytest.raises(ValueError, match="state has 2 qubits"):
        counts_expectation_exact(state, groups, obs)


def test_counts_of_the_empty_sum_are_zero():
    empty = WeightedPauliSum(2)
    state = prepare_basis_state(2)
    assert direct_counts_estimate(state, [], empty, 5, 0) == 0.0
    assert counts_expectation_exact(state, [], empty) == 0.0


def test_counts_reject_a_group_whose_basis_does_not_measure_a_member():
    # |00> has <ZZ> = 1, but the XX group once gave 0.088 from 1000 shots
    # and an exact limit of 0.0
    state = prepare_basis_state(2)
    zz = WeightedPauliSum(2, ((1.0, PauliString.from_label("ZZ")),))
    groups = [ObservableGroup((0,), ("X", "X"))]
    message = "group 0 measures XX, which does not measure its member 0, ZZ"
    with pytest.raises(ValueError, match=message):
        direct_counts_estimate(state, groups, zz, 1000, 1)
    with pytest.raises(ValueError, match=message):
        counts_expectation_exact(state, groups, zz)
    # a later group and member, and a mismatch on qubit 0 only
    obs = WeightedPauliSum(3, tuple((1.0, PauliString.from_label(label))
                                    for label in ("ZII", "IXX", "IXY")))
    groups = [ObservableGroup((0,), ("Y", "Y", "Z")),
              ObservableGroup((1, 2), ("X", "X", "Y"))]
    with pytest.raises(ValueError, match="group 1 measures YXX, which does "
                                         "not measure its member 2, IXY"):
        counts_expectation_exact(prepare_basis_state(3), groups, obs)
    # where a member acts as I, any basis letter measures it
    groups = [ObservableGroup((0,), ("Y", "Y", "Z")),
              ObservableGroup((1,), ("X", "X", "Z")),
              ObservableGroup((2,), ("Y", "X", "X"))]
    assert counts_expectation_exact(prepare_basis_state(3), groups, obs) \
        == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("basis", [("Z", "Q"), ("Z",), ("Z", "Z", "Z"),
                                   ("Z", "z"), ("Z", None)])
def test_counts_reject_a_shared_basis_that_is_not_q_letters(basis):
    # "Q" once ended in a raw KeyError
    obs = WeightedPauliSum(2, ((1.0, PauliString.from_label("IZ")),))
    groups = [ObservableGroup((0,), basis)]
    with pytest.raises(ValueError, match="group 0: expected 2 basis letters "
                                         "X, Y or Z"):
        direct_counts_estimate(prepare_basis_state(2), groups, obs, 10, 0)
    with pytest.raises(ValueError, match="group 0: expected 2 basis"):
        counts_expectation_exact(prepare_basis_state(2), groups, obs)
