"""Array planning kernels against the loops they replaced.

``reference_derandomize_plan`` is the per-candidate loop that scored every
letter with its own log-sum-exp, with the tie rule of ``measurement``:
the first letter, in the order Z, X, Y, whose cost is within a relative
``_TIE_RTOL`` of the cheapest. It also returns the log cost of every
committed letter. ``reference_rlf`` and ``reference_greedy``
are the set-based colorings over the pairwise ``qwc_commutes``
adjacency of ``reference_adjacency``.
The block-table plan and the boolean-mask colorings must reproduce them
exactly, and the plan's cost trace must match within a relative 1e-12.
"""

import hashlib
import math

import numpy as np
import pytest

from shadowproj.measurement import (_CANDIDATE_ORDER, _TIE_RTOL,
                                    _observable_codes, derandomize_plan,
                                    group_qwc_greedy, group_qwc_rlf,
                                    plan_hit_counts, save_plan)
from shadowproj.pairing import PairingSpec, build_pairing_hamiltonian
from shadowproj.paulis import PauliString, WeightedPauliSum, qwc_commutes
from shadowproj.projectors import (expand_projected_observable,
                                   projector_from_spec)
from shadowproj.shadows import BASIS_CODE, BASIS_LETTERS


def _logsumexp(values):
    peak = np.max(values)
    if peak == -np.inf:
        return -np.inf
    return float(peak + np.log(np.sum(np.exp(values - peak))))


def reference_derandomize_plan(obs_list, weights, shots, epsilon=0.3):
    codes = _observable_codes(obs_list)
    n_obs, q = codes.shape
    w = np.ones(n_obs) if weights is None else np.asarray(weights, float)
    decay = epsilon ** 2 / 2
    nu = 1.0 - math.exp(-decay)
    locality = (codes >= 0).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
        log_tail_base = np.log(1.0 - nu * 3.0 ** (-locality.astype(float)))
    hits = np.zeros(n_obs)
    plan = np.empty((shots, q), dtype=np.int8)
    trace = []
    for m in range(shots):
        alive = np.ones(n_obs, dtype=bool)
        open_support = locality.astype(float).copy()
        log_tail = (shots - m - 1) * log_tail_base
        for j in range(q):
            has_support = codes[:, j] >= 0
            costs = []
            for letter in _CANDIDATE_ORDER:
                match = has_support & (codes[:, j] == BASIS_CODE[letter])
                cand_alive = alive & ~(has_support & ~match)
                cand_open = open_support - (alive & match)
                log_round = np.where(
                    cand_alive, np.log(1.0 - nu * 3.0 ** (-cand_open)), 0.0)
                costs.append(_logsumexp(log_w - decay * hits + log_round
                                        + log_tail))
            limit = min(costs) + math.log1p(_TIE_RTOL)
            letter, cost = next((b, c) for b, c in zip(_CANDIDATE_ORDER, costs)
                                if c <= limit)
            trace.append(cost)
            match = has_support & (codes[:, j] == BASIS_CODE[letter])
            open_support = open_support - (alive & match)
            alive &= ~(has_support & ~match)
            plan[m, j] = BASIS_CODE[letter]
        hits += alive & (open_support == 0)
    return tuple(tuple(BASIS_LETTERS[c] for c in row) for row in plan), trace


def reference_adjacency(obs):
    strings = [s for _, s in obs.terms]
    adj = [set() for _ in strings]
    for i in range(len(strings)):
        for k in range(i + 1, len(strings)):
            if not qwc_commutes(strings[i], strings[k]):
                adj[i].add(k)
                adj[k].add(i)
    return adj


def reference_rlf(adj):
    uncolored = set(range(len(adj)))
    groups = []
    while uncolored:
        degree = {v: len(adj[v] & uncolored) for v in uncolored}
        first = min(v for v in uncolored
                    if degree[v] == max(degree.values()))
        group = {first}
        blocked = adj[first] & uncolored
        candidates = uncolored - blocked - {first}
        while candidates:
            score = {v: len(adj[v] & blocked) for v in candidates}
            pick = min(v for v in candidates
                       if score[v] == max(score.values()))
            group.add(pick)
            blocked |= adj[pick] & candidates
            candidates -= adj[pick]
            candidates.discard(pick)
        groups.append(tuple(sorted(group)))
        uncolored -= group
    return groups


def reference_greedy(adj):
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    classes = []
    for v in order:
        for cls in classes:
            if not (adj[v] & cls):
                cls.add(v)
                break
        else:
            classes.append({v})
    return [tuple(sorted(cls)) for cls in classes]


def projected_terms(q, spec):
    ham = build_pairing_hamiltonian(PairingSpec(q, 1.0, 1.0))
    return expand_projected_observable(ham, projector_from_spec(q, spec))


Q6_SETS = ([{"type": "parity", "epsilon": e} for e in (1, -1)]
           + [{"type": "number", "n0": n} for n in range(7)])


def targets(expanded):
    return ([s for _, s in expanded.terms],
            [abs(c) for c, _ in expanded.terms])


def random_sum(gen, q, n_terms):
    return WeightedPauliSum(q, tuple(
        (1.0, PauliString(tuple(gen.choice(list("IXYZ"), q))))
        for _ in range(n_terms)))


def assert_plan_matches_reference(strings, weights, shots, epsilon=0.3):
    plan, trace = derandomize_plan(strings, weights, shots, epsilon=epsilon,
                                   return_cost=True)
    rows, ref_trace = reference_derandomize_plan(strings, weights, shots,
                                                 epsilon)
    assert plan.bases_sequence == rows
    # log costs within 1e-12 are costs within a relative 1e-12
    np.testing.assert_allclose(trace, ref_trace, rtol=0, atol=1e-12)


@pytest.mark.parametrize("q,spec,shots", [
    (4, {"type": "parity", "epsilon": 1}, 300),
    *[(6, spec, 200) for spec in Q6_SETS if spec.get("n0") != 0]])
def test_plan_matches_reference_loop(q, spec, shots):
    assert_plan_matches_reference(*targets(projected_terms(q, spec)), shots)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 7, 8])
def test_plan_matches_reference_on_random_sets(q):
    # q = 1 and 2 fit in one short block and 3 in one full block; 5, 7 and
    # 8 end in a short one. 150 rounds cross the exponent rebuilds, which
    # come every 61 rounds at epsilon 0.3, every 38 at 1 and every round
    # at 3.
    gen = np.random.default_rng(100 + q)
    for epsilon in (0.3, 1.0, 3.0):
        n_terms = int(gen.integers(2, 30))
        strings = [PauliString(tuple(gen.choice(list("IXYZ"), q)))
                   for _ in range(n_terms - 1)] + [PauliString.identity(q)]
        weights = gen.exponential(size=n_terms)
        weights[gen.random(n_terms) < 0.2] = 0.0
        assert_plan_matches_reference(strings, weights.tolist(), 150,
                                      epsilon)


# sha256 of the save_plan file of each budget-q6 set (2000 rounds) and of
# q=8 n0=4 (4000 rounds, the first round count that measures all 2048
# terms), weighted by |coefficient| at epsilon 0.3
PINNED_PLANS = [
    (6, {"type": "parity", "epsilon": 1}, 2000,
     "6b0c8340167990feeadf9f47c9f40f793eebaeb041de360be8d4245df403ece6"),
    (6, {"type": "parity", "epsilon": -1}, 2000,
     "6b0c8340167990feeadf9f47c9f40f793eebaeb041de360be8d4245df403ece6"),
    (6, {"type": "number", "n0": 1}, 2000,
     "71cf4d0f5c0d8c18fe4a4f3b89608149f2b62e6016db3233167f395a7209d344"),
    (6, {"type": "number", "n0": 2}, 2000,
     "92abed6c056f32ca0af5fbe74e1ab98778198676ad3973a351d9efa4cfa3e4a9"),
    (6, {"type": "number", "n0": 3}, 2000,
     "63874fe800d69186ffbad9d077352e41b852783a905f3981b5ea65a8b35296e6"),
    (6, {"type": "number", "n0": 4}, 2000,
     "e567a32b460f2f79b42e059ff6aaf58dd02d7ab4f3b6f8a1728b307b1018a87c"),
    (6, {"type": "number", "n0": 5}, 2000,
     "f07d9c7b1387aefbcb1a9a28cbfb1fa369c3b38a9a7928b0b0629b25f015af4d"),
    (6, {"type": "number", "n0": 6}, 2000,
     "8f15179b5a2a68b7d478b4feeb58012edd76f61c9883ca8d8ef0b485f67d0442"),
    (8, {"type": "number", "n0": 4}, 4000,
     "8646090426dd7c50d9a9ecab87036ac9733fcefb4345fa1511091ec246b65936"),
]


@pytest.mark.parametrize("q,spec,shots,digest", PINNED_PLANS, ids=[
    f"q{q}-{spec['type']}{spec.get('epsilon', spec.get('n0'))}"
    for q, spec, _, _ in PINNED_PLANS])
def test_plan_bytes_are_pinned(q, spec, shots, digest, tmp_path):
    plan = derandomize_plan(*targets(projected_terms(q, spec)), shots,
                            epsilon=0.3)
    save_plan(plan, tmp_path / "plan.txt")
    assert hashlib.sha256((tmp_path / "plan.txt").read_bytes()).hexdigest() \
        == digest


@pytest.mark.parametrize("q,spec,shots", [
    *[(6, spec, 2000) for spec in Q6_SETS if spec.get("n0") != 0],
    (8, {"type": "number", "n0": 4}, 1000)])
def test_sum_and_list_targets_give_one_plan(q, spec, shots):
    expanded = projected_terms(q, spec)
    strings, weights = targets(expanded)
    plan = derandomize_plan(strings, weights, shots)
    assert derandomize_plan(expanded, expanded.magnitudes(), shots) == plan
    assert np.array_equal(plan_hit_counts(plan, expanded),
                          plan_hit_counts(plan, strings))


@pytest.mark.parametrize("epsilon,shots", [(2.0, 1000), (3.0, 500)])
def test_plan_matches_reference_at_large_epsilon(epsilon, shots):
    # The log cost falls by about 1 (eps 2) or 2 (eps 3) a round, so
    # weights held at the first round's reference would underflow before
    # the last round; the rebuilds, every 8 rounds at eps 2 and every round
    # at 3, keep them in range. Weights near 1e300 keep the log costs, and
    # so their rounding, small against the absolute 1e-12 bound.
    strings = [PauliString.from_label(label) for label in ("XI", "ZY", "IZ")]
    assert_plan_matches_reference(strings, [1e300, 0.5e300, 2e300], shots,
                                  epsilon)


@pytest.mark.parametrize("q", [3, 4, 6, 7])
def test_plan_does_not_depend_on_return_cost(q):
    # q = 3 has no block 1, 4 a short one, 6 two full blocks and 7 three
    gen = np.random.default_rng(300 + q)
    strings = [PauliString(tuple(gen.choice(list("IXYZ"), q)))
               for _ in range(40)]
    weights = gen.exponential(size=40).tolist()
    plan, trace = derandomize_plan(strings, weights, 200, return_cost=True)
    assert len(trace) == 200 * q
    assert derandomize_plan(strings, weights, 200).bases_sequence == \
        plan.bases_sequence


def test_plan_does_not_depend_on_target_order():
    strings, weights = targets(projected_terms(4, {"type": "parity",
                                                   "epsilon": 1}))
    plan = derandomize_plan(strings, weights, 1000)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(strings))
        permuted = derandomize_plan([strings[i] for i in perm],
                                    [weights[i] for i in perm], 1000)
        assert permuted.bases_sequence == plan.bases_sequence


def test_exact_x_y_tie_picks_x():
    # X and Y are mirror images here, so their costs tie exactly and Z,
    # which hits neither, costs more.
    plan = derandomize_plan([PauliString(("X",)), PauliString(("Y",))],
                            None, 4)
    assert plan.bases_sequence[0] == ("X",)
    assert sorted(row[0] for row in plan.bases_sequence) == \
        ["X", "X", "Y", "Y"]


def test_all_zero_weights_choose_z():
    strings = [PauliString.from_label("XY"), PauliString.from_label("IX")]
    # 100 rounds run past the first exponent rebuild
    for shots in (3, 100):
        plan, trace = derandomize_plan(strings, [0.0, 0.0], shots,
                                       return_cost=True)
        assert all(row == ("Z", "Z") for row in plan.bases_sequence)
        assert len(trace) == 2 * shots
        assert all(cost == -math.inf for cost in trace)


def assert_groups_match_reference(obs):
    adj = reference_adjacency(obs)
    assert [g.members for g in group_qwc_rlf(obs)] == reference_rlf(adj)
    assert [g.members for g in group_qwc_greedy(obs)] == \
        reference_greedy(adj)


@pytest.mark.parametrize("spec", Q6_SETS)
def test_groups_match_reference_on_q6_sets(spec):
    assert_groups_match_reference(projected_terms(6, spec))


def test_groups_match_reference_on_random_sets():
    gen = np.random.default_rng(2024)
    for _ in range(60):
        assert_groups_match_reference(random_sum(
            gen, int(gen.integers(1, 7)), int(gen.integers(0, 40))))


def sum_of(*labels):
    return WeightedPauliSum(len(labels[0]), tuple(
        (1.0, PauliString.from_label(label)) for label in labels))


@pytest.mark.parametrize("obs", [
    sum_of("XZ"),
    sum_of("ZI", "IZ", "ZZ", "II"),
    sum_of("X", "Y", "Z"),
    sum_of("XI", "YI", "ZI", "IX", "IY", "IZ"),
    sum_of("XII", "IYI", "IIZ", "YII", "IZI", "IIX", "ZII", "IXI", "IIY"),
    sum_of("IIIIIXI", "IIIIIZZ", "IIYIIYI", "IIZIYZZ", "IXIIIII",
           "IXIYYIZ", "IZIZIII", "XIYIIIY")],
    ids=["single", "edgeless", "complete", "degrees-tie-q2",
         "degrees-tie-q3", "blocked-by-a-pick"])
def test_groups_match_reference_on_edge_graphs(obs):
    # In the last set the first class comes out wrong unless the vertices
    # that a pick blocks add to the candidates' scores; no random set of
    # test_groups_match_reference_on_random_sets depends on that.
    assert_groups_match_reference(obs)
