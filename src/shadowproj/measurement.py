"""Measurement-budget strategies: derandomized basis selection for a target
observable set, qubit-wise-commuting grouping with Recursive-Largest-First
coloring for the direct-counts baseline, and shadow-norm sample bounds.

Greedy choices are deterministic: ties break toward the lowest index and
toward Z before X before Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng as _rng
from .paulis import PauliString, WeightedPauliSum, qwc_commutes
from .shadows import BASIS_CODE, BASIS_LETTERS
from .statevector import Statevector, rotate_to_bases, sample_bitstrings

# Candidate order implementing the Z < X < Y tie-break.
_CANDIDATE_ORDER = ("Z", "X", "Y")


@dataclass(frozen=True)
class MeasurementPlan:
    """A fixed sequence of per-qubit measurement bases."""

    bases_sequence: tuple[tuple[str, ...], ...]
    provenance: str = "random"

    def __post_init__(self):
        if not self.bases_sequence:
            raise ValueError("empty plan")
        q = len(self.bases_sequence[0])
        if any(len(row) != q for row in self.bases_sequence):
            raise ValueError("all rounds need the same number of qubits")
        object.__setattr__(self, "bases_sequence",
                           tuple(tuple(row) for row in self.bases_sequence))

    @property
    def num_qubits(self) -> int:
        return len(self.bases_sequence[0])

    def __len__(self) -> int:
        return len(self.bases_sequence)


def save_plan(plan: MeasurementPlan, path) -> None:
    """One basis line per round, most significant qubit leftmost."""
    lines = ["".join(reversed(row)) for row in plan.bases_sequence]
    Path(path).write_text("\n".join(lines) + "\n")


def load_plan(path, provenance: str = "derandomized") -> MeasurementPlan:
    rows = [tuple(reversed(line.strip()))
            for line in Path(path).read_text().splitlines() if line.strip()]
    return MeasurementPlan(tuple(rows), provenance)


def random_plan(num_qubits: int, shots: int, seed: int) -> MeasurementPlan:
    gen = _rng.stream(seed, 0x91a7)
    codes = gen.integers(0, 3, size=(shots, num_qubits))
    rows = tuple(tuple(BASIS_LETTERS[c] for c in row) for row in codes)
    return MeasurementPlan(rows, provenance="random")


@dataclass(frozen=True)
class ObservableGroup:
    """Indices of mutually QWC terms plus the basis measuring all of them."""

    members: tuple[int, ...]
    shared_basis: tuple[str, ...]


def shadow_norm_bound(obs_list: Sequence[PauliString], epsilon: float,
                      constant: float = 34.0) -> int:
    """Snapshot count sufficient for additive error epsilon on every target.

    ceil(c * log(L) * max_i 3^{k_i} / eps^2) with k_i the locality and 3^k
    the Pauli-ensemble shadow norm; the log factor is floored at 1 so a
    single observable still yields a finite budget. This is a planning
    bound, typically far above what experiments need.
    """
    if not obs_list:
        raise ValueError("empty observable list")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    max_norm = max(3 ** p.weight() for p in obs_list)
    log_l = max(math.log(len(obs_list)), 1.0)
    return math.ceil(constant * log_l * max_norm / epsilon ** 2)


def _observable_codes(obs_list: Sequence[PauliString]) -> np.ndarray:
    """(L, q) basis codes with -1 marking identity positions."""
    q = obs_list[0].num_qubits
    if any(p.num_qubits != q for p in obs_list):
        raise ValueError("observables must share num_qubits")
    codes = np.full((len(obs_list), q), -1, dtype=np.int8)
    for i, p in enumerate(obs_list):
        for j in p.support():
            codes[i, j] = BASIS_CODE[p.letters[j]]
    return codes


def _logsumexp(values: np.ndarray) -> float:
    peak = np.max(values)
    if peak == -np.inf:
        return -np.inf
    return float(peak + np.log(np.sum(np.exp(values - peak))))


def derandomize_plan(obs_list: Sequence[PauliString],
                     weights: Sequence[float] | None,
                     shots: int, epsilon: float = 0.3,
                     return_cost: bool = False):
    """Greedy derandomized measurement plan for the target Pauli set.

    Round by round and qubit by qubit, the basis letter is chosen to
    minimize the conditional expectation of the confidence-bound cost
    sum_i w_i exp(-eps^2/2 * h_i), where an undecided round hits observable
    i with probability 3^(-locality). The minimizing choice never exceeds
    the uniform-random average, so the final realized cost is bounded by
    the random ensemble's expected cost. Costs are compared in log space;
    after thousands of hits they underflow any fixed floating-point scale.

    With ``return_cost=True`` also returns the log conditional-cost trace
    after every committed letter (for the monotonicity guarantee check).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not obs_list:
        raise ValueError("no target observables to derandomize a plan for")
    codes = _observable_codes(obs_list)
    n_obs, q = codes.shape
    w = np.ones(n_obs) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n_obs,) or (w < 0).any():
        raise ValueError("need one non-negative weight per observable")
    decay = epsilon ** 2 / 2
    nu = 1.0 - math.exp(-decay)
    locality = (codes >= 0).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
        log_tail_base = np.log(1.0 - nu * 3.0 ** (-locality.astype(float)))

    hits = np.zeros(n_obs)
    plan = np.empty((shots, q), dtype=np.int8)
    cost_trace = []
    for m in range(shots):
        alive = np.ones(n_obs, dtype=bool)
        open_support = locality.astype(float).copy()
        log_tail = (shots - m - 1) * log_tail_base
        for j in range(q):
            best_cost, best_letter = np.inf, _CANDIDATE_ORDER[0]
            for letter in _CANDIDATE_ORDER:
                cand = BASIS_CODE[letter]
                has_support = codes[:, j] >= 0
                match = has_support & (codes[:, j] == cand)
                cand_alive = alive & ~(has_support & ~match)
                cand_open = open_support - (alive & match)
                log_round = np.where(
                    cand_alive, np.log(1.0 - nu * 3.0 ** (-cand_open)), 0.0)
                cost = _logsumexp(log_w - decay * hits + log_round + log_tail)
                if cost < best_cost:
                    best_cost, best_letter = cost, letter
            cand = BASIS_CODE[best_letter]
            has_support = codes[:, j] >= 0
            match = has_support & (codes[:, j] == cand)
            open_support = open_support - (alive & match)
            alive &= ~(has_support & ~match)
            plan[m, j] = cand
            cost_trace.append(best_cost)
        hits += alive & (open_support == 0)
    rows = tuple(tuple(BASIS_LETTERS[c] for c in row) for row in plan)
    result = MeasurementPlan(rows, provenance="derandomized")
    if return_cost:
        return result, cost_trace
    return result


def plan_hit_counts(plan: MeasurementPlan,
                    obs_list: Sequence[PauliString]) -> np.ndarray:
    """How many plan rounds cover each observable's full support."""
    codes = _observable_codes(obs_list)
    counts = np.zeros(len(obs_list), dtype=int)
    for row in plan.bases_sequence:
        row_codes = np.array([BASIS_CODE[b] for b in row], dtype=np.int8)
        compatible = ((codes < 0) | (codes == row_codes)).all(axis=1)
        counts += compatible
    return counts


def plan_cost(plan: MeasurementPlan, obs_list: Sequence[PauliString],
              weights: Sequence[float] | None = None,
              epsilon: float = 0.3) -> float:
    """Realized confidence-bound cost sum_i w_i exp(-eps^2/2 * hits_i)."""
    w = (np.ones(len(obs_list)) if weights is None
         else np.asarray(weights, dtype=float))
    hits = plan_hit_counts(plan, obs_list)
    return float(np.sum(w * np.exp(-epsilon ** 2 / 2 * hits)))


def expected_random_cost(obs_list: Sequence[PauliString], shots: int,
                         weights: Sequence[float] | None = None,
                         epsilon: float = 0.3) -> float:
    """Expected confidence-bound cost of a uniform-random plan."""
    w = (np.ones(len(obs_list)) if weights is None
         else np.asarray(weights, dtype=float))
    nu = 1.0 - math.exp(-epsilon ** 2 / 2)
    locality = np.array([p.weight() for p in obs_list], dtype=float)
    return float(np.sum(w * (1.0 - nu * 3.0 ** (-locality)) ** shots))


def _shared_basis(strings: Sequence[PauliString],
                  members: Sequence[int], num_qubits: int) -> tuple[str, ...]:
    basis = ["Z"] * num_qubits
    for i in members:
        for j in strings[i].support():
            basis[j] = strings[i].letters[j]
    return tuple(basis)


def group_qwc_rlf(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """Partition terms into QWC groups by RLF coloring.

    The incompatibility graph has the Pauli terms as vertices and an edge
    wherever two terms fail qubit-wise commutation; each color class forms
    one measurable group.
    """
    strings = [s for _, s in obs.terms]
    n = len(strings)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for k in range(i + 1, n):
            if not qwc_commutes(strings[i], strings[k]):
                adj[i].add(k)
                adj[k].add(i)
    uncolored = set(range(n))
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
            pick = min(v for v in candidates if score[v] == max(score.values()))
            group.add(pick)
            blocked |= adj[pick] & candidates
            candidates -= adj[pick]
            candidates.discard(pick)
        members = tuple(sorted(group))
        groups.append(ObservableGroup(
            members, _shared_basis(strings, members, obs.num_qubits)))
        uncolored -= group
    return groups


def group_qwc_greedy(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """Largest-first greedy coloring baseline for comparison with RLF."""
    strings = [s for _, s in obs.terms]
    n = len(strings)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for k in range(i + 1, n):
            if not qwc_commutes(strings[i], strings[k]):
                adj[i].add(k)
                adj[k].add(i)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    classes: list[set[int]] = []
    for v in order:
        for cls in classes:
            if not (adj[v] & cls):
                cls.add(v)
                break
        else:
            classes.append({v})
    groups = []
    for cls in classes:
        members = tuple(sorted(cls))
        groups.append(ObservableGroup(
            members, _shared_basis(strings, members, obs.num_qubits)))
    return groups


def singleton_groups(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """One group per term: the ungrouped direct-counts baseline."""
    strings = [s for _, s in obs.terms]
    return [ObservableGroup((i,), _shared_basis(strings, (i,), obs.num_qubits))
            for i in range(len(strings))]


def _check_cover(groups: Sequence[ObservableGroup], n_terms: int) -> None:
    covered = sorted(i for g in groups for i in g.members)
    if covered != list(range(n_terms)):
        raise ValueError("groups must cover every term exactly once")


def allocate_shots(groups: Sequence[ObservableGroup], obs: WeightedPauliSum,
                   shots_per_group: int, weighted: bool = False) -> list[int]:
    """Shots per group: flat, or proportional to the group's sum of |gamma|.

    The weighted split preserves the total budget
    len(groups) * shots_per_group and gives every group at least one shot.
    """
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


def direct_counts_estimate(state: Statevector,
                           groups: Sequence[ObservableGroup],
                           obs: WeightedPauliSum, shots_per_group: int,
                           seed: int, weighted_allocation: bool = False
                           ) -> float:
    """Estimate <obs> by measuring each group in its shared basis.

    Every member's expectation is the mean of prod_{j in support} (-1)^{b_j}
    over that group's sampled bitstrings; the total recombines the gammas.
    """
    _check_cover(groups, len(obs.terms))
    if shots_per_group < 1:
        raise ValueError("shots_per_group must be >= 1")
    alloc = allocate_shots(groups, obs, shots_per_group, weighted_allocation)
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


def counts_expectation_exact(state: Statevector,
                             groups: Sequence[ObservableGroup],
                             obs: WeightedPauliSum) -> float:
    """Infinite-shot limit of the counts estimator via exact enumeration.

    Uses the rotated-basis Born distribution and diagonal parities only, so
    it is an independent route to <obs> for unbiasedness checks.
    """
    _check_cover(groups, len(obs.terms))
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
