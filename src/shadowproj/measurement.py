"""Measurement-budget strategies: derandomized basis selection for a target
observable set, qubit-wise-commuting grouping with Recursive-Largest-First
coloring for the direct-counts baseline, and shadow-norm sample bounds.

Greedy choices are deterministic: ties break toward the lowest index and
toward Z before X before Y. In derandomization a letter counts as tied with
the cheapest one when its conditional cost is within a relative 1e-12 of
the minimum, so floating-point rounding never decides a tie and the plan
does not depend on the order of the targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng as _rng
from .paulis import PauliString, WeightedPauliSum
from .shadows import BASIS_CODE, BASIS_LETTERS
from .statevector import Statevector, rotate_to_bases, sample_bitstrings

# Candidate order implementing the Z < X < Y tie-break.
_CANDIDATE_ORDER = ("Z", "X", "Y")
# Relative cost margin of a derandomization tie. Exact ties occur, and
# rounding moves their costs apart by about 1e-16, not by a genuine gap.
_TIE_RTOL = 1e-12


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
        bad = {b for row in self.bases_sequence for b in row} - set(BASIS_CODE)
        if bad:
            raise ValueError(f"plan bases must be X, Y or Z, got "
                             f"{', '.join(sorted(map(repr, bad)))}")

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
    """Read a ``save_plan`` file; a malformed line raises ValueError naming
    it."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.strip()
        if not text:
            continue
        bad = sorted(set(text) - set(BASIS_CODE))
        if bad:
            raise ValueError(f"{path} line {lineno}: basis {bad[0]!r} is not "
                             "X, Y or Z")
        if rows and len(text) != len(rows[0]):
            raise ValueError(f"{path} line {lineno}: {len(text)} bases, "
                             f"expected {len(rows[0])}")
        rows.append(tuple(reversed(text)))
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
    q = obs_list[0].num_qubits if obs_list else 0
    if any(p.num_qubits != q for p in obs_list):
        raise ValueError("observables must share num_qubits")
    codes = np.full((len(obs_list), q), -1, dtype=np.int8)
    for i, p in enumerate(obs_list):
        for j in p.support():
            codes[i, j] = BASIS_CODE[p.letters[j]]
    return codes


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
    if w.shape != (n_obs,) or not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("need one finite, non-negative weight per "
                         "observable")
    decay = epsilon ** 2 / 2
    nu = 1.0 - math.exp(-decay)
    locality = (codes >= 0).sum(axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
        log_tail_base = np.log(1.0 - nu * 3.0 ** (-locality.astype(float)))

    # In a round a target's state is its open-support count 0..q, or `dead`
    # once a letter conflicts. Matches lower `dead` by at most q per round,
    # so every state above q is dead and has factor 1.
    dead = 2 * q + 1
    factor = np.ones(dead + 1)
    factor[:q + 1] = 1.0 - nu * 3.0 ** -np.arange(q + 1.0)
    cand_codes = np.array([BASIS_CODE[b] for b in _CANDIDATE_ORDER])
    column = codes.T[:, None, :]
    is_match = column == cand_codes[None, :, None]       # (q, 3, L)
    match = is_match.astype(int)
    # A conflicting letter never matches, so max(state, dead) - 0 is dead.
    kill = np.where((column >= 0) & ~is_match, dead, 0)

    hits = np.zeros(n_obs)
    plan = np.empty((shots, q), dtype=np.int8)
    cost_trace = []
    for m in range(shots):
        # A candidate's conditional cost is exp(ref) * sum_i factor_i *
        # scaled_i; ref keeps the sum in range, the trace stays in log space.
        expo = log_w - decay * hits + (shots - m - 1) * log_tail_base
        ref = float(expo.max())
        scaled = np.exp(expo - ref) if ref > -np.inf else np.zeros(n_obs)
        state = locality
        for j in range(q):
            cand = np.maximum(state, kill[j]) - match[j]
            # einsum contracts without BLAS, whose threads cost more than
            # the product itself at this size.
            sums = np.einsum("ki,i->k", factor[cand], scaled).tolist()
            limit = min(sums) * (1.0 + _TIE_RTOL)
            k = next(i for i, total in enumerate(sums) if total <= limit)
            state = cand[k]
            plan[m, j] = cand_codes[k]
            cost_trace.append(ref + math.log(sums[k]) if sums[k] > 0
                              else -math.inf)
        hits += state == 0
    rows = tuple(tuple(BASIS_LETTERS[c] for c in row) for row in plan)
    result = MeasurementPlan(rows, provenance="derandomized")
    if return_cost:
        return result, cost_trace
    return result


def plan_hit_counts(plan: MeasurementPlan,
                    obs_list: Sequence[PauliString]) -> np.ndarray:
    """How many plan rounds cover each observable's full support."""
    codes = _observable_codes(obs_list)
    rows = np.array([[BASIS_CODE[b] for b in row]
                     for row in plan.bases_sequence], dtype=np.int8)
    if rows.shape[1] != codes.shape[1]:
        raise ValueError("plan and observables differ in num_qubits")
    counts = np.zeros(len(obs_list), dtype=int)
    chunk = max(1, 2 ** 20 // max(len(obs_list), 1))
    for start in range(0, len(rows), chunk):
        block = rows[start:start + chunk]
        covered = np.ones((len(block), len(obs_list)), dtype=bool)
        for j in range(codes.shape[1]):
            covered &= (codes[:, j] < 0) | (block[:, j, None] == codes[:, j])
        counts += covered.sum(axis=0)
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


def _conflict_graph(codes: np.ndarray) -> np.ndarray:
    """(L, L) boolean adjacency of the QWC incompatibility graph: two terms
    conflict where both act on a qubit with different letters."""
    adj = np.zeros((len(codes), len(codes)), dtype=bool)
    for column in codes.T:
        acts = column >= 0
        adj |= (column[:, None] != column) & acts[:, None] & acts
    return adj


def _groups(codes: np.ndarray, classes) -> list[ObservableGroup]:
    """One group per boolean class mask. Members agree where they share a
    qubit, so the largest code is the shared letter; Z where none acts."""
    return [ObservableGroup(tuple(np.flatnonzero(cls).tolist()),
                            tuple("Z" if c < 0 else BASIS_LETTERS[c]
                                  for c in codes[cls].max(axis=0)))
            for cls in classes]


def group_qwc_rlf(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """Partition terms into QWC groups by RLF coloring.

    The incompatibility graph has the Pauli terms as vertices and an edge
    wherever two terms fail qubit-wise commutation; each color class forms
    one measurable group.
    """
    codes = _observable_codes([s for _, s in obs.terms])
    adj = _conflict_graph(codes)
    uncolored = np.ones(len(codes), dtype=bool)
    degree = adj.sum(axis=1)
    classes = []
    while uncolored.any():
        first = int(np.argmax(np.where(uncolored, degree, -1)))
        group = np.zeros_like(uncolored)
        group[first] = True
        blocked = adj[first] & uncolored
        candidates = uncolored & ~blocked
        candidates[first] = False
        score = adj[blocked].sum(axis=0)
        while candidates.any():
            pick = int(np.argmax(np.where(candidates, score, -1)))
            group[pick] = True
            score += adj[adj[pick] & candidates].sum(axis=0)
            candidates &= ~adj[pick]
            candidates[pick] = False
        uncolored &= ~group
        degree -= adj[group].sum(axis=0)
        classes.append(group)
    return _groups(codes, classes)


def group_qwc_greedy(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """Largest-first greedy coloring baseline for comparison with RLF."""
    codes = _observable_codes([s for _, s in obs.terms])
    adj = _conflict_graph(codes)
    color = np.full(len(codes), -1)
    n_colors = 0
    for v in np.argsort(-adj.sum(axis=1), kind="stable"):
        free = np.ones(n_colors + 1, dtype=bool)
        free[color[adj[v] & (color >= 0)]] = False
        color[v] = int(np.argmax(free))
        n_colors = max(n_colors, color[v] + 1)
    return _groups(codes, [color == c for c in range(n_colors)])


def singleton_groups(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """One group per term: the ungrouped direct-counts baseline."""
    codes = _observable_codes([s for _, s in obs.terms])
    return _groups(codes, np.eye(len(codes), dtype=bool))


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
