"""Measurement-budget strategies: derandomized basis selection for a target
observable set, qubit-wise-commuting grouping with Recursive-Largest-First
coloring for the direct-counts baseline.

Greedy choices are deterministic: ties break toward the lowest index and
toward Z before X before Y. In derandomization a letter counts as tied with
the cheapest one when its conditional cost is within a relative 1e-12 of
the minimum, so floating-point rounding never decides a tie and the plan
does not depend on the order of the targets.

Between rounds the planner rescales its weights in place, one factor per
distinct basis row, and rebuilds them exactly from the integer hit counts
every max(1, int(64 (1 - nu))) rounds, nu = 1 - exp(-eps^2/2). The rounding
drift this allows moves a cost by less than 3e-14 relative, far inside the
tie margin (the bound is derived in ``derandomize_plan``). Within a round
the planner weighs, past the first block of qubits, only the targets still
alive; RLF coloring scores only the candidates still free.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng as _rng
from .paulis import (LETTERS, PauliString, WeightedPauliSum, _digit_keys,
                     letter_codes)
from .shadows import (BASIS_CODE, BASIS_LETTERS, ClassicalShadow,
                      _born_probabilities, _check_count, _distinct_snapshots,
                      _line_text, _prescribed_codes, _sum_in_order,
                      _term_counts)
from .statevector import Statevector

# Candidate order implementing the Z < X < Y tie-break.
_CANDIDATE_ORDER = ("Z", "X", "Y")
# Relative cost margin of a derandomization tie. Exact ties occur, and
# rounding moves their costs apart by about 1e-16, not by a genuine gap.
_TIE_RTOL = 1e-12
# Qubits per derandomization block. A block's table has one row per node of
# its ternary prefix tree, (3^(d+1) - 3) / 2 of them: 39 at depth 3.
_BLOCK_DEPTH = 3
# Leaves of a full block; a plan row is keyed by its leaves in base _LEAVES.
_LEAVES = 3 ** _BLOCK_DEPTH
# Derandomization rounds between exact exponent rebuilds at nu -> 0; the
# interval shrinks as 1 - nu, the bound on the cancellation in a cost.
_REBUILD = 64


@dataclass(frozen=True)
class MeasurementPlan:
    """A fixed sequence of per-qubit measurement bases, and in ``codes``
    the basis codes ``shadows._prescribed_codes`` checked them into."""

    bases_sequence: tuple[tuple[str, ...], ...]
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.bases_sequence:
            raise ValueError("empty plan")
        rows = tuple(map(tuple, self.bases_sequence))
        _check_count(len(rows[0]), "num_qubits")
        object.__setattr__(self, "bases_sequence", rows)
        object.__setattr__(self, "codes", _prescribed_codes(
            rows, len(rows), len(rows[0]), "plan round"))

    @property
    def num_qubits(self) -> int:
        return len(self.bases_sequence[0])

    def __len__(self) -> int:
        return len(self.bases_sequence)


def save_plan(plan: MeasurementPlan, path) -> None:
    """One basis line per round, most significant qubit leftmost."""
    lines = ["".join(reversed(row)) for row in plan.bases_sequence]
    Path(path).write_text("\n".join(lines) + "\n")


def load_plan(path) -> MeasurementPlan:
    """Read a ``save_plan`` file; a malformed line, or one that is not
    UTF-8, raises ValueError naming it."""
    rows = []
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
        text = _line_text(path, lineno, raw).strip()
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
    return MeasurementPlan(tuple(rows))


@dataclass(frozen=True)
class ObservableGroup:
    """Indices of mutually QWC terms plus the basis measuring all of them."""

    members: tuple[int, ...]
    shared_basis: tuple[str, ...]


def _check_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and positive")


def _observable_codes(targets) -> np.ndarray:
    """(L, q) basis codes with -1 marking identity positions, read from a
    sum's codes or from a list of strings; ValueError for no targets."""
    if not len(targets):
        raise ValueError("no target observables")
    if isinstance(targets, WeightedPauliSum):
        return targets.codes - 1
    q = targets[0].num_qubits
    if any(p.num_qubits != q for p in targets):
        raise ValueError("observables must share num_qubits")
    return letter_codes(targets, q) - 1


def _weights(weights: Sequence[float] | None, n: int) -> np.ndarray:
    """One finite, non-negative weight per observable; None weighs all 1."""
    if weights is None:
        return np.ones(n)
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,) or not (np.isfinite(w) & (w >= 0)).all():
        raise ValueError("need one finite, non-negative weight per "
                         "observable")
    return w


def derandomize_plan(targets: WeightedPauliSum | Sequence[PauliString],
                     weights: Sequence[float] | None,
                     shots: int, epsilon: float = 0.3,
                     return_cost: bool = False):
    """Greedy derandomized measurement plan for the targets: the strings
    of a sum, whose coefficients are ignored, or a list of PauliStrings.

    Round by round and qubit by qubit, the basis letter is chosen to
    minimize the conditional expectation of the confidence-bound cost
    sum_i w_i exp(-eps^2/2 * h_i), where an undecided round hits observable
    i with probability 3^(-locality). The minimizing choice never exceeds
    the uniform-random average, so the final realized cost is bounded by
    the random ensemble's expected cost. Costs are compared in log space;
    after thousands of hits they underflow any fixed floating-point scale.

    While target i survives a round, its open support after qubit j is its
    support count on qubits > j, whatever letters came before; only the
    alive mask depends on them. A candidate's cost is therefore
    ``total + sum_i alive_i compat_i scaled_i (f(open_ij) - 1)`` with
    ``f(k) = 1 - nu 3^(-k)``. The qubits are grouped into blocks of at most
    ``_BLOCK_DEPTH``; each block keeps the compatibility masks of its
    ternary prefix tree and a table of ``mask (f - 1)``, so a round costs
    one matrix-vector product per block and a walk down the tree. Block 0's
    table has an extra row of ones, so its product also gives ``total``.
    Block 1 only weighs the targets that block 0's leaf left alive, about
    a quarter of them, so it keeps one table per block-0 leaf restricted
    to those targets, with their indices. A round thus costs one product
    over all targets, one over the leaf's survivors, and for q >= 7 one
    masked product per further block. Plan rows are keyed by their leaf
    path, one base-``_LEAVES`` digit per block.

    Between rebuilds the scaled weights keep the reference exponent ``ref``
    of the last rebuild, so the next round's weights are this round's times
    ``exp(-log(f(locality)) - eps^2/2 alive)``, one factor per distinct
    row, cached with the row's alive mask. Every
    ``max(1, int(_REBUILD (1 - nu)))`` rounds (61 at eps 0.3, 1 from
    eps ~ 2.6 on) the exponent is rebuilt exactly from the integer hit
    counts. A product of at most 64 (1 - nu) roundings drifts by at most
    about 128 (1 - nu) units of roundoff, and the cancellation in
    ``total + delta`` amplifies it by at most (1 + nu) / (1 - nu), so a
    cost moves by less than 3e-14 relative, far below ``_TIE_RTOL``.

    With ``return_cost=True`` also returns the log conditional-cost trace
    after every committed letter (for the monotonicity guarantee check);
    otherwise no trace is kept.
    """
    _check_count(shots)
    _check_epsilon(epsilon)
    codes = _observable_codes(targets)
    n_obs, q = codes.shape
    w = _weights(weights, n_obs)
    decay = epsilon ** 2 / 2
    nu = 1.0 - math.exp(-decay)
    support = codes >= 0
    locality = support.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_w = np.log(w)
        log_tail_base = np.log(1.0 - nu * 3.0 ** (-locality.astype(float)))
    # For large epsilon nu rounds to 1: an identity target's round factor
    # is then 0 and its tail exponent -inf. A zero weight gives it the same
    # nil cost without an infinite exponent.
    doomed = np.isneginf(log_tail_base)
    log_w[doomed], log_tail_base[doomed] = -np.inf, 0.0

    open_after = locality[:, None] - np.cumsum(support, axis=1)
    gain = -nu * 3.0 ** -open_after.T                    # f - 1, (q, L)
    cand_codes = np.array([BASIS_CODE[b] for b in _CANDIDATE_ORDER])
    compat = ~support.T[:, None, :] | (codes.T[:, None, :]
                                       == cand_codes[None, :, None])
    # Per block: the (nodes, L) table, the (leaves, L) leaf masks, the row
    # offset of each tree level and the letters of each leaf. Node 3c + k
    # of a level is letter k below node c of the level above. Block 0's
    # table ends in a row of ones (the total); block 1 holds, per block-0
    # leaf, its table restricted to the targets alive there, with their
    # indices.
    blocks = []
    for start in range(0, q, _BLOCK_DEPTH):
        depth = min(_BLOCK_DEPTH, q - start)
        masks = [np.ones((1, n_obs), dtype=bool)]
        for j in range(start, start + depth):
            masks.append((masks[-1][:, None] & compat[j]).reshape(-1, n_obs))
        levels = [masks[level] * gain[start + level - 1]
                  for level in range(1, depth + 1)]
        if start == 0:
            levels.append(masks[0])
        table = np.concatenate(levels)
        if start == _BLOCK_DEPTH:
            table = [(table.take(idx, axis=1), idx)
                     for idx in map(np.flatnonzero, blocks[0][1])]
        offsets = [(3 ** level - 3) // 2 for level in range(1, depth + 1)]
        letters = list(itertools.product(_CANDIDATE_ORDER, repeat=depth))
        blocks.append((table, masks[-1], offsets, letters))
    (head, first_leaves, head_offsets, _), *rest = blocks

    interval = max(1, int(_REBUILD * (1.0 - nu)))
    hits = np.zeros(n_obs, dtype=np.int64)
    seen = {}                     # flat leaf path -> (row, factor, alive)
    paths = []
    refs = []
    costs = []

    def walk(delta, offsets, total):
        """Leaf of one block's tree reached by the cheapest letters."""
        node = 0
        for offset in offsets:
            base = offset + 3 * node
            z, x, y = delta[base:base + 3]
            # tied: cost within a relative _TIE_RTOL of the cheapest;
            # two comparisons cost half a call of min()
            low = z if z < x else x
            if y < low:
                low = y
            limit = low + abs(total + low) * _TIE_RTOL
            k = 0 if z <= limit else 1 if x <= limit else 2
            if return_cost:
                costs.append(total + delta[base + k])
            node = 3 * node + k
        return node

    for m in range(shots):
        if m % interval == 0:
            for path, n in Counter(paths[m - interval:]).items():
                hits += n * seen[path][2]
            # A candidate's conditional cost is exp(ref) * (total + delta);
            # ref keeps the sums in range, the trace stays in log space.
            expo = log_w - decay * hits + (shots - m - 1) * log_tail_base
            ref = float(expo.max())
            scaled = np.exp(expo - ref) if ref > -np.inf else np.zeros(n_obs)
        if return_cost:
            refs.append(ref)
        # dot goes straight to BLAS gemv; @ and einsum cost more per call
        delta = head.dot(scaled).tolist()
        total = delta[-1]
        path = walk(delta, head_offsets, total)
        if rest:
            leaf = path
            table, idx = rest[0][0][leaf]
            node = walk(table.dot(scaled[idx]).tolist(), rest[0][2], total)
            path = path * _LEAVES + node
            if len(rest) > 1:
                masked = scaled * first_leaves[leaf]
                for (table, _, offsets, _), above in zip(rest[1:], rest):
                    masked = masked * above[1][node]
                    node = walk(table.dot(masked).tolist(), offsets, total)
                    path = path * _LEAVES + node
        entry = seen.get(path)
        if entry is None:
            alive = np.ones(n_obs, dtype=bool)
            row = ()
            for b, (_, leaves, _, letters) in enumerate(blocks):
                node = path // _LEAVES ** (len(blocks) - 1 - b) % _LEAVES
                alive &= leaves[node]
                row += letters[node]
            entry = seen[path] = (row, np.exp(-log_tail_base - decay * alive),
                                  alive)
        paths.append(path)
        scaled *= entry[1]
    rows = [seen[path][0] for path in paths]
    result = MeasurementPlan(tuple(rows))
    if return_cost:
        with np.errstate(divide="ignore"):
            trace = np.repeat(refs, q) + np.log(np.maximum(costs, 0.0))
        return result, trace.tolist()
    return result


def plan_hit_counts(plan: MeasurementPlan,
                    targets: WeightedPauliSum | Sequence[PauliString]
                    ) -> np.ndarray:
    """How many plan rounds cover each target's full support (targets as
    for :func:`derandomize_plan`): the hit counts of ``_term_counts`` over
    the distinct plan rows, read as a shadow whose bits are all 0."""
    codes = _observable_codes(targets) + 1
    if plan.num_qubits != codes.shape[1]:
        raise ValueError("plan and observables differ in num_qubits")
    rounds = ClassicalShadow.from_arrays(plan.codes, 0 * plan.codes, 0, True)
    return _term_counts(*_distinct_snapshots(rounds), codes)[1]


def _conflict_graph(codes: np.ndarray) -> np.ndarray:
    """(L, L) boolean adjacency of the QWC incompatibility graph: two terms
    conflict where both act on a qubit with different letters."""
    adj = np.zeros((len(codes), len(codes)), dtype=bool)
    for column in codes.T:
        acts = column >= 0
        adj |= (column[:, None] != column) & acts[:, None] & acts
    return adj


def _groups(codes: np.ndarray, classes) -> list[ObservableGroup]:
    """One group per ascending array of member indices. Members agree where
    they share a qubit, so the largest code is the shared letter; Z where
    none acts."""
    return [ObservableGroup(tuple(members.tolist()),
                            tuple("Z" if c < 0 else BASIS_LETTERS[c]
                                  for c in codes[members].max(axis=0)))
            for members in classes]


def group_qwc_rlf(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """Partition terms into QWC groups by RLF coloring.

    The incompatibility graph has the Pauli terms as vertices and an edge
    wherever two terms fail qubit-wise commutation; each color class forms
    one measurable group.

    Each class starts at the uncolored vertex of largest uncolored degree
    and grows by the candidate (uncolored, not adjacent to the class) with
    the most blocked neighbors, lowest index first. Only candidates are
    scored: a pick adds the rows of the vertices it blocks, summed over
    the remaining candidates' columns, and candidates that conflict with
    no other candidate join without being scored.
    """
    codes = obs.codes - 1
    adj = _conflict_graph(codes)
    uncolored = np.ones(len(codes), dtype=bool)
    degree = adj.sum(axis=1)
    classes = []
    while uncolored.any():
        first = int(np.argmax(np.where(uncolored, degree, -1)))
        group = np.zeros_like(uncolored)
        group[first] = True
        blocked = adj[first] & uncolored
        free = uncolored & ~blocked
        free[first] = False
        cand = np.flatnonzero(free)
        # A candidate in conflict with no other candidate is never blocked
        # and blocks nothing when picked, so it joins now.
        lone = ~adj[np.ix_(cand, cand)].any(axis=0)
        group[cand[lone]] = True
        # ascending, so argmax keeps the lowest-index tie rule
        cand = cand[~lone]
        score = adj[cand][:, blocked].sum(axis=1)
        while cand.size:
            k = int(np.argmax(score))
            pick = cand[k]
            group[pick] = True
            conflict = adj[pick, cand]
            keep = ~conflict
            keep[k] = False
            newly = cand[conflict]
            cand, score = cand[keep], score[keep]
            score += adj[newly][:, cand].sum(axis=0)
        uncolored &= ~group
        degree -= adj[group].sum(axis=0)
        classes.append(np.flatnonzero(group))
    return _groups(codes, classes)


def group_qwc_greedy(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """Largest-first greedy coloring baseline for comparison with RLF."""
    codes = obs.codes - 1
    adj = _conflict_graph(codes)
    color = np.full(len(codes), -1)
    n_colors = 0
    for v in np.argsort(-adj.sum(axis=1), kind="stable"):
        free = np.ones(n_colors + 1, dtype=bool)
        free[color[adj[v] & (color >= 0)]] = False
        color[v] = int(np.argmax(free))
        n_colors = max(n_colors, color[v] + 1)
    return _groups(codes, [np.flatnonzero(color == c)
                           for c in range(n_colors)])


def singleton_groups(obs: WeightedPauliSum) -> list[ObservableGroup]:
    """One group per term: the ungrouped direct-counts baseline."""
    codes = obs.codes - 1
    return _groups(codes, np.arange(len(codes))[:, None])


def allocate_shots(groups: Sequence[ObservableGroup], obs: WeightedPauliSum,
                   shots_per_group: int, weighted: bool = False) -> list[int]:
    """Shots per group: flat, or proportional to the group's sum of |gamma|.

    The weighted split preserves the total budget
    len(groups) * shots_per_group and gives every group at least one shot.
    """
    _check_count(shots_per_group, "shots_per_group")
    n = len(groups)
    if not weighted:
        return [shots_per_group] * n
    total = n * shots_per_group
    magnitudes = obs.magnitudes().tolist()
    weight = np.array([sum(magnitudes[i] for i in g.members)
                       for g in groups])
    if weight.sum() == 0:
        return [shots_per_group] * n
    raw = weight / weight.sum() * (total - n)
    alloc = np.ones(n, dtype=int) + raw.astype(int)
    remainder = raw - raw.astype(int)
    for i in np.argsort(-remainder)[: total - int(alloc.sum())]:
        alloc[i] += 1
    return alloc.tolist()


def _group_distributions(state: Statevector,
                         groups: Sequence[ObservableGroup],
                         obs: WeightedPauliSum
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Outcome distributions of ``state`` in the distinct shared bases of
    ``groups``, (K, 2^q) from one :func:`_born_probabilities` pass, and
    each group's row: row ``which[g]`` equals
    ``rotate_to_bases(state, groups[g].shared_basis).probabilities()`` float
    for float.

    ValueError unless ``obs`` acts on the state's qubits, the groups
    partition its terms, and every shared basis is q letters X, Y or Z that
    match each member's letter wherever the member acts; the error names
    the first group and member that do not.
    """
    q = state.num_qubits
    if obs.num_qubits != q:
        raise ValueError(f"state has {q} qubits but the observable "
                         f"{obs.num_qubits}")
    members = np.fromiter(itertools.chain.from_iterable(
        g.members for g in groups), dtype=np.intp)
    if not np.array_equal(np.sort(members), np.arange(len(obs))):
        raise ValueError("groups must cover every term exactly once")
    codes = _prescribed_codes([g.shared_basis for g in groups], len(groups),
                              q, "group")
    owner = np.empty(len(obs), dtype=np.intp)
    owner[members] = np.repeat(np.arange(len(groups)),
                               [len(g.members) for g in groups])
    # a member's letter code is its basis code + 1, and 0 where it acts as I
    missed = (obs.codes != 0) & (obs.codes != codes[owner] + 1)
    if missed.any():
        i = int(np.argmax(missed.any(axis=1)))
        g = owner[i]
        raise ValueError(f"group {g} measures "
                         f"{''.join(reversed(groups[g].shared_basis))}, "
                         f"which does not measure its member {i}, "
                         f"{''.join(LETTERS[c] for c in obs.codes[i, ::-1])}")
    distinct, which = np.unique(_digit_keys(codes, 3), return_inverse=True)
    return _born_probabilities(state, distinct), which


def _odd_parities(obs: WeightedPauliSum, members: Sequence[int]
                  ) -> np.ndarray:
    """(len(members), 2^q) uint8: 1 where outcome k has odd parity on the
    member's support, so its Pauli eigenvalue is -1."""
    q = obs.num_qubits
    support = ((obs.codes[list(members)] > 0) << np.arange(q)).sum(axis=1)
    return np.bitwise_count(support[:, None] & np.arange(1 << q)) & 1


def _recombine(obs: WeightedPauliSum, groups: Sequence[ObservableGroup],
               means: np.ndarray) -> float:
    """sum_a Re(gamma_a) <O_a>, added group by group, member by member."""
    order = [i for group in groups for i in group.members]
    return _sum_in_order(obs.coeffs.real[order] * means[order])


def direct_counts_estimate(state: Statevector,
                           groups: Sequence[ObservableGroup],
                           obs: WeightedPauliSum, shots_per_group: int,
                           seed: int, weighted_allocation: bool = False
                           ) -> float:
    """Estimate <obs> by measuring each group in its shared basis.

    Every member's expectation is the mean of prod_{j in support} (-1)^{b_j}
    over that group's sampled bitstrings; the total recombines the gammas.
    Group gi draws its shots with ``gen.choice`` from the stream
    ``rng.stream(seed, 0xc0de, gi)`` over the group's Born distribution,
    so the draws, and the estimate, do not depend on how the
    distributions are computed. A member's signed count is an exact
    integer sum over the outcome histogram.
    """
    probs, which = _group_distributions(state, groups, obs)
    alloc = allocate_shots(groups, obs, shots_per_group, weighted_allocation)
    means = np.empty(len(obs))
    for gi, group in enumerate(groups):
        gen = _rng.stream(seed, 0xc0de, gi)
        outcomes = gen.choice(probs.shape[1], size=alloc[gi],
                              p=probs[which[gi]])
        counts = np.bincount(outcomes, minlength=probs.shape[1])
        odd = (_odd_parities(obs, group.members) * counts).sum(axis=1)
        means[list(group.members)] = (alloc[gi] - 2 * odd) / alloc[gi]
    return _recombine(obs, groups, means)


def counts_expectation_exact(state: Statevector,
                             groups: Sequence[ObservableGroup],
                             obs: WeightedPauliSum) -> float:
    """Infinite-shot limit of the counts estimator via exact enumeration.

    Uses the rotated-basis Born distribution and diagonal parities only, so
    it is an independent route to <obs> for unbiasedness checks.
    """
    probs, which = _group_distributions(state, groups, obs)
    means = np.empty(len(obs))
    for gi, group in enumerate(groups):
        signs = 1.0 - 2.0 * _odd_parities(obs, group.members)
        means[list(group.members)] = (signs * probs[which[gi]]).sum(axis=1)
    return _recombine(obs, groups, means)
