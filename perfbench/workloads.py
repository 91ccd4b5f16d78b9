"""The benchmark's three workloads.

Each workload has a set-up pass (run several times and timed by the
runner), reference values computed apart from the program (untimed), ops
grouped in rounds that are identical for a seed, an untimed per-op check
and a run-level check. Every call into the program sits in a span, so the
traced run times each layer boundary from outside the program.
"""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from shadowproj import experiments, measurement, pairing, projectors, shadows
from shadowproj import statevector as sv
from shadowproj.paulis import WeightedPauliSum

import oracles
from tracing import Tracer

# Empty spin and number sectors estimate slightly negative norms on most
# shadows; the warning for each would flood stderr.
warnings.simplefilter("ignore", projectors.EmptySectorWarning)

SHOTS = 10_000
SPIN_N_P = 10
PLAN_ROUNDS = 2000
PLAN_EPSILON = 0.3
Z_LIMIT = 6.0
TAIL_PROBABILITY = 1e-9
# op index of the full-size warm-up op that ends each set-up pass; no run
# reaches it
WARM_INDEX = 2 ** 32 - 1


def op_seed(seed: int, index: int, stream: int = 0) -> int:
    return int(np.random.SeedSequence([seed, stream, index])
               .generate_state(1)[0])


def shadow_counts(codes: np.ndarray, bits: np.ndarray) -> dict:
    return {"snapshots": int(codes.shape[0]),
            "distinct_bases": int(np.unique(codes, axis=0).shape[0]),
            "distinct_snapshots": int(np.unique(np.hstack([codes, bits]),
                                                axis=0).shape[0])}


def within_z(samples: list, reference) -> bool:
    """Run means within Z_LIMIT standard errors of the reference."""
    values = np.asarray(samples, dtype=float)
    if values.shape[0] < 2:
        return False
    err = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    gap = np.abs(values.mean(axis=0) - np.asarray(reference))
    return bool(np.all(gap <= Z_LIMIT * err + 1e-12))


def mcdiarmid_radius(sq_sensitivity: float) -> float:
    """Deviation exceeded with probability at most TAIL_PROBABILITY by a
    function of independent outcomes whose squared bounded differences
    sum to ``sq_sensitivity`` (McDiarmid's inequality)."""
    return math.sqrt(sq_sensitivity * math.log(2 / TAIL_PROBABILITY) / 2)


class Workload:
    name = ""
    round_ops = 1
    min_rounds = 1

    def __init__(self, seed: int, tracer: Tracer, work_dir: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.work_dir = work_dir
        self.samples: list = []

    def round(self, r: int) -> list:
        return [r * self.round_ops + k for k in range(self.round_ops)]

    def check_run(self) -> bool:
        return True

    def close(self) -> None:
        """Remove what the run wrote, except the trace."""


class SpinSectors(Workload):
    """fig7 path: one random shadow, all nine (s, m) sector norms."""

    name = "spin-sectors"
    q = 4
    round_ops = 4
    min_rounds = 3

    def setup(self) -> None:
        tr = self.tracer
        self.state = experiments.prepare_spin_rotated_gaussian(self.q)
        self.ident = WeightedPauliSum.identity(self.q)
        with tr.span("projectors.build"):
            self.family = projectors.all_sector_projectors(
                self.q, {"type": "spin", "n_p": SPIN_N_P})
        with tr.span("projectors.to_matrix"):
            self.matrices = [p.to_matrix() for p in self.family]
        with tr.span("statevector.oracle"):
            self.program_norms = [
                sv.exact_projected_linear(self.state, self.ident, m)[1]
                for m in self.matrices]
        self.run_op(WARM_INDEX)

    def references(self) -> bool:
        labels = [(s2 / 2, m2 / 2) for s2 in range(self.q, -1, -2)
                  for m2 in range(-s2, s2 + 1, 2)]
        self.ref_mats = [
            oracles.midpoint_spin_projector(self.q, s, m, SPIN_N_P)
            for s, m in labels]
        psi = self.state.amplitudes
        self.ref_norms = [oracles.expectation(psi, m) for m in self.ref_mats]
        return (len(self.family) == len(labels)
                and all(np.abs(a - b).max() < 1e-10
                        for a, b in zip(self.matrices, self.ref_mats))
                and np.allclose(self.program_norms, self.ref_norms,
                                rtol=0, atol=1e-12))

    def run_op(self, index: int):
        tr = self.tracer
        with tr.span("shadows.acquire") as acq:
            shadow = shadows.acquire_shadow(self.state, SHOTS,
                                            op_seed(self.seed, index))
        with tr.span("projectors.sectors") as sec:
            results = projectors.projected_estimate_sectors(
                shadow, self.ident, self.family)
        return shadow, results, acq, sec

    def finish_op(self, index: int, out, keep: bool) -> tuple[int, bool]:
        shadow, results, acq, sec = out
        codes, bits = oracles.snapshot_arrays(shadow.snapshots)
        if self.tracer.enabled:
            acq.update(shadow_counts(codes, bits))
            terms = len(self.family[0].gates)
            # the identity observable has no non-identity strings
            sec.update(lcu_terms=terms,
                       kernel_products=terms * len(shadow) * self.q)
        norms = [norm for _, norm in results]
        # the same linear estimator, evaluated on dense snapshot densities
        own = oracles.linear_shadow_estimates(codes, bits, self.ref_mats)
        ok = len(norms) == len(own) and bool(
            np.all(np.abs(np.asarray(norms) - own) <= 1e-9))
        if ok and keep:
            self.samples.append(norms)
        return len(shadow), ok

    def check_run(self) -> bool:
        return within_z(self.samples, self.ref_norms)


class NumberRoundtrip(Workload):
    """fig5/fig6 path through a shadow file: acquire, save, load, rebuild
    the number-sector family, numerator and norm of every sector."""

    name = "number-roundtrip"
    q = 4
    round_ops = 4
    min_rounds = 3

    def setup(self) -> None:
        self.state = sv.prepare_gaussian(self.q)
        self.ham = pairing.build_pairing_hamiltonian(
            pairing.PairingSpec(self.q, 1.0, 1.0))
        self.path = self.work_dir / "roundtrip.shadow.txt"
        with self.tracer.span("statevector.oracle"):
            self.program_oracles = [
                sv.exact_projected_linear(
                    self.state, self.ham,
                    projectors.exact_number_projector(self.q, n))
                for n in range(self.q + 1)]
        self.run_op(WARM_INDEX)

    def references(self) -> bool:
        psi = self.state.amplitudes
        ham = oracles.pairing_hamiltonian(self.q, 1.0, 1.0)
        projs = [oracles.number_projector(self.q, n)
                 for n in range(self.q + 1)]
        self.ref = [(oracles.expectation(psi, ham @ p),
                     oracles.expectation(psi, p)) for p in projs]
        self.terms = [(c, s.letters) for c, s in self.ham.terms]
        self.strings = sum(1 for _, s in self.ham.terms if s.weight() > 0)
        return np.allclose(self.program_oracles, self.ref, rtol=0,
                           atol=1e-10)

    def run_op(self, index: int):
        tr = self.tracer
        with tr.span("shadows.acquire") as acq:
            shadow = shadows.acquire_shadow(self.state, SHOTS,
                                            op_seed(self.seed, index))
        with tr.span("shadows.save") as save:
            shadows.save_shadow(shadow, self.path)
        with tr.span("shadows.load"):
            loaded = shadows.load_shadow(self.path)
        with tr.span("projectors.build"):
            family = projectors.all_sector_projectors(self.q,
                                                      {"type": "number"})
        with tr.span("projectors.sectors") as sec:
            results = projectors.projected_estimate_sectors(loaded, self.ham,
                                                            family)
        return shadow, loaded, family, results, acq, save, sec

    def finish_op(self, index: int, out, keep: bool) -> tuple[int, bool]:
        shadow, loaded, family, results, acq, save, sec = out
        codes, bits = oracles.snapshot_arrays(shadow.snapshots)
        if self.tracer.enabled:
            acq.update(shadow_counts(codes, bits))
            save["file_bytes"] = self.path.stat().st_size
            terms = len(family[0].gates)
            sec.update(lcu_terms=terms, kernel_products=(
                terms * (self.strings + 1) * len(shadow) * self.q))
        same = (loaded.num_qubits == shadow.num_qubits
                and loaded.seed == shadow.seed
                and loaded.snapshots == shadow.snapshots)
        nums = [num for num, _ in results]
        norms = [norm for _, norm in results]
        plain = oracles.plain_shadow_estimate(codes, bits, self.terms)
        ok = (same and len(results) == self.q + 1
              and abs(sum(norms) - 1.0) <= 1e-12
              and abs(sum(nums) - plain) <= 1e-10)
        if ok and keep:
            self.samples.append(nums + norms)
        return len(shadow), ok

    def check_run(self) -> bool:
        reference = ([num for num, _ in self.ref]
                     + [norm for _, norm in self.ref])
        return within_z(self.samples, reference)

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


class BudgetQ6(Workload):
    """fig4 path at q=6: derandomized plan, prescribed shadow estimate,
    RLF grouping and weighted direct counts for one target set per op."""

    name = "budget-q6"
    q = 6
    # n0 = 0 is left out: H P_0 = 0 expands to no Pauli terms at all.
    target_sets = ([{"type": "parity", "epsilon": e} for e in (1, -1)]
                   + [{"type": "number", "n0": n} for n in range(1, 7)])
    round_ops = len(target_sets)

    def setup(self) -> None:
        self.state = experiments.prepare_fig4_state(self.q)
        self.ham = pairing.build_pairing_hamiltonian(
            pairing.PairingSpec(self.q, 1.0, 1.0))
        order = np.random.default_rng([self.seed, 4]).permutation(
            len(self.target_sets))
        self.cycle = [self.target_sets[i] for i in order]
        with self.tracer.span("statevector.oracle"):
            self.program_oracles = [
                sv.exact_projected_linear(self.state, self.ham,
                                          self._exact(spec))[0]
                for spec in self.target_sets]
        # n0 = 6, the cheapest set to plan
        self.run_op((WARM_INDEX, self.target_sets[-1]))

    def _exact(self, spec: dict) -> np.ndarray:
        if spec["type"] == "parity":
            return projectors.exact_parity_projector(self.q, spec["epsilon"])
        return projectors.exact_number_projector(self.q, spec["n0"])

    def references(self) -> bool:
        psi = self.state.amplitudes
        ham = oracles.pairing_hamiltonian(self.q, 1.0, 1.0)
        self.ref = {}
        for spec in self.target_sets:
            proj = (oracles.parity_projector(self.q, spec["epsilon"])
                    if spec["type"] == "parity"
                    else oracles.number_projector(self.q, spec["n0"]))
            self.ref[str(spec)] = oracles.expectation(psi, ham @ proj)
        return np.allclose(self.program_oracles,
                           [self.ref[str(s)] for s in self.target_sets],
                           rtol=0, atol=1e-10)

    def round(self, r: int) -> list:
        return [(r * self.round_ops + k, spec)
                for k, spec in enumerate(self.cycle)]

    def run_op(self, item):
        index, spec = item
        tr = self.tracer
        with tr.span("projectors.build"):
            proj = projectors.projector_from_spec(self.q, spec)
        with tr.span("projectors.expand") as exp:
            expanded = projectors.expand_projected_observable(self.ham, proj)
        strings = [s for _, s in expanded.terms]
        weights = [abs(c) for c, _ in expanded.terms]
        with tr.span("measurement.derandomize") as der:
            plan = measurement.derandomize_plan(strings, weights, PLAN_ROUNDS,
                                                epsilon=PLAN_EPSILON)
        with tr.span("shadows.acquire") as acq:
            shadow = shadows.acquire_shadow(self.state, PLAN_ROUNDS,
                                            op_seed(self.seed, index),
                                            bases=plan.bases_sequence)
        with tr.span("shadows.estimate"):
            estimate = shadows.estimate(shadow, expanded)
        with tr.span("measurement.rlf") as rlf:
            groups = measurement.group_qwc_rlf(expanded)
        per_group = max(1, PLAN_ROUNDS // len(groups))
        with tr.span("measurement.counts") as cnt:
            counts = measurement.direct_counts_estimate(
                self.state, groups, expanded, per_group,
                op_seed(self.seed, index, 1), weighted_allocation=True)
        return (spec, expanded, plan, shadow, estimate, groups, per_group,
                counts, (exp, der, acq, rlf, cnt))

    def finish_op(self, item, out, keep: bool) -> tuple[int, bool]:
        (spec, expanded, plan, shadow, estimate, groups, per_group, counts,
         spans) = out
        values = np.array([c for c, _ in expanded.terms])
        coeffs = np.abs(values)
        term_codes = oracles.pauli_codes([s.letters for _, s in
                                          expanded.terms])
        n_terms, rounds = len(coeffs), len(plan)
        alloc = measurement.allocate_shots(groups, expanded, per_group,
                                           weighted=True)
        snapshots = oracles.snapshot_arrays(shadow.snapshots)
        if self.tracer.enabled:
            exp, der, acq, rlf, cnt = spans
            exp["expanded_terms"] = n_terms
            der.update(plan_rounds=rounds, plan_targets=n_terms)
            acq.update(shadow_counts(*snapshots))
            rlf.update(rlf_groups=len(groups),
                       rlf_pairs=oracles.conflict_pairs(term_codes))
            cnt["counts_shots"] = int(sum(alloc))
        reference = self.ref[str(spec)]
        ok = (self._groups_ok(groups, term_codes)
              and self._plan_ok(plan, snapshots, term_codes, values,
                                estimate, reference)
              and sum(alloc) == per_group * len(groups)
              and self._counts_ok(groups, alloc, coeffs, counts, reference))
        return rounds + int(sum(alloc)), ok

    @staticmethod
    def _groups_ok(groups, term_codes: np.ndarray) -> bool:
        """The groups partition the terms, and each member agrees with its
        group's shared basis wherever it acts."""
        members = sorted(i for g in groups for i in g.members)
        if members != list(range(term_codes.shape[0])):
            return False
        basis_codes = oracles.pauli_codes([g.shared_basis for g in groups])
        return all(np.all((term_codes[list(g.members)] < 0)
                          | (term_codes[list(g.members)] == basis_codes[k]))
                   for k, g in enumerate(groups))

    @staticmethod
    def _plan_ok(plan, snapshots, term_codes: np.ndarray, values: np.ndarray,
                 estimate: float, reference: float) -> bool:
        """The shadow was measured in the plan's bases, every target is hit,
        the realized cost is at most the expected uniform-random cost, the
        estimate equals the compatible-count average computed here, and it
        lies within the McDiarmid radius of the reference."""
        codes, bits = snapshots
        if not np.array_equal(codes, oracles.pauli_codes(plan.bases_sequence)):
            return False
        compat = oracles.compatibility(term_codes, codes)
        hits = compat.sum(axis=1)
        if not np.all(hits > 0):
            return False
        coeffs = np.abs(values)
        decay = PLAN_EPSILON ** 2 / 2
        nu = 1 - math.exp(-decay)
        locality = (term_codes >= 0).sum(axis=1)
        realized = oracles.log_sum_exp(np.log(coeffs) - decay * hits)
        expected = oracles.log_sum_exp(
            np.log(coeffs) + len(plan) * np.log1p(-nu * 3.0 ** -locality))
        signs = np.where(term_codes[:, None, :] >= 0,
                         1 - 2 * bits[None, :, :], 1).prod(axis=2)
        own = float((values @ ((compat * signs).sum(axis=1) / hits)).real)
        # round n moves the estimate by at most 2 sum_{i hit} |c_i| / h_i
        sensitivity = (2 * coeffs / hits) @ compat
        return (realized <= expected + 1e-9
                and abs(estimate - own) <= 1e-10 * (1 + coeffs.sum())
                and abs(estimate - reference)
                <= mcdiarmid_radius(float(sensitivity @ sensitivity)))

    @staticmethod
    def _counts_ok(groups, alloc, coeffs: np.ndarray, counts: float,
                   reference: float) -> bool:
        """A shot of group g moves the estimate by at most
        2 sum_{i in g} |c_i| / n_g."""
        weight = np.array([coeffs[list(g.members)].sum() for g in groups])
        return abs(counts - reference) <= mcdiarmid_radius(
            float(np.sum(4 * weight ** 2 / np.array(alloc))))

WORKLOADS = {w.name: w for w in (SpinSectors, NumberRoundtrip, BudgetQ6)}
