"""Statistical-weight measures over the state domain: countable-support
ensembles, their Shannon-type uncertainty indicator, maximum-uncertainty
inference, moments, and evolution.

A measure with countable support is a finite weighted set of state
operators; canonicalization merges support points closer than a Frobenius
tolerance, which realizes the uniqueness of the resolution into point
measures at the numerical level.  The uncertainty indicator I = -c sum w ln w
quantifies preparation heterogeneity and is deliberately distinct from the
physical entropy observable: a measure over pure states can carry large I
while every member state has zero entropy.

Only countable support is computable here; measures with continuous support
conceptually carry infinite uncertainty and are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import equilibrium as eq
from . import integrate as ig
from . import states as st
from .errors import (MeasureWeightError, TargetInfeasibleError,
                     UncoveredSupportError)
from .states import StateOperator

MERGE_TOL = 1e-9       # Frobenius distance below which support states merge
WEIGHT_SUM_TOL = 1e-10
RANGE_MARGIN = 1e-12   # a target must lie this far inside the open value range
TARGET_TOL = 1e-10     # |sum q v - target| the maximum-entropy weights must meet


@dataclass(frozen=True)
class StatisticalWeightMeasure:
    """Finite weighted support of state operators; weights sum to one."""

    support: tuple  # of (weight, StateOperator)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.support])

    @property
    def states(self) -> list[StateOperator]:
        return [s for _, s in self.support]

    def __len__(self) -> int:
        return len(self.support)

    @property
    def is_dirac(self) -> bool:
        return len(self.support) == 1


def measure(pairs) -> StatisticalWeightMeasure:
    """Canonicalize a list of (weight, state) pairs: positive weights summing
    to one, support states merged when within the Frobenius tolerance."""
    pairs = [(float(w), st.validate(s)) for w, s in pairs]
    if not pairs:
        raise MeasureWeightError("measure needs at least one support point")
    if any(not w > 0 for w, _ in pairs):
        raise MeasureWeightError("weights must be strictly positive")
    total = sum(w for w, _ in pairs)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise MeasureWeightError(f"weights sum to {total!r}, not 1")
    merged: list[list] = []
    for w, s in pairs:
        for entry in merged:
            if st.distance(entry[1], s) <= MERGE_TOL:
                entry[0] += w
                break
        else:
            merged.append([w, s])
    return StatisticalWeightMeasure(tuple((w, s) for w, s in merged))


def dirac(state) -> StatisticalWeightMeasure:
    return measure([(1.0, state)])


def expected_value(mu: StatisticalWeightMeasure,
                   g: Callable[[StateOperator], float]) -> float:
    """<g> = sum_n w_n g(rho_n); linear in the measure."""
    return float(sum(w * g(s) for w, s in mu.support))


def mean_observable(mu: StatisticalWeightMeasure, operator) -> float:
    return expected_value(mu, lambda s: st.mean(operator, s))


def combine(measures: Sequence[StatisticalWeightMeasure],
            weights) -> StatisticalWeightMeasure:
    """Statistical composition sum_n w_n mu_n, canonicalized afterwards."""
    weights = [float(w) for w in weights]
    if len(weights) != len(measures):
        raise MeasureWeightError("one weight per measure required")
    if any(not w > 0 for w in weights):
        raise MeasureWeightError("combination weights must be positive")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise MeasureWeightError(f"combination weights sum to {sum(weights)!r}")
    pairs = []
    for w, mu in zip(weights, measures):
        for wn, s in mu.support:
            pairs.append((w * wn, s))
    return measure(pairs)


def statistical_uncertainty(mu: StatisticalWeightMeasure, c: float = 1.0) -> float:
    """I = -c sum_n w_n ln w_n, in [0, c ln N]; zero exactly for point measures."""
    w = mu.weights
    return -c * float(np.sum(w * np.log(w)))


def expected_entropy(mu: StatisticalWeightMeasure, k: float = 1.0) -> float:
    """<s> = sum_n w_n s(rho_n): a property of the member states, carrying no
    information about the weights (the converse of the uncertainty indicator)."""
    return expected_value(mu, lambda s: st.entropy(s, k=k))


def evolve_measure(mu: StatisticalWeightMeasure, rhs, t_max: float,
                   config=None) -> StatisticalWeightMeasure:
    """Integrate every support state under ``rhs``; weights are untouched.

    The support states advance as one (N, d, d) stack with a common dt
    (``integrate_support``), so ``rhs`` must accept a stack of shape
    (..., d, d), as the single and composite laws and the linear rhs do.
    An integration failure propagates with its own type and traceback and
    a note naming the support index.
    """
    cfg = replace(config or ig.IntegratorConfig(), t_max=t_max)
    final = integrate_support(mu, rhs, cfg).final.rho
    return measure(zip(mu.weights, final))


def _raises(fn, x) -> bool:
    """Whether fn(x) raises; locates the member behind a stacked failure."""
    try:
        fn(x)
    except Exception:
        return True
    return False


def integrate_support(mu: StatisticalWeightMeasure, rhs, config,
                      observables=None, eq_norm=None) -> ig.Trajectory:
    """The trajectory of the support states of ``mu`` integrated as one
    (N, d, d) stack: one common dt, each member's own error norm, samples
    at shared times with one value per member (``integrate.integrate``).
    ``eq_norm`` and ``g_rate``, if given, take the stack and give one value per member.

    A failure propagates with its own type and traceback and a note naming
    the support index.  The integrator names the member for its own errors;
    an exception from ``rhs`` names the first member whose own evaluation
    at the failing stack raises as well.
    """
    located = []

    def stack_rhs(m):
        try:
            return rhs(m)
        except Exception:
            located.append(next((i for i, x in enumerate(m) if _raises(rhs, x)), None))
            raise

    try:
        return ig.integrate(np.stack([s.matrix for s in mu.states]), stack_rhs,
                            config, observables, eq_norm)
    except Exception as exc:
        idx = located[0] if located else getattr(exc, "member", None)
        if idx is not None:
            # a PEP 678 note (what add_note appends to on Python >= 3.11)
            exc.__notes__ = [*getattr(exc, "__notes__", []), f"support point {idx}"]
        raise


def _solve_exponential_weights(values: np.ndarray, target: float) -> np.ndarray:
    """Weights q_n proportional to exp(-b v_n) matching sum q_n v_n = target;
    equal values take only their own target.  The range test is the one of
    ``solve_multipliers``, its error restated in the caller's values."""
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-15 and abs(target - lo) < RANGE_MARGIN:
        return np.full(len(values), 1.0 / len(values))
    # q is the Gibbs state of diag(v - lo) with b as beta: the shift keeps the
    # exponent small, and half the tolerance leaves room for round-off below
    constants = eq.ConstantSet((np.diag(values - lo).astype(complex),))
    try:
        m = eq.solve_multipliers(constants, [target - lo], tol=0.5 * TARGET_TOL,
                                 margin=RANGE_MARGIN)
    except TargetInfeasibleError:
        raise TargetInfeasibleError(
            f"target {target!r} outside the open range ({lo:g}, {hi:g})") from None
    q = eq.gibbs_state(constants, m).matrix.diagonal().real
    if abs(float(q @ values) - target) > TARGET_TOL:
        raise TargetInfeasibleError("constraint not met to tolerance")
    return q


def maxent_known_spectrum(states: Sequence[StateOperator], target_energy: float,
                          h) -> StatisticalWeightMeasure:
    """Most heterogeneous measure over known component states subject to the
    expected-energy constraint: weights exp(-b <h>_n), b fixed by the target.

    A member whose weight underflows to zero (a target at the edge of a wide
    energy range) is left out of the support: it adds exactly nothing to the
    weight sum or to the expected energy, and a measure's weights are
    strictly positive.
    """
    energies = np.array([st.mean(h, s) for s in states])
    q = _solve_exponential_weights(energies, target_energy)
    return measure([(w, s) for w, s in zip(q, states) if w > 0])


@dataclass(frozen=True)
class PhasePartition:
    """Labeled disjoint membership predicates over state operators, with an
    optional overflow cell for states no predicate claims."""

    cells: tuple  # of (label, predicate)
    overflow_label: str | None = None

    def classify(self, state: StateOperator) -> str:
        matches = [label for label, pred in self.cells if pred(state)]
        if len(matches) > 1:
            raise ValueError(f"state matched several cells: {matches}")
        if matches:
            return matches[0]
        if self.overflow_label is not None:
            return self.overflow_label
        raise UncoveredSupportError("support state matched no partition cell")


def cell_masses(mu: StatisticalWeightMeasure,
                partition: PhasePartition) -> dict[str, float]:
    masses: dict[str, float] = {}
    for w, s in mu.support:
        label = partition.classify(s)
        masses[label] = masses.get(label, 0.0) + w
    return masses


def partition_uncertainty(mu: StatisticalWeightMeasure,
                          partition: PhasePartition, c: float = 1.0) -> float:
    """I relative to a countable partition: -c sum_cells m ln m over cells
    with nonzero mass.  Refining the partition never decreases it."""
    masses = np.array([m for m in cell_masses(mu, partition).values() if m > 0])
    return -c * float(np.sum(masses * np.log(masses)))


def maxent_partition(cell_mean_energies, target: float) -> np.ndarray:
    """Most probable cell masses exp(-b <h(E_n)>) for the target expected
    energy.  Only the masses are determined: every measure distributing them
    inside the cells is equally probable."""
    energies = np.asarray(cell_mean_energies, dtype=float)
    return _solve_exponential_weights(energies, target)


def measure_moments(mu: StatisticalWeightMeasure, n_max: int,
                    g: Callable[[StateOperator], float] | None = None):
    """Moment sequences sum_k w_k Tr(rho_k^n) and, when g is given,
    sum_k w_k g(rho_k)^n for n = 1..n_max."""
    trace_moments = []
    for n in range(1, n_max + 1):
        trace_moments.append(float(sum(
            w * np.trace(np.linalg.matrix_power(s.matrix, n)).real
            for w, s in mu.support)))
    functional_moments = None
    if g is not None:
        functional_moments = [
            float(sum(w * g(s) ** n for w, s in mu.support))
            for n in range(1, n_max + 1)]
    return trace_moments, functional_moments
