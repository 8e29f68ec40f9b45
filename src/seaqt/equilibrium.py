"""Gibbs/stable-equilibrium theory: partition functions, multiplier solving,
the generalized Gibbs identity, and equilibrium classification.

The stable equilibrium state for given mean values of the constants of the
motion is exp(-beta H + sum_k gamma_k C_k)/Z.  Multipliers are recovered
from target means by Newton iteration on the smooth convex dual
phi(m) = ln Z(m) + beta * target_h - sum_k gamma_k * target_k, whose gradient
is the mean-value mismatch and whose Hessian is the covariance matrix of the
constants at the current Gibbs state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from . import sea
from . import states as st
from .errors import NoConvergenceError, TargetInfeasibleError
from .operators import UnitSystem
from .states import StateOperator


@dataclass(frozen=True)
class MultiplierVector:
    """beta (inverse energy) plus one dimensionless gamma per extra constant."""

    beta: float
    gammas: tuple = ()

    def as_array(self) -> np.ndarray:
        return np.array([self.beta, *self.gammas], dtype=float)

    @classmethod
    def from_array(cls, m) -> "MultiplierVector":
        m = np.asarray(m, dtype=float)
        return cls(float(m[0]), tuple(float(v) for v in m[1:]))


@dataclass(frozen=True)
class ConstantSet:
    """Operators of a complete independent set of linear constants: H first,
    then the extra commuting constants C_1 ... C_N."""

    operators: tuple
    units: UnitSystem = field(default_factory=UnitSystem)

    @property
    def H(self) -> np.ndarray:
        return self.operators[0]

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def __len__(self) -> int:
        return len(self.operators)


def constant_set(operators, units: UnitSystem | None = None) -> ConstantSet:
    """Validate Hermiticity, commutation with H (``operators.require_commuting``)
    and linear independence."""
    ops = [op.require_hermitian(o, name=f"constant {i}") for i, o in enumerate(operators)]
    if not ops:
        raise ValueError("constant set needs at least the Hamiltonian")
    h = ops[0]
    for i, c in enumerate(ops[1:], start=1):
        op.require_commuting(c, h, f"constant {i}")
    # independence must include the identity: the Gibbs parametrization is
    # gauge-degenerate when some combination of the constants is a multiple
    # of I, and the multiplier problem is then ill-posed
    eye = np.eye(h.shape[0], dtype=complex)
    stacked = np.column_stack([eye.ravel()] + [o.ravel() for o in ops])
    if np.linalg.matrix_rank(stacked, tol=op.RANK_TOL) < len(ops) + 1:
        raise ValueError(
            "constants (with the identity) are linearly dependent under the "
            "trace inner product")
    return ConstantSet(tuple(ops), units or UnitSystem())


def _exponent(constants: ConstantSet, m: MultiplierVector) -> np.ndarray:
    coeffs = np.concatenate([[-m.beta], np.asarray(m.gammas, dtype=float)])
    out = np.zeros_like(constants.H)
    for coef, c in zip(coeffs, constants.operators):
        out = out + coef * c
    return out


def _gibbs_spectrum(constants: ConstantSet, m: MultiplierVector):
    """ln Z, the Gibbs weights and their eigenvectors from one eigh of the exponent."""
    return st.gibbs_spectrum(_exponent(constants, m))


def gibbs_state(constants: ConstantSet, m: MultiplierVector) -> StateOperator:
    """rho = exp(-beta H + sum gamma_k C_k)/Z, max-shifted against overflow."""
    _, p, vecs = _gibbs_spectrum(constants, m)
    return StateOperator(op.hermitize((vecs * p) @ vecs.conj().T))


def log_partition_function(constants: ConstantSet, m: MultiplierVector) -> float:
    """ln Z, a logsumexp of the exponent spectrum shifted by its largest value."""
    return _gibbs_spectrum(constants, m)[0]


def means_at(constants: ConstantSet, m: MultiplierVector) -> np.ndarray:
    rho = gibbs_state(constants, m)
    return np.array([st.mean(c, rho) for c in constants.operators])


def check_feasible(constants: ConstantSet, targets,
                   margin: float = op.FEASIBILITY_MARGIN) -> np.ndarray:
    """Each target must lie strictly between the extreme eigenvalues of its
    constant; boundary targets are rejected (they need infinite multipliers)."""
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (len(constants),):
        raise ValueError(f"expected {len(constants)} targets, got {targets.shape}")
    for c, t in zip(constants.operators, targets):
        vals = np.linalg.eigvalsh(c)
        lo, hi = float(vals[0]), float(vals[-1])
        if not (lo + margin < t < hi - margin):
            raise TargetInfeasibleError(
                f"target {float(t)!r} outside attainable range ({lo:g}, {hi:g})")
    return targets


def solve_multipliers(constants: ConstantSet, target_means,
                      tol: float = op.MEAN_RESIDUAL_TOL,
                      margin: float = op.FEASIBILITY_MARGIN) -> MultiplierVector:
    """Newton iteration on the convex dual, damped by a halving line search,
    for targets more than ``margin`` inside their attainable ranges, in at
    most MAX_NEWTON_ITERATIONS iterates.

    Starts from m = 0 (the maximally mixed state, always interior).  Each
    iterate costs one eigendecomposition of the exponent, which gives ln Z
    and the Gibbs state; ``states.covariance_table`` at that state gives
    the means and the Jacobian of the mean map (the covariance matrix of
    the constants, positive semidefinite).  Near the optimum the predicted
    decrease of phi falls below its round-off, where the sufficient-decrease
    test can no longer judge a step; the full Newton step is then taken.
    """
    targets = check_feasible(constants, target_means, margin)
    n = len(constants)
    ops = np.asarray(constants.operators, dtype=complex)
    # gradient sign convention: d(lnZ)/d(beta) = -h_mean, d(lnZ)/d(gamma_k) = +c_mean
    sign = np.concatenate([[-1.0], np.ones(n - 1)])

    def dual(m_arr):
        log_z, p, vecs = _gibbs_spectrum(constants, MultiplierVector.from_array(m_arr))
        return log_z - float(np.dot(sign * m_arr, targets)), p, vecs

    m_arr = np.zeros(n)
    phi, p, vecs = dual(m_arr)
    for _ in range(op.MAX_NEWTON_ITERATIONS):
        means, cov = st.covariance_table((vecs * p) @ vecs.conj().T, ops)
        residual = means - targets
        if float(np.linalg.norm(residual)) <= tol:
            return MultiplierVector.from_array(m_arr)
        grad = sign * residual
        hess = 0.5 * (sign[:, None] * cov) * sign[None, :]
        # regularize the PSD Hessian slightly, relative to its own scale (near
        # a range edge the covariance is tiny; an absolute shift would stall)
        reg = op.HESSIAN_REG * float(np.trace(hess))
        step = np.linalg.solve(hess + reg * np.eye(n), -grad)
        slope = float(np.dot(grad, step))
        alpha = 1.0
        trial = dual(m_arr + step)
        if -slope > op.PHI_ROUNDOFF * max(1.0, abs(phi)):
            for _ in range(op.MAX_LINE_SEARCH_HALVINGS):
                if trial[0] <= phi + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
                trial = dual(m_arr + alpha * step)
        m_arr = m_arr + alpha * step
        phi, p, vecs = trial
    raise NoConvergenceError(f"multiplier solve did not reach residual {tol:g} "
                             f"in {op.MAX_NEWTON_ITERATIONS} iterations")


def gibbs_identity_residual(constants: ConstantSet, m: MultiplierVector) -> float:
    """|s - (k beta h - k sum gamma_k c_k + k ln Z)| at the Gibbs state."""
    k = constants.units.k_B
    rho = gibbs_state(constants, m)
    s = st.entropy(rho, k=k)
    means = np.array([st.mean(c, rho) for c in constants.operators])
    lz = log_partition_function(constants, m)
    predicted = k * m.beta * means[0] \
        - k * float(np.dot(np.asarray(m.gammas, dtype=float), means[1:])) \
        + k * lz
    return abs(s - predicted)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

NON_EQUILIBRIUM = "NonEquilibrium"
EQUILIBRIUM = "Equilibrium"
STABLE_EQUILIBRIUM = "StableEquilibrium"


def max_entropy_with_means(constants: ConstantSet, targets) -> float:
    """Entropy of the maximum-entropy state with the given mean values.

    Interior targets give the full-rank Gibbs state.  A target pinned at an
    extreme eigenvalue confines the state to that eigenspace; the problem is
    then reduced to the subspace and re-solved for the remaining constants.
    """
    targets = np.asarray(targets, dtype=float)
    ops = list(constants.operators)
    dim = constants.dim
    basis = np.eye(dim, dtype=complex)
    while True:
        reduced = False
        for idx, (c, t) in enumerate(zip(ops, targets)):
            vals, vecs = np.linalg.eigh(c)
            lo, hi = float(vals[0]), float(vals[-1])
            for edge in (lo, hi):
                if abs(t - edge) <= op.FEASIBILITY_MARGIN:
                    keep = np.abs(vals - edge) <= op.EIGENSPACE_TOL * max(1.0, abs(edge))
                    proj = vecs[:, keep]
                    basis = basis @ proj
                    ops = [proj.conj().T @ o @ proj for o in ops]
                    ops.pop(idx)
                    targets = np.delete(targets, idx)
                    reduced = True
                    break
            if reduced:
                break
        if not reduced:
            break
    sub_dim = basis.shape[1]
    if sub_dim == 1 or not ops:
        return 0.0 if sub_dim == 1 else constants.units.k_B * float(np.log(sub_dim))
    sub = constant_set(ops, units=constants.units)
    m = solve_multipliers(sub, targets)
    return st.entropy(gibbs_state(sub, m), k=constants.units.k_B)


def classify(rho, constants: ConstantSet, model: sea.SingleConstituentModel) -> str:
    """NonEquilibrium, Equilibrium, or StableEquilibrium.

    Stability means the state attains the constrained entropy maximum, to
    within STABLE_ENTROPY_TOL: no other state with the same mean values of
    the constants has higher entropy.
    """
    rho = st.validate(rho)
    report = sea.is_equilibrium(rho, model)
    if not report.is_equilibrium:
        return NON_EQUILIBRIUM
    targets = [st.mean(c, rho) for c in constants.operators]
    s_max = max_entropy_with_means(constants, targets)
    s_rho = st.entropy(rho, k=constants.units.k_B)
    if s_rho >= s_max - op.STABLE_ENTROPY_TOL:
        return STABLE_EQUILIBRIUM
    return EQUILIBRIUM
