"""Correctness checks the benchmark applies to the program's outputs.

Every reference value here is computed by the benchmark itself with plain
numpy (its own eigendecompositions, partial traces, unitary propagation and
maximum-entropy solve), or is a property the steepest-entropy-ascent method
must have.  Nothing is compared against a stored copy of an earlier output.

A check is a named scalar ``measured`` against a ``tolerance``; it passes
when ``measured <= tolerance`` and its margin is ``tolerance - measured``.
Every quantity is in the program's default units (k = hbar = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRACE_TOL = 1e-10          # trace at every sample against the first
MEAN_TOL = 1e-8            # conserved means, times max(1, largest |op| entry)
ENTROPY_DROP_TOL = 1e-10   # entropy drop between consecutive samples
G_TOL = 1e-12              # how far below 0 an entropy production rate may read
RATE_TOL = 1e-8            # rate identity, relative
RISE_TOL = 1e-9            # least entropy rise over a trajectory
ENTROPY_MAX_TOL = 1e-9     # final entropy above the maximum-entropy bound
PRODUCT_TOL = 1e-8         # distance from the product of the reduced states
PURITY_TOL = 1e-9          # purity deficit of a pure state
GAP_TOL = 1e-6             # distance from the exact unitary motion
EQUILIBRIUM_TOL = 1e-9     # equilibrium means and state
WEIGHT_TOL = 1e-12         # ensemble weights and their uncertainty
MAXENT_WEIGHT_TOL = 1e-9   # maximum-uncertainty weights
MAXENT_SOLVE_TOL = 1e-12   # gradient of the benchmark's own maxent solve


@dataclass(frozen=True)
class Check:
    name: str
    tolerance: float
    measured: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.measured) and self.measured <= self.tolerance)

    @property
    def margin(self) -> float:
        return self.tolerance - self.measured


# ---------------------------------------------------------------------------
# Own linear algebra
# ---------------------------------------------------------------------------

def herm(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().T)


def entropy(m) -> float:
    """-sum p ln p over the spectrum, with p ln p = 0 at p <= 0."""
    p = np.linalg.eigvalsh(herm(m))
    p = p[p > 0.0]
    return -float(np.sum(p * np.log(p)))


def log_matrix(m) -> np.ndarray:
    """ln(rho) of a full-rank state from its own eigendecomposition."""
    p, u = np.linalg.eigh(herm(m))
    if p[0] <= 0.0:
        raise ValueError(f"log of a singular state (smallest eigenvalue {p[0]:.3e})")
    return (u * np.log(p)) @ u.conj().T


def mean(op, m) -> float:
    return float(np.trace(np.asarray(m) @ np.asarray(op)).real)


def reduce_to(m, dims, j: int) -> np.ndarray:
    """Reduced state of tensor factor j (leftmost factor slowest-varying)."""
    n = len(dims)
    t = np.asarray(m).reshape(list(dims) + list(dims))
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows = list(letters[:n])
    cols = list(letters[n:2 * n])
    for i in range(n):
        if i != j:
            cols[i] = rows[i]
    spec = "".join(rows) + "".join(cols) + "->" + rows[j] + cols[j]
    return np.einsum(spec, t)


def kron_all(factors) -> np.ndarray:
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def unitary(h, t: float) -> np.ndarray:
    e, v = np.linalg.eigh(herm(h))
    return (v * np.exp(-1j * e * t)) @ v.conj().T


def maxent_entropy(features, targets) -> float:
    """Largest entropy of a distribution p over len(features[0]) levels with
    sum_i p_i features[a][i] = targets[a] for every a.

    Newton iteration on the convex dual ln sum_i exp(-lam . f_i) + lam . c;
    at the optimum the dual value is the entropy.
    """
    f = np.asarray(features, dtype=float)          # (n_constraints, n_levels)
    c = np.asarray(targets, dtype=float)
    lam = np.zeros(f.shape[0])

    def dual(lam_):
        x = -lam_ @ f
        top = x.max()
        return top + np.log(np.sum(np.exp(x - top))) + lam_ @ c

    value = dual(lam)
    for _ in range(200):
        x = -lam @ f
        p = np.exp(x - x.max())
        p /= p.sum()
        grad = c - f @ p
        if float(np.abs(grad).max()) <= MAXENT_SOLVE_TOL:
            break
        centred = f - (f @ p)[:, None]
        hess = (centred * p) @ centred.T
        step = np.linalg.solve(hess + 1e-14 * np.eye(len(lam)), -grad)
        decrease = -float(grad @ step)
        alpha = 1.0
        # damp by halving while the predicted decrease is resolvable in the
        # dual value; below round-off the full Newton step converges
        while decrease > 1e-12 * max(1.0, abs(value)) and alpha > 1e-12:
            if dual(lam + alpha * step) <= value - 1e-4 * alpha * decrease:
                break
            alpha *= 0.5
        lam = lam + alpha * step
        value = dual(lam)
    if float(np.abs(grad).max()) > MAXENT_SOLVE_TOL:
        raise RuntimeError("maximum-entropy reference solve did not converge")
    return float(value)


# ---------------------------------------------------------------------------
# Trajectory checks
# ---------------------------------------------------------------------------

def conserved(name: str, values, tol: float) -> Check:
    """Largest departure of a recorded quantity from its first value."""
    v = np.asarray(values, dtype=float)
    return Check(name, tol, float(np.abs(v - v[0]).max()))


def nondecreasing(name: str, values) -> Check:
    """Largest drop from one sample to the next."""
    v = np.asarray(values, dtype=float)
    drop = float(np.max(-np.diff(v), initial=0.0))
    return Check(name, ENTROPY_DROP_TOL, max(0.0, drop))


def nonnegative(name: str, values) -> Check:
    v = np.asarray(values, dtype=float)
    return Check(name, G_TOL, max(0.0, -float(v.min())))


def mean_tol(op) -> float:
    return MEAN_TOL * max(1.0, float(np.abs(op).max()))


def trajectory_invariants(prefix: str, states, ops) -> tuple[list[Check], np.ndarray]:
    """Trace and the means of ``ops`` conserved at every sample, and the
    entropy (own spectrum) non-decreasing from sample to sample.

    Returns the checks and the own entropy series.
    """
    states = [np.asarray(s) for s in states]
    checks = [conserved(f"{prefix}.trace_conserved",
                        [np.trace(s).real for s in states], TRACE_TOL)]
    for i, op in enumerate(ops):
        checks.append(conserved(f"{prefix}.mean{i}_conserved",
                                [mean(op, s) for s in states], mean_tol(op)))
    s = np.array([entropy(m) for m in states])
    checks.append(nondecreasing(f"{prefix}.entropy_nondecreasing", s))
    return checks, s


def rate_identity(name: str, g_program: float, rhs, rho) -> Check:
    """The program's entropy production rate against -Tr(rho_dot ln rho),
    with ln rho from the benchmark's own eigendecomposition."""
    own = -float(np.trace(np.asarray(rhs) @ log_matrix(rho)).real)
    return Check(name, RATE_TOL, abs(g_program - own) / max(1.0, abs(own)))


def entropy_bounds(prefix: str, s_initial: float, s_final: float,
                   s_max: float) -> list[Check]:
    """Final entropy strictly above the initial one (by at least RISE_TOL)
    and no higher than the maximum entropy compatible with the means."""
    return [Check(f"{prefix}.entropy_rises", -RISE_TOL, s_initial - s_final),
            Check(f"{prefix}.entropy_below_max", ENTROPY_MAX_TOL, s_final - s_max)]


def product_distance(name: str, states, dims) -> Check:
    """Largest Frobenius distance of a state from the product of its own
    reduced states."""
    worst = 0.0
    for m in states:
        prod = kron_all([reduce_to(m, dims, j) for j in range(len(dims))])
        worst = max(worst, float(np.linalg.norm(np.asarray(m) - prod)))
    return Check(name, PRODUCT_TOL, worst)


def unitary_motion(prefix: str, times, states, rho0, h) -> list[Check]:
    """A pure state must stay pure and follow exp(-iHt) rho0 exp(iHt)."""
    deficit = 0.0
    gap = 0.0
    rho0 = np.asarray(rho0)
    for t, m in zip(times, states):
        m = np.asarray(m)
        deficit = max(deficit, 1.0 - float(np.trace(m @ m).real))
        u = unitary(h, t)
        gap = max(gap, float(np.linalg.norm(m - u @ rho0 @ u.conj().T)))
    return [Check(f"{prefix}.purity_deficit", PURITY_TOL, deficit),
            Check(f"{prefix}.unitary_gap", GAP_TOL, gap)]


# ---------------------------------------------------------------------------
# Equilibrium and ensemble checks
# ---------------------------------------------------------------------------

def gibbs_from_multipliers(constants, multipliers) -> np.ndarray:
    """exp(-beta H + sum gamma_k C_k)/Z from the returned multipliers."""
    beta, gammas = multipliers[0], multipliers[1:]
    x = -beta * np.asarray(constants[0], dtype=complex)
    for g, c in zip(gammas, constants[1:]):
        x = x + g * np.asarray(c, dtype=complex)
    e, v = np.linalg.eigh(herm(x))
    w = np.exp(e - e.max())
    w /= w.sum()
    return (v * w) @ v.conj().T


def equilibrium_result(prefix: str, constants, targets, multipliers, means,
                       state) -> list[Check]:
    """Returned mean values and state against the Gibbs state the benchmark
    builds itself from the returned multipliers, and the means against the
    targets they were solved for."""
    own = gibbs_from_multipliers(constants, multipliers)
    own_means = np.array([mean(c, own) for c in constants])
    return [Check(f"{prefix}.means_match", EQUILIBRIUM_TOL,
                  float(np.abs(np.asarray(means) - own_means).max())),
            Check(f"{prefix}.gibbs_rebuilt", EQUILIBRIUM_TOL,
                  float(np.linalg.norm(own - np.asarray(state)))),
            Check(f"{prefix}.meets_targets", EQUILIBRIUM_TOL,
                  float(np.abs(own_means - np.asarray(targets)).max()))]


def ensemble_evolution(prefix: str, weights0, states0, weights1, states1,
                       ops) -> list[Check]:
    """Weights and statistical uncertainty -sum w ln w unchanged by the
    evolution; the expected value of every operator in ``ops`` conserved."""
    w0 = np.asarray(weights0, dtype=float)
    w1 = np.asarray(weights1, dtype=float)
    if w0.shape != w1.shape:
        return [Check(f"{prefix}.weights_unchanged", WEIGHT_TOL, float("inf"))]
    unc0 = -float(np.sum(w0 * np.log(w0)))
    unc1 = -float(np.sum(w1 * np.log(w1)))
    out = [Check(f"{prefix}.weights_unchanged", WEIGHT_TOL, float(np.abs(w1 - w0).max())),
           Check(f"{prefix}.uncertainty_unchanged", WEIGHT_TOL, abs(unc1 - unc0))]
    for i, op in enumerate(ops):
        e0 = float(sum(w * mean(op, s) for w, s in zip(w0, states0)))
        e1 = float(sum(w * mean(op, s) for w, s in zip(w1, states1)))
        out.append(Check(f"{prefix}.expected_mean{i}_conserved", mean_tol(op), abs(e1 - e0)))
    return out


def maxent_weights(prefix: str, weights, energies, target: float) -> list[Check]:
    """Maximum-uncertainty weights are log-linear in the member energies
    (ln w_n = a - b E_n) and meet the expected-energy target."""
    w = np.asarray(weights, dtype=float)
    e = np.asarray(energies, dtype=float)
    if w.shape != e.shape or (w <= 0).any():
        return [Check(f"{prefix}.log_linear", MAXENT_WEIGHT_TOL, float("inf"))]
    a = np.column_stack([np.ones_like(e), e])
    coef, *_ = np.linalg.lstsq(a, np.log(w), rcond=None)
    misfit = float(np.abs(a @ coef - np.log(w)).max())
    return [Check(f"{prefix}.log_linear", MAXENT_WEIGHT_TOL, misfit),
            Check(f"{prefix}.meets_target", MAXENT_WEIGHT_TOL, abs(float(w @ e) - target)),
            Check(f"{prefix}.normalised", WEIGHT_TOL, abs(float(w.sum()) - 1.0))]
