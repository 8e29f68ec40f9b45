"""State operators: validity rules, entropy, deviations, covariance products.

A state operator is a Hermitian, nonnegative-definite, unit-trace matrix.
Log-dependent quantities of the equation of motion route through the
regular p ln p forms (``rho_log_rho``, ``log_variance``), so singular
states never require ln(rho) on its own.  Where ln(rho) itself is needed
(entropy-rate pairings, the composite reduced log), ``log_operator`` gives
it with eigenvalues floored at ``LOG_FLOOR``.

Covariance products are evaluated in the eigenbasis of rho by
``covariance_table``: with rho = diag(p) every trace is a weighted sum over
the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import operators as op
from .errors import NotHermitianError, NotPositiveError, TraceError

EIG_CLAMP_FLOOR = -1e-10   # eigenvalues in [floor, 0) clamp to 0; below rejects
TRACE_TOL = 1e-6           # |Tr - 1| beyond this rejects instead of renormalizing
LOG_ZERO_CUTOFF = 1e-15    # p <= cutoff short-circuits p ln p and p (ln p)^2 to 0
LOG_FLOOR = 1e-12          # eigenvalues below this make ln(rho) singular; they
                           # count as off the support, and log_operator clamps
                           # them here
PURE_TOL = 1e-10           # spectral weight off the top eigenvalue below this
                           # counts as pure: the exact pure-state branches and
                           # the integrator's purity snap; kept well under the
                           # documented 1e-8 mixing floor


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, StateOperator) else op.as_complex(rho)


def as_state(rho) -> StateOperator:
    """rho itself, or the Hermitian part of a matrix wrapped unvalidated
    (integrator trial points sit slightly off the state set)."""
    if isinstance(rho, StateOperator):
        return rho
    return StateOperator(op.hermitize(rho))


@dataclass(frozen=True)
class SpectralForm:
    """Eigenvalues (descending, clamped to [0, 1]) and eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


@dataclass(frozen=True)
class StateOperator:
    """Validated state operator (use ``validate`` to construct)."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectral(self) -> SpectralForm:
        vals, vecs = np.linalg.eigh(self.matrix)
        order = np.argsort(vals)[::-1]
        vals = np.clip(vals[order].real, 0.0, 1.0)
        return SpectralForm(vals, vecs[:, order])

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues

    def purity(self) -> float:
        return float(np.sum(self.eigenvalues ** 2))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def validate(matrix, herm_tol: float = op.HERMITICITY_TOL) -> StateOperator:
    """Symmetrize, clamp round-off negativity, renormalize, or reject.

    Eigenvalues in [-1e-10, 0) clamp to 0; anything more negative is genuine
    invalidity and raises ``NotPositiveError``.  |Tr - 1| beyond 1e-6 raises
    ``TraceError``.
    """
    m = op.as_complex(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"state operator must be square, got shape {m.shape}")
    if op.herm_defect(m) > herm_tol:
        raise NotHermitianError("state operator is not Hermitian within tolerance")
    m = op.hermitize(m)
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < EIG_CLAMP_FLOOR:
        raise NotPositiveError(f"smallest eigenvalue {vals[0]:.3e} below clamp floor")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"trace {tr!r} too far from 1 to renormalize")
    vals = np.clip(vals, 0.0, None)
    m = (vecs * vals) @ vecs.conj().T
    m = m / float(np.trace(m).real)
    return StateOperator(op.hermitize(m))


def mean(g, rho) -> float:
    """Mean value Tr(rho G) of the observable G."""
    m = _as_matrix(rho)
    g = op.as_complex(g)
    op.require_same_dim(g, m)
    return float(np.trace(m @ g).real)


def variance(g, rho) -> float:
    """Tr(rho G^2) - Tr(rho G)^2 >= 0."""
    m = _as_matrix(rho)
    g = op.as_complex(g)
    op.require_same_dim(g, m)
    return float(np.trace(m @ g @ g).real) - mean(g, rho) ** 2


def _plogp(p: np.ndarray, power: int = 1) -> np.ndarray:
    """p (ln p)^power, short-circuited to 0 at p <= LOG_ZERO_CUTOFF."""
    return p * np.log(np.where(p > LOG_ZERO_CUTOFF, p, 1.0)) ** power


def entropy(rho, k: float = 1.0) -> float:
    """Entropy functional -k sum p_i ln p_i (p ln p -> 0 at p = 0)."""
    return -k * float(np.sum(_plogp(as_state(rho).eigenvalues)))


def rho_log_rho(rho) -> np.ndarray:
    """B = sum_i (p_i ln p_i) |i><i|, the entropy-regular form of rho ln rho.

    Finite for every valid state; the null operator on pure states.
    """
    spec = as_state(rho).spectral
    u = spec.eigenvectors
    return (u * _plogp(spec.eigenvalues)) @ u.conj().T


def regular_log_column(p: np.ndarray):
    """({Delta ln rho, rho}, (ln rho, ln rho)) in the eigenbasis of rho =
    diag(p), from the regular forms: {Delta ln rho, rho} = 2 (B - Tr(B) rho)
    and (ln rho, ln rho) = 2 [sum p (ln p)^2 - (sum p ln p)^2]."""
    plogp = _plogp(p)
    tr_b = float(plogp.sum())
    return np.diag(2.0 * (plogp - tr_b * p)), 2.0 * (float(np.sum(_plogp(p, 2))) - tr_b ** 2)


def log_operator(rho) -> np.ndarray:
    """ln rho by the spectral form, eigenvalues floored at LOG_FLOOR.

    Callers that need a full-rank state check the smallest eigenvalue
    against LOG_FLOOR first.
    """
    spec = as_state(rho).spectral
    u = spec.eigenvectors
    return (u * np.log(np.maximum(spec.eigenvalues, LOG_FLOOR))) @ u.conj().T


def deviation(f, rho) -> np.ndarray:
    """Delta F = F - I Tr(rho F); satisfies Tr(rho Delta F) = 0."""
    m = _as_matrix(rho)
    f = op.as_complex(f)
    op.require_same_dim(f, m)
    return f - np.eye(f.shape[0], dtype=complex) * np.trace(m @ f).real


def covariance_table(p, ops):
    """Means, covariance products and anticommutators of operators given in
    the eigenbasis of rho = diag(p) (``ops`` stacked as (n, d, d)).

    Returns (fbar_a, (F_a, F_b), {Delta F_a, rho}).  In the eigenbasis
    {Delta F, rho}_ij = (p_i + p_j) F_ij - 2 fbar p_i delta_ij, and
    (F_a, F_b) = Tr(F_b {Delta F_a, rho}) is a weighted sum over the spectrum.
    """
    ops = np.asarray(ops)
    means = np.einsum("aii,i->a", ops, p).real
    acomms = (p[:, None] + p[None, :]) * ops - 2.0 * means[:, None, None] * np.diag(p)
    table = np.einsum("aij,bij->ab", acomms, ops.conj()).real
    return means, table, acomms


def in_eigenbasis(rho, ops) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum p of rho and the operators rotated into its eigenbasis."""
    spec = as_state(rho).spectral
    u = spec.eigenvectors
    return spec.eigenvalues, u.conj().T @ np.asarray(ops) @ u


def covariance_product(f, g, rho) -> float:
    """(F, G) = Tr(rho {Delta F, Delta G}): symmetric, positive semidefinite.

    Relates to the variance by (G, G) = 2 var(G).
    """
    f, g = op.as_complex(f), op.as_complex(g)
    op.require_same_dim(f, _as_matrix(rho))
    op.require_same_dim(g, _as_matrix(rho))
    return float(covariance_table(*in_eigenbasis(rho, [f, g]))[1][0, 1])


def covariance_with_log(f, rho) -> float:
    """(F, ln rho) = Tr(F {Delta ln rho, rho}) in the entropy-regular form.

    Finite even when rho is singular; agrees with the direct formula
    Tr(rho {Delta F, Delta ln rho}) on full-rank states.
    """
    f = op.as_complex(f)
    op.require_same_dim(f, _as_matrix(rho))
    p, (f_eig,) = in_eigenbasis(rho, [f])
    return float(np.einsum("ij,ij->", regular_log_column(p)[0], f_eig.conj()).real)


def log_variance(rho) -> float:
    """(ln rho, ln rho) = 2 [sum p (ln p)^2 - (sum p ln p)^2], always finite."""
    return regular_log_column(as_state(rho).eigenvalues)[1]


def distance(rho_a, rho_b) -> float:
    """Frobenius distance (sum_ij |a_ij - b_ij|^2)^(1/2); a metric."""
    a, b = _as_matrix(rho_a), _as_matrix(rho_b)
    op.require_same_dim(a, b)
    return float(np.linalg.norm(a - b, ord="fro"))


# ---------------------------------------------------------------------------
# Constructors for test and scenario states
# ---------------------------------------------------------------------------

def pure_state(vec) -> StateOperator:
    """Projector |psi><psi| onto the (normalized) vector psi."""
    v = np.asarray(vec, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("zero vector cannot define a pure state")
    v = v / norm
    return StateOperator(np.outer(v, v.conj()))


def gibbs_seed(beta: float, h) -> StateOperator:
    """exp(-beta H)/Z via eigendecomposition, max-shifted against overflow."""
    h = op.require_hermitian(h, name="H")
    vals, vecs = np.linalg.eigh(h)
    expo = -beta * vals
    expo -= expo.max()
    w = np.exp(expo)
    w /= w.sum()
    return StateOperator((vecs * w) @ vecs.conj().T)


def random_full_rank(dim: int, seed: int, min_eig: float = 1e-4) -> StateOperator:
    """Deterministic full-rank random state with min eigenvalue >= min_eig."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = x @ x.conj().T
    m /= np.trace(m).real
    eps = min_eig * dim / (1.0 - min_eig * dim) if min_eig * dim < 1.0 else 0.5
    m = (m + eps * np.eye(dim) / dim) / (1.0 + eps)
    return validate(m)


def mix_with_identity(rho, eps: float) -> StateOperator:
    """(1 - eps) rho + eps I/dim for eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {eps}")
    m = _as_matrix(rho)
    dim = m.shape[0]
    return StateOperator(op.hermitize((1.0 - eps) * m + eps * np.eye(dim) / dim))


def random_hermitian(dim: int, rng) -> np.ndarray:
    """Unit-Frobenius-norm random Hermitian matrix (testing utility)."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = op.hermitize(x)
    return h / np.linalg.norm(h, ord="fro")
