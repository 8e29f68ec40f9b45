"""State operators: validity rules, entropy, deviations, covariance products.

A state operator is a Hermitian, nonnegative-definite, unit-trace matrix.
The rule that checks and repairs one has a single body here,
``_check_and_repair``, stacked over (..., d, d): ``validate`` runs it on
user input (``NotPositiveError``, ``TraceError``) and the integrator's
projection on every step (``StateInvalidError`` naming the member).
Log-dependent quantities of the equation of motion route through the
regular p ln p forms (``rho_log_rho``, ``log_variance``), so singular
states never require ln(rho) on its own.  Where ln(rho) itself is needed
(entropy-rate pairings, the composite reduced log), ``log_operator`` gives
it with eigenvalues floored at ``LOG_FLOOR``.  ``gibbs_spectrum`` gives the
weights of a Gibbs state exp(K)/Z and ln Z from one ``eigh`` of K.

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
                           # counts as pure (``is_pure``): the exact pure-state
                           # branches and the integrator's purity snap; kept
                           # well under the documented 1e-8 mixing floor
RANDOM_MIN_EIG = 1e-4      # default eigenvalue floor of ``random_full_rank``


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, StateOperator) else op.as_complex(rho)


def as_state(rho) -> StateOperator:
    """rho itself, or the Hermitian part of a matrix wrapped unvalidated
    (integrator trial points sit slightly off the state set)."""
    if isinstance(rho, StateOperator):
        return rho
    return StateOperator(op.hermitize(rho))


def is_pure(p: np.ndarray) -> np.ndarray:
    """The purity cut: whether a descending spectrum, or each of a (..., d)
    stack, has at most PURE_TOL of its weight off the top eigenvalue."""
    return p[..., 1:].sum(axis=-1) <= PURE_TOL


@dataclass(frozen=True)
class SpectralForm:
    """Eigenvalues (descending, clamped to [0, 1]) and eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class StateOperator:
    """Validated state operator (use ``validate`` to construct)."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def spectral(self) -> SpectralForm:
        """Per member of a (..., d, d) stack: one stacked ``eigh``."""
        vals, vecs = np.linalg.eigh(self.matrix)   # ascending
        return SpectralForm(np.clip(vals[..., ::-1], 0.0, 1.0), vecs[..., ::-1])

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues

    def purity(self) -> float:
        return float(np.sum(self.eigenvalues ** 2))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def _raise_for(bad: np.ndarray, values, cls, message: str) -> None:
    """Raise ``cls`` for the first member that the mask ``bad`` flags, if
    any.  ``message`` is formatted with that member's entry of ``values``.
    In a stack the error names the member by its flat index over the
    leading axes, in the message and as its ``member`` attribute."""
    if not np.count_nonzero(bad):
        return
    k = int(np.flatnonzero(bad)[0])
    err = cls(message.format(float(np.ravel(values)[k]))
              + (f" (member {k})" if bad.ndim else ""))
    err.member = k if bad.ndim else None
    raise err


def _check_and_repair(m: np.ndarray, not_positive, bad_trace, where: str = ""):
    """The validity rule on a Hermitian matrix or on each member of a
    (..., d, d) stack: an eigenvalue below EIG_CLAMP_FLOOR raises
    ``not_positive`` and |Tr - 1| beyond TRACE_TOL raises ``bad_trace``,
    naming the member (``where`` ends the message); otherwise eigenvalues
    in [EIG_CLAMP_FLOOR, 0) clamp to 0 and the trace renormalizes.

    Returns the repaired matrix and the eigendecomposition (ascending
    eigenvalues, as yet unclamped, and eigenvector columns) of ``m``.
    """
    vals, vecs = np.linalg.eigh(m)
    _raise_for(vals[..., 0] < EIG_CLAMP_FLOOR, vals[..., 0], not_positive,
               "eigenvalue {:.3e} below clamp floor" + where)
    tr = np.trace(m, axis1=-2, axis2=-1).real
    _raise_for(np.abs(tr - 1.0) > TRACE_TOL, tr, bad_trace,
               "trace {!r} too far from 1 to renormalize" + where)
    r = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return op.hermitize(r / np.trace(r, axis1=-2, axis2=-1).real[..., None, None]), vals, vecs


def validate(matrix) -> StateOperator:
    """Symmetrize, clamp round-off negativity, renormalize, or reject; a
    ``StateOperator`` is valid already and comes back as it is.

    Square shape and Hermiticity (to ``operators.HERMITICITY_TOL``) are
    checked here; the rest of the rule is ``_check_and_repair``, which the
    integrator's projection shares.  An eigenvalue below EIG_CLAMP_FLOOR
    raises ``NotPositiveError`` and |Tr - 1| beyond TRACE_TOL ``TraceError``.
    """
    if isinstance(matrix, StateOperator):
        return matrix
    m = op.as_complex(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"state operator must be square, got shape {m.shape}")
    if op.herm_defect(m) > op.HERMITICITY_TOL:
        raise NotHermitianError("state operator is not Hermitian within tolerance")
    return StateOperator(_check_and_repair(op.hermitize(m), NotPositiveError, TraceError)[0])


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


def _plogp(p: np.ndarray) -> np.ndarray:
    """p ln p, short-circuited to 0 at p <= LOG_ZERO_CUTOFF."""
    return p * np.log(np.where(p > LOG_ZERO_CUTOFF, p, 1.0))


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
    and (ln rho, ln rho) = 2 [sum p (ln p)^2 - (sum p ln p)^2].  A stack of
    spectra p (..., d) gives (..., d, d) and (...)."""
    log_p = np.log(np.where(p > LOG_ZERO_CUTOFF, p, 1.0))
    plogp = p * log_p
    tr_b = plogp.sum(axis=-1)
    d = p.shape[-1]
    acomm = np.zeros(p.shape + (d,))
    acomm.reshape(*p.shape[:-1], d * d)[..., ::d + 1] = 2.0 * (plogp - tr_b[..., None] * p)
    return acomm, 2.0 * (np.vecdot(plogp, log_p) - tr_b ** 2)


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
    """Means and covariance products of operators given in the eigenbasis of
    rho = diag(p), stacked as (n, d, d) or flattened to rows (n, d^2).  A
    stack of states adds leading axes: p (..., d), ops (..., n, d^2).

    Returns (fbar_a, (F_a, F_b), w) with w_ij = p_i + p_j flattened to
    length d^2.  In the eigenbasis {Delta F, rho} = w F - 2 fbar diag(p),
    so (F_a, F_b) = Tr(F_b {Delta F_a, rho}) = sum_ij w_ij F_a,ij
    conj(F_b,ij) - 2 fbar_a fbar_b.
    """
    d = p.shape[-1]
    f = np.asarray(ops).reshape(*p.shape[:-1], -1, d * d)
    w = (p[..., :, None] + p[..., None, :]).reshape(*p.shape[:-1], 1, d * d)
    means = (f[..., ::d + 1].real @ p[..., None])[..., 0]
    table = ((f * w) @ f.conj().swapaxes(-1, -2)).real \
        - 2.0 * means[..., :, None] * means[..., None, :]
    return means, table, w[..., 0, :]


def in_eigenbasis(rho, ops) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum p of rho and the operators rotated into its eigenbasis."""
    spec = as_state(rho).spectral
    u = spec.eigenvectors
    return spec.eigenvalues, u.conj().T @ np.asarray(ops) @ u


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


def gibbs_spectrum(exponent: np.ndarray):
    """ln Z, the weights and their eigenvectors of exp(K)/Z, from one eigh of
    the Hermitian exponent K, max-shifted against overflow."""
    vals, vecs = np.linalg.eigh(exponent)
    w = np.exp(vals - vals[-1])
    return float(vals[-1] + np.log1p(np.sum(w[:-1]))), w / np.sum(w), vecs


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
    """exp(-beta H)/Z, by ``gibbs_spectrum``."""
    _, w, vecs = gibbs_spectrum(-beta * op.require_hermitian(h, name="H"))
    return StateOperator((vecs * w) @ vecs.conj().T)


def random_full_rank(dim: int, seed: int, min_eig: float = RANDOM_MIN_EIG) -> StateOperator:
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
