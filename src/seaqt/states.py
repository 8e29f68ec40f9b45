"""State operators: validity rules, entropy, covariance products.

A state operator is a Hermitian, nonnegative-definite, unit-trace matrix.
``StateOperator``, the validated type, lives at the library's edges;
inside, the library works on plain arrays, and a public function that
takes either enters through ``matrix_and_spectrum``.  Only this module
tells the two apart.
The rule that checks and repairs one has a single body here,
``_check_and_repair``, stacked over (..., d, d): ``validate`` runs it on
user input (``NotPositiveError``, ``TraceError``) and the integrator's
projection on every step (``StateInvalidError`` naming the member).  It
first tries a certificate that needs no eigendecomposition: the trace
within TRACE_TOL of 1, a Cholesky factorization (positive definite), and
Tr - ||rho||_F above PURE_TOL (weight off the top eigenvalue, so no purity
snap is due).  A member that passes is repaired by m / Tr m; only when one
fails does the rule run ``eigh``, clamp and rebuild.
Log-dependent quantities of the equation of motion route through the
regular p ln p forms (``rho_log_rho``, ``regular_log_spectrum``), so
singular states never require ln(rho) on its own.  Where ln(rho) itself is
needed (entropy-rate pairings, the composite reduced log),
``spectral_log`` gives it with eigenvalues floored at ``LOG_FLOOR``.
``spectral_matrices`` rebuilds U diag(w) U^dagger for several weight
vectors from one product.  ``gibbs_spectrum`` gives the weights of a Gibbs
state exp(K)/Z and ln Z from one ``eigh`` of K.

Covariance products (F, G) = Tr(rho {Delta F, Delta G}) have one body,
``covariance``, in the original basis and in product form: with the
identity, the operators F_a and their symmetrized products {F_a, F_b}/2
at hand (``operator_products``), the trace, the means and the table at
rho are real dot products (``real_dots``), O(n^2 d^2) per state, with no
d x d product.  A single system caches its operator products on the
model; the composite factors, whose V(J) and W(J) change with the state,
build theirs per call at d_J.  The Gram conditioning probe and the Newton
Hessian of the maxent dual read the body through ``covariance_table``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import operators as op
from .errors import NotPositiveError, TraceError


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, StateOperator) else op.as_complex(rho)


def matrix_and_spectrum(rho):
    """A StateOperator's own matrix and cached spectral form, or the
    Hermitian part of an array or (..., d, d) stack (an integrator trial
    point sits slightly off the state set) and its spectral form."""
    if isinstance(rho, StateOperator):
        return rho.matrix, rho.spectral
    m = op.hermitize(rho)
    return m, spectral_form(m)


def is_pure(p: np.ndarray) -> np.ndarray:
    """The purity cut: whether a descending spectrum, or each of a (..., d)
    stack, has at most PURE_TOL of its weight off the top eigenvalue; the
    exact pure-state branches and the integrator's purity snap read it."""
    return p[..., 1:].sum(axis=-1) <= op.PURE_TOL


def is_singular(p: np.ndarray) -> np.ndarray:
    """The singular cut: whether a descending spectrum, or each of a (..., d)
    stack, has its smallest eigenvalue below LOG_FLOOR, where ln(rho) is
    undefined (a NaN eigenvalue counts as singular)."""
    return ~(p[..., -1] >= op.LOG_FLOOR)


@dataclass(frozen=True)
class SpectralForm:
    """Eigenvalues (descending, clamped to [0, 1]) and eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_form(m: np.ndarray) -> SpectralForm:
    """The spectral form of a Hermitian matrix, per member of a (..., d, d)
    stack: one stacked ``eigh``."""
    vals, vecs = np.linalg.eigh(m)   # ascending
    return SpectralForm(vals[..., ::-1].clip(0.0, 1.0), vecs[..., ::-1])


@dataclass(frozen=True)
class StateOperator:
    """Validated state operator (use ``validate`` to construct)."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def spectral(self) -> SpectralForm:
        return spectral_form(self.matrix)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectral.eigenvalues

    def purity(self) -> float | np.ndarray:
        return _per_member(np.sum(self.eigenvalues ** 2, axis=-1))


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


def _certified(m: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Whether a Hermitian matrix, or each member of a (..., d, d) stack, is
    provably a valid state up to the trace renormalization: |Tr - 1| within
    TRACE_TOL, a Cholesky factorization (so m is positive definite) and
    Tr - ||m||_F > PURE_TOL.  As p_max <= ||m||_F, the last bounds the weight
    off the top eigenvalue, Tr - p_max, above the purity cut."""
    ok = np.array((np.abs(tr - 1.0) <= op.TRACE_TOL)
                  & (tr - op.frobenius_norms(m) > op.PURE_TOL))
    if not ok.any():
        return ok
    try:
        np.linalg.cholesky(m if ok.all() else m[ok])
        return ok
    except np.linalg.LinAlgError:
        if ok.ndim == 0:
            return ~ok
    # a stacked factorization fails as a whole: find the members one by one
    for i in map(tuple, np.argwhere(ok)):
        try:
            np.linalg.cholesky(m[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return ok


def _check_and_repair(m: np.ndarray, not_positive, bad_trace, where: str = ""):
    """The validity rule on a Hermitian matrix or on each member of a
    (..., d, d) stack: an eigenvalue below EIG_CLAMP_FLOOR raises
    ``not_positive`` and |Tr - 1| beyond TRACE_TOL raises ``bad_trace``,
    naming the member (``where`` ends the message); otherwise eigenvalues
    in [EIG_CLAMP_FLOOR, 0) clamp to 0 and the trace renormalizes.

    The certificate ``_certified`` proves most matrices valid without an
    eigendecomposition, and their repair is m / Tr m.  Only when a member
    fails it does the rule run ``eigh``, on the whole stack, and rebuild
    every member from its clamped spectrum.

    Returns the repaired matrix, the mask of the members that failed the
    certificate, and the eigendecomposition of ``m`` (ascending eigenvalues,
    as yet unclamped, and eigenvector columns), or None when every member
    passed.
    """
    tr = np.trace(m, axis1=-2, axis2=-1).real
    uncertified = ~_certified(m, tr)
    if not uncertified.any():
        return m / tr[..., None, None], uncertified, None
    vals, vecs = np.linalg.eigh(m)
    _raise_for(~(vals[..., 0] >= op.EIG_CLAMP_FLOOR), vals[..., 0], not_positive,
               "eigenvalue {:.3e} below clamp floor" + where)
    _raise_for(~(np.abs(tr - 1.0) <= op.TRACE_TOL), tr, bad_trace,
               "trace {!r} too far from 1 to renormalize" + where)
    r = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    r = op.hermitize(r / np.trace(r, axis1=-2, axis2=-1).real[..., None, None])
    return r, uncertified, (vals, vecs)


def validate(matrix) -> StateOperator:
    """Symmetrize, clamp round-off negativity, renormalize, or reject; a
    ``StateOperator`` is valid already and comes back as it is.

    Square shape and Hermiticity are checked by ``operators.require_hermitian``;
    the rest of the rule is ``_check_and_repair``, which the integrator's
    projection shares.  An eigenvalue below EIG_CLAMP_FLOOR raises
    ``NotPositiveError`` and |Tr - 1| beyond TRACE_TOL ``TraceError``.
    """
    if isinstance(matrix, StateOperator):
        return matrix
    m = op.require_hermitian(matrix, name="state operator")
    return StateOperator(_check_and_repair(m, NotPositiveError, TraceError)[0])


def mean(g, rho) -> float:
    """Mean value Tr(rho G) of the observable G."""
    m = _as_matrix(rho)
    g = op.as_complex(g)
    op.require_same_dim(g, m)
    return float(np.trace(m @ g).real)


def _plogp(p: np.ndarray) -> np.ndarray:
    """p ln p, short-circuited to 0 at p <= LOG_ZERO_CUTOFF."""
    return p * np.log(np.where(p > op.LOG_ZERO_CUTOFF, p, 1.0))


def _per_member(values: np.ndarray):
    """A float for a single state, the (...) array for a stack."""
    return float(values) if values.ndim == 0 else values


def spectral_matrices(u: np.ndarray, *weights: np.ndarray) -> np.ndarray:
    """U diag(w) U^dagger for each weight vector w, from one product, as one
    (len(weights), ..., d, d) array; per member of a stack, with u (..., d,
    d) and each w (..., d)."""
    # the result is allocated before its factors: the other order made
    # glibc's malloc trim and refault the heap on every d = 64 call
    out = np.empty((len(weights), *u.shape), dtype=complex)
    left = np.empty_like(out)
    for i, w in enumerate(weights):
        np.multiply(u, w[..., None, :], out=left[i])
    return np.matmul(left, u.conj().swapaxes(-1, -2), out=out)


def _spectral_function(spec: SpectralForm, f) -> np.ndarray:
    """sum_i f(p_i) |i><i| over a spectral form, per member of a stack."""
    return spectral_matrices(spec.eigenvectors, f(spec.eigenvalues))[0]


def entropy(rho, k: float = 1.0) -> float | np.ndarray:
    """Entropy functional -k sum p_i ln p_i (p ln p -> 0 at p = 0): a float,
    or one value per member of a stack."""
    return _per_member(-k * np.sum(_plogp(matrix_and_spectrum(rho)[1].eigenvalues), axis=-1))


def rho_log_rho(rho) -> np.ndarray:
    """B = sum_i (p_i ln p_i) |i><i|, the entropy-regular form of rho ln rho.

    Finite for every valid state; the null operator on pure states.
    """
    return _spectral_function(matrix_and_spectrum(rho)[1], _plogp)


def regular_log_spectrum(p: np.ndarray):
    """(p ln p, (ln rho, ln rho)) of a spectrum p, or of each of a (..., d)
    stack, from the regular forms: B = rho ln rho has the spectrum p ln p,
    and (ln rho, ln rho) = 2 [sum p (ln p)^2 - (sum p ln p)^2]."""
    log_p = np.log(np.where(p > op.LOG_ZERO_CUTOFF, p, 1.0))
    plogp = p * log_p
    return plogp, 2.0 * (np.vecdot(plogp, log_p) - plogp.sum(axis=-1) ** 2)


def log_operator(rho) -> np.ndarray:
    """ln rho by ``spectral_log``; callers that need full rank check first."""
    return spectral_log(matrix_and_spectrum(rho)[1])


def spectral_log(spec: SpectralForm) -> np.ndarray:
    """ln rho from its spectral form, eigenvalues floored at LOG_FLOOR, per
    member of a stack."""
    return _spectral_function(spec, lambda p: np.log(np.maximum(p, op.LOG_FLOOR)))


def entropy_rate(spec: SpectralForm, rhs, k: float = 1.0) -> float | np.ndarray:
    """-k Tr(rhs ln rho), the entropy rate of a velocity ``rhs`` at the state
    of spectral form ``spec``, with ln rho from ``spectral_log``; a float, or
    one value per member of a stack.  Exact on full-rank states."""
    return _per_member(-k * np.trace(rhs @ spectral_log(spec), axis1=-2, axis2=-1).real)


def _real_rows(a: np.ndarray) -> np.ndarray:
    """The (..., d, d) complex blocks of ``a`` as real rows of length 2 d^2:
    the dot product of two rows is Re <X, Y>_F = Re Tr(X^dagger Y)."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(np.float64).reshape(*a.shape[:-2], -1)


@lru_cache(maxsize=None)
def _pairs(n: int):
    """The pairs a <= b of n operators in ``np.triu_indices`` order, and the
    (n, n) map from (a, b) and (b, a) to their place in it; read-only, as
    a handful of n occur."""
    a, b = np.triu_indices(n)
    place = np.empty((n, n), dtype=np.intp)
    place[a, b] = place[b, a] = np.arange(len(a))
    for x in (a, b, place):
        x.flags.writeable = False
    return a, b, place


def operator_products(ops) -> np.ndarray:
    """The identity, the operators F_a, (n, ..., d, d) shared by a stack ((n,
    d, d)) or one per member, and their symmetrized products {F_a, F_b}/2
    for a <= b (in ``np.triu_indices`` order), as one complex (1 + n (n + 3)
    / 2, ..., d, d) array: the operands of ``covariance``.  One product per
    pair."""
    ops = np.asarray(ops, dtype=complex)
    n = len(ops)
    a, b, _ = _pairs(n)
    out = np.empty((1 + n + len(a), *ops.shape[1:]), dtype=complex)
    out[0] = np.eye(ops.shape[-1])
    out[1:n + 1] = ops
    prod = ops[a] @ ops[b]
    # (F_a F_b)^dagger = F_b F_a for Hermitian operators
    np.add(prod, prod.conj().swapaxes(-1, -2), out=out[n + 1:])
    out[n + 1:] *= 0.5
    return out


def real_dots(a: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Re <A, F_i>_F = Re Tr(A^dagger F_i) of a matrix, or of each member of
    a (..., d, d) stack, against each of ``ops``, shared (r, d, d) or one
    per member (r, ..., d, d): a (..., r) array.  For Hermitian A and F it
    is Tr(A F)."""
    x, y = _real_rows(a), _real_rows(ops)
    if y.ndim == 2:
        return (x.reshape(-1, x.shape[-1]) @ y.T).reshape(*x.shape[:-1], len(y))
    dots = np.vecdot(x, y)
    return dots.transpose(*range(1, dots.ndim), 0)


def covariance(dots: np.ndarray, n: int):
    """The one covariance body: the means fbar_a = Tr(rho F_a) and the table
    (F_a, F_b) = Tr(rho {Delta F_a, Delta F_b}) = 2 Tr(rho {F_a, F_b}/2) -
    2 fbar_a fbar_b of n operators at rho = A / Tr A, from the ``real_dots``
    (..., r) of a Hermitian A, or of each member of a stack, against their
    ``operator_products``, whose first, Tr A, normalizes the rest: O(n^2
    d^2) per member, in one real product."""
    dots = dots[..., 1:] / dots[..., :1]
    means = dots[..., :n]
    place = _pairs(n)[2]
    return means, 2.0 * (dots[..., n + place] - means[..., :, None] * means[..., None, :])


def covariance_table(rho, ops):
    """The means fbar_a = Tr(rho F_a) of the Hermitian ``ops`` and their table
    (F_a, F_b) = Tr(rho {Delta F_a, Delta F_b}), by ``covariance``.  ``rho``
    is a state, a matrix or a (..., d, d) stack, and ``ops`` (n, d, d) are
    shared by its members or (..., n, d, d) per member."""
    ops = np.asarray(ops, dtype=complex)
    ops = ops if ops.ndim == 3 else np.moveaxis(ops, -3, 0)
    return covariance(real_dots(_as_matrix(rho), operator_products(ops)), len(ops))


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


def random_full_rank(dim: int, seed: int, min_eig: float = op.RANDOM_MIN_EIG) -> StateOperator:
    """Deterministic full-rank random state with min eigenvalue >= min_eig,
    for 0 <= min_eig < 1/dim (else ``ValueError``)."""
    if not 0.0 <= min_eig * dim < 1.0:
        raise ValueError(f"min_eig must be in [0, 1/dim) = [0, {1 / dim:g}), got {min_eig}")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = x @ x.conj().T
    m /= np.trace(m).real
    eps = min_eig * dim / (1.0 - min_eig * dim)
    m = (m + eps * np.eye(dim) / dim) / (1.0 + eps)
    return validate(m)


def mix_with_identity(rho, eps: float) -> StateOperator:
    """(1 - eps) rho + eps I/dim for eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {eps}")
    m = _as_matrix(rho)
    dim = m.shape[0]
    return StateOperator(op.hermitize((1.0 - eps) * m + eps * np.eye(dim) / dim))
