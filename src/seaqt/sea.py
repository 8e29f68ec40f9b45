"""Steepest-entropy-ascent equation of motion for a single constituent.

The dissipative term is the anticommutator {D, rho} of an operator-valued
Gram determinant whose first row holds the deviation operators
(Delta ln rho, Delta H, Delta X, ...) and whose remaining rows are scalar
covariance products of the generators against those same columns.  By the
Schur complement on the generator block G = [(F_a, F_b)] that determinant
is the projection form

    {D, rho} = det G [{Delta ln rho, rho} - sum_a beta_a {Delta F_a, rho}],
    G beta = (F, ln rho),

and the entropy-production determinant is g = det G [(ln rho, ln rho) -
(F, ln rho)^T beta] >= 0.  ``dissipator_kernel`` evaluates both in the
eigenbasis of rho, where every trace is a weighted sum over the spectrum;
the composite module calls the same kernel on its stacked reduced states.
Only det G and det G beta enter, and Cramer's rule gives them from one stacked
determinant, det G beta_a = det(G with column a replaced by (F, ln rho)):
the adjugate of G times the pairs, which is exactly the cofactor expansion
of the operator-valued determinant.  It is a polynomial in the Gram
entries, so a singular G (a generator affine in the others) needs no
least-squares solve and gives a round-off-level term.

The log column enters through the entropy-regular p ln p forms, so singular
states need no eigenvalue flooring: {Delta ln rho, rho} = 2 (B - Tr(B) rho)
with B = rho ln rho = diag(p ln p) in the eigenbasis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import operators as op
from . import states as st
from .errors import (DimensionMismatchError, NonCommutingGeneratorError,
                     NonPositiveTauError)
from .operators import UnitSystem

GRAM_CONDITION_WARN = 1e8
SPAN_RESIDUAL_TOL = 1e-9
EQUILIBRIUM_TOL = 1e-9


class GramConditionWarning(UserWarning):
    """Generator Gram matrix is near-degenerate at the probed state."""


@dataclass(frozen=True)
class SingleConstituentModel:
    """Hamiltonian, non-Hamiltonian generators, and relaxation time tau.

    The generators are dimensionless Hermitian operators, each commuting
    with H.  The scenario schema requires tau, though the field defaults
    to 1.0: its physical value is an open problem, so a scenario always
    states it.
    """

    H: np.ndarray
    generators: tuple = ()
    tau: float = 1.0
    units: UnitSystem = field(default_factory=UnitSystem)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    def operator_list(self) -> list[np.ndarray]:
        """The scalar-row operators of the dissipative determinant: H, X, ..., Y."""
        return [self.H, *self.generators]


def validate_model(model: SingleConstituentModel) -> SingleConstituentModel:
    """Check Hermiticity, commutation and tau; warn on near-degenerate Gram.

    Returns the model with symmetrized operators.  Commutation is judged by
    ``operators.commutation_check``.  The Gram condition number of the
    generators is probed at rho = I/dim and a warning is issued above
    GRAM_CONDITION_WARN (duplicate generators degrade gracefully to a
    round-off-level dissipator, but silence would hide the degeneracy).
    """
    if not model.tau > 0:
        raise NonPositiveTauError(f"tau must be positive, got {model.tau}")
    h = op.require_hermitian(model.H, name="H")
    gens = []
    for i, x in enumerate(model.generators):
        x = op.require_hermitian(x, name=f"generator {i}")
        commutes, defect = op.commutation_check(x, h)
        if not commutes:
            raise NonCommutingGeneratorError(
                f"generator {i} does not commute with H (defect {defect:.3e})")
        gens.append(x)
    validated = replace(model, H=h, generators=tuple(gens))
    cond = gram_condition_number(st.StateOperator(np.eye(h.shape[0]) / h.shape[0]),
                                 validated)
    if cond > GRAM_CONDITION_WARN:
        warnings.warn(
            f"generator Gram matrix at I/dim has condition number {cond:.3e}",
            GramConditionWarning, stacklevel=2)
    return validated


def gram_condition_number(rho, model: SingleConstituentModel) -> float:
    """Condition number of the generator Gram block [(F_a, F_b)] at rho."""
    _, table, _ = st.covariance_table(*st.in_eigenbasis(rho, model.operator_list()))
    return float(np.linalg.cond(table))


def dissipator_kernel(p: np.ndarray, u: np.ndarray, ops, log_column=None):
    """({D, rho}, g) of the operator-valued Gram determinant, in projection form.

    ``p, u`` is the spectrum of rho (or of the reduced state rho(J)), ``ops``
    the generator operators F_a, and ``log_column`` the pair
    ({Delta L, rho} in the eigenbasis, (L, L)) of the log column L.  With
    ``log_column=None`` the first operator is L and enters like the others.
    With G the Gram matrix of the generators and G beta = (F, L):

        {D, rho} = det G [{Delta L, rho} - sum_a beta_a {Delta F_a, rho}]
        g        = det G [(L, L) - (F, L)^T beta]

    the Schur-complement form of the determinant.  Only det G and
    det G beta enter, and Cramer's rule gives both from one stacked
    determinant: det G beta_a = det G_a, with G_a the Gram matrix whose
    column a is replaced by (F, L).  That is the adjugate of G applied to
    the pairs, a polynomial in the Gram entries, so it stays continuous
    through singular G: a degenerate generator set gives a round-off-level
    term, with no least-squares solve and no error.

    The rotated operators are laid out as rows of length d^2, so that in
    the eigenbasis {Delta F_a, rho} = (p_i + p_j) F_a - 2 fbar_a diag(p),
    and the means, the Gram table (``states.covariance_table``) and the
    pairs are a few matrix products.  A stack of states adds leading axes:
    p (..., d), u (..., d, d) and the log column ((..., d, d), (...)); the
    operators (n, d, d) are shared, or per member with shape (..., n, d, d)
    (the composite law's reduced operators), and g has the stack's shape.
    """
    d = p.shape[-1]
    batch = p.shape[:-1]
    uh = u.conj().swapaxes(-1, -2)
    f = uh[..., None, :, :] @ np.asarray(ops) @ u[..., None, :, :]
    f = f.reshape(*f.shape[:-2], d * d)
    means, table, w = st.covariance_table(p, f)
    if log_column is None:
        log_var, pairs, gram = table[..., 0, 0], table[..., 1:, 0], table[..., 1:, 1:]
        log_f, log_mean, f, means = f[..., 0, :], means[..., 0], f[..., 1:, :], means[..., 1:]
        log_acomm = w * log_f
        log_acomm[..., ::d + 1] -= 2.0 * log_mean[..., None] * p
    else:
        log_acomm, log_var = log_column[0].reshape(*batch, d * d), log_column[1]
        pairs, gram = (f.conj() @ log_acomm[..., None])[..., 0].real, table
    n = pairs.shape[-1]
    stack = np.empty((*batch, n + 1, n, n))
    stack[...] = gram[..., None, :, :]
    stack[..., np.arange(1, n + 1), :, np.arange(n)] = pairs
    dets = np.linalg.det(stack)
    det, det_beta = dets[..., 0], dets[..., 1:]
    acomm = det[..., None] * log_acomm - w * (det_beta[..., None, :] @ f)[..., 0, :]
    acomm[..., ::d + 1] += 2.0 * np.vecdot(det_beta, means)[..., None] * p
    acomm = acomm.reshape(*batch, d, d)
    return op.hermitize(u @ acomm @ uh), det * log_var - np.vecdot(pairs, det_beta)


def _projection_form(rho: st.StateOperator, model: SingleConstituentModel):
    """The kernel at rho, with the regular p ln p pieces as the log column.
    It runs at p / sum p and scales {D, rho} back by sum p, so the result is
    traceless even where a trial state's negative eigenvalue clipped to 0.
    Per member of a (..., d, d) stack."""
    p, u = rho.spectral.eigenvalues, rho.spectral.eigenvectors
    total = p.sum(axis=-1)
    q = p / total[..., None]
    acomm, g = dissipator_kernel(q, u, model.operator_list(), st.regular_log_column(q))
    return total[..., None, None] * acomm, g


def dissipator_anticommutator(rho, model: SingleConstituentModel) -> np.ndarray:
    """{D, rho} with D the operator-valued determinant of the dissipative
    term; per member of a (..., d, d) stack."""
    rho = st.as_state(rho)
    if model.H.shape != rho.matrix.shape[-2:]:
        raise DimensionMismatchError(
            f"state dim {rho.matrix.shape} vs model dim {model.H.shape}")
    # Pure states are exact fixed points of the dissipative term (rho ln rho
    # is the null operator); returning an exact zero keeps integrator
    # round-off from seeding the entropy-ascent instability of that manifold.
    # Judged on the clipped spectrum so that trial steps overshooting purity
    # still branch.
    pure = st.is_pure(rho.spectral.eigenvalues)
    n_pure = np.count_nonzero(pure)
    if n_pure == pure.size:
        return np.zeros_like(rho.matrix)
    acomm = _projection_form(rho, model)[0]
    if n_pure:
        acomm[pure] = 0.0
    return acomm


def sea_rhs(rho, model: SingleConstituentModel) -> np.ndarray:
    """d rho/dt = -(i/hbar) [H, rho] - (tau/hbar^2) {D, rho}; traceless.

    ``rho`` is one state or a (..., d, d) stack of them, evaluated member by
    member in one pass: the eigendecompositions, Gram tables and
    determinants run stacked, and a pure member gets an exact-zero
    dissipator.
    """
    m = st._as_matrix(rho)
    hbar = model.units.hbar
    ham = -1j / hbar * op.commutator(model.H, m)
    diss = model.tau / hbar**2 * dissipator_anticommutator(rho, model)
    return ham - diss


def gram_determinant_g(rho, model: SingleConstituentModel):
    """Entropy-production Gram determinant over {ln rho, H, X, ..., Y}; >= 0.
    One value per member of a (..., d, d) stack."""
    return _projection_form(st.as_state(rho), model)[1]


def entropy_production_rate(rho, model: SingleConstituentModel) -> float:
    """ds/dt = k tau g / hbar^2; equals -k Tr(rhs ln rho) on full-rank states."""
    u = model.units
    return u.k_B * model.tau * gram_determinant_g(rho, model) / u.hbar**2


def entropy_rate_pairing(rho, model: SingleConstituentModel) -> float:
    """-k Tr(sea_rhs(rho) ln rho), evaluated spectrally (full-rank rho)."""
    rho = st.as_state(rho)
    rhs = sea_rhs(rho, model)
    return -model.units.k_B * float(np.trace(rhs @ st.log_operator(rho)).real)


@dataclass(frozen=True)
class ConstantReport:
    commutes_with_H: bool
    in_span: bool
    residual: float

    @property
    def is_constant(self) -> bool:
        return self.commutes_with_H and self.in_span


def span_check(c, h, generators) -> ConstantReport:
    """[C, H] = 0, and the residual of C against span{I, H, generators} under
    the trace inner product (SPAN_RESIDUAL_TOL relative to ||C|| for the
    in-span verdict)."""
    c = op.require_hermitian(c, name="C")
    commutes = op.commutation_check(c, h)[0]
    span_ops = [np.eye(h.shape[0], dtype=complex), h, *generators]
    basis = np.column_stack([s.ravel() for s in span_ops])
    coeffs = op.least_squares(basis, c.ravel())
    residual = float(np.linalg.norm(basis @ coeffs - c.ravel()))
    c_norm = max(np.linalg.norm(c.ravel()), 1e-300)
    return ConstantReport(commutes, residual <= SPAN_RESIDUAL_TOL * c_norm, residual)


def is_constant_of_motion(c, model: SingleConstituentModel) -> ConstantReport:
    """C is a constant of the motion iff [C, H] = 0 and C lies in
    span{I, H, X, ..., Y} under the trace inner product."""
    return span_check(c, model.H, model.generators)


@dataclass(frozen=True)
class EquilibriumReport:
    commutes: bool
    spectral_match: bool
    rhs_norm: float
    multipliers: np.ndarray | None = None

    @property
    def is_equilibrium(self) -> bool:
        return self.commutes and self.spectral_match


def is_equilibrium(rho, model: SingleConstituentModel) -> EquilibriumReport:
    """Equilibrium test: [rho, H] = 0 and p_i = exp(R_i)/z on the support,
    for some R = -beta H + chi X + ... fitted by least squares.

    Projectors onto H-eigenvectors pass (single support point fits exactly);
    coherences fail the commutation check.  The rhs norm is attached as a
    numerical cross-check: every equilibrium state is a fixed point.
    The commutation and fit tests scale from EQUILIBRIUM_TOL.
    """
    rho = st.validate(rho)
    h = model.H
    scale = max(1.0, float(np.linalg.norm(h, ord="fro")))
    commutes = op.frobenius_norm(op.commutator(rho.matrix, h)) <= EQUILIBRIUM_TOL * scale
    rhs_norm = op.frobenius_norm(sea_rhs(rho, model))
    if not commutes:
        return EquilibriumReport(False, False, rhs_norm)
    # work in the state eigenbasis; on the support, ln p must be affine in
    # the diagonal entries of the generators
    spec = rho.spectral
    p, u = spec.eigenvalues, spec.eigenvectors
    support = p > st.LOG_FLOOR
    ops = model.operator_list()
    diag_cols = [np.real(np.einsum("ij,jk,ki->i", u.conj().T, f, u)) for f in ops]
    a = np.column_stack([np.ones(int(support.sum())),
                         *[col[support] for col in diag_cols]])
    y = np.log(p[support])
    coeffs = op.least_squares(a, y)
    fit_residual = float(np.max(np.abs(a @ coeffs - y))) if a.shape[0] else 0.0
    # the fitted R must actually share the state's eigenbasis on the support
    r_fit = coeffs[0] * np.eye(rho.dim, dtype=complex)
    for coef, f in zip(coeffs[1:], ops):
        r_fit = r_fit + coef * f
    r_scale = max(1.0, float(np.linalg.norm(r_fit, ord="fro")))
    shares_basis = op.frobenius_norm(op.commutator(rho.matrix, r_fit)) \
        <= EQUILIBRIUM_TOL * r_scale
    spectral_match = fit_residual <= 1e3 * EQUILIBRIUM_TOL * np.abs(y).max(initial=1.0) \
        and shares_basis
    return EquilibriumReport(commutes, bool(spectral_match), rhs_norm,
                             multipliers=coeffs[1:])
