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
(F, ln rho)^T beta] >= 0.  Only det G and det G beta enter, and Cramer's
rule gives them from one stacked determinant, det G beta_a = det(G with
column a replaced by (F, ln rho)): the adjugate of G times the pairs,
which is exactly the cofactor expansion of the operator-valued
determinant.  It is a polynomial in the Gram entries, so a singular G (a
generator affine in the others) needs no least-squares solve and gives a
round-off-level term.

``dissipator_kernel`` evaluates the form in the original basis.  Every
deviation anticommutator is a half-product plus its adjoint, {Delta F,
rho} = K_F + K_F^dagger with K_F = F rho - fbar rho, so one stacked
product F_a rho (``states.covariance_table``) gives the means, the Gram
table (F_a, F_b) = 2 Re <F_a rho, F_b>_F - 2 fbar_a fbar_b and the
operator part of the kernel's half-product K, with {D, rho} = K +
K^dagger.  The log column enters as B = L rho; the composite module calls
the same kernel on its stacked reduced states with B(J) = W(J) rho(J).
``sea_rhs`` folds -(i/hbar) H rho into K and adds the adjoint once, so the
rhs is Hermitian by construction.  The one eigendecomposition per call
gives the clipped spectrum that the entropy-regular log column needs: with
B = rho ln rho = U diag(p ln p) U^dagger, {Delta ln rho, rho} = 2 (B -
Tr(B) rho), so singular states need no eigenvalue flooring.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import operators as op
from . import states as st
from .errors import (DimensionMismatchError, NonCommutingGeneratorError,
                     NonPositiveTauError)
from .operators import UnitSystem


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

    @cached_property
    def operator_stack(self) -> np.ndarray:
        """``operator_list`` as one complex (n, d, d) array, the operands of
        ``dissipator_kernel``; built once per model."""
        return np.array(self.operator_list(), dtype=complex)


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
        if x.shape != h.shape:
            raise DimensionMismatchError(
                f"generator {i} has dim {x.shape[0]}, expected {h.shape[0]}")
        commutes, defect = op.commutation_check(x, h)
        if not commutes:
            raise NonCommutingGeneratorError(
                f"generator {i} does not commute with H (defect {defect:.3e})")
        gens.append(x)
    validated = replace(model, H=h, generators=tuple(gens))
    cond = gram_condition_number(st.StateOperator(np.eye(h.shape[0]) / h.shape[0]),
                                 validated)
    if cond > op.GRAM_CONDITION_WARN:
        warnings.warn(
            f"generator Gram matrix at I/dim has condition number {cond:.3e}",
            GramConditionWarning, stacklevel=2)
    return validated


def gram_condition_number(rho, model: SingleConstituentModel) -> float:
    """Condition number of the generator Gram block [(F_a, F_b)] at rho."""
    return float(np.linalg.cond(st.covariance_table(rho, model.operator_stack)[1]))


def operator_log_column(rho: np.ndarray, w: np.ndarray):
    """The kernel's log column (B, Tr B, (W, W)) of a Hermitian log operator
    W given as such, B = W rho: (W, W) = 2 (Re <B, W> - (Tr B)^2).  Per
    member of a stack, with rho and W both (..., d, d)."""
    b = w @ rho
    tr_b = np.trace(b, axis1=-2, axis2=-1).real
    return b, tr_b, 2.0 * (np.vecdot(st._real_rows(b), st._real_rows(w)) - tr_b ** 2)


def dissipator_kernel(rho: np.ndarray, ops, log_column):
    """(K, g) of the operator-valued Gram determinant in projection form,
    with {D, rho} = K + K^dagger.

    ``rho`` is a unit-trace Hermitian matrix (the state, or the reduced state
    rho(J)), ``ops`` the generator operators F_a and ``log_column`` the
    triple (B, Tr B, (L, L)) of the log column L, with B = L rho: a single
    system passes the entropy-regular B = rho ln rho, a composite factor
    B(J) = W(J) rho(J) (``operator_log_column``).  With G the Gram matrix of
    the generators and G beta = (F, L):

        {D, rho} = det G [{Delta L, rho} - sum_a beta_a {Delta F_a, rho}]
        g        = det G [(L, L) - (F, L)^T beta]

    the Schur-complement form of the determinant.  Only det G and
    det G beta enter, and Cramer's rule gives both from one stacked
    determinant: det G beta_a = det G_a, with G_a the Gram matrix whose
    column a is replaced by (F, L).  That is the adjugate of G applied to
    the pairs, a polynomial in the Gram entries, so it stays continuous
    through singular G: a degenerate generator set gives a round-off-level
    term, with no least-squares solve and no error.

    The means fbar_a, G and the rows F_a rho and F_a come from
    ``states.covariance_table``, and (F_a, L) = 2 (Re <F_a, B> - Tr(B)
    fbar_a).  As {Delta L, rho} = B + B^dagger - 2 Tr(B) rho, with w = det
    G beta the half-product is

        K = det G B + (w . fbar - det G Tr B) rho - sum_a w_a F_a rho.

    A stack of states adds leading axes to rho and the log column, the
    operators are shared or per member as in ``covariance_table``, and g
    has the stack's shape.
    """
    d = rho.shape[-1]
    batch = rho.shape[:-2]
    b, tr_b, log_var = log_column
    means, gram, f_rho_rows, f_rows = st.covariance_table(rho, ops)
    pairs = 2.0 * ((f_rows @ st._real_rows(b)[..., None])[..., 0]
                   - tr_b[..., None] * means)
    n = pairs.shape[-1]
    stack = np.empty((*batch, n + 1, n, n))
    stack[...] = gram[..., None, :, :]
    stack[..., np.arange(1, n + 1), :, np.arange(n)] = pairs
    dets = np.linalg.det(stack)
    det, det_beta = dets[..., 0], dets[..., 1:]
    coef = -det_beta
    k = (coef[..., None, :] @ f_rho_rows)[..., 0, :].view(complex).reshape(*batch, d, d)
    k -= (np.vecdot(coef, means) + det * tr_b)[..., None, None] * rho
    k += det[..., None, None] * b
    return k, det * log_var - np.vecdot(pairs, det_beta)


def _projection_form(rho: st.StateOperator, model: SingleConstituentModel):
    """The half-product K and g at rho, with the regular p ln p pieces as the
    log column.  It runs at q = p / sum p and scales K back by sum p, so the
    result is traceless even where a trial state's negative eigenvalue
    clipped to 0.  Per member of a (..., d, d) stack."""
    spec = rho.spectral
    total = spec.eigenvalues.sum(axis=-1)
    q = spec.eigenvalues / total[..., None]
    plogp, tr_b, log_var = st.regular_log_spectrum(q)
    rho_q, b = st.spectral_matrices(spec.eigenvectors, q, plogp)
    k, g = dissipator_kernel(rho_q, model.operator_stack, (b, tr_b, log_var))
    k *= total[..., None, None]
    return k, g


def _dissipator_half(rho: st.StateOperator, model: SingleConstituentModel):
    """K with {D, rho} = K + K^dagger per member of a stack, or None when
    every member is pure."""
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
        return None
    k = _projection_form(rho, model)[0]
    if n_pure:
        k[pure] = 0.0
    return k


def dissipator_anticommutator(rho, model: SingleConstituentModel) -> np.ndarray:
    """{D, rho} with D the operator-valued determinant of the dissipative
    term; per member of a (..., d, d) stack."""
    rho = st.as_state(rho)
    k = _dissipator_half(rho, model)
    return np.zeros_like(rho.matrix) if k is None else op.plus_adjoint(k)


def sea_rhs(rho, model: SingleConstituentModel) -> np.ndarray:
    """d rho/dt = -(i/hbar) [H, rho] - (tau/hbar^2) {D, rho}; traceless.

    ``rho`` is one state or a (..., d, d) stack of them, evaluated member by
    member in one pass: the eigendecompositions, Gram tables and
    determinants run stacked, and a pure member gets an exact-zero
    dissipator.  With m the Hermitian part of rho and K the kernel's
    half-product, the rhs is x + x^dagger for x = -(i/hbar) H m -
    (tau/hbar^2) K, so it is Hermitian by construction.
    """
    rho = st.as_state(rho)
    k = _dissipator_half(rho, model)
    hbar = model.units.hbar
    x = model.H @ rho.matrix
    x *= -1j / hbar
    if k is not None:
        k *= model.tau / hbar**2
        x -= k
    return op.plus_adjoint(x)


def gram_determinant_g(rho, model: SingleConstituentModel):
    """Entropy-production Gram determinant over {ln rho, H, X, ..., Y}; >= 0.
    One value per member of a (..., d, d) stack."""
    return _projection_form(st.as_state(rho), model)[1]


def entropy_production_rate(rho, model: SingleConstituentModel) -> float:
    """ds/dt = k tau g / hbar^2; equals -k Tr(rhs ln rho) on full-rank states."""
    u = model.units
    return u.k_B * model.tau * gram_determinant_g(rho, model) / u.hbar**2


def entropy_rate_pairing(rho, model: SingleConstituentModel) -> float:
    """-k Tr(sea_rhs(rho) ln rho) by ``states.entropy_rate`` (full-rank rho)."""
    rho = st.as_state(rho)
    return st.entropy_rate(rho, sea_rhs(rho, model), model.units.k_B)


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
    commutes = op.frobenius_norm(op.commutator(rho.matrix, h)) <= op.EQUILIBRIUM_TOL * scale
    rhs_norm = op.frobenius_norm(sea_rhs(rho, model))
    if not commutes:
        return EquilibriumReport(False, False, rhs_norm)
    # work in the state eigenbasis; on the support, ln p must be affine in
    # the diagonal entries of the generators
    spec = rho.spectral
    p, u = spec.eigenvalues, spec.eigenvectors
    support = p > op.LOG_FLOOR
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
        <= op.EQUILIBRIUM_TOL * r_scale
    spectral_match = fit_residual <= op.EQUILIBRIUM_FIT_FACTOR * op.EQUILIBRIUM_TOL \
        * np.abs(y).max(initial=1.0) and shares_basis
    return EquilibriumReport(commutes, bool(spectral_match), rhs_norm,
                             multipliers=coeffs[1:])
