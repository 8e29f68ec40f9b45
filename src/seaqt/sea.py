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

The form is evaluated in the original basis, in product form: {D, rho} =
K + K^dagger with K = det G B + c rho - sum_a w_a rho F_a, w = det G beta
and B = rho L the log column.  With the identity, the F_a and their
symmetrized products {F_a, F_b}/2 at hand (``states.operator_products``),
the trace, the means and the Gram table at rho are real dot products,
O(n^2 d^2) (``states.covariance``), and the pairs (F_a, L) those of B.
``dissipator_kernel`` is the Cramer step from those scalars, shared with
the composite factors (``operator_log_kernel``, B(J) = rho(J) W(J)).

A single system's operators are centred at their trace means, which
changes no Gram entry, pair or K and keeps the precision an energy offset
would cost, and their products are cached once per model.  ``sea_rhs``
makes one eigendecomposition per call, for the clipped spectrum, and one
product rebuilds B = rho ln rho = U diag(p ln p) U^dagger from it, so
singular states need no eigenvalue flooring.  Where no eigenvalue was
clipped the state is its Hermitian part m over Tr m, and K and the
Hamiltonian term share the left factor m: one more product gives x, and
the rhs is x + x^dagger, Hermitian by construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import operators as op
from . import states as st
from .errors import DimensionMismatchError, NonPositiveTauError
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
    def operator_products(self) -> np.ndarray:
        """``states.operator_products`` of ``operator_list``, each operator
        centred at its trace mean, F_a - (Tr F_a / d) I, which changes no
        Gram entry, pair or dissipator: the identity, the F_a and their
        symmetrized products {F_a, F_b}/2, 1 + n (n + 3) / 2 complex d x d
        matrices, from which one real product gives the trace, the means and
        the Gram table at a state; built once per model."""
        return st.operator_products(op.centred(np.array(self.operator_list(), dtype=complex)))

    @property
    def operator_stack(self) -> np.ndarray:
        """The centred operators F_a as one complex (n, d, d) array, a view
        into ``operator_products``."""
        return self.operator_products[1:len(self.generators) + 2]


def validate_model(model: SingleConstituentModel) -> SingleConstituentModel:
    """Check Hermiticity, commutation and tau; warn on near-degenerate Gram.

    Returns the model with symmetrized operators.  Commutation is judged by
    ``operators.require_commuting``.  The Gram condition number of the
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
        op.require_commuting(x, h, f"generator {i}")
        gens.append(x)
    validated = replace(model, H=h, generators=tuple(gens))
    cond = gram_condition_number(np.eye(h.shape[0]) / h.shape[0], validated)
    if cond > op.GRAM_CONDITION_WARN:
        warnings.warn(
            f"generator Gram matrix at I/dim has condition number {cond:.3e}",
            GramConditionWarning, stacklevel=2)
    return validated


def gram_condition_number(rho, model: SingleConstituentModel) -> float:
    """Condition number of the generator Gram block [(F_a, F_b)] at rho."""
    return float(np.linalg.cond(st.covariance_table(rho, model.operator_stack)[1]))


def _cramer(gram: np.ndarray, pairs: np.ndarray):
    """det G and w_a = det G_a, G_a the Gram matrix G with column a replaced
    by the pairs (Cramer's rule: w = det G beta), per member of a stack; in
    closed form for n <= 2, where an LU factorization per member costs
    more than the arithmetic."""
    n = gram.shape[-1]
    if n == 1:
        return gram[..., 0, 0], pairs
    if n == 2:
        g00, g01, g10, g11 = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 0], gram[..., 1, 1]
        p0, p1 = pairs[..., 0], pairs[..., 1]
        w = np.empty_like(pairs)
        w[..., 0], w[..., 1] = p0 * g11 - g01 * p1, g00 * p1 - p0 * g10
        return g00 * g11 - g01 * g10, w
    stack = np.empty((*gram.shape[:-2], n + 1, n, n))
    stack[...] = gram[..., None, :, :]
    stack[..., np.arange(1, n + 1), :, np.arange(n)] = pairs
    dets = np.linalg.det(stack)
    return dets[..., 0], dets[..., 1:]


def dissipator_kernel(means, gram, pairs, tr_b, log_var):
    """The Cramer step, shared by single systems and composite factors: the
    coefficients (det G, w, c, g) of

        K = det G B + c rho - sum_a w_a rho F_a,    {D, rho} = K + K^dagger
        g = det G (L, L) - (F, L)^T w

    per member of a stack, from the means fbar_a, the Gram table G, the
    pairs (F, L), Tr B and (L, L), with w = det G beta and c = w . fbar -
    det G Tr B.  As {Delta L, rho} = B + B^dagger - 2 Tr(B) rho and
    {Delta F_a, rho} = rho F_a - fbar_a rho plus its adjoint, this is the
    projection form above.  ``_cramer`` gives det G and w as polynomials in
    the Gram entries, so they stay continuous through singular G."""
    det, w = _cramer(gram, pairs)
    return det, w, np.vecdot(w, means) - det * tr_b, det * log_var - np.vecdot(pairs, w)


def _combine(coef: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_a coef[..., a] F_a for complex coefficients (..., n) and ops (n,
    ..., d, d), shared by the members of a stack ((n, d, d): one product
    over the whole stack) or one per member."""
    n, d = len(ops), ops.shape[-1]
    if ops.ndim == 3:
        rows = ops.reshape(n, d * d)
        return (coef.reshape(-1, n) @ rows).reshape(*coef.shape[:-1], d, d)
    rows = ops.reshape(*ops.shape[:-2], d * d)
    rows = rows.transpose(*range(1, rows.ndim - 1), 0, rows.ndim - 1)
    return (coef[..., None, :] @ rows).reshape(*coef.shape[:-1], d, d)


def operator_log_kernel(rho: np.ndarray, ops: np.ndarray, half: bool = True):
    """(K, g) at rho / Tr rho, K scaled by Tr rho so that it stays traceless
    off the state set, for a Hermitian rho or a stack, with a log operator
    L given as such: ``ops`` (n + 1, ..., d, d), shared or one per member,
    holds the F_a and then L.  The covariance of all n + 1 gives the table,
    the pairs, Tr B = Tr(rho L) and (L, L), and K = rho (det G L - sum_a
    w_a F_a + c I) is one product, skipped without ``half`` (K is None)."""
    n = len(ops) - 1
    products = st.operator_products(ops)
    means, gram = st.covariance(st.real_dots(rho, products), n + 1)
    det, w, c, g = dissipator_kernel(means[..., :n], gram[..., :n, :n], gram[..., :n, n],
                                     means[..., n], gram[..., n, n])
    if not half:
        return None, g
    coef = np.concatenate([c[..., None], -w, det[..., None]], axis=-1)
    return rho @ _combine(coef, products[:n + 2]), g


def _matrix_and_spectrum(rho, model: SingleConstituentModel):
    """``states.matrix_and_spectrum`` of rho, held to the model's dimension."""
    m, spec = st.matrix_and_spectrum(rho)
    if model.H.shape != m.shape[-2:]:
        raise DimensionMismatchError(f"state dim {m.shape} vs model dim {model.H.shape}")
    return m, spec


def _law_terms(m: np.ndarray, spec: st.SpectralForm, model: SingleConstituentModel):
    """(t, m_c, B, (det G, w, c, g)) at the Hermitian matrix m with spectral
    form ``spec``, per member of a stack.  The law runs at rho_q = m_c / t,
    m_c = U diag(p) U^dagger for the clipped spectrum p and t = Tr m_c, so
    the result is traceless even where a trial state's negative eigenvalue
    clipped to 0.  Where nothing was clipped m_c = m, and one product
    rebuilds B = rho_q ln rho_q; after a clip it rebuilds m_c too.  The
    traces are those of the matrices, not of their spectra, so that the
    round-off of the eigendecomposition cancels from the trace of K."""
    p, u = spec.eigenvalues, spec.eigenvectors
    plogp, log_var = st.regular_log_spectrum(p / p.sum(axis=-1)[..., None])
    clipped = (p[..., -1] <= 0.0) | (p[..., 0] >= 1.0)
    if clipped.any():
        rebuilt, b = st.spectral_matrices(u, p, plogp)
        m_c = np.where(clipped[..., None, None], rebuilt, m)
    else:
        m_c, (b,) = m, st.spectral_matrices(u, plogp)
    products, n = model.operator_products, len(model.generators) + 1
    dots = st.real_dots(m_c, products)
    b_dots = st.real_dots(b, products[:n + 1])
    means, gram = st.covariance(dots, n)
    tr_b = b_dots[..., 0]
    pairs = 2.0 * (b_dots[..., 1:] - tr_b[..., None] * means)
    return dots[..., 0], m_c, b, dissipator_kernel(means, gram, pairs, tr_b, log_var)


def _half_product(m: np.ndarray, spec: st.SpectralForm, model: SingleConstituentModel,
                  hamiltonian=0.0, scale=1.0) -> np.ndarray:
    """x = hamiltonian m H_c + scale K, per member of a stack, with H_c the
    centred Hamiltonian, so that the velocity is x + x^dagger:

        x = m_c (scale c I + hamiltonian H_c - scale sum_a w_a F_a)
            + scale t det G B,

    one coefficient product over the cached operators and one d x d
    product beside the rebuild of B; after a clip, (m - m_c) H_c is one
    more."""
    t, m_c, b, (det, w, c, _) = _law_terms(m, spec, model)
    scale = np.asarray(scale)
    n = w.shape[-1]
    coef = np.empty((*w.shape[:-1], n + 1), dtype=complex)
    coef[..., 0] = scale * c
    coef[..., 1:] = -scale[..., None] * w
    coef[..., 1] += hamiltonian
    x = m_c @ _combine(coef, model.operator_products[:n + 1])
    b *= (scale * t * det)[..., None, None]
    x += b
    if m_c is not m and hamiltonian:
        # the Hamiltonian term acts on m itself: add back what the clip took
        x += _times_shared(m - m_c, hamiltonian * model.operator_stack[0])
    return x


def _velocity(rho, model: SingleConstituentModel, hamiltonian=0.0, scale=1.0) -> np.ndarray:
    """``_half_product`` at rho, per member of a stack, with a zero scale for
    a pure member, and no dissipator at all when every member is pure."""
    m, spec = _matrix_and_spectrum(rho, model)
    # Pure states are exact fixed points of the dissipative term (rho ln rho
    # is the null operator); an exact zero keeps integrator round-off from
    # seeding the entropy-ascent instability of that manifold.  Judged on
    # the clipped spectrum so that trial steps overshooting purity still
    # branch; a pure member of a mixed stack gets a zero scale.
    pure = st.is_pure(spec.eigenvalues)
    if not pure.all():
        return _half_product(m, spec, model, hamiltonian, np.where(pure, 0.0, scale))
    if hamiltonian:
        return _times_shared(m, hamiltonian * model.operator_stack[0])
    return np.zeros_like(m)


def _times_shared(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """m a for one d x d operand a shared by every member of a stack m: one
    product over the rows of the whole stack."""
    d = m.shape[-1]
    return (m.reshape(-1, d) @ a).reshape(m.shape)


def dissipator_anticommutator(rho, model: SingleConstituentModel) -> np.ndarray:
    """{D, rho} with D the operator-valued determinant of the dissipative
    term; per member of a (..., d, d) stack."""
    return op.plus_adjoint(_velocity(rho, model))


def sea_rhs(rho, model: SingleConstituentModel) -> np.ndarray:
    """d rho/dt = -(i/hbar) [H, rho] - (tau/hbar^2) {D, rho}; traceless.

    ``rho`` is one state or a (..., d, d) stack of them, evaluated member by
    member in one pass: the eigendecompositions, Gram tables and
    determinants run stacked, and a pure member gets an exact-zero
    dissipator.  With m the Hermitian part of rho, H_c the centred
    Hamiltonian (``operator_stack``, same commutator) and K the kernel's
    half-product, the rhs is x + x^dagger for x = (i/hbar) m H_c -
    (tau/hbar^2) K, so it is Hermitian by construction; the Hamiltonian
    term shares the dissipator's left factor m.
    """
    hbar = model.units.hbar
    return op.plus_adjoint(_velocity(rho, model, 1j / hbar, -model.tau / hbar**2))


def gram_determinant_g(rho, model: SingleConstituentModel):
    """Entropy-production Gram determinant over {ln rho, H, X, ..., Y}; >= 0.
    One value per member of a (..., d, d) stack."""
    return _law_terms(*_matrix_and_spectrum(rho, model), model)[-1][-1]


def entropy_production_rate(rho, model: SingleConstituentModel) -> float:
    """ds/dt = k tau g / hbar^2; equals -k Tr(rhs ln rho) on full-rank states."""
    u = model.units
    return u.k_B * model.tau * gram_determinant_g(rho, model) / u.hbar**2


def entropy_rate_pairing(rho, model: SingleConstituentModel) -> float:
    """-k Tr(sea_rhs(rho) ln rho) by ``states.entropy_rate`` (full-rank rho)."""
    spec = st.matrix_and_spectrum(rho)[1]
    return st.entropy_rate(spec, sea_rhs(rho, model), model.units.k_B)


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
