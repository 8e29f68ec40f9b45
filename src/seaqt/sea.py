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

``dissipator_kernel`` evaluates the form in the original basis, in row
form.  Every deviation anticommutator is a half-product plus its adjoint,
{Delta F, rho} = K_F + K_F^dagger with K_F = rho F - fbar rho, so the
kernel works on one complex row array [rho F_a; rho; B], with B = rho L
the log column, over a whole stack of states.  One real product of those
rows against the operators' real rows (``states.covariance_rows``) gives
the Gram table (F_a, F_b) = 2 Re <rho F_a, F_b>_F - 2 fbar_a fbar_b, the
means fbar and the pairs <B, F_a>, and one coefficient product over the
same rows gives the half-product K, with {D, rho} = K + K^dagger.
Per-member scales (the trace renormalization, and in ``sea_rhs``
-tau/hbar^2) multiply the coefficients, not the matrices.  A single
system's operators are centred at their trace means once per model
(``operator_stack``): the Gram table, the pairs and K do not change under
F -> F + c I, and the centred products keep the precision that an energy
offset would cost.  The composite module calls the same kernel on its
stacked reduced states with B(J) = rho(J) W(J).  ``sea_rhs`` adds
(i/hbar) rho H to K and takes the Hermitian sum once, so the rhs is
Hermitian by construction.  Its one eigendecomposition per call gives the
clipped spectrum that the entropy-regular log column needs, and one
product rebuilds rho and B = rho ln rho = U diag(p ln p) U^dagger from it:
{Delta ln rho, rho} = 2 (B - Tr(B) rho), so singular states need no
eigenvalue flooring.
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
        """``operator_list`` as one complex (n, d, d) array, each operator
        centred at its trace mean, F_a - (Tr F_a / d) I: the operands of
        ``dissipator_kernel``, which no such shift changes; built once per
        model."""
        return op.centred(np.array(self.operator_list(), dtype=complex))


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


def operator_log_column(rows: np.ndarray, w: np.ndarray):
    """The log column of a Hermitian log operator W given as such: writes
    B = rho W into the last row of a kernel row array whose row before it
    holds rho, and returns (Tr B, (W, W)), with (W, W) = 2 (Re <B, W>_F -
    (Tr B)^2).  Per member of a stack, with W (..., d, d)."""
    b = np.matmul(rows[-2], w, out=rows[-1])
    tr_b = np.trace(b, axis1=-2, axis2=-1).real
    inner = np.vecdot(b.reshape(*b.shape[:-2], -1), w.reshape(*w.shape[:-2], -1)).real
    return tr_b, 2.0 * (inner - tr_b ** 2)


def _det(a: np.ndarray) -> np.ndarray:
    """``np.linalg.det`` of each member of a (..., n, n) stack, in closed form
    for n <= 2 (H alone, or H and one generator: the common case), where
    the gufunc's LU factorization of each member costs more than the
    arithmetic (3.3 against 10.9 us on a (24, 3, 2, 2) stack)."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, 0]
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


def dissipator_kernel(ops, rows: np.ndarray, tr_b, log_var, scale=1.0):
    """(scale K, g) of the operator-valued Gram determinant in projection
    form, with {D, rho} = K + K^dagger.

    ``rows`` is a C-contiguous complex (n + 2, ..., d, d) array whose last
    two rows hold rho, a unit-trace Hermitian matrix (the state, or the
    reduced state rho(J)), or a stack of them, and B = rho L, the log
    column of the log operator L, with ``tr_b`` = Tr B and ``log_var`` =
    (L, L).  A single system passes the entropy-regular B = rho ln rho, a
    composite factor B(J) = rho(J) W(J) (``operator_log_column``).
    ``ops`` are the n generator operators F_a, shared (n, d, d) or per
    member (n, ..., d, d).
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

    ``states.covariance_rows`` writes rho F_a into the first n rows and
    gives the means fbar_a, G and <B, F_a> from one real product, so
    (F_a, L) = 2 (Re <B, F_a> - Tr(B) fbar_a).  As {Delta L, rho} = B +
    B^dagger - 2 Tr(B) rho, with w = det G beta the half-product is

        K = det G B + (w . fbar - det G Tr B) rho - sum_a w_a rho F_a,

    one coefficient product over the rows; ``scale``, a number or one per
    member, multiplies the coefficients.  K and g have the stack's shape.
    """
    n = len(rows) - 2
    means, gram, prods = st.covariance_rows(rows, ops)
    pairs = 2.0 * (prods[n + 1] - tr_b[..., None] * means)
    batch = means.shape[:-1]
    stack = np.empty((*batch, n + 1, n, n))
    stack[...] = gram[..., None, :, :]
    stack[..., np.arange(1, n + 1), :, np.arange(n)] = pairs
    dets = _det(stack)
    det, det_beta = dets[..., 0], dets[..., 1:]
    coef = np.empty((*batch, 1, n + 2))
    coef[..., 0, :n] = -det_beta
    coef[..., 0, n] = np.vecdot(det_beta, means) - det * tr_b
    coef[..., 0, n + 1] = det
    coef *= np.asarray(scale)[..., None, None]
    d = rows.shape[-1]
    k = coef @ st._rows_last(rows.view(np.float64).reshape(n + 2, *batch, 2 * d * d))
    return k.view(complex).reshape(*batch, d, d), det * log_var - np.vecdot(pairs, det_beta)


def _matrix_and_spectrum(rho, model: SingleConstituentModel):
    """The Hermitian matrix of rho (a StateOperator's own, else the Hermitian
    part) and its spectral form, per member of a stack."""
    if isinstance(rho, st.StateOperator):
        m, spec = rho.matrix, rho.spectral
    else:
        m = op.hermitize(rho)
        spec = st.spectral_form(m)
    if model.H.shape != m.shape[-2:]:
        raise DimensionMismatchError(f"state dim {m.shape} vs model dim {model.H.shape}")
    return m, spec


def _projection_form(spec: st.SpectralForm, model: SingleConstituentModel, scale=1.0):
    """scale K and g at the state of spectral form ``spec``, with the regular
    p ln p pieces as the log column.  It runs at q = p / sum p, sum p joining
    the scale, so the result is traceless even where a trial state's
    negative eigenvalue clipped to 0.  Per member of a (..., d, d) stack."""
    p, u = spec.eigenvalues, spec.eigenvectors
    total = p.sum(axis=-1)
    q = p / total[..., None]
    plogp, tr_b, log_var = st.regular_log_spectrum(q)
    ops = model.operator_stack
    rho_b = st.spectral_matrices(u, q, plogp)
    # the row array is made after the product has freed its temporaries: the
    # other order lifts the heap's high-water mark, and at d = 64 glibc's
    # malloc then trims and refaults the heap on every call
    rows = np.empty((len(ops) + 2, *u.shape), dtype=complex)
    rows[-2:] = rho_b
    return dissipator_kernel(ops, rows, tr_b, log_var, scale * total)


def _dissipator_half(rho, model: SingleConstituentModel, scale=1.0):
    """The Hermitian matrix m of rho and scale K, with {D, rho} = K + K^dagger,
    per member of a stack; K is None when every member is pure."""
    m, spec = _matrix_and_spectrum(rho, model)
    # Pure states are exact fixed points of the dissipative term (rho ln rho
    # is the null operator); an exact zero keeps integrator round-off from
    # seeding the entropy-ascent instability of that manifold.  Judged on
    # the clipped spectrum so that trial steps overshooting purity still
    # branch; a pure member of a mixed stack gets a zero scale.
    pure = st.is_pure(spec.eigenvalues)
    if pure.all():
        return m, None
    return m, _projection_form(spec, model, np.where(pure, 0.0, scale))[0]


def dissipator_anticommutator(rho, model: SingleConstituentModel) -> np.ndarray:
    """{D, rho} with D the operator-valued determinant of the dissipative
    term; per member of a (..., d, d) stack."""
    m, k = _dissipator_half(rho, model)
    return np.zeros_like(m) if k is None else op.plus_adjoint(k)


def sea_rhs(rho, model: SingleConstituentModel) -> np.ndarray:
    """d rho/dt = -(i/hbar) [H, rho] - (tau/hbar^2) {D, rho}; traceless.

    ``rho`` is one state or a (..., d, d) stack of them, evaluated member by
    member in one pass: the eigendecompositions, Gram tables and
    determinants run stacked, and a pure member gets an exact-zero
    dissipator.  With m the Hermitian part of rho, H_c the centred
    Hamiltonian (``operator_stack``, same commutator) and K the kernel's
    half-product, the rhs is x + x^dagger for x = (i/hbar) m H_c -
    (tau/hbar^2) K, so it is Hermitian by construction.
    """
    hbar = model.units.hbar
    m, k = _dissipator_half(rho, model, -model.tau / hbar**2)
    # -(i/hbar) [H_c, m] = x + x^dagger for x = (i/hbar) m H_c, one product
    # over the rows of the whole stack
    d = m.shape[-1]
    x = (m.reshape(-1, d) @ ((1j / hbar) * model.operator_stack[0])).reshape(m.shape)
    if k is not None:
        x += k
    return op.plus_adjoint(x)


def gram_determinant_g(rho, model: SingleConstituentModel):
    """Entropy-production Gram determinant over {ln rho, H, X, ..., Y}; >= 0.
    One value per member of a (..., d, d) stack."""
    return _projection_form(_matrix_and_spectrum(rho, model)[1], model)[1]


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
