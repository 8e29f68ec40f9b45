"""Linear comparison dynamics in one generator form, Kossakowski-Lindblad
(KL): i[B, rho] + sum_j (A_j rho A_j+ - (1/2){A_j+ A_j, rho}), and its
entropy production.  The double-commutator equation (one Hermitian jump)
and the symmetric limit (one projector jump per eigenvector of H) are
``LindbladModel`` constructors that validate their inputs once.  The Pauli
master equation keeps its matrix-element form ``pauli_rhs``: its dyadic KL
form needs d^2 jumps.

This module is the baseline the nonlinear law is contrasted against: the
generator is linear in the state, and its entropy production diverges
logarithmically on singular states, which ``singular_divergence_demo``
exhibits directly instead of hiding behind regularization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import operators as op
from . import states as st
from .errors import DimensionMismatchError, NonPositiveTauError, SingularStateError
from .operators import UnitSystem
from .states import StateOperator


@dataclass(frozen=True)
class LindbladModel:
    """Hermitian drift generator B plus jump operators A_j (not necessarily
    Hermitian)."""

    B: np.ndarray
    jump_ops: tuple = ()
    units: UnitSystem = field(default_factory=UnitSystem)

    @property
    def dim(self) -> int:
        return self.B.shape[0]

    @cached_property
    def jump_stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The jumps as one complex (J, d, d) array A, its adjoints A+, and
        K = iB - (1/2) sum_j A_j+ A_j, the drift less half the loss operator:
        on a state the drift and loss terms of the generator are K rho +
        (K rho)+.  Built once per model."""
        a = np.array(self.jump_ops, dtype=complex).reshape(-1, self.dim, self.dim)
        a_dag = a.conj().swapaxes(-1, -2)
        return a, a_dag, 1j * self.B - 0.5 * (a_dag @ a).sum(axis=0)


def lindblad_model(B, jump_ops=(), units: UnitSystem | None = None) -> LindbladModel:
    b = op.require_hermitian(B, name="B")
    jumps = []
    for i, a in enumerate(jump_ops):
        a = op.as_complex(a)
        if a.shape != b.shape:
            raise DimensionMismatchError(f"jump operator {i} has shape {a.shape}")
        jumps.append(a)
    return LindbladModel(b, tuple(jumps), units or UnitSystem())


def kl_rhs(rho, model: LindbladModel) -> np.ndarray:
    """i[B, rho] + sum_j (A_j rho A_j+ - (1/2){A_j+ A_j, rho}).

    Trace-free and linear in rho.  The drift part is the Liouvillian when
    B = -H/hbar.  ``rho`` is one state or a (..., d, d) stack of them; the
    drift and loss terms are x + x+ for x = K rho (``jump_stack``), so the
    rhs is Hermitian by construction.
    """
    m = st._as_matrix(rho)
    op.require_same_dim(m, model.B)
    a, a_dag, k = model.jump_stack
    return op.plus_adjoint(k @ m) + (a @ m[..., None, :, :] @ a_dag).sum(axis=-3)


def kl_entropy_production(rho, model: LindbladModel) -> float:
    """-k Tr(kl_rhs ln rho) (``states.entropy_rate``) on full-rank states:
    k sum_j Tr(A_j+ A_j rho ln rho - A_j rho A_j+ ln rho), the drift part
    contributing zero."""
    rho = st.validate(rho)
    if st.is_singular(rho.eigenvalues):
        raise SingularStateError(
            "entropy production diverges on singular states; "
            "see singular_divergence_demo")
    return st.entropy_rate(rho.spectral, kl_rhs(rho.matrix, model), model.units.k_B)


def divergence_probes(dim: int, occupations, fill_state=None) -> list[StateOperator]:
    """One diagonal state per p in ``occupations``, with weight 1 - p on
    ``fill_state`` (default: the last basis level) and p on the remaining
    levels equally, so a jump operator moving weight into a near-empty
    level sees the divergence."""
    fill = dim - 1 if fill_state is None else fill_state
    probes = []
    for p_min in occupations:
        diag = np.full(dim, p_min / max(dim - 1, 1))
        diag[fill] = 1.0 - p_min
        probes.append(StateOperator(np.diag(diag).astype(complex)))
    return probes


def singular_divergence_demo(model: LindbladModel, occupations,
                             fill_state=None) -> list[float]:
    """Entropy production at the ``divergence_probes`` states, whose smallest
    eigenvalue runs through ``occupations``: the linear channel's rate
    grows like -ln(p_min)."""
    return [kl_entropy_production(rho, model)
            for rho in divergence_probes(model.dim, occupations, fill_state)]


def log_divergence_fit(occupations, rates) -> tuple[float, float, float]:
    """Least-squares fit rate = c1 + c2 (-ln p); returns (c1, c2, residual)
    with the residual relative to the rate spread."""
    x = -np.log(np.asarray(occupations, dtype=float))
    y = np.asarray(rates, dtype=float)
    a = np.column_stack([np.ones_like(x), x])
    coeffs = op.least_squares(a, y)
    misfit = float(np.linalg.norm(a @ coeffs - y))
    spread = max(float(np.ptp(y)), 1e-300)
    return float(coeffs[0]), float(coeffs[1]), misfit / spread


# ---------------------------------------------------------------------------
# Pauli master equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PauliRates:
    """Nonnegative rate matrix w over a Hamiltonian eigenbasis with level
    energies E_i.  w[r, s] is the transition rate into level r from level s
    (the dyadic jump A_rs = sqrt(w_rs) |r><s|)."""

    w: np.ndarray
    energies: np.ndarray
    units: UnitSystem = field(default_factory=UnitSystem)

    @property
    def dim(self) -> int:
        return len(self.energies)


def pauli_rates(w, energies, units: UnitSystem | None = None) -> PauliRates:
    w = np.asarray(w, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if w.shape != (len(energies), len(energies)):
        raise DimensionMismatchError(f"rate matrix shape {w.shape} does not "
                                     f"match {len(energies)} levels")
    if not (w >= 0).all():
        raise ValueError("transition rates must be nonnegative")
    if not np.isfinite(energies).all():
        raise ValueError("level energies must be finite")
    return PauliRates(w, energies, units or UnitSystem())


def as_lindblad(rates: PauliRates) -> LindbladModel:
    """The KL form of the master equation: drift -diag(E)/hbar and the
    dyadic jumps A_rs = sqrt(w_rs) |r><s|, one per nonzero rate."""
    r, s = np.nonzero(rates.w)
    jumps = np.zeros((len(r), rates.dim, rates.dim), dtype=complex)
    jumps[np.arange(len(r)), r, s] = np.sqrt(rates.w[r, s])
    b = -np.diag(rates.energies).astype(complex) / rates.units.hbar
    return LindbladModel(b, tuple(jumps), rates.units)


def pauli_rhs(rho, rates: PauliRates) -> np.ndarray:
    """Matrix-element form of the master equation: gains delta_ij sum_r
    w_ir rho_rr, losses (1/2) rho_ij sum_r (w_ri + w_rj), on top of the
    Hamiltonian phase rotation.  A (..., d, d) stack of states broadcasts."""
    m = st._as_matrix(rho)
    dim = rates.dim
    if m.shape[-2:] != (dim, dim):
        raise DimensionMismatchError(f"state shape {m.shape} vs {dim} levels")
    e = rates.energies
    w = rates.w
    hbar = rates.units.hbar
    phase = -1j / hbar * (e[:, None] - e[None, :]) * m
    populations = np.diagonal(m, axis1=-2, axis2=-1).real
    gains = np.eye(dim) * (populations @ w.T)[..., None, :]
    losses = 0.5 * (w.sum(axis=0)[:, None] + w.sum(axis=0)[None, :]) * m
    return phase + gains - losses


def energy_balance_residual(rates: PauliRates) -> float:
    """max_n |sum_s (w_ns E_s - w_sn E_n)|: the per-level condition for the
    dyadic channel to conserve the mean energy."""
    w, e = rates.w, rates.energies
    per_level = w @ e - w.sum(axis=0) * e
    return float(np.abs(per_level).max())


def symmetric_limit(w: float, h) -> LindbladModel:
    """The symmetric limit D(rho)/Dt = w (diag(rho) - rho) in the H
    eigenbasis as a KL model: drift -H and one jump sqrt(w) |k><k| per
    eigenvector of H (hbar = 1).  The diagonal sector is frozen and
    coherences decay at rate w on top of the phase rotation.  w >= 0 and
    Hermitian H are checked, and H diagonalized, once, here."""
    if not w >= 0:
        raise ValueError("decay rate w must be nonnegative")
    h = op.require_hermitian(h, name="H")
    vecs = np.linalg.eigh(h)[1]
    return LindbladModel(-h, tuple(np.sqrt(w) * np.einsum("ak,bk->kab", vecs, vecs.conj())))


def double_commutator(f, tau: float, h, units: UnitSystem | None = None) -> LindbladModel:
    """The double-commutator equation -(i/hbar)[H, rho] - (tau/2 hbar^2)
    [F, [F, rho]] as a KL model: drift -H/hbar and the one Hermitian jump
    sqrt(tau) F/hbar.  F and H are validated here once: Hermitian, of one
    dimension, and [F, H] = 0 (else ``NonCommutingGeneratorError``), and
    tau > 0 (else ``NonPositiveTauError``).  Conserves the trace and the
    means of H and F by construction."""
    u = units or UnitSystem()
    if not tau > 0:
        raise NonPositiveTauError(f"tau must be positive, got {tau}")
    f = op.require_hermitian(f, name="F")
    h = op.require_hermitian(h, name="H")
    op.require_commuting(f, h, "F")
    return LindbladModel(-h / u.hbar, (np.sqrt(tau) * f / u.hbar,), u)
