"""Linear comparison dynamics: the Kossakowski-Lindblad superoperator and
its entropy production, the Pauli master equation with its energy-balance
condition and symmetric limit, and the double-commutator equation.

This module is the baseline the nonlinear law is contrasted against: the
generator is linear in the state, and its entropy production diverges
logarithmically on singular states, which ``singular_divergence_demo``
exhibits directly instead of hiding behind regularization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import operators as op
from . import states as st
from .errors import (DimensionMismatchError, NonCommutingFError,
                     NonPositiveTauError, SingularStateError)
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
    B = -H/hbar.  A (..., d, d) stack of states broadcasts.
    """
    m = st._as_matrix(rho)
    op.require_same_dim(m, model.B)
    out = 1j * op.commutator(model.B, m)
    for a in model.jump_ops:
        ada = a.conj().T @ a
        out = out + a @ m @ a.conj().T - 0.5 * (ada @ m + m @ ada)
    return out


def kl_entropy_production(rho, model: LindbladModel) -> float:
    """k sum_j Tr(A_j+ A_j rho ln rho - A_j rho A_j+ ln rho) on full-rank
    states; equals -k Tr(kl_rhs ln rho), the drift part contributing zero."""
    rho = st.validate(rho)
    if st.is_singular(rho.eigenvalues):
        raise SingularStateError(
            "entropy production diverges on singular states; "
            "see singular_divergence_demo")
    log_rho = st.log_operator(rho)
    m = rho.matrix
    total = 0.0
    for a in model.jump_ops:
        ada = a.conj().T @ a
        total += float(np.trace(ada @ m @ log_rho - a @ m @ a.conj().T @ log_rho).real)
    return model.units.k_B * total


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


def pauli_jump_operators(rates: PauliRates) -> list[np.ndarray]:
    """Dyadic jumps A_rs = sqrt(w_rs) |r><s| for every nonzero rate."""
    dim = rates.dim
    jumps = []
    for r in range(dim):
        for s in range(dim):
            if rates.w[r, s] > 0:
                a = np.zeros((dim, dim), dtype=complex)
                a[r, s] = np.sqrt(rates.w[r, s])
                jumps.append(a)
    return jumps


def as_lindblad(rates: PauliRates) -> LindbladModel:
    b = -np.diag(rates.energies).astype(complex) / rates.units.hbar
    return LindbladModel(b, tuple(pauli_jump_operators(rates)), rates.units)


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


def symmetric_limit_rhs(rho, w: float, h) -> np.ndarray:
    """D(rho)/Dt = w (diag(rho) - rho) in the H eigenbasis: diagonal sector
    frozen, coherences decay at rate w on top of the phase rotation."""
    if not w >= 0:
        raise ValueError("decay rate w must be nonnegative")
    m = st._as_matrix(rho)
    h = op.require_hermitian(h, name="H")
    op.require_same_dim(m, h)
    vals, vecs = np.linalg.eigh(h)
    m_h = vecs.conj().T @ m @ vecs
    phase = -1j * (vals[:, None] - vals[None, :]) * m_h
    decay = w * (np.diag(np.diag(m_h)) - m_h)
    return vecs @ (phase + decay) @ vecs.conj().T


def double_commutator(f, tau: float, h, units: UnitSystem | None = None):
    """The rhs rho -> -(i/hbar)[H, rho] - (tau/2 hbar^2) [F, [F, rho]], with
    F and H validated here once: Hermitian, of one dimension, and [F, H] = 0
    (else ``NonCommutingFError``), and tau > 0 (else ``NonPositiveTauError``).

    Conserves the trace and the means of H and F by construction.  The rhs
    takes a state or a (..., d, d) stack of states.
    """
    u = units or UnitSystem()
    if not tau > 0:
        raise NonPositiveTauError(f"tau must be positive, got {tau}")
    f = op.require_hermitian(f, name="F")
    h = op.require_hermitian(h, name="H")
    op.require_same_dim(f, h)
    if not op.commutation_check(f, h)[0]:
        raise NonCommutingFError("F must commute with H")

    def rhs(rho) -> np.ndarray:
        m = st._as_matrix(rho)
        op.require_same_dim(m, h)
        ham = -1j / u.hbar * op.commutator(h, m)
        return ham - tau / (2.0 * u.hbar**2) * op.commutator(f, op.commutator(f, m))
    return rhs
