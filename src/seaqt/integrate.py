"""Time integration with structure-preserving projection and trajectory
recording.

Works with any right-hand side (nonlinear single/composite, linear channels).
The default method is an adaptive Dormand-Prince RK45; fixed-step RK4 is
retained for convergence-order checks.  With full projection every recorded
sample is a valid state operator, and the pre-projection trace/Hermiticity
residuals are logged so projection never silently masks integrator failure.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import operators as op
from . import states as st
from .errors import StateInvalidError, StepUnderflowError
from .states import StateOperator

METHODS = ("rk45", "rk4")
PROJECTION_MODES = ("off", "hermitize_only", "full")

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45"
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1.0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 10.0
    equilibrium_norm_tol: float = 0.0   # 0 disables early termination
    projection: str = "full"
    sample_every: int = 1
    sample_dt: float | None = None      # force steps onto this time grid and
                                        # record exactly at the boundaries

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.projection not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {self.projection!r}")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("require 0 < dt_min <= dt_init <= dt_max")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class Observables:
    """Derived quantities recorded at each sample."""

    energy_op: np.ndarray | None = None
    generator_ops: tuple = ()
    g_rate: Callable[[np.ndarray], float] | None = None
    k_B: float = 1.0


@dataclass
class Sample:
    t: float
    rho: np.ndarray
    entropy: float
    energy: float
    g_rate: float
    trace_err: float
    herm_err: float
    purity: float
    min_eig: float
    generator_means: tuple = ()


@dataclass
class Trajectory:
    samples: list = field(default_factory=list)
    termination: str = ""

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples])

    @property
    def final(self) -> Sample:
        return self.samples[-1]

    def to_csv(self) -> str:
        """Exact column order: t, entropy, energy, g_rate, trace_err,
        herm_err, purity, min_eig, then gen_<k> per declared generator.
        Values use the shortest round-trip decimal representation."""
        n_gen = len(self.samples[0].generator_means) if self.samples else 0
        header = ["t", "entropy", "energy", "g_rate", "trace_err",
                  "herm_err", "purity", "min_eig"]
        header += [f"gen_{k}" for k in range(n_gen)]
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for s in self.samples:
            row = [s.t, s.entropy, s.energy, s.g_rate, s.trace_err,
                   s.herm_err, s.purity, s.min_eig, *s.generator_means]
            buf.write(",".join(repr(float(v)) for v in row) + "\n")
        return buf.getvalue()


def project(rho_raw: np.ndarray, mode: str) -> np.ndarray:
    """Pull a near-valid matrix back onto the state set.

    hermitize_only symmetrizes; full additionally clamps eigenvalues at zero
    (when above the -1e-10 floor) and renormalizes the trace.  Matrices
    beyond repair raise ``StateInvalidError``.
    """
    if mode == "off":
        return rho_raw
    m = op.hermitize(rho_raw)
    if mode == "hermitize_only":
        return m
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < st.EIG_CLAMP_FLOOR:
        raise StateInvalidError(
            f"eigenvalue {vals[0]:.3e} below clamp floor during integration")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > st.TRACE_TOL:
        raise StateInvalidError(f"trace {tr!r} drifted beyond repair")
    vals = np.clip(vals, 0.0, None)
    # pure states are exact fixed points of the dissipative flow but sit on
    # an entropy-ascent-unstable manifold; spectral weight off the top
    # eigenvalue below the pure cut is step noise, so strip it before it
    # can seed an escape
    if float(np.sum(vals[:-1])) <= st.PURE_TOL:
        top = vecs[:, -1]
        return np.outer(top, top.conj())
    m = (vecs * vals) @ vecs.conj().T
    return op.hermitize(m / float(np.trace(m).real))


def detect_equilibrium(rho: np.ndarray, rhs_val: np.ndarray, tol: float,
                       scale: float = 1.0) -> bool:
    """True when ||rhs||_F <= tol * max(1, scale)."""
    return float(np.linalg.norm(rhs_val, ord="fro")) <= tol * max(1.0, scale)


def _record(traj: Trajectory, t: float, raw: np.ndarray, projected: np.ndarray,
            obs: Observables) -> None:
    trace_err = abs(float(np.trace(raw).real) - 1.0)
    herm_err = float(np.abs(raw - raw.conj().T).max())
    vals = np.linalg.eigvalsh(op.hermitize(projected))
    p = np.clip(vals, 0.0, None)
    entropy = -obs.k_B * float(np.sum(st._plogp(p)))
    energy = float(np.trace(projected @ obs.energy_op).real) \
        if obs.energy_op is not None else float("nan")
    g_rate = float(obs.g_rate(projected)) if obs.g_rate is not None else float("nan")
    gen_means = tuple(float(np.trace(projected @ x).real) for x in obs.generator_ops)
    traj.samples.append(Sample(
        t=t, rho=projected.copy(), entropy=entropy, energy=energy, g_rate=g_rate,
        trace_err=trace_err, herm_err=herm_err,
        purity=float(np.sum(p ** 2)), min_eig=float(vals[0]),
        generator_means=gen_means))


def _rk4_step(f, m, dt, k1):
    k2 = f(m + 0.5 * dt * k1)
    k3 = f(m + 0.5 * dt * k2)
    k4 = f(m + dt * k3)
    return m + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate(rho0, rhs: Callable[[np.ndarray], np.ndarray],
              config: IntegratorConfig,
              observables: Observables | None = None,
              eq_norm: Callable[[np.ndarray], float] | None = None) -> Trajectory:
    """Integrate d(rho)/dt = rhs(rho) up to t_max or until the equilibrium
    norm drops below the configured tolerance.

    ``eq_norm`` overrides the norm used for equilibrium detection (for the
    nonlinear dynamics the dissipative-term norm is the meaningful one);
    the default is the full rhs Frobenius norm.
    """
    obs = observables or Observables()
    m = rho0.matrix.copy() if isinstance(rho0, StateOperator) else op.as_complex(rho0).copy()
    traj = Trajectory()
    t = 0.0
    _record(traj, t, m, project(m, config.projection) if config.projection != "off" else m, obs)

    def at_equilibrium(mat):
        """Whether detection is on and mat is at equilibrium, plus rhs(mat)
        when the norm needed it (it then serves as the next step's k1)."""
        tol = config.equilibrium_norm_tol
        if tol <= 0:
            return False, None
        if eq_norm is not None:
            return eq_norm(mat) <= tol, None
        k = rhs(mat)
        return float(np.linalg.norm(k, ord="fro")) <= tol, k

    reached_eq, k1 = at_equilibrium(m)
    if reached_eq:
        traj.termination = "equilibrium"
        return traj

    dt = config.dt_init
    steps_since_sample = 0
    next_boundary = config.sample_dt if config.sample_dt else None
    while t < config.t_max - 1e-15:
        dt = min(dt, config.t_max - t)
        if next_boundary is not None:
            if next_boundary <= t + 1e-15:
                next_boundary += config.sample_dt
            dt = min(dt, next_boundary - t)
        if k1 is None:
            k1 = rhs(m)
        if config.method == "rk4":
            m_new = _rk4_step(rhs, m, dt, k1)
            t_new = t + dt
            dt_next = dt
        else:
            # Dormand-Prince embedded pair with standard step control
            while True:
                k = [k1]
                for i in range(1, 7):
                    incr = sum(a * ki for a, ki in zip(_DP_A[i], k))
                    k.append(rhs(m + dt * incr))
                m5 = m + dt * sum(b * ki for b, ki in zip(_DP_B5, k))
                m4 = m + dt * sum(b * ki for b, ki in zip(_DP_B4, k))
                err = float(np.linalg.norm(m5 - m4, ord="fro"))
                scale = config.abs_tol + config.rel_tol * float(np.linalg.norm(m, ord="fro"))
                ratio = err / scale if scale > 0 else np.inf
                if ratio <= 1.0:
                    m_new, t_new = m5, t + dt
                    factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                    dt_next = min(config.dt_max, dt * factor)
                    break
                if dt <= config.dt_min * (1 + 1e-12):
                    raise StepUnderflowError(
                        f"dt_min {config.dt_min:g} reached at t = {t:g} with "
                        f"scaled error {ratio:.3e}")
                dt = max(config.dt_min, dt * max(0.2, 0.9 * ratio ** -0.2))

        m_proj = project(m_new, config.projection)
        if config.projection == "off":
            vals = np.linalg.eigvalsh(op.hermitize(m_proj))
            if vals[0] < st.EIG_CLAMP_FLOOR or abs(np.trace(m_proj).real - 1) > st.TRACE_TOL:
                raise StateInvalidError(
                    f"state left the valid set at t = {t_new:g} with projection off")
        t, m_raw, m = t_new, m_new, m_proj
        steps_since_sample += 1
        at_end = t >= config.t_max - 1e-15
        reached_eq, k1 = at_equilibrium(m)
        if next_boundary is not None:
            due = t >= next_boundary - 1e-15
        else:
            due = steps_since_sample >= config.sample_every
        if due or at_end or reached_eq:
            _record(traj, t, m_raw, m, obs)
            steps_since_sample = 0
        if reached_eq:
            traj.termination = "equilibrium"
            return traj
        dt = min(dt_next, config.dt_max) if config.method == "rk45" else dt
    traj.termination = "t_max"
    return traj
