"""Time integration with structure-preserving projection and trajectory
recording.

Works with any right-hand side (nonlinear single/composite, linear channels).
The default method is an adaptive Dormand-Prince RK45; fixed-step RK4 is
retained for convergence-order checks.  With full projection every recorded
sample is a valid state operator, and the pre-projection trace/Hermiticity
residuals are logged so projection never silently masks integrator failure.

Dormand-Prince is FSAL (first same as last): its 7th stage is evaluated at
the 5th-order solution.  When the projection neither clamped an eigenvalue
nor snapped the state to purity, and moved it by no more than
``FSAL_MOVE_TOL`` relative to ||rho|| (round-off of the hermitization and
trace renormalization), that stage is the next step's k1; after a clamp or
a snap, however small, k1 is evaluated fresh at the projected state.  A
rejected retry keeps its k1.  With equilibrium detection by the default
rhs norm, the norm is taken from the same k1.  ``Trajectory.stats`` counts
what the integrator makes, and with s stages (7 for rk45, 4 for rk4; rk4
has no rejections and no reuse) the counts obey exactly

    rhs_calls = (s - 1) (accepted_steps + rejected_steps)
                + accepted_steps + e - k1_reused,

where e = 1 when detection uses the default rhs norm (it needs a k1 at the
initial state too) and 0 otherwise.
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

# Integrator tolerances
TIME_SLOP = 1e-15          # a time this close to t_max or to a sample_dt
                           # boundary counts as having reached it
DT_MIN_SLACK = 1 + 1e-12   # a rejected step at dt <= dt_min * slack underflows
FSAL_MOVE_TOL = 1e-12      # a projection move up to this (Frobenius, relative
                           # to ||rho||) is round-off, and the last stage is
                           # reused as the next step's k1 unless the move
                           # clamped or snapped; those get a fresh k1

# Dormand-Prince 5(4) tableau (the rhs is autonomous, so the nodes c_i are
# not needed).  The last row of A is the 5th-order weight row B5, so the 7th
# stage is evaluated at the 5th-order solution (FSAL).  E = B5 - B4 weights
# the embedded error estimate.
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_A[6] - _DP_B4


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
    # integrator counts: rhs_calls, accepted_steps, rejected_steps, k1_reused
    stats: dict = field(default_factory=dict)

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
    return _project(rho_raw, mode)[0]


def _project(rho_raw: np.ndarray, mode: str) -> tuple[np.ndarray, bool]:
    """``project``, plus whether it clamped an eigenvalue or snapped the
    state to purity (however little either moved it)."""
    if mode == "off":
        return rho_raw, False
    m = op.hermitize(rho_raw)
    if mode == "hermitize_only":
        return m, False
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < st.EIG_CLAMP_FLOOR:
        raise StateInvalidError(
            f"eigenvalue {vals[0]:.3e} below clamp floor during integration")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > st.TRACE_TOL:
        raise StateInvalidError(f"trace {tr!r} drifted beyond repair")
    clamped = bool(vals[0] < 0.0)
    vals = np.clip(vals, 0.0, None)
    # pure states are exact fixed points of the dissipative flow but sit on
    # an entropy-ascent-unstable manifold; spectral weight off the top
    # eigenvalue below the pure cut is step noise, so strip it before it
    # can seed an escape
    if float(np.sum(vals[:-1])) <= st.PURE_TOL:
        top = vecs[:, -1]
        return np.outer(top, top.conj()), True
    m = (vecs * vals) @ vecs.conj().T
    return op.hermitize(m / float(np.trace(m).real)), clamped


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
    the default is the full rhs Frobenius norm, taken from the k1 that the
    next step starts from.
    """
    obs = observables or Observables()
    m = rho0.matrix.copy() if isinstance(rho0, StateOperator) else op.as_complex(rho0).copy()
    traj = Trajectory()
    stats = traj.stats
    stats.update(rhs_calls=0, accepted_steps=0, rejected_steps=0, k1_reused=0)
    t = 0.0
    _record(traj, t, m, project(m, config.projection) if config.projection != "off" else m, obs)

    def f(mat):
        stats["rhs_calls"] += 1
        return rhs(mat)

    tol = config.equilibrium_norm_tol
    norm_from_k1 = tol > 0 and eq_norm is None

    def at_equilibrium(mat, k1):
        """Whether detection is on and mat is at equilibrium, plus k1 =
        rhs(mat) once the default norm needed it."""
        if tol <= 0:
            return False, k1
        if eq_norm is not None:
            return eq_norm(mat) <= tol, k1
        if k1 is None:
            k1 = f(mat)
        return float(np.linalg.norm(k1)) <= tol, k1

    reached_eq, k1 = at_equilibrium(m, None)
    if reached_eq:
        traj.termination = "equilibrium"
        return traj

    stages = np.empty((7, *m.shape), dtype=complex)
    flat = stages.reshape(7, -1)
    dt = config.dt_init
    steps_since_sample = 0
    next_boundary = config.sample_dt if config.sample_dt else None
    while t < config.t_max - TIME_SLOP:
        dt = min(dt, config.t_max - t)
        if next_boundary is not None:
            if next_boundary <= t + TIME_SLOP:
                next_boundary += config.sample_dt
            dt = min(dt, next_boundary - t)
        if k1 is None:
            k1 = f(m)
        if config.method == "rk4":
            m_new = _rk4_step(f, m, dt, k1)
            t_new = t + dt
            dt_next = dt
        else:
            # Dormand-Prince embedded pair with standard step control
            stages[0] = k1
            while True:
                for i in range(1, 7):
                    y = m + dt * (_DP_A[i, :i] @ flat[:i]).reshape(m.shape)
                    stages[i] = f(y)
                err = dt * float(np.linalg.norm(_DP_E @ flat))
                scale = config.abs_tol + config.rel_tol * float(np.linalg.norm(m))
                ratio = err / scale if scale > 0 else np.inf
                if ratio <= 1.0:
                    m_new, t_new = y, t + dt    # y = m + dt B5 k, stage 7's point
                    factor = 5.0 if err == 0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                    dt_next = min(config.dt_max, dt * factor)
                    break
                if dt <= config.dt_min * DT_MIN_SLACK:
                    raise StepUnderflowError(
                        f"dt_min {config.dt_min:g} reached at t = {t:g} with "
                        f"scaled error {ratio:.3e}")
                stats["rejected_steps"] += 1
                dt = max(config.dt_min, dt * max(0.2, 0.9 * ratio ** -0.2))

        m_proj, repaired = _project(m_new, config.projection)
        if config.projection == "off":
            vals = np.linalg.eigvalsh(op.hermitize(m_proj))
            if vals[0] < st.EIG_CLAMP_FLOOR or abs(np.trace(m_proj).real - 1) > st.TRACE_TOL:
                raise StateInvalidError(
                    f"state left the valid set at t = {t_new:g} with projection off")
        t, m_raw, m = t_new, m_new, m_proj
        stats["accepted_steps"] += 1
        steps_since_sample += 1
        at_end = t >= config.t_max - TIME_SLOP
        # FSAL: the last stage is the rhs at m_raw, and serves as the next k1
        # when the projection neither clamped nor snapped and moved the state
        # by round-off only
        fsal = config.method == "rk45" and not repaired and (
            m is m_raw or float(np.linalg.norm(m - m_raw))
            <= FSAL_MOVE_TOL * float(np.linalg.norm(m_raw)))
        reached_eq, k1 = at_equilibrium(m, stages[6] if fsal else None)
        if fsal and (norm_from_k1 or not (at_end or reached_eq)):
            stats["k1_reused"] += 1
        if next_boundary is not None:
            due = t >= next_boundary - TIME_SLOP
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
