"""Time integration with structure-preserving projection and trajectory
recording.

Works with any right-hand side (nonlinear single/composite, linear channels).
The default method is an adaptive Dormand-Prince RK45; fixed-step RK4 is
retained for convergence-order checks.  With full projection every recorded
sample is a valid state operator, and the pre-projection trace/Hermiticity
residuals are logged so projection never silently masks integrator failure.
The validity rule itself, its tolerances and its repair, lives in
``states`` alone: full projection applies it to every step and sample, and
with projection off the same rule checks each step's raw state and raises
``StateInvalidError`` instead of repairing.

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

The state may be a stack of shape (..., d, d), a single state being the
empty leading shape.  The stack advances with one common dt, every step
is one stacked rhs call per stage, and the counts above are stacked calls.

``sample_dt`` sets where samples fall, never the steps of rk45: a grid
time inside an accepted step is read off the Dormand-Prince continuous
extension over the step's stages, at no rhs call.  rk4, fixed-step and
kept for order checks, has no free interpolant of its order, so its steps
land on the grid.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import operators as op
from . import states as st
from .errors import StateInvalidError, StepUnderflowError

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
# Continuous extension of the pair (Shampine, Math. Comp. 46 (1986) 135;
# Hairer, Norsett & Wanner, Solving ODEs I, sec. II.6): over an accepted
# step y(t + theta h) = y0 + h sum_i b_i(theta) k_i, 4th order, with
# b(theta) = _DP_P @ (theta, theta^2, theta^3, theta^4), so b(1) = B5.
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


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
    sample_dt: float | None = None      # record at the multiples of this
                                        # (rk45 interpolates, rk4 steps onto them)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.projection not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {self.projection!r}")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("require 0 < dt_min <= dt_init <= dt_max")
        if not self.rel_tol > 0 or not self.abs_tol > 0:
            raise ValueError("tolerances must be positive")
        if not np.isfinite(self.t_max):
            raise ValueError("t_max must be finite")
        if self.sample_dt is not None and not self.sample_dt > 0:
            raise ValueError("sample_dt must be positive (or null for none)")


@dataclass(frozen=True)
class Observables:
    """Derived quantities recorded at each sample.  ``g_rate`` takes a
    sample's state or (..., d, d) stack and returns one value per member."""

    energy_op: np.ndarray | None = None
    generator_ops: tuple = ()
    g_rate: Callable[[np.ndarray], float | np.ndarray] | None = None
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
    # integrator counts: rhs_calls, accepted_steps, rejected_steps, k1_reused,
    # interpolated_samples
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
        """A single-state trajectory as CSV.

        Exact column order: t, entropy, energy, g_rate, trace_err,
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
    """Pull a near-valid matrix, or each member of a (..., d, d) stack, back
    onto the state set.

    hermitize_only symmetrizes; full additionally applies the state-validity
    rule of ``states.validate`` (clamp eigenvalues above
    ``states.EIG_CLAMP_FLOOR`` at zero, renormalize the trace) and snaps
    near-pure members to purity.  Matrices beyond repair raise
    ``StateInvalidError``.
    """
    return _project(rho_raw, mode)[0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a (..., d, d) stack, bit for bit
    ``np.linalg.norm`` of that member."""
    f = x.reshape(*x.shape[:-2], -1)
    return np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag))


def _project(rho_raw: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """``project``, plus a mask of the members that it clamped or snapped
    to purity (however little either moved them)."""
    untouched = np.zeros(rho_raw.shape[:-2], dtype=bool)
    if mode == "off":
        return rho_raw, untouched
    m = op.hermitize(rho_raw)
    if mode == "hermitize_only":
        return m, untouched
    m, vals, vecs = st._check_and_repair(m, StateInvalidError, StateInvalidError,
                                         " during integration")
    # pure states are exact fixed points of the dissipative flow but sit on
    # an entropy-ascent-unstable manifold; spectral weight off the top
    # eigenvalue below the pure cut is step noise, so strip it before it
    # can seed an escape
    pure = st.is_pure(np.clip(vals[..., ::-1], 0.0, None))
    if np.count_nonzero(pure):
        top = vecs[..., :, -1][pure]
        m[pure] = top[:, :, None] * top[:, None, :].conj()
    return m, (vals[..., 0] < 0.0) | pure


def _expectation(rho: np.ndarray, a: np.ndarray):
    """Tr(rho A) per member of a (..., d, d) stack."""
    return np.trace(rho @ a, axis1=-2, axis2=-1).real


def _record(traj: Trajectory, t: float, raw: np.ndarray, projected: np.ndarray,
            obs: Observables) -> None:
    """One sample; over a stack every column holds one value per member.
    ``obs.g_rate`` is called once, on the state or the whole stack."""
    vals = np.linalg.eigvalsh(op.hermitize(projected))
    p = np.clip(vals, 0.0, None)
    nan = float("nan")
    energy = _expectation(projected, obs.energy_op) if obs.energy_op is not None else nan
    g_rate = nan if obs.g_rate is None else obs.g_rate(projected)
    traj.samples.append(Sample(
        t=t, rho=projected.copy(), entropy=-obs.k_B * st._plogp(p).sum(axis=-1),
        energy=energy, g_rate=g_rate,
        trace_err=np.abs(np.trace(raw, axis1=-2, axis2=-1).real - 1.0),
        herm_err=np.abs(raw - raw.conj().swapaxes(-1, -2)).max(axis=(-2, -1)),
        purity=(p ** 2).sum(axis=-1), min_eig=vals[..., 0][()],
        generator_means=tuple(_expectation(projected, x) for x in obs.generator_ops)))


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

    ``rho0`` is one state or a stack of shape (..., d, d), and ``rhs`` must
    then accept the stack.  A stack advances with one common dt: each
    member gets its own scaled error abs_tol + rel_tol ||rho_i||, and a
    step is accepted on the largest ratio.  Projection repairs each member;
    after any member's clamp or purity snap k1 is evaluated fresh for the
    whole stack.  Equilibrium is reached when every member is there.  A
    ``StateInvalidError`` or ``StepUnderflowError`` names the member.
    Samples hold the stack, with one value per member in every column, and
    ``stats`` counts stacked evaluations.

    With ``sample_dt`` set, samples fall on its multiples and at the end.
    rk45 records a multiple inside a step from the step's continuous
    extension, projected as every sample is, with the raw interpolant's
    residuals; a multiple at a step's end, t_max and an equilibrium are
    recorded from the step.  rk4 clips a step that would pass a multiple
    to end on it, and takes its next step at dt_init again.

    ``eq_norm`` overrides the norm used for equilibrium detection (for the
    nonlinear dynamics the dissipative-term norm is the meaningful one);
    the default is the full rhs Frobenius norm, taken from the k1 that the
    next step starts from.
    """
    obs = observables or Observables()
    m = st._as_matrix(rho0).copy()
    traj = Trajectory()
    stats = traj.stats
    stats.update(rhs_calls=0, accepted_steps=0, rejected_steps=0, k1_reused=0,
                 interpolated_samples=0)
    t = 0.0
    _record(traj, t, m, project(m, config.projection) if config.projection != "off" else m, obs)

    def f(mat):
        stats["rhs_calls"] += 1
        return rhs(mat)

    tol = config.equilibrium_norm_tol
    norm_from_k1 = tol > 0 and eq_norm is None

    def at_equilibrium(mat, k1):
        """Whether detection is on and every member of mat is at
        equilibrium, plus k1 = rhs(mat) once the default norm needed it."""
        if tol <= 0:
            return False, k1
        if eq_norm is not None:
            return bool(np.all(eq_norm(mat) <= tol)), k1
        if k1 is None:
            k1 = f(mat)
        return bool((_norms(k1) <= tol).all()), k1

    reached_eq, k1 = at_equilibrium(m, None)
    if reached_eq:
        traj.termination = "equilibrium"
        return traj

    stages = np.empty((7, *m.shape), dtype=complex)
    flat = stages.reshape(7, -1)
    dt = config.dt_init
    steps_since_sample = 0
    next_boundary = config.sample_dt
    dense = next_boundary is not None and config.method == "rk45"
    while t < config.t_max - TIME_SLOP:
        dt = min(dt, config.t_max - t)
        if next_boundary is not None:
            if next_boundary <= t + TIME_SLOP:
                next_boundary += config.sample_dt
            if not dense:
                dt = min(dt, next_boundary - t)
        if k1 is None:
            k1 = f(m)
        if config.method == "rk4":
            m_new = _rk4_step(f, m, dt, k1)
            t_new = t + dt
            dt_next = config.dt_init    # a step clipped to the grid is not kept
        else:
            # Dormand-Prince embedded pair with standard step control, on the
            # largest scaled error over the members
            stages[0] = k1
            scale = config.abs_tol + config.rel_tol * _norms(m)
            while True:
                for i in range(1, 7):
                    y = m + dt * (_DP_A[i, :i] @ flat[:i]).reshape(m.shape)
                    stages[i] = f(y)
                ratios = dt * _norms((_DP_E @ flat).reshape(m.shape)) / scale
                ratio = float(ratios.max())
                if ratio <= 1.0:
                    m_new, t_new = y, t + dt    # y = m + dt B5 k, stage 7's point
                    factor = 5.0 if ratio == 0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
                    dt_next = min(config.dt_max, dt * factor)
                    break
                if dt <= config.dt_min * DT_MIN_SLACK:
                    st._raise_for(ratios == ratio, ratios, StepUnderflowError,
                                  f"dt_min {config.dt_min:g} reached at t = {t:g} with "
                                  "scaled error {:.3e}")
                stats["rejected_steps"] += 1
                dt = max(config.dt_min, dt * max(0.2, 0.9 * ratio ** -0.2))
            # boundaries inside the step, from its continuous extension
            while dense and next_boundary < t_new - TIME_SLOP:
                theta = (next_boundary - t) / dt
                mid = m + dt * (_DP_P @ theta ** np.arange(1, 5) @ flat).reshape(m.shape)
                _record(traj, next_boundary, mid, _project(mid, config.projection)[0], obs)
                stats["interpolated_samples"] += 1
                next_boundary += config.sample_dt

        m_proj, repaired = _project(m_new, config.projection)
        if config.projection == "off":
            # the same rule checks the raw state, and its repair is discarded
            st._check_and_repair(op.hermitize(m_new), StateInvalidError, StateInvalidError,
                                 f" at t = {t_new:g} with projection off")
        t, m_raw, m = t_new, m_new, m_proj
        stats["accepted_steps"] += 1
        steps_since_sample += 1
        at_end = t >= config.t_max - TIME_SLOP
        # FSAL: the last stage is the rhs at m_raw, and serves as the next k1
        # when the projection neither clamped nor snapped any member and
        # moved each by round-off only
        fsal = config.method == "rk45" and not np.count_nonzero(repaired) and (
            m is m_raw or bool((_norms(m - m_raw) <= FSAL_MOVE_TOL * _norms(m_raw)).all()))
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
        dt = dt_next
    traj.termination = "t_max"
    return traj
