"""Time integration with structure-preserving projection and trajectory
recording.

Works with any right-hand side (nonlinear single/composite, linear
channels).  A method is an explicit Runge-Kutta tableau, and one loop steps
them all: rk45, the default, is the adaptive Dormand-Prince 5(4) pair, and
rk4, with no error weights, takes fixed steps for convergence-order checks.
With full projection every recorded sample is a valid state operator, and
the pre-projection trace/Hermiticity residuals are logged so projection
never silently masks integrator failure.
The validity rule itself, its tolerances and its repair, lives in
``states`` alone: full projection applies it to every step and sample, and
with projection off the same rule checks each step's raw state and raises
``StateInvalidError`` instead of repairing.  The rule first tries a
certificate (a Cholesky factorization and a norm test) that proves a
member valid with no eigendecomposition; ``eigh`` runs only where that
fails, and ``stats["projection_repairs"]`` counts those member-steps.

A tableau is FSAL (first same as last) when its weights are its last stage
row, as Dormand-Prince's are: that stage is the rhs at the solution.  When
the projection neither clamped an eigenvalue nor snapped the state to
purity, and moved it by no more than ``FSAL_MOVE_TOL`` relative to ||rho||
(round-off of the hermitization and trace renormalization), that stage is
the next step's k1; after a clamp or a snap, however small, k1 is evaluated
fresh at the projected state.  A rejected retry keeps its k1.  With
equilibrium detection by the default rhs norm, the norm is taken from the
same k1.  ``Trajectory.stats`` counts what the integrator makes, and with s
the tableau's stage count (a tableau without error weights rejects no step,
and one that is not FSAL reuses no k1) the counts obey exactly

    rhs_calls = (s - 1) (accepted_steps + rejected_steps)
                + accepted_steps + n0 - k1_reused,

where n0 = 1 when detection uses the default rhs norm (it needs a k1 at the
initial state too) and 0 otherwise.  ``projection_repairs`` counts, over
the accepted steps, the members that the validity certificate did not
prove valid (with projection off, of the raw state that the rule checks),
so it is at most accepted_steps times the number of members.

The state may be a stack of shape (..., d, d), a single state being the
empty leading shape.  The stack advances with one common dt, every step
is one stacked rhs call per stage, and the counts above, all but
``projection_repairs``, are stacked calls.

Without ``sample_dt`` every accepted step is recorded.  ``sample_dt``, which
only a tableau with a continuous extension (rk45) takes, sets where samples
fall, never its steps: a grid time inside an accepted step is read off that
extension over the step's stages, at no rhs call.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import operators as op
from . import states as st
from .errors import StateInvalidError, StepUnderflowError

PROJECTION_MODES = ("off", "full")


class Tableau(NamedTuple):
    """An explicit Runge-Kutta method."""

    a: np.ndarray                   # stage rows, strictly lower triangular
    b: np.ndarray                   # weights of the solution
    e: np.ndarray | None = None     # error weights; None: fixed steps of dt_init
    p: np.ndarray | None = None     # continuous extension; None: no sample_dt
    fsal: bool = False              # b is the last row of a


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

METHODS = {
    "rk45": Tableau(_DP_A, _DP_A[6], _DP_A[6] - _DP_B4, _DP_P, fsal=True),
    "rk4": Tableau(np.diag([0.5, 0.5, 1.0], -1), np.array([1, 2, 2, 1]) / 6),
}


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
    sample_dt: float | None = None      # rk45 records at the multiples of this

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.projection not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {self.projection!r}")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("require 0 < dt_min <= dt_init <= dt_max")
        if not self.rel_tol > 0 or not self.abs_tol > 0:
            raise ValueError("tolerances must be positive")
        if not 0 <= self.t_max < np.inf:
            raise ValueError("t_max must be finite and nonnegative")
        if not self.equilibrium_norm_tol >= 0:
            raise ValueError("equilibrium_norm_tol must be nonnegative (0 disables detection)")
        if self.sample_dt is not None and not self.sample_dt > 0:
            raise ValueError("sample_dt must be positive (or null for none)")
        if self.sample_dt is not None and METHODS[self.method].p is None:
            raise ValueError("sample_dt needs method rk45: rk4 records every step")


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
    # interpolated_samples, projection_repairs
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

    off returns the matrix as given; full hermitizes, applies the
    state-validity rule of ``states.validate`` and snaps near-pure members
    to purity.  A member that the rule's certificate proves valid (Cholesky factorization,
    trace within ``operators.TRACE_TOL`` of 1, and Tr - ||rho||_F above
    ``operators.PURE_TOL``, which rules out a snap) only renormalizes its
    trace.  When any member fails it, ``eigh`` runs on the stack: eigenvalues
    above ``operators.EIG_CLAMP_FLOOR`` clamp at zero, the trace
    renormalizes, and a member within the purity cut becomes the projector
    onto its top eigenvector.  Matrices beyond repair raise
    ``StateInvalidError``.
    """
    return _project(rho_raw, mode)[0]


def _project(rho_raw: np.ndarray, mode: str):
    """``project``, plus two masks over the members: those that it clamped
    or snapped to purity (however little either moved them), and those that
    failed the certificate, so that the eigh rule ran."""
    untouched = np.zeros(rho_raw.shape[:-2], dtype=bool)
    if mode == "off":
        return rho_raw, untouched, untouched
    m, uncertified, spectral = st._check_and_repair(op.hermitize(rho_raw), StateInvalidError,
                                                    StateInvalidError, " during integration")
    if spectral is None:
        return m, untouched, uncertified
    vals, vecs = spectral
    # pure states are exact fixed points of the dissipative flow but sit on
    # an entropy-ascent-unstable manifold; spectral weight off the top
    # eigenvalue below the pure cut is step noise, so strip it before it
    # can seed an escape
    pure = st.is_pure(np.clip(vals[..., ::-1], 0.0, None))
    if np.count_nonzero(pure):
        top = vecs[..., :, -1][pure]
        m[pure] = top[:, :, None] * top[:, None, :].conj()
    return m, (vals[..., 0] < 0.0) | pure, uncertified


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
    stage that is not finite ends the run at once: no dt makes it finite.
    A ``StateInvalidError`` or ``StepUnderflowError`` names the member.
    Samples hold the stack, with one value per member in every column, and
    ``stats`` counts stacked evaluations.

    Without ``sample_dt`` every accepted step is a sample.  With it (rk45
    only), samples fall on its multiples and at the end: a multiple inside
    a step is recorded from the step's continuous extension, projected as
    every sample is, with the raw interpolant's residuals; a multiple at a
    step's end, t_max and an equilibrium are recorded from the step.

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
                 interpolated_samples=0, projection_repairs=0)
    t = 0.0
    _record(traj, t, m, project(m, config.projection), obs)

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
        return bool((op.frobenius_norms(k1) <= tol).all()), k1

    reached_eq, k1 = at_equilibrium(m, None)
    if reached_eq:
        traj.termination = "equilibrium"
        return traj

    a, b, e, p, fsal = METHODS[config.method]
    stages = np.empty((len(b), *m.shape), dtype=complex)
    flat = stages.reshape(len(b), -1)
    dt = config.dt_init
    next_boundary = config.sample_dt
    while t < config.t_max - op.TIME_SLOP:
        dt = min(dt, config.t_max - t)
        if next_boundary is not None and next_boundary <= t + op.TIME_SLOP:
            next_boundary += config.sample_dt
        stages[0] = f(m) if k1 is None else k1
        scale = config.abs_tol + config.rel_tol * op.frobenius_norms(m)
        while True:
            for i in range(1, len(b)):
                y = m + dt * (a[i, :i] @ flat[:i]).reshape(m.shape)
                stages[i] = f(y)
            m_new = y if fsal else m + dt * (b @ flat).reshape(m.shape)
            if e is None:
                ratio = 0.0 if np.isfinite(m_new).all() else np.inf
            else:   # standard step control, on the largest scaled error over the members
                ratios = dt * op.frobenius_norms((e @ flat).reshape(m.shape)) / scale
                ratio = float(ratios.max())
            if not ratio < np.inf:   # no dt makes a non-finite stage finite
                for i, bad in enumerate(~np.isfinite(stages).all(axis=(-2, -1))):
                    st._raise_for(bad, bad, StateInvalidError,
                                  f"{config.method} stage {i + 1} is not finite at t = {t:g}")
            factor = 5.0 if ratio == 0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
            if ratio <= 1.0 or e is None:
                break
            if dt <= config.dt_min * op.DT_MIN_SLACK:
                st._raise_for(ratios == ratio, ratios, StepUnderflowError,
                              f"dt_min {config.dt_min:g} reached at t = {t:g} with "
                              "scaled error {:.3e}")
            stats["rejected_steps"] += 1
            dt = max(config.dt_min, dt * factor)
        t_new = t + dt
        dt_next = config.dt_init if e is None else min(config.dt_max, dt * factor)
        # boundaries inside the step, from its continuous extension
        while next_boundary is not None and next_boundary < t_new - op.TIME_SLOP:
            theta = (next_boundary - t) / dt
            mid = m + dt * (p @ theta ** np.arange(1, len(p[0]) + 1) @ flat).reshape(m.shape)
            _record(traj, next_boundary, mid, _project(mid, config.projection)[0], obs)
            stats["interpolated_samples"] += 1
            next_boundary += config.sample_dt

        m_proj, repaired, uncertified = _project(m_new, config.projection)
        if config.projection == "off":
            # the same rule checks the raw state, and its repair is discarded
            uncertified = st._check_and_repair(
                op.hermitize(m_new), StateInvalidError, StateInvalidError,
                f" at t = {t_new:g} with projection off")[1]
        stats["projection_repairs"] += int(np.count_nonzero(uncertified))
        t, m_raw, m = t_new, m_new, m_proj
        stats["accepted_steps"] += 1
        at_end = t >= config.t_max - op.TIME_SLOP
        # FSAL: the last stage is the rhs at m_raw, and serves as the next k1
        # when the projection neither clamped nor snapped any member and
        # moved each by round-off only
        reuse = fsal and not np.count_nonzero(repaired) and (
            m is m_raw or bool((op.frobenius_norms(m - m_raw)
                                <= op.FSAL_MOVE_TOL * op.frobenius_norms(m_raw)).all()))
        reached_eq, k1 = at_equilibrium(m, stages[-1] if reuse else None)
        if reuse and (norm_from_k1 or not (at_end or reached_eq)):
            stats["k1_reused"] += 1
        due = next_boundary is None or t >= next_boundary - op.TIME_SLOP
        if due or at_end or reached_eq:
            _record(traj, t, m_raw, m, obs)
        if reached_eq:
            traj.termination = "equilibrium"
            return traj
        dt = dt_next
    traj.termination = "t_max"
    return traj
