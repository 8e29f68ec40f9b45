#!/usr/bin/env python3
"""Single-qubit relaxation under the nonlinear entropy-ascent law.

A coherent (non-equilibrium) qubit state evolves toward the Gibbs state
that shares its mean energy.  Along the way:

  - the trace and the mean energy are constants of the motion,
  - the entropy climbs monotonically at the rate set by the Gram
    determinant of {ln rho, H} in the state-weighted covariance product,
  - the motion stops exactly on the maximum-entropy state for that energy.

Checks at the end compare the final state against the independently solved
Gibbs state and verify the conservation ledger.
"""

import numpy as np

from seaqt import equilibrium as eq
from seaqt import integrate as ig
from seaqt import sea
from seaqt import states as st


def run():
    print("Single-qubit entropy-ascent relaxation")
    print("--------------------------------------")

    h = np.diag([0.0, 1.0]).astype(complex)
    model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
    rho0 = st.validate(np.array([[0.62, 0.27 + 0.1j],
                                 [0.27 - 0.1j, 0.38]], dtype=complex))

    e0 = st.mean(h, rho0)
    s0 = st.entropy(rho0)
    print(f"initial energy   <H> = {e0:.6f}")
    print(f"initial entropy  s   = {s0:.6f}")
    print(f"initial entropy production rate g-rate = "
          f"{sea.entropy_production_rate(rho0, model):.6f}")
    print("")

    cfg = ig.IntegratorConfig(t_max=60.0, dt_max=2.0, rel_tol=1e-12,
                              abs_tol=1e-13, equilibrium_norm_tol=1e-10,
                              sample_dt=1.0)
    obs = ig.Observables(energy_op=h,
                         g_rate=lambda m: sea.entropy_production_rate(m, model))
    traj = ig.integrate(rho0, lambda m: sea.sea_rhs(m, model), cfg, obs)

    print("t        entropy      energy       g-rate       |rho01|")
    for s in traj.samples[:: max(1, len(traj.samples) // 12)]:
        print(f"{s.t:7.3f}  {s.entropy:.9f}  {s.energy:.9f}  "
              f"{s.g_rate:.3e}  {abs(s.rho[0, 1]):.3e}")
    print(f"termination: {traj.termination} at t = {traj.final.t:.3f}")
    print("")

    # independent target: maximum-entropy state with the same energy
    constants = eq.constant_set([h])
    multipliers = eq.solve_multipliers(constants, [e0])
    target = eq.gibbs_state(constants, multipliers)
    gap = st.distance(st.validate(traj.final.rho), target)
    entropy_drops = float(np.max(np.maximum(-np.diff(traj.column("entropy")), 0),
                                 initial=0.0))
    energy_drift = float(np.abs(traj.column("energy") - e0).max())

    print(f"solved inverse temperature beta = {multipliers.beta:.6f}")
    print(f"Frobenius gap to the Gibbs target = {gap:.3e}")
    print(f"largest entropy drop along the way = {entropy_drops:.3e}")
    print(f"largest energy drift along the way = {energy_drift:.3e}")
    print("")

    ok = gap <= 1e-6 and entropy_drops <= 1e-10 and energy_drift <= 1e-7
    print("Qubit relaxation CHECK:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(run())
