#!/usr/bin/env python3
"""Two-qubit composite dynamics: separability, independence, entanglement.

Three experiments on the composite equation of motion:

  1. Noninteracting qubits prepared in independent full-rank states stay
     independent: the product distance stays at integrator noise and the
     total entropy production equals the sum of the private rates.
     Separability and independence are judged for a block K (here qubit
     0) against the rest K', its complement.

  2. The reduced equation of motion is consistent: partial-tracing the
     composite right-hand side reproduces the subsystem right-hand side
     of each block K.

  3. With an interacting Hamiltonian, a product of pure states evolves
     purely unitarily at first (the dissipator is exactly off), but the
     interaction entangles the factors and the dissipative term switches
     on.  The run starts from an identity-mixed state, the documented
     workflow for singular composites.
"""

import numpy as np

from seaqt import composite as cp
from seaqt import integrate as ig
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def run():
    print("Composite two-qubit experiments")
    print("-------------------------------")

    # -- experiment 1: separable constituents remain independent ----------
    h_free = op.kron(SZ, I2) + 0.7 * op.kron(I2, SZ)
    free = cp.validate_model(cp.CompositeModel(
        constituents=(cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=0.6)),
        H=h_free))
    separable, residual = cp.is_separable(free, (0,))
    print(f"noninteracting H separable: {separable} (residual {residual:.2e})")

    rho1 = st.random_full_rank(2, seed=11)
    rho2 = st.random_full_rank(2, seed=12)
    rho0 = st.StateOperator(op.kron(rho1.matrix, rho2.matrix))
    cfg = ig.IntegratorConfig(t_max=10.0, dt_max=0.5, rel_tol=1e-10,
                              abs_tol=1e-12, sample_dt=0.25)
    traj = ig.integrate(rho0, lambda m: cp.composite_rhs(m, free), cfg)
    m1 = sea.validate_model(sea.SingleConstituentModel(H=SZ, tau=1.0))
    m2 = sea.validate_model(sea.SingleConstituentModel(H=0.7 * SZ, tau=0.6))
    worst_dist = 0.0
    worst_add = 0.0
    for s in traj.samples:
        _, dist = cp.is_independent_state(s.rho, free, (0,))
        worst_dist = max(worst_dist, dist)
        total, _ = cp.composite_entropy_production(st.validate(s.rho), free)
        r1 = st.validate(op.partial_trace(s.rho, [2, 2], keep=[0]))
        r2 = st.validate(op.partial_trace(s.rho, [2, 2], keep=[1]))
        private = sea.entropy_production_rate(r1, m1) + \
            sea.entropy_production_rate(r2, m2)
        worst_add = max(worst_add, abs(total - private))
    print(f"max product-form distance over [0, 10 tau]  = {worst_dist:.3e}")
    print(f"max entropy-rate additivity residual        = {worst_add:.3e}")
    print("")

    # -- experiment 2: reduced equation consistency ------------------------
    h_int = h_free + 0.4 * op.kron(SX, SX)
    interacting = cp.validate_model(cp.CompositeModel(
        constituents=(cp.Constituent(2, tau=1.0), cp.Constituent(2, tau=0.6)),
        H=h_int))
    rho = st.random_full_rank(4, seed=21)
    full = cp.composite_rhs(rho, interacting)
    worst_reduce = 0.0
    for block in ((0,), (1,)):
        got = cp.reduced_rhs(rho, interacting, block)
        want = op.partial_trace(full, [2, 2], keep=list(block))
        worst_reduce = max(worst_reduce, float(np.abs(got - want).max()))
    print(f"interacting H separable: {cp.is_separable(interacting, (0,))[0]}")
    print(f"reduced-vs-partial-traced rhs gap = {worst_reduce:.3e}")
    print("")

    # -- experiment 3: entanglement switches the dissipator on -------------
    pure = st.StateOperator(op.kron(st.pure_state([np.cos(0.4), np.sin(0.4)]).matrix,
                                    st.pure_state([np.cos(1.0), 1j * np.sin(1.0)]).matrix))
    d0 = float(np.linalg.norm(cp.dissipative_term(pure, interacting), ord="fro"))
    print(f"dissipative term at the exact pure product    = {d0:.3e}")
    mixed = st.mix_with_identity(pure, 1e-6)
    cfg3 = ig.IntegratorConfig(t_max=3.0, dt_max=0.2, rel_tol=1e-9,
                               abs_tol=1e-11, sample_dt=0.05)
    traj3 = ig.integrate(mixed, lambda m: cp.composite_rhs(m, interacting), cfg3)
    print("t        purity(factor 1)   dissipator norm")
    peak = 0.0
    for s in traj3.samples[:: max(1, len(traj3.samples) // 10)]:
        r1 = st.validate(op.partial_trace(s.rho, [2, 2], keep=[0]))
        d = float(np.linalg.norm(cp.dissipative_term(st.validate(s.rho),
                                                     interacting), ord="fro"))
        peak = max(peak, d)
        print(f"{s.t:7.3f}  {r1.purity():.9f}       {d:.3e}")
    print("")

    ok = (worst_dist <= 1e-6 and worst_add <= 1e-6
          and worst_reduce <= 1e-9 and d0 <= 1e-10 and peak > 1e-6)
    print("Composite dynamics CHECK:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(run())
