"""The validity rule's certificate against the eigendecomposition rule.

``states._check_and_repair`` proves most states valid by a Cholesky
factorization and a norm test, and runs ``eigh`` only where that proof
fails.  The reference here is the eigh rule on its own: clamp eigenvalues
above the floor at 0, rebuild, renormalize.  Both ``states.validate`` and
``integrate.project`` must agree with it on valid states, and give the same
verdicts (clamp, snap, raise, naming the member) at the rule's edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from seaqt import integrate as ig
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import NotPositiveError, StateInvalidError, TraceError

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def eigh_rule(m):
    """The clamp-and-renormalize repair by eigendecomposition, per member."""
    vals, vecs = np.linalg.eigh(op.hermitize(m))
    r = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return op.hermitize(r / np.trace(r, axis1=-2, axis2=-1).real[..., None, None])


def with_spectrum(p, rng):
    dim = len(p)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = np.linalg.qr(x)[0]
    return op.hermitize((u * p) @ u.conj().T)


@SETTINGS
@given(seed=hs.integers(0, 2**31 - 1), dim=hs.sampled_from([2, 3, 4, 8, 16]),
       drift=hs.sampled_from([0.0, 1e-9, -5e-7]))
def test_valid_states_match_the_eigh_rule(seed, dim, drift):
    rng = np.random.default_rng(seed)
    stack = np.stack([st.random_full_rank(dim, seed=int(rng.integers(2**31))).matrix
                      for _ in range(3)]) * (1.0 + drift)
    want = eigh_rule(stack)
    assert np.abs(ig.project(stack, "full") - want).max() <= 1e-14
    for m, w in zip(stack, want):
        assert np.abs(ig.project(m, "full") - w).max() <= 1e-14
        assert np.abs(st.validate(m).matrix - w).max() <= 1e-14


def test_certified_members_skip_the_eigh_rule():
    stack = np.stack([st.random_full_rank(4, seed=s).matrix for s in range(3)])
    _, repaired, uncertified = ig._project(stack, "full")
    assert not repaired.any() and not uncertified.any()


class TestVerdicts:
    def test_clamps_at_minus_1e_11(self):
        rng = np.random.default_rng(1)
        p = np.array([0.5, 0.3, 0.2 + 1e-11, -1e-11])
        m = with_spectrum(p, rng)
        stack = np.stack([st.random_full_rank(4, seed=2).matrix, m])
        out, repaired, uncertified = ig._project(stack, "full")
        assert repaired.tolist() == [False, True]
        assert uncertified.tolist() == [False, True]
        assert np.abs(out - eigh_rule(stack)).max() <= 1e-14
        assert np.linalg.eigvalsh(out[1])[0] >= -1e-15
        assert np.abs(st.validate(m).matrix - eigh_rule(m)).max() <= 1e-14

    def test_raises_at_minus_1e_9_naming_the_member(self):
        rng = np.random.default_rng(2)
        m = with_spectrum(np.array([0.5, 0.3, 0.2 + 1e-9, -1e-9]), rng)
        stack = np.stack([st.random_full_rank(4, seed=s).matrix for s in range(3)])
        stack[2] = m
        with pytest.raises(StateInvalidError, match=r"below clamp floor during "
                                                    r"integration \(member 2\)") as exc:
            ig.project(stack, "full")
        assert exc.value.member == 2
        with pytest.raises(NotPositiveError, match="below clamp floor$"):
            st.validate(m)

    # rank-deficient, and full-rank, where only the norm test sees the snap
    @pytest.mark.parametrize("p", [[1.0 - 1e-12, 1e-12, 0.0], [1.0 - 1e-12, 5e-13, 5e-13]])
    def test_snaps_within_1e_12_of_purity(self, p):
        rng = np.random.default_rng(3)
        m = with_spectrum(np.array(p), rng)
        out, repaired, uncertified = ig._project(m, "full")
        assert repaired and uncertified
        vals = np.linalg.eigvalsh(out)
        assert vals[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.abs(vals[:-1]).max() <= 1e-15

    def test_raises_at_trace_1_plus_2e_6(self):
        m = st.random_full_rank(3, seed=4).matrix * (1.0 + 2e-6)
        with pytest.raises(TraceError, match="too far from 1 to renormalize$"):
            st.validate(m)
        stack = np.stack([st.random_full_rank(3, seed=5).matrix, m])
        with pytest.raises(StateInvalidError, match=r"\(member 1\)") as exc:
            ig.project(stack, "full")
        assert exc.value.member == 1


class TestProjectionRepairs:
    """``stats["projection_repairs"]`` counts the member-steps where the
    certificate failed and the eigh rule ran."""

    MODEL = sea.validate_model(sea.SingleConstituentModel(
        H=np.diag([0.0, 1.0, 2.5]).astype(complex),
        generators=(np.diag([1.0, -1.0, 0.5]).astype(complex),)))

    def run(self, rho0, **settings):
        config = ig.IntegratorConfig(t_max=1.0, **settings)
        return ig.integrate(rho0, lambda m: sea.sea_rhs(m, self.MODEL), config).stats

    def test_full_rank_relaxation_needs_no_repair(self):
        stats = self.run(st.random_full_rank(3, seed=6).matrix)
        assert stats["accepted_steps"] > 0 and stats["projection_repairs"] == 0

    def test_every_step_of_a_pure_state_is_repaired(self):
        # an eigenstate of H stays put, rank one, so no step is certified
        stats = self.run(st.pure_state([0.0, 1.0, 0.0]).matrix)
        assert stats["projection_repairs"] == stats["accepted_steps"] > 0

    def test_counts_members_of_a_stack(self):
        stack = np.stack([st.random_full_rank(3, seed=7).matrix,
                          st.pure_state([1.0, 0.0, 0.0]).matrix,
                          st.pure_state([0.0, 0.0, 1.0]).matrix])
        stats = self.run(stack)
        assert stats["projection_repairs"] == 2 * stats["accepted_steps"]

    def test_off_counts_the_raw_states_that_fail(self):
        # projection off keeps the integrated state, but the rule still
        # checks it, so a pure state fails the certificate at every step
        stats = self.run(st.pure_state([0.0, 1.0, 0.0]).matrix, projection="off")
        assert stats["projection_repairs"] == stats["accepted_steps"] > 0
