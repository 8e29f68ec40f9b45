import inspect

import numpy as np
import pytest

from references import is_dirac
from seaqt import ensemble as en
from seaqt import integrate as ig
from seaqt import operators as op
from seaqt import sea
from seaqt import states as st
from seaqt.errors import (DimensionMismatchError, MeasureWeightError,
                          TargetInfeasibleError)


def two_point():
    return en.measure([(0.3, st.pure_state([1, 0])),
                       (0.7, st.validate(np.eye(2) / 2))])


class TestMeasureConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(MeasureWeightError):
            en.measure([(0.5, st.pure_state([1, 0]))])

    def test_weights_must_be_positive(self):
        with pytest.raises(MeasureWeightError):
            en.measure([(1.2, st.pure_state([1, 0])),
                        (-0.2, st.pure_state([0, 1]))])

    def test_duplicate_support_merges(self):
        rho = st.pure_state([1, 0])
        mu = en.measure([(0.4, rho), (0.6, st.StateOperator(rho.matrix.copy()))])
        assert is_dirac(mu)
        assert mu.weights[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("order, groups", [
        ("abc", ["ab", "c"]), ("bac", ["bac"]), ("acb", ["ab", "c"]), ("cab", ["cb", "a"])])
    def test_a_point_joins_the_first_entry_whose_first_point_is_close(self, order, groups):
        # a ~ b and b ~ c within MERGE_TOL, but a and c are not: merging is
        # not transitive, so the grouping follows the order of the points
        e = 0.7 * op.MERGE_TOL / np.sqrt(2.0)
        points = {name: st.validate(np.diag([0.5 + i * e, 0.5 - i * e]))
                  for i, name in enumerate("abc")}
        weights = {"a": 0.2, "b": 0.3, "c": 0.5}
        mu = en.measure([(weights[x], points[x]) for x in order])
        assert len(mu) == len(groups)
        assert all(s is points[g[0]] for s, g in zip(mu.states, groups))
        assert list(mu.weights) == [sum(weights[x] for x in sorted(g, key=order.index))
                                    for g in groups]

    def test_points_of_different_dimension_are_rejected(self):
        with pytest.raises(DimensionMismatchError):
            en.measure([(0.5, st.pure_state([1, 0])), (0.5, st.pure_state([1, 0, 0]))])

    def test_canonicalization_idempotent(self):
        mu = two_point()
        again = en.measure(list(mu.support))
        assert len(again) == len(mu)
        assert np.allclose(again.weights, mu.weights)

    def test_combine_of_distinct_diracs_not_dirac(self):
        # the composition 0.3 delta_a + 0.7 delta_b of two distinct points
        mu = en.measure([(0.3, st.pure_state([1, 0])), (0.7, st.pure_state([0, 1]))])
        assert not is_dirac(mu)
        assert len(mu) == 2

    def test_combine_identical_diracs_is_dirac(self):
        # 0.4 delta_a + 0.6 delta_a, with a built twice, is delta_a
        mu = en.measure([(0.4, st.pure_state([1, 0])), (0.6, st.pure_state([1, 0]))])
        assert is_dirac(mu)


class TestExpectedValues:
    def test_dirac_returns_functional_value(self):
        rho = st.validate(np.diag([0.75, 0.25]))
        mu = en.dirac(rho)
        assert en.expected_value(mu, st.entropy) == pytest.approx(st.entropy(rho))

    def test_uniform_two_point_entropy(self):
        mu = en.measure([(0.5, st.pure_state([1, 0])),
                         (0.5, st.validate(np.eye(2) / 2))])
        assert en.expected_entropy(mu) == pytest.approx(0.5 * np.log(2))

    def test_combination_linearity(self):
        h = np.diag([0.0, 1.0])
        mu1 = en.dirac(st.validate(np.diag([0.8, 0.2])))
        mu2 = en.dirac(st.validate(np.diag([0.4, 0.6])))
        mu = en.measure([(0.25, mu1.states[0]), (0.75, mu2.states[0])])
        want = 0.25 * en.mean_observable(mu1, h) + 0.75 * en.mean_observable(mu2, h)
        assert en.mean_observable(mu, h) == pytest.approx(want, abs=1e-12)


class TestStatisticalUncertainty:
    def test_dirac_zero(self):
        assert en.statistical_uncertainty(en.dirac(st.pure_state([1, 0]))) == 0.0

    def test_uniform_four_point(self):
        states = [st.pure_state(v) for v in np.eye(4)]
        mu = en.measure([(0.25, s) for s in states])
        assert en.statistical_uncertainty(mu) == pytest.approx(np.log(4))

    def test_specific_weights(self):
        states = [st.pure_state(v) for v in np.eye(3)]
        mu = en.measure(list(zip([0.7, 0.2, 0.1], states)))
        want = -(0.7 * np.log(0.7) + 0.2 * np.log(0.2) + 0.1 * np.log(0.1))
        assert en.statistical_uncertainty(mu) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.80182, abs=1e-5)

    def test_bounds_and_dirac_iff_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            raw = rng.dirichlet(np.ones(n))
            states = [st.random_full_rank(2, seed=int(rng.integers(1 << 30)))
                      for _ in range(n)]
            mu = en.measure(list(zip(raw, states)))
            i_mu = en.statistical_uncertainty(mu)
            assert -1e-12 <= i_mu <= np.log(len(mu)) + 1e-12
            assert (i_mu <= 1e-12) == is_dirac(mu)

    def test_scale_constant(self):
        mu = two_point()
        assert en.statistical_uncertainty(mu, c=2.0) == \
            pytest.approx(2 * en.statistical_uncertainty(mu))


class TestEntropyVsUncertainty:
    def test_pure_states_zero_entropy_positive_uncertainty(self):
        mu = en.measure([(0.3, st.pure_state([1, 0])),
                         (0.7, st.pure_state([0, 1]))])
        assert en.expected_entropy(mu) == pytest.approx(0.0, abs=1e-12)
        want = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert en.statistical_uncertainty(mu) == pytest.approx(want)

    def test_dirac_at_mixed_state_converse(self):
        mu = en.dirac(st.validate(np.eye(2) / 2))
        assert en.expected_entropy(mu) == pytest.approx(np.log(2))
        assert en.statistical_uncertainty(mu) == 0.0

    def test_weighted_mixture_of_entropies(self):
        mu = en.measure([(0.5, st.validate(np.diag([0.75, 0.25]))),
                         (0.5, st.validate(np.eye(2) / 2))])
        s1 = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        assert en.expected_entropy(mu) == pytest.approx(0.5 * s1 + 0.5 * np.log(2))


class TestEvolveMeasure:
    def test_dirac_evolves_to_dirac(self):
        h = np.diag([0.0, 1.0])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        mu = en.dirac(st.validate(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)))
        out = en.evolve_measure(mu, lambda m: sea.sea_rhs(m, model), t_max=1.0)
        assert is_dirac(out)

    def test_weights_invariant_and_energy_conserved(self):
        h = np.diag([0.0, 1.0])
        model = sea.validate_model(sea.SingleConstituentModel(H=h, tau=1.0))
        mu = en.measure([(0.3, st.random_full_rank(2, seed=1)),
                         (0.7, st.random_full_rank(2, seed=2))])
        e0 = en.mean_observable(mu, h)
        out = en.evolve_measure(mu, lambda m: sea.sea_rhs(m, model), t_max=2.0)
        assert np.allclose(sorted(out.weights), sorted(mu.weights), atol=1e-12)
        assert en.mean_observable(out, h) == pytest.approx(e0, abs=1e-7)


    @staticmethod
    def three_point():
        model = sea.validate_model(sea.SingleConstituentModel(
            H=np.diag([0.0, 0.7, 1.5]), generators=(np.diag([1.0, -0.4, 0.2]),), tau=0.8))
        mu = en.measure([(w, st.random_full_rank(3, seed=s))
                         for s, w in enumerate((0.2, 0.5, 0.3))])
        return mu, lambda m: sea.sea_rhs(m, model)

    @pytest.mark.parametrize("t_max", [1.0, 0.0])
    def test_final_states_are_the_trajectory_ends_bit_for_bit(self, monkeypatch, t_max):
        # only the final states are returned, so only t = 0 and the end are
        # recorded; that sampling moves none of the default settings' steps
        mu, rhs = self.three_point()
        traj = en.integrate_support(mu, rhs, ig.IntegratorConfig(t_max=t_max))
        want = en.measure(zip(mu.weights, traj.final.rho))
        recorded = []

        def integrate_support(*args):
            recorded.append(en_integrate_support(*args))
            return recorded[-1]

        en_integrate_support = en.integrate_support
        monkeypatch.setattr(en, "integrate_support", integrate_support)
        got = en.evolve_measure(mu, rhs, t_max=t_max)
        assert np.array_equal(got.weights, want.weights)
        for a, b in zip(got.states, want.states):
            assert np.array_equal(a.matrix, b.matrix)
        times = recorded[0].times
        assert times[0] == 0.0 and times[-1] == pytest.approx(t_max, abs=1e-12)
        assert len(times) == (1 if t_max == 0 else 2)

    def test_takes_no_integrator_settings(self):
        # custom settings go through integrate_support
        assert list(inspect.signature(en.evolve_measure).parameters) == ["mu", "rhs", "t_max"]

    def test_member_failure_keeps_its_exception_and_names_the_member(self):
        class TwoArgumentError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        bad = st.random_full_rank(2, seed=2)

        def failing_rhs(m):
            # the support advances as one stack: fail when it holds the bad state
            if any(np.allclose(x, bad.matrix) for x in np.reshape(m, (-1, 2, 2))):
                raise TwoArgumentError(7, "rhs failed")
            return np.zeros_like(m)

        mu = en.measure([(0.3, st.random_full_rank(2, seed=1)), (0.7, bad)])
        with pytest.raises(TwoArgumentError) as info:
            en.evolve_measure(mu, failing_rhs, t_max=0.1)
        assert info.value.args == (7, "rhs failed")
        assert info.value.__notes__ == ["support point 1"]
        assert any(entry.name == "failing_rhs" for entry in info.traceback)


class TestMaxentKnownSpectrum:
    def test_midpoint_gives_uniform(self):
        h = np.diag([0.0, 1.0])
        states = [st.pure_state([1, 0]), st.pure_state([0, 1])]
        mu = en.maxent_known_spectrum(states, 0.5, h)
        assert np.allclose(sorted(mu.weights), [0.5, 0.5], atol=1e-12)

    def test_quarter_target_logistic(self):
        h = np.diag([0.0, 1.0])
        states = [st.pure_state([1, 0]), st.pure_state([0, 1])]
        mu = en.maxent_known_spectrum(states, 0.25, h)
        weights = {round(st.mean(h, s), 6): w for w, s in mu.support}
        assert weights[0.0] == pytest.approx(0.75, abs=1e-10)
        assert weights[1.0] == pytest.approx(0.25, abs=1e-10)

    def test_equal_energies_give_uniform(self):
        # every member at the target energy: the weights are not fitted
        h = 0.5 * np.eye(2)
        states = [st.pure_state([1, 0]), st.pure_state([0, 1])]
        mu = en.maxent_known_spectrum(states, 0.5, h)
        assert np.allclose(mu.weights, [0.5, 0.5])

    def test_infeasible_target(self):
        h = np.diag([0.0, 1.0])
        states = [st.pure_state([1, 0]), st.pure_state([0, 1])]
        with pytest.raises(TargetInfeasibleError):
            en.maxent_known_spectrum(states, 1.5, h)

    def test_underflowed_weight_leaves_the_support(self):
        # near the bottom of a wide range the top member's weight
        # exp(-b 1e3) underflows to exactly 0; the measure keeps the others
        energies = [0.0, 1e-3, 1e3]
        h = np.diag(energies)
        states = [st.pure_state(v) for v in np.eye(3)]
        target = 5e-10
        mu = en.maxent_known_spectrum(states, target, h)
        assert len(mu) == 2
        assert (mu.weights > 0).all()
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(en.mean_observable(mu, h) - target) <= 1e-10
        kept = sorted(st.mean(h, s) for s in mu.states)
        assert kept == pytest.approx(energies[:2], abs=1e-15)

    def test_beats_random_feasible_weightings(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0])
        states = [st.pure_state(v) for v in np.eye(4)]
        target = 1.1
        mu = en.maxent_known_spectrum(states, target, h)
        i_star = en.statistical_uncertainty(mu)
        energies = np.arange(4.0)
        rng = np.random.default_rng(17)
        found = 0
        while found < 300:
            qa = rng.dirichlet(np.ones(4))
            qb = rng.dirichlet(np.ones(4))
            ea, eb = qa @ energies, qb @ energies
            if not (min(ea, eb) <= target <= max(ea, eb)) or abs(ea - eb) < 1e-12:
                continue
            lam = (target - eb) / (ea - eb)
            q = lam * qa + (1 - lam) * qb
            if (q <= 0).any():
                continue
            i_q = -float(np.sum(q * np.log(q)))
            assert i_q <= i_star + 1e-9
            found += 1


class TestMoments:
    def test_first_trace_moment_is_one(self):
        mu = two_point()
        trace_moments, _ = en.measure_moments(mu, 3)
        assert trace_moments[0] == pytest.approx(1.0, abs=1e-12)

    def test_dirac_at_pure_all_ones(self):
        mu = en.dirac(st.pure_state([0, 1]))
        trace_moments, _ = en.measure_moments(mu, 4)
        assert np.allclose(trace_moments, 1.0)

    def test_mixed_second_moment(self):
        mu = en.measure([(0.5, st.pure_state([1, 0])),
                         (0.5, st.validate(np.eye(2) / 2))])
        trace_moments, _ = en.measure_moments(mu, 2)
        assert trace_moments[1] == pytest.approx(0.75)

    def test_functional_moments(self):
        mu = two_point()
        _, fm = en.measure_moments(mu, 2, g=st.entropy)
        want1 = 0.7 * np.log(2)
        want2 = 0.7 * np.log(2) ** 2
        assert fm[0] == pytest.approx(want1, abs=1e-12)
        assert fm[1] == pytest.approx(want2, abs=1e-12)
