import copy
import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from seaqt import cli
from seaqt import composite as cp
from seaqt import equilibrium as eq
from seaqt import integrate as ig
from seaqt import lindblad as lb
from seaqt import sea
from seaqt import serialize as sz
from seaqt import states as st
from seaqt.errors import ConfigError, NotHermitianError
from seaqt.integrate import IntegratorConfig
from seaqt.operators import UnitSystem

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, config, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def matrix_obj(m):
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0],
            "matrix": [[v.real, v.imag] for v in m.ravel()]}


def qubit_sea_scenario(**overrides):
    config = {
        "system": {"single": {"H": matrix_obj(np.diag([0.0, 1.0])), "tau": 1.0}},
        "initial": {"dim": 2, "matrix": [[0.6, 0.0], [0.2, 0.0],
                                         [0.2, 0.0], [0.4, 0.0]]},
        "dynamics": {"sea": {}},
        "integrator": {"t_max": 5.0, "dt_max": 0.5},
        "outputs": {"trajectory_csv": "run.csv", "summary_json": "run_summary.json"},
    }
    config.update(overrides)
    return config


class TestSimulate:
    def test_relaxation_writes_monotone_entropy(self, tmp_path):
        config_path = write_config(tmp_path, qubit_sea_scenario())
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().strip().split("\n")
        assert lines[0].startswith("t,entropy,energy,g_rate")
        entropy = np.array([float(row.split(",")[1]) for row in lines[1:]])
        assert np.all(np.diff(entropy) >= -1e-10)
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["termination"] in ("t_max", "equilibrium")

    def test_summary_carries_integrator_stats(self, tmp_path):
        config_path = write_config(tmp_path, qubit_sea_scenario())
        assert cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "run_summary.json").read_text())["stats"]
        assert set(stats) == {"rhs_calls", "accepted_steps", "rejected_steps", "k1_reused",
                              "interpolated_samples", "projection_repairs"}
        attempts = stats["accepted_steps"] + stats["rejected_steps"]
        assert stats["rhs_calls"] == 6 * attempts + stats["accepted_steps"] - stats["k1_reused"]

    def test_sampled_summary_counts_interpolated_samples(self, tmp_path):
        # samples at the multiples of 0.25 inside a step come from its
        # continuous extension and cost no rhs call
        config = qubit_sea_scenario(integrator={"t_max": 5.0, "sample_dt": 0.25})
        assert cli.main(["simulate", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        stats = summary["stats"]
        assert summary["samples"] == 21
        assert 0 < stats["interpolated_samples"] <= 19
        attempts = stats["accepted_steps"] + stats["rejected_steps"]
        assert stats["rhs_calls"] == 6 * attempts + stats["accepted_steps"] - stats["k1_reused"]

    def test_dissipative_detection_stops_a_rotating_pure_state_at_once(self, tmp_path):
        # a pure state's dissipator is zero, so the dissipative norm is at
        # the tolerance from the start although the state rotates
        config = qubit_sea_scenario(
            system={"single": {"H": matrix_obj(np.diag([0.0, 1.3])), "tau": 1.0}},
            initial={"dim": 2, "pure": [[0.6, 0.0], [0.8, 0.0]]},
            integrator={"t_max": 5.0, "equilibrium_norm_tol": 1e-6})
        path = tmp_path / "out"
        for detection, termination, samples in (("dissipative", "equilibrium", 1),
                                                ("full", "t_max", None)):
            config["dynamics"] = {"sea": {"equilibrium_detection": detection}}
            assert cli.main(["simulate", "--config", write_config(tmp_path, config),
                             "--out", str(path)]) == 0
            summary = json.loads((path / "run_summary.json").read_text())
            assert summary["termination"] == termination
            if samples:
                assert summary["samples"] == samples and summary["final_time"] == 0.0

    @pytest.mark.parametrize("settings, message", [
        ({"method": "rk4", "sample_dt": 0.25}, "integrator: sample_dt needs method rk45"),
        ({"sample_every": 7}, "integrator.sample_every: unknown field"),
        ({"projection": "hermitize_only"},
         "integrator.projection: 'hermitize_only' is not one of ['off', 'full']"),
        ({"t_max": -1.0}, "integrator: t_max must be finite and nonnegative"),
        ({"equilibrium_norm_tol": -1e-6},
         "integrator: equilibrium_norm_tol must be nonnegative")],
        ids=["rk4-sample_dt", "sample_every", "hermitize_only", "negative-t_max",
             "negative-equilibrium_norm_tol"])
    def test_a_removed_setting_exits_3_naming_its_field(self, tmp_path, capsys,
                                                        settings, message):
        config = qubit_sea_scenario(integrator={"t_max": 2.0, **settings})
        assert cli.main(["simulate", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)]) == 3
        assert f"ERROR Config: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_a_non_finite_stage_exits_4(self, tmp_path, capsys, monkeypatch):
        # H = diag(0, 1e100) passes every check, but the stages overflow to
        # NaN; no dt makes them finite, so the first attempt ends the run
        calls, sea_rhs = [], sea.sea_rhs
        stages = len(ig.METHODS["rk45"].b)

        def counted(m, model):
            calls.append(None)
            if len(calls) > stages:
                raise RuntimeError("a non-finite stage was retried")
            return sea_rhs(m, model)

        monkeypatch.setattr(sea, "sea_rhs", counted)
        config = qubit_sea_scenario()
        config["system"]["single"]["H"] = matrix_obj(np.diag([0.0, 1e100]))
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["simulate", "--config", write_config(tmp_path, config),
                             "--out", str(tmp_path)])
        assert code == 4
        assert "ERROR StateInvalid: rk45 stage 3 is not finite at t = 0\n" \
               in capsys.readouterr().err
        assert len(calls) == stages

    def test_missing_tau_exits_3_and_names_tau(self, tmp_path, capsys):
        config = qubit_sea_scenario()
        del config["system"]["single"]["tau"]
        config_path = write_config(tmp_path, config)
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 3
        assert "tau" in capsys.readouterr().err

    def test_mix_without_epsilon_is_a_config_error_naming_it(self, tmp_path, capsys):
        # a missing field exits like every other missing field (missing tau
        # above): a ConfigError that names it, not a bare KeyError
        config = qubit_sea_scenario()
        config["initial"] = {"mix": {"state": {"random": {"dim": 2, "seed": 3}}}}
        config_path = write_config(tmp_path, config)
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "ERROR Config:" in err and "epsilon" in err

    @pytest.mark.parametrize("path, value", [
        ("outputz", {"trajectory_csv": "run.csv"}),
        ("system.single.generator", [matrix_obj(np.diag([1.0, -1.0]))]),
        ("initial.random.min_eigg", 0.01),
        ("dynamics.sea.equilibrium_detection", "dissipativ"),
        ("integrator.dtmax", 0.5),
    ])
    def test_misspelled_field_exits_3_naming_its_path(self, tmp_path, capsys,
                                                      path, value):
        config = qubit_sea_scenario(initial={"random": {"dim": 2, "seed": 3}})
        *parents, leaf = path.split(".")
        node = config
        for key in parents:
            node = node[key]
        node[leaf] = value
        config_path = write_config(tmp_path, config)
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert "ERROR Config:" in err and path in err

    def test_no_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_zero_rhs_constant_trajectory(self, tmp_path):
        # maximally mixed state is stationary for the entropy-ascent law
        config = qubit_sea_scenario()
        config["initial"] = {"dim": 2, "matrix": [[0.5, 0.0], [0.0, 0.0],
                                                  [0.0, 0.0], [0.5, 0.0]]}
        config_path = write_config(tmp_path, config)
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().strip().split("\n")
        entropies = {row.split(",")[1] for row in lines[1:]}
        assert len(entropies) == 1

    def test_determinism_byte_identical_csv(self, tmp_path):
        config = qubit_sea_scenario()
        config["initial"] = {"random": {"dim": 2, "seed": 7}}
        config_path = write_config(tmp_path, config)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["simulate", "--config", config_path, "--out", str(out_a)]) == 0
        assert cli.main(["simulate", "--config", config_path, "--out", str(out_b)]) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()

    def test_seed_override_changes_initial(self, tmp_path):
        config = qubit_sea_scenario()
        config["initial"] = {"random": {"dim": 2, "seed": 7}}
        config_path = write_config(tmp_path, config)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["simulate", "--config", config_path, "--out", str(out_a)]) == 0
        assert cli.main(["simulate", "--config", config_path, "--out", str(out_b),
                         "--seed", "8"]) == 0
        assert (out_a / "run.csv").read_bytes() != (out_b / "run.csv").read_bytes()

    def test_states_jsonl_round_trip(self, tmp_path):
        config = qubit_sea_scenario()
        config["outputs"]["states_jsonl"] = "states.jsonl"
        config_path = write_config(tmp_path, config)
        assert cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "states.jsonl").read_text().strip().split("\n")
        first = json.loads(lines[0])
        assert first["t"] == 0.0
        assert first["state"]["dim"] == 2
        entries = first["state"]["matrix"]
        assert entries[0][0] == pytest.approx(0.6)


class TestEquilibrium:
    def test_midpoint_target_gives_beta_zero(self, tmp_path, capsys):
        config = {"constants": [matrix_obj(np.diag([0.0, 1.0]))], "targets": [0.5]}
        config_path = write_config(tmp_path, config)
        code = cli.main(["equilibrium", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert abs(result["multipliers"][0]) <= 1e-8

    def test_multipliers_give_state_and_residual(self, tmp_path, capsys):
        config = {"constants": [matrix_obj(np.diag([0.0, 1.0]))],
                  "multipliers": [np.log(3)]}
        config_path = write_config(tmp_path, config)
        code = cli.main(["equilibrium", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["identity_residual"] <= 1e-10
        assert result["log_z"] == pytest.approx(np.log(4.0 / 3.0), abs=1e-12)
        top_left = result["state"]["matrix"][0]
        assert top_left[0] == pytest.approx(0.75, abs=1e-12)

    def test_boundary_target_exits_5(self, tmp_path):
        config = {"constants": [matrix_obj(np.diag([0.0, 1.0]))], "targets": [0.0]}
        config_path = write_config(tmp_path, config)
        code = cli.main(["equilibrium", "--config", config_path, "--out", str(tmp_path)])
        assert code == 5


class TestCompare:
    def test_hamiltonian_only_settings_agree(self, tmp_path):
        h = np.diag([0.0, 1.0])
        config = {
            "system": {"single": {"H": matrix_obj(h), "tau": 1.0}},
            "initial": {"dim": 2, "pure": [[np.cos(0.5), 0.0], [np.sin(0.5), 0.0]]},
            "dynamics": {"sea": {}, "lindblad": {"B": matrix_obj(-h)}},
            "integrator": {"t_max": 1.0, "rel_tol": 1e-12, "abs_tol": 1e-13,
                           "dt_max": 0.1},
        }
        config_path = write_config(tmp_path, config)
        code = cli.main(["compare", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        assert report["max_state_distance"] <= 1e-8
        assert (tmp_path / "sea_trajectory.csv").exists()
        assert (tmp_path / "lindblad_trajectory.csv").exists()

    def test_decay_channel_divergence_contrast(self, tmp_path):
        h = np.diag([0.0, 1.0])
        decay = np.zeros((2, 2), dtype=complex)
        decay[0, 1] = 1.0
        config = {
            "system": {"single": {"H": matrix_obj(h), "tau": 1.0}},
            "initial": {"mix": {"state": {"dim": 2, "pure": [[1.0, 0.0], [0.0, 0.0]]},
                                "epsilon": 1e-6}},
            "dynamics": {"sea": {},
                         "lindblad": {"B": matrix_obj(-h),
                                      "jumps": [matrix_obj(decay)]}},
            "integrator": {"t_max": 0.5, "dt_init": 0.01, "dt_min": 0.01,
                           "dt_max": 0.01, "method": "rk4"},
        }
        config_path = write_config(tmp_path, config)
        code = cli.main(["compare", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        probe = report["singular_divergence"]
        assert probe["linear_rates"][0] < probe["linear_rates"][2]
        assert probe["linear_log_fit_residual"] <= 0.2
        # the nonlinear rates stay bounded where the linear ones diverge
        assert max(probe["sea_rates"]) < probe["linear_rates"][2]
        assert report["max_state_distance"] > 0

    def test_report_carries_the_stats_of_each_run(self, tmp_path):
        config = qubit_sea_scenario(
            dynamics={"sea": {}, "lindblad": {"B": matrix_obj(-np.diag([0.0, 1.0]))}},
            integrator={"t_max": 1.0})
        assert cli.main(["compare", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "compare_report.json").read_text())["stats"]
        assert set(stats) == {"sea", "lindblad"}
        for run in stats.values():
            assert set(run) == {"rhs_calls", "accepted_steps", "rejected_steps",
                                "k1_reused", "interpolated_samples", "projection_repairs"}
            attempts = run["accepted_steps"] + run["rejected_steps"]
            assert run["rhs_calls"] == \
                6 * attempts + run["accepted_steps"] - run["k1_reused"]
            # the comparison grid of 256 samples is read off the steps
            assert run["interpolated_samples"] > 0


    def test_a_run_stopped_at_equilibrium_is_compared_to_the_end(self, tmp_path):
        # sea stops at equilibrium long before the Lindblad run reaches
        # t_max; its last state stands for every later sample
        h = np.diag([0.0, 1.0, 2.5])
        decay = np.zeros((3, 3))
        decay[0, 1] = 0.3
        config = qubit_sea_scenario(
            system={"single": {"H": matrix_obj(h), "tau": 1.0}},
            initial={"random": {"dim": 3, "seed": 4}},
            dynamics={"sea": {"equilibrium_detection": "dissipative"},
                      "lindblad": {"B": matrix_obj(-h), "jumps": [matrix_obj(decay)]}},
            integrator={"t_max": 20.0, "equilibrium_norm_tol": 1e-6})
        path = write_config(tmp_path, config)
        assert cli.main(["compare", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "compare_report.json").read_text())
        config = cli.load_config(path)
        scenario = cli.load_scenario(config, None)
        rho0 = cli.build_initial(config, scenario)
        ran = IntegratorConfig(**report["integrator"])
        trajs = {name: ig.integrate(rho0, rhs, ran, eq_norm=eq_norm)
                 for name, (rhs, _, eq_norm) in scenario.dynamics.items()}
        assert trajs["sea"].termination == "equilibrium"
        assert trajs["sea"].final.t < 5.0 and trajs["lindblad"].final.t == 20.0
        final = np.linalg.norm(trajs["sea"].final.rho - trajs["lindblad"].final.rho)
        assert report["final_state_distance"] == pytest.approx(final, rel=1e-12)

    # a config error in either block exits before the first integration
    def test_noncommuting_double_commutator_writes_nothing(self, tmp_path, capsys):
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        config = qubit_sea_scenario(
            dynamics={"sea": {}, "double_commutator": {"F": matrix_obj(sx), "tau": 0.5}},
            integrator={"t_max": 1.0})
        out = tmp_path / "out"
        code = cli.main(["compare", "--config", write_config(tmp_path, config),
                         "--out", str(out)])
        assert code == 3
        assert "NonCommutingGenerator" in capsys.readouterr().err
        assert not (out / "sea_trajectory.csv").exists()

    def test_linear_block_on_a_composite_system_writes_nothing(self, tmp_path, capsys):
        config = TestCompositeScenarios.composite_config()
        config["dynamics"] = {"sea": {}, "lindblad": {"B": matrix_obj(np.eye(4))}}
        out = tmp_path / "out"
        code = cli.main(["compare", "--config", write_config(tmp_path, config),
                         "--out", str(out)])
        assert code == 3
        assert "requires a single system" in capsys.readouterr().err
        assert not (out / "sea_trajectory.csv").exists()


class TestLinearBlocks:
    """g_rate of a linear block against the Lindblad form of its dynamics."""

    UNITS = UnitSystem(hbar=0.8, k_B=1.5)
    H = np.diag([0.0, 1.0, 2.5])

    def run(self, tmp_path, block):
        config = {
            "units": {"hbar": self.UNITS.hbar, "k_B": self.UNITS.k_B},
            "system": {"single": {"H": matrix_obj(self.H), "tau": 1.0}},
            "initial": {"random": {"dim": 3, "seed": 11}},
            "dynamics": block,
            "integrator": {"t_max": 2.0, "dt_max": 0.25},
            "outputs": {"trajectory_csv": "run.csv", "states_jsonl": "states.jsonl"},
        }
        assert cli.main(["simulate", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "run.csv").read_text().strip().split("\n")[1:]
        states = (tmp_path / "states.jsonl").read_text().strip().split("\n")
        assert len(rows) == len(states) > 2
        return [(float(row.split(",")[3]), sz.decode_matrix(json.loads(line)["state"]))
                for row, line in zip(rows, states)]

    def test_pauli_g_rate_is_the_jump_sum(self, tmp_path):
        w = np.array([[0.0, 0.4, 0.1], [0.3, 0.0, 0.6], [0.05, 0.2, 0.0]])
        energies = np.diag(self.H)
        lmodel = lb.as_lindblad(lb.pauli_rates(w, energies, units=self.UNITS))
        recorded = self.run(tmp_path, {"pauli": {"w": w.tolist(),
                                                 "energies": energies.tolist()}})
        for g, rho in recorded:
            assert abs(g - lb.kl_entropy_production(rho, lmodel)) <= 1e-12

    def test_double_commutator_g_rate_is_its_lindblad_form(self, tmp_path):
        # -(tau/2 hbar^2)[F, [F, rho]] is the dissipator of the one jump
        # sqrt(tau) F / hbar
        f, tau, hbar = np.diag([1.0, -1.0, 0.5]), 0.7, self.UNITS.hbar
        lmodel = lb.lindblad_model(-self.H / hbar, (np.sqrt(tau) * f / hbar,),
                                   units=self.UNITS)
        recorded = self.run(tmp_path, {"double_commutator": {"F": matrix_obj(f),
                                                             "tau": tau}})
        assert max(g for g, _ in recorded) > 0.01
        for g, rho in recorded:
            assert abs(g - lb.kl_entropy_production(rho, lmodel)) <= 1e-12

    @pytest.mark.parametrize("name", ["lindblad", "pauli", "double_commutator"])
    def test_block_of_another_dimension_exits_3(self, tmp_path, capsys, name):
        block = {"lindblad": {"B": matrix_obj(-self.H)},
                 "pauli": {"w": np.ones((3, 3)).tolist(), "energies": [0.0, 1.0, 2.5]},
                 "double_commutator": {"F": matrix_obj(self.H), "tau": 1.0}}[name]
        config = qubit_sea_scenario(dynamics={name: block})
        code = cli.main(["simulate", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)])
        assert code == 3
        assert f"ERROR Config: dynamics.{name}: operators do not match the system " \
               "dimension" in capsys.readouterr().err


class TestValidate:
    def test_gibbs_start_passes_all_checks(self, tmp_path):
        config = qubit_sea_scenario()
        config["initial"] = {"gibbs": {"multipliers": [1.0]}}
        config["integrator"] = {"t_max": 2.0, "dt_max": 0.5}
        config_path = write_config(tmp_path, config)
        code = cli.main(["validate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["all_passed"]
        names = {c["check"] for c in report["checks"]}
        assert "fixed_point_rhs_norm" in names

    def test_report_carries_the_run_stats(self, tmp_path):
        config_path = write_config(tmp_path, qubit_sea_scenario())
        assert cli.main(["validate", "--config", config_path, "--out", str(tmp_path)]) == 0
        stats = json.loads((tmp_path / "validate_report.json").read_text())["stats"]
        assert set(stats) == {"rhs_calls", "accepted_steps", "rejected_steps", "k1_reused",
                              "interpolated_samples", "projection_repairs"}
        attempts = stats["accepted_steps"] + stats["rejected_steps"]
        assert stats["rhs_calls"] == 6 * attempts + stats["accepted_steps"] - stats["k1_reused"]

    def test_stacked_probe_sweep_reports_the_member_loop_value(self, tmp_path):
        h, x = np.diag([0.0, 1.0, 2.0]), np.diag([1.0, -1.0, 0.5])
        config = {
            "system": {"single": {"H": matrix_obj(h), "generators": [matrix_obj(x)],
                                  "tau": 0.7}},
            "initial": {"random": {"dim": 3, "seed": 5}},
            "dynamics": {"sea": {}},
            "integrator": {"t_max": 0.5},
        }
        assert cli.main(["validate", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "validate_report.json").read_text())["checks"]
        (measured,) = [c["measured"] for c in checks
                       if c["check"] == "entropy_production_nonnegative"]
        model = sea.validate_model(sea.SingleConstituentModel(
            H=h.astype(complex), generators=(x.astype(complex),), tau=0.7))
        probes = [st.random_full_rank(3, seed=s).matrix for s in range(100)]
        loop = np.array([sea.entropy_production_rate(p, model) for p in probes])
        stacked = sea.entropy_production_rate(np.stack(probes), model)
        assert np.abs(stacked - loop).max() <= 1e-15 * max(1.0, np.abs(loop).max())
        rho0 = st.random_full_rank(3, seed=5)
        worst = max(0.0, -loop.min(), -sea.entropy_production_rate(rho0, model))
        assert measured == pytest.approx(worst, abs=1e-16)

    def test_dissipative_equilibrium_detection_stops_like_simulate(self, tmp_path):
        # H and the first support state of the benchmark's ensemble scenario
        # at seed 1: the dissipative norm reaches the tolerance at t = 33.3,
        # the full rhs norm, which the rotation keeps larger, two steps later
        state = {"dim": 2, "matrix": [
            [0.36274342600594967, 0.0], [-0.2490359734069241, 0.19061142618867133],
            [-0.2490359734069241, -0.19061142618867133], [0.6372565739940502, 0.0]]}
        config = {
            "system": {"single": {"H": matrix_obj(np.diag([0.0, 0.6271639718663639])),
                                  "tau": 1.0}},
            "initial": state,
            "dynamics": {"sea": {"equilibrium_detection": "dissipative"}},
            "integrator": {"t_max": 50.0, "equilibrium_norm_tol": 1e-6},
            "outputs": {"summary_json": "sim.json", "report_json": "report.json"},
        }
        path = write_config(tmp_path, config)
        for command in ("simulate", "validate"):
            assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 0
        simulated = json.loads((tmp_path / "sim.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert simulated["termination"] == report["termination"] == "equilibrium"
        assert simulated["final_time"] == pytest.approx(33.305, abs=1e-3)
        assert report["stats"] == simulated["stats"]

    def test_broken_generator_exits_3(self, tmp_path, capsys):
        config = qubit_sea_scenario()
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        config["system"]["single"]["generators"] = [matrix_obj(sx)]
        config_path = write_config(tmp_path, config)
        code = cli.main(["validate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 3
        assert "NonCommutingGenerator" in capsys.readouterr().err

    def test_random_three_level_relaxation_passes(self, tmp_path):
        config = {
            "system": {"single": {"H": matrix_obj(np.diag([0.0, 1.0, 2.0])),
                                  "tau": 1.0}},
            "initial": {"random": {"dim": 3, "seed": 5}},
            "dynamics": {"sea": {}},
            "integrator": {"t_max": 5.0, "dt_max": 0.5},
        }
        config_path = write_config(tmp_path, config)
        code = cli.main(["validate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0


class TestEnsemble:
    def test_two_point_measure_reports_distinct_indicators(self, tmp_path):
        config = {
            "system": {"single": {"H": matrix_obj(np.diag([0.0, 1.0])), "tau": 1.0}},
            "dynamics": {"sea": {}},
            "integrator": {"t_max": 1.0, "dt_init": 0.05, "dt_min": 0.05,
                           "dt_max": 0.05, "method": "rk4"},
            "measure": {"support": [
                {"w": 0.3, "state": {"dim": 2, "pure": [[1.0, 0.0], [0.0, 0.0]]}},
                {"w": 0.7, "state": {"dim": 2, "pure": [[0.0, 0.0], [1.0, 0.0]]}},
            ]},
        }
        config_path = write_config(tmp_path, config)
        code = cli.main(["ensemble", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
        want = -(0.3 * np.log(0.3) + 0.7 * np.log(0.7))
        assert summary["statistical_uncertainty"] == pytest.approx(want, abs=1e-12)
        assert summary["expected_entropy_initial"] == pytest.approx(0.0, abs=1e-12)
        series = (tmp_path / "ensemble_series.csv").read_text().strip().split("\n")
        assert series[0] == "t,statistical_uncertainty,expected_entropy,expected_energy"
        energies = [float(r.split(",")[3]) for r in series[1:]]
        assert max(energies) - min(energies) <= 1e-7

    def test_maxent_weights(self, tmp_path, capsys):
        config = {
            "system": {"single": {"H": matrix_obj(np.diag([0.0, 1.0])), "tau": 1.0}},
            "maxent": {"states": [{"dim": 2, "pure": [[1.0, 0.0], [0.0, 0.0]]},
                                  {"dim": 2, "pure": [[0.0, 0.0], [1.0, 0.0]]}],
                       "target_energy": 0.25},
        }
        config_path = write_config(tmp_path, config)
        code = cli.main(["ensemble", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert sorted(result["weights"]) == pytest.approx([0.25, 0.75], abs=1e-10)

    def test_dirac_measure_matches_simulate(self, tmp_path):
        base = qubit_sea_scenario()
        sim_path = write_config(tmp_path, base, name="sim.json")
        assert cli.main(["simulate", "--config", sim_path, "--out", str(tmp_path)]) == 0
        ens = {
            "system": base["system"],
            "dynamics": base["dynamics"],
            "integrator": {"t_max": 5.0, "dt_init": 0.01, "dt_min": 0.01,
                           "dt_max": 0.01, "method": "rk4"},
            "measure": {"support": [{"w": 1.0, "state": base["initial"]}]},
        }
        ens_path = write_config(tmp_path, ens, name="ens.json")
        assert cli.main(["ensemble", "--config", ens_path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
        assert summary["support_size"] == 1


    def test_members_advance_as_one_stack_on_the_user_settings(self, tmp_path):
        config = {
            "system": {"single": {"H": matrix_obj(np.diag([0.0, 1.0, 2.5])),
                                  "generators": [matrix_obj(np.diag([1.0, -1.0, 0.2]))],
                                  "tau": 1.0}},
            "dynamics": {"sea": {}},
            "integrator": {"t_max": 2.0, "sample_dt": 0.5},
            "measure": {"support": [
                {"w": 0.2, "state": {"random": {"seed": 1}}},
                {"w": 0.5, "state": {"random": {"seed": 2}}},
                {"w": 0.3, "state": {"dim": 3, "pure": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]]}},
            ]},
        }
        code = cli.main(["ensemble", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
        assert summary["integrator"] == asdict(IntegratorConfig(t_max=2.0, sample_dt=0.5))
        stats = summary["stats"]
        assert stats["accepted_steps"] > 0
        # the documented count identity of the stacked rk45 run
        assert stats["rhs_calls"] == 6 * (stats["accepted_steps"] + stats["rejected_steps"]) \
            + stats["accepted_steps"] - stats["k1_reused"]
        rows = (tmp_path / "ensemble_series.csv").read_text().strip().split("\n")[1:]
        assert [float(r.split(",")[0]) for r in rows] == pytest.approx(
            [0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-12)
        energies = [float(r.split(",")[3]) for r in rows]
        assert max(energies) - min(energies) <= 1e-8

    def test_dissipative_equilibrium_detection_stops_like_simulate(self, tmp_path):
        # the block asks for the dissipative norm, which reaches the tolerance
        # near t = 33 where simulate stops; the full rhs norm, which the
        # unitary part of a coherent state keeps larger, reaches it later
        state = {"dim": 2, "matrix": [[0.36, 0.0], [-0.25, 0.19],
                                      [-0.25, -0.19], [0.64, 0.0]]}
        base = {
            "system": {"single": {"H": matrix_obj(np.diag([0.0, 0.63])), "tau": 1.0}},
            "dynamics": {"sea": {"equilibrium_detection": "dissipative"}},
            "integrator": {"t_max": 50.0, "equilibrium_norm_tol": 1e-6},
        }
        sim = {**base, "initial": state, "outputs": {"summary_json": "sim.json"}}
        assert cli.main(["simulate", "--config", write_config(tmp_path, sim, "s.json"),
                         "--out", str(tmp_path)]) == 0
        simulated = json.loads((tmp_path / "sim.json").read_text())
        ens = {**base, "measure": {"support": [{"w": 1.0, "state": state}]}}
        assert cli.main(["ensemble", "--config", write_config(tmp_path, ens, "e.json"),
                         "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
        rows = (tmp_path / "ensemble_series.csv").read_text().strip().split("\n")
        assert simulated["termination"] == summary["termination"] == "equilibrium"
        assert simulated["final_time"] < 40.0
        assert float(rows[-1].split(",")[0]) == simulated["final_time"]
        assert summary["stats"] == simulated["stats"]


class TestConflictingBlocks:
    def test_equilibrium_with_targets_and_multipliers_exits_3(self, tmp_path, capsys):
        config = {"constants": [matrix_obj(np.diag([0.0, 1.0]))],
                  "targets": [0.1], "multipliers": [0.0]}
        code = cli.main(["equilibrium", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "ERROR Config" in err and "'targets'" in err and "'multipliers'" in err

    def test_ensemble_with_maxent_and_measure_exits_3(self, tmp_path, capsys):
        state = {"dim": 2, "pure": [[1.0, 0.0], [0.0, 0.0]]}
        config = qubit_sea_scenario(
            maxent={"states": [state, {"dim": 2, "pure": [[0.0, 0.0], [1.0, 0.0]]}],
                    "target_energy": 0.25},
            measure={"support": [{"w": 1.0, "state": state}]}, outputs={})
        code = cli.main(["ensemble", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "ERROR Config" in err and "'maxent'" in err and "'measure'" in err


class TestSemanticErrorsNameTheirField:
    def run(self, tmp_path, capsys, config, command="simulate"):
        code = cli.main([command, "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)])
        assert code == 3
        return capsys.readouterr().err

    def test_entry_count_against_dim(self, tmp_path, capsys):
        gen = {"dim": 2, "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        config = qubit_sea_scenario()
        config["system"]["single"]["generators"] = [matrix_obj(np.diag([1.0, 0.0])), gen]
        err = self.run(tmp_path, capsys, config)
        assert "ERROR Config: system.single.generators[1].matrix: dim 2 needs 4 " \
               "entries, got 3" in err

    def test_gibbs_multiplier_count(self, tmp_path, capsys):
        config = qubit_sea_scenario(initial={"mix": {
            "state": {"gibbs": {"multipliers": [0.8, -0.3]}}, "epsilon": 0.1}})
        err = self.run(tmp_path, capsys, config)
        assert "ERROR Config: initial.mix.state.gibbs.multipliers: expected 1" in err

    def test_missing_seed(self, tmp_path, capsys):
        config = qubit_sea_scenario(measure={"support": [
            {"w": 0.5, "state": {"random": {"seed": 3}}},
            {"w": 0.5, "state": {"random": {}}}]}, outputs={})
        del config["initial"]
        err = self.run(tmp_path, capsys, config, command="ensemble")
        assert "ERROR Config: measure.support[1].state.random.seed: required" in err
        # --seed supplies it
        assert cli.main(["ensemble", "--config", str(tmp_path / "scenario.json"),
                         "--out", str(tmp_path), "--seed", "4"]) == 0

    @pytest.mark.parametrize("command", ["simulate", "compare", "validate"])
    def test_initial_of_another_dimension(self, tmp_path, capsys, command):
        config = qubit_sea_scenario(initial={"random": {"dim": 3, "seed": 1}})
        if command == "compare":
            config["dynamics"]["lindblad"] = {"B": matrix_obj(-np.diag([0.0, 1.0]))}
        err = self.run(tmp_path, capsys, config, command=command)
        assert "ERROR DimensionMismatch: initial: state has dim 3, but the system has " \
               "dim 2" in err

    def test_maxent_state_of_another_dimension(self, tmp_path, capsys):
        config = qubit_sea_scenario(maxent={
            "states": [{"dim": 2, "pure": [[1.0, 0.0], [0.0, 0.0]]},
                       {"random": {"dim": 3, "seed": 1}}],
            "target_energy": 0.25}, outputs={})
        err = self.run(tmp_path, capsys, config, command="ensemble")
        assert "ERROR DimensionMismatch: maxent.states[1]: state has dim 3, but the " \
               "system has dim 2" in err

    def test_measure_support_state_of_another_dimension(self, tmp_path, capsys):
        config = qubit_sea_scenario(measure={"support": [
            {"w": 0.5, "state": {"dim": 2, "pure": [[1.0, 0.0], [0.0, 0.0]]}},
            {"w": 0.5, "state": {"random": {"dim": 3, "seed": 1}}}]}, outputs={})
        err = self.run(tmp_path, capsys, config, command="ensemble")
        assert "ERROR DimensionMismatch: measure.support[1].state: state has dim 3, " \
               "but the system has dim 2" in err

    @pytest.mark.parametrize("block, path", [
        ({"maxent": {"states": [], "target_energy": 0.5}}, "maxent.states"),
        ({"measure": {"support": []}}, "measure.support")], ids=["maxent", "measure"])
    def test_an_empty_array_is_named_by_the_schema(self, tmp_path, capsys, block, path):
        err = self.run(tmp_path, capsys, qubit_sea_scenario(outputs={}, **block),
                       command="ensemble")
        assert f"ERROR Config: {path}: expected at least 1 item(s), got 0" in err

    def test_generator_of_another_dimension(self, tmp_path, capsys):
        config = qubit_sea_scenario()
        config["system"]["single"]["generators"] = [matrix_obj(np.diag([1.0, 0.0, 0.0]))]
        err = self.run(tmp_path, capsys, config)
        assert "ERROR DimensionMismatch: system.single: generator 0 has dim 3, " \
               "expected 2" in err

    @pytest.mark.parametrize("initial, message", [
        ({"random": {"seed": 1, "min_eig": 0.6}}, "initial.random.min_eig: min_eig must be in"),
        ({"random": {"seed": 1, "min_eig": -0.01}}, "initial.random.min_eig: must be >= 0"),
        ({"mix": {"state": {"random": {"seed": 1}}, "epsilon": 2}},
         "initial.mix.epsilon: epsilon must be in (0, 1)"),
        ({"dim": 2, "pure": [[0.0, 0.0], [0.0, 0.0]]},
         "initial.pure: zero vector cannot define a pure state")],
        ids=["min_eig-above-1/dim", "min_eig-negative", "epsilon", "zero-pure"])
    def test_state_constructor_argument(self, tmp_path, capsys, initial, message):
        err = self.run(tmp_path, capsys, qubit_sea_scenario(initial=initial))
        assert f"ERROR Config: {message}" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_non_commuting_constant(self, tmp_path, capsys):
        config = {"constants": [matrix_obj(np.diag([0.0, 1.0])),
                                matrix_obj([[0.0, 1.0], [1.0, 0.0]])], "targets": [0.5, 0.0]}
        err = self.run(tmp_path, capsys, config, command="equilibrium")
        assert "ERROR NonCommutingGenerator: constants: constant 1 does not commute " \
               "with H (defect" in err

    def test_target_count(self, tmp_path, capsys):
        config = {"constants": [matrix_obj(np.diag([0.0, 1.0]))], "targets": [0.5, 0.5]}
        err = self.run(tmp_path, capsys, config, command="equilibrium")
        assert "ERROR Config: targets: expected 1 (one per constant), got 2" in err

    def test_malformed_matrix_in_a_block_the_subcommand_does_not_use(self, tmp_path,
                                                                     capsys):
        config = qubit_sea_scenario(constants=[
            {"dim": 2, "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}])
        err = self.run(tmp_path, capsys, config)
        assert "ERROR Config: constants[0].matrix: dim 2 needs 4 entries, got 3" in err
        assert not list(tmp_path.glob("*.csv"))


SX = [[0.0, 1.0], [1.0, 0.0]]
UPPER = [[0.0, 1.0], [0.0, 0.0]]    # no Hermitian matrix
BELL = {"dim": 4, "pure": [[v, 0.0] for v in (2 ** -0.5, 0.0, 0.0, 2 ** -0.5)]}


def qubit_with(single=None, **blocks):
    """The qubit scenario, its system.single fields and top-level blocks replaced."""
    config = qubit_sea_scenario(outputs={}, **blocks)
    config["system"]["single"].update(single or {})
    return config


def composite_with(constituent=None, **blocks):
    config = TestCompositeScenarios.composite_config()
    config["system"]["composite"]["constituents"][0].update(constituent or {})
    config.update(blocks)
    return config


# (id, subcommand, config, exit code, printed kind, dotted path of the block)
BLOCK_ERRORS = [
    ("H-not-hermitian", "simulate", lambda: qubit_with({"H": matrix_obj(UPPER)}),
     3, "NotHermitian", "system.single"),
    ("generator-not-hermitian", "simulate",
     lambda: qubit_with({"generators": [matrix_obj(UPPER)]}), 3, "NotHermitian",
     "system.single"),
    ("generator-not-commuting", "simulate",
     lambda: qubit_with({"generators": [matrix_obj(SX)]}), 3, "NonCommutingGenerator",
     "system.single"),
    ("constituent-generator-dim", "simulate",
     lambda: composite_with({"generators": [matrix_obj(np.eye(3))]}), 3,
     "DimensionMismatch", "system.composite"),
    ("composite-H-against-factors", "simulate", lambda: composite_with({"dim": 3}), 3,
     "DimensionMismatch", "system.composite"),
    ("lindblad-B-not-hermitian", "simulate",
     lambda: qubit_with(dynamics={"lindblad": {"B": matrix_obj(UPPER)}}), 3,
     "NotHermitian", "dynamics.lindblad"),
    ("lindblad-jump-shape", "simulate",
     lambda: qubit_with(dynamics={"lindblad": {"B": matrix_obj(np.diag([0.0, -1.0])),
                                               "jumps": [matrix_obj(np.eye(3))]}}),
     3, "DimensionMismatch", "dynamics.lindblad"),
    ("pauli-negative-rate", "simulate",
     lambda: qubit_with(dynamics={"pauli": {"w": [[0.0, -0.1], [0.2, 0.0]],
                                            "energies": [0.0, 1.0]}}),
     3, "Config", "dynamics.pauli"),
    ("double-commutator-F", "simulate",
     lambda: qubit_with(dynamics={"double_commutator": {"F": matrix_obj(SX), "tau": 0.5}}),
     3, "NonCommutingGenerator", "dynamics.double_commutator"),
    ("linear-block-dim", "simulate",
     lambda: qubit_with(dynamics={"lindblad": {"B": matrix_obj(np.diag([0.0, -1.0, -2.0]))}}),
     3, "Config", "dynamics.lindblad"),
    ("constant-not-commuting", "equilibrium",
     lambda: {"constants": [matrix_obj(np.diag([0.0, 1.0])), matrix_obj(SX)],
              "targets": [0.5, 0.0]}, 3, "NonCommutingGenerator", "constants"),
    ("constants-dependent", "equilibrium",
     lambda: {"constants": [matrix_obj(np.diag([0.0, 1.0])),
                            matrix_obj(np.diag([0.0, 2.0]))], "targets": [0.5, 1.0]},
     3, "Config", "constants"),
    ("equilibrium-target", "equilibrium",
     lambda: {"constants": [matrix_obj(np.diag([0.0, 1.0]))], "targets": [5.0]},
     5, "TargetInfeasible", "targets"),
    ("maxent-target", "ensemble",
     lambda: qubit_with(maxent={"states": [{"dim": 2, "pure": [[1.0, 0.0], [0.0, 0.0]]},
                                           {"dim": 2, "pure": [[0.0, 0.0], [1.0, 0.0]]}],
                                "target_energy": 5.0}),
     5, "TargetInfeasible", "maxent.target_energy"),
    ("initial-not-positive", "simulate",
     lambda: qubit_with(initial={"dim": 2, "matrix": [[1.5, 0.0], [0.0, 0.0],
                                                      [0.0, 0.0], [-0.5, 0.0]]}),
     3, "NotPositive", "initial"),
    ("composite-singular-initial", "simulate", lambda: composite_with(initial=BELL),
     3, "SingularCompositeState", "initial"),
    ("composite-singular-support", "ensemble",
     lambda: composite_with(measure={"support": [
         {"w": 0.5, "state": {"random": {"dim": 4, "seed": 1}}}, {"w": 0.5, "state": BELL}]}),
     3, "SingularCompositeState", "measure.support"),
]


class TestBlockErrorsNameTheirPath:
    """Every error a block causes names the block's dotted path and keeps its
    own kind and exit code; a constructor's ValueError prints as Config."""

    @pytest.mark.parametrize("command, make, code, kind, path",
                             [case[1:] for case in BLOCK_ERRORS],
                             ids=[case[0] for case in BLOCK_ERRORS])
    def test_error_names_its_block(self, tmp_path, capsys, command, make, code, kind,
                                   path):
        out = tmp_path / "out"
        assert cli.main([command, "--config", write_config(tmp_path, make()),
                         "--out", str(out)]) == code
        assert f"ERROR {kind}: {path}: " in capsys.readouterr().err
        assert not any(out.iterdir())


class TestFieldPath:
    MODEL = sea.SingleConstituentModel(H=np.diag([0.0, 1.0]))

    def test_keeps_the_error_type_and_prefixes_its_field(self):
        bad = sea.SingleConstituentModel(H=np.array(UPPER))
        with pytest.raises(NotHermitianError) as outside:
            sea.validate_model(bad)
        with pytest.raises(NotHermitianError) as inside:
            with sz.field_path("system.single"):
                sea.validate_model(bad)
        assert outside.value.field == "" and outside.value.message == str(outside.value)
        assert str(outside.value) == "H is not Hermitian within tolerance 1e-12"
        assert inside.value.field == "system.single"
        assert inside.value.message == outside.value.message
        assert str(inside.value) == f"system.single: {outside.value}"

    def test_nested_paths_join_once(self):
        with pytest.raises(ConfigError) as info:
            with sz.field_path("initial"):
                sz.decode_state({"mix": {"state": {"random": {}}, "epsilon": 0.1}},
                                self.MODEL)
        assert info.value.field == "initial.mix.state.random.seed"
        assert str(info.value).startswith("initial.mix.state.random.seed: required")
        with pytest.raises(ConfigError, match=r"^measure\.support\[1\]\.w: x$"):
            with sz.field_path("measure"):
                with sz.field_path("support[1]"):
                    raise ConfigError("x", "w")

    def test_a_value_error_becomes_a_config_error(self):
        with pytest.raises(ConfigError) as info:
            with sz.field_path("dynamics.pauli"):
                lb.pauli_rates([[0.0, -0.1], [0.2, 0.0]], [0.0, 1.0])
        assert info.value.field == "dynamics.pauli"
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value) == f"dynamics.pauli: {info.value.__cause__}"


def test_reports_record_the_integrator_settings_that_ran(tmp_path):
    compare = qubit_sea_scenario(
        dynamics={"sea": {}, "lindblad": {"B": matrix_obj(-np.diag([0.0, 1.0]))}},
        integrator={"t_max": 1.0})
    assert cli.main(["compare", "--config", write_config(tmp_path, compare),
                     "--out", str(tmp_path)]) == 0
    ran = json.loads((tmp_path / "compare_report.json").read_text())["integrator"]
    assert ran == asdict(IntegratorConfig(t_max=1.0, sample_dt=1.0 / 256))
    ensemble = qubit_sea_scenario(
        measure={"support": [{"w": 1.0, "state": qubit_sea_scenario()["initial"]}]},
        integrator={"t_max": 0.5, "dt_init": 0.05, "dt_max": 0.1,
                    "equilibrium_norm_tol": 1e-9}, outputs={})
    assert cli.main(["ensemble", "--config", write_config(tmp_path, ensemble),
                     "--out", str(tmp_path)]) == 0
    ran = json.loads((tmp_path / "ensemble_summary.json").read_text())["integrator"]
    assert ran == asdict(IntegratorConfig(t_max=0.5, dt_init=0.05, dt_max=0.1,
                                          equilibrium_norm_tol=1e-9))


@pytest.mark.parametrize("command", ["simulate", "compare", "validate", "ensemble"])
def test_rerun_writes_identical_files(tmp_path, command):
    # the ROADMAP's byte-identical rerun rule, for every file a subcommand
    # writes; only simulate's summary carries a wall time
    random = {"random": {"dim": 2, "seed": 7}}
    config = qubit_sea_scenario(initial=random, outputs={"states_jsonl": "states.jsonl"})
    if command == "compare":
        decay = np.array([[0.0, 0.6], [0.0, 0.0]])
        config["dynamics"]["lindblad"] = {"B": matrix_obj(-np.diag([0.0, 1.0])),
                                          "jumps": [matrix_obj(decay)]}
    if command == "ensemble":
        del config["initial"]
        config["measure"] = {"support": [{"w": 0.4, "state": random},
                                         {"w": 0.6, "state": {"random": {"seed": 8}}}]}
    config_path = write_config(tmp_path, config)
    runs = []
    for name in ("a", "b"):
        assert cli.main([command, "--config", config_path,
                         "--out", str(tmp_path / name)]) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        if command == "simulate":
            summary = json.loads(files.pop("summary.json"))
            assert summary.pop("wall_time_s") > 0
            files["summary.json"] = json.dumps(summary).encode()
        runs.append(files)
    assert runs[0] and runs[0] == runs[1]


class TestSchema:
    def test_print_schema(self, capsys):
        assert cli.main(["--print-schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["title"].startswith("seaqt")
        assert "dynamics" in schema["properties"]

    def test_integrator_properties_are_the_config_fields(self, capsys):
        assert cli.main(["--print-schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        props = schema["properties"]["integrator"]["properties"]
        assert set(props) == {f.name for f in fields(IntegratorConfig)}

    def test_removed_settings_are_not_listed(self, capsys):
        assert cli.main(["--print-schema"]) == 0
        integrator = json.loads(capsys.readouterr().out)["properties"]["integrator"]
        assert "sample_every" not in integrator["properties"]
        assert integrator["properties"]["projection"] == {"enum": ["off", "full"]}

    def test_integrator_accepts_every_config_field(self):
        spec = {f.name: f.default for f in fields(IntegratorConfig)}
        sz.check_config({"integrator": spec})
        assert cli.build_integrator({"integrator": spec}) == IntegratorConfig()

    def test_print_schema_is_a_valid_draft_2020_12_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        assert cli.main(["--print-schema"]) == 0
        jsonschema.Draft202012Validator.check_schema(json.loads(capsys.readouterr().out))

    def test_check_config_agrees_with_jsonschema(self):
        jsonschema = pytest.importorskip("jsonschema")
        validator = jsonschema.Draft202012Validator(sz.CONFIG_SCHEMA)
        checked = 0
        for scenario in suite_scenarios():
            assert validator.is_valid(scenario)
            for mutated in single_field_mutations(scenario):
                try:
                    sz.check_config(mutated)
                    accepted = True
                except ConfigError:
                    accepted = False
                assert accepted == validator.is_valid(mutated), mutated
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("path, constructor", [
        (("system", "single"), sea.SingleConstituentModel),
        (("system", "composite", "constituents", "items"), cp.Constituent),
        (("units",), UnitSystem),
        (("dynamics", "pauli"), lb.pauli_rates)],
        ids=["single", "constituent", "units", "pauli"])
    def test_block_fields_are_parameters_of_their_constructor(self, path, constructor):
        # the decoded block is passed as keyword arguments
        schema = sz.CONFIG_SCHEMA
        for key in path:
            schema = schema[key] if key == "items" else schema["properties"][key]
        assert set(schema["properties"]) <= set(inspect.signature(constructor).parameters)

    def test_decode_makes_every_matrix_an_array_and_keeps_the_integrator(self):
        # an object with a "matrix" field at these paths is a state, which
        # is decoded where it is used
        state_path = re.compile(r"(^initial|\.state|^maxent\.states\[\d+\])$")

        def pairs(raw, out, path):
            yield path, raw, out
            if isinstance(out, dict):
                for name in raw:
                    yield from pairs(raw[name], out[name], f"{path}.{name}".lstrip("."))
            elif isinstance(out, list):
                for i, (r, o) in enumerate(zip(raw, out)):
                    yield from pairs(r, o, f"{path}[{i}]")

        arrays = 0
        for scenario in suite_scenarios():
            decoded = sz.decode_config(scenario)
            for path, raw, out in pairs(scenario, decoded, ""):
                if isinstance(raw, dict) and "matrix" in raw and not state_path.search(path):
                    assert isinstance(out, np.ndarray), path
                    assert np.array_equal(out, sz.decode_matrix(raw)), path
                    arrays += 1
            for name, value in scenario.get("integrator", {}).items():
                ran = decoded["integrator"][name]
                assert type(ran) is type(value) and ran == value, name
        assert arrays >= 10

    @pytest.mark.parametrize("block, path", [
        ({"system": {"single": {"H": {"dim": 1, "matrix": [[0.0, 0.0]]},
                                "tau": float("nan")}}}, "system.single.tau"),
        ({"integrator": {"t_max": float("inf")}}, "integrator.t_max"),
        ({"targets": [1.0, -float("inf")]}, "targets[1]")],
        ids=["nan-tau", "infinite-t_max", "infinite-target"])
    def test_a_non_finite_number_is_rejected_by_path(self, block, path):
        # json.load parses the non-standard NaN and Infinity tokens
        config = json.loads(json.dumps(block))
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: expected a finite"):
            sz.check_config(config)

    def test_readme_scenario_validates_and_runs(self, tmp_path):
        scenario = readme_scenario()
        sz.check_config(scenario)
        config_path = write_config(tmp_path, scenario)
        assert cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)]) == 0


def readme_scenario():
    """The first JSON block of the README."""
    return json.loads(README.read_text().split("```json\n", 1)[1].split("```", 1)[0])


def suite_scenarios():
    """Valid scenarios between them touching every block of the schema."""
    h = matrix_obj(np.diag([0.0, 1.0]))
    pure0 = {"dim": 2, "pure": [[1.0, 0.0], [0.0, 0.0]]}
    return [
        qubit_sea_scenario(),
        qubit_sea_scenario(units={"hbar": 1.0, "k_B": 2.0, "c_stat": 1.0},
                           initial={"mix": {"state": {"random": {"seed": 1,
                                                                 "min_eig": 0.01}},
                                            "epsilon": 0.1}},
                           integrator={f.name: f.default
                                       for f in fields(IntegratorConfig)}),
        qubit_sea_scenario(initial={"gibbs": {"multipliers": [1.0]}},
                           dynamics={"sea": {"equilibrium_detection": "dissipative"},
                                     "pauli": {"w": [[0.0, 0.5], [0.2, 0.0]],
                                               "energies": [0.0, 1.0]},
                                     "double_commutator": {"F": h, "tau": 0.5}}),
        TestCompositeScenarios.composite_config(),
        {"system": {"single": {"H": h, "generators": [h], "tau": 1.0}},
         "initial": pure0,
         "dynamics": {"sea": {}, "lindblad": {"B": h, "jumps": [h]}}},
        {"constants": [h], "targets": [0.25], "multipliers": [1.0],
         "outputs": {"result_json": "r.json"}},
        {"system": {"single": {"H": h, "tau": 1.0}}, "dynamics": {"sea": {}},
         "measure": {"support": [{"w": 1.0, "state": pure0}]},
         "maxent": {"states": [pure0], "target_energy": 0.0}},
        readme_scenario(),
    ]


def single_field_mutations(config):
    """Copies of ``config``, each with one field added, removed, shortened,
    lengthened or replaced by a value of another type, sign or spelling."""
    def nodes(node, path):
        yield path, node
        children = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for key, child in children:
            yield from nodes(child, (*path, key))

    def at(root, path):
        for key in path:
            root = root[key]
        return root

    for path, node in list(nodes(config, ())):
        edits = []
        if isinstance(node, dict):
            edits.append(lambda n: n.update(zz_unknown=1))
            edits += [lambda n, k=k: n.pop(k) for k in node]
        elif isinstance(node, list) and node:
            edits += [lambda n: n.pop(), lambda n: n.append(copy.deepcopy(n[0]))]
        for edit in edits:
            mutated = copy.deepcopy(config)
            edit(at(mutated, path))
            yield mutated
        if path:
            for value in ("bogus", -1, 0, 1.5, None, [], {}):
                mutated = copy.deepcopy(config)
                at(mutated, path[:-1])[path[-1]] = value
                yield mutated


class TestCompositeScenarios:
    @staticmethod
    def composite_config():
        sz = np.diag([1.0, -1.0])
        i2 = np.eye(2)
        h = np.kron(sz, i2) + 0.7 * np.kron(i2, sz) + 0.3 * np.kron(sz, sz)
        return {
            "system": {"composite": {
                "constituents": [{"dim": 2, "tau": 1.0}, {"dim": 2, "tau": 0.6}],
                "H": matrix_obj(h)}},
            "initial": {"random": {"dim": 4, "seed": 9}},
            "dynamics": {"sea": {}},
            "integrator": {"t_max": 2.0, "dt_max": 0.2},
            "outputs": {"trajectory_csv": "comp.csv"},
        }

    def test_composite_simulate(self, tmp_path):
        config_path = write_config(tmp_path, self.composite_config())
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "comp.csv").read_text().strip().split("\n")
        entropy = np.array([float(r.split(",")[1]) for r in lines[1:]])
        assert np.all(np.diff(entropy) >= -1e-10)

    def test_composite_singular_start_exits_3(self, tmp_path, capsys):
        # entangled pure state: no reduced log exists and it is not a pure
        # product, so the pre-flight check rejects it with the workflow hint
        config = self.composite_config()
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        config["initial"] = {"dim": 4, "pure": [[v, 0.0] for v in bell]}
        config_path = write_config(tmp_path, config)
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "SingularCompositeState" in err and "mix" in err

    def test_composite_pure_product_start_runs(self, tmp_path):
        config = self.composite_config()
        config["initial"] = {"dim": 4, "pure": [[1.0, 0.0], [0.0, 0.0],
                                                [0.0, 0.0], [0.0, 0.0]]}
        config_path = write_config(tmp_path, config)
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0

    def test_composite_validate(self, tmp_path):
        config_path = write_config(tmp_path, self.composite_config())
        code = cli.main(["validate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0

    def test_composite_validate_runs_the_simulated_trajectory(self, tmp_path):
        # with dissipative detection on, validate integrates exactly as
        # simulate does, down to the k1 reuse that the detection norm decides
        config = self.composite_config()
        config["dynamics"] = {"sea": {"equilibrium_detection": "dissipative"}}
        config["integrator"]["equilibrium_norm_tol"] = 1e-3
        config["outputs"] = {"summary_json": "sim.json", "report_json": "report.json"}
        path = write_config(tmp_path, config)
        for command in ("simulate", "validate"):
            assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 0
        simulated = json.loads((tmp_path / "sim.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["termination"] == simulated["termination"]
        assert report["stats"] == simulated["stats"]

    @pytest.mark.parametrize("command", ["validate", "ensemble"])
    def test_composite_singular_start_exits_3_before_integrating(self, command,
                                                                  tmp_path, capsys):
        # every state a subcommand integrates meets simulate's pre-flight;
        # in the measure the Bell state is the second support point
        config = self.composite_config()
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        bell_state = {"dim": 4, "pure": [[v, 0.0] for v in bell]}
        if command == "validate":
            config["initial"] = bell_state
        else:
            config["measure"] = {"support": [{"w": 0.5, "state": config.pop("initial")},
                                             {"w": 0.5, "state": bell_state}]}
        config_path = write_config(tmp_path, config)
        code = cli.main([command, "--config", config_path, "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "SingularCompositeState" in err and "mix" in err

    def test_support_states_of_the_wrong_dimension_exit_3(self, tmp_path, capsys):
        # the pre-flight stacks the support states; their dimension is
        # checked against the model's, not left to the stacking
        config = self.composite_config()
        config["measure"] = {"support": [
            {"w": 0.5, "state": {"random": {"dim": 2, "seed": s}}} for s in (1, 2)]}
        config_path = write_config(tmp_path, config)
        code = cli.main(["ensemble", "--config", config_path, "--out", str(tmp_path)])
        assert code == 3
        assert "DimensionMismatch" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestGibbsInitialWithGenerators:
    def test_multiplier_count_matches_generators(self, tmp_path, capsys):
        c = np.diag([1.0, -1.0, 0.5])
        config = {
            "system": {"single": {"H": matrix_obj(np.diag([0.0, 1.0, 2.0])),
                                  "generators": [matrix_obj(c)], "tau": 1.0}},
            "initial": {"gibbs": {"multipliers": [0.8, -0.3]}},
            "dynamics": {"sea": {}},
            "integrator": {"t_max": 1.0, "dt_max": 0.5},
            "outputs": {"trajectory_csv": "g.csv", "summary_json": "g.json"},
        }
        config_path = write_config(tmp_path, config)
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 0
        # a generalized Gibbs state of the declared generators is stationary
        summary = json.loads((tmp_path / "g.json").read_text())
        lines = (tmp_path / "g.csv").read_text().strip().split("\n")
        entropies = [float(row.split(",")[1]) for row in lines[1:]]
        assert max(entropies) - min(entropies) <= 1e-12
        assert summary["final_energy"] == pytest.approx(
            float(lines[1].split(",")[2]), abs=1e-9)

    def test_wrong_multiplier_count_exits_3(self, tmp_path, capsys):
        config = {
            "system": {"single": {"H": matrix_obj(np.diag([0.0, 1.0])), "tau": 1.0}},
            "initial": {"gibbs": {"multipliers": [0.8, -0.3]}},
            "dynamics": {"sea": {}},
            "integrator": {"t_max": 1.0},
        }
        config_path = write_config(tmp_path, config)
        code = cli.main(["simulate", "--config", config_path, "--out", str(tmp_path)])
        assert code == 3
        assert "multipliers" in capsys.readouterr().err


class TestCompositeGibbsStart:
    """A composite Gibbs start takes one multiplier for H and then one per
    lifted generator, in constituent order."""

    @staticmethod
    def config(multipliers):
        config = TestCompositeScenarios.composite_config()
        config["system"]["composite"]["constituents"][0]["generators"] = [
            matrix_obj(np.diag([1.0, -1.0]))]
        config["initial"] = {"gibbs": {"multipliers": multipliers}}
        config["outputs"] = {"trajectory_csv": "gibbs.csv"}
        return config

    def test_multipliers_cover_the_lifted_generators(self, tmp_path):
        config = self.config([0.5, 0.2])
        assert cli.main(["simulate", "--config", write_config(tmp_path, config),
                         "--out", str(tmp_path)]) == 0
        h = sz.decode_matrix(config["system"]["composite"]["H"])
        lifted = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        want = eq.gibbs_state(eq.constant_set([h, lifted]),
                              eq.MultiplierVector(0.5, (0.2,)))
        lines = (tmp_path / "gibbs.csv").read_text().strip().split("\n")
        first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert first["gen_0"] == pytest.approx(st.mean(lifted, want), abs=1e-12)
        assert first["energy"] == pytest.approx(st.mean(h, want), abs=1e-12)

    def test_one_multiplier_exits_3(self, tmp_path, capsys):
        code = cli.main(["simulate", "--config", write_config(tmp_path, self.config([0.5])),
                         "--out", str(tmp_path)])
        assert code == 3
        assert "ERROR Config: initial.gibbs.multipliers: expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["seaqt", "seaqt.cli"])
def test_import_loads_no_scipy(module):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    # nor jsonschema: the config check is seaqt's own walker
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
