import json
from dataclasses import fields

import numpy as np
import pytest

from seaqt import cli
from seaqt.integrate import IntegratorConfig


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


class TestSchema:
    def test_print_schema(self, capsys):
        assert cli.main(["--print-schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["title"].startswith("seaqt")
        assert "dynamics" in schema["properties"]

    def test_print_schema_after_subcommand(self, capsys):
        assert cli.main(["simulate", "--config", "x", "--print-schema"]) == 0
        assert "seaqt" in json.loads(capsys.readouterr().out)["title"]

    def test_integrator_properties_are_the_config_fields(self, capsys):
        assert cli.main(["--print-schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        props = schema["properties"]["integrator"]["properties"]
        assert set(props) == {f.name for f in fields(IntegratorConfig)}

    def test_integrator_accepts_every_config_field(self):
        spec = {f.name: f.default for f in fields(IntegratorConfig)}
        assert cli.build_integrator({"integrator": spec}) == IntegratorConfig()


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
