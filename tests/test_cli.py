import json
import logging
import os
import re
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from coevnet.cli import main, validate_config
from coevnet.errors import ConfigError


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def closure_stationary_config(**overrides):
    cfg = {
        "kind": "closure",
        "kind_closure": "conditional",
        "seed": 1,
        "T": 5.0,
        "dt": 1e-2,
        "sample_stride": 50,
        "rates": {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 1.0, "beta_mm": 1.0,
                  "gamma_pp": 1.0, "gamma_mm": 1.0, "gamma_pm": 2.0},
        "init": {"stationary": {"rho_p": 0.6, "g_pm": 0.1}},
    }
    cfg.update(overrides)
    return cfg


def minimal_config(**overrides):
    cfg = {
        "kind": "minimal",
        "seed": 3,
        "N": 20,
        "T": 1.0,
        "sample_dt": 0.5,
        "rates": {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 0.5, "beta_mm": 0.5,
                  "beta_pm": 0.2, "gamma_pp": 0.5, "gamma_mm": 0.5, "gamma_pm": 1.0},
        "init": {"rho_p": 0.5, "p_pp": 0.4, "p_mm": 0.4, "p_pm": 0.2},
    }
    cfg.update(overrides)
    return cfg


class TestValidate:
    def test_valid_minimal_config(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok:")
        assert "kind=minimal" in out

    def test_negative_rate_names_field(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["rates"]["beta_pp"] = -0.5
        path = write_config(tmp_path, cfg)
        assert main(["validate", path]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["field"] == "rates.beta_pp"

    def test_missing_m_for_characteristics(self):
        cfg = {
            "kind": "characteristics",
            "variant": "wc",
            "T": 1.0,
            "dt": 0.01,
            "model": {"name": "kernel-relaxation",
                      "params": {"K": {"form": "identity"},
                                 "eta": {"form": "gaussian"}, "kappa": 1.0}},
            "init": {"anchors": {"dist": "uniform"}, "W0": {"form": "gaussian"}},
        }
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.field == "M"

    def test_unknown_key_rejected(self):
        cfg = minimal_config(extra_knob=1)
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"kind": "teleport"})


class TestRun:
    def test_closure_stationary_run(self, tmp_path, capsys):
        path = write_config(tmp_path, closure_stationary_config())
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        traj_csv = (out_dir / "trajectory.csv").read_text().strip().splitlines()
        header = traj_csv[0].split(",")
        assert header[:7] == ["t", "f_pp", "g_pp", "f_mm", "g_mm", "f_pm", "g_pm"]
        rows = np.array([[float(v) for v in line.split(",")] for line in traj_csv[1:]])
        # stationary start: all sampled rows equal the initial moments
        assert np.max(np.abs(rows[:, 1:7] - rows[0, 1:7])) < 1e-12
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["experiments"][0]["artifacts"]

    def test_negative_rate_exits_2_with_error_json(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["rates"]["gamma_pm"] = -1.0
        path = write_config(tmp_path, cfg)
        code = main(["run", path, "--out", str(tmp_path / "out")])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ConfigError"
        assert payload["field"] == "rates.gamma_pm"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_flag_is_checked_like_the_workers_key(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        key = write_config(tmp_path, minimal_config(workers=workers), name="key.json")
        assert main(["run", key, "--out", str(out)]) == 2
        key_err = json.loads(capsys.readouterr().out)
        flag = write_config(tmp_path, minimal_config())
        assert main(["run", flag, "--out", str(out), "--workers", str(workers)]) == 2
        assert json.loads(capsys.readouterr().out) == key_err == {
            "error": "ConfigError", "exit_code": 2, "field": "workers",
            "message": f"workers must be a positive integer, got {workers}"}
        assert not out.exists()

    def test_workers_flag_overrides_the_workers_key(self, tmp_path, capsys, monkeypatch):
        from coevnet import cli
        from coevnet.errors import ModelError
        seen = []

        def stopped_comparison(*args, workers, **kwargs):
            seen.append(workers)
            raise ModelError("stopped")
        monkeypatch.setattr(cli, "run_comparison", stopped_comparison)
        cfg = {"kind": "compare", "N": 12, "runs": 2, "T": 0.5, "dt": 0.25, "workers": 2,
               "rates": minimal_config()["rates"], "init": minimal_config()["init"]}
        path = write_config(tmp_path, cfg)
        for argv in ([], ["--workers", "3"]):
            assert main(["run", path, "--out", str(tmp_path / "out"), *argv]) == 3
        assert seen == [2, 3]

    def test_compare_smoke_report_fields(self, tmp_path):
        cfg = {
            "kind": "compare",
            "seed": 0,
            "N": 50,
            "runs": 2,
            "T": 1.0,
            "dt": 0.5,
            "rates": {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 0.5, "beta_mm": 0.5,
                      "beta_pm": 0.2, "gamma_pp": 0.5, "gamma_mm": 0.5, "gamma_pm": 1.0},
            "init": {"rho_p": 0.5, "p_pp": 0.4, "p_mm": 0.4, "p_pm": 0.2},
        }
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        for key in ("params", "N", "runs", "sup_error_conditional",
                    "sup_error_kirkwood", "monte_carlo_stderr"):
            assert key in report
        assert (out_dir / "error_curves.csv").exists()

    def test_rerun_reproduces_bit_identical_csvs(self, tmp_path):
        path = write_config(tmp_path, minimal_config())
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", path, "--out", str(out_a)]) == 0
        assert main(["run", path, "--out", str(out_b)]) == 0
        for name in ("states.csv", "weights.csv", "events.csv", "moments.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_run_accepts_what_validate_accepts(self, tmp_path):
        cfg = minimal_config()
        validate_config(cfg)   # must not raise
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0

    def test_sweep_expansion(self, tmp_path):
        cfg = {"sweep": [closure_stationary_config(),
                         closure_stationary_config(seed=2)]}
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        assert (out_dir / "sweep-0000" / "trajectory.csv").exists()
        assert (out_dir / "sweep-0001" / "trajectory.csv").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COEVNET_OUT", str(tmp_path / "envout"))
        path = write_config(tmp_path, closure_stationary_config())
        assert main(["run", path]) == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()

    def test_stationary_report(self, tmp_path):
        cfg = {
            "kind": "stationary",
            "rho_p": 0.6,
            "g_pm": 0.1,
            "rates": {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 1.0, "beta_mm": 1.0,
                      "gamma_pp": 1.0, "gamma_mm": 1.0, "gamma_pm": 2.0},
        }
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "stationary.json").read_text())
        assert report["residual_conditional"] <= 1e-13
        assert report["stability_condition_holds"]
        assert report["lambda_pm_conditional"] == pytest.approx(-1.6042, abs=1e-4)

    def test_continuation_run(self, tmp_path):
        cfg = {
            "kind": "continuation",
            "kind_closure": "conditional",
            "rho_p": 0.5,
            "eps_list": [1e-2, 1e-3],
            "rates": {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 1.0, "beta_mm": 1.0,
                      "gamma_pp": 1.0, "gamma_mm": 1.0, "gamma_pm": 2.0},
        }
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        branch = json.loads((out_dir / "branch.json").read_text())
        assert len(branch["points"]) == 2
        assert all(pt["f_pm"] > 0 for pt in branch["points"])

    def test_epsilon_sweep_run(self, tmp_path):
        cfg = {
            "kind": "epsilon-sweep",
            "seed": 0,
            "N": 4,
            "T": 0.5,
            "dt": 1e-3,
            "eps_list": [0.1, 0.01],
            "model": {"name": "kernel-relaxation",
                      "params": {"K": {"form": "identity"},
                                 "eta": {"form": "gaussian"}, "kappa": 1.0}},
            "init": {"states": {"dist": "uniform", "low": -1, "high": 1},
                     "weights": {"nullcline": True, "offset": 0.3}},
        }
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        sweep = json.loads((out_dir / "sweep.json").read_text())
        assert sweep["gaps"][0] > sweep["gaps"][1]

    def test_voter_and_hybrid_runs(self, tmp_path):
        voter = {
            "kind": "voter", "seed": 2, "N": 12, "T": 1.0, "p": 0.3, "q": 0.5,
            "variant": "pq", "sample_dt": 0.5,
            "init": {"rho_p": 0.5, "link_prob": 0.4},
        }
        hybrid = {
            "kind": "hybrid-bc", "seed": 2, "N": 8, "T": 0.2, "dt": 1e-3, "tau": 0.01,
            "F": {"form": "identity"}, "r": {"form": "indicator", "threshold": 1.0},
            "init": {"states": {"dist": "uniform", "low": 0, "high": 2},
                     "link_prob": 0.3},
            "sample_stride": 100,
        }
        for name, cfg in (("voter", voter), ("hybrid", hybrid)):
            path = write_config(tmp_path, cfg, name=f"{name}.json")
            out_dir = tmp_path / name
            assert main(["run", path, "--out", str(out_dir)]) == 0
            assert (out_dir / "states.csv").exists()

    def test_characteristics_run(self, tmp_path):
        cfg = {
            "kind": "characteristics", "seed": 1, "variant": "wc", "M": 6,
            "T": 0.5, "dt": 1e-2,
            "model": {"name": "kernel-relaxation",
                      "params": {"K": {"form": "identity"},
                                 "eta": {"form": "gaussian"}, "kappa": 1.0}},
            "init": {"anchors": {"dist": "uniform", "low": -1, "high": 1},
                     "W0": {"form": "gaussian"}},
        }
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "out"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        assert (out_dir / "anchors.csv").exists()
        assert (out_dir / "pair_weights.csv").exists()

    def test_micro_and_diffusive_runs(self, tmp_path):
        micro = {
            "kind": "micro", "seed": 4, "N": 6, "T": 0.2, "dt": 1e-2,
            "model": {"name": "quadratic-potential", "params": {"kappa": 1.0, "c": 1.0}},
            "init": {"states": {"dist": "uniform", "low": -0.3, "high": 0.3},
                     "weights": {"dist": "uniform", "low": 0, "high": 0.2}},
            "sample_stride": 10,
        }
        diffusive = {
            "kind": "diffusive", "seed": 4, "N": 6, "T": 0.2, "dt": 1e-2,
            "model": {"name": "boschi",
                      "params": {"g": {"form": "sigmoid"}, "J0": 2.0, "gamma": 1.0,
                                 "sigma_noise": 0.2}},
            "init": {"states": {"dist": "normal", "mean": 0, "std": 1},
                     "weights": {"dist": "uniform", "low": 0, "high": 1}},
        }
        for name, cfg in (("micro", micro), ("diffusive", diffusive)):
            path = write_config(tmp_path, cfg, name=f"{name}.json")
            out_dir = tmp_path / name
            assert main(["run", path, "--out", str(out_dir)]) == 0
            assert (out_dir / "states.csv").exists()
            assert (out_dir / "weights.csv").exists()


def stationary_config(**overrides):
    cfg = {"kind": "stationary", "rho_p": 0.6, "g_pm": 0.1,
           "rates": {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 1.0, "beta_mm": 1.0,
                     "gamma_pp": 1.0, "gamma_mm": 1.0, "gamma_pm": 2.0}}
    cfg.update(overrides)
    return cfg


def continuation_config(**overrides):
    cfg = {"kind": "continuation", "rho_p": 0.5, "kind_closure": "conditional",
           "eps_list": [1e-3], "rates": stationary_config()["rates"]}
    cfg.update(overrides)
    return cfg


def micro_config(**overrides):
    cfg = {
        "kind": "micro", "seed": 4, "N": 2, "T": 0.1, "dt": 1e-2,
        "model": {"name": "quadratic-potential", "params": {"kappa": 1.0, "c": 1.0}},
        "init": {"states": {"dist": "uniform", "low": -0.3, "high": 0.3},
                 "weights": {"dist": "uniform", "low": 0, "high": 0.2}},
    }
    cfg.update(overrides)
    return cfg


def blowup_config():
    """A micro config that builds but fails at run time: RK4 at dt = 1 on a
    weight relaxation rate of 1000 overflows; samples t = 0..3 are finite and
    the force overflows in the step from t = 3."""
    return micro_config(N=5, T=200, dt=1, seed=0, model={
        "name": "kernel-relaxation",
        "params": {"K": {"form": "identity"}, "eta": {"form": "gaussian"}, "kappa": 1000}},
        init={"states": {"dist": "uniform", "low": -1, "high": 1},
              "weights": {"dist": "uniform", "low": 0, "high": 1}})


def epsilon_sweep_config(**overrides):
    cfg = {
        "kind": "epsilon-sweep", "seed": 0, "N": 4, "T": 0.5, "dt": 1e-3,
        "eps_list": [0.1, 0.01],
        "model": {"name": "kernel-relaxation",
                  "params": {"K": {"form": "identity"},
                             "eta": {"form": "gaussian"}, "kappa": 1.0}},
        "init": {"states": {"dist": "uniform", "low": -1, "high": 1},
                 "weights": {"nullcline": True, "offset": 0.3}},
    }
    cfg.update(overrides)
    return cfg


def validate_and_run(tmp_path, capsys, cfg):
    """Exit code and error JSON of `validate`, then of `run`, on one config."""
    path = write_config(tmp_path, cfg)
    results = []
    for argv in (["validate", path], ["run", path, "--out", str(tmp_path / "out")]):
        code = main(argv)
        out = capsys.readouterr().out
        results.append((code, json.loads(out) if code else out))
    return results


class TestBuildOnce:
    @pytest.mark.parametrize("cfg, field", [
        (minimal_config(T="abc"), "T"),
        (micro_config(init=5), "init"),
        (epsilon_sweep_config(eps_list=["x"]), "eps_list"),
        (minimal_config(N=True), "N"),
        ({"kind": "compare", "N": 20, "runs": 2, "T": 1.0, "dt": 0.5, "mode": "gillespie",
          "rates": minimal_config()["rates"], "init": minimal_config()["init"]}, "mode"),
        (minimal_config(tau_dt=0.01), "tau_dt"),
    ], ids=["T-string", "init-int", "eps_list-string", "N-bool", "compare-mode",
            "minimal-tau_dt"])
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, cfg, field):
        (v_code, v_err), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == r_code == 2
        assert v_err == r_err
        assert r_err["error"] == "ConfigError"
        assert r_err["field"] == field
        assert not (tmp_path / "out").exists()

    def test_asymmetric_weights_fail_validate_as_run(self, tmp_path, capsys):
        cfg = micro_config(init={"states": {"values": [0.0, 0.5]},
                                 "weights": {"values": [[0, 1], [0.5, 0]]}})
        (v_code, v_err), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == r_code == 4
        assert v_err == r_err
        assert r_err["error"] == "InvariantViolation"

    def test_unsolvable_nullcline_init_fails_validate_as_run(self, tmp_path, capsys):
        # the weight root eta(s - sigma) / kappa lies far beyond the nullcline bracket
        cfg = epsilon_sweep_config()
        cfg["model"]["params"]["eta"] = {"form": "gaussian", "amplitude": 1e9}
        (v_code, v_err), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == r_code == 3
        assert v_err == r_err
        assert r_err["error"] == "NullclineNotFound"

    def test_invalid_later_leg_stops_the_sweep_before_any_run(self, tmp_path, capsys):
        bad = micro_config(init={"states": {"values": [0.0, 0.5]},
                                 "weights": {"values": [[0, 1], [0.5, 0]]}})
        cfg = {"sweep": [closure_stationary_config(), bad]}
        (v_code, v_err), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == r_code == 4
        assert v_err == r_err
        assert not (tmp_path / "out").exists()

    def test_run_builds_each_leg_once(self, tmp_path, monkeypatch):
        from coevnet import cli
        built = []
        real_build = cli.build

        def counting_build(cfg):
            built.append(cfg["seed"])
            return real_build(cfg)
        monkeypatch.setattr(cli, "build", counting_build)
        cfg = {"sweep": [closure_stationary_config(seed=5), minimal_config(seed=6)]}
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        assert built == [5, 6]

    def test_run_experiment_takes_a_config_or_its_build(self, tmp_path):
        from coevnet.cli import build, run_experiment
        cfg = closure_stationary_config()
        run_experiment(cfg, str(tmp_path / "a"))
        run_experiment(build(cfg), str(tmp_path / "b"))
        assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
                == (tmp_path / "b" / "trajectory.csv").read_bytes())

    def test_validate_plan_line(self, tmp_path, capsys):
        path = write_config(tmp_path, {"sweep": [minimal_config(label="a"),
                                                 closure_stationary_config()]})
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == (
            "ok: sweep of [0] kind=minimal seed=3 label=a N=20 T=1.0; "
            "[1] kind=closure seed=1 T=5.0 dt=0.01\n")

    def test_readme_kind_table_matches_the_kind_records(self):
        from coevnet.cli import SPECS
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config schema", 1)[1].split("\n* ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
            if line.startswith("| `"):
                rows[cells[0]] = (cells[1].split(), cells[2].split())
        assert rows == {kind: (list(spec.required), list(spec.optional))
                        for kind, spec in SPECS.items()}

    def test_readme_model_line_matches_the_model_schema(self):
        from coevnet.models import MODEL_SCHEMA
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullet = readme.split("\n* `model`:", 1)[1].split("\n* ", 1)[0]
        named = {name: re.findall(r"`(\w+)`", params)
                 for name, params in re.findall(r"`([\w-]+)`\s+\(params ([^)]*)\)", bullet)}
        assert named == {name: [*kernels, *numbers]
                         for name, (kernels, numbers) in MODEL_SCHEMA.items()}

    @pytest.mark.parametrize("cfg, message", [
        ({"kind": "compare", "N": 5, "runs": 2, "T": 1.0, "dt": 0.5,
          "rates": minimal_config()["rates"], "init": minimal_config()["init"]},
         "comparison needs N >= 10"),
        ({"kind": "compare", "N": 20, "runs": 1, "T": 1.0, "dt": 0.5,
          "rates": minimal_config()["rates"], "init": minimal_config()["init"]},
         "comparison needs runs >= 2"),
        ({"kind": "compare", "N": 20, "runs": 2, "T": 1.0, "dt": 0.3,
          "rates": minimal_config()["rates"], "init": minimal_config()["init"]},
         "T must be a multiple of the sampling dt"),
        (dict(micro_config(), kind="diffusive"),
         "simulate_diffusive requires a model with a state diffusion coefficient Q"),
        (epsilon_sweep_config(reduced_dt=0.3), "T must be a multiple of reduced_dt"),
        (closure_stationary_config(init={"moments": [0.0, 0.0, 0.5, 0.5, 0.0, 0.0]}),
         "initial rho_+ must lie in (0, 1)"),
        (closure_stationary_config(init={"moments": [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]}),
         "initial rho_+ must lie in (0, 1)"),
        (stationary_config(rates=dict(stationary_config()["rates"], beta_pm=0.5)),
         "the polarized stationary family requires beta_pm = 0"),
        (stationary_config(rates={"alpha_pm": 1.0, "alpha_mp": 1.0}),
         "beta_pp + gamma_pp and beta_mm + gamma_mm must be positive"),
        (stationary_config(g_pm=0.5), "g_pm must lie in [0, min(rho_p, 1 - rho_p)]"),
        (continuation_config(rates={"alpha_pm": 2.0, "alpha_mp": 2.0, "beta_pp": 1.0,
                                    "beta_mm": 1.0, "gamma_pp": 1.0, "gamma_mm": 1.0,
                                    "gamma_pm": 1.0}),
         "conditional continuation requires 2 gamma_pm > alpha_pm + alpha_mp"),
        (continuation_config(rates=dict(stationary_config()["rates"], beta_pp=0.0)),
         "continuation requires positive rate beta_pp"),
        (continuation_config(eps_list=[-1e-3]),
         "rate beta_pm must be finite and nonnegative, got -0.001"),
        (continuation_config(rho_p=1.5), "rho_p must lie in (0, 1) for the continuation"),
    ], ids=["compare-N-5", "compare-runs-1", "compare-T-off-grid", "diffusive-without-Q",
            "epsilon-sweep-T-off-reduced-grid", "closure-rho_p-0", "closure-rho_p-1",
            "stationary-beta_pm", "stationary-flip-rates-only", "stationary-g_pm",
            "continuation-hypothesis", "continuation-zero-link-rate",
            "continuation-negative-eps", "continuation-rho_p"])
    def test_run_time_precondition_fails_validate_as_run(self, tmp_path, capsys, cfg, message):
        (v_code, v_err), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == r_code == 3
        assert v_err == r_err
        assert r_err["error"] == "ModelError"
        assert r_err["message"] == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rho_p", [0.0, 1.0])
    def test_stationary_at_consensus_fails_validate_as_run(self, tmp_path, capsys, rho_p):
        # the closure residuals the run reports are evaluated by the build
        cfg = stationary_config(rho_p=rho_p, g_pm=0.0)
        (v_code, v_err), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == r_code == 3
        assert v_err == r_err == {
            "error": "ConsensusBoundary", "exit_code": 3,
            "message": "rho_+ rho_- = 0.000e+00 at or below the consensus threshold 1e-10"}
        assert not (tmp_path / "out").exists()

    def test_micro_blowup_exits_3_with_error_json_and_no_manifest(self, tmp_path, capsys):
        cfg = blowup_config()
        with np.errstate(over="ignore", invalid="ignore"):
            (v_code, v_out), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == 0 and v_out.startswith("ok:")
        assert r_code == 3
        assert r_err == {"error": "IntegrationError", "exit_code": 3,
                         "message": "non-finite force evaluation at t=3"}
        assert json.loads((tmp_path / "out" / "error.json").read_text()) == r_err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_epsilon_sweep_blowup_exits_3_naming_the_failed_leg(self, tmp_path, capsys):
        # RK4 at dt * kappa / eps = 100 overflows the eps = 1e-4 leg; the eps = 0.1
        # leg of the same stacked run stays finite
        cfg = epsilon_sweep_config(eps_list=[0.1, 1e-4], dt=1e-2, T=2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            (v_code, v_out), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == 0 and v_out.startswith("ok:")
        assert r_code == 3
        assert r_err["error"] == "IntegrationError" and r_err["exit_code"] == 3
        assert re.fullmatch(r"non-finite (force evaluation at|state in the step from) "
                            r"t=[0-9.e-]+ for eps=0\.0001", r_err["message"])
        assert json.loads((tmp_path / "out" / "error.json").read_text()) == r_err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_diffusive_with_weight_noise_fails_validate_as_run(self, tmp_path, capsys,
                                                                monkeypatch):
        import dataclasses
        from coevnet import cli

        def noisy_catalog(name, params):
            return dataclasses.replace(catalog(name, params),
                                       R=lambda s, sig, w: np.ones(np.shape(w)))
        catalog = cli.catalog
        monkeypatch.setattr(cli, "catalog", noisy_catalog)
        cfg = dict(micro_config(), kind="diffusive", model={
            "name": "boschi", "params": {"g": {"form": "sigmoid"}, "J0": 2.0, "gamma": 1.0,
                                         "sigma_noise": 0.2}})
        (v_code, v_err), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == r_code == 3
        assert v_err == r_err
        assert r_err["error"] == "ModelError"
        assert "coefficient R" in r_err["message"]

    def test_bad_anchors_spec_names_init_anchors(self, tmp_path, capsys):
        cfg = {
            "kind": "characteristics", "seed": 1, "variant": "wc", "M": 6,
            "T": 0.5, "dt": 1e-2,
            "model": {"name": "kernel-relaxation",
                      "params": {"K": {"form": "identity"},
                                 "eta": {"form": "gaussian"}, "kappa": 1.0}},
            "init": {"anchors": {"dist": "bogus"}, "W0": {"form": "gaussian"}},
        }
        (v_code, v_err), (r_code, r_err) = validate_and_run(tmp_path, capsys, cfg)
        assert v_code == r_code == 2
        assert v_err == r_err
        assert r_err["field"] == "init.anchors"
        assert r_err["message"].startswith("init.anchors needs")


def four_kind_sweep():
    """A micro, a characteristics, a minimal and a closure leg."""
    characteristics = {
        "kind": "characteristics", "seed": 1, "variant": "conditional", "M": 8,
        "T": 0.5, "dt": 1e-2, "sample_stride": 10,
        "model": {"name": "kernel-relaxation",
                  "params": {"K": {"form": "identity"}, "eta": {"form": "gaussian"},
                             "kappa": 1.0}},
        "init": {"anchors": {"dist": "uniform", "low": -1, "high": 1},
                 "W0": {"form": "gaussian"}}}
    return {"sweep": [micro_config(N=8, T=0.5, sample_stride=10), characteristics,
                      minimal_config(), closure_stationary_config()]}


def csv_bytes(out_dir):
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*.csv"))}


class TestConcurrentSweep:
    """`run` runs a sweep's legs in forked workers, one per usable CPU."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the usable CPU count `run` sees; 1 runs the legs serially."""
        from coevnet import cli
        return lambda n: monkeypatch.setattr(cli, "_usable_cpus", lambda: n)

    @pytest.fixture
    def leg_pids(self, tmp_path, monkeypatch):
        """The ids of the processes that ran each leg, in the order they ran."""
        from coevnet import cli
        log = tmp_path / "pids"
        real_run_experiment = cli.run_experiment

        def logging_run_experiment(x, out_dir):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return real_run_experiment(x, out_dir)
        monkeypatch.setattr(cli, "run_experiment", logging_run_experiment)

        def read():
            pids = [int(v) for v in log.read_text().split()] if log.exists() else []
            log.unlink(missing_ok=True)
            return pids
        return read

    def run_sweep(self, tmp_path, capsys, cfg, name):
        path = write_config(tmp_path, cfg, name=f"{name}.json")
        out = tmp_path / name
        code = main(["run", path, "--out", str(out)])
        stdout = capsys.readouterr().out
        return code, (json.loads(stdout) if code else stdout), out

    def test_pool_and_serial_runs_write_the_same_bytes(self, tmp_path, capsys, cpus, leg_pids):
        cfg = four_kind_sweep()
        cpus(2)
        code, _, pooled = self.run_sweep(tmp_path, capsys, cfg, "pooled")
        assert code == 0
        pids = leg_pids()
        assert len(pids) == 4 and os.getpid() not in pids
        cpus(1)
        code, _, serial = self.run_sweep(tmp_path, capsys, cfg, "serial")
        assert code == 0
        assert leg_pids() == [os.getpid()] * 4
        assert len(csv_bytes(pooled)) == 9
        assert csv_bytes(pooled) == csv_bytes(serial)
        for out in (pooled, serial):
            manifest = json.loads((out / "manifest.json").read_text())
            walls = [e["wall_s"] for e in manifest["experiments"]]
            assert [e["kind"] for e in manifest["experiments"]] == [
                "micro", "characteristics", "minimal", "closure"]
            assert all(isinstance(w, float) and w >= 0 for w in walls)

    def test_a_single_leg_runs_in_this_process(self, tmp_path, capsys, cpus, leg_pids):
        cpus(2)
        code, _, _ = self.run_sweep(tmp_path, capsys, closure_stationary_config(), "one")
        assert code == 0
        assert leg_pids() == [os.getpid()]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_leg_decides_the_exit(self, tmp_path, capsys, cpus, failing):
        legs = [closure_stationary_config(), minimal_config()]
        legs[failing] = blowup_config()
        expected = {"error": "IntegrationError", "exit_code": 3,
                    "message": "non-finite force evaluation at t=3"}
        for n in (2, 1):
            cpus(n)
            with np.errstate(over="ignore", invalid="ignore"):
                code, err, out = self.run_sweep(tmp_path, capsys, {"sweep": legs}, f"cpus{n}")
            assert (code, err) == (3, expected)
            error_json = out / f"sweep-{failing:04d}" / "error.json"
            assert json.loads(error_json.read_text()) == expected
            assert not (out / "manifest.json").exists()

    def test_the_first_failing_leg_in_sweep_order_wins(self, tmp_path, capsys, cpus,
                                                        monkeypatch):
        import dataclasses
        import time
        from coevnet import cli
        from coevnet.errors import ModelError

        def failing_run(x, out_dir):
            if x.seed == 0:   # leg 0 fails last
                time.sleep(0.3)
                raise ModelError("leg 0 failed")
            raise ConfigError("leg 1 failed", field="leg1.field")
        monkeypatch.setitem(cli.SPECS, "closure",
                            dataclasses.replace(cli.SPECS["closure"], run=failing_run))
        cpus(2)
        legs = [closure_stationary_config(seed=0), closure_stationary_config(seed=1)]
        code, err, out = self.run_sweep(tmp_path, capsys, {"sweep": legs}, "both")
        assert (code, err) == (3, {"error": "ModelError", "exit_code": 3,
                                   "message": "leg 0 failed"})
        assert not (out / "sweep-0001" / "error.json").exists()
        # a ConfigError keeps its field on its way back from the worker
        code, err, out = self.run_sweep(tmp_path, capsys,
                                        {"sweep": [minimal_config(), legs[1]]}, "field")
        assert (code, err) == (2, {"error": "ConfigError", "exit_code": 2,
                                   "field": "leg1.field", "message": "leg 1 failed"})
        assert json.loads((out / "sweep-0001" / "error.json").read_text()) == err
        assert not (out / "manifest.json").exists()

    def test_a_compare_leg_with_its_own_workers_runs_in_a_sweep(self, tmp_path, capsys, cpus):
        compare = {"kind": "compare", "seed": 2, "N": 12, "runs": 2, "T": 0.5, "dt": 0.25,
                   "workers": 2, "rates": minimal_config()["rates"],
                   "init": minimal_config()["init"]}
        cfg = {"sweep": [compare, closure_stationary_config()]}
        outs = {}
        for n in (2, 1):
            cpus(n)
            code, _, outs[n] = self.run_sweep(tmp_path, capsys, cfg, f"cpus{n}")
            assert code == 0
            assert (outs[n] / "sweep-0000" / "report.json").exists()
        assert csv_bytes(outs[2]) == csv_bytes(outs[1]) != {}

    @pytest.mark.parametrize("exc", [BrokenProcessPool("pool broke"), OSError("no fork")],
                             ids=["BrokenProcessPool", "OSError"])
    def test_a_pool_failing_on_submit_falls_back_to_serial(self, tmp_path, capsys, caplog, cpus,
                                                           monkeypatch, leg_pids, exc):
        from coevnet import _pool

        class FailingPool(_pool.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                raise exc
        monkeypatch.setattr(_pool, "ProcessPoolExecutor", FailingPool)
        cfg = four_kind_sweep()
        cpus(1)
        assert self.run_sweep(tmp_path, capsys, cfg, "serial")[0] == 0
        cpus(2)
        caplog.clear()
        code, _, out = self.run_sweep(tmp_path, capsys, cfg, "fallback")
        assert code == 0
        assert leg_pids() == [os.getpid()] * 8
        warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and "running the remaining legs serially" in warnings[0].message
        assert csv_bytes(out) == csv_bytes(tmp_path / "serial")

    def test_without_fork_the_legs_run_serially(self, tmp_path, capsys, caplog, cpus,
                                                 monkeypatch, leg_pids):
        from coevnet import _pool
        monkeypatch.setattr(_pool.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        cpus(2)
        code, _, _ = self.run_sweep(tmp_path, capsys, four_kind_sweep(), "spawn")
        assert code == 0
        assert leg_pids() == [os.getpid()] * 4
        assert [r.message for r in caplog.records if r.levelno >= logging.WARNING] == [
            "no fork start method; running the 4 legs serially"]

    def test_a_worker_that_dies_leaves_the_remaining_legs_to_run_serially(
            self, tmp_path, capsys, caplog, cpus, monkeypatch):
        import dataclasses
        import time
        from coevnet import cli
        parent = os.getpid()
        real_run = cli.SPECS["closure"].run

        def dying_run(x, out_dir):
            if x.seed == 1 and os.getpid() != parent:
                # die once leg 0 has written its artifacts: the pool then stops
                # the other worker, which would leave a half-written temp file
                leg0 = Path(out_dir).parent / "sweep-0000" / "summary.json"
                deadline = time.monotonic() + 30
                while not leg0.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(1)
            return real_run(x, out_dir)
        cfg = {"sweep": [closure_stationary_config(seed=0), closure_stationary_config(seed=1)]}
        cpus(1)
        assert self.run_sweep(tmp_path, capsys, cfg, "serial")[0] == 0
        monkeypatch.setitem(cli.SPECS, "closure",
                            dataclasses.replace(cli.SPECS["closure"], run=dying_run))
        cpus(2)
        caplog.clear()
        code, _, out = self.run_sweep(tmp_path, capsys, cfg, "died")
        assert code == 0
        assert [r.levelno for r in caplog.records if r.levelno >= logging.WARNING] == [
            logging.WARNING]
        assert csv_bytes(out) == csv_bytes(tmp_path / "serial")

    def test_a_worker_stopped_inside_a_write_leaves_no_temp_file(
            self, tmp_path, capsys, caplog, cpus, monkeypatch):
        import dataclasses
        import time
        from coevnet import cli, io
        parent = os.getpid()
        real_run = cli.SPECS["closure"].run

        def wait_for(done):
            deadline = time.monotonic() + 30
            while not done() and time.monotonic() < deadline:
                time.sleep(0.01)

        def blocked_chunks():
            yield "first chunk\n"
            wait_for(lambda: False)   # until the pool stops this worker

        def stopped_run(x, out_dir):
            if os.getpid() != parent and x.seed == 0:
                io._atomic_write(os.path.join(out_dir, "blocked.csv"), blocked_chunks())
            elif os.getpid() != parent:
                # die once leg 0 is inside its write: the pool then stops leg 0's worker
                wait_for(lambda: any((Path(out_dir).parent / "sweep-0000").glob(".tmp-*")))
                os._exit(1)
            return real_run(x, out_dir)
        monkeypatch.setitem(cli.SPECS, "closure",
                            dataclasses.replace(cli.SPECS["closure"], run=stopped_run))
        cpus(2)
        cfg = {"sweep": [closure_stationary_config(seed=0), closure_stationary_config(seed=1)]}
        code, _, out = self.run_sweep(tmp_path, capsys, cfg, "stopped")
        assert code == 0
        assert len([r for r in caplog.records if r.levelno >= logging.WARNING]) == 1
        assert list(out.rglob(".tmp-*")) == []
        assert (out / "sweep-0001" / "summary.json").exists()
