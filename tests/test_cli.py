import contextlib
import io
import json
import os
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from renyiqnn import cli, swaptest, training
from renyiqnn.cli import (
    TABLES,
    ConfigError,
    bundled_config_path,
    load_experiment_config,
    main,
    resolve_config,
)
from renyiqnn.divergence import SingularStateError
from renyiqnn.training import TrainConfig, TrainingError

BUNDLED = [
    ("fig2_3v3h.json", "thermal-learn"),
    ("figF1_4v4h.json", "thermal-learn"),
    ("fig3_tau10.json", "ham-learn"),
    ("figF4_tau5.json", "ham-learn"),
    ("plateau_3v.json", "plateau-scan"),
    ("mc_2q.json", "mc-estimate"),
]


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def thermal_doc(**train_over):
    train = {
        "kind": "uqnn",
        "n_v": 2,
        "n_h": 1,
        "epochs": 2,
        "lr": 0.01,
        "direction": "reverse",
        "seed": 0,
        "target_locality": 2,
        "tau": 1.0,
    }
    train.update(train_over)
    return {
        "schema_version": 1,
        "experiment": "thermal-learn",
        "n_runs": 1,
        "full_n_runs": 2,
        "vary": "both",
        "train": train,
    }


class TestBundledConfigs:
    @pytest.mark.parametrize("name,experiment", BUNDLED)
    def test_all_load(self, name, experiment):
        doc = load_experiment_config(bundled_config_path(name), experiment)
        assert doc["experiment"] == experiment

    def test_wrong_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            load_experiment_config(bundled_config_path("fig2_3v3h.json"), "ham-learn")

    @pytest.mark.parametrize("name,experiment", BUNDLED)
    def test_resolving_is_a_fixed_point(self, name, experiment):
        resolved = resolve_config(load_experiment_config(bundled_config_path(name), experiment), experiment)
        assert resolve_config(resolved, experiment) == resolved
        assert set(resolved) == {"schema_version", "experiment", *TABLES[experiment]}
        if "train" in resolved:
            assert set(resolved["train"]) == set(TrainConfig.__dataclass_fields__)
        if "target" in resolved:
            assert set(resolved["target"]) == {"locality", "tau"}


def test_bundled_commands_run_without_a_warning(tmp_path):
    """Every bundled config's command, at smoke size, and every validate suite runs with no numpy warning.

    A warning is an error here and a floating-point error raises, so an
    exit code of 0 with no failed member shows that none was emitted.
    """
    scan = load_experiment_config(bundled_config_path("plateau_3v.json"), "plateau-scan")
    smoke = ["--runs", "2", "--epochs", "3", "--jobs", "1"]
    commands = [
        ["thermal-learn", "--config", bundled_config_path("fig2_3v3h.json"), *smoke],
        ["thermal-learn", "--config", bundled_config_path("figF1_4v4h.json"), *smoke],
        ["ham-learn", "--config", bundled_config_path("fig3_tau10.json"), *smoke],
        ["ham-learn", "--config", bundled_config_path("figF4_tau5.json"), *smoke],
        ["plateau-scan", "--config", write_config(tmp_path, {**scan, "ensemble": 4})],
        ["mc-estimate", "--config", bundled_config_path("mc_2q.json")],
    ] + [["validate", suite, "--n-instances", "3"] for suite in ("swap", "grad", "mc")]
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}"
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert main(argv if argv[0] == "validate" else [*argv, "--out", str(out)]) == 0, argv
        if argv[0].endswith("-learn"):
            assert json.loads((out / "summary.json").read_text())["failures"] == [], argv


class TestLearnCommand:
    def test_smoke_run_is_fast_and_complete(self, tmp_path, capsys):
        cfg = write_config(tmp_path, thermal_doc())
        out = tmp_path / "out"
        t0 = time.perf_counter()
        rc = main(["thermal-learn", "--config", cfg, "--out", str(out), "--jobs", "1"])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        assert elapsed < 10.0
        assert (out / "summary.json").exists()
        assert (out / "run_000.csv").exists()
        assert (out / "config.json").exists()
        stdout = capsys.readouterr().out
        assert "fidelity" in stdout

    def test_flag_overrides_land_in_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path, thermal_doc())
        out = tmp_path / "out"
        rc = main(
            ["thermal-learn", "--config", cfg, "--out", str(out), "--jobs", "1",
             "--epochs", "3", "--seed", "9", "--runs", "1"]
        )
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["train"]["epochs"] == 3
        assert resolved["train"]["seed"] == 9
        assert resolved["n_runs"] == 1

    def test_full_flag_switches_ensemble_size(self, tmp_path):
        cfg = write_config(tmp_path, thermal_doc())
        out = tmp_path / "out"
        rc = main(["thermal-learn", "--config", cfg, "--out", str(out), "--jobs", "1", "--full"])
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["n_runs"] == 2
        assert (out / "run_001.csv").exists()

    def test_rerun_from_resolved_config_reproduces_science_columns(self, tmp_path):
        cfg = write_config(tmp_path, thermal_doc())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["thermal-learn", "--config", cfg, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(
            ["thermal-learn", "--config", str(out1 / "config.json"), "--out", str(out2), "--jobs", "1"]
        ) == 0

        def science(path):
            lines = path.read_text().strip().splitlines()
            cols = lines[0].split(",")
            keep = [i for i, c in enumerate(cols) if c != "wall_ms"]
            return [",".join(row.split(",")[i] for i in keep) for row in lines]

        assert science(out1 / "run_000.csv") == science(out2 / "run_000.csv")

    def test_ham_learn_smoke(self, tmp_path):
        doc = {
            "schema_version": 1,
            "experiment": "ham-learn",
            "n_runs": 1,
            "full_n_runs": 1,
            "vary": "both",
            "train": {
                "kind": "qbm",
                "n_v": 2,
                "n_h": 0,
                "epochs": 2,
                "lr": 0.01,
                "direction": "reverse",
                "l2_penalty": 2.0,
                "seed": 0,
                "target_locality": 2,
                "tau": 1.0,
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["ham-learn", "--config", cfg, "--out", str(out), "--jobs", "1"])
        assert rc == 0


def _old_train(**train):
    """A train block as config.json held it before six settings were retired, those at the values now always used."""
    return {"l2_penalty": 0.0, "log_every": 1, "layout": "exhaustive", "normalize_init": True, "repetitions": 1,
            "target_reg": 0.0, "target_std_pair": 1.0, "target_std_single": None, **train}


# The config.json each bundled config resolved to before the retired settings
# were removed (thermal-learn and ham-learn at --runs 1 --epochs 2), out_dir
# left out.
OLD_RESOLVED = {
    "fig2_3v3h.json": {
        "experiment": "thermal-learn", "full_n_runs": 50, "n_runs": 1, "schema_version": 1, "vary": "both",
        "train": _old_train(direction="reverse", epochs=2, kind="uqnn", lr=0.001, n_h=3, n_v=3, seed=0,
                            target_locality=2, tau=1.0),
    },
    "figF1_4v4h.json": {
        "experiment": "thermal-learn", "full_n_runs": 50, "n_runs": 1, "schema_version": 1, "vary": "both",
        "train": _old_train(direction="reverse", epochs=2, kind="uqnn", lr=0.03, n_h=4, n_v=4, seed=0,
                            target_locality=2, tau=1.0),
    },
    "fig3_tau10.json": {
        "experiment": "ham-learn", "full_n_runs": 50, "n_runs": 1, "schema_version": 1, "vary": "both",
        "train": _old_train(direction="reverse", epochs=2, kind="qbm", l2_penalty=2.0, log_every=10, lr=0.01,
                            n_h=0, n_v=4, seed=0, target_locality=3, tau=10.0),
    },
    "figF4_tau5.json": {
        "experiment": "ham-learn", "full_n_runs": 50, "n_runs": 1, "schema_version": 1, "vary": "both",
        "train": _old_train(direction="reverse", epochs=2, kind="qbm", l2_penalty=2.0, lr=0.01, n_h=0, n_v=4,
                            seed=0, target_locality=3, tau=5.0),
    },
    "plateau_3v.json": {
        "ensemble": 50, "experiment": "plateau-scan", "layout": "exhaustive", "n_h_list": [0, 1, 2, 3], "n_v": 3,
        "repetitions": 1, "schema_version": 1, "seed": 0,
        "target": {"locality": 2, "std_pair": 1.0, "std_single": 0.31622776601683794, "tau": 1.0},
    },
    "mc_2q.json": {
        "experiment": "mc-estimate", "k": 1, "n_h": 0, "n_v": 2, "q_max": 30, "schema_version": 1, "seed": 0,
        "shots": 100000, "target": {"locality": 2, "std_pair": 1.0, "std_single": 0.31622776601683794, "tau": 1.0},
        "target_alpha_norm": 0.8,
    },
}


def science_outputs(out) -> dict:
    """Every file a run wrote but config.json, with the wall_ms column cut from run CSVs."""
    files = {}
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.name.startswith("run_") and path.suffix == ".csv":
            text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
        if path.name != "config.json":
            files[path.name] = text
    return files


class TestLegacyConfig:
    @pytest.mark.parametrize("name,experiment", BUNDLED)
    def test_old_config_resolves_like_the_bundled_config(self, name, experiment):
        with open(bundled_config_path(name)) as fh:
            doc = json.load(fh)
        smoke = {"n_runs": 1, "train.epochs": 2} if experiment.endswith("-learn") else {}
        now = resolve_config(doc, experiment, {**smoke, "out_dir": "out"})
        assert resolve_config({**OLD_RESOLVED[name], "out_dir": "out"}, experiment) == now

    @pytest.mark.parametrize("name,experiment", [b for b in BUNDLED if b[1] != "plateau-scan"])
    def test_old_config_reruns_exactly(self, tmp_path, name, experiment):
        # the plateau scan takes seconds at its bundled ensemble; it resolves to the same dict above
        old = write_config(tmp_path, OLD_RESOLVED[name])
        flags = ["--runs", "1", "--epochs", "2", "--jobs", "1"] if experiment.endswith("-learn") else []
        assert main([experiment, "--config", old, "--out", str(tmp_path / "old")]) == 0
        assert main([experiment, "--config", bundled_config_path(name), "--out", str(tmp_path / "new"), *flags]) == 0
        assert science_outputs(tmp_path / "old") == science_outputs(tmp_path / "new")
        resolved = json.loads((tmp_path / "old" / "config.json").read_text())
        assert resolved == resolve_config(resolved, experiment)

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("fig3_tau10.json", "train.target_reg", 0.1),
            ("fig3_tau10.json", "train.target_std_pair", 2.0),
            ("fig3_tau10.json", "train.target_std_single", 0.31622776601683794),
            ("fig2_3v3h.json", "train.target_std_single", 1.0),
            ("fig3_tau10.json", "train.normalize_init", False),
            ("fig2_3v3h.json", "train.normalize_init", 1),
            ("fig2_3v3h.json", "train.layout", "brick"),
            ("fig2_3v3h.json", "train.repetitions", 2),
            ("fig2_3v3h.json", "train.repetitions", True),
            ("mc_2q.json", "target.std_single", 1.0),
            ("mc_2q.json", "target.std_pair", 0.5),
            ("plateau_3v.json", "target.std_single", None),
        ],
    )
    def test_retired_key_at_another_value_is_a_config_error(self, tmp_path, capsys, name, key, value):
        doc = OLD_RESOLVED[name]
        block, sub = key.split(".")
        doc = {**doc, block: {**doc[block], sub: value}}
        experiment = doc["experiment"]
        jobs = ["--jobs", "1"] if experiment.endswith("-learn") else []
        assert main([experiment, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o"), *jobs]) == 1
        assert f"{key} is no longer a setting" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_retired_key_values_are_accepted_as_numbers(self):
        doc = {**OLD_RESOLVED["mc_2q.json"], "n_v": 3, "target": {"locality": 3, "std_single": 1, "std_pair": 1}}
        assert resolve_config(doc, "mc-estimate")["target"] == {"locality": 3, "tau": 1.0}

    def test_resolved_series_tol_key_accepted(self, tmp_path):
        # config.json files resolved before the closed-form Boltzmann
        # gradient carry series_tol in their train block
        doc = thermal_doc(kind="qbm", n_h=0, series_tol=1e-10)
        doc["experiment"] = "ham-learn"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["ham-learn", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert "series_tol" not in resolved["train"]


class TestConfigErrors:
    def exit_code(self, tmp_path, doc, experiment="thermal-learn", name="bad.json", flags=()):
        cfg = write_config(tmp_path, doc, name)
        jobs = ["--jobs", "1"] if experiment.endswith("-learn") else []
        return main([experiment, "--config", cfg, "--out", str(tmp_path / "o"), *jobs, *flags])

    def test_missing_schema_version(self, tmp_path, capsys):
        doc = thermal_doc()
        del doc["schema_version"]
        assert self.exit_code(tmp_path, doc) == 1
        assert "config error" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path):
        doc = thermal_doc()
        doc["schema_version"] = 2
        assert self.exit_code(tmp_path, doc) == 1

    def test_wrong_experiment_field(self, tmp_path):
        doc = thermal_doc()
        doc["experiment"] = "ham-learn"
        assert self.exit_code(tmp_path, doc) == 1

    def test_unknown_top_level_key(self, tmp_path):
        doc = thermal_doc()
        doc["optimizer"] = "adam"
        assert self.exit_code(tmp_path, doc) == 1

    def test_unknown_train_key(self, tmp_path):
        doc = thermal_doc(momentum=0.9)
        assert self.exit_code(tmp_path, doc) == 1

    def test_bad_kind(self, tmp_path):
        assert self.exit_code(tmp_path, thermal_doc(kind="tensor")) == 1

    def test_bad_epochs(self, tmp_path):
        assert self.exit_code(tmp_path, thermal_doc(epochs=0)) == 1

    def test_bad_tau(self, tmp_path):
        assert self.exit_code(tmp_path, thermal_doc(tau=-1.0)) == 1

    def test_missing_config_file(self, tmp_path):
        rc = main(
            ["thermal-learn", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 1

    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["renormalize"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["thermal-learn", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize(
        "name,experiment,key,value",
        [
            ("plateau_3v.json", "plateau-scan", "repetitions", "two"),
            ("plateau_3v.json", "plateau-scan", "repetitions", 0),
            ("plateau_3v.json", "plateau-scan", "layout", "ring"),
            ("fig2_3v3h.json", "thermal-learn", "train.layout", "ring"),
            ("mc_2q.json", "mc-estimate", "k", "1"),
            ("mc_2q.json", "mc-estimate", "q_max", -1),
            ("mc_2q.json", "mc-estimate", "q_max", 170),
            ("mc_2q.json", "mc-estimate", "n_h", -1),
            ("plateau_3v.json", "plateau-scan", "seed", "x"),
            ("mc_2q.json", "mc-estimate", "target_alpha_norm", "x"),
            ("mc_2q.json", "mc-estimate", "target.tau", "x"),
            ("plateau_3v.json", "plateau-scan", "target.std_single", "x"),
            ("fig2_3v3h.json", "thermal-learn", "train.n_v", 1.5),
            ("fig2_3v3h.json", "thermal-learn", "train.seed", "x"),
            ("fig2_3v3h.json", "thermal-learn", "full_n_runs", "x"),
            ("fig2_3v3h.json", "thermal-learn", "full_n_runs", 0),
            ("fig2_3v3h.json", "thermal-learn", "n_runs", True),
            ("plateau_3v.json", "plateau-scan", "ensemble", True),
            ("plateau_3v.json", "plateau-scan", "n_h_list", [True]),
            ("mc_2q.json", "mc-estimate", "n_v", True),
            ("mc_2q.json", "mc-estimate", "shots", True),
            ("fig2_3v3h.json", "thermal-learn", "train.lr", float("nan")),
            ("mc_2q.json", "mc-estimate", "target.std_pair", float("inf")),
            ("plateau_3v.json", "plateau-scan", "n_h_list", []),
            ("plateau_3v.json", "plateau-scan", "n_h_list", [1, 1]),
        ],
    )
    def test_invalid_bundled_value(self, tmp_path, capsys, name, experiment, key, value):
        with open(bundled_config_path(name)) as fh:
            doc = json.load(fh)
        *outer, last = key.split(".")
        block = doc
        for part in outer:
            block = block[part]
        block[last] = value
        assert self.exit_code(tmp_path, doc, experiment) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "experiment,doc",
        [
            ("thermal-learn", thermal_doc(n_v=7, n_h=6)),
            ("ham-learn", {**thermal_doc(kind="qbm", n_v=7, n_h=6), "experiment": "ham-learn"}),
            ("plateau-scan", {"schema_version": 1, "experiment": "plateau-scan", "n_v": 3, "n_h_list": [0, 10],
                              "ensemble": 1}),
            ("mc-estimate", {"schema_version": 1, "experiment": "mc-estimate", "n_v": 7, "n_h": 6}),
        ],
    )
    def test_widths_beyond_the_dimension_cap(self, tmp_path, capsys, experiment, doc):
        # 13 qubits: a config error before any output is written
        assert self.exit_code(tmp_path, doc, experiment) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "dimension 8192 exceeds cap 4096" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment,doc",
        [
            ("thermal-learn", thermal_doc(n_v=2, target_locality=3)),
            ("ham-learn", {**thermal_doc(kind="qbm", n_v=1, target_locality=3), "experiment": "ham-learn"}),
            ("plateau-scan", {"schema_version": 1, "experiment": "plateau-scan", "n_v": 2, "n_h_list": [0],
                              "ensemble": 1, "target": {"locality": 3}}),
            ("mc-estimate", {"schema_version": 1, "experiment": "mc-estimate", "n_v": 1, "target": {"locality": 3}}),
        ],
    )
    def test_three_local_target_on_fewer_than_three_visible_qubits(self, tmp_path, capsys, experiment, doc):
        # a config error before any output is written, not a runtime failure
        assert self.exit_code(tmp_path, doc, experiment) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "locality 3 needs n_v >= 3, got n_v=" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("experiment,name", [("thermal-learn", "fig2_3v3h.json"), ("ham-learn", "fig3_tau10.json")])
    @pytest.mark.parametrize("flags", [["--epochs", "0"], ["--seed", "-1"], ["--jobs", "-1"]], ids="".join)
    def test_invalid_flag_value(self, tmp_path, capsys, experiment, name, flags):
        cfg = bundled_config_path(name)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["plateau-scan", "--config", bundled_config_path("plateau_3v.json"), "--jobs", "2"],
            ["plateau-scan", "--config", bundled_config_path("plateau_3v.json"), "--full"],
            ["mc-estimate", "--config", bundled_config_path("mc_2q.json"), "--jobs", "2"],
            ["mc-estimate", "--config", bundled_config_path("mc_2q.json"), "--full"],
            ["validate", "swap", "--jobs", "2"],
            ["validate", "swap", "--full"],
            ["validate", "swap", "--out", "o"],
        ],
    )
    def test_flag_the_command_does_not_read(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestRuntimeFailures:
    def test_forward_without_hidden_units_exits_two(self, tmp_path, capsys):
        doc = thermal_doc(direction="forward", n_h=0)
        cfg = write_config(tmp_path, doc)
        rc = main(["thermal-learn", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert rc == 2
        assert "runtime failure" in capsys.readouterr().err


class TestPlateauScan:
    def test_report_files(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "experiment": "plateau-scan",
            "seed": 0,
            "n_v": 2,
            "n_h_list": [0, 1],
            "ensemble": 3,
            "target": {"locality": 2, "tau": 1.0},
            "layout": "exhaustive",
            "repetitions": 1,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["plateau-scan", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "n_v,n_h,loss_kind,stat_name,value"
        doc_out = json.loads((out / "report.json").read_text())
        assert doc_out["ensemble_size"] == 3
        assert "inf-norm median" in capsys.readouterr().out


class TestMCEstimate:
    def test_estimate_json(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "experiment": "mc-estimate",
            "seed": 0,
            "n_v": 2,
            "n_h": 0,
            "k": 1,
            "shots": 20000,
            "q_max": 30,
            "target": {"locality": 2, "tau": 1.0},
            "target_alpha_norm": 0.8,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        rc = main(["mc-estimate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        est = json.loads((out / "estimate.json").read_text())
        for key in ("mean", "std_error", "exact", "z", "shots"):
            assert key in est
        assert abs(est["z"]) < 6
        assert "z" in capsys.readouterr().out

    def test_z_is_undefined_without_a_standard_error(self, tmp_path, capsys):
        with open(bundled_config_path("mc_2q.json")) as fh:
            doc = {**json.load(fh), "shots": 1}
        out = tmp_path / "out"
        assert main(["mc-estimate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["std_error"] == 0.0 and est["mean"] != est["exact"]
        assert est["z"] is None
        assert "z undefined" in capsys.readouterr().out

    def test_three_local_defaults_rerun_exactly(self, tmp_path):
        # the resolved config must rerun to the same estimate
        doc = {
            "schema_version": 1,
            "experiment": "mc-estimate",
            "seed": 0,
            "n_v": 3,
            "n_h": 0,
            "k": 1,
            "shots": 2000,
            "target": {"locality": 3, "tau": 1.0},
            "target_alpha_norm": 0.8,
        }
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["mc-estimate", "--config", write_config(tmp_path, doc), "--out", str(first)]) == 0
        assert main(["mc-estimate", "--config", str(first / "config.json"), "--out", str(second)]) == 0
        assert (second / "estimate.json").read_text() == (first / "estimate.json").read_text()

    @pytest.mark.parametrize(
        "seed,mean,std_error",
        [(0, -0.2899029982363316, 0.014321360705993892), (1, 0.1364633611232997, 0.015513446087772435)],
    )
    def test_bundled_estimate_is_pinned(self, tmp_path, seed, mean, std_error):
        # means written by the per-shot row sampler, which drew the same stream; each
        # std_error is its 50-digit value 0.01432136070599389158... and
        # 0.01551344608777243597..., correctly rounded
        out = tmp_path / "out"
        cfg = bundled_config_path("mc_2q.json")
        assert main(["mc-estimate", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        est = json.loads((out / "estimate.json").read_text())
        assert est["mean"] == mean
        assert est["std_error"] == std_error

    def test_series_cutoff_past_the_float_factorial_is_a_config_error(self, tmp_path, capsys):
        # the series would need 171! as a float: refused before anything runs
        with open(bundled_config_path("mc_2q.json")) as fh:
            doc = {**json.load(fh), "q_max": 200}
        assert main(["mc-estimate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: q_max must be an integer in 0..169, got 200" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [7, 8])
    def test_alpha_norm_at_the_guard_runs(self, tmp_path, seed):
        # at these seeds the rescaled sum once came out one ulp above 20 and the estimator refused it
        doc = {"schema_version": 1, "experiment": "mc-estimate", "seed": seed, "n_v": 2, "shots": 100,
               "target_alpha_norm": 20}
        assert main(["mc-estimate", "--config", write_config(tmp_path, doc)]) == 0

    def test_scaled_norm_never_exceeds_the_request(self):
        for seed in range(30):
            for n_v in (1, 2, 3):
                h = training.target_hamiltonian(n_v, np.random.default_rng(seed), 2, 1.0)
                for request in (0.8, 20.0):
                    a1 = swaptest._series_terms(cli._scale_alpha_norm(h, request))[2]
                    assert request * (1 - 1e-14) <= a1 <= request

    def test_alpha_norm_out_of_range(self, tmp_path):
        doc = {
            "schema_version": 1,
            "experiment": "mc-estimate",
            "seed": 0,
            "n_v": 2,
            "n_h": 0,
            "k": 1,
            "shots": 10,
            "q_max": 30,
            "target": {"locality": 2, "tau": 1.0},
            "target_alpha_norm": 25.0,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["mc-estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestValidate:
    def test_swap_suite_passes(self, capsys):
        rc = main(["validate", "swap", "--n-instances", "6"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_grad_suite_passes(self, capsys):
        rc = main(["validate", "grad", "--n-instances", "6"])
        assert rc == 0

    def test_grad_suite_passes_at_defaults(self, capsys):
        assert main(["validate", "grad"]) == 0
        assert "45/45 checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("direction", ["reverse", "forward"])
    def test_kernel_vs_frechet_check_fires(self, monkeypatch, capsys, direction):
        # one entry of the oracle off by 1e-6, a hundred times the check's 1e-8 bound
        exact = cli.qbm_grad_frechet

        def perturbed(p, rho, d):
            grad = exact(p, rho, d)
            if d == direction:
                grad[0] += 1e-6
            return grad

        monkeypatch.setattr(cli, "qbm_grad_frechet", perturbed)
        assert main(["validate", "grad", "--n-instances", "4"]) == 3
        err = capsys.readouterr().err
        names = [row["name"] for row in json.loads(err[err.index("[") :])]
        assert len(names) == 2 and all(n.startswith("grad-qbm-kernel-vs-frechet[") for n in names)

    def test_mc_suite_passes(self, capsys):
        rc = main(["validate", "mc", "--n-instances", "4"])
        assert rc == 0

    def test_config_kind_must_match_the_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "experiment": "validate", "kind": "mc"})
        assert main(["validate", "swap", "--config", cfg]) == 1
        assert "config kind 'mc' does not match 'swap'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,n_checks", [([], 3), (["--n-instances", "3"], 4)])
    def test_config_sets_instances_and_the_flag_overrides(self, tmp_path, capsys, flags, n_checks):
        # n instances give n trace checks and max(1, n // 3) gradient checks
        cfg = write_config(tmp_path, {"schema_version": 1, "experiment": "validate", "kind": "mc", "n_instances": 2})
        assert main(["validate", "mc", "--config", cfg, *flags]) == 0
        assert f"validate mc: {n_checks}/{n_checks} checks passed" in capsys.readouterr().out

    def test_impossible_tolerance_exits_three(self, capsys):
        rc = main(["validate", "grad", "--n-instances", "4", "--fd-tol", "1e-15"])
        assert rc == 3
        err = capsys.readouterr().err
        payload = json.loads(err[err.index("[") :])
        assert len(payload) > 0
        assert all("name" in row for row in payload)


TAUS = st.sampled_from([1e-300, 1.0, 1e300])
TARGETS = st.fixed_dictionaries({"locality": st.sampled_from([2, 3]), "tau": TAUS})


def learn_configs(experiment: str, kind: str):
    train = st.fixed_dictionaries({
        "kind": st.just(kind),
        "n_v": st.integers(1, 2),
        "n_h": st.integers(0, 1),
        "epochs": st.integers(1, 2),
        "lr": st.sampled_from([0.0, 1e300]),
        "l2_penalty": st.sampled_from([0.0, 1e300]),
        "direction": st.sampled_from(["reverse", "forward"]),
        "seed": st.integers(0, 30),
        "target_locality": st.sampled_from([2, 3]),
        "tau": TAUS,
    })
    doc = {"train": train, "n_runs": st.integers(1, 2), "vary": st.sampled_from(["target", "both"])}
    return st.fixed_dictionaries(doc).map(lambda d: (experiment, d))


CONFIGS = st.one_of(
    learn_configs("thermal-learn", "uqnn"),
    learn_configs("ham-learn", "qbm"),
    st.fixed_dictionaries({
        "seed": st.integers(0, 30),
        "n_v": st.integers(1, 2),
        "n_h_list": st.lists(st.integers(0, 1), min_size=1, max_size=2, unique=True),
        "ensemble": st.integers(1, 2),
        "target": TARGETS,
        "layout": st.sampled_from(["exhaustive", "brick"]),
    }).map(lambda d: ("plateau-scan", d)),
    st.fixed_dictionaries({
        "seed": st.integers(0, 30),
        "n_v": st.integers(1, 2),
        "n_h": st.integers(0, 1),
        "k": st.integers(1, 6),
        "shots": st.integers(1, 100),
        "q_max": st.sampled_from([0, 169]),
        "target": TARGETS,
        "target_alpha_norm": st.sampled_from([None, 0.8, 20]),
    }).map(lambda d: ("mc-estimate", d)),
)


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CONFIGS)
# the rescaled sum one ulp above 20, which the estimator's guard refused
@example(case=("mc-estimate", {"seed": 7, "n_v": 2, "shots": 10, "target_alpha_norm": 20}))
# a three-local target on two visible qubits, which failed only once the command ran
@example(case=("plateau-scan", {"n_v": 2, "n_h_list": [0], "ensemble": 1, "target": {"locality": 3, "tau": 1.0}}))
def test_every_valid_config_runs_or_fails_typed(case):
    """Over the tables' domain each command succeeds or ends in one of the typed failures main reports."""
    experiment, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "experiment": experiment, **doc}, fh)
        jobs = ["--jobs", "1"] if experiment.endswith("-learn") else []
        args = cli.build_parser().parse_args([experiment, "--config", path, "--out", os.path.join(tmp, "o"), *jobs])
        with np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                assert args.func(args) == 0
            except (ConfigError, TrainingError, SingularStateError, ArithmeticError):
                pass
            except ValueError as exc:
                # the estimator's coefficient guard, reachable only through an unscaled target
                if not (experiment == "mc-estimate" and doc.get("target_alpha_norm") is None
                        and "coefficient l1 norm" in str(exc)):
                    raise


# as the shell passes them: extreme, invalid and omitted (None) values
SEEDS = st.one_of(st.none(), st.integers(-2**70, 2**70), st.sampled_from([-1, 0, 2**64 - 1, 2**64, 2**200]))
FD_TOLS = st.one_of(
    st.none(),
    st.sampled_from(["0", "-0.0", "-1.0", "-1e-300", "5e-324", "1e-300", "1e-15", "1e300", "inf", "-inf", "nan"]),
    st.floats(1e-300, 1e300).map(repr),
)


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["swap", "grad", "mc"]),
    seed=SEEDS,
    n_instances=st.one_of(st.none(), st.sampled_from([-2**63, -1, 0]), st.integers(1, 2)),
    fd_tol=FD_TOLS,
)
def test_every_validate_call_passes_fails_checks_or_is_a_config_error(kind, seed, n_instances, fd_tol):
    """validate at tiny sizes: exit 0, exit 3 (a failed check) or a ConfigError; no other outcome."""
    argv = ["validate", kind]
    for flag, value in (("--seed", seed), ("--n-instances", n_instances), ("--fd-tol", fd_tol)):
        if value is not None:
            argv += [flag, str(value)]
    if n_instances is None:
        # the default of 12 checks per suite is not tiny
        argv += ["--n-instances", "1"]
    with np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli.build_parser().parse_args(argv)
            assert args.func(args) in (0, 3)
        except ConfigError:
            pass
