import builtins
import csv
import errno
import json
import os
import shutil

import numpy as np
import pytest

from odlearn import cli, operator, regression
from odlearn.data import container, load_dataset
from odlearn.data.container import write_array
from odlearn.errors import OdlearnError
from odlearn.kernels import ScalarKernel


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def adv1_dir(tmp_path):
    out = tmp_path / "adv1"
    assert run(["generate", "advection1", "--train", "60", "--test", "20",
                "--grid", "40", "--seed", "3", "--out", str(out)]) == 0
    return out


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def small_gaussian_model(tmp_path):
    """A 40-sample advection dataset and a Gaussian-kernel model trained on it: (data, model) dirs."""
    data, model = tmp_path / "adv1", tmp_path / "model"
    assert run(["generate", "advection1", "--train", "40", "--test", "10", "--grid", "10",
                "--out", str(data)]) == 0
    cfg = write_config(tmp_path / "cfg.json", {
        "dataset": str(data), "kernel": {"family": "gaussian", "lengthscale": 2.0},
        "gamma": 1e-6, "output_dir": str(model),
    })
    assert run(["train", "--config", cfg]) == 0
    return data, model


def saved_gram_factor(model):
    """A saved model's Gram factor, read from its file, and the path of that file."""
    entry = json.loads((model / "manifest.json").read_text())["arrays"]["gram_factor"]
    return np.fromfile(model / entry["file"], dtype="<f8").reshape(entry["shape"]), model / entry["file"]


def malformed_ids(rows):
    """``which:key.path=type`` per row; a repeated id also gets the value, so
    adding a row never renames an existing case."""
    ids = []
    for which, path, value, _ in rows:
        base = f"{which}:{'.'.join(path) or 'manifest'}={type(value).__name__}"
        ids.append(f"{base}:{json.dumps(value, separators=(',', ':'))}" if base in ids else base)
    return ids


class TestGenerate:
    def test_writes_container(self, adv1_dir):
        names = {p.name for p in adv1_dir.iterdir()}
        assert {"manifest.json", "train_inputs.bin", "train_outputs.bin",
                "test_inputs.bin", "test_outputs.bin"} <= names

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "advection1", "--train", "8", "--test", "2",
                        "--grid", "16", "--seed", "5", "--out", str(out)]) == 0
        for name in ("train_inputs.bin", "test_outputs.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        rc = run(["generate", "helmholtz", "--train", "1", "--test", "1",
                  "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "advection1" in err and "darcy" in err

    @pytest.mark.parametrize("flag", ["--train", "--test"])
    def test_negative_count_exits_2_before_generating(self, tmp_path, capsys, monkeypatch, flag):
        monkeypatch.setitem(cli.GENERATORS, "darcy", None)  # never called
        counts = {"--train": "3", "--test": "5", flag: "-3"}
        out = tmp_path / "d"
        assert run(["generate", "darcy", *[a for kv in counts.items() for a in kv], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert flag.strip("-") in err and "Traceback" not in err
        assert not out.exists()

    def test_summary_output(self, tmp_path, capsys):
        assert run(["generate", "advection2", "--train", "4", "--test", "2",
                    "--grid", "20", "--seed", "1", "--out", str(tmp_path / "d")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["name"] == "advection2"
        assert summary["splits"] == {"train": 4, "test": 2}


class TestTrain:
    def test_linear_advection_interpolates(self, adv1_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "linear"},
            "gamma": 1e-12,
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "interpolation residual" in l][0]
        assert float(line.split(":")[1]) <= 1e-8
        assert (tmp_path / "model" / "manifest.json").is_file()
        assert (tmp_path / "model" / "resolved_config.json").is_file()

    def test_train_runs_no_inference(self, adv1_dir, tmp_path, capsys, monkeypatch):
        def no_predict(*args, **kwargs):
            raise AssertionError("odlearn train must not run the inference core")

        monkeypatch.setattr(cli.operator, "_predict", no_predict)
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "matern", "nu": 2.5, "lengthscale": 2.0},
            "gamma": 1e-8,
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        assert "interpolation residual" in capsys.readouterr().out

    def test_residual_and_norm_recorded_in_resolved_config(self, adv1_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "matern", "nu": 2.5, "lengthscale": 2.0},
            "gamma": 1e-3,
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        resolved = json.loads((tmp_path / "model" / "resolved_config.json").read_text())
        residual = [l for l in lines if "interpolation residual" in l][0]
        assert residual.count(":") == 1 and float(residual.split(":")[1]) > 0
        assert residual.endswith(f": {resolved['fit_residual']:.3e}")
        assert f"rkhs_norm_squared: {resolved['rkhs_norm_squared']:.6g}" in lines

    def test_config_read_before_any_data(self, tmp_path, capsys, monkeypatch):
        generated = []

        def no_generate(*args, **kwargs):
            generated.append(1)
            raise AssertionError("a usage error must come before any data is generated")

        monkeypatch.setitem(cli.GENERATORS, "darcy", no_generate)
        cfg = write_config(tmp_path / "cfg.json", {
            "generator": {"problem": "darcy", "train": 310, "test": 10, "seed": 42},
            "kernel": {"family": "linear"},
            "gamma": [1],
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 2
        assert "gamma" in capsys.readouterr().err
        assert generated == []

    # (config change, exit code, text the error must name); a None top-level
    # value drops that key. Training errors (fit, tune, prepare) stay exit 1.
    BAD_CONFIG = [
        ({"pca": {"enabled": True, "input_fraction": "0.9"}}, 2, "pca.input_fraction"),
        ({"kernel": ["linear"]}, 2, "kernel"),
        ({"gamma": [1]}, 2, "gamma"),
        ({"tuning": {"grid": [{"family": "linear"}], "folds": None}}, 2, "tuning.folds"),
        ({"tuning": {"grid": 5}}, 2, "tuning.grid"),
        ({"pca": True}, 2, "pca"),
        ({"dataset": 5}, 2, "dataset"),
        ({"kernel": ["linear"], "tuning": {"grid": [{"family": "linear"}]}}, 2, "kernel"),
        ({"nugget": 1e-6}, 2, "nugget"),
        ({"dataset": None, "generator": {"problem": "burgers", "t_final": 0.5}}, 2, "t_final"),
        ({"gamma": -1.0}, 1, "gamma"),
        ({"seed": "x"}, 2, "seed"),
        ({"tuning": {"grid": [{"family": "linear"}], "objetcive": "cv"}}, 2, "objetcive"),
        # counts are JSON integers >= 0 and numbers are not bools; each of these would coerce
        ({"dataset": None, "generator": {"problem": "advection1", "train": 20.9}}, 2, "generator.train"),
        ({"dataset": None, "generator": {"problem": "advection1", "test": True}}, 2, "generator.test"),
        ({"dataset": None, "generator": {"problem": "advection1", "grid": 16.0}}, 2, "generator.grid"),
        ({"dataset": None, "generator": {"problem": "advection1", "seed": 2.7}}, 2, "generator.seed"),
        ({"seed": 2.7}, 2, "seed"),
        ({"tuning": {"grid": [{"family": "linear"}], "objective": "cv", "folds": 2.5}}, 2, "tuning.folds"),
        ({"tuning": {"grid": [{"family": "linear"}], "seed": True}}, 2, "tuning.seed"),
        ({"gamma": True}, 2, "gamma"),
        ({"pca": {"enabled": True, "input_fraction": True}}, 2, "pca.input_fraction"),
        ({"pca": {"enabled": True, "output_fraction": True}}, 2, "pca.output_fraction"),
        ({"kernel": {"family": "gaussian", "lengthscale": True}}, 2, "kernel"),
        ({"kernel": {"family": "rq", "lengthscale": 1.0, "alpha": True, "output_scale": True}}, 2, "kernel"),
        # pca.enabled is a JSON bool: "no" would read as true and 0 as false
        ({"pca": {"enabled": "no", "input_fraction": 0.9}}, 2, "pca.enabled"),
        ({"pca": {"enabled": 1, "input_fraction": 0.9}}, 2, "pca.enabled"),
    ]

    @pytest.mark.parametrize("change,code,named", BAD_CONFIG,
                             ids=[f"{i}-{row[2]}" for i, row in enumerate(BAD_CONFIG)])
    def test_bad_config_value_named(self, adv1_dir, tmp_path, capsys, change, code, named):
        cfg = {
            "dataset": str(adv1_dir),
            "kernel": {"family": "linear"},
            "gamma": 1e-12,
            "output_dir": str(tmp_path / "model"),
            **change,
        }
        path = write_config(tmp_path / "cfg.json", {k: v for k, v in cfg.items() if v is not None})
        assert run(["train", "--config", path]) == code
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    # grid entries that cannot be parsed, alone or merged with the config kernel
    BAD_ENTRIES = [
        ({"family": "bogus"}, None),
        (["linear"], None),
        ({"family": "matern", "lengthscale": 1.0}, None),
        ({"lengthscale": 1.0}, {"family": "matern", "nu": 2.0}),
        ({"family": "linear", "colour": 1}, None),
        ({"family": "linear", "gamma": "x"}, None),
        ({"family": "linear", "gamma": -1.0}, None),
        ({"family": "linear"}, None),  # the entry takes the config gamma, here -1
        ({"family": "linear", "gamma": True}, None),
        ({"family": "gaussian", "lengthscale": True}, None),
        ({"lengthscale": 1.0, "alpha": True}, {"family": "rq"}),
    ]

    @pytest.mark.parametrize("source", ["generator", "dataset"])
    @pytest.mark.parametrize("entry,kernel", BAD_ENTRIES, ids=[str(i) for i in range(len(BAD_ENTRIES))])
    def test_malformed_tuning_entry_exits_2_before_data(self, tmp_path, capsys, monkeypatch, source, entry, kernel):
        def no_data(*args, **kwargs):
            raise AssertionError("a malformed entry must be reported before any data is read")

        monkeypatch.setitem(cli.GENERATORS, "darcy", no_data)
        monkeypatch.setattr(cli, "load_dataset", no_data)
        cfg = {
            "tuning": {"grid": [{"family": "linear", "gamma": 1e-8}, entry]},
            "output_dir": str(tmp_path / "model"),
            "gamma": -1.0 if entry == {"family": "linear"} else 1e-8,
        }
        if kernel is not None:
            cfg["kernel"] = kernel
        if source == "generator":
            cfg["generator"] = {"problem": "darcy", "train": 310, "test": 10, "seed": 42}
        else:
            cfg["dataset"] = str(tmp_path)
        assert run(["train", "--config", write_config(tmp_path / "cfg.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert "tuning" in err and "Traceback" not in err
        assert not (tmp_path / "model").exists()

    def test_entry_without_gamma_scored_and_fitted_at_config_gamma(self, tmp_path):
        data = tmp_path / "adv1"
        assert run(["generate", "advection1", "--train", "40", "--test", "10", "--seed", "1",
                    "--out", str(data)]) == 0
        grid = [{"family": "matern", "nu": 2.5, "lengthscale": l} for l in (3.0, 6.0)]
        grid.append({"family": "matern", "nu": 2.5, "lengthscale": 4.0, "gamma": 1e-6})
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(data),
            "gamma": 1e-3,
            "tuning": {"objective": "lml", "grid": grid},
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        ds = load_dataset(data)
        feats = operator.prepare_features(ds.input_grid, ds.output_grid, ds.train_inputs, ds.train_outputs)
        resolved = json.loads((tmp_path / "model" / "resolved_config.json").read_text())
        for entry, row in zip(grid, resolved["tuning_report"]):
            gamma = entry.get("gamma", 1e-3)
            assert row["params"] == {**entry, "gamma": gamma}
            lml = regression.log_marginal_likelihood(
                ScalarKernel.matern(nu=2.5, lengthscale=entry["lengthscale"]), feats.features, feats.targets, gamma
            )
            assert row["objective"] == pytest.approx(lml, rel=1e-10)
        best = max(resolved["tuning_report"], key=lambda row: row["objective"])
        assert resolved["gamma"] == best["params"]["gamma"]
        assert resolved["kernel"]["lengthscale"] == best["params"]["lengthscale"]
        assert json.loads((tmp_path / "model" / "manifest.json").read_text())["gamma"] == resolved["gamma"]

    def test_kernel_spec_fills_tuning_entries(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "matern", "nu": 1.5, "lengthscale": 100.0},
            "gamma": 1e-8,
            "tuning": {"grid": [{"lengthscale": 2.0}, {"lengthscale": 5.0, "nu": 2.5}]},
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        resolved = json.loads((tmp_path / "model" / "resolved_config.json").read_text())
        params = [row["params"] for row in resolved["tuning_report"]]
        assert params == [
            {"family": "matern", "nu": 1.5, "lengthscale": 2.0, "gamma": 1e-8},
            {"family": "matern", "nu": 2.5, "lengthscale": 5.0, "gamma": 1e-8},
        ]
        assert {k: resolved["kernel"][k] for k in ("family", "nu", "lengthscale")} in [
            {k: p[k] for k in ("family", "nu", "lengthscale")} for p in params
        ]

    @pytest.mark.parametrize("key", ["train", "test"])
    def test_negative_generator_count_exits_2_before_generating(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.setitem(cli.GENERATORS, "darcy", None)  # never called
        cfg = write_config(tmp_path / "cfg.json", {
            "generator": {"problem": "darcy", "train": 3, "test": 5, key: -3},
            "kernel": {"family": "linear"},
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [b'{"kernel": "\xff"}', b'{"kernel": '], ids=["not-utf-8", "not-json"])
    def test_unreadable_config_named_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert run(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: config is not valid UTF-8 JSON: " in err and "Traceback" not in err

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {
            "kernel": {"family": "linear"},
            "output_dir": str(tmp_path / "m"),
        })
        assert run(["train", "--config", cfg]) == 2
        assert "dataset" in capsys.readouterr().err

    def test_both_dataset_and_generator_exits_2(self, tmp_path, adv1_dir):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "generator": {"problem": "advection1", "train": 2, "test": 1},
            "kernel": {"family": "linear"},
            "output_dir": str(tmp_path / "m"),
        })
        assert run(["train", "--config", cfg]) == 2

    def test_tuning_grid_logged_and_selected(self, adv1_dir, tmp_path, caplog):
        grid = [
            {"family": "matern", "nu": 2.5, "lengthscale": l, "gamma": 1e-8}
            for l in (0.5, 5.0, 50.0)
        ]
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "tuning": {"objective": "lml", "grid": grid},
            "output_dir": str(tmp_path / "model"),
        })
        import logging

        with caplog.at_level(logging.INFO, logger="odlearn"):
            assert run(["train", "--config", cfg]) == 0
        tuning_lines = [r.message for r in caplog.records if r.message.startswith("tuning")]
        assert len(tuning_lines) == 4  # three entries + the selection line
        resolved = json.loads((tmp_path / "model" / "resolved_config.json").read_text())
        assert len(resolved["tuning_report"]) == 3

    def test_env_var_dataset_root(self, adv1_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("ODL_DATA_DIR", str(adv1_dir.parent))
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": adv1_dir.name,
            "kernel": {"family": "linear"},
            "gamma": 1e-12,
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0

    def test_flag_overrides_win(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "linear"},
            "gamma": 123.0,
            "output_dir": str(tmp_path / "ignored"),
        })
        assert run(["train", "--config", cfg, "--gamma", "1e-12",
                    "--out", str(tmp_path / "model")]) == 0
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        assert manifest["gamma"] == 1e-12


class TestEval:
    @pytest.fixture()
    def trained(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "linear"},
            "gamma": 1e-12,
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        return tmp_path / "model"

    def test_training_split_interpolation(self, trained, adv1_dir, tmp_path):
        report = tmp_path / "r.json"
        assert run(["eval", str(trained), str(adv1_dir),
                    "--split", "train", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["mean_relative_l2"] <= 1e-6
        assert data["report_version"] == 1
        assert "dataset_manifest_sha256" in data
        assert report.with_suffix(".csv").is_file()

    def test_flops_matches_closed_form(self, trained, adv1_dir, tmp_path):
        report = tmp_path / "r.json"
        assert run(["eval", str(trained), str(adv1_dir),
                    "--report", str(report), "--flops"]) == 0
        data = json.loads(report.read_text())
        N, n, m, q = 60, 40, 40, 40
        expected = N * 3 * n + m * (2 * N - 1) + q * (2 * m - 1)
        assert data["flops"]["per_query_flops"] == expected
        assert data["flops"]["served_flops"] == N * 3 * n + m * (2 * N - 1)
        row = next(csv.DictReader(report.with_suffix(".csv").open()))
        assert int(row["flops_per_query"]) == expected
        assert row["dataset"] == "advection1"

    def test_eval_then_serving_builds_the_fold_once(self, trained, adv1_dir, monkeypatch):
        # serving loads the bytes eval loaded, so it gets eval's model, grid parts built
        solves = []
        real = operator.on_grid_weights
        monkeypatch.setattr(operator, "on_grid_weights", lambda *a: solves.append(1) or real(*a))
        assert run(["eval", str(trained), str(adv1_dir), "--with-uq"]) == 0
        built = len(solves)
        model, ds = operator.load_model(trained), load_dataset(adv1_dir)
        assert {"_grid_mean", "_grid_norms"} <= vars(model).keys()
        u = operator.FunctionSamples(ds.input_grid, ds.test_inputs[0])
        operator.apply_batch(model, ds.test_inputs, ds.output_grid)
        operator.apply(model, u, ds.output_grid)
        operator.apply_with_uq(model, u, ds.output_grid)
        assert built > 0 and len(solves) == built

    def test_with_uq_small_on_training_inputs(self, tmp_path):
        # gamma = 0 keeps the conditional variance at the training inputs at
        # the double-precision floor
        data_dir = tmp_path / "adv1"
        assert run(["generate", "advection1", "--train", "30", "--test", "5",
                    "--grid", "40", "--seed", "4", "--out", str(data_dir)]) == 0
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(data_dir),
            "kernel": {"family": "matern", "nu": 2.5, "lengthscale": 2.0},
            "gamma": 0.0,
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        report = tmp_path / "r.json"
        assert run(["eval", str(tmp_path / "model"), str(data_dir), "--split", "train",
                    "--report", str(report), "--with-uq"]) == 0
        data = json.loads(report.read_text())
        assert data["uq"]["max_std"] <= 1e-7

    def test_preproc_label_follows_the_measurement_operators(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "matern", "nu": 2.5, "lengthscale": 5.0},
            "gamma": 1e-8,
            "preconditioner": "cholesky",
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        manifest = json.loads((tmp_path / "model" / "manifest.json").read_text())
        assert "preconditioner" not in manifest  # eval reads the L arrays
        report = tmp_path / "r.json"
        assert run(["eval", str(tmp_path / "model"), str(adv1_dir), "--report", str(report)]) == 0
        assert next(csv.DictReader(report.with_suffix(".csv").open()))["preproc"] == "cholesky"

    def test_shape_mismatch_exits_1(self, trained, tmp_path, capsys):
        other = tmp_path / "other"
        assert run(["generate", "advection1", "--train", "4", "--test", "2",
                    "--grid", "20", "--seed", "1", "--out", str(other)]) == 0
        assert run(["eval", str(trained), str(other)]) == 1
        assert "grid" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, trained, tmp_path):
        assert run(["eval", str(trained), str(tmp_path / "nope")]) == 2

    def test_empty_split_named_exits_1(self, trained, tmp_path, capsys):
        data = tmp_path / "no_test"
        assert run(["generate", "advection1", "--train", "4", "--test", "0",
                    "--grid", "40", "--seed", "3", "--out", str(data)]) == 0
        with pytest.raises(OdlearnError, match="^dataset 'advection1' has no test samples to evaluate$"):
            cli.evaluate_model(operator.load_model(trained), load_dataset(data))
        capsys.readouterr()
        assert run(["eval", str(trained), str(data), "--with-uq"]) == 1
        err = capsys.readouterr().err
        assert err == "error: dataset 'advection1' has no test samples to evaluate\n"

    def test_missing_manifest_key_exits_1(self, trained, adv1_dir, capsys):
        path = trained / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["arrays"]["coefficients"]
        path.write_text(json.dumps(manifest))
        assert run(["eval", str(trained), str(adv1_dir)]) == 1
        err = capsys.readouterr().err
        assert "coefficients" in err and "manifest.json" in err
        assert "Traceback" not in err

    def test_binary_outside_model_exits_1(self, trained, adv1_dir, tmp_path, capsys):
        other = tmp_path / "other"
        shutil.copytree(trained, other)
        path = trained / "manifest.json"
        manifest = json.loads(path.read_text())
        (trained / "coefficients.bin").unlink()
        manifest["arrays"]["coefficients"]["file"] = str(other / "coefficients.bin")
        path.write_text(json.dumps(manifest))
        assert run(["eval", str(trained), str(adv1_dir)]) == 1
        err = capsys.readouterr().err
        assert "arrays.coefficients" in err and "bare file name" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["model", "dataset"])
    def test_unparseable_manifest_exits_1(self, trained, adv1_dir, capsys, which):
        target = (trained if which == "model" else adv1_dir) / "manifest.json"
        target.write_text("{not json")
        assert run(["eval", str(trained), str(adv1_dir)]) == 1
        err = capsys.readouterr().err
        assert str(target) in err
        assert "Traceback" not in err

    def test_malformed_resolved_config_named_exits_1(self, trained, adv1_dir, capsys):
        path = trained / "resolved_config.json"
        path.write_text('{"kernel": }')
        assert run(["eval", str(trained), str(adv1_dir)]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: malformed JSON (Expecting value: line 1 column 12" in err and "Traceback" not in err

    @pytest.fixture()
    def trained_pca(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "matern", "nu": 2.5, "lengthscale": 5.0},
            "gamma": 1e-8,
            "pca": {"enabled": True, "input_fraction": 0.99},
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        return tmp_path / "model"

    # (which manifest, key path to overwrite (empty: the whole manifest), new value,
    #  text the error must contain)
    MALFORMED = [
        ("model", ("arrays", "coefficients"), 5, "arrays.coefficients"),
        ("model", ("arrays", "coefficients", "shape"), "wide", "arrays.coefficients"),
        ("model", ("arrays", "coefficients", "shape"), [None], "arrays.coefficients"),
        ("model", ("arrays", "coefficients", "file"), 3, "arrays.coefficients"),
        ("model", ("arrays", "coefficients", "file"), "../model/coefficients.bin", "arrays.coefficients"),
        ("model", ("pca_input", "file"), "sub/pca_input.bin", "pca_input"),
        ("model", ("arrays",), [1, 2], "manifest.json"),
        ("model", ("pca_input",), 5, "pca_input"),
        ("model", ("pca_input", "k"), "many", "pca_input"),
        ("model", ("pca_input", "singular_values"), "abc", "pca_input"),
        # counts must be JSON integers >= 0; these would coerce to the true values
        ("model", ("arrays", "coefficients", "shape"), [60.0, 40], "arrays.coefficients"),
        ("model", ("arrays", "coefficients", "shape"), ["60", "40"], "arrays.coefficients"),
        ("model", ("arrays", "coefficients", "shape"), [60, True], "arrays.coefficients"),
        ("model", ("pca_input", "dim"), 40.0, "pca_input"),
        ("model", ("pca_input", "k"), "25", "pca_input"),
        ("model", ("pca_input", "k"), True, "pca_input"),
        ("model", ("s_kernel",), 5, "manifest.json"),
        ("model", ("input_nugget",), "small", "manifest.json"),
        ("model", (), [1, 2], "manifest.json"),
        ("model", ("gamma",), "1e-08", "gamma"),
        ("model", ("gamma",), -1.0, "gamma"),
        ("model", ("gamma",), float("nan"), "gamma"),
        ("model", ("gamma",), None, "gamma"),
        ("dataset", ("grids", "input"), 5, "grids.input"),
        ("dataset", ("grids", "output", "points"), "abc", "grids.output"),
        ("dataset", ("grids", "output", "shape"), 7, "grids.output"),
        ("dataset", ("grids", "input", "kind"), "bogus", "grids.input"),
        ("dataset", ("grids", "output", "shape"), [3, 1], "grids.output"),
        ("dataset", ("grids", "input", "points"), [[0.0]] * 39 + [[float("nan")]], "grids.input"),
        ("dataset", ("splits", "test"), "many", "splits.test"),
        ("dataset", ("splits", "train"), [60], "splits.train"),
        ("dataset", ("splits", "test"), 20.0, "splits.test"),
        ("dataset", ("splits", "test"), 20.7, "splits.test"),
        ("dataset", ("splits", "test"), "20", "splits.test"),
        ("dataset", ("splits", "train"), True, "splits.train"),
        ("dataset", ("splits",), [1, 2], "splits"),
        ("dataset", (), 5, "manifest.json"),
    ]

    @pytest.mark.parametrize("which,path,value,named", MALFORMED, ids=malformed_ids(MALFORMED))
    def test_malformed_manifest_exits_1(self, trained_pca, adv1_dir, capsys, which, path, value, named):
        target = (trained_pca if which == "model" else adv1_dir) / "manifest.json"
        manifest = json.loads(target.read_text())
        if path:
            node = manifest
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        else:
            manifest = value
        target.write_text(json.dumps(manifest))
        assert run(["eval", str(trained_pca), str(adv1_dir)]) == 1
        err = capsys.readouterr().err
        assert named in err and "manifest.json" in err
        assert "Traceback" not in err

    # (array, rows and columns kept); each leaves the model's arrays inconsistent
    SHRUNK = [("gram_factor", (39, 39)), ("gram_factor", (40, 39)), ("coefficients", (39, None)),
              ("train_features", (39, None))]

    @pytest.mark.parametrize("with_uq", [False, True], ids=["plain", "uq"])
    @pytest.mark.parametrize("name,keep", SHRUNK, ids=[f"{n}{k}" for n, k in SHRUNK])
    def test_inconsistent_regressor_arrays_exit_1(self, tmp_path, capsys, name, keep, with_uq):
        data, model = small_gaussian_model(tmp_path)
        manifest = json.loads((model / "manifest.json").read_text())
        entry = manifest["arrays"][name]
        arr = np.fromfile(model / entry["file"], dtype="<f8").reshape(entry["shape"])
        arr = np.ascontiguousarray(arr[: keep[0], : keep[1]])
        arr.tofile(model / entry["file"])
        entry["shape"] = list(arr.shape)
        (model / "manifest.json").write_text(json.dumps(manifest))
        assert run(["eval", str(model), str(data)] + (["--with-uq"] if with_uq else [])) == 1
        err = capsys.readouterr().err
        assert "manifest.json" in err and "(N, N)" in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [np.nan, 1e300], ids=["nan", "overflow"])
    def test_corrupt_gram_factor_fails_uq_eval(self, tmp_path, capsys, value):
        data, model = small_gaussian_model(tmp_path)
        arr, path = saved_gram_factor(model)
        arr[7, 2] = value
        arr.tofile(path)
        assert run(["eval", str(model), str(data), "--with-uq"]) == 1
        err = capsys.readouterr().err
        assert "regressor's Gram factor is corrupt" in err and "Traceback" not in err

    @pytest.mark.parametrize("with_uq", [False, True], ids=["plain", "uq"])
    def test_wrong_finite_gram_factor_fails_load(self, tmp_path, capsys, with_uq):
        # finite, so no solve sees it: before the factor check, eval --with-uq reported std 0
        data, model = small_gaussian_model(tmp_path)
        arr, path = saved_gram_factor(model)
        arr[0, 0] = 1e300
        arr.tofile(path)
        assert run(["eval", str(model), str(data)] + (["--with-uq"] if with_uq else [])) == 1
        err = capsys.readouterr().err
        assert "gram_factor" in err and "Gram factor is corrupt" in err and "Traceback" not in err

    @pytest.mark.parametrize("with_uq", [False, True], ids=["plain", "uq"])
    def test_singular_gram_factor_fails_load(self, tmp_path, capsys, with_uq):
        # row 5 keeps its sum of squares with its mass moved to column 0, so only its zero
        # pivot is wrong: before the pivot check plain eval served the model, and eval
        # --with-uq failed in the solve with a message that named no file
        data, model = small_gaussian_model(tmp_path)
        arr, path = saved_gram_factor(model)
        arr[5, 0], arr[5, 1:6] = np.linalg.norm(arr[5, :6]), 0.0
        arr.tofile(path)
        assert run(["eval", str(model), str(data)] + (["--with-uq"] if with_uq else [])) == 1
        err = capsys.readouterr().err
        assert "gram_factor.bin" in err and "diagonal entry 5 is 0.0" in err and "Traceback" not in err

    @pytest.fixture()
    def trained_chol_pca(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir),
            "kernel": {"family": "matern", "nu": 2.5, "lengthscale": 5.0},
            "gamma": 1e-8,
            "preconditioner": "cholesky",
            "pca": {"enabled": True, "input_fraction": 0.99, "output_fraction": 0.99},
            "output_dir": str(tmp_path / "model"),
        })
        assert run(["train", "--config", cfg]) == 0
        return tmp_path / "model"

    def test_eval_serves_a_mapped_model(self, trained_chol_pca, adv1_dir, tmp_path):
        report = tmp_path / "r.json"
        assert run(["eval", str(trained_chol_pca), str(adv1_dir), "--with-uq", "--flops",
                    "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert np.isfinite(data["mean_relative_l2"]) and data["uq"]["max_std"] > 0
        assert data["flops"]["per_query_flops"] > 0

    @pytest.mark.parametrize("with_uq", [False, True], ids=["plain", "uq"])
    @pytest.mark.parametrize("name", ["train_features.bin", "coefficients.bin", "l_input.bin", "pca_input.bin"])
    def test_non_finite_model_array_fails_eval(self, trained_chol_pca, adv1_dir, capsys, name, with_uq):
        path = trained_chol_pca / name
        arr = np.fromfile(path, dtype="<f8")
        arr[3] = np.nan
        write_array(trained_chol_pca, name, arr)
        assert run(["eval", str(trained_chol_pca), str(adv1_dir)] + (["--with-uq"] if with_uq else [])) == 1
        err = capsys.readouterr().err
        assert f"{path}: non-finite value nan at flat index 3" in err and "Traceback" not in err

    def test_output_preconditioner_not_the_maps_root_fails_serving(self, trained_chol_pca, adv1_dir, capsys):
        # one entry of the output L scaled by 1.5: finite, so the load takes it, but
        # recovering through it is no longer recovering through the map's own root
        path = trained_chol_pca / "l_output.bin"
        L = np.fromfile(path, dtype="<f8")
        L[3] *= 1.5
        tmp = path.with_name(".l_output.bin.tmp")
        L.tofile(tmp)
        os.replace(tmp, path)
        model, ds = operator.load_model(trained_chol_pca), load_dataset(adv1_dir)
        u, g = operator.FunctionSamples(ds.input_grid, ds.test_inputs[0]), ds.output_grid
        for q in (g, g + 0.25 * (g[1] - g[0])):
            with pytest.raises(ValueError, match=r"^preconditioner is not the root .* > 1\.000e-08$"):
                operator.apply(model, u, q)
        assert run(["eval", str(trained_chol_pca), str(adv1_dir)]) == 1
        err = capsys.readouterr().err
        assert "preconditioner is not the root" in err and "Traceback" not in err

    def test_determinism_across_runs(self, adv1_dir, tmp_path):
        reports = []
        for tag in ("one", "two"):
            cfg = write_config(tmp_path / f"cfg_{tag}.json", {
                "dataset": str(adv1_dir),
                "kernel": {"family": "linear"},
                "gamma": 1e-12,
                "output_dir": str(tmp_path / f"model_{tag}"),
            })
            assert run(["train", "--config", cfg]) == 0
            rp = tmp_path / f"r_{tag}.json"
            assert run(["eval", str(tmp_path / f"model_{tag}"), str(adv1_dir),
                        "--report", str(rp)]) == 0
            reports.append(json.loads(rp.read_text()))
        assert reports[0]["mean_relative_l2"] == reports[1]["mean_relative_l2"]
        assert reports[0]["per_sample_relative_l2"] == reports[1]["per_sample_relative_l2"]


class TestAtomicWrites:
    """The configs, reports and CSVs the CLI writes replace their files, never rewrite them."""

    @pytest.fixture()
    def commands(self, adv1_dir, tmp_path):
        """train, eval and sweep argv, and the four files they write."""
        model, report = tmp_path / "model", tmp_path / "r.json"
        cfg = write_config(tmp_path / "cfg.json", {
            "dataset": str(adv1_dir), "kernel": {"family": "linear"}, "gamma": 1e-12, "output_dir": str(model),
        })
        sweep = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir), "output_dir": str(tmp_path / "sweep"),
            "variants": [{"label": "linear", "kernel": {"family": "linear"}, "gamma": 1e-12}],
        })
        argvs = [["train", "--config", cfg], ["eval", str(model), str(adv1_dir), "--report", str(report)],
                 ["sweep", "--config", sweep]]
        files = [model / "resolved_config.json", report, report.with_suffix(".csv"), tmp_path / "sweep" / "sweep.csv"]
        for argv in argvs:
            assert run(argv) == 0
        return argvs, files

    def test_each_write_gives_its_file_a_new_inode(self, commands):
        argvs, files = commands
        held = [f.open("rb") for f in files]  # alive, so no old inode is reused
        try:
            old = [(os.fstat(fh.fileno()).st_ino, fh.read()) for fh in held]
            for argv in argvs:
                assert run(argv) == 0
            for f, fh, (inode, data) in zip(files, held, old):
                assert f.stat().st_ino != inode, f.name
                fh.seek(0)
                assert fh.read() == data, f.name
        finally:
            for fh in held:
                fh.close()
        assert [p for f in files for p in f.parent.glob(".*.tmp")] == []

    def test_write_failing_halfway_leaves_the_old_report(self, commands, monkeypatch, capsys):
        argvs, files = commands
        report, table = files[1:3]
        old = {f: f.read_bytes() for f in (report, table)}
        names = sorted(p.name for p in report.parent.iterdir())

        class HalfFull:  # the disk fills halfway through every write
            def __init__(self, path, mode):
                self.fh = builtins.open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(container, "open", HalfFull, raising=False)
        assert run(argvs[1] + ["--with-uq"]) == 1  # a longer report than the old one
        assert "No space left on device" in capsys.readouterr().err
        assert {f: f.read_bytes() for f in (report, table)} == old
        assert sorted(p.name for p in report.parent.iterdir()) == names


class TestSweep:
    def test_two_variants_linear_wins(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [
                {"label": "linear", "kernel": {"family": "linear"}, "gamma": 1e-12},
                {"label": "matern", "kernel": {"family": "matern", "nu": 2.5, "lengthscale": 3.0},
                 "gamma": 1e-8},
            ],
        })
        assert run(["sweep", "--config", cfg]) == 0
        rows = list(csv.DictReader((tmp_path / "sweep" / "sweep.csv").open()))
        assert len(rows) == 2
        by_label = {r["label"]: r for r in rows}
        assert all(r["status"] == "ok" for r in rows)
        assert float(by_label["linear"]["mean_rel_l2"]) < float(by_label["matern"]["mean_rel_l2"])

    def test_empty_variants_exit_2(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [],
        })
        assert run(["sweep", "--config", cfg]) == 2

    def test_failing_variant_isolated(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [
                {"label": "bad", "kernel": {"family": "spline", "lengthscale": 1.0}},
                {"label": "good", "kernel": {"family": "linear"}, "gamma": 1e-12},
            ],
        })
        assert run(["sweep", "--config", cfg]) == 0
        rows = {r["label"]: r for r in csv.DictReader((tmp_path / "sweep" / "sweep.csv").open())}
        assert rows["bad"]["status"] == "error" and rows["bad"]["detail"]
        assert rows["good"]["status"] == "ok"

    def test_variant_config_read_before_loading_data(self, adv1_dir, tmp_path, monkeypatch):
        loaded = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a: loaded.append(1))
        row = cli._run_variant({
            "label": "bad",
            "variant": {"kernel": {"family": "linear"}, "gamma": [1]},
            "dataset_path": str(adv1_dir),
            "out_dir": str(tmp_path / "sweep"),
        })
        assert row["status"] == "error" and "gamma" in row["detail"]
        assert loaded == []

    @pytest.mark.parametrize("jobs,n_variants,pools", [(500, 2, [2]), (2, 3, [2]), (8, 1, []), (1, 2, [])])
    def test_jobs_capped_at_variant_count(self, adv1_dir, tmp_path, monkeypatch, jobs, n_variants, pools):
        started = []

        class SerialPool:
            """Records max_workers and maps in this process; starts no worker."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [{"label": f"v{i}", "kernel": {"family": "linear"}, "gamma": 1e-12}
                         for i in range(n_variants)],
        })
        assert run(["sweep", "--config", cfg, "--jobs", str(jobs)]) == 0
        assert started == pools
        rows = list(csv.DictReader((tmp_path / "sweep" / "sweep.csv").open()))
        assert [r["status"] for r in rows] == ["ok"] * n_variants

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_exit_2(self, adv1_dir, tmp_path, capsys, monkeypatch, jobs):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)  # never reached
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [{"label": "linear", "kernel": {"family": "linear"}, "gamma": 1e-12}],
        })
        assert run(["sweep", "--config", cfg, "--jobs", str(jobs)]) == 2
        err = capsys.readouterr().err
        assert "--jobs" in err and "Traceback" not in err
        assert not (tmp_path / "sweep").exists()

    def test_all_failing_exits_1(self, adv1_dir, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [{"label": "bad", "kernel": {"family": "nope"}}],
        })
        assert run(["sweep", "--config", cfg]) == 1

    @pytest.mark.parametrize("change,named", [
        ({"variants": 5}, "variants"),
        ({"variants": [["linear"]]}, "variants"),
        ({"output_dir": 5}, "output_dir"),
    ], ids=["variants=int", "variant=list", "output_dir=int"])
    def test_bad_config_value_named(self, adv1_dir, tmp_path, capsys, change, named):
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [{"kernel": {"family": "linear"}, "gamma": 1e-12}],
            **change,
        })
        assert run(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    # (config change, text the error must contain); a None value drops that key
    BAD_SWEEP = [
        ({"seed": "x"}, "seed"),
        ({"varients": []}, "varients"),
        ({"generator": {"problem": "darcy", "train": 30, "test": 10}}, "exactly one"),
        ({"dataset": None}, "exactly one"),
        ({"dataset": None, "generator": {"problem": "darcy", "train": -3}}, "train"),
        ({"dataset": None, "generator": {"problem": "darcy", "t_final": 1}}, "t_final"),
        ({"dataset": None, "generator": {"problem": "helmholtz"}}, "helmholtz"),
        # a label names the variant's directory: a bare file name, unique in the sweep
        ({"variants": [{"label": "a", "kernel": {"family": "linear"}},
                       {"label": "a", "kernel": {"family": "gaussian", "lengthscale": 2.0}}]}, "variants"),
        ({"variants": [{"label": "../../escaped", "kernel": {"family": "linear"}}]}, "variants"),
    ]

    @pytest.mark.parametrize("change,named", BAD_SWEEP, ids=[row[1] + f"-{i}" for i, row in enumerate(BAD_SWEEP)])
    def test_bad_config_exits_2_before_output_dir(self, adv1_dir, tmp_path, capsys, monkeypatch, change, named):
        def no_data(*args, **kwargs):
            raise AssertionError("a sweep config error must come before any data is read")

        monkeypatch.setitem(cli.GENERATORS, "darcy", no_data)
        monkeypatch.setattr(cli, "load_dataset", no_data)
        cfg = {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [{"label": "linear", "kernel": {"family": "linear"}, "gamma": 1e-12}],
            **change,
        }
        path = write_config(tmp_path / "sweep.json", {k: v for k, v in cfg.items() if v is not None})
        assert run(["sweep", "--config", path]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "sweep").exists() and not (tmp_path / "escaped").exists()

    @pytest.mark.parametrize("key,value", [
        ("output_dir", "elsewhere"),
        ("dataset", "other"),
        ("generator", {"problem": "advection1"}),
    ])
    def test_variant_setting_sweep_key_is_error_row(self, adv1_dir, tmp_path, key, value):
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [
                {"label": "bad", "kernel": {"family": "linear"}, "gamma": 1e-12, key: value},
                {"label": "good", "kernel": {"family": "linear"}, "gamma": 1e-12},
            ],
        })
        assert run(["sweep", "--config", cfg]) == 0
        rows = {r["label"]: r for r in csv.DictReader((tmp_path / "sweep" / "sweep.csv").open())}
        assert rows["bad"]["status"] == "error" and key in rows["bad"]["detail"]
        assert rows["good"]["status"] == "ok"
        assert not (tmp_path / "sweep" / "variants" / "bad").exists()

    def test_variant_directory_matches_train(self, adv1_dir, tmp_path):
        variant = {"kernel": {"family": "gaussian", "lengthscale": 3.0}, "gamma": 1e-8, "seed": 4}
        cfg = write_config(tmp_path / "sweep.json", {
            "dataset": str(adv1_dir),
            "output_dir": str(tmp_path / "sweep"),
            "variants": [{"label": "g", **variant}],
        })
        assert run(["sweep", "--config", cfg]) == 0
        train_cfg = write_config(tmp_path / "train.json", {
            "dataset": str(adv1_dir), "output_dir": str(tmp_path / "model"), **variant,
        })
        assert run(["train", "--config", train_cfg]) == 0
        swept = tmp_path / "sweep" / "variants" / "g"
        for f in (tmp_path / "model").iterdir():
            assert f.read_bytes() == (swept / f.name).read_bytes(), f.name
        assert {f.name for f in swept.iterdir()} == {f.name for f in (tmp_path / "model").iterdir()}
        assert "resolved_config.json" in {f.name for f in swept.iterdir()}

    def test_generator_spec_and_jobs(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", {
            "generator": {"problem": "advection1", "train": 30, "test": 10, "grid": 16, "seed": 2},
            "output_dir": str(tmp_path / "sweep"),
            "variants": [
                {"label": "a", "kernel": {"family": "linear"}, "gamma": 1e-12},
                {"label": "b", "kernel": {"family": "gaussian", "lengthscale": 2.0}, "gamma": 1e-8},
            ],
        })
        assert run(["sweep", "--config", cfg, "--jobs", "2"]) == 0
        rows = list(csv.DictReader((tmp_path / "sweep" / "sweep.csv").open()))
        assert len(rows) == 2 and all(r["status"] == "ok" for r in rows)
        # a generator spec names the dataset `odlearn generate` writes for the same arguments
        gen = tmp_path / "gen"
        assert run(["generate", "advection1", "--train", "30", "--test", "10",
                    "--grid", "16", "--seed", "2", "--out", str(gen)]) == 0
        for f in gen.iterdir():
            assert f.read_bytes() == (tmp_path / "sweep" / "dataset" / f.name).read_bytes(), f.name


class TestExitCodes:
    def test_no_command_exits_2(self):
        assert run([]) == 2

    def test_bad_config_path_exits_2(self, capsys):
        assert run(["train", "--config", "/nonexistent/cfg.json"]) == 2
