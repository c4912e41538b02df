"""Command-line benchmark harness.

Subcommands:

    generate  write a synthetic dataset directory (advection1 | advection2 |
              burgers | darcy)
    train     fit (optionally tune) an operator from a JSON config and persist
              the model directory
    eval      evaluate a model on a dataset split; JSON + CSV reports, with
              optional predictive-std and FLOPs sections
    sweep     train+eval a list of variants and emit a cost-accuracy CSV

Config is a single JSON file; command-line flags override config values. An
unknown key or a value of the wrong type is a usage error naming the key.
Exit codes: 0 success, 1 runtime/numerical failure, 2 usage error. The
environment variable ODL_DATA_DIR provides a default root for relative
dataset paths.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import metrics, operator, regression
from .data import GENERATORS, Dataset, load_dataset, manifest_sha256, save_dataset
from .errors import OdlearnError, UsageError
from .kernels import ScalarKernel
from .recovery import recovery_weights  # noqa: F401 - traced by bench/spans.py

log = logging.getLogger("odlearn")

REPORT_VERSION = 1


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def resolve_dataset_path(path_str: str) -> Path:
    """Resolve a dataset directory, falling back to $ODL_DATA_DIR for relative
    paths; a directory found in neither place is a UsageError."""
    path = Path(path_str)
    if path.is_dir():
        return path
    root = os.environ.get("ODL_DATA_DIR")
    if root and not path.is_absolute():
        candidate = Path(root) / path
        if candidate.is_dir():
            return candidate
    raise UsageError(f"dataset directory not found: {path_str}")


def load_config(path_str: str) -> dict:
    path = Path(path_str)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


@contextmanager
def config_key(key: str):
    """Report a config value of the wrong type or form as a UsageError naming
    the key, as ``manifest_keys`` does for a manifest."""
    try:
        yield
    except (TypeError, ValueError, AttributeError, KeyError) as exc:
        raise UsageError(f"config key {key}: malformed value ({exc})") from exc


def config_value(cfg: dict, key: str, default=None, convert=None):
    """The value at the dotted ``key``, through ``convert`` when given, or
    ``default`` when the key is absent; read inside ``config_key``."""
    with config_key(key):
        *parents, last = key.split(".")
        for name in parents:
            cfg = cfg.get(name) or {}
            if not isinstance(cfg, dict):
                raise TypeError(f"{name} must be a JSON object, got {type(cfg).__name__}")
        if last not in cfg:
            return default
        return cfg[last] if convert is None else convert(cfg[last])


def _validate_pca(cfg: dict) -> tuple[float | None, float | None]:
    if not config_value(cfg, "pca.enabled", False):
        return None, None
    fr_in = config_value(cfg, "pca.input_fraction")
    fr_out = config_value(cfg, "pca.output_fraction")
    for name, f in (("input_fraction", fr_in), ("output_fraction", fr_out)):
        with config_key(f"pca.{name}"):
            if f is not None and not (0.0 < f <= 1.0):
                raise UsageError(f"pca.{name} must lie in (0, 1], got {f}")
    if fr_in is None and fr_out is None:
        raise UsageError("pca.enabled is true but neither fraction is set")
    return fr_in, fr_out


GENERATOR_DEFAULTS = {"train": 100, "test": 20, "grid": None, "seed": 0}  # for a config spec


def generate(problem: str, train: int, test: int, grid: int | None, seed: int) -> Dataset:
    """The dataset ``odlearn generate`` writes; a config ``generator`` spec
    takes the same arguments. A grid of None is the problem's default size."""
    if problem not in GENERATORS:
        raise UsageError(f"unknown generator problem {problem!r}; supported: {sorted(GENERATORS)}")
    sizes = {} if grid is None else {"grid_size": grid}
    return GENERATORS[problem](train, test, seed=seed, **sizes)


def obtain_dataset(cfg: dict) -> tuple[Dataset, str]:
    """Load or generate the dataset named by the config; returns (dataset, source)."""
    has_path = bool(cfg.get("dataset"))
    has_gen = bool(cfg.get("generator"))
    if has_path == has_gen:
        raise UsageError("config must set exactly one of 'dataset' (path) or 'generator' (spec)")
    if has_path:
        path = config_value(cfg, "dataset", convert=resolve_dataset_path)
        return load_dataset(path), str(path)
    with config_key("generator"):
        extra = set(cfg["generator"]) - {"problem", *GENERATOR_DEFAULTS}
    if extra:
        raise UsageError(f"unknown generator keys: {sorted(extra)}")
    problem = config_value(cfg, "generator.problem", convert=str)
    args = {k: config_value(cfg, f"generator.{k}", d, int) for k, d in GENERATOR_DEFAULTS.items()}
    return generate(problem, **args), f"generator:{problem}"


def default_quadrature(grid: np.ndarray) -> str:
    return "trapezoid1d" if grid.shape[1] == 1 else "trapezoid2d"


def _kernel_label(kernel: ScalarKernel) -> str:
    parts = []
    if kernel.nu is not None:
        parts.append(f"nu={kernel.nu:g}")
    if kernel.lengthscale is not None:
        parts.append(f"l={kernel.lengthscale:.4g}")
    if kernel.alpha is not None:
        parts.append(f"alpha={kernel.alpha:g}")
    if kernel.output_scale != 1.0:
        parts.append(f"scale={kernel.output_scale:g}")
    return kernel.family + ("(" + ",".join(parts) + ")" if parts else "")


def _preproc_label(model: operator.OperatorModel) -> str:
    parts = []
    if model.preconditioner == "cholesky":
        parts.append("cholesky")
    if model.input_pca is not None or model.output_pca is not None:
        parts.append("pca")
    return "+".join(parts) if parts else "none"


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


TRAIN_KEYS = {
    "dataset", "generator", "output_dir", "seed", "kernel", "gamma", "preconditioner", "pca", "tuning",
}


def read_train_config(cfg: dict) -> Callable[[Dataset], tuple[operator.OperatorModel, dict]]:
    """Read the whole train config, so that an unknown key or a malformed value is a
    UsageError before any data is loaded or generated, and return ``train(dataset)
    -> (model, resolved config)``: prepare features, optionally tune, and fit."""
    extra = set(cfg) - TRAIN_KEYS
    if extra:
        raise UsageError(f"unknown config keys: {sorted(extra)}")
    fr_in, fr_out = _validate_pca(cfg)
    precond = cfg.get("preconditioner", "none")
    if precond not in ("none", "cholesky"):
        raise UsageError(f"preconditioner must be 'none' or 'cholesky', got {precond!r}")
    gamma = config_value(cfg, "gamma", 0.0, float)
    seed = config_value(cfg, "seed", 0, int)
    kernel = spec = default_family = None
    if cfg.get("tuning"):
        with config_key("tuning"):
            spec = regression.TuningSpec(
                grid=config_value(cfg, "tuning.grid", (), tuple),
                objective=config_value(cfg, "tuning.objective", "lml"),
                folds=config_value(cfg, "tuning.folds", 5, int),
                seed=config_value(cfg, "tuning.seed", seed, int),
            )
        default_family = config_value(cfg, "kernel.family")
    elif not cfg.get("kernel"):
        raise UsageError("config needs a 'kernel' spec (or a tuning grid)")
    else:
        kernel = config_value(cfg, "kernel", convert=ScalarKernel.from_config)

    def train(dataset: Dataset) -> tuple[operator.OperatorModel, dict]:
        feats = operator.prepare_features(
            dataset.input_grid,
            dataset.output_grid,
            dataset.train_inputs,
            dataset.train_outputs,
            preconditioner=precond,
            pca_input_fraction=fr_in,
            pca_output_fraction=fr_out,
        )
        s_kernel, ridge, tuning_report = kernel, gamma, None
        if spec is not None:
            best, best_value, tuning_report = regression.tune(
                spec, feats.features, feats.targets, default_family=default_family
            )
            for entry in tuning_report:
                log.info("tuning %s -> %s", entry["params"], entry.get("objective", entry["status"]))
            log.info("tuning selected %s (objective %.6g)", best, best_value)
            best = dict(best)
            ridge = float(best.pop("gamma", gamma))
            if "family" not in best and default_family is not None:
                best["family"] = default_family
            s_kernel = ScalarKernel.from_config(best)
        model = operator.fit_operator_from_features(feats, s_kernel, ridge)
        resolved = {
            "kernel": s_kernel.to_config(),
            "gamma": model.regressor.gamma,
            "preconditioner": precond,
            "q_kernel": feats.q_kernel.to_config(),
            "k_kernel": feats.k_kernel.to_config(),
            "pca": {
                "enabled": fr_in is not None or fr_out is not None,
                "input_fraction": fr_in,
                "output_fraction": fr_out,
                "input_k": feats.input_pca.k if feats.input_pca else None,
                "output_k": feats.output_pca.k if feats.output_pca else None,
            },
            "seed": seed,
            "dataset_name": dataset.name,
            "n_train": dataset.n_train,
            "fit_residual": regression.fit_residual(model.regressor, feats.targets),
            "rkhs_norm_squared": regression.rkhs_norm_squared(model.regressor, feats.targets),
        }
        if tuning_report is not None:
            resolved["tuning_report"] = tuning_report
        return model, resolved

    return train


def evaluate_model(
    model: operator.OperatorModel,
    dataset: Dataset,
    split: str = "test",
    quadrature: str | None = None,
    with_uq: bool = False,
    with_flops: bool = False,
) -> dict:
    """Run the model over a dataset split and assemble the report dictionary."""
    if split not in ("train", "test"):
        raise UsageError(f"split must be 'train' or 'test', got {split!r}")
    for side, grid, op in (("input", dataset.input_grid, model.input_measurement),
                           ("output", dataset.output_grid, model.output_measurement)):
        if not np.array_equal(grid, op.points):
            raise OdlearnError(
                f"dataset {side} grid {grid.shape} does not match model {side} points {op.points.shape}"
            )
    inputs = dataset.train_inputs if split == "train" else dataset.test_inputs
    truths = dataset.train_outputs if split == "train" else dataset.test_outputs
    quad = quadrature or default_quadrature(dataset.output_grid)
    preds, std = operator._predict(model, inputs, dataset.output_grid, std=with_uq)
    report_err = metrics.relative_l2(preds, truths, dataset.output_grid, quad)
    report = {
        "report_version": REPORT_VERSION,
        "split": split,
        "quadrature": quad,
        "n_samples": report_err.n_samples,
        "mean_relative_l2": report_err.mean_relative_l2,
        "per_sample_relative_l2": report_err.per_sample.tolist(),
    }
    if with_uq:
        report["uq"] = {"mean_std": float(std.mean()), "max_std": float(std.max())}
    if with_flops:
        fl = metrics.count_inference_flops(model, dataset.output_grid.shape[0])
        report["flops"] = {
            "per_query_flops": fl.per_query_flops,
            "breakdown": dict(fl.breakdown),
            "assumptions_note": fl.assumptions_note,
        }
    return report


def _write_reports(report: dict, report_path: Path, csv_row: dict) -> None:
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    csv_path = report_path.with_suffix(".csv")
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(csv_row))
        writer.writeheader()
        writer.writerow(csv_row)


def _csv_row(model: operator.OperatorModel, dataset_label: str, report: dict) -> dict:
    flops = report.get("flops", {}).get("per_query_flops", "")
    return {
        "dataset": dataset_label,
        "kernel": _kernel_label(model.regressor.kernel),
        "gamma": model.regressor.gamma,
        "preproc": _preproc_label(model),
        "n": model.regressor.input_dim,
        "m": model.regressor.output_dim,
        "N": model.regressor.n_train,
        "mean_rel_l2": report["mean_relative_l2"],
        "flops_per_query": flops,
    }


# ---------------------------------------------------------------------------
# subcommand mains
# ---------------------------------------------------------------------------


def cmd_generate(ns: argparse.Namespace) -> int:
    ds = generate(ns.problem, ns.train, ns.test, ns.grid, ns.seed)
    manifest = save_dataset(ds, ns.out)
    summary = {k: manifest[k] for k in ("format_version", "name", "seed", "splits", "dtype")}
    summary["grid_points"] = {
        "input": manifest["grids"]["input"]["shape"],
        "output": manifest["grids"]["output"]["shape"],
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    cfg = load_config(ns.config)
    if ns.dataset is not None:
        cfg["dataset"] = ns.dataset
        cfg.pop("generator", None)
    if ns.seed is not None:
        cfg["seed"] = ns.seed
    if ns.gamma is not None:
        cfg["gamma"] = ns.gamma
    if ns.out is not None:
        cfg["output_dir"] = ns.out
    if not cfg.get("output_dir"):
        raise UsageError("config needs 'output_dir' (or pass --out)")
    out = config_value(cfg, "output_dir", convert=Path)
    train = read_train_config(cfg)
    dataset, source = obtain_dataset(cfg)
    model, resolved = train(dataset)
    resolved["dataset_source"] = source
    operator.save_model(model, out)
    (out / "resolved_config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True))
    print(f"kernel: {_kernel_label(model.regressor.kernel)}  gamma: {model.regressor.gamma:g}")
    print(f"training interpolation residual (mean rel L2 of the fitted targets): {resolved['fit_residual']:.3e}")
    print(f"rkhs_norm_squared: {resolved['rkhs_norm_squared']:.6g}")
    print(f"model saved to {out}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    model = operator.load_model(ns.model_dir)
    ds_path = resolve_dataset_path(ns.dataset)
    dataset = load_dataset(ds_path)
    report = evaluate_model(
        model,
        dataset,
        split=ns.split,
        quadrature=ns.quadrature,
        with_uq=ns.with_uq,
        with_flops=ns.flops,
    )
    report["dataset"] = str(ds_path)
    report["dataset_manifest_sha256"] = manifest_sha256(ds_path)
    resolved_path = Path(ns.model_dir) / "resolved_config.json"
    if resolved_path.is_file():
        report["resolved_config"] = json.loads(resolved_path.read_text())
    report_path = Path(ns.report) if ns.report else Path(ns.model_dir) / f"eval_{dataset.name}_{ns.split}.json"
    _write_reports(report, report_path, _csv_row(model, dataset.name, report))
    print(f"mean relative L2 ({ns.split}, {report['quadrature']}): {report['mean_relative_l2']:.6e}")
    if ns.with_uq:
        print(f"predictive std: mean {report['uq']['mean_std']:.3e}, max {report['uq']['max_std']:.3e}")
    if ns.flops:
        print(f"flops per query: {report['flops']['per_query_flops']}")
    print(f"report written to {report_path}")
    return 0


def _run_variant(payload: dict) -> dict:
    """Train+eval one sweep variant; returns a CSV row dict. Worker-safe."""
    label = payload["label"]
    try:
        cfg = dict(payload["variant"])
        cfg.setdefault("seed", payload.get("seed", 0))
        train = read_train_config(cfg)
        dataset = load_dataset(payload["dataset_path"])
        model, _ = train(dataset)
        model_dir = Path(payload["out_dir"]) / "variants" / label
        operator.save_model(model, model_dir)
        report = evaluate_model(model, dataset, split="test", with_flops=True)
        return {
            "label": label,
            "flops_per_query": report["flops"]["per_query_flops"],
            "mean_rel_l2": report["mean_relative_l2"],
            "kernel": _kernel_label(model.regressor.kernel),
            "preproc": _preproc_label(model),
            "status": "ok",
            "detail": "",
        }
    except Exception as exc:  # noqa: BLE001 - isolation: a variant must not kill the sweep
        return {
            "label": label,
            "flops_per_query": "",
            "mean_rel_l2": "",
            "kernel": "",
            "preproc": "",
            "status": "error",
            "detail": str(exc),
        }


def cmd_sweep(ns: argparse.Namespace) -> int:
    if ns.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {ns.jobs}")
    cfg = load_config(ns.config)
    if ns.out is not None:
        cfg["output_dir"] = ns.out
    if not cfg.get("output_dir"):
        raise UsageError("config needs 'output_dir' (or pass --out)")
    variants = cfg.get("variants") or []
    if not variants:
        raise UsageError("sweep config needs a nonempty 'variants' list")
    out = config_value(cfg, "output_dir", convert=Path)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.get("generator"):
        dataset, _ = obtain_dataset({"generator": cfg["generator"]})
        dataset_path = out / "dataset"
        save_dataset(dataset, dataset_path)
    else:
        if not cfg.get("dataset"):
            raise UsageError("sweep config must set 'dataset' or 'generator'")
        dataset_path = config_value(cfg, "dataset", convert=resolve_dataset_path)
    payloads = []
    with config_key("variants"):
        for i, variant in enumerate(variants):
            label = str(variant.get("label") or f"variant{i}")
            payloads.append(
                {
                    "label": label,
                    "variant": {k: v for k, v in variant.items() if k != "label"},
                    "dataset_path": str(dataset_path),
                    "out_dir": str(out),
                    "seed": cfg.get("seed", 0),
                }
            )
    # a fork-started pool starts all its workers at the first submit, so cap them
    jobs = min(ns.jobs, len(payloads))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_variant, payloads))
    else:
        rows = [_run_variant(p) for p in payloads]
    csv_path = out / "sweep.csv"
    fields = ["label", "flops_per_query", "mean_rel_l2", "kernel", "preproc", "status", "detail"]
    with csv_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    ok = sum(1 for r in rows if r["status"] == "ok")
    for r in rows:
        print(f"{r['label']}: {r['status']}" + (f" rel_l2={r['mean_rel_l2']:.4e}" if r["status"] == "ok" else f" ({r['detail']})"))
    print(f"sweep CSV written to {csv_path} ({ok}/{len(rows)} variants succeeded)")
    return 0 if ok >= 1 else 1


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    p_gen.add_argument("problem", choices=sorted(GENERATORS))
    p_gen.add_argument("--train", type=int, required=True, help="training sample count")
    p_gen.add_argument("--test", type=int, required=True, help="test sample count")
    p_gen.add_argument("--grid", type=int, default=None, help="grid size (problem default if omitted)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output dataset directory")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train an operator model from a JSON config")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--dataset", default=None, help="override config dataset path")
    p_train.add_argument("--out", default=None, help="override config output_dir")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--gamma", type=float, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a model on a dataset")
    p_eval.add_argument("model_dir")
    p_eval.add_argument("dataset")
    p_eval.add_argument("--report", default=None, help="JSON report path (CSV written alongside)")
    p_eval.add_argument("--split", choices=("train", "test"), default="test")
    p_eval.add_argument("--quadrature", choices=metrics.QUADRATURES, default=None)
    p_eval.add_argument("--with-uq", dest="with_uq", action="store_true")
    p_eval.add_argument("--flops", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="train+eval variants and emit a cost-accuracy CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None, help="override config output_dir")
    p_sweep.add_argument("--jobs", type=int, default=1, help="variant-level parallelism")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors with code 2
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OdlearnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
