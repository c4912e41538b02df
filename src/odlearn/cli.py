"""Command-line benchmark harness.

Subcommands:

    generate  write a synthetic dataset directory (advection1 | advection2 |
              burgers | darcy)
    train     fit (optionally tune) an operator from a JSON config and persist
              the model directory
    eval      evaluate a model on a dataset split; JSON + CSV reports, with
              optional predictive-std and FLOPs sections
    sweep     train+eval a list of variants and emit a cost-accuracy CSV

Config is a single JSON file; command-line flags override config values. The
whole config is read and checked before any data is loaded or generated: an
unknown key or a value of the wrong type is a usage error naming the key. A
tuning grid entry is the ``kernel`` spec, when given, overridden by the entry's
own keys, with the entry's ``gamma`` or else the config ``gamma``. A sweep
config takes ``dataset`` or ``generator``, ``output_dir``, ``seed`` and
``variants``; a variant that sets ``dataset``, ``generator`` or ``output_dir``
becomes an error row. Exit codes: 0 success (for a sweep, at least one variant
succeeded), 1 runtime/numerical failure, 2 usage error. The environment
variable ODL_DATA_DIR provides a default root for relative dataset paths.
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


def check_keys(obj: dict, allowed, what: str) -> None:
    """A UsageError naming every key of ``obj`` outside ``allowed``."""
    extra = set(obj) - set(allowed)
    if extra:
        raise UsageError(f"unknown {what} keys: {sorted(extra)}")


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


def check_generator(problem: str, train: int, test: int) -> None:
    """Reject an unknown problem or a negative sample count before anything is generated."""
    if problem not in GENERATORS:
        raise UsageError(f"unknown generator problem {problem!r}; supported: {sorted(GENERATORS)}")
    for key, count in (("train", train), ("test", test)):
        if count < 0:
            raise UsageError(f"generator {key} count must be >= 0, got {count}")


def generate(problem: str, train: int, test: int, grid: int | None, seed: int) -> Dataset:
    """The dataset ``odlearn generate`` writes; a config ``generator`` spec
    takes the same arguments. A grid of None is the problem's default size."""
    check_generator(problem, train, test)
    sizes = {} if grid is None else {"grid_size": grid}
    return GENERATORS[problem](train, test, seed=seed, **sizes)


def dataset_source(cfg: dict) -> Path | dict:
    """Check the config's dataset source without reading any data: exactly one
    of ``dataset`` and ``generator`` is set. Returns the resolved dataset
    directory, or the checked arguments of ``generate``."""
    if bool(cfg.get("dataset")) == bool(cfg.get("generator")):
        raise UsageError("config must set exactly one of 'dataset' (path) or 'generator' (spec)")
    if cfg.get("dataset"):
        return config_value(cfg, "dataset", convert=resolve_dataset_path)
    with config_key("generator"):
        check_keys(cfg["generator"], {"problem", *GENERATOR_DEFAULTS}, "generator")
    args = {"problem": config_value(cfg, "generator.problem", convert=str)}
    args.update({k: config_value(cfg, f"generator.{k}", d, int) for k, d in GENERATOR_DEFAULTS.items()})
    check_generator(args["problem"], args["train"], args["test"])
    return args


def output_dir(cfg: dict, flag: str | None) -> Path:
    """The ``--out`` flag, else the config's ``output_dir``; one of them is required."""
    value = flag if flag is not None else cfg.get("output_dir")
    if not value:
        raise UsageError("config needs 'output_dir' (or pass --out)")
    with config_key("output_dir"):
        return Path(value)


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
TUNING_KEYS = {"grid", "objective", "folds", "seed"}


def read_train_config(cfg: dict) -> Callable[[Dataset], tuple[operator.OperatorModel, dict]]:
    """Read the whole train config, so that an unknown key or a malformed value is a
    UsageError before any data is loaded or generated, and return ``train(dataset)
    -> (model, resolved config)``: prepare features, optionally tune, and fit."""
    check_keys(cfg, TRAIN_KEYS, "config")
    fr_in, fr_out = _validate_pca(cfg)
    precond = cfg.get("preconditioner", "none")
    if precond not in ("none", "cholesky"):
        raise UsageError(f"preconditioner must be 'none' or 'cholesky', got {precond!r}")
    gamma = config_value(cfg, "gamma", 0.0, float)
    seed = config_value(cfg, "seed", 0, int)
    kernel = spec = None
    if cfg.get("tuning"):
        grid = config_value(cfg, "tuning.grid", (), tuple)
        objective = config_value(cfg, "tuning.objective", "lml")
        folds = config_value(cfg, "tuning.folds", 5, int)
        tuning_seed = config_value(cfg, "tuning.seed", seed, int)
        check_keys(cfg["tuning"], TUNING_KEYS, "tuning")
        with config_key("kernel"):
            base = dict(cfg.get("kernel") or {})
        with config_key("tuning"):  # each entry resolved once, as the module docstring says
            grid = [{**base, **entry, "gamma": entry.get("gamma", gamma)} for entry in grid]
            spec = regression.TuningSpec(grid=grid, objective=objective, folds=folds, seed=tuning_seed)
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
            best, best_value, tuning_report = regression.tune(spec, feats.features, feats.targets)
            for entry in tuning_report:
                log.info("tuning %s -> %s", entry["params"], entry.get("objective", entry["status"]))
            log.info("tuning selected %s (objective %.6g)", best, best_value)
            s_kernel, ridge = spec.entries[spec.grid.index(best)]
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


def _write_csv(path: Path, fields: list, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


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


def train_and_save(train: Callable, source: Path | dict, out: Path) -> tuple[operator.OperatorModel, Dataset, dict]:
    """Load or generate the dataset that ``dataset_source`` checked, train on it,
    and save the model to ``out`` with its ``resolved_config.json``; returns
    (model, dataset, resolved config)."""
    if isinstance(source, Path):
        dataset, label = load_dataset(source), str(source)
    else:
        dataset, label = generate(**source), f"generator:{source['problem']}"
    model, resolved = train(dataset)
    resolved["dataset_source"] = label
    operator.save_model(model, out)
    (out / "resolved_config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True))
    return model, dataset, resolved


def cmd_train(ns: argparse.Namespace) -> int:
    cfg = load_config(ns.config)
    if ns.dataset is not None:
        cfg["dataset"] = ns.dataset
        cfg.pop("generator", None)
    if ns.seed is not None:
        cfg["seed"] = ns.seed
    if ns.gamma is not None:
        cfg["gamma"] = ns.gamma
    out = output_dir(cfg, ns.out)
    train = read_train_config(cfg)
    model, _, resolved = train_and_save(train, dataset_source(cfg), out)
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
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    row = _csv_row(model, dataset.name, report)
    _write_csv(report_path.with_suffix(".csv"), list(row), [row])
    print(f"mean relative L2 ({ns.split}, {report['quadrature']}): {report['mean_relative_l2']:.6e}")
    if ns.with_uq:
        print(f"predictive std: mean {report['uq']['mean_std']:.3e}, max {report['uq']['max_std']:.3e}")
    if ns.flops:
        print(f"flops per query: {report['flops']['per_query_flops']}")
    print(f"report written to {report_path}")
    return 0


SWEEP_KEYS = {"dataset", "generator", "output_dir", "seed", "variants"}
SWEEP_FIELDS = ["label", "flops_per_query", "mean_rel_l2", "kernel", "preproc", "status", "detail"]


def _run_variant(payload: dict) -> dict:
    """Train+eval one sweep variant; returns a CSV row dict. Worker-safe."""
    row = {"label": payload["label"], "status": "ok", "detail": ""}
    try:
        cfg = dict(payload["variant"])
        owned = sorted({"dataset", "generator", "output_dir"} & set(cfg))  # one for all variants
        if owned:
            raise UsageError(f"variant sets {owned}, which only the sweep config sets")
        cfg.setdefault("seed", payload.get("seed", 0))
        train = read_train_config(cfg)
        model_dir = Path(payload["out_dir"]) / "variants" / payload["label"]
        model, dataset, _ = train_and_save(train, Path(payload["dataset_path"]), model_dir)
        row.update(_csv_row(model, dataset.name, evaluate_model(model, dataset, split="test", with_flops=True)))
    except Exception as exc:  # noqa: BLE001 - isolation: a variant must not kill the sweep
        row.update(status="error", detail=str(exc))
    return {k: row.get(k, "") for k in SWEEP_FIELDS}


def cmd_sweep(ns: argparse.Namespace) -> int:
    if ns.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {ns.jobs}")
    cfg = load_config(ns.config)
    check_keys(cfg, SWEEP_KEYS, "sweep config")
    out = output_dir(cfg, ns.out)
    seed = config_value(cfg, "seed", 0, int)
    source = dataset_source(cfg)
    dataset_path = source if isinstance(source, Path) else out / "dataset"
    variants = cfg.get("variants") or []
    if not variants:
        raise UsageError("sweep config needs a nonempty 'variants' list")
    shared = {"dataset_path": str(dataset_path), "out_dir": str(out), "seed": seed}
    with config_key("variants"):
        payloads = [
            {"label": str(v.get("label") or f"variant{i}"),
             "variant": {k: x for k, x in v.items() if k != "label"}, **shared}
            for i, v in enumerate(variants)
        ]
    out.mkdir(parents=True, exist_ok=True)
    if not isinstance(source, Path):
        save_dataset(generate(**source), dataset_path)
    # a fork-started pool starts all its workers at the first submit, so cap them
    jobs = min(ns.jobs, len(payloads))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_variant, payloads))
    else:
        rows = [_run_variant(p) for p in payloads]
    csv_path = out / "sweep.csv"
    _write_csv(csv_path, SWEEP_FIELDS, rows)
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
