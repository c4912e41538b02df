"""End-to-end learned operator between function spaces.

The model composes three stages: measure the input function (pointwise values,
optional preconditioner, optional PCA projection), map the measurement vector
through the fitted ridge regressor, and recover an output function from the
predicted measurement vector (optional PCA reconstruction, then kernel
interpolation on the output grid). Because the middle stage works on plain
vectors, the same trained regressor can be driven from measurement operators
unseen at training time (``apply_mesh_invariant``), and the Gaussian-process
reading of the regressor yields pointwise predictive standard deviations
(``apply_with_uq``) and a deterministic worst-case error bound
(``error_bound``).

Models are immutable after assembly; all apply-style operations are pure.
Persistence uses a directory with a JSON manifest plus raw little-endian
float64 binaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from . import regression
from .data.container import manifest_keys
from .errors import DatasetFormatError
from .kernels import ScalarKernel
from .preprocess import PcaProjector, pca_fit, project, reconstruct
from .recovery import (
    FunctionSamples,
    MeasurementOperator,
    RecoveryMap,
    cholesky_preconditioner,
    measure,
    recover,
    recovery_weights,
)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class OperatorModel:
    """Assembled operator: input measurement -> regressor -> output recovery."""

    input_measurement: MeasurementOperator
    input_recovery: RecoveryMap          # interpolation map on the input grid
    input_pca: PcaProjector | None
    regressor: regression.TrainedRegressor
    output_pca: PcaProjector | None
    output_recovery: RecoveryMap         # interpolation map on the output grid
    preconditioner: str = "none"         # "none" | "cholesky", for reports

    def __post_init__(self) -> None:
        n_meas = self.input_measurement.size
        n_reg = self.regressor.input_dim
        n_expected = self.input_pca.k if self.input_pca is not None else n_meas
        if n_reg != n_expected:
            raise ValueError(
                f"regressor input dim {n_reg} inconsistent with measurement chain ({n_expected})"
            )
        m_meas = self.output_measurement.size
        m_reg = self.regressor.output_dim
        m_expected = self.output_pca.k if self.output_pca is not None else m_meas
        if m_reg != m_expected:
            raise ValueError(
                f"regressor output dim {m_reg} inconsistent with output chain ({m_expected})"
            )
        if not np.array_equal(self.input_recovery.measurement.points, self.input_measurement.points):
            raise ValueError("input recovery map must live on the input measurement points")

    @property
    def output_measurement(self) -> MeasurementOperator:
        return self.output_recovery.measurement


def measure_input(model: OperatorModel, u: FunctionSamples) -> np.ndarray:
    """Full input measurement: pointwise values, preconditioner, then PCA if active."""
    raw = measure(model.input_measurement, u)
    if model.input_pca is not None:
        return project(model.input_pca, raw)
    return raw


def _predicted_measurements(model: OperatorModel, U: np.ndarray) -> np.ndarray:
    """Regressor output mapped back to output-measurement coordinates."""
    z = regression.predict(model.regressor, U)
    if model.output_pca is not None:
        return reconstruct(model.output_pca, z)
    return z


def apply(model: OperatorModel, u: FunctionSamples, query_points) -> FunctionSamples:
    """Evaluate the learned operator on one input function at the query points."""
    U = measure_input(model, u)
    V = _predicted_measurements(model, U)
    return recover(model.output_recovery, V, query_points)


def apply_batch(model: OperatorModel, input_values, query_points) -> np.ndarray:
    """Vectorized apply for rows of input values sampled on the input grid.

    ``input_values`` is (B, n_input_points) in grid order; returns
    (B, n_query_points).
    """
    X = np.atleast_2d(np.asarray(input_values, dtype=float))
    if X.shape[1] != model.input_measurement.size:
        raise ValueError(
            f"rows have {X.shape[1]} values, expected {model.input_measurement.size}"
        )
    L = model.input_measurement.preconditioner
    raw = X if L is None else X @ L.T
    U = project(model.input_pca, raw) if model.input_pca is not None else raw
    V = _predicted_measurements(model, U)
    W = recovery_weights(model.output_recovery, query_points)
    return V @ W.T


def apply_mesh_invariant(
    model: OperatorModel,
    u_foreign: FunctionSamples,
    foreign_measurement: MeasurementOperator,
    foreign_recovery: RecoveryMap,
    query_points,
) -> FunctionSamples:
    """Evaluate the operator on a function known only through a foreign grid.

    The foreign measurements are turned back into a function with the supplied
    recovery map (built on the foreign points with the input-space kernel),
    that function is re-measured with the training-time operator, and the rest
    proceeds as ``apply``. Any fixed-grid model can be retrofitted this way.
    """
    if not np.array_equal(foreign_recovery.measurement.points, foreign_measurement.points):
        raise ValueError("foreign recovery map must be built on the foreign measurement points")
    U_f = measure(foreign_measurement, u_foreign)
    u_native = recover(foreign_recovery, U_f, model.input_measurement.points)
    return apply(model, u_native, query_points)


def apply_with_uq(
    model: OperatorModel, u: FunctionSamples, query_points
) -> tuple[FunctionSamples, FunctionSamples]:
    """Predictive mean and pointwise standard deviation at the query points.

    The regressor's conditional variance s is shared by all output components;
    pushing the conditioned Gaussian through the linear output reconstruction
    gives std(y) = sqrt(s) * |w(y)|_2 with w(y) the output-reconstruction
    weight row at y (composed with the PCA basis when output PCA is active).
    """
    U = measure_input(model, u)
    V = _predicted_measurements(model, U)
    mean = recover(model.output_recovery, V, query_points)
    s = max(regression.posterior_variance(model.regressor, U), 0.0)
    W = recovery_weights(model.output_recovery, query_points)
    if model.output_pca is not None:
        W = W @ model.output_pca.basis
    std = np.sqrt(s) * np.linalg.norm(W, axis=1)
    return mean, FunctionSamples(mean.grid, std)


def error_bound(model: OperatorModel, u: FunctionSamples, rkhs_norm_bound: float) -> float:
    """Worst-case output-measurement error sqrt(m * s) * rkhs_norm_bound.

    ``m`` is the regressor output dimension and s the conditional variance at
    the measured input; the bound covers any target operator whose
    vector-valued RKHS norm is at most ``rkhs_norm_bound``.
    """
    if rkhs_norm_bound < 0:
        raise ValueError("rkhs_norm_bound must be nonnegative")
    U = measure_input(model, u)
    s = max(regression.posterior_variance(model.regressor, U), 0.0)
    return float(np.sqrt(model.regressor.output_dim * s) * rkhs_norm_bound)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def mesh_lengthscale(points, factor: float = 2.0) -> float:
    """Default grid-kernel lengthscale: ``factor`` times the median
    nearest-neighbor spacing.

    Tying the lengthscale to the mesh keeps the kernel matrix on the grid
    well conditioned, so recovering a sampled function at its own nodes stays
    at nugget-level error even for rough (discontinuous) samples.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        return 1.0
    d = cdist(pts, pts)
    d[np.diag_indices(pts.shape[0])] = np.inf
    spacing = float(np.median(d.min(axis=1)))
    return factor * spacing if spacing > 0 else 1.0


def default_grid_kernel(points) -> ScalarKernel:
    return ScalarKernel.matern(nu=2.5, lengthscale=mesh_lengthscale(points))


@dataclass(frozen=True)
class PipelineFeatures:
    """Measured and preprocessed training data, ready for regressor fitting.

    Splitting preparation from fitting lets hyperparameter tuning reuse the
    same features for every grid entry.
    """

    input_measurement: MeasurementOperator
    output_measurement: MeasurementOperator
    input_pca: PcaProjector | None
    output_pca: PcaProjector | None
    features: np.ndarray   # (N, n) regressor inputs
    targets: np.ndarray    # (N, m) regressor targets
    q_kernel: ScalarKernel
    k_kernel: ScalarKernel
    preconditioner: str
    nugget: float | None


def prepare_features(
    input_grid,
    output_grid,
    train_inputs,
    train_outputs,
    *,
    preconditioner: str = "none",
    q_kernel: ScalarKernel | None = None,
    k_kernel: ScalarKernel | None = None,
    pca_input_fraction: float | None = None,
    pca_output_fraction: float | None = None,
    nugget: float | None = None,
) -> PipelineFeatures:
    """Measure and preprocess sample-major training pairs.

    The grid kernels default to Matern nu=5/2 with a mesh-scaled lengthscale
    (see ``mesh_lengthscale``); ``preconditioner="cholesky"`` equips both
    measurement operators with the norm-equalizing factor built from those
    kernels. PCA fractions of None disable projection on that side.
    """
    if preconditioner not in ("none", "cholesky"):
        raise ValueError(f"preconditioner must be 'none' or 'cholesky', got {preconditioner!r}")
    X = np.atleast_2d(np.asarray(train_inputs, dtype=float))
    Y = np.atleast_2d(np.asarray(train_outputs, dtype=float))
    if X.shape[0] != Y.shape[0]:
        raise ValueError("train_inputs and train_outputs row counts differ")
    q_kernel = q_kernel if q_kernel is not None else default_grid_kernel(input_grid)
    k_kernel = k_kernel if k_kernel is not None else default_grid_kernel(output_grid)

    if preconditioner == "cholesky":
        L_in = cholesky_preconditioner(q_kernel, input_grid, nugget)
        L_out = cholesky_preconditioner(k_kernel, output_grid, nugget)
    else:
        L_in = L_out = None
    in_meas = MeasurementOperator(input_grid, L_in, label="input")
    out_meas = MeasurementOperator(output_grid, L_out, label="output")
    if X.shape[1] != in_meas.size:
        raise ValueError(f"train_inputs have {X.shape[1]} columns, input grid has {in_meas.size}")
    if Y.shape[1] != out_meas.size:
        raise ValueError(f"train_outputs have {Y.shape[1]} columns, output grid has {out_meas.size}")

    raw_U = X if L_in is None else X @ L_in.T
    raw_V = Y if L_out is None else Y @ L_out.T
    in_pca = pca_fit(raw_U, pca_input_fraction) if pca_input_fraction is not None else None
    out_pca = pca_fit(raw_V, pca_output_fraction) if pca_output_fraction is not None else None
    U = project(in_pca, raw_U) if in_pca is not None else raw_U
    V = project(out_pca, raw_V) if out_pca is not None else raw_V
    return PipelineFeatures(
        input_measurement=in_meas,
        output_measurement=out_meas,
        input_pca=in_pca,
        output_pca=out_pca,
        features=U,
        targets=V,
        q_kernel=q_kernel,
        k_kernel=k_kernel,
        preconditioner=preconditioner,
        nugget=nugget,
    )


def fit_operator_from_features(
    feats: PipelineFeatures, s_kernel: ScalarKernel, gamma: float = 0.0
) -> OperatorModel:
    """Fit the regressor on prepared features and assemble the operator."""
    reg = regression.fit(s_kernel, feats.features, feats.targets, gamma)
    return OperatorModel(
        input_measurement=feats.input_measurement,
        input_recovery=RecoveryMap(feats.q_kernel, feats.input_measurement, feats.nugget),
        input_pca=feats.input_pca,
        regressor=reg,
        output_pca=feats.output_pca,
        output_recovery=RecoveryMap(feats.k_kernel, feats.output_measurement, feats.nugget),
        preconditioner=feats.preconditioner,
    )


def fit_operator(
    input_grid,
    output_grid,
    train_inputs,
    train_outputs,
    s_kernel: ScalarKernel,
    gamma: float = 0.0,
    **prepare_kwargs,
) -> OperatorModel:
    """One-shot assembly: prepare_features followed by fit_operator_from_features."""
    feats = prepare_features(input_grid, output_grid, train_inputs, train_outputs, **prepare_kwargs)
    return fit_operator_from_features(feats, s_kernel, gamma)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _write_bin(directory: Path, name: str, arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    (directory / name).write_bytes(data.tobytes())
    return {"file": name, "shape": list(arr.shape)}


def _read_bin(directory: Path, entry: dict) -> np.ndarray:
    path = directory / entry["file"]
    shape = tuple(entry["shape"])
    expected = int(np.prod(shape)) * 8
    data = path.read_bytes()
    if len(data) != expected:
        raise DatasetFormatError(
            f"{path.name}: expected {expected} bytes for shape {shape}, found {len(data)}"
        )
    return np.frombuffer(data, dtype="<f8").reshape(shape).copy()


def _pca_to_files(directory: Path, name: str, p: PcaProjector | None) -> dict | None:
    # sidecar layout: mean (d floats) then basis (d*k floats, row-major)
    if p is None:
        return None
    blob = np.concatenate([p.mean, p.basis.ravel()])
    (directory / name).write_bytes(np.ascontiguousarray(blob, dtype="<f8").tobytes())
    return {
        "file": name,
        "dim": p.dim,
        "k": p.k,
        "singular_values": p.singular_values.tolist(),
        "retained_fraction": p.retained_fraction,
        "achieved_fraction": p.achieved_fraction,
    }


def _pca_from_files(directory: Path, entry: dict | None) -> PcaProjector | None:
    if entry is None:
        return None
    d, k = entry["dim"], entry["k"]
    expected = (d + d * k) * 8
    data = (directory / entry["file"]).read_bytes()
    if len(data) != expected:
        raise DatasetFormatError(
            f"{entry['file']}: expected {expected} bytes, found {len(data)}"
        )
    blob = np.frombuffer(data, dtype="<f8")
    return PcaProjector(
        mean=blob[:d].copy(),
        basis=blob[d:].reshape(d, k).copy(),
        singular_values=np.asarray(entry["singular_values"], dtype=float),
        retained_fraction=entry["retained_fraction"],
        achieved_fraction=entry["achieved_fraction"],
    )


def save_model(model: OperatorModel, directory) -> None:
    """Persist the model as manifest.json plus raw little-endian f64 binaries."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays = {
        "input_points": _write_bin(directory, "input_points.bin", model.input_measurement.points),
        "output_points": _write_bin(directory, "output_points.bin", model.output_measurement.points),
        "train_features": _write_bin(directory, "train_features.bin", model.regressor.inputs),
        "train_targets": _write_bin(directory, "train_targets.bin", model.regressor.targets),
        "coefficients": _write_bin(directory, "coefficients.bin", model.regressor.coef),
    }
    fmatrix, lower = model.regressor.factor
    clean = np.tril(fmatrix) if lower else np.triu(fmatrix)
    arrays["gram_factor"] = _write_bin(directory, "gram_factor.bin", clean)
    arrays["gram_factor"]["lower"] = bool(lower)
    L_in = model.input_measurement.preconditioner
    L_out = model.output_measurement.preconditioner
    if L_in is not None:
        arrays["l_input"] = _write_bin(directory, "l_input.bin", L_in)
    if L_out is not None:
        arrays["l_output"] = _write_bin(directory, "l_output.bin", L_out)
    manifest = {
        "format_version": MODEL_FORMAT_VERSION,
        "s_kernel": model.regressor.kernel.to_config(),
        "q_kernel": model.input_recovery.kernel.to_config(),
        "k_kernel": model.output_recovery.kernel.to_config(),
        "gamma": model.regressor.gamma,
        "preconditioner": model.preconditioner,
        "input_nugget": model.input_recovery.nugget,
        "output_nugget": model.output_recovery.nugget,
        "pca_input": _pca_to_files(directory, "pca_input.bin", model.input_pca),
        "pca_output": _pca_to_files(directory, "pca_output.bin", model.output_pca),
        "arrays": arrays,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def load_model(directory) -> OperatorModel:
    """Load a model directory written by save_model."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise DatasetFormatError(f"{directory} has no manifest.json")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported model format_version {version!r}; this build reads {MODEL_FORMAT_VERSION}"
        )
    with manifest_keys(manifest_path):
        arrays = manifest["arrays"]
        in_pts = _read_bin(directory, arrays["input_points"])
        out_pts = _read_bin(directory, arrays["output_points"])
        L_in = _read_bin(directory, arrays["l_input"]) if "l_input" in arrays else None
        L_out = _read_bin(directory, arrays["l_output"]) if "l_output" in arrays else None
        s_kernel = ScalarKernel.from_config(manifest["s_kernel"])
        q_kernel = ScalarKernel.from_config(manifest["q_kernel"])
        k_kernel = ScalarKernel.from_config(manifest["k_kernel"])
        factor_entry = arrays["gram_factor"]
        factor = (_read_bin(directory, factor_entry), factor_entry["lower"])
        reg = regression.TrainedRegressor(
            kernel=s_kernel,
            inputs=_read_bin(directory, arrays["train_features"]),
            targets=_read_bin(directory, arrays["train_targets"]),
            gamma=manifest["gamma"],
            coef=_read_bin(directory, arrays["coefficients"]),
            factor=factor,
        )
        input_nugget, output_nugget = manifest["input_nugget"], manifest["output_nugget"]
        input_pca = _pca_from_files(directory, manifest.get("pca_input"))
        output_pca = _pca_from_files(directory, manifest.get("pca_output"))
    in_meas = MeasurementOperator(in_pts, L_in, label="input")
    out_meas = MeasurementOperator(out_pts, L_out, label="output")
    return OperatorModel(
        input_measurement=in_meas,
        input_recovery=RecoveryMap(q_kernel, in_meas, input_nugget),
        input_pca=input_pca,
        regressor=reg,
        output_pca=output_pca,
        output_recovery=RecoveryMap(k_kernel, out_meas, output_nugget),
        preconditioner=manifest.get("preconditioner", "none"),
    )
