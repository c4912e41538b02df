"""End-to-end learned operator between function spaces.

A model is an input recovery map, an optional input PCA, a fitted ridge
regressor, an optional output PCA and an output recovery map. The input map's
measurement operator (pointwise values, optional preconditioner) measures the
input function, and the output map interpolates the predicted measurement
vector on any query points. Each map factorizes its kernel matrix only when
something recovers through it. Because the middle stage works on plain
vectors, the same trained regressor can be driven from measurement operators
unseen at training time (``apply_mesh_invariant``), and the Gaussian-process
reading of the regressor yields pointwise predictive standard deviations
(``apply_with_uq``) and a deterministic worst-case error bound
(``error_bound``).

Models are immutable after assembly, apart from cached factors and the
recovery weights for their own output grid, shared by reloads; all apply-style
operations are pure.
The grid kernels use the default nugget, and the preconditioner type a model
reports is read off its measurement operators.
A saved model uses the dataset container's layout and loader
(``data/container.py``): a JSON manifest plus raw little-endian float64
binaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from . import regression
from .data.container import (
    manifest_count,
    manifest_file,
    manifest_keys,
    read_array,
    read_manifest,
    write_array,
    write_manifest,
)
from .kernels import ScalarKernel, as_points
from .preprocess import PcaProjector, pca_fit, project, reconstruct
from .recovery import (
    FunctionSamples,
    MeasurementOperator,
    RecoveryMap,
    as_query_points,
    cholesky_preconditioner,
    evaluate,
    measure,
    recover,
    recovery_weights,
    restrict,
)

MODEL_FORMAT_VERSION = 1
_last_weights = None  # (output chain, output_weights) of the last model to build them


@dataclass(frozen=True)
class OperatorModel:
    """Assembled operator: input recovery -> regressor -> output recovery."""

    input_recovery: RecoveryMap          # measurement and interpolation map on the input grid
    input_pca: PcaProjector | None
    regressor: regression.TrainedRegressor
    output_pca: PcaProjector | None
    output_recovery: RecoveryMap         # interpolation map on the output grid

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

    @property
    def input_measurement(self) -> MeasurementOperator:
        return self.input_recovery.measurement

    @property
    def output_measurement(self) -> MeasurementOperator:
        return self.output_recovery.measurement

    @property
    def preconditioner(self) -> str:
        """For reports: "cholesky" when a measurement operator carries an L, else "none"."""
        ops = (self.input_measurement, self.output_measurement)
        return "none" if all(op.preconditioner is None for op in ops) else "cholesky"

    @cached_property
    def output_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``_weight_rows`` on the model's own output grid, built on first use, or
        reused from the last model that built them if its output chain is equal."""
        global _last_weights
        r, pca = self.output_recovery, self.output_pca
        chain = (r.kernel, r.nugget, r.measurement.points, r.measurement.preconditioner, pca and pca.basis)
        last = _last_weights  # np.array_equal also compares kernels, nuggets and None
        if last is None or not all(map(np.array_equal, last[0], chain)):
            last = _last_weights = (chain, _weight_rows(self, r.measurement.points))
        return last[1]


def _weight_rows(model: OperatorModel, query_points) -> tuple[np.ndarray, np.ndarray]:
    """Recovery weights W at the query points, and the row norms of the weights
    acting on regressor outputs (W @ output PCA basis, or W itself)."""
    W = recovery_weights(model.output_recovery, query_points)
    B = W if model.output_pca is None else W @ model.output_pca.basis
    return W, np.linalg.norm(B, axis=1)


def _features(model: OperatorModel, X: np.ndarray) -> np.ndarray:
    """The feature map on rows of input values: preconditioner, then input PCA."""
    L = model.input_measurement.preconditioner
    raw = X if L is None else X @ L.T
    return raw if model.input_pca is None else project(model.input_pca, raw)


def _variance(model: OperatorModel, U: np.ndarray) -> np.ndarray:
    """Conditional variance at each feature row, negative roundoff clamped to 0."""
    return np.clip(regression.posterior_variance(model.regressor, U), 0.0, None)


def _predict(model: OperatorModel, X, query_points, *, std: bool = False):
    """The inference core: (B, n_input_points) rows of input values in grid
    order to (mean, std), each (B, n_query_points); std is None unless asked.
    On the model's own output grid the recovery is one product with the cached
    ``output_weights``. Other query sets pay one recovery solve per row, or,
    when std is asked, build their weights once for both mean and std.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.input_measurement.size:
        raise ValueError(
            f"rows have {X.shape[1]} values, expected {model.input_measurement.size}"
        )
    U = _features(model, X)
    z = regression.predict(model.regressor, U)
    V = z if model.output_pca is None else reconstruct(model.output_pca, z)
    # the on-grid test only reshapes: as_query_points adds ~4 us to a 70 us burgers apply
    qp = np.asarray(query_points, dtype=float)
    qp = qp[:, None] if qp.ndim == 1 else qp
    rmap = model.output_recovery
    grid = rmap.measurement.points
    if qp.shape == grid.shape and np.array_equal(qp, grid):
        W, norms = model.output_weights
    elif std:
        W, norms = _weight_rows(model, qp)
    else:
        qp = as_query_points(rmap, qp)  # before the solve, so a rejected set builds no factor
        return evaluate(rmap, rmap.coefficients(V), qp).T, None
    mean = V @ W.T
    if not std:
        return mean, None
    return mean, np.sqrt(_variance(model, U))[:, None] * norms


def _row(model: OperatorModel, u: FunctionSamples) -> np.ndarray:
    """u's values on the input grid, as a batch of one row."""
    return restrict(model.input_measurement, u)[None, :]


def apply(model: OperatorModel, u: FunctionSamples, query_points) -> FunctionSamples:
    """Evaluate the learned operator on one input function at the query points."""
    mean, _ = _predict(model, _row(model, u), query_points)
    return FunctionSamples(query_points, mean[0])


def apply_batch(model: OperatorModel, input_values, query_points) -> np.ndarray:
    """Vectorized apply for rows of input values sampled on the input grid.

    ``input_values`` is (B, n_input_points) in grid order; returns
    (B, n_query_points).
    """
    return _predict(model, input_values, query_points)[0]


def apply_mesh_invariant(
    model: OperatorModel,
    u_foreign: FunctionSamples,
    foreign_recovery: RecoveryMap,
    query_points,
) -> FunctionSamples:
    """Evaluate the operator on a function known only through a foreign grid.

    The function is measured and recovered through the foreign map (built on
    the foreign points, typically with the input-space kernel), re-measured
    with the training-time operator, and the rest proceeds as ``apply``. Any
    fixed-grid model can be retrofitted this way.
    """
    U_f = measure(foreign_recovery.measurement, u_foreign)
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
    mean, std = _predict(model, _row(model, u), query_points, std=True)
    mean = FunctionSamples(query_points, mean[0])
    return mean, FunctionSamples(mean.grid, std[0])


def error_bound(model: OperatorModel, u: FunctionSamples, rkhs_norm_bound: float) -> float:
    """Worst-case output-measurement error sqrt(m * s) * rkhs_norm_bound.

    ``m`` is the regressor output dimension and s the conditional variance at
    the measured input; the bound covers any target operator whose
    vector-valued RKHS norm is at most ``rkhs_norm_bound``.
    """
    if rkhs_norm_bound < 0:
        raise ValueError("rkhs_norm_bound must be nonnegative")
    s = _variance(model, _features(model, _row(model, u)))[0]
    return float(np.sqrt(model.regressor.output_dim * s) * rkhs_norm_bound)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def mesh_lengthscale(points) -> float:
    """Default grid-kernel lengthscale: twice the median nearest-neighbor
    spacing.

    Tying the lengthscale to the mesh keeps the kernel matrix on the grid
    well conditioned, so recovering a sampled function at its own nodes stays
    at nugget-level error even for rough (discontinuous) samples.
    """
    pts = as_points(points, "points")
    if pts.shape[0] < 2:
        return 1.0
    d = cdist(pts, pts)
    d[np.diag_indices(pts.shape[0])] = np.inf
    spacing = float(np.median(d.min(axis=1)))
    return 2.0 * spacing if spacing > 0 else 1.0


def default_grid_kernel(points) -> ScalarKernel:
    return ScalarKernel.matern(nu=2.5, lengthscale=mesh_lengthscale(points))


@dataclass(frozen=True)
class PipelineFeatures:
    """Measured and preprocessed training data, ready for regressor fitting.

    Splitting preparation from fitting lets hyperparameter tuning reuse the
    same features for every grid entry.
    """

    input_recovery: RecoveryMap
    output_recovery: RecoveryMap
    input_pca: PcaProjector | None
    output_pca: PcaProjector | None
    features: np.ndarray   # (N, n) regressor inputs
    targets: np.ndarray    # (N, m) regressor targets


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
) -> PipelineFeatures:
    """Measure and preprocess sample-major training pairs.

    The grid kernels default to Matern nu=5/2 with a mesh-scaled lengthscale
    (see ``mesh_lengthscale``), and both recovery maps use the default nugget;
    ``preconditioner="cholesky"`` equips both measurement operators with the
    norm-equalizing factor built from those kernels. PCA fractions of None
    disable projection on that side.
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
        L_in = cholesky_preconditioner(q_kernel, input_grid)
        same = q_kernel == k_kernel and np.array_equal(input_grid, output_grid)
        L_out = L_in if same else cholesky_preconditioner(k_kernel, output_grid)
    else:
        L_in = L_out = None
    in_map = RecoveryMap(q_kernel, MeasurementOperator(input_grid, L_in))
    out_map = RecoveryMap(k_kernel, MeasurementOperator(output_grid, L_out))
    if X.shape[1] != in_map.size:
        raise ValueError(f"train_inputs have {X.shape[1]} columns, input grid has {in_map.size}")
    if Y.shape[1] != out_map.size:
        raise ValueError(f"train_outputs have {Y.shape[1]} columns, output grid has {out_map.size}")

    raw_U = X if L_in is None else X @ L_in.T
    raw_V = Y if L_out is None else Y @ L_out.T
    in_pca = pca_fit(raw_U, pca_input_fraction) if pca_input_fraction is not None else None
    out_pca = pca_fit(raw_V, pca_output_fraction) if pca_output_fraction is not None else None
    U = project(in_pca, raw_U) if in_pca is not None else raw_U
    V = project(out_pca, raw_V) if out_pca is not None else raw_V
    return PipelineFeatures(
        input_recovery=in_map,
        output_recovery=out_map,
        input_pca=in_pca,
        output_pca=out_pca,
        features=U,
        targets=V,
    )


def fit_operator_from_features(
    feats: PipelineFeatures, s_kernel: ScalarKernel, gamma: float = 0.0
) -> OperatorModel:
    """Fit the regressor on prepared features and assemble the operator."""
    reg = regression.fit(s_kernel, feats.features, feats.targets, gamma)
    return OperatorModel(
        input_recovery=feats.input_recovery,
        input_pca=feats.input_pca,
        regressor=reg,
        output_pca=feats.output_pca,
        output_recovery=feats.output_recovery,
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


def _read_bin(directory: Path, arrays: dict, key: str) -> np.ndarray:
    with manifest_keys(directory / "manifest.json", f"arrays.{key}"):
        path = manifest_file(directory, arrays[key]["file"])
        shape = tuple(manifest_count(n) for n in arrays[key]["shape"])
    return read_array(path, shape)


def _pca_to_files(directory: Path, name: str, p: PcaProjector | None) -> dict | None:
    # sidecar layout: mean (d floats) then basis (d*k floats, row-major)
    if p is None:
        return None
    write_array(directory, name, np.concatenate([p.mean, p.basis.ravel()]))
    return {
        "file": name,
        "dim": p.dim,
        "k": p.k,
        "singular_values": p.singular_values.tolist(),
        "retained_fraction": p.retained_fraction,
        "achieved_fraction": p.achieved_fraction,
    }


def _pca_from_files(directory: Path, manifest: dict, key: str) -> PcaProjector | None:
    entry = manifest.get(key)
    if entry is None:
        return None
    with manifest_keys(directory / "manifest.json", key):
        d, k = manifest_count(entry["dim"]), manifest_count(entry["k"])
        blob = read_array(manifest_file(directory, entry["file"]), (d + d * k,))
        return PcaProjector(
            mean=blob[:d],
            basis=blob[d:].reshape(d, k),
            singular_values=np.asarray(entry["singular_values"], dtype=float),
            retained_fraction=float(entry["retained_fraction"]),
            achieved_fraction=float(entry["achieved_fraction"]),
        )


def save_model(model: OperatorModel, directory) -> None:
    """Persist the model as manifest.json plus raw little-endian f64 binaries."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table = {
        "input_points": model.input_measurement.points,
        "output_points": model.output_measurement.points,
        "train_features": model.regressor.inputs,
        "coefficients": model.regressor.coef,
        "gram_factor": model.regressor.chol,
        "l_input": model.input_measurement.preconditioner,
        "l_output": model.output_measurement.preconditioner,
    }
    arrays = {k: write_array(directory, f"{k}.bin", a) for k, a in table.items() if a is not None}
    write_manifest(directory, {
        "format_version": MODEL_FORMAT_VERSION,
        "s_kernel": model.regressor.kernel.to_config(),
        "q_kernel": model.input_recovery.kernel.to_config(),
        "k_kernel": model.output_recovery.kernel.to_config(),
        "gamma": model.regressor.gamma,
        "input_nugget": model.input_recovery.nugget,
        "output_nugget": model.output_recovery.nugget,
        "pca_input": _pca_to_files(directory, "pca_input.bin", model.input_pca),
        "pca_output": _pca_to_files(directory, "pca_output.bin", model.output_pca),
        "arrays": arrays,
    })


def load_model(directory) -> OperatorModel:
    """Load a model directory written by save_model; older models' training targets are not read."""
    directory = Path(directory)
    manifest = read_manifest(directory, MODEL_FORMAT_VERSION, "model")
    with manifest_keys(directory / "manifest.json"):
        arrays = manifest["arrays"]
        in_pts = _read_bin(directory, arrays, "input_points")
        out_pts = _read_bin(directory, arrays, "output_points")
        L_in = _read_bin(directory, arrays, "l_input") if "l_input" in arrays else None
        L_out = _read_bin(directory, arrays, "l_output") if "l_output" in arrays else None
        s_kernel = ScalarKernel.from_config(manifest["s_kernel"])
        q_kernel = ScalarKernel.from_config(manifest["q_kernel"])
        k_kernel = ScalarKernel.from_config(manifest["k_kernel"])
        reg = regression.TrainedRegressor(
            kernel=s_kernel,
            inputs=_read_bin(directory, arrays, "train_features"),
            gamma=manifest["gamma"],
            coef=_read_bin(directory, arrays, "coefficients"),
            chol=_read_bin(directory, arrays, "gram_factor"),
        )
        return OperatorModel(
            input_recovery=RecoveryMap(q_kernel, MeasurementOperator(in_pts, L_in), manifest["input_nugget"]),
            input_pca=_pca_from_files(directory, manifest, "pca_input"),
            regressor=reg,
            output_pca=_pca_from_files(directory, manifest, "pca_output"),
            output_recovery=RecoveryMap(
                k_kernel, MeasurementOperator(out_pts, L_out), manifest["output_nugget"]
            ),
        )
