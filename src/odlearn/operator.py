"""End-to-end learned operator between function spaces.

A model is an input recovery map, an optional input PCA, a fitted ridge
regressor, an optional output PCA and an output recovery map. The input map's
measurement operator (pointwise values, optional preconditioner) measures the
input function, and the output map interpolates the predicted measurement
vector on any query points. Each map builds what it recovers through, the
factor of its kernel matrix or, with a preconditioner, a check of its root L,
only when something recovers through it. Because the middle stage works on plain
vectors, the same trained regressor can be driven from measurement operators
unseen at training time (``apply_mesh_invariant``), and the Gaussian-process
reading of the regressor yields pointwise predictive standard deviations
(``apply_with_uq``) and a deterministic worst-case error bound
(``error_bound``).

Every stage around the regressor's kernel row is linear, so serving folds them
into matrices, each a cached property of the model built by the first request
that reads it: the features are X @ M - offset (``_feature_map``), and the
values on the model's own output grid are the kernel row times A plus a0
(``_grid_mean``), the paper's expansion G(u)(y) = sum_i S(phi(u), U_i) a_i(y)
read off at the grid, through the model's one regressor with A as its
coefficients; the std there is sqrt(s) times ``_grid_norms``, in closed form
without output PCA. Any other query set recovers the predicted measurements
there, so an off-grid UQ mean is bitwise ``apply``; only its std builds
recovery weights, for their row norms. Each model caches the off-grid query
sets it serves (``QueryCache``): a set's first request records a hash of its
points and keeps nothing, and from its second on the set keeps a copy of its
points, what evaluating there needs (the lattice stencil, or the cross Gram
when it fits) and, once a std is asked, the row norms, so that a repeated
request pays for the regressor, one recovery solve and one product. The cache
holds at most ``QUERY_CACHE_BYTES`` per model after each request, least
recently used sets going first, and ``clear`` empties it. Models are immutable
after assembly, apart from those cached parts, factors and query sets; all
apply-style operations are pure, and a cached set gives the bits of a first
request. The grid kernels use the default nugget, and the
preconditioner type a model reports is read off its measurement operators.
A saved model uses the dataset container's layout and loader
(``data/container.py``): a JSON manifest plus raw little-endian float64
binaries, one file per distinct array, mapped read-only at load and replaced
file by file, never rewritten in place, at save. So every array of a loaded
model is read-only and shares the page cache with its file; a model stays as it
was loaded when its directory is saved over. ``load_model`` checks each
distinct array once, in one pass that names the file or key that fails. A load
of the same bytes as the last successful one returns that load's model, parts
built, unchecked; the one module global, ``_last_load``, holds it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

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
from .errors import DatasetFormatError, OdlearnError
from .kernels import ScalarKernel, as_points, distances
from .preprocess import PcaProjector, pca_fit, project, reconstruct
from .recovery import (
    FunctionSamples,
    MeasurementOperator,
    QuerySet,
    RecoveryMap,
    as_query_points,
    cholesky_preconditioner,
    measure,
    on_grid_norms,
    on_grid_weights,
    recover,
    recovery_weights,
    restrict,
)

MODEL_FORMAT_VERSION = 1
QUERY_CACHE_BYTES = 16 * 2**20  # per model: the cached off-grid query sets
QUERY_ENTRY_BYTES = 2048        # charged per cached set for its Python objects: tracemalloc, 1.5 kB at most
_last_load = None  # (repr of the manifest, mapped binaries, model) of the last successful load_model


@dataclass(frozen=True)
class OperatorModel:
    """Assembled operator: input recovery -> regressor -> output recovery."""

    input_recovery: RecoveryMap          # measurement and interpolation map on the input grid
    input_pca: PcaProjector | None
    regressor: regression.TrainedRegressor
    output_pca: PcaProjector | None
    output_recovery: RecoveryMap         # interpolation map on the output grid

    def __post_init__(self) -> None:
        reg = self.regressor
        for side, dim, pca, op in (("input", reg.input_dim, self.input_pca, self.input_measurement),
                                   ("output", reg.output_dim, self.output_pca, self.output_measurement)):
            expected = pca.k if pca is not None else op.size
            if dim != expected:
                raise ValueError(f"regressor {side} dim {dim} inconsistent with the {side} chain ({expected})")

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
    def _feature_map(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(M, offset), the features being X @ M - offset: M is L^T B with a
        preconditioner L and input PCA basis B, B or L^T with one of them, and
        None (the identity) with neither; offset is mu B, None without input PCA."""
        L, pca = self.input_measurement.preconditioner, self.input_pca
        if pca is None:
            return (None if L is None else L.T), None
        return (pca.basis if L is None else L.T @ pca.basis), pca.mean @ pca.basis

    @cached_property
    def _grid_mean(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(A, a0), the values on the model's own output grid being
        S(U, inputs) @ A + a0, a0 None without output PCA. With W the recovery
        weights on the output grid and P the map from regressor outputs to output
        measurements (coef, or coef B^T with output PCA), A = (W P^T)^T, in the
        exact form of ``on_grid_weights``. Applying that form to P^T is the more
        accurate of the two ways: on the darcy benchmark model the outputs err by
        3.6e-12 of their RMS, as the staged ones do, against 6.0e-12 with W
        formed first and multiplied. With output PCA, a0 = W mu is one more
        column of the same call, so a preconditioned map builds its grid's kernel
        matrix once."""
        rmap, out, coef = self.output_recovery, self.output_pca, self.regressor.coef
        if out is None:
            return np.ascontiguousarray(on_grid_weights(rmap, coef.T).T), None
        W = on_grid_weights(rmap, np.column_stack([out.basis @ coef.T, out.mean]))
        return np.ascontiguousarray(W[:, :-1].T), W[:, -1].copy()

    @cached_property
    def _grid_norms(self) -> np.ndarray:
        """(n_out,) row norms of W, or of W @ output PCA basis: on the model's own
        output grid the std is sqrt(s) times these. Without output PCA they are
        ``on_grid_norms``' closed form."""
        rmap, out = self.output_recovery, self.output_pca
        if out is None:
            return on_grid_norms(rmap)
        return np.linalg.norm(on_grid_weights(rmap, out.basis), axis=1)

    @cached_property
    def _queries(self) -> QueryCache:
        """The off-grid query sets this model has served."""
        return QueryCache()


class _Entry:
    """A held query set: a copy of its points (``data``, and ``points`` read-only
    on it), its ``QuerySet`` on the output map, its weight row norms once a std
    is asked, and the bytes the cache has counted for it."""

    __slots__ = ("data", "points", "query_set", "norms", "counted")

    def __init__(self, data: bytes, shape: tuple) -> None:
        self.data, self.points = data, np.frombuffer(data).reshape(shape)
        self.query_set = self.norms = None
        self.counted = QUERY_ENTRY_BYTES

    @property
    def nbytes(self) -> int:
        kept = 0 if self.query_set is None else self.query_set.nbytes
        return QUERY_ENTRY_BYTES + len(self.data) + kept + (0 if self.norms is None else self.norms.nbytes)


class QueryCache:
    """A model's off-grid query sets, least recently used first, keyed on a hash
    of the checked points' shape and bytes. A set's first request records only
    the hash, so a set asked for once keeps nothing; its second request stores a
    copy of its points (never a view of the caller's array or a mapped file),
    and from then on the entry, once its bytes are compared equal, keeps what
    ``QuerySet`` builds there (the cross Gram only if it fits the cap) and, once
    a std is asked, the weight row norms. After each request the entries hold
    at most ``QUERY_CACHE_BYTES``, counting ``QUERY_ENTRY_BYTES`` for each one's
    Python objects: the least recently used go first, and a set whose entry
    alone is larger is served and not stored. Every request computes from a copy
    of the points and the same parts, built or kept, in the same way, so a hit
    gives a miss's bits."""

    def __init__(self) -> None:
        self._entries: OrderedDict[int, _Entry | None] = OrderedDict()  # None: asked for once
        self._bytes = 0
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """The bytes counted for the entries held."""
        return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def serve(self, model: OperatorModel, qp: np.ndarray, C: np.ndarray, std: bool):
        """(k(qp, X) @ C, transposed, and the weight row norms at qp, or None
        unless ``std``), through qp's entry when the set is held."""
        rmap, data = model.output_recovery, qp.tobytes()
        key = hash((qp.shape, data))
        with self._lock:
            if key not in self._entries:  # a first request: record the hash alone
                self._entries[key] = entry = None
                self._count(QUERY_ENTRY_BYTES)
            else:
                self._entries.move_to_end(key)
                entry = self._entries[key]
                if entry is None:  # the second: hold a copy of the points
                    entry = self._entries[key] = _Entry(data, qp.shape)
                elif entry.points.shape != qp.shape or entry.data != data:  # another set's hash
                    entry = None
        if entry is None:
            points = np.frombuffer(data).reshape(qp.shape)
            return QuerySet(rmap, points).evaluate(C).T, (_weight_norms(model, points) if std else None)
        try:
            if entry.query_set is None:  # the cross Gram is kept if it and the norms fit the cap
                fits = len(qp) * (rmap.size + 1) * qp.itemsize <= QUERY_CACHE_BYTES - entry.nbytes
                entry.query_set = QuerySet(rmap, entry.points, keep_gram=fits)
            mean = entry.query_set.evaluate(C).T
            if std and entry.norms is None:
                entry.norms = _weight_norms(model, entry.points)
            return mean, (entry.norms if std else None)
        finally:
            size = entry.nbytes
            with self._lock:
                held = self._entries.get(key) is entry  # not evicted or cleared meanwhile
                if held and size > QUERY_CACHE_BYTES:  # served, not stored
                    del self._entries[key]
                    self._bytes -= entry.counted
                elif held:
                    grown, entry.counted = size - entry.counted, size
                    self._count(grown)

    def _count(self, grown: int) -> None:
        """Adds ``grown`` bytes, then evicts the least recently used entries, the
        one just served last, to the cap; under the lock."""
        self._bytes += grown
        while self._bytes > QUERY_CACHE_BYTES:
            _, old = self._entries.popitem(last=False)
            self._bytes -= QUERY_ENTRY_BYTES if old is None else old.counted


def _weight_norms(model: OperatorModel, query_points) -> np.ndarray:
    """The row norms of the recovery weights W at the query points acting on
    regressor outputs: of W @ output PCA basis, or of W itself."""
    W = recovery_weights(model.output_recovery, query_points)
    return np.linalg.norm(W if model.output_pca is None else W @ model.output_pca.basis, axis=1)


def _features(model: OperatorModel, X: np.ndarray) -> np.ndarray:
    """The feature map on rows of input values, folded: preconditioner, then input PCA."""
    M, offset = model._feature_map
    U = X if M is None else X @ M
    return U if offset is None else U - offset


def _predict(model: OperatorModel, X, query_points, *, std: bool = False):
    """The inference core: (B, n_input_points) rows of input values in grid
    order to (mean, std), each (B, n_query_points); std is None unless asked.
    The features are the folded X @ M - offset, and the regressor reads the
    mean and the variance off one kernel row per input row. On the model's own
    output grid the values are that kernel row times the folded A, plus a0,
    and the std factors are the grid norms, built only when a std is asked; no
    m x m weight matrix is read. Other query sets pay one recovery per row and
    one product with the set's cached parts (``QueryCache``), and, when std is
    asked, the set's weight row norms, built once per cached set.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = model.input_measurement.size
    if X.shape[1] != n or len(X) == 0:
        raise ValueError(f"input values must be one or more rows of {n} values, got shape {X.shape}")
    if not np.isfinite(X).all():
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))[0]
        raise ValueError(f"input row {bad} has a non-finite value")
    # the on-grid test only reshapes: as_query_points adds ~4 us to a 70 us burgers apply
    qp = np.asarray(query_points, dtype=float)
    qp = qp[:, None] if qp.ndim == 1 else qp
    rmap = model.output_recovery
    grid = rmap.measurement.points
    on_grid = qp.shape == grid.shape and np.array_equal(qp, grid)
    if not on_grid:
        qp = as_query_points(rmap, qp)  # before any build or solve, so a rejected set builds nothing
    U, reg = _features(model, X), model.regressor
    A, a0 = model._grid_mean if on_grid else (None, None)
    out, var = regression.posterior(reg, U, A) if std else (regression.predict(reg, U, A), None)
    if on_grid:
        mean, norms = (out if a0 is None else out + a0), (model._grid_norms if std else None)
    else:
        V = out if model.output_pca is None else reconstruct(model.output_pca, out)
        mean, norms = model._queries.serve(model, qp, rmap.coefficients(V), std)
    if not std:
        return mean, None
    return mean, np.sqrt(np.maximum(var, 0.0))[:, None] * norms


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
    if isinstance(rkhs_norm_bound, bool) or not (rkhs_norm_bound >= 0 and np.isfinite(rkhs_norm_bound)):
        raise ValueError(f"rkhs_norm_bound must be a finite number >= 0, got {rkhs_norm_bound!r}")
    s = regression.posterior_variance(model.regressor, _features(model, _row(model, u)))[0]
    return float(np.sqrt(model.regressor.output_dim * max(s, 0.0)) * rkhs_norm_bound)


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
    d = distances(pts)
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
    equal_grids = np.array_equal(input_grid, output_grid)
    default_q = q_kernel is None
    q_kernel = default_grid_kernel(input_grid) if default_q else q_kernel
    if k_kernel is None:  # equal grids have equal default kernels: one lengthscale serves both
        k_kernel = q_kernel if default_q and equal_grids else default_grid_kernel(output_grid)

    if preconditioner == "cholesky":
        L_in = cholesky_preconditioner(q_kernel, input_grid)
        same = q_kernel == k_kernel and equal_grids
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


def _read_binaries(directory: Path, manifest: dict) -> tuple[dict[str, np.ndarray], dict[str, Path]]:
    """Every binary a model reads, mapped, and its file, by manifest key: the
    ``arrays`` entries (the preconditioners when present; older models' training
    targets are not read), then the PCA sidecars, each read whole. Each distinct
    (file, shape) is mapped once, and every key that names it gets that one
    read-only array."""
    path, arrays, found, files, maps = directory / "manifest.json", manifest["arrays"], {}, {}, {}

    def read(key: str, entry: dict, shape: tuple) -> None:
        files[key] = file = manifest_file(directory, entry["file"])
        if (file, shape) not in maps:
            maps[file, shape] = read_array(file, shape)
        found[key] = maps[file, shape]

    for key in ("input_points", "output_points", "l_input", "l_output", "train_features", "coefficients",
                "gram_factor"):
        if key in arrays or not key.startswith("l_"):  # the preconditioners are optional
            with manifest_keys(path, f"arrays.{key}"):
                read(key, arrays[key], tuple(manifest_count(n) for n in arrays[key]["shape"]))
    for key in ("pca_input", "pca_output"):
        if manifest.get(key) is not None:
            with manifest_keys(path, key):
                d, k = manifest_count(manifest[key]["dim"]), manifest_count(manifest[key]["k"])
                read(key, manifest[key], (d + d * k,))
    return found, files


def _pca_to_files(write, name: str, p: PcaProjector | None) -> dict | None:
    # sidecar layout: mean (d floats) then basis (d*k floats, row-major)
    if p is None:
        return None
    return {
        "file": write(name, np.concatenate([p.mean, p.basis.ravel()]))["file"],
        "dim": p.dim,
        "k": p.k,
        "singular_values": p.singular_values.tolist(),
        "retained_fraction": p.retained_fraction,
        "achieved_fraction": p.achieved_fraction,
    }


def _pca_from_files(directory: Path, manifest: dict, key: str, blob: np.ndarray | None) -> PcaProjector | None:
    if blob is None:
        return None
    entry = manifest[key]
    with manifest_keys(directory / "manifest.json", key):
        d = entry["dim"]
        singular_values = np.array(entry["singular_values"], dtype=float)
        singular_values.flags.writeable = False  # like the mapped mean and basis
        return PcaProjector(
            mean=blob[:d],
            basis=blob[d:].reshape(d, entry["k"]),
            singular_values=singular_values,
            retained_fraction=float(entry["retained_fraction"]),
            achieved_fraction=float(entry["achieved_fraction"]),
        )


def save_model(model: OperatorModel, directory) -> None:
    """Persist the model as manifest.json plus raw little-endian f64 binaries.

    Each distinct array is written once: a key whose array is an earlier key's
    array, or has its shape and ``<f8`` C-order bytes, names the earlier key's
    file in the manifest (a fitted model's two L's are one object, and equal
    grids are one file). After the manifest is written, the files of this
    layout that it no longer names are removed, such as the ``l_output.bin`` and
    ``output_points.bin`` of a directory saved before equal arrays were shared."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []  # (data, manifest entry) of each file written

    def write(name: str, a: np.ndarray) -> dict:
        data = np.ascontiguousarray(a, dtype="<f8")
        for b, entry in written:
            if b is data or (b.shape == data.shape and np.array_equal(b.view("<u8"), data.view("<u8"))):
                return entry
        written.append((data, write_array(directory, name, data)))
        return written[-1][1]

    table = {
        "input_points": model.input_measurement.points,
        "output_points": model.output_measurement.points,
        "train_features": model.regressor.inputs,
        "coefficients": model.regressor.coef,
        "gram_factor": model.regressor.chol,
        "l_input": model.input_measurement.preconditioner,
        "l_output": model.output_measurement.preconditioner,
    }
    arrays = {k: write(f"{k}.bin", a) for k, a in table.items() if a is not None}
    pca = {k: _pca_to_files(write, f"{k}.bin", p) for k, p in (("pca_input", model.input_pca),
                                                               ("pca_output", model.output_pca))}
    write_manifest(directory, {
        "format_version": MODEL_FORMAT_VERSION,
        "s_kernel": model.regressor.kernel.to_config(),
        "q_kernel": model.input_recovery.kernel.to_config(),
        "k_kernel": model.output_recovery.kernel.to_config(),
        "gamma": model.regressor.gamma,
        "input_nugget": model.input_recovery.nugget,
        "output_nugget": model.output_recovery.nugget,
        **pca,
        "arrays": arrays,
    })
    named = {entry["file"] for _, entry in written}
    for name in {f"{k}.bin" for k in (*table, *pca)} - named:
        (directory / name).unlink(missing_ok=True)


def load_model(directory) -> OperatorModel:
    """Load a model directory written by save_model; older models' training targets are not read.

    The binaries are mapped read-only, each distinct (file, shape) once, so keys
    that name one file share one array, and every comparison and check below
    visits each distinct array once. Models that store equal arrays in files of
    their own load the same.
    A load whose manifest (compared by ``repr``, so that 1, 1.0 and true differ)
    and arrays equal those of the last successful load returns that load's
    model, with the parts and factors it has built, and checks nothing: its
    bytes equal bytes that passed the checks, and files are replaced, never
    rewritten in place (``data/container.py``), so a mapped array never changes
    under its model. Any other load checks every array but the regressor's
    factor finite in read order, naming the file, then the factor by the
    regressor's row check, then the grid points distinct, naming the key
    ``arrays.<side>_points`` (about 1 ms on the 14 MB darcy-cholesky model,
    which also faults in its pages)."""
    global _last_load
    directory = Path(directory)
    manifest, path = read_manifest(directory, MODEL_FORMAT_VERSION, "model"), directory / "manifest.json"
    with manifest_keys(path):
        (mapped, files), text, last = _read_binaries(directory, manifest), repr(manifest), _last_load
        distinct = {id(a): (k, a) for k, a in mapped.items()}.values()
        # an equal manifest names the same files and shapes; NaN equals nothing
        if last is not None and last[0] == text and all(np.array_equal(a, last[1][k]) for k, a in distinct):
            return last[2]
        s_kernel, q_kernel, k_kernel = (ScalarKernel.from_config(manifest[f"{k}_kernel"]) for k in "sqk")
        for k, a in distinct:  # the regressor checks its factor row by row
            if k != "gram_factor" and not np.isfinite(a).all():
                i = np.flatnonzero(~np.isfinite(a))[0]
                raise DatasetFormatError(f"{files[k]}: non-finite value {float(a.flat[i])!r} at flat index {i}")
        try:
            reg = regression.TrainedRegressor(kernel=s_kernel, inputs=mapped["train_features"], gamma=manifest["gamma"],
                                              coef=mapped["coefficients"], chol=mapped["gram_factor"])
        except OdlearnError as exc:  # the factor check; shapes and gamma raise ValueError
            raise DatasetFormatError(f"{files['gram_factor']}: {exc}") from exc
        ops = {}
        for side in ("input", "output"):
            with manifest_keys(path, f"arrays.{side}_points"):
                ops[side] = MeasurementOperator(mapped[f"{side}_points"], mapped.get(f"l_{side}"))
        model = OperatorModel(
            input_recovery=RecoveryMap(q_kernel, ops["input"], manifest["input_nugget"]),
            input_pca=_pca_from_files(directory, manifest, "pca_input", mapped.get("pca_input")),
            regressor=reg,
            output_pca=_pca_from_files(directory, manifest, "pca_output", mapped.get("pca_output")),
            output_recovery=RecoveryMap(k_kernel, ops["output"], manifest["output_nugget"]),
        )
    _last_load = (text, mapped, model)
    return model
