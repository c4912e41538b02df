"""Linear pointwise measurements and optimal-recovery interpolation.

A measurement operator turns a sampled function into the Euclidean vector
``L @ u(X)`` where X are collocation points and L an invertible preconditioner
(identity by default). A recovery map inverts that: given a measurement vector
it returns the minimum-RKHS-norm interpolant

    u(x) = k(x, X) G^-1 L^-1 U,      G = k(X, X) + nugget * I,

so that measuring the recovered function gives back U. The module also
provides the norm-equalizing preconditioner (``cholesky_preconditioner``) and
fill-distance computation.

Recovery maps are immutable data: the regularized kernel matrix is factorized
on the first recovery and reused, so an unused map costs no factorization.

Evaluating the interpolant, k(q, X) @ C, builds the cross Gram in blocks,
except on a lattice query set: there it is an exact discrete convolution of C
with a stencil of kernel values, done by FFT (the structured-grid idea of
Saatci 2011 and of Wilson & Nickisch's KISS-GP, used without interpolation).
That path runs when the kernel is stationary; both point sets are C-ordered
tensor products of arithmetic progressions, with at least two points per axis,
to ``LATTICE_TOL`` of their extent; the query step equals the grid step on
every axis, to ``LATTICE_TOL`` of it; and the cross Gram would have at least
``LATTICE_MIN_ENTRIES`` entries. Every other query set takes the blocked dense
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, lu_factor, lu_solve
from scipy.spatial.distance import cdist

from .errors import FactorizationError
from .kernels import ScalarKernel, as_points, gram, gram_diag, stationary_gram

NUGGET_FACTOR = 1e-10  # default nugget = 1e-10 * mean(diag Gram)
# Lattice detection tolerance, relative to the point set's extent: 128 ulps. Grids
# from linspace and their midpoints or cell centres sit within about 1 ulp, and a
# point this far off moves the convolved result by about that much times |grad k|.
LATTICE_TOL = 128 * np.finfo(float).eps
# Cross-Gram entries from which evaluate convolves on lattices. Timeit, 1 BLAS
# thread: the two paths cross near 30k entries in 1-D and 2-D, and the lattice
# path won every case measured above this. Burgers' 128x128 stays dense.
LATTICE_MIN_ENTRIES = 65_536


@dataclass(frozen=True)
class FunctionSamples:
    """A function known through its values on a finite grid of points."""

    grid: np.ndarray    # (n_points, dim)
    values: np.ndarray  # (n_points,)

    def __post_init__(self) -> None:
        grid = as_points(self.grid, "grid")
        values = np.asarray(self.values, dtype=float).ravel()
        if values.shape[0] != grid.shape[0]:
            raise ValueError(
                f"values length {values.shape[0]} != grid length {grid.shape[0]}"
            )
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MeasurementOperator:
    """Collocation points plus an invertible preconditioner: phi(u) = L @ u(X).

    ``preconditioner=None`` means the identity.
    """

    points: np.ndarray
    preconditioner: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = as_points(self.points, "points")
        n = pts.shape[0]
        if len(np.unique(pts, axis=0)) < n:  # rows compare as floats, so -0.0 == 0.0
            raise ValueError("collocation points must be pairwise distinct")
        object.__setattr__(self, "points", pts)
        if self.preconditioner is not None:
            L = np.asarray(self.preconditioner, dtype=float)
            if L.shape != (n, n):
                raise ValueError(f"preconditioner must be {n}x{n}, got {L.shape}")
            object.__setattr__(self, "preconditioner", L)

    @property
    def size(self) -> int:
        return self.points.shape[0]


def restrict(op: MeasurementOperator, f: FunctionSamples) -> np.ndarray:
    """Values of f at op.points, in their order (read-only: may share f's buffer).

    The function must supply values at exactly the operator's points (same
    order) or on a grid containing them with exact coordinate equality; no
    nearest-neighbor snapping is performed.
    """
    if f.grid.shape == op.points.shape and np.array_equal(f.grid, op.points):
        return f.values
    if f.grid.shape[1] != op.points.shape[1]:
        raise ValueError(
            f"grid dimension {f.grid.shape[1]} != measurement dimension {op.points.shape[1]}"
        )
    index = {row.tobytes(): i for i, row in enumerate(f.grid)}
    sel = np.empty(op.size, dtype=int)
    for i, row in enumerate(op.points):
        j = index.get(row.tobytes())
        if j is None:
            raise ValueError(f"function grid has no value at measurement point {row.tolist()}")
        sel[i] = j
    return f.values[sel]


def measure(op: MeasurementOperator, f: FunctionSamples) -> np.ndarray:
    """Apply the measurement operator: restrict f to op.points, then apply L."""
    vals = restrict(op, f)
    return vals.copy() if op.preconditioner is None else op.preconditioner @ vals


def resolve_nugget(kernel: ScalarKernel, points, nugget: float | None = None) -> float:
    """``nugget``, or by default 1e-10 times the mean kernel diagonal on the points."""
    if nugget is None:
        nugget = NUGGET_FACTOR * float(np.mean(gram_diag(kernel, points)))
    if nugget < 0:
        raise ValueError("nugget must be nonnegative")
    return float(nugget)


@dataclass(frozen=True)
class _Lattice:
    """The points origin + i * step, i running over the C-ordered indices of shape."""

    origin: np.ndarray
    step: np.ndarray
    shape: tuple[int, ...]


def _lattice_of(points: np.ndarray) -> _Lattice | None:
    """The lattice that the points are, to LATTICE_TOL of their extent, or None;
    every axis has at least two points and a positive step."""
    n, d = points.shape
    first, last = points[0], points[-1]
    extent = float(np.max(last - first))
    if not extent > 0:
        return None
    tol = LATTICE_TOL * extent
    shape: list[int] = []
    stride = 1  # points per step along the axis; the last axis varies fastest
    for k in reversed(range(d)):
        rise = points[min(stride, n - 1), k] - first[k]
        if not rise > tol:
            return None
        count = round((last[k] - first[k]) / rise) + 1
        if stride * count > n:
            return None
        shape.insert(0, count)
        stride *= count
    if stride != n:
        return None
    step = (last - first) / (np.array(shape) - 1)
    ideal = first + np.indices(shape).reshape(d, n).T * step
    return _Lattice(first, step, tuple(shape)) if np.abs(ideal - points).max() <= tol else None


@dataclass(frozen=True)
class RecoveryMap:
    """Optimal-recovery interpolant factory for one kernel/measurement pair.

    The kernel matrix on the measurement points is assembled and
    Cholesky-factorized on first use, as is the LU factor of a preconditioner;
    both are cached, and concurrent first uses at worst compute equal factors twice.
    """

    kernel: ScalarKernel
    measurement: MeasurementOperator
    nugget: float | None = None

    def __post_init__(self) -> None:
        nugget = resolve_nugget(self.kernel, self.measurement.points, self.nugget)
        object.__setattr__(self, "nugget", nugget)

    @cached_property
    def _lattice(self) -> _Lattice | None:
        return _lattice_of(self.measurement.points)

    @cached_property
    def _factor(self) -> tuple:
        G = gram(self.kernel, self.measurement.points)
        try:
            return cho_factor(G + self.nugget * np.eye(G.shape[0]), lower=True)
        except LinAlgError as exc:
            raise FactorizationError(
                "kernel matrix is numerically singular even after adding "
                f"nugget={self.nugget:.3e}; increase the nugget"
            ) from exc

    @property
    def size(self) -> int:
        return self.measurement.size

    @cached_property
    def _preconditioner_lu(self) -> tuple:
        return lu_factor(self.measurement.preconditioner)

    def coefficients(self, U) -> np.ndarray:
        """Representer coefficients c with recover(U) = sum_i c_i k(., X_i); a
        (B, m) batch of rows U gives one coefficient column per row."""
        U = np.asarray(U, dtype=float)
        U = U.ravel() if U.ndim != 2 else U
        if U.shape[-1] != self.size:
            raise ValueError(f"measurement vector has length {U.shape[-1]}, expected {self.size}")
        w = U.T
        if self.measurement.preconditioner is not None:
            w = lu_solve(self._preconditioner_lu, w)
        return cho_solve(self._factor, w)


def as_query_points(rmap: RecoveryMap, query_points) -> np.ndarray:
    """``as_points`` of the query points, of the dimension of the map's grid."""
    qp = as_points(query_points, "query_points")
    d = rmap.measurement.points.shape[1]
    if qp.shape[1] != d:
        raise ValueError(f"query_points are {qp.shape[1]}-d but the output grid is {d}-d")
    return qp


def recover(rmap: RecoveryMap, U, query_points) -> FunctionSamples:
    """Evaluate the minimum-norm interpolant of the measurement vector U.

    Raises FactorizationError, on the map's first use, if the kernel matrix
    cannot be factorized; measuring the result returns U up to the
    nugget-level error.
    """
    qp = as_query_points(rmap, query_points)
    return FunctionSamples(qp, evaluate(rmap, rmap.coefficients(U), qp))


def evaluate(rmap: RecoveryMap, C: np.ndarray, query_points: np.ndarray) -> np.ndarray:
    """k(query_points, X) @ C for coefficients C from ``rmap.coefficients`` and
    query points from ``as_query_points``.

    On a lattice query set that meets the conditions in the module docstring,
    the product is an FFT convolution of C, reshaped to the grid, with the
    kernel's values at the lattice offsets. Otherwise the cross Gram is built
    in 128-row blocks, whose temporaries the allocator reuses between calls.
    """
    grid = rmap.measurement.points
    lattices = _lattice_pair(rmap, query_points)
    if lattices is not None:
        return _convolve(rmap.kernel, C.reshape(len(grid), -1), *lattices).reshape(len(query_points), *C.shape[1:])
    blocks = range(0, len(query_points), 128)
    return np.concatenate([gram(rmap.kernel, query_points[i:i + 128], grid) @ C for i in blocks])


def _lattice_pair(rmap: RecoveryMap, qp: np.ndarray) -> tuple[_Lattice, _Lattice] | None:
    """The query lattice and the grid lattice when evaluate convolves (the
    conditions in the module docstring), else None."""
    if rmap.kernel.family == "linear" or len(qp) * rmap.size < LATTICE_MIN_ENTRIES:
        return None
    x = rmap._lattice
    q = _lattice_of(qp) if x is not None else None
    if q is None or np.any(np.abs(q.step - x.step) > LATTICE_TOL * x.step):
        return None
    return q, x


def _convolve(kernel: ScalarKernel, C: np.ndarray, q: _Lattice, x: _Lattice) -> np.ndarray:
    """k(q, x) @ C, (n_q, B), for lattices q and x of one step (x's).

    k(q_i, x_j) depends only on i - j, so the product is the valid part of the
    convolution of C, on the grid, with the kernel at every offset i - j.
    """
    d, B = len(x.shape), C.shape[1]
    size = tuple(m + n - 1 for m, n in zip(q.shape, x.shape))
    r2 = 0.0
    for k in range(d):
        offset = q.origin[k] - x.origin[k] + (np.arange(size[k]) - (x.shape[k] - 1)) * x.step[k]
        r2 = r2 + (offset * offset).reshape((-1,) + (1,) * (d - 1 - k))
    stencil = np.fft.rfftn(stationary_gram(kernel, np.sqrt(r2)), axes=tuple(range(d)))
    axes = tuple(range(1, d + 1))
    full = np.fft.irfftn(np.fft.rfftn(C.T.reshape(B, *x.shape), s=size, axes=axes) * stencil, s=size, axes=axes)
    valid = full[(slice(None),) + tuple(slice(n - 1, n - 1 + m) for n, m in zip(x.shape, q.shape))]
    return valid.reshape(B, -1).T


def recovery_weights(rmap: RecoveryMap, query_points) -> np.ndarray:
    """Matrix W with recover(U)(query_points) = W @ U (rows indexed by query point)."""
    query_points = as_query_points(rmap, query_points)
    kq = gram(rmap.kernel, query_points, rmap.measurement.points)
    W = cho_solve(rmap._factor, kq.T).T
    if rmap.measurement.preconditioner is not None:
        W = lu_solve(rmap._preconditioner_lu, W.T, trans=1).T
    return W


def cholesky_preconditioner(kernel: ScalarKernel, points, nugget: float | None = None) -> np.ndarray:
    """Norm-equalizing preconditioner L with L @ L.T = (Gram + nugget I)^-1.

    The returned factor is the symmetric inverse principal square root of the
    regularized kernel matrix. Symmetry makes the factor satisfy
    L.T @ L = G^-1 as well, so preconditioned measurement vectors carry the
    RKHS geometry: |L u(X)|^2 = u(X)^T G^-1 u(X), and measurement/recovery
    become norm-one maps on the span of the representers.
    """
    G = gram(kernel, points)
    nugget = resolve_nugget(kernel, points, nugget)
    A = G + nugget * np.eye(G.shape[0])
    w, V = np.linalg.eigh(A)
    if w.min() <= 0:
        raise FactorizationError(
            f"kernel matrix has nonpositive eigenvalue {w.min():.3e} after "
            f"nugget={nugget:.3e}; increase the nugget"
        )
    L = (V * (1.0 / np.sqrt(w))) @ V.T
    return 0.5 * (L + L.T)


def fill_distance(sample, domain_probe) -> float:
    """max over probe points of the distance to the nearest sample point."""
    S = as_points(sample, "sample")
    P = as_points(domain_probe, "domain_probe")
    if S.shape[1] != P.shape[1]:
        raise ValueError("sample and probe dimensions differ")
    return float(cdist(P, S).min(axis=1).max())
