"""Linear pointwise measurements and optimal-recovery interpolation.

A measurement operator turns a sampled function into the Euclidean vector
``L @ u(X)`` where X are collocation points and L an invertible preconditioner
(identity by default). A recovery map inverts that: given a measurement vector
it returns the minimum-RKHS-norm interpolant

    u(x) = k(x, X) G^-1 L^-1 U,      G = k(X, X) + nugget * I,

so that measuring the recovered function gives back U. The module also
provides the norm-equalizing preconditioner (``cholesky_preconditioner``) and
fill-distance computation.

Recovery maps are immutable data: what a map recovers through is built on its
first recovery and reused, so an unused map builds nothing. Without a
preconditioner that is the Cholesky factor of G, and every solve against G is
two LAPACK triangular solves (``dtrtrs``) on it. The factor is trusted, as it
was built from a checked matrix, so no request rescans it; the right-hand sides
are checked instead, and a non-finite measurement vector is a ValueError. Many
columns take LAPACK's blocked path and give the bits of ``potrs``; one column
takes the unblocked one, which differs only by rounding and costs less than
half as much. A preconditioned map builds no factor and keeps no kernel
matrix: it recovers through L alone, as G^-1 L^-1 = L for the map's own root
L G L = I (``cholesky_preconditioner`` at the map's nugget), which its first
recovery checks to the rounding that such a root carries; any other L, which
measuring still takes, is a ValueError there. ``cholesky_preconditioner``
builds that root from symmetric eigendecompositions: on a lattice, with a
stationary kernel, one per reflection-parity block of G, 2^d ``eigh`` calls of
about n / 2^d points each; on any other set one ``eigh`` of all n.

Evaluating the interpolant, k(q, X) @ C, builds the cross Gram in blocks,
except on a lattice query set: there it is an exact discrete convolution of C
with a stencil of kernel values, done by FFT (the structured-grid idea of
Saatci 2011 and of Wilson & Nickisch's KISS-GP, used without interpolation).
That path runs when the kernel is stationary; both point sets are C-ordered
tensor products of arithmetic progressions, with at least two points per axis,
to ``LATTICE_TOL`` of their extent; the query step equals the grid step on
every axis, to ``LATTICE_TOL`` of it; and the cross Gram would have at least
``LATTICE_MIN_ENTRIES`` entries; and C has few enough columns, each costing
two FFTs, that convolving is the cheaper path (``QuerySet.lattice_pair``).
Every other product takes the blocked dense path. A ``QuerySet`` is one query
set's preparation, applied to any C: it keeps the lattice pair and the FFT'd
stencil it builds and, when asked, the cross Gram's blocks, so that a caller
that meets a set again (the operator's per-model cache) pays only the product.
On the map's own points the row norms of the recovery weights have a closed
form (``on_grid_norms``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.lapack import dpotri, dtrtrs

from .errors import FactorizationError
from .kernels import ScalarKernel, as_points, distances, gram, gram_diag, stationary_gram

NUGGET_FACTOR = 1e-10  # default nugget = 1e-10 * mean(diag Gram)
# Lattice detection tolerance, relative to the point set's extent: 128 ulps. Grids
# from linspace and their midpoints or cell centres sit within about 1 ulp, and a
# point this far off moves the convolved result by about that much times |grad k|.
LATTICE_TOL = 128 * np.finfo(float).eps
# Cross-Gram entries from which QuerySet.evaluate convolves on lattices. Timeit,
# 1 BLAS thread: the two paths cross near 30k entries in 1-D and 2-D, and the
# lattice path won every case measured above this. Burgers' 128x128 stays dense.
LATTICE_MIN_ENTRIES = 65_536
# What a column of C costs on each path, in units of one cross-Gram entry built:
# its two FFTs cost LATTICE_FFT_COST per S log2 S, S the full convolution's size,
# and its product with the cross Gram LATTICE_PRODUCT_COST per entry. So a C of B
# columns convolves while B (FFT_COST S log2 S - PRODUCT_COST n_q n) <= n_q n: the
# FFTs grow with B, the blocked path pays its cross Gram once. Fitted to cold
# timings at 1 BLAS thread (2-vCPU x86-64, pocketfft): 0.12-0.21 and
# 0.006-0.011 on 1-D lattices of 400 and 1000 points and darcy's 28x28 cell
# centres on its 29x29 grid. Darcy's paths cross at 150-180 columns (the rule
# says 198); 1-D lattices convolve at any column count.
LATTICE_FFT_COST = 0.2
LATTICE_PRODUCT_COST = 0.006


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

    ``preconditioner=None`` means the identity. A recovery map recovers only
    through the root of its own kernel matrix (see ``RecoveryMap``).
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
    # rows are keyed by their bytes with -0.0 made 0.0, so they compare as floats, as above
    index = {(row + 0.0).tobytes(): i for i, row in enumerate(f.grid)}
    sel = np.empty(op.size, dtype=int)
    for i, row in enumerate(op.points):
        j = index.get((row + 0.0).tobytes())
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
    if isinstance(nugget, bool) or not (np.isfinite(nugget) and nugget >= 0):
        raise ValueError(f"nugget must be a finite number >= 0, got {nugget!r}")
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

    Without a preconditioner, the regularized kernel matrix G on the measurement
    points is assembled and Cholesky-factorized on first use. A preconditioned
    map builds no factor and keeps no kernel matrix: it recovers through its L
    once its first recovery has checked L G L = I (``_root``). Both are cached,
    and concurrent first uses at worst build equal ones twice.
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
    def _root(self) -> np.ndarray:
        """L, checked once to be the map's own root, so that G^-1 L^-1 = L:
        |L G L x - x| <= tol |x| for one seeded vector x, with K L x from
        ``QuerySet.evaluate``, so that no kernel matrix is kept (on a lattice it
        is a convolution). tol is 1e-8, or n eps |L|_1 |L|_inf tr(G) when that is
        larger: for a root, an upper bound on n eps cond(G), the order of
        rounding that ``cholesky_preconditioner``'s eigh-built L carries, from
        one eigh of G or, on a lattice, one of each of its 2^d parity blocks."""
        L, x = self.measurement.preconditioner, np.random.default_rng(0).standard_normal(self.size)
        Lx = L @ x
        residual = np.linalg.norm(L @ (QuerySet(self, self.measurement.points).evaluate(Lx) + self.nugget * Lx) - x)
        residual /= np.linalg.norm(x)
        absL = np.abs(L)
        trace = float(np.sum(gram_diag(self.kernel, self.measurement.points))) + self.size * self.nugget
        tol = max(1e-8, self.size * np.finfo(float).eps * absL.sum(0).max() * absL.sum(1).max() * trace)
        if not residual <= tol:  # a NaN residual fails too
            raise ValueError("preconditioner is not the root (K + nugget I)^-1/2 of its recovery map: "
                             f"|L G L x - x| / |x| = {residual:.3e} > {tol:.3e}")
        return L

    def coefficients(self, U) -> np.ndarray:
        """Representer coefficients c with recover(U) = sum_i c_i k(., X_i); a
        (B, m) batch of rows U gives one coefficient column per row."""
        U = np.asarray(U, dtype=float)
        U = U.ravel() if U.ndim != 2 else U
        if U.shape[-1] != self.size:
            raise ValueError(f"measurement vector has length {U.shape[-1]}, expected {self.size}")
        if not np.isfinite(U).all():
            raise ValueError("measurement vector must be finite")
        if self.measurement.preconditioner is not None:
            return self._root @ U.T
        return _gram_solve(self, U.T)


def _gram_solve(rmap: RecoveryMap, Y: np.ndarray) -> np.ndarray:
    """G^-1 Y, for a vector or a matrix of columns Y, by two triangular solves
    on the map's cached Cholesky factor. Neither operand is scanned: the
    factor was built from a checked matrix, and the caller checks Y."""
    c = rmap._factor[0]
    X, info = dtrtrs(c, Y, lower=1)
    if info == 0:
        X, info = dtrtrs(c, X, lower=1, trans=1, overwrite_b=1)
    if info != 0:
        raise FactorizationError(f"recovery solve failed with LAPACK info={info}; increase the nugget")
    return X


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
    return FunctionSamples(qp, QuerySet(rmap, qp).evaluate(rmap.coefficients(U)))


@dataclass(frozen=True, eq=False)
class QuerySet:
    """Query points of one recovery map, from ``as_query_points``, and what
    evaluating k(q, X) @ C there needs, each part built on its first need and
    kept: the lattice pair, the FFT'd kernel stencil of a lattice pair and, with
    ``keep_gram``, the cross Gram in 128-row blocks (n_q x n x 8 bytes). Which
    path a product takes is decided on every call, from the set's size, C's
    column count and the current ``LATTICE_MIN_ENTRIES`` (``lattice_pair``),
    and a kept part is what a rebuild gives, so a set evaluates to the same bits
    however many products it has served. Concurrent first needs at worst build
    equal parts twice."""

    rmap: RecoveryMap
    points: np.ndarray
    keep_gram: bool = False

    @cached_property
    def _lattices(self) -> tuple[_Lattice, _Lattice] | None:
        x = self.rmap._lattice
        q = _lattice_of(self.points) if x is not None else None
        if q is None or np.any(np.abs(q.step - x.step) > LATTICE_TOL * x.step):
            return None
        return q, x

    @cached_property
    def _stencil(self) -> np.ndarray:
        return _stencil(self.rmap.kernel, *self._lattices)

    @cached_property
    def _blocks(self) -> list[np.ndarray]:
        grid = self.rmap.measurement.points
        return [gram(self.rmap.kernel, self.points[i:i + 128], grid) for i in range(0, len(self.points), 128)]

    def lattice_pair(self, columns: int) -> tuple[_Lattice, _Lattice] | None:
        """The query lattice and the grid lattice when a product with ``columns``
        columns convolves (the conditions in the module docstring), else None."""
        entries = len(self.points) * self.rmap.size
        if self.rmap.kernel.family == "linear" or entries < LATTICE_MIN_ENTRIES or self._lattices is None:
            return None
        q, x = self._lattices
        size = math.prod(m + n - 1 for m, n in zip(q.shape, x.shape))
        per_column = LATTICE_FFT_COST * size * math.log2(size) - LATTICE_PRODUCT_COST * entries
        return self._lattices if columns * per_column <= entries else None

    def evaluate(self, C: np.ndarray) -> np.ndarray:
        """k(points, X) @ C for coefficients C from ``rmap.coefficients``: an FFT
        convolution of C, reshaped to the grid, with the kernel's values at the
        lattice offsets (``lattice_pair``), else the product with the kept
        blocks, or with ``keep_gram`` off ``_blocked_product``."""
        lattices = self.lattice_pair(C.shape[1] if C.ndim == 2 else 1)
        if lattices is not None:
            valid = _convolve(self._stencil, C.reshape(self.rmap.size, -1), *lattices)
            return valid.reshape(len(self.points), *C.shape[1:])
        if self.keep_gram:
            return np.concatenate([block @ C for block in self._blocks])
        return _blocked_product(self.rmap, C, self.points)

    @property
    def nbytes(self) -> int:
        """Bytes of the stencil and blocks kept so far (the points are the caller's)."""
        kept = vars(self)
        stencil = kept.get("_stencil")
        return (0 if stencil is None else stencil.nbytes) + sum(block.nbytes for block in kept.get("_blocks", ()))


def _blocked_product(rmap: RecoveryMap, C: np.ndarray, query_points: np.ndarray) -> np.ndarray:
    """k(query_points, X) @ C with the cross Gram built in 128-row blocks, whose
    temporaries the allocator reuses between calls; no block is kept."""
    grid = rmap.measurement.points
    blocks = range(0, len(query_points), 128)
    return np.concatenate([gram(rmap.kernel, query_points[i:i + 128], grid) @ C for i in blocks])


def _stencil(kernel: ScalarKernel, q: _Lattice, x: _Lattice) -> np.ndarray:
    """The real FFT of the kernel at every offset i - j of lattices q and x of one
    step (x's), on the grid of the full convolution."""
    d = len(x.shape)
    size = tuple(m + n - 1 for m, n in zip(q.shape, x.shape))
    r2 = 0.0
    for k in range(d):
        offset = q.origin[k] - x.origin[k] + (np.arange(size[k]) - (x.shape[k] - 1)) * x.step[k]
        r2 = r2 + (offset * offset).reshape((-1,) + (1,) * (d - 1 - k))
    return np.fft.rfftn(stationary_gram(kernel, np.sqrt(r2)), axes=tuple(range(d)))


def _convolve(stencil: np.ndarray, C: np.ndarray, q: _Lattice, x: _Lattice) -> np.ndarray:
    """k(q, x) @ C, (n_q, B), for lattices q and x of one step, from their ``_stencil``.

    k(q_i, x_j) depends only on i - j, so the product is the valid part of the
    convolution of C, on the grid, with the kernel at every offset i - j.
    """
    d, B = len(x.shape), C.shape[1]
    size = tuple(m + n - 1 for m, n in zip(q.shape, x.shape))
    axes = tuple(range(1, d + 1))
    full = np.fft.irfftn(np.fft.rfftn(C.T.reshape(B, *x.shape), s=size, axes=axes) * stencil, s=size, axes=axes)
    valid = full[(slice(None),) + tuple(slice(n - 1, n - 1 + m) for n, m in zip(x.shape, q.shape))]
    return valid.reshape(B, -1).T


def recovery_weights(rmap: RecoveryMap, query_points) -> np.ndarray:
    """Matrix W with recover(U)(query_points) = W @ U (rows indexed by query point)."""
    query_points = as_query_points(rmap, query_points)
    kq = gram(rmap.kernel, query_points, rmap.measurement.points)
    if rmap.measurement.preconditioner is not None:
        return kq @ rmap._root
    return _gram_solve(rmap, kq.T).T  # kernel values at checked points are finite


def on_grid_weights(rmap: RecoveryMap, R) -> np.ndarray:
    """W @ R for the recovery weights W at the map's own points, ``recovery_weights``
    at ``rmap.measurement.points``. Without a preconditioner it takes the exact
    form R - nugget * G^-1 R: at its own points the kernel matrix is
    G - nugget * I, so no kernel matrix is built. A preconditioned map builds
    no factor and gives K @ (L @ R) by ``_blocked_product``, so it keeps no
    kernel matrix either. It does not take ``QuerySet.evaluate``: on the map's
    own grid its column-count rule mispredicts, convolving up to 198 columns on
    darcy's 29x29 grid where the dense product is faster from about 150 (darcy's
    root L, one BLAS thread of a 2-vCPU Xeon, best of 5, stencil build included:
    100 columns 7.2 against 7.6 ms, 150 11.2 against 8.8, 198 14.5 against 9.4).
    R is one vector or a matrix of columns; a non-finite R is a ValueError."""
    if not np.isfinite(R).all():
        raise ValueError("right-hand side of the recovery solve is not finite")
    if rmap.measurement.preconditioner is not None:
        return _blocked_product(rmap, rmap._root @ R, rmap.measurement.points)
    Z = _gram_solve(rmap, R)
    Z *= -rmap.nugget  # in place: Z may be as large as the grid's kernel matrix
    Z += R
    return Z


def on_grid_norms(rmap: RecoveryMap) -> np.ndarray:
    """The row norms of the recovery weights W at the map's own points, in closed
    form. Without a preconditioner W = I - nugget G^-1, so |w_y|^2 is
    1 - 2 nugget (G^-1)_yy + nugget^2 |(G^-1)_y|^2, with G^-1 from ``dpotri`` on
    the map's factor. With the map's own root L (symmetric, L L = G^-1), W = K L
    and W W^T = K G^-1 K = G - 2 nugget I + nugget^2 G^-1, so |w_y|^2 is
    k(y, y) - nugget + nugget^2 |L_y|^2: one pass over L, no K L product."""
    lam = rmap.nugget
    if rmap.measurement.preconditioner is not None:
        L = rmap._root
        sq = gram_diag(rmap.kernel, rmap.measurement.points) - lam + lam * lam * (L * L).sum(axis=1)
    else:
        inv, info = dpotri(rmap._factor[0], lower=1)
        if info != 0:
            raise FactorizationError(f"recovery inverse failed with LAPACK info={info}; increase the nugget")
        T = np.tril(inv)  # dpotri fills the lower triangle only
        T *= T
        sq = 1.0 - 2.0 * lam * np.diag(inv) + lam * lam * (T.sum(axis=0) + T.sum(axis=1) - np.diag(T))
    return np.sqrt(np.clip(sq, 0.0, None))  # rounding may take a vanishing norm below 0


def cholesky_preconditioner(kernel: ScalarKernel, points, nugget: float | None = None) -> np.ndarray:
    """Norm-equalizing preconditioner L with L @ L.T = (Gram + nugget I)^-1.

    The returned factor is the symmetric inverse principal square root of the
    regularized kernel matrix. Symmetry makes the factor satisfy
    L.T @ L = G^-1 as well, so preconditioned measurement vectors carry the
    RKHS geometry: |L u(X)|^2 = u(X)^T G^-1 u(X), and measurement/recovery
    become norm-one maps on the span of the representers.

    L is built from the eigendecompositions of G's parity blocks. On a lattice
    (``_lattice_of``) a stationary kernel's G commutes with reversing each
    axis, so the orthogonal even/odd butterfly (x_i +- x_{n-1-i}) / sqrt(2)
    along every axis splits it into 2^d blocks of about n / 2^d points (225,
    210, 210 and 196 on a 29x29 grid): 2^d ``eigh`` calls of that size in place
    of one of n. By the same symmetry G's rows on the first half of every axis
    give the blocks, and L's rows there give the rest of L, so only those rows
    are built (a quarter of G in 2-D). Any other set, or the linear family, has
    no reversible axis and one block, G itself: one ``eigh`` of n, the former
    dense arithmetic. L comes out exactly symmetric.
    """
    points = as_points(points, "points")
    nugget = resolve_nugget(kernel, points, nugget)
    n, dim = points.shape
    lattice = None if kernel.family == "linear" else _lattice_of(points)
    shape = (n,) if lattice is None else lattice.shape
    pairs = (0,) if lattice is None else tuple(m // 2 for m in shape)  # x_i and x_{m-1-i}, i < pairs
    half = tuple(m - h for m, h in zip(shape, pairs))  # the pairs' first points, then the middle one
    head = tuple(slice(e) for e in half)
    flips = range(len(shape) if lattice else 0)  # the reversible axes
    d = len(shape)
    # G's first-half rows, each column axis k folded into even and odd sums at 1 + 2k:
    # (rows, 2, half_0, 2, half_1, ...) on a lattice, (n, n) on any other set
    T = gram(kernel, points.reshape(*shape, dim)[head].reshape(-1, dim), points).reshape(-1, *shape)
    for k in flips:
        T = _fold(T, 1 + 2 * k, half[k])
    blocks = T.reshape(*half, *T.shape[1:])  # a view of T, its rows on the half lattice
    # a middle point (odd length) is its own mirror image, so the folds count it twice:
    # its rows and columns take 1/sqrt(2) in G's blocks, and sqrt(2) in their roots.
    # It has no odd part: its odd column is 0 from the fold, and its odd row is set to 0
    middles = [((slice(None),) * k + (pairs[k],), (slice(None),) * (d + 2 * k + 1) + (pairs[k],),
                (slice(None),) * k + (pairs[k],) + (slice(None),) * (d - 1 + k) + (1,))
               for k in flips if shape[k] % 2]
    for row, col, odd_row in middles:
        blocks[row] *= math.sqrt(0.5)
        blocks[col] *= math.sqrt(0.5)
        blocks[odd_row] = 0.0
    scale = 0.5 ** len(flips)  # the butterflies' 1/sqrt(2), on rows and columns, that _unfold leaves out
    for parity in itertools.product(*[(0, 1) if h else (0,) for h in pairs]):
        block = tuple(slice(h) if p else slice(e) for p, h, e in zip(parity, pairs, half))
        cols = tuple(x for p, b in zip(parity, block) for x in ((p, b) if flips else (b,)))
        size = math.prod(b.stop for b in block)
        A = blocks[block + cols].reshape(size, size)  # a view or a copy: no other block reads it
        A[np.diag_indices(size)] += nugget
        w, V = np.linalg.eigh(A)
        if w.min() <= 0:
            raise FactorizationError(
                f"kernel matrix has nonpositive eigenvalue {w.min():.3e} after "
                f"nugget={nugget:.3e}; increase the nugget"
            )
        R = (V * (scale / np.sqrt(w))) @ V.T
        blocks[block + cols] = (0.5 * (R + R.T)).reshape(*[b.stop for b in block] * 2)
    for row, col, _ in middles:
        blocks[row] /= math.sqrt(0.5)
        blocks[col] /= math.sqrt(0.5)
    for k in reversed(flips):
        T = _unfold(T, 1 + 2 * k, shape[k])
    L = np.empty((n, n))
    full = L.reshape(*shape, *shape)
    full[head] = T.reshape(*half, *shape)
    for k in flips:  # the other rows by symmetry: L[mirror_k(y), x] = L[y, mirror_k(x)]
        above = (slice(None),) * k
        below = head[k + 1:] + (slice(None),) * d
        mirrored = (slice(None),) * (d + k) + (slice(None, None, -1),)
        source = full[above + (slice(pairs[k] - 1, None, -1),) + below]
        full[above + (slice(half[k], None),) + below] = source[mirrored]
    return L


def _fold(x: np.ndarray, axis: int, size: int) -> np.ndarray:
    """x with its ``axis`` replaced by two, (2, size): the sums and differences of
    its first ``size`` entries and its last ``size`` reversed. A middle entry is
    its own mirror image, so its difference is exactly 0."""
    out = np.empty(x.shape[:axis] + (2, size) + x.shape[axis + 1:])
    x, to = np.moveaxis(x, axis, 0), np.moveaxis(out, (axis, axis + 1), (0, 1))
    np.add(x[:size], x[::-1][:size], out=to[0])
    np.subtract(x[:size], x[::-1][:size], out=to[1])
    return out


def _unfold(x: np.ndarray, axis: int, length: int) -> np.ndarray:
    """The inverse of ``_fold`` up to a factor 2: the (2, size) axes at ``axis``
    become one of ``length`` entries, the first ``size`` the sums of the two and
    the last ``size``, reversed, their differences."""
    size = x.shape[axis + 1]
    out = np.empty(x.shape[:axis] + (length,) + x.shape[axis + 2:])
    x, to = np.moveaxis(x, (axis, axis + 1), (0, 1)), np.moveaxis(out, axis, 0)
    np.add(x[0], x[1], out=to[:size])
    np.subtract(x[0], x[1], out=to[::-1][:size])
    return out


def fill_distance(sample, domain_probe) -> float:
    """max over probe points of the distance to the nearest sample point."""
    S = as_points(sample, "sample")
    P = as_points(domain_probe, "domain_probe")
    if S.shape[1] != P.shape[1]:
        raise ValueError("sample and probe dimensions differ")
    return float(distances(P, S).min(axis=1).max())
