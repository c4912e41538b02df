"""Relative-L2 test error and inference FLOPs accounting.

The error metric averages per-sample ratios of discretized L2 norms (error
over truth), with trapezoidal quadrature weights in 1D, tensor-product
trapezoid weights on 2D grids, or plain Euclidean norms. The FLOPs counter is
a pure function of the model shapes: it walks the inference pipeline stage by
stage and applies fixed counting conventions that are spelled out in the
report itself, so cost-accuracy curves stay comparable across conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import as_points
from .operator import OperatorModel

QUADRATURES = ("trapezoid1d", "trapezoid2d", "euclidean")

KERNEL_EVAL_FLOPS_PER_COORD = 3

ASSUMPTIONS_NOTE = (
    "Counting conventions: a matrix-vector product with input dimension n and "
    "output dimension m costs m*(2n-1) FLOPs (n multiplies, n-1 adds per "
    "output); one scalar kernel evaluation against an n-dimensional vector "
    f"costs {KERNEL_EVAL_FLOPS_PER_COORD}*n FLOPs ({KERNEL_EVAL_FLOPS_PER_COORD} "
    "per coordinate: subtract, square, accumulate, with the O(1) tail "
    "absorbed); PCA centering and de-centering cost one add per coordinate. "
    "Some published counts use other matvec conventions (e.g. 2n per output, "
    "or omitting the kernel-evaluation constant)."
)


@dataclass(frozen=True)
class ErrorReport:
    """Per-sample relative L2 errors and their mean."""

    mean_relative_l2: float
    per_sample: np.ndarray
    n_samples: int
    quadrature: str


@dataclass(frozen=True)
class FlopsReport:
    """Deterministic per-query FLOPs count with a labeled stage breakdown."""

    per_query_flops: int
    breakdown: tuple[tuple[str, int], ...]
    assumptions_note: str


def _trapezoid_weights_1d(x: np.ndarray) -> np.ndarray:
    if x.size < 2:
        raise ValueError("trapezoid quadrature needs at least 2 grid points")
    if not np.all(np.diff(x) > 0):
        raise ValueError("trapezoid quadrature needs a strictly increasing grid")
    w = np.empty_like(x)
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    if x.size > 2:
        w[1:-1] = (x[2:] - x[:-2]) / 2.0
    return w


def quadrature_weights(grid, quadrature: str) -> np.ndarray:
    """Per-point quadrature weights for the given grid."""
    if quadrature not in QUADRATURES:
        raise ValueError(f"quadrature must be one of {QUADRATURES}, got {quadrature!r}")
    pts = as_points(grid, "grid")
    if quadrature == "euclidean":
        return np.ones(pts.shape[0])
    if quadrature == "trapezoid1d":
        if pts.shape[1] != 1:
            raise ValueError("trapezoid1d needs a 1-d grid")
        return _trapezoid_weights_1d(pts[:, 0])
    if pts.shape[1] != 2:
        raise ValueError("trapezoid2d needs a 2-d grid")
    xs = np.unique(pts[:, 0])
    ys = np.unique(pts[:, 1])
    if xs.size * ys.size != pts.shape[0]:
        raise ValueError("trapezoid2d needs a full tensor-product grid")
    wx = _trapezoid_weights_1d(xs)
    wy = _trapezoid_weights_1d(ys)
    ix = np.searchsorted(xs, pts[:, 0])
    iy = np.searchsorted(ys, pts[:, 1])
    if not (np.array_equal(xs[ix], pts[:, 0]) and np.array_equal(ys[iy], pts[:, 1])):
        raise ValueError("grid points do not lie on the tensor product of their coordinates")
    return wx[ix] * wy[iy]


def relative_l2(predictions, truths, grid, quadrature: str = "euclidean") -> ErrorReport:
    """Mean of per-sample relative L2 errors over a batch of samples.

    Each per-sample value is sqrt(quad((pred-truth)^2)) / sqrt(quad(truth^2));
    a truth sample that is identically zero is an error, reported by index.
    """
    P = np.atleast_2d(np.asarray(predictions, dtype=float))
    T = np.atleast_2d(np.asarray(truths, dtype=float))
    if P.shape != T.shape:
        raise ValueError(f"predictions shape {P.shape} != truths shape {T.shape}")
    w = quadrature_weights(grid, quadrature)
    if P.shape[1] != w.size:
        raise ValueError(f"samples have {P.shape[1]} values but grid has {w.size} points")
    num = np.sqrt(((P - T) ** 2) @ w)
    den_sq = (T ** 2) @ w
    zero = np.flatnonzero(den_sq == 0)
    if zero.size:
        raise ValueError(f"truth sample {int(zero[0])} has zero norm; relative error undefined")
    per_sample = num / np.sqrt(den_sq)
    return ErrorReport(
        mean_relative_l2=float(per_sample.mean()),
        per_sample=per_sample,
        n_samples=P.shape[0],
        quadrature=quadrature,
    )


def _matvec_flops(n_in: int, n_out: int) -> int:
    return n_out * (2 * n_in - 1)


def count_inference_flops(model: OperatorModel, output_query_count: int) -> FlopsReport:
    """Closed-form FLOPs per test query for the assembled pipeline.

    Stages: input preconditioner matvec (when present), input PCA projection,
    the kernel row against all training features, the regression matvec, the
    output PCA reconstruction (when present), and the output-recovery matvec
    for the requested number of query points. The count depends only on the
    model shapes. On the model's own output grid serving does exactly the
    counted output matvec. Off-grid queries also pay, uncounted, one recovery
    solve per sample and the kernel values of the cross Gram; on a lattice
    query set (see ``recovery``) the cross-Gram product is instead an FFT
    convolution, O(L log L) per sample for the padded lattice size L, in place
    of the counted matvec.
    """
    if output_query_count < 0:
        raise ValueError("output_query_count must be nonnegative")
    breakdown: list[tuple[str, int]] = []
    n_pts = model.input_measurement.size
    m_pts = model.output_measurement.size
    if model.input_measurement.preconditioner is not None:
        breakdown.append(("input_measurement_matvec", _matvec_flops(n_pts, n_pts)))
    if model.input_pca is not None:
        k = model.input_pca.k
        breakdown.append(("input_pca_projection", n_pts + _matvec_flops(n_pts, k)))
    n = model.regressor.input_dim
    N = model.regressor.n_train
    breakdown.append(("kernel_row_evaluation", N * KERNEL_EVAL_FLOPS_PER_COORD * n))
    m_reg = model.regressor.output_dim
    breakdown.append(("regression_matvec", _matvec_flops(N, m_reg)))
    if model.output_pca is not None:
        breakdown.append(("output_pca_reconstruction", _matvec_flops(m_reg, m_pts) + m_pts))
    breakdown.append(("output_reconstruction_matvec", _matvec_flops(m_pts, int(output_query_count))))
    return FlopsReport(
        per_query_flops=int(sum(v for _, v in breakdown)),
        breakdown=tuple(breakdown),
        assumptions_note=ASSUMPTIONS_NOTE,
    )
