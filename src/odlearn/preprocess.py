"""PCA dimensionality reduction of measurement vectors.

Fitting centers the (N, d) sample matrix C by its column mean and keeps the
minimal number of components whose squared singular values reach the requested
variance fraction. Variance accounting uses squared singular values of the
centered matrix directly (the N-1 divisor cancels out of fractions).

Two paths give those singular values. With fewer samples than dimensions
(N < d) and a fraction below 1, fitting takes the eigendecomposition of the
N x N Gram C C^T (Sirovich's method of snapshots) and builds the basis only for
the kept directions, as C^T q_j / s_j. Otherwise, and whenever the last kept
eigenvalue is below ``GRAM_MIN_RATIO`` of the largest, it takes a thin singular
value decomposition of C: the Gram's eigenvalues carry an absolute error of
about eps * s_0^2, which would spoil the orthonormality of weak directions and
the numerical-rank rule a fraction of 1 relies on.

Sign convention: each basis column is flipped so its largest-magnitude entry
is positive, which makes serialized projectors reproducible. When singular
values tie, the first-computed order is kept; such degenerate subspaces are
not deterministic across BLAS implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRACTION_SLACK = 1e-12  # absorb roundoff exactly at the threshold
# Least s_k^2 / s_0^2 the Gram path keeps. Its basis is orthonormal to about
# 2.5 eps s_0^2 / s_k^2: at most 6.3e-11 at this ratio over flat and geometric
# spectra with N from 5 to 300, against 5.3e-10 at 1e-6.
GRAM_MIN_RATIO = 1e-5


@dataclass(frozen=True)
class PcaProjector:
    """Affine projector onto the leading principal subspace of a sample set."""

    mean: np.ndarray             # (d,)
    basis: np.ndarray            # (d, k), orthonormal columns
    singular_values: np.ndarray  # (k,), nonincreasing
    retained_fraction: float     # requested fraction in (0, 1]
    achieved_fraction: float     # variance fraction actually captured by k components

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]


def pca_fit(samples, retained_fraction: float) -> PcaProjector:
    """Fit a PCA projector keeping the minimal k that preserves the variance fraction."""
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("samples must be an (N, d) matrix with N >= 2")
    if isinstance(retained_fraction, bool) or not (0.0 < retained_fraction <= 1.0):
        raise ValueError(f"retained_fraction must be a number in (0, 1], got {retained_fraction!r}")
    mean = X.mean(axis=0)
    centered = X - mean
    kept = None
    if retained_fraction < 1.0 and X.shape[0] < X.shape[1]:
        kept = _kept_from_gram(centered, retained_fraction)
    basis, s, achieved = kept or _kept_from_svd(centered, retained_fraction)
    k = basis.shape[1]
    flip = np.sign(basis[np.abs(basis).argmax(axis=0), np.arange(k)])
    flip[flip == 0] = 1.0
    basis *= flip
    return PcaProjector(
        mean=mean,
        basis=basis,
        singular_values=s,
        retained_fraction=float(retained_fraction),
        achieved_fraction=achieved,
    )


def _kept_from_svd(centered: np.ndarray, retained_fraction: float):
    """(basis, singular values, achieved fraction) of the kept directions, by thin SVD."""
    _, s, Vt = np.linalg.svd(centered, full_matrices=False)
    total = float((s * s).sum())
    if total <= 0.0 or s[0] == 0.0:
        raise ValueError("samples are constant: zero total variance, nothing to project")
    # numerical rank: drop directions at roundoff level
    rank = int((s > s[0] * max(centered.shape) * np.finfo(float).eps).sum())
    cum = np.cumsum(s[:rank] ** 2) / total
    k = int(np.searchsorted(cum, retained_fraction - FRACTION_SLACK) + 1)
    k = min(k, rank)
    return Vt[:k].T.copy(), s[:k].copy(), float(cum[k - 1])


def _kept_from_gram(centered: np.ndarray, retained_fraction: float):
    """The same from the eigendecomposition of the N x N Gram, or None where the
    last kept eigenvalue is too weak for it (see ``GRAM_MIN_RATIO``)."""
    w, Q = np.linalg.eigh(centered @ centered.T)
    w, Q = w[::-1], Q[:, ::-1]  # nonincreasing, as the SVD orders them
    if not w[0] > 0.0:
        return None
    cum = np.cumsum(w) / w.sum()
    k = min(int(np.searchsorted(cum, retained_fraction - FRACTION_SLACK) + 1), w.size)
    if w[k - 1] < GRAM_MIN_RATIO * w[0]:
        return None
    s = np.sqrt(w[:k])
    return centered.T @ Q[:, :k] / s, s, float(cum[k - 1])


def project(p: PcaProjector, x) -> np.ndarray:
    """Coordinates of x in the principal subspace: basis.T @ (x - mean).

    Accepts a single d-vector or an (N, d) batch.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.dim:
        raise ValueError(f"expected vectors of dimension {p.dim}, got {x.shape[-1]}")
    return (x - p.mean) @ p.basis


def reconstruct(p: PcaProjector, z) -> np.ndarray:
    """Inverse of project on the subspace: mean + basis @ z."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != p.k:
        raise ValueError(f"expected coefficient vectors of length {p.k}, got {z.shape[-1]}")
    return z @ p.basis.T + p.mean
