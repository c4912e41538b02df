"""Gaussian random field sampling by Karhunen-Loeve synthesis.

The covariance operator is scale * (-Laplacian + tau^2 I)^(-exponent) on the
unit interval (periodic) or the unit square (homogeneous Neumann). Fields are
synthesized mode by mode: independent normal coefficients with variance
scale * (lambda + tau^2)^(-exponent) against L2-orthonormal Laplacian
eigenfunctions, evaluated on the grid. The fields have mean zero.

Each sample draws its coefficients from its own PRNG substream derived from
(seed, sample index) via numpy's SeedSequence spawning, so sample i is
reproducible independently of how many samples are requested around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOUNDARIES = ("periodic1d", "neumann2d")


@dataclass(frozen=True)
class GaussianFieldSpec:
    """Spectral description of the sampled Gaussian field."""

    boundary: str            # "periodic1d" | "neumann2d"
    grid_size: int
    scale: float = 1.0       # overall covariance multiplier
    tau: float = 1.0         # shift: eigenvalue is scale*(lambda + tau^2)^(-exponent)
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if not (self.scale > 0 and self.tau > 0 and self.exponent > 0):
            raise ValueError("scale, tau and exponent must be positive")


def grid_points(spec: GaussianFieldSpec) -> np.ndarray:
    """Sampling grid: periodic 1D grid j/n on [0,1), or the closed unit square."""
    n = spec.grid_size
    if spec.boundary == "periodic1d":
        return (np.arange(n) / n)[:, None]
    xs = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def mode_table(spec: GaussianFieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenfunction values and coefficient variances of every mode the grid resolves.

    Returns (eigfuns, variances) with eigfuns of shape (n_modes, n_points):

    * periodic1d: the constant, then sqrt(2) sin(2 pi k x) / sqrt(2) cos(2 pi k x)
      pairs for k = 1, 2, ..., with Laplacian eigenvalue 4 pi^2 k^2;
    * neumann2d: products of 1 and sqrt(2) cos(pi k x) per axis, ordered by
      k1^2 + k2^2 (then k1, k2), with eigenvalue pi^2 (k1^2 + k2^2).
    """
    pts = grid_points(spec)
    if spec.boundary == "periodic1d":
        x = pts[:, 0]
        funs = [np.ones_like(x)]
        lams = [0.0]
        for k in range(1, (spec.grid_size - 1) // 2 + 1):
            funs.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * k * x))
            lams.append(4.0 * np.pi**2 * k**2)
            funs.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x))
            lams.append(4.0 * np.pi**2 * k**2)
    else:
        n = spec.grid_size
        xs = np.linspace(0.0, 1.0, n)
        axis = [np.ones_like(xs)] + [
            np.sqrt(2.0) * np.cos(np.pi * k * xs) for k in range(1, n)
        ]
        order = sorted(
            ((k1 * k1 + k2 * k2, k1, k2) for k1 in range(n) for k2 in range(n))
        )
        funs = [np.outer(axis[k1], axis[k2]).ravel() for _, k1, k2 in order]
        lams = [np.pi**2 * (k1 * k1 + k2 * k2) for _, k1, k2 in order]
    variances = spec.scale * (np.asarray(lams, dtype=float) + spec.tau**2) ** (-spec.exponent)
    return np.asarray(funs), variances


def substream(seed: int, index: int) -> np.random.Generator:
    """Deterministic per-sample generator derived from (seed, index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def sample_field_matrix(spec: GaussianFieldSpec, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` fields; rows are samples, columns follow grid_points(spec)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    eigfuns, variances = mode_table(spec)
    std = np.sqrt(variances)
    Z = np.empty((count, std.size))
    for i in range(count):
        Z[i] = substream(seed, i).standard_normal(std.size)
    return grid_points(spec), (Z * std) @ eigfuns
