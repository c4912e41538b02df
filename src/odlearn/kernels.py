"""Scalar positive-definite kernels on Euclidean vectors.

Four families are supported:

* ``linear``    -- k(x, y) = <x, y>, no hyperparameters.
* ``rq``        -- rational quadratic, k(r) = (1 + r^2 / (2 l^2))^(-alpha).
* ``matern``    -- half-integer Matern with nu in {1/2, 3/2, 5/2, 7/2},
  evaluated through the explicit finite sum

      k(r) = exp(-sqrt(2 nu) r / l) * p!/(2p)!
             * sum_{i=0..p} (p+i)! / (i! (p-i)!) * (sqrt(8 nu) r / l)^(p-i)

  with p = nu - 1/2; the polynomial coefficients are precomputed once per
  kernel instance.
* ``gaussian``  -- squared exponential, k(r) = exp(-r^2 / (2 l^2)); kept as a
  separate family because no finite Matern sum represents the smooth limit.

All stationary families act on the Euclidean distance r = |x - y| of the
(possibly preconditioned) measurement vectors. Every value is multiplied by a
global ``output_scale`` (default 1).

Kernel objects are immutable and safe to share across threads; ``gram`` is a
pure function, so callers may parallelize over rows if they wish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

FAMILIES = ("linear", "rq", "matern", "gaussian")
MATERN_NUS = (0.5, 1.5, 2.5, 3.5)


def _matern_poly_coeffs(nu: float) -> tuple[float, ...]:
    """Coefficients of the Matern sum, highest power of t = sqrt(8 nu) r / l first."""
    p = int(round(nu - 0.5))
    pref = math.factorial(p) / math.factorial(2 * p)
    return tuple(
        pref * math.factorial(p + i) / (math.factorial(i) * math.factorial(p - i))
        for i in range(p + 1)
    )


@dataclass(frozen=True)
class ScalarKernel:
    """Parameterized positive-definite kernel on Euclidean vectors.

    Parameters
    ----------
    family : str
        One of ``"linear" | "rq" | "matern" | "gaussian"``.
    lengthscale : float, optional
        Positive lengthscale l; required for every family except linear.
    alpha : float, optional
        Positive exponent of the rational quadratic family.
    nu : float, optional
        Matern smoothness, restricted to half-integers 0.5, 1.5, 2.5, 3.5.
    output_scale : float
        Positive multiplier applied to every kernel value (default 1).
    """

    family: str
    lengthscale: float | None = None
    alpha: float | None = None
    nu: float | None = None
    output_scale: float = 1.0
    _matern_coeffs: tuple[float, ...] = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        for name in ("lengthscale", "alpha", "nu", "output_scale"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"kernel {name} must be a number, got {getattr(self, name)!r}")
        if not (self.output_scale > 0):
            raise ValueError("output_scale must be positive")
        if self.family == "linear":
            if self.lengthscale is not None:
                raise ValueError("linear kernel takes no lengthscale")
            return
        if self.lengthscale is None or not (self.lengthscale > 0):
            raise ValueError(f"{self.family} kernel needs a positive lengthscale")
        if self.family == "rq":
            if self.alpha is None or not (self.alpha > 0):
                raise ValueError("rq kernel needs a positive alpha")
        if self.family == "matern":
            if self.nu not in MATERN_NUS:
                raise ValueError(f"matern nu must be one of {MATERN_NUS}, got {self.nu}")
            object.__setattr__(self, "_matern_coeffs", _matern_poly_coeffs(self.nu))

    # -- constructors ------------------------------------------------------

    @classmethod
    def linear(cls, output_scale: float = 1.0) -> "ScalarKernel":
        return cls("linear", output_scale=output_scale)

    @classmethod
    def rq(cls, lengthscale: float, alpha: float, output_scale: float = 1.0) -> "ScalarKernel":
        return cls("rq", lengthscale=lengthscale, alpha=alpha, output_scale=output_scale)

    @classmethod
    def matern(cls, nu: float, lengthscale: float, output_scale: float = 1.0) -> "ScalarKernel":
        return cls("matern", lengthscale=lengthscale, nu=nu, output_scale=output_scale)

    @classmethod
    def gaussian(cls, lengthscale: float, output_scale: float = 1.0) -> "ScalarKernel":
        return cls("gaussian", lengthscale=lengthscale, output_scale=output_scale)

    # -- config round trip -------------------------------------------------

    @classmethod
    def from_config(cls, cfg: dict) -> "ScalarKernel":
        """Build a kernel from its JSON config form, e.g.
        ``{"family": "matern", "nu": 2.5, "lengthscale": 1.0, "output_scale": 1.0}``."""
        known = {"family", "lengthscale", "alpha", "nu", "output_scale"}
        extra = set(cfg) - known
        if extra:
            raise ValueError(f"unknown kernel config keys: {sorted(extra)}")
        if "family" not in cfg:
            raise ValueError("kernel config needs a 'family' key")
        return cls(
            cfg["family"],
            lengthscale=cfg.get("lengthscale"),
            alpha=cfg.get("alpha"),
            nu=cfg.get("nu"),
            output_scale=cfg.get("output_scale", 1.0),
        )

    def to_config(self) -> dict:
        cfg: dict = {"family": self.family, "output_scale": self.output_scale}
        if self.lengthscale is not None:
            cfg["lengthscale"] = self.lengthscale
        if self.alpha is not None:
            cfg["alpha"] = self.alpha
        if self.nu is not None:
            cfg["nu"] = self.nu
        return cfg

    # -- evaluation --------------------------------------------------------

    def stationary_value(self, r):
        """Kernel value (without output_scale) at distance r; r may be an array."""
        if self.family == "linear":
            raise ValueError("linear kernel is not stationary")
        l = self.lengthscale
        r = np.asarray(r, dtype=float)
        if self.family == "gaussian":
            return np.exp(-(r * r) / (2.0 * l * l))
        if self.family == "rq":
            return (1.0 + r * r / (2.0 * l * l)) ** (-self.alpha)
        t = (math.sqrt(8.0 * self.nu) / l) * r
        y = np.zeros_like(t)
        for c in self._matern_coeffs:  # np.polyval's Horner steps, without its temporaries
            y *= t
            y += c
        y *= np.exp(-(math.sqrt(2.0 * self.nu) / l) * r)
        return y


def as_points(X, name: str) -> np.ndarray:
    """Points as a nonempty, finite (n, dim) array, a 1-D array being n points on a line:
    the one reading of grids, query points, and regression features and targets."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty list of vectors")
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    return X


def eval_kernel(kernel: ScalarKernel, x, y) -> float:
    """Evaluate k(x, y) for a single pair of equal-dimension vectors."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size or x.size == 0:
        raise ValueError(f"dimension mismatch: |x|={x.size}, |y|={y.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite input coordinates")
    if kernel.family == "linear":
        return kernel.output_scale * float(np.dot(x, y))
    r = float(np.linalg.norm(x - y))
    return kernel.output_scale * float(kernel.stationary_value(r))


def gram(kernel: ScalarKernel, X, Y=None) -> np.ndarray:
    """Pairwise kernel matrix with entries (i, j) = k(X_i, Y_j).

    ``Y=None`` means ``Y = X``; the result is then symmetric positive
    semidefinite up to roundoff.
    """
    X = as_points(X, "X")
    if Y is None:
        Y = X
    else:
        Y = as_points(Y, "Y")
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch: X is {X.shape[1]}-d, Y is {Y.shape[1]}-d")
    if kernel.family == "linear":
        return kernel.output_scale * (X @ Y.T)
    return stationary_gram(kernel, cdist(X, Y))


def stationary_gram(kernel: ScalarKernel, distances) -> np.ndarray:
    """Kernel matrix of a stationary kernel from a matrix of pairwise distances.

    ``gram`` evaluates every stationary kernel through this formula, so a
    caller that computes the distances once and reuses them across kernels
    gets bitwise the matrices ``gram`` would build.
    """
    return kernel.output_scale * kernel.stationary_value(distances)


def gram_diag(kernel: ScalarKernel, X) -> np.ndarray:
    """Vector of k(X_i, X_i) values, cheaper than diag(gram(k, X))."""
    X = as_points(X, "X")
    if kernel.family == "linear":
        return kernel.output_scale * np.einsum("ij,ij->i", X, X)
    at_zero = float(kernel.stationary_value(0.0))
    return np.full(X.shape[0], kernel.output_scale * at_zero)
