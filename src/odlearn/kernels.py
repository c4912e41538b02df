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

``distances`` computes every such r for ``gram``, in one of two regimes set by
the dimension d of the vectors and the size of the product:

* d < ``GRAM_IDENTITY_MIN_DIM`` (grid points, low-dimensional features), or
  fewer than ``GRAM_IDENTITY_MIN_WORK`` multiply-adds (a single darcy request):
  ``scipy.spatial.distance.cdist``, correctly rounded up to a few ulps.
* otherwise the Gram identity
  r^2 = |x|^2 + |y|^2 - 2 <x, y> from one BLAS product. Its rounding error is
  a few ulps of |x|^2 + |y|^2, growing like sqrt(d), so every pair with
  r^2 < (|x|^2 + |y|^2) / 16 is recomputed from its difference x - y, and a
  kept pair's relative error in r is at most 8 times that: measured at most 47
  ulps on darcy's d = 92 training features (cdist: 5), and 55 ulps on random
  d = 285 pairs at the 1/16 edge. Exact duplicates give exactly 0, and the
  one-argument form is exactly symmetric with a zero diagonal.

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
# Timeit at 1 BLAS thread, 500 random normal points against 1 and 100 query
# rows and against themselves (cdist / identity): at d = 16, 24, 32, 48, 92
# 100 rows took 0.55/0.62, 0.81/0.35, 0.99/0.34, 1.39/0.37, 2.33/0.40 ms and
# the 500 x 500 Gram 2.7/6.0, 4.0/5.9, 4.9/5.9, 6.8/5.8, 10.5/5.7 ms. The
# floor is where the Gram crosses, above the batch crossover. Burgers' d = 3
# features and every grid (d <= 2) stay on cdist; darcy's d = 92 and 285
# features do not.
GRAM_IDENTITY_MIN_DIM = 48
# The identity also needs n_x * n_y * d >= this many multiply-adds, because it
# pays ~15 numpy calls where cdist pays one. With the caches flushed between
# calls, as between the requests of a server, one row against 500 points took
# 64/82 us at d = 92 (46k), 79/70 at d = 150 (75k) and 128/109 at d = 285;
# two rows 56/63 at d = 48 (48k) and 94/88 at d = 92 (92k). So a single darcy
# request (d = 92) stays on cdist; a preconditioned one (d = 285) and darcy
# batches of 2 or more rows do not.
GRAM_IDENTITY_MIN_WORK = 65_536


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

    A stationary kernel also holds its diagonal value k(x, x) = output_scale *
    stationary_value(0), computed once when it is built (``diag_value``, None
    for the linear family); like the Matern coefficients it is derived, so it
    takes no part in ``==``, ``hash``, ``repr`` or ``to_config``.
    """

    family: str
    lengthscale: float | None = None
    alpha: float | None = None
    nu: float | None = None
    output_scale: float = 1.0
    _matern_coeffs: tuple[float, ...] = field(default=(), repr=False, compare=False)
    diag_value: float | None = field(default=None, init=False, repr=False, compare=False)

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
        object.__setattr__(self, "diag_value", self.output_scale * float(self.stationary_value(0.0)))

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


def gram(kernel: ScalarKernel, X, Y=None, Y_sqnorms=None) -> np.ndarray:
    """Pairwise kernel matrix with entries (i, j) = k(X_i, Y_j).

    ``Y=None`` means ``Y = X``; the result is then symmetric positive
    semidefinite up to roundoff. ``Y_sqnorms``, the squared row norms of a
    ``Y`` queried again and again, is passed on to ``distances``; a ``Y`` that
    comes with them must already be points (``as_points``) and is not rescanned.
    """
    X = as_points(X, "X")
    Y_pts = X if Y is None else Y if Y_sqnorms is not None else as_points(Y, "Y")
    if X.shape[1] != Y_pts.shape[1]:
        raise ValueError(f"dimension mismatch: X is {X.shape[1]}-d, Y is {Y_pts.shape[1]}-d")
    if kernel.family == "linear":
        return kernel.output_scale * (X @ Y_pts.T)
    return stationary_gram(kernel, distances(X, None if Y is None else Y_pts, Y_sqnorms))


def sqnorms(X: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of every row of a 2-D array, summed pairwise
    (einsum's running sum took the identity's worst error on darcy's features
    from 47 to 58 ulps)."""
    return np.add.reduce(np.square(X), axis=1)


def distances(X, Y=None, Y_sqnorms=None) -> np.ndarray:
    """Euclidean distances (i, j) = |X_i - Y_j| of two (n, d) point arrays;
    ``Y=None`` means ``Y = X``. Below ``GRAM_IDENTITY_MIN_DIM`` dimensions or
    ``GRAM_IDENTITY_MIN_WORK`` multiply-adds this is ``cdist``; otherwise the
    Gram identity with near pairs recomputed (module docstring).
    ``Y_sqnorms``, when given, must be ``sqnorms(Y)``.
    """
    n = len(X) if Y is None else len(Y)
    if X.shape[1] < GRAM_IDENTITY_MIN_DIM or X.size * n < GRAM_IDENTITY_MIN_WORK:
        return cdist(X, X if Y is None else Y)
    xx = sqnorms(X)
    if Y is None:
        Y, yy, D = X, xx, X @ X.T  # syrk: exactly symmetric
    else:
        yy = sqnorms(Y) if Y_sqnorms is None else Y_sqnorms
        D = X @ Y.T
    total = xx[:, None] + yy  # |x|^2 + |y|^2, symmetric in x and y
    D *= -2.0
    D += total
    if Y is X:
        np.fill_diagonal(D, 0.0)
    # the identity keeps a pair only where r^2 >= total / 16, so no entry is
    # negative; the scalar bound spares a batch with no near pair the mask
    if D.min() < (xx.max() + yy.max()) / 16.0:
        total *= 0.0625
        i, j = np.nonzero(D < total)
        step = max(1, (1 << 20) // X.shape[1])  # pairs per block: 8 MB of differences
        for a in range(0, len(i), step):
            b, c = i[a:a + step], j[a:a + step]
            diff = X.take(b, axis=0)
            diff -= Y.take(c, axis=0)
            D[b, c] = sqnorms(diff)
    return np.sqrt(D, out=D)


def stationary_gram(kernel: ScalarKernel, distances) -> np.ndarray:
    """Kernel matrix of a stationary kernel from a matrix of pairwise distances.

    ``gram`` evaluates every stationary kernel through this formula, so a
    caller that computes the distances once and reuses them across kernels
    gets bitwise the matrices ``gram`` would build.
    """
    return kernel.output_scale * kernel.stationary_value(distances)


def gram_diag(kernel: ScalarKernel, X) -> np.ndarray:
    """Vector of k(X_i, X_i) values, cheaper than diag(gram(k, X)): output_scale
    times |X_i|^2 for the linear family, else the kernel's ``diag_value``,
    computed once when the kernel was built, at every point."""
    X = as_points(X, "X")
    if kernel.family == "linear":
        return kernel.output_scale * np.einsum("ij,ij->i", X, X)
    return np.full(X.shape[0], kernel.diag_value)
