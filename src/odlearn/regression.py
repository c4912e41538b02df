"""Vector-valued kernel ridge regression with a diagonal operator-valued kernel.

With the kernel Gamma(U, U') = S(U, U') * I the m output components decouple
into independent scalar regressions that share one Gram matrix, so a single
Cholesky factorization of S(U, U) + gamma*I serves all coefficient columns;
this is the dominant cost saver of the whole pipeline. A fitted regressor keeps
the lower factor L of that matrix next to the coefficients, so the
Gaussian-process posterior variance at a query is one triangular solve against
L: s(q, q) - |L^-1 s(U, q)|^2. That solve is the one place a fitted factor is
solved against, a direct LAPACK ``dtrtrs`` call, and s(q, q) of a stationary
kernel is its cached ``diag_value``. ``posterior`` reads the mean s(q, U) coef,
or s(q, U) times other (N, m') coefficients, and that variance off one kernel
row per query. Every factorization of S + gamma*I, in ``fit`` and in the
evidence, is one step that advises a larger gamma on failure. A regressor is
checked once, when it is built: its features must be finite, the squares in
each row of L must sum to S(U_i, U_i) + gamma to 1e-10 relative, and the
diagonal of L must be positive, so a factor that does not belong to the
features and gamma beside it, or that is singular (a corrupt saved model), is
an OdlearnError.

The Gram and every kernel row get their distances from ``kernels.distances``:
``cdist`` below ``kernels.GRAM_IDENTITY_MIN_DIM`` feature dimensions or
``kernels.GRAM_IDENTITY_MIN_WORK`` multiply-adds, otherwise the Gram identity
from one BLAS product, with every pair closer than a quarter of
sqrt(|x|^2 + |y|^2) recomputed from its difference; a kept distance is within
8 times the identity's rounding of |x|^2 + |y|^2 (47 ulps at most on darcy's
features). A regressor computes its training features' squared norms once, on
its first query, and every kernel row reuses them; they are not saved.

Hyperparameters are tuned by grid search, either over K-fold cross-validation
loss or the log marginal likelihood; they are shared across all output
components. An LML search computes the features' pairwise distances once,
builds one Gram per distinct kernel and reuses it for every gamma, and sees the
targets only through an N x min(N, m) factor R with R R^T = V V^T. Each grid
entry then costs one Cholesky factorization (N^3/3 flops) plus the triangular
solve L^-1 R, where a solve against all m target columns would cost 2 N^2 m.
With m <= N, R is V and the solve costs N^2 m. With m > N, R is lower
triangular, so L^-1 R is too; solving it in ``TRIANGLE_BLOCKS`` column blocks,
each against its trailing rows only, costs about N^3/2 in place of N^3.

Features and targets given to ``fit``, ``log_marginal_likelihood`` and ``tune``
are points (``kernels.as_points``): a 1-D array is N samples of one value. A query
to ``predict``, ``posterior_variance`` or ``posterior`` is values: a 1-D array is
one n-vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtrs

from .errors import FactorizationError, OdlearnError
from .kernels import ScalarKernel, as_points, distances, gram, gram_diag, sqnorms, stationary_gram

log = logging.getLogger(__name__)

DEFAULT_GAMMA_FACTOR = 1e-8  # fallback ridge = 1e-8 * mean(diag Gram) when gamma=0 fails
TRIANGLE_BLOCKS = 4  # column blocks of a triangular target factor: 0.47 N^3 solve flops


@dataclass(frozen=True)
class TrainedRegressor:
    """Fitted ridge regressor: what prediction and posterior variance read."""

    kernel: ScalarKernel
    inputs: np.ndarray        # (N, n)
    gamma: float
    coef: np.ndarray          # (N, m), solves (S(U,U) + gamma I) coef = targets
    chol: np.ndarray          # (N, N) lower factor of S(U,U) + gamma I, zeros above

    def __post_init__(self) -> None:
        N = self.inputs.shape[0] if self.inputs.ndim == 2 else None
        if not (N is not None and self.coef.ndim == 2 and self.coef.shape[0] == N and self.chol.shape == (N, N)):
            raise ValueError("regressor arrays must be inputs (N, n), coef (N, m) and chol (N, N), got "
                             f"{self.inputs.shape}, {self.coef.shape} and {self.chol.shape}")
        if not (isinstance(self.gamma, float) and np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be a finite float >= 0, got {self.gamma!r}")
        as_points(self.inputs, "inputs")  # once: kernel rows pass them to gram with their norms, unscanned
        # row i of L L^T = S + gamma I on the diagonal: a Cholesky factor meets it to ~N eps.
        # einsum needs no N x N temporary: 0.14 ms at N = 500, against 0.33 for square-and-sum
        expected = gram_diag(self.kernel, self.inputs) + self.gamma
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.einsum("ij,ij->i", self.chol, self.chol)
            bad = np.flatnonzero(~(np.abs(rows - expected) <= 1e-10 * expected))
        if bad.size:
            i = bad[0]
            raise OdlearnError(f"the regressor's Gram factor is corrupt: the squares in its row {i} sum to "
                               f"{float(rows[i])!r}, not S(U_i, U_i) + gamma = {float(expected[i])!r}")
        # a row can keep its sum with its mass moved off the diagonal; a zero pivot makes L singular
        pivots = np.diagonal(self.chol)
        bad = np.flatnonzero(~(pivots > 0))
        if bad.size:
            i = bad[0]
            raise OdlearnError(f"the regressor's Gram factor is corrupt: its diagonal entry {i} is "
                               f"{float(pivots[i])!r}, not positive")

    @cached_property
    def input_sqnorms(self) -> np.ndarray:
        """Squared norms of the training features, for the kernel rows of every query."""
        return sqnorms(self.inputs)

    @property
    def n_train(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.coef.shape[1]


def _samples(inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    """Training features and targets as points, one row per sample in each."""
    U, V = as_points(inputs, "inputs"), as_points(targets, "targets")
    if U.shape[0] != V.shape[0]:
        raise ValueError(f"inputs have {U.shape[0]} rows but targets have {V.shape[0]}")
    return U, V


def _factor(G: np.ndarray, gamma: float, failed: str = "at") -> np.ndarray:
    """The lower Cholesky factor of G + gamma*I, or a FactorizationError advising a
    larger gamma; ``failed`` is "at", or "even at" for the default ridge."""
    try:
        return cho_factor(G + gamma * np.eye(G.shape[0]), lower=True)[0]
    except LinAlgError as exc:
        raise FactorizationError(
            f"Gram factorization failed {failed} gamma={gamma:.3e}; increase gamma"
        ) from exc


def fit(kernel: ScalarKernel, inputs, targets, gamma: float = 0.0) -> TrainedRegressor:
    """Fit the regressor by factorizing S(U, U) + gamma*I once.

    If the user passes gamma=0 and the factorization fails, a default ridge of
    1e-8 * mean(diag Gram) is applied and reported through logging, never
    silently. An explicitly positive gamma that still fails raises
    FactorizationError advising a larger value.
    """
    U, V = _samples(inputs, targets)
    if isinstance(gamma, bool) or not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be a finite number >= 0, got {gamma!r}")
    G = gram(kernel, U)
    try:
        chol = _factor(G, gamma)
    except FactorizationError:
        if gamma > 0:
            raise
        gamma = DEFAULT_GAMMA_FACTOR * float(np.mean(np.diag(G)))
        log.warning("Gram factorization failed at gamma=0; retrying with default gamma=%.3e", gamma)
        chol = _factor(G, gamma, "even at")
    # C-order everything so persisted and in-memory models take identical BLAS paths
    # (memory order moves matmul results by ULPs); cho_solve reads only the lower triangle
    chol = np.ascontiguousarray(np.tril(chol))
    coef = np.ascontiguousarray(cho_solve((chol, True), V))
    return TrainedRegressor(kernel=kernel, inputs=U, gamma=float(gamma), coef=coef, chol=chol)


def _queries(model: TrainedRegressor, U) -> tuple[np.ndarray, np.ndarray, bool]:
    """Queries as a (B, n) batch, its kernel rows S(U, inputs), and whether U was one vector."""
    U = np.asarray(U, dtype=float)
    single = U.ndim == 1
    U = U[None, :] if single else U
    if U.shape[1] != model.input_dim:
        raise ValueError(f"query dimension {U.shape[1]} != trained dimension {model.input_dim}")
    return U, gram(model.kernel, U, model.inputs, Y_sqnorms=model.input_sqnorms), single


def _variance(model: TrainedRegressor, U: np.ndarray, K: np.ndarray) -> np.ndarray:
    """s(U, U) - |L^-1 K^T|^2 per query, from the batch's kernel rows K. The
    solve is one LAPACK ``dtrtrs`` on L^T, the F-ordered upper view of the
    C-ordered factor, solved transposed: the call scipy's ``solve_triangular``
    makes, without its wrapper (12 of a 30 us burgers variance). s(U, U) of a
    stationary kernel is its cached diagonal value. The factor was checked when
    the regressor was built, so it is finite with a positive diagonal; a factor
    that passes that check but is not the Cholesky factor can still overflow
    the solve, and then the B variances are not finite."""
    Z, info = dtrtrs(model.chol.T, K.T, lower=0, trans=1)
    if info != 0:
        raise OdlearnError(f"posterior variance solve failed with LAPACK info={info}")
    diag = gram_diag(model.kernel, U) if model.kernel.diag_value is None else model.kernel.diag_value
    with np.errstate(over="ignore", invalid="ignore"):
        var = diag - np.sum(np.square(Z, out=Z), axis=0)
    if not np.isfinite(var).all():
        raise OdlearnError("posterior variance is not finite: the regressor's Gram factor is corrupt")
    return var


def predict(model: TrainedRegressor, U, coef=None) -> np.ndarray:
    """Predict S(U, inputs) @ coef; a single n-vector gives an m'-vector, an
    (B, n) batch gives (B, m'). ``coef`` is any (N, m') matrix on the training
    features, by default the fitted ``model.coef``."""
    _, K, single = _queries(model, U)
    out = K @ (model.coef if coef is None else coef)
    return out[0] if single else out


def posterior_variance(model: TrainedRegressor, U):
    """Per-component conditional variance s(U, U) - s(U, D)(S + gamma I)^-1 s(D, U).

    Under the diagonal operator-valued kernel this single scalar is the
    posterior variance of every output component. A single query returns a
    float; a batch returns a vector.
    """
    U, K, single = _queries(model, U)
    var = _variance(model, U, K)
    return float(var[0]) if single else var


def posterior(model: TrainedRegressor, U, coef=None):
    """``predict`` with ``coef`` and ``posterior_variance`` at once, from one
    kernel row per query."""
    U, K, single = _queries(model, U)
    mean, var = K @ (model.coef if coef is None else coef), _variance(model, U, K)
    return (mean[0], float(var[0])) if single else (mean, var)


def log_marginal_likelihood(kernel: ScalarKernel, inputs, targets, gamma: float = 0.0) -> float:
    """Gaussian-process evidence summed over the decoupled output components.

    Returns sum_j [ -1/2 V_j^T (S + gamma I)^-1 V_j ] - (m/2) logdet(S + gamma I)
    - (N m / 2) log(2 pi), all columns sharing one factorization.
    """
    U, V = _samples(inputs, targets)
    return _evidence(gram(kernel, U), gamma, _target_factor(V), V.shape[1])


def _target_factor(V: np.ndarray) -> np.ndarray:
    """An N x min(N, m) factor R with R R^T = V V^T: V itself when m <= N, else
    the transposed triangle of a QR factorization of V^T."""
    N, m = V.shape
    return V if m <= N else np.linalg.qr(V.T, mode="r").T


def _evidence(G: np.ndarray, gamma: float, R: np.ndarray, m: int) -> float:
    """Log marginal likelihood of m output columns with target factor R (see
    ``_target_factor``): the data fit is -1/2 |L^-1 R|_F^2 with L L^T = G + gamma I."""
    n = G.shape[0]
    L = _factor(G, gamma)
    if m <= n:
        Z = solve_triangular(L, R, lower=True)
        data_fit = -0.5 * float(np.sum(np.square(Z, out=Z)))
    else:
        # R is lower triangular: rows above a of columns a: of L^-1 R are exact zeros
        data_fit = 0.0
        edges = np.linspace(0, n, TRIANGLE_BLOCKS + 1).astype(int)
        for a, b in zip(edges[:-1], edges[1:]):
            Z = solve_triangular(L[a:, a:], R[a:, a:b], lower=True, check_finite=False)
            data_fit -= 0.5 * float(np.sum(np.square(Z, out=Z)))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return data_fit - 0.5 * m * logdet - 0.5 * n * m * np.log(2.0 * np.pi)


def _lml_outcomes(entries: list, U: np.ndarray, V: np.ndarray) -> list:
    """The LML of every (kernel, gamma) entry, or the FactorizationError it raised.

    The pairwise distances of the features are computed once for all stationary
    kernels, and each distinct kernel's Gram is built once for all its gammas.
    """
    R, m = _target_factor(V), V.shape[1]
    D = None
    outcomes = [None] * len(entries)
    for kernel in dict.fromkeys(k for k, _ in entries):
        if kernel.family == "linear":
            G = gram(kernel, U)
        else:
            D = distances(U) if D is None else D
            G = stationary_gram(kernel, D)
        for i, (k, gamma) in enumerate(entries):
            if k == kernel:
                outcomes[i] = _attempt(_evidence, G, gamma, R, m)
    return outcomes


def _attempt(fn, *args):
    """fn(*args), or the FactorizationError it raised."""
    try:
        return fn(*args)
    except FactorizationError as exc:
        return exc


def fit_residual(model: TrainedRegressor, targets) -> float:
    """Mean over the rows of the training targets V of |V_i - fitted_i| / |V_i|. The
    fitted targets are S (S + gamma I)^-1 V = V - gamma * coef, so no prediction is run."""
    rows = model.gamma * np.linalg.norm(model.coef, axis=1)
    return float(np.mean(rows / np.linalg.norm(as_points(targets, "targets"), axis=1)))


def rkhs_norm_squared(model: TrainedRegressor, targets) -> float:
    """Squared RKHS norm of the map fitted to V: trace(V^T coef) = sum_j V_j^T (S+gamma I)^-1 V_j."""
    return float(np.sum(as_points(targets, "targets") * model.coef))


@dataclass(frozen=True)
class TuningSpec:
    """Grid-search settings over kernel hyperparameters and gamma.

    Each grid entry is a kernel config dict (see ScalarKernel.from_config)
    optionally carrying a "gamma" key, 0 when absent. Entries are parsed here,
    at construction, into ``entries``, the (kernel, gamma) pairs that ``tune``
    scores. ``objective`` is "cv" (minimize mean held-out relative error over
    contiguous folds of a seeded shuffle) or "lml" (maximize log marginal
    likelihood).
    """

    grid: tuple
    objective: str = "lml"
    folds: int = 5
    seed: int = 0
    entries: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.grid) == 0:
            raise ValueError("tuning grid must be nonempty")
        if self.objective not in ("cv", "lml"):
            raise ValueError(f"objective must be 'cv' or 'lml', got {self.objective!r}")
        if self.objective == "cv" and self.folds < 2:
            raise ValueError("cross-validation needs folds >= 2")
        object.__setattr__(self, "grid", tuple(dict(entry) for entry in self.grid))
        entries = []
        for entry in self.grid:
            kernel = {k: v for k, v in entry.items() if k != "gamma"}
            gamma = float(entry.get("gamma", 0.0))
            if isinstance(entry.get("gamma"), bool) or not (np.isfinite(gamma) and gamma >= 0):
                raise ValueError(f"grid entry {entry} needs a finite number gamma >= 0")
            entries.append((ScalarKernel.from_config(kernel), gamma))
        object.__setattr__(self, "entries", tuple(entries))


def _cv_score(kernel: ScalarKernel, gamma: float, U, V, folds: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    order = rng.permutation(U.shape[0])
    blocks = np.array_split(order, folds)
    fold_means = []
    for b in blocks:
        mask = np.ones(U.shape[0], dtype=bool)
        mask[b] = False
        model = fit(kernel, U[mask], V[mask], gamma)
        pred = predict(model, U[b])
        truth = V[b]
        num = np.linalg.norm(pred - truth, axis=1)
        den = np.linalg.norm(truth, axis=1)
        den = np.where(den > 0, den, 1.0)
        fold_means.append(float(np.mean(num / den)))
    return float(np.mean(fold_means))


def tune(spec: TuningSpec, inputs, targets):
    """Evaluate every grid entry and return (best_params, best_value, report);
    best_params is the grid entry whose pair in ``spec.entries`` won.

    Ties are broken by first occurrence in grid order; entries whose
    factorization fails are recorded in the report and skipped. If every entry
    fails, FactorizationError is raised.
    """
    U, V = _samples(inputs, targets)
    if spec.objective == "cv" and spec.folds > U.shape[0]:
        raise ValueError(f"folds={spec.folds} exceeds sample count {U.shape[0]}")
    if spec.objective == "lml":
        outcomes = _lml_outcomes(spec.entries, U, V)
    else:
        outcomes = [_attempt(_cv_score, k, gamma, U, V, spec.folds, spec.seed) for k, gamma in spec.entries]
    report = []
    best_idx = None
    best_value = None
    for i, (entry, value) in enumerate(zip(spec.grid, outcomes)):
        if isinstance(value, FactorizationError):
            report.append({"params": dict(entry), "status": "failed", "detail": str(value)})
            continue
        report.append({"params": dict(entry), "status": "ok", "objective": value})
        better = (
            best_value is None
            or (spec.objective == "lml" and value > best_value)
            or (spec.objective == "cv" and value < best_value)
        )
        if better:
            best_idx, best_value = i, value
    if best_idx is None:
        raise FactorizationError("every tuning grid entry failed to factorize")
    return dict(spec.grid[best_idx]), best_value, report
