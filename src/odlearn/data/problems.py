"""Synthetic dataset generators for the four benchmark transport/diffusion problems.

* advection1 -- random square waves transported by half a period (exact shift).
* advection2 -- sign-thresholded periodic Gaussian fields, same exact shift.
* burgers    -- viscous Burgers on the periodic unit interval, Fourier
  pseudo-spectral in space (conservative flux form, 2/3-rule dealiasing of the
  quadratic term) and integrating-factor RK4 in time: diffusion is applied
  exactly in Fourier space, so only the advective CFL bounds the step, and
  each sample takes its own steps to t_final.
* darcy      -- 2D diffusion -div(a grad v) = 1 with piecewise-constant
  coefficient a in {3, 12} from a thresholded Neumann field, zero Dirichlet
  boundary, conservative 5-point finite differences with harmonic-mean face
  coefficients, one banded Cholesky solve (LAPACK pbsv) per sample on bands
  assembled with array operations over the batch.

All generators are deterministic given (seed, counts, grid_size): sample i
draws from the substream (seed, i), train samples first, test samples after.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpbsv

from ..errors import SolverError
from .container import Dataset
from .fields import GaussianFieldSpec, periodic_grid, sample_field_matrix, substream

BURGERS_CFL = 0.5  # advective time-step factor: dt <= 0.5 dx / max|w|
BURGERS_NU = 0.1  # viscosity of the burgers generator
BURGERS_T_FINAL = 1.0  # time of its output states


def _split(name: str, grid, inputs, outputs, count_train: int, seed: int, provenance: str) -> Dataset:
    """The dataset whose first ``count_train`` rows are the training split and
    the rest the test split, on one grid for inputs and outputs."""
    return Dataset(
        name=name,
        input_grid=grid,
        output_grid=grid,
        train_inputs=inputs[:count_train],
        train_outputs=outputs[:count_train],
        test_inputs=inputs[count_train:],
        test_outputs=outputs[count_train:],
        seed=seed,
        provenance=provenance,
    )


def _half_shift(values: np.ndarray, n: int) -> np.ndarray:
    """Exact transport by half a period on an even uniform periodic grid."""
    if n % 2 != 0:
        raise ValueError("grid_size must be even for an exact half-period shift")
    return np.roll(values, n // 2, axis=-1)


# ---------------------------------------------------------------------------
# advection
# ---------------------------------------------------------------------------


def gen_advection1(count_train: int, count_test: int, grid_size: int = 40, seed: int = 0) -> Dataset:
    """Square waves h*1_[c-b/2, c+b/2] with (c, b, h) uniform on
    [0.3, 0.7] x [0.3, 0.6] x [1, 2]; outputs are the inputs shifted by 0.5."""
    grid = periodic_grid(grid_size)
    x = grid[:, 0]
    total = count_train + count_test
    inputs = np.empty((total, grid_size))
    for i in range(total):
        rng = substream(seed, i)
        c = rng.uniform(0.3, 0.7)
        b = rng.uniform(0.3, 0.6)
        h = rng.uniform(1.0, 2.0)
        inputs[i] = np.where((x >= c - b / 2) & (x <= c + b / 2), h, 0.0)
    return _split(
        "advection1", grid, inputs, _half_shift(inputs, grid_size), count_train, seed,
        f"random square waves on a uniform periodic grid of {grid_size}; "
        "(c, b, h) ~ U([0.3,0.7] x [0.3,0.6] x [1,2]); outputs are the exact "
        "periodic transport by 0.5",
    )


def gen_advection2(count_train: int, count_test: int, grid_size: int = 200, seed: int = 0) -> Dataset:
    """Binarized Gaussian fields -1 + 2*1{field >= 0}; outputs shifted by 0.5."""
    spec = GaussianFieldSpec(boundary="periodic1d", grid_size=grid_size, scale=1.0, tau=3.0, exponent=2.0)
    grid, fields = sample_field_matrix(spec, seed, count_train + count_test)
    inputs = np.where(fields >= 0.0, 1.0, -1.0)
    return _split(
        "advection2", grid, inputs, _half_shift(inputs, grid_size), count_train, seed,
        f"sign of a periodic Gaussian field with covariance (-Lap + 9 I)^-2 on "
        f"{grid_size} grid points, mapped to -1/+1; outputs are the exact periodic "
        "transport by 0.5",
    )


# ---------------------------------------------------------------------------
# viscous Burgers
# ---------------------------------------------------------------------------


def solve_burgers(
    u0,
    nu: float,
    t_final: float,
    dt_safety: float = 1.0,
    energy_trace: bool = False,
):
    """Integrate periodic viscous Burgers states to t_final.

    ``u0`` is one state or a (batch, n) matrix on the uniform periodic grid of
    the unit interval. Integrating-factor RK4 on the Fourier coefficients: the
    diffusion -nu k^2 is applied exactly through E = exp(-nu k^2 dt / 2), so
    only the advective bound limits the step. Each row takes its own steps,
    dt_i = dt_safety * 0.5 dx / max|w_i| clipped to t_final - t_i, and nothing
    computed for one row reads another, so a row's result does not depend on
    the batch it is solved in. Returns the final states, or (states, energies)
    with the l2 norm of sample 0 after each of its steps when ``energy_trace``
    is set.
    """
    u = np.atleast_2d(np.asarray(u0, dtype=float))
    n = u.shape[1]
    dx = 1.0 / n
    wavenum = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    keep = np.arange(wavenum.size) <= n // 3  # 2/3-rule mask for the quadratic flux
    advect = np.where(keep, -1j * wavenum, 0.0)
    half_decay = -0.5 * nu * wavenum * wavenum

    def flux(w):
        return advect * np.fft.rfft(0.5 * w * w, axis=1)

    def nonlinear(vhat):
        return flux(np.fft.irfft(vhat, n=n, axis=1))

    def check_finite(states, rows, t):
        bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
        if bad.size:
            j = bad[0]
            raise SolverError(f"burgers solve blew up at t={t[j]:.4f} for sample {int(rows[j])}")

    # active rows: original index, own time and Fourier state
    rows = np.arange(u.shape[0])
    t = np.zeros(u.shape[0])
    check_finite(u, rows, t)
    vhat = np.fft.rfft(u, axis=1)
    out = np.empty_like(u)
    energies = [float(np.linalg.norm(u[0]))] if energy_trace else None
    steps = 0
    while True:
        w = np.fft.irfft(vhat, n=n, axis=1)
        if energy_trace and steps and rows[0] == 0:
            energies.append(float(np.linalg.norm(w[0])))
        done = t >= t_final
        if done.any():
            out[rows[done]] = w[done]
            live = ~done
            rows, t, vhat, w = rows[live], t[live], vhat[live], w[live]
        if not rows.size:
            break
        if steps and steps % 50 == 0:
            check_finite(w, rows, t)
        wmax = np.abs(w).max(axis=1)
        dt = dt_safety * BURGERS_CFL * dx / np.maximum(wmax, np.finfo(float).tiny)
        remaining = t_final - t
        last = dt >= remaining
        dt = np.where(last, remaining, dt)
        collapsed = np.flatnonzero(~(dt > 0))
        if collapsed.size:
            check_finite(w, rows, t)
            j = collapsed[0]
            raise SolverError(
                f"burgers time step collapsed to {dt[j]} at t={t[j]:.4f} for sample {int(rows[j])}"
            )
        h = dt[:, None]
        E = np.exp(half_decay * h)
        E2 = E * E
        a = flux(w)
        b = nonlinear(E * (vhat + 0.5 * h * a))
        c = nonlinear(E * vhat + 0.5 * h * b)
        d = nonlinear(E2 * vhat + h * (E * c))
        vhat = E2 * vhat + (h / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)
        t = np.where(last, t_final, t + dt)
        steps += 1
    check_finite(out, np.arange(out.shape[0]), np.full(out.shape[0], t_final))
    if energy_trace:
        return out, np.asarray(energies)
    return out


def gen_burgers(count_train: int, count_test: int, grid_size: int = 128, seed: int = 0) -> Dataset:
    """Initial conditions from the periodic field 625 (-Lap + 25 I)^-2, outputs
    the viscous Burgers solution (``BURGERS_NU``) at ``BURGERS_T_FINAL``."""
    if grid_size < 4 or grid_size & (grid_size - 1) != 0:
        raise ValueError("grid_size must be a power of two for the spectral solver")
    spec = GaussianFieldSpec(
        boundary="periodic1d", grid_size=grid_size, scale=625.0, tau=5.0, exponent=2.0
    )
    grid, inputs = sample_field_matrix(spec, seed, count_train + count_test)
    outputs = solve_burgers(inputs, nu=BURGERS_NU, t_final=BURGERS_T_FINAL)
    return _split(
        "burgers", grid, inputs, outputs, count_train, seed,
        f"viscous Burgers, nu={BURGERS_NU}, solved to t={BURGERS_T_FINAL} on {grid_size} periodic "
        "grid points by integrating-factor RK4 pseudo-spectral (exact diffusion, "
        "conservative flux, 2/3 dealiasing) with per-sample steps at the advective "
        "CFL only, so a sample does not depend on its batch; outputs differ at the "
        "1e-6 level, not bitwise, from data made by the earlier explicit RK4 solver "
        "that stepped the whole batch at the diffusive bound; initial conditions "
        "from the periodic Gaussian field 625 (-Lap + 25 I)^-2",
    )


# ---------------------------------------------------------------------------
# Darcy flow
# ---------------------------------------------------------------------------


DARCY_CHUNK = 64  # samples whose bands are assembled together; bounds the temporaries


def _darcy_bands(a: np.ndarray):
    """Lower band rows of the 5-point matrices of a (batch, g, g) coefficient
    stack: the diagonal, the +1 (north) neighbour, zero at the end of each grid
    row, and the +m (east) neighbour, each (batch, m*m) over the m = g - 2
    interior nodes in row-major order."""
    batch, g = a.shape[0], a.shape[1]
    h2 = (1.0 / (g - 1)) ** 2
    # harmonic means across x-faces (between rows i, i+1) and y-faces
    ax = 2.0 * a[:, 1:, :] * a[:, :-1, :] / (a[:, 1:, :] + a[:, :-1, :])  # (B, g-1, g)
    ay = 2.0 * a[:, :, 1:] * a[:, :, :-1] / (a[:, :, 1:] + a[:, :, :-1])  # (B, g, g-1)
    # faces of interior node (i, j): east (i+1), west (i-1), north (j+1), south (j-1)
    east, north = ax[:, 1:, 1:-1], ay[:, 1:-1, 1:]
    diag = (east + ax[:, :-1, 1:-1] + north + ay[:, 1:-1, :-1]) / h2
    north = -north / h2
    north[:, :, -1] = 0.0
    return diag.reshape(batch, -1), north.reshape(batch, -1), (-east / h2).reshape(batch, -1)


def solve_darcy(coefficient: np.ndarray) -> np.ndarray:
    """Solve -div(a grad v) = 1 on the unit square with v = 0 on the boundary.

    ``coefficient`` holds nodal values of a on a uniform (g, g) grid including
    the boundary, or a (batch, g, g) stack of them; the result has the same
    shape. Face coefficients are harmonic means of the adjacent nodes. The
    conservative 5-point matrix of the m = g - 2 interior nodes (row-major) is
    a symmetric positive definite M-matrix with half-bandwidth m, so each
    sample is solved by a banded Cholesky (LAPACK ``pbsv``) and its interior
    solution is positive. The bands are assembled by array operations over
    chunks of the stack, but nothing computed for one sample reads another, so
    a sample's result does not depend on the batch it is solved in. A
    non-positive or non-finite coefficient, a failed factorization or a
    non-finite solution is a SolverError naming the first such sample.
    """
    a = np.asarray(coefficient, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 3:
        raise ValueError("coefficient must be a square nodal grid of size >= 3, or a stack of them")
    bad = np.flatnonzero(~(np.isfinite(a) & (a > 0)).all(axis=(1, 2)))
    if bad.size:
        raise SolverError(f"darcy coefficient must be positive and finite for sample {bad[0]}")
    g = a.shape[1]
    m = g - 2
    out = np.zeros_like(a)
    band = np.empty((m + 1, m * m), order="F")
    for lo in range(0, a.shape[0], DARCY_CHUNK):
        # a coefficient near the float64 limit overflows a face; the solve
        # below then fails or turns non-finite and is reported for its sample
        with np.errstate(over="ignore", invalid="ignore"):
            diag, north, east = _darcy_bands(a[lo : lo + DARCY_CHUNK])
        for c in range(diag.shape[0]):
            band[0] = diag[c]
            band[1] = north[c]
            band[2:m] = 0.0
            band[m] = east[c]
            _, x, info = dpbsv(band, np.ones((m * m, 1)), lower=1, overwrite_ab=1, overwrite_b=1)
            if info != 0:
                raise SolverError(
                    f"darcy banded Cholesky failed (LAPACK info {info}) for sample {lo + c}"
                )
            if not np.isfinite(x).all():
                raise SolverError(f"darcy solve produced non-finite values for sample {lo + c}")
            out[lo + c, 1:-1, 1:-1] = x.reshape(m, m)
    return out[0] if single else out


def gen_darcy(count_train: int, count_test: int, grid_size: int = 29, seed: int = 0) -> Dataset:
    """Log-coefficient inputs from a thresholded Neumann field (positive -> 12,
    negative -> 3), outputs the Darcy pressure for the fixed source w = 1."""
    if grid_size < 5:
        raise ValueError("grid_size must be at least 5")
    spec = GaussianFieldSpec(
        boundary="neumann2d", grid_size=grid_size, scale=1.0, tau=3.0, exponent=2.0
    )
    grid, fields = sample_field_matrix(spec, seed, count_train + count_test)
    coeff = np.where(fields >= 0.0, 12.0, 3.0)
    inputs = np.log(coeff)
    outputs = solve_darcy(coeff.reshape(-1, grid_size, grid_size)).reshape(inputs.shape)
    return _split(
        "darcy", grid, inputs, outputs, count_train, seed,
        f"-div(exp(u) grad v) = w on the unit square at resolution {grid_size}x{grid_size}; "
        "exp(u) in {3, 12} from the sign of a Neumann Gaussian field with covariance "
        "(-Lap + 9 I)^-2; source fixed to w = 1 (a choice of this generator); inputs "
        "stored as u = log-coefficient; zero Dirichlet boundary; conservative 5-point "
        "scheme with harmonic-mean face coefficients, solved per sample by banded "
        "Cholesky (LAPACK pbsv), so a sample does not depend on its batch; outputs "
        "differ at the 1e-14 relative level, not bitwise, from data made by the "
        "earlier sparse-LU (SuperLU) solver",
    )


GENERATORS = {
    "advection1": gen_advection1,
    "advection2": gen_advection2,
    "burgers": gen_burgers,
    "darcy": gen_darcy,
}
