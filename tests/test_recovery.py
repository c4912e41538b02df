import numpy as np
import pytest

from odlearn import recovery
from odlearn.errors import FactorizationError
from odlearn.kernels import ScalarKernel, gram
from odlearn.recovery import (
    FunctionSamples,
    MeasurementOperator,
    RecoveryMap,
    cholesky_preconditioner,
    evaluate,
    fill_distance,
    measure,
    recover,
    recovery_weights,
)


class TestMeasure:
    def test_identity_preconditioner(self):
        pts = np.array([[0.0], [0.5], [1.0]])
        op = MeasurementOperator(pts)
        f = FunctionSamples(pts, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(measure(op, f), [1.0, 2.0, 3.0])

    def test_scaling_preconditioner(self):
        pts = np.array([[0.0], [1.0]])
        op = MeasurementOperator(pts, 2.0 * np.eye(2))
        f = FunctionSamples(pts, [1.0, 2.0])
        np.testing.assert_allclose(measure(op, f), [2.0, 4.0])

    def test_single_point_cholesky_preconditioner_is_identity(self):
        pts = np.array([[0.3]])
        L = cholesky_preconditioner(ScalarKernel.gaussian(1.0), pts, nugget=0.0)
        np.testing.assert_allclose(L, [[1.0]], rtol=1e-12)
        op = MeasurementOperator(pts, L)
        f = FunctionSamples(pts, [7.0])
        np.testing.assert_allclose(measure(op, f), [7.0], rtol=1e-12)

    def test_subset_of_larger_grid(self):
        grid = np.linspace(0, 1, 11)[:, None]
        op = MeasurementOperator(grid[[2, 7]])
        f = FunctionSamples(grid, np.arange(11.0))
        np.testing.assert_array_equal(measure(op, f), [2.0, 7.0])

    def test_missing_point_error_names_point(self):
        op = MeasurementOperator(np.array([[0.25]]))
        f = FunctionSamples(np.array([[0.0], [0.5]]), [1.0, 2.0])
        with pytest.raises(ValueError, match=r"0\.25"):
            measure(op, f)


class TestRecover:
    def test_single_point_interpolation(self):
        pts = np.array([[0.7]])
        rmap = RecoveryMap(ScalarKernel.gaussian(1.0), MeasurementOperator(pts))
        out = recover(rmap, [5.0], pts)
        assert out.values[0] == pytest.approx(5.0, abs=1e-9)

    def test_zero_measurements_give_zero_function(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        rmap = RecoveryMap(ScalarKernel.matern(nu=2.5, lengthscale=1.0), MeasurementOperator(pts))
        out = recover(rmap, np.zeros(3), np.linspace(-1, 3, 17))
        np.testing.assert_allclose(out.values, 0.0, atol=1e-14)

    def test_two_point_matern_against_dense_solve_oracle(self):
        # independent oracle: explicit 2x2 system assembled and solved in the test
        e1 = np.exp(-1.0)
        pts = np.array([[0.0], [1.0]])
        rmap = RecoveryMap(ScalarKernel.matern(nu=0.5, lengthscale=1.0), MeasurementOperator(pts), nugget=0.0)
        got = recover(rmap, [1.0, 0.0], [[0.5]]).values[0]
        G = np.array([[1.0, e1], [e1, 1.0]])
        c = np.linalg.solve(G, np.array([1.0, 0.0]))
        expected = float(np.array([np.exp(-0.5), np.exp(-0.5)]) @ c)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_wrong_measurement_length_raises(self):
        pts = np.array([[0.0], [1.0]])
        rmap = RecoveryMap(ScalarKernel.gaussian(1.0), MeasurementOperator(pts))
        with pytest.raises(ValueError, match="length"):
            recover(rmap, [1.0, 2.0, 3.0], pts)

    def test_singular_gram_error_advises_nugget(self):
        # nugget forced to zero with near-duplicate points: factorization, on first use, must fail
        pts = np.array([[0.0], [1e-13]])
        rmap = RecoveryMap(ScalarKernel.gaussian(1.0), MeasurementOperator(pts), nugget=0.0)
        with pytest.raises(FactorizationError, match="nugget"):
            recover(rmap, [1.0, 2.0], pts)
        with pytest.raises(FactorizationError, match="nugget"):
            recovery_weights(rmap, pts)

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_factor_built_on_first_recovery_then_reused(self, monkeypatch, preconditioned):
        from odlearn import recovery

        calls = []
        real = recovery.cho_factor
        monkeypatch.setattr(recovery, "cho_factor", lambda *a, **k: calls.append(1) or real(*a, **k))
        rng = np.random.default_rng(15)
        pts = rng.uniform(0, 1, size=(8, 1))
        L = rng.normal(size=(8, 8)) + 4 * np.eye(8) if preconditioned else None
        rmap = RecoveryMap(ScalarKernel.matern(nu=2.5, lengthscale=0.3), MeasurementOperator(pts, L))
        assert calls == [] and "_factor" not in vars(rmap)
        U, q = rng.normal(size=8), rng.uniform(0, 1, size=(5, 1))
        first = recover(rmap, U, q).values
        assert len(calls) == 1
        assert np.array_equal(recover(rmap, U, q).values, first)
        recovery_weights(rmap, q)
        assert len(calls) == 1

    def test_gram_factor_reproduces_regularized_gram(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 1, size=(12, 2))
        rmap = RecoveryMap(ScalarKernel.matern(nu=2.5, lengthscale=0.5), MeasurementOperator(pts))
        c, lower = rmap._factor
        L = np.tril(c) if lower else np.triu(c).T
        A = gram(rmap.kernel, pts) + rmap.nugget * np.eye(12)
        err = np.linalg.norm(L @ L.T - A) / np.linalg.norm(A)
        assert err <= 1e-10


class TestCholeskyPreconditioner:
    def test_single_point_gaussian(self):
        L = cholesky_preconditioner(ScalarKernel.gaussian(1.0), [[0.0]], nugget=0.0)
        np.testing.assert_allclose(L, [[1.0]], rtol=1e-12)

    def test_single_point_output_scale_four(self):
        # Gram=[4] -> precision 0.25 -> factor 0.5
        L = cholesky_preconditioner(ScalarKernel.gaussian(1.0, output_scale=4.0), [[0.0]], nugget=0.0)
        np.testing.assert_allclose(L, [[0.5]], rtol=1e-12)

    def test_factor_identity_random_sets(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            pts = rng.uniform(0, 1, size=(int(rng.integers(2, 15)), 2))
            k = ScalarKernel.matern(nu=1.5, lengthscale=0.7)
            nug = 1e-10
            L = cholesky_preconditioner(k, pts, nugget=nug)
            G = gram(k, pts) + nug * np.eye(len(pts))
            assert np.abs(L @ L.T @ G - np.eye(len(pts))).max() <= 1e-8


class TestFillDistance:
    def test_sample_equals_probe(self):
        pts = np.random.default_rng(7).uniform(0, 1, size=(9, 2))
        assert fill_distance(pts, pts) == 0.0

    def test_unit_interval_endpoints(self):
        probe = np.linspace(0, 1, 101)[:, None]
        assert fill_distance([[0.0], [1.0]], probe) == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(8)
        sample = rng.uniform(0, 1, size=(10, 2))
        g = np.linspace(0, 1, 50)
        probe = np.array([[a, b] for a in g for b in g])
        # brute-force oracle
        worst = 0.0
        for p in probe:
            best = min(float(np.hypot(*(p - s))) for s in sample)
            worst = max(worst, best)
        assert fill_distance(sample, probe) == pytest.approx(worst, rel=1e-14)

    def test_monotone_under_refinement(self):
        rng = np.random.default_rng(9)
        probe = rng.uniform(0, 1, size=(300, 2))
        pts = rng.uniform(0, 1, size=(20, 2))
        prev = np.inf
        for n in (2, 5, 10, 20):
            h = fill_distance(pts[:n], probe)
            assert h <= prev + 1e-15
            prev = h

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fill_distance(np.empty((0, 1)), [[0.0]])
        with pytest.raises(ValueError, match="dimension"):
            fill_distance([[0.0]], [[0.0, 1.0]])


class TestProperties:
    def test_interpolation_identity(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 2, size=(15, 2))
        op = MeasurementOperator(pts)
        rmap = RecoveryMap(ScalarKernel.matern(nu=2.5, lengthscale=0.8), op)
        for _ in range(5):
            U = rng.normal(size=15)
            back = measure(op, recover(rmap, U, pts))
            assert np.linalg.norm(back - U) / max(np.linalg.norm(U), 1.0) <= 1e-8

    def test_projection_idempotence(self):
        rng = np.random.default_rng(11)
        pts = (np.linspace(0, 1, 8) + rng.uniform(-0.02, 0.02, 8))[:, None]
        op = MeasurementOperator(pts)
        rmap = RecoveryMap(ScalarKernel.matern(nu=2.5, lengthscale=0.5), op, nugget=1e-12)
        U = rng.normal(size=8)
        queries = rng.uniform(-0.2, 1.2, size=(100, 1))
        once = recover(rmap, U, queries).values
        again = recover(rmap, measure(op, recover(rmap, U, pts)), queries).values
        np.testing.assert_allclose(again, once, atol=1e-8)

    def test_preconditioner_isometry(self):
        # euclidean norm of the measurement equals the interpolant's RKHS norm
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, size=(10, 2))
        k = ScalarKernel.matern(nu=2.5, lengthscale=0.6)
        nug = 1e-12
        L = cholesky_preconditioner(k, pts, nugget=nug)
        op = MeasurementOperator(pts, L)
        rmap = RecoveryMap(k, op, nugget=nug)
        for _ in range(5):
            U = rng.normal(size=10)
            c = rmap.coefficients(U)
            rkhs_norm = np.sqrt(c @ gram(k, pts) @ c)
            measured = measure(op, recover(rmap, U, pts))
            assert np.linalg.norm(measured) == pytest.approx(rkhs_norm, abs=1e-8, rel=1e-8)

    def test_recovery_weights_match_recover(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 1, size=(7, 1))
        L = rng.normal(size=(7, 7)) + 3 * np.eye(7)
        rmap = RecoveryMap(ScalarKernel.gaussian(0.4), MeasurementOperator(pts, L))
        U = rng.normal(size=7)
        queries = rng.uniform(0, 1, size=(9, 1))
        W = recovery_weights(rmap, queries)
        np.testing.assert_allclose(W @ U, recover(rmap, U, queries).values, atol=1e-11)


    def test_batched_coefficients_and_cached_preconditioner_lu(self, monkeypatch):
        from odlearn import recovery

        rng = np.random.default_rng(14)
        pts = rng.uniform(0, 1, size=(9, 1))
        L = rng.normal(size=(9, 9)) + 4 * np.eye(9)
        rmap = RecoveryMap(ScalarKernel.matern(nu=2.5, lengthscale=0.3), MeasurementOperator(pts, L))
        factored = []
        real = recovery.lu_factor
        monkeypatch.setattr(recovery, "lu_factor", lambda A: factored.append(1) or real(A))
        U = rng.normal(size=(4, 9))
        C = rmap.coefficients(U)
        assert C.shape == (9, 4)
        for i in range(4):
            single = rmap.coefficients(U[i])
            np.testing.assert_allclose(C[:, i], single, rtol=1e-12, atol=1e-12 * np.abs(single).max())
            G = gram(rmap.kernel, rmap.measurement.points)
            expected = np.linalg.solve(G + rmap.nugget * np.eye(9), np.linalg.solve(L, U[i]))
            np.testing.assert_allclose(single, expected, rtol=1e-8, atol=1e-8 * np.abs(expected).max())
        recovery_weights(rmap, rng.uniform(0, 1, size=(5, 1)))
        assert factored == [1]


class TestValidation:
    def test_function_samples_shape_and_finiteness(self):
        with pytest.raises(ValueError, match="length"):
            FunctionSamples(np.zeros((3, 1)), [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            FunctionSamples(np.zeros((1, 1)), [np.nan])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            MeasurementOperator(np.array([[0.0], [0.0]]))

    @pytest.mark.parametrize("points", [
        [[0.5, 1.0], [0.0, 2.0], [0.5, 1.0]],   # a repeated point, not adjacent
        [[0.0, 1.0], [-0.0, 1.0]],              # signed zeros are the same point
    ])
    def test_repeated_point_rejected_with_message(self, points):
        with pytest.raises(ValueError, match="^collocation points must be pairwise distinct$"):
            MeasurementOperator(np.array(points))

    def test_distinct_points_accepted(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        assert MeasurementOperator(pts).size == 4

    def test_preconditioner_shape_checked(self):
        with pytest.raises(ValueError, match="preconditioner"):
            MeasurementOperator(np.array([[0.0], [1.0]]), np.eye(3))


def tensor_points(*axes):
    """C-ordered tensor product of 1-D coordinate arrays, the last axis fastest."""
    return np.column_stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])


def lattice_map(kernel_of_step, dim, preconditioner, n):
    """A recovery map on n points per axis of [0, 1]^dim, with the grid step h,
    and a smooth batch of three measurement rows."""
    xs = np.linspace(0.0, 1.0, n)
    h = xs[1] - xs[0]
    grid = tensor_points(*[xs] * dim)
    kernel = kernel_of_step(h)
    L = cholesky_preconditioner(kernel, grid) if preconditioner == "cholesky" else None
    rmap = RecoveryMap(kernel, MeasurementOperator(grid, L))
    waves = [np.sin(3.0 * grid[:, 0] + 1.0), np.cos(5.0 * grid.sum(axis=1)), np.exp(-grid[:, -1])]
    U = np.array(waves) @ (L.T if L is not None else np.eye(len(grid)))
    return rmap, h, U


def lattice_and_dense(monkeypatch, rmap, C, q, threshold=0):
    """evaluate on q at the lattice threshold given, then each column of C alone,
    then with the lattice path off; and whether the batch took the lattice path
    (which builds no cross Gram)."""
    calls = []
    real = recovery.gram
    monkeypatch.setattr(recovery, "gram", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", threshold)
    fast = evaluate(rmap, C, q)
    took_lattice = not calls
    singles = np.column_stack([evaluate(rmap, c, q) for c in C.T])
    monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", np.inf)
    return fast, singles, evaluate(rmap, C, q), took_lattice


def matern(h):
    return ScalarKernel.matern(nu=2.5, lengthscale=2.0 * h)


class TestLattice:
    """evaluate on lattice query sets convolves by FFT; it must agree with the
    blocked dense path to 1e-13 of each column, bitwise for one column alone or
    in a batch, and fall back bitwise wherever a condition fails."""

    def check_lattice(self, monkeypatch, rmap, U, q):
        C = rmap.coefficients(U)
        fast, singles, dense, took_lattice = lattice_and_dense(monkeypatch, rmap, C, q)
        assert took_lattice
        assert fast.shape == dense.shape == (len(q), len(U))
        err = np.linalg.norm(fast - dense, axis=0)
        assert np.all(err <= 1e-13 * np.linalg.norm(dense, axis=0)), err
        assert np.array_equal(singles, fast)

    @pytest.mark.parametrize("preconditioner", ["none", "cholesky"])
    @pytest.mark.parametrize("offset", [0.25, 0.5])
    @pytest.mark.parametrize("dim, n", [(1, 40), (2, 24)])
    def test_offset_lattices_match_dense(self, monkeypatch, dim, n, offset, preconditioner):
        rmap, h, U = lattice_map(matern, dim, preconditioner, n)
        qs = offset * h + np.arange(n - 1) * h
        self.check_lattice(monkeypatch, rmap, U, tensor_points(*[qs] * dim))

    @pytest.mark.parametrize("preconditioner", ["none", "cholesky"])
    @pytest.mark.parametrize("kernel_of_step", [
        *(lambda h, nu=nu: ScalarKernel.matern(nu=nu, lengthscale=2.0 * h) for nu in (0.5, 1.5, 2.5, 3.5)),
        lambda h: ScalarKernel.gaussian(lengthscale=h, output_scale=3.0),
        lambda h: ScalarKernel.rq(lengthscale=h, alpha=1.5),
    ], ids=["matern0.5", "matern1.5", "matern2.5", "matern3.5", "gaussian", "rq"])
    def test_every_stationary_kernel_matches_dense(self, monkeypatch, kernel_of_step, preconditioner):
        rmap, h, U = lattice_map(kernel_of_step, 2, preconditioner, 16)
        xs, ys = 0.1 * h + np.arange(20) * h, -0.4 * h + np.arange(16) * h  # past the grid, and not square
        self.check_lattice(monkeypatch, rmap, U, tensor_points(xs, ys))

    @pytest.mark.parametrize("moved", ["query", "grid"])
    def test_point_just_inside_the_tolerance_matches_dense(self, monkeypatch, moved):
        # the convolution evaluates the ideal lattice: a point 0.9 LATTICE_TOL off it
        # moves the result by about 3e-14 of the column here, 1e-12 by about 7e-13
        xs = np.linspace(0.0, 1.0, 40)
        h = xs[1] - xs[0]
        grid, q = xs[:, None], (xs[:-1] + 0.5 * h)[:, None]
        (q if moved == "query" else grid)[20, 0] += 0.9 * recovery.LATTICE_TOL * (1.0 - h)
        rmap = RecoveryMap(matern(h), MeasurementOperator(grid))
        self.check_lattice(monkeypatch, rmap, np.array([np.sin(3.0 * xs + 1.0), np.cos(5.0 * xs)]), q)

    def check_fallback(self, monkeypatch, rmap, U, q, threshold=0):
        C = rmap.coefficients(U)
        fast, singles, dense, took_lattice = lattice_and_dense(monkeypatch, rmap, C, q, threshold)
        assert not took_lattice
        assert np.array_equal(fast, dense)

    def test_linear_kernel_falls_back(self, monkeypatch):
        rmap, h, U = lattice_map(lambda h: ScalarKernel.linear(), 2, "none", 12)
        self.check_fallback(monkeypatch, rmap, U, rmap.measurement.points + 0.5 * h)

    @pytest.mark.parametrize("moved", ["query", "grid"])
    def test_point_moved_off_the_lattice_falls_back(self, monkeypatch, moved):
        xs = np.linspace(0.0, 1.0, 24)
        h = xs[1] - xs[0]
        grid, q = tensor_points(xs, xs), tensor_points(xs + 0.5 * h, xs + 0.5 * h)
        (q if moved == "query" else grid)[100, 1] += 1e-9 * h
        rmap = RecoveryMap(matern(h), MeasurementOperator(grid))
        self.check_fallback(monkeypatch, rmap, np.sin(3.0 * grid[:, 0])[None, :], q)

    def test_xy_ordered_lattice_falls_back(self, monkeypatch):
        rmap, h, U = lattice_map(matern, 2, "none", 24)
        xs = np.linspace(0.0, 1.0, 24) + 0.5 * h
        xx, yy = np.meshgrid(xs, xs, indexing="xy")  # the first axis varies fastest
        self.check_fallback(monkeypatch, rmap, U, np.column_stack([xx.ravel(), yy.ravel()]))

    @pytest.mark.parametrize("order", ["descending", "repeated"])
    def test_descending_or_repeated_points_fall_back(self, monkeypatch, order):
        rmap, h, U = lattice_map(matern, 2, "none", 12)
        q = rmap.measurement.points + 0.5 * h
        q = q[::-1] if order == "descending" else np.vstack([q[:1], q[:1], -q])
        self.check_fallback(monkeypatch, rmap, U, q)

    @pytest.mark.parametrize("queries", ["301 points", "half step"])
    def test_another_step_falls_back(self, monkeypatch, queries):
        rmap, h, U = lattice_map(matern, 1, "none", 20)
        q = np.linspace(0.0, 1.0, 301) if queries == "301 points" else 0.1 + np.arange(40) * (h / 2)
        self.check_fallback(monkeypatch, rmap, U, q[:, None])

    def test_threshold_counts_cross_gram_entries(self, monkeypatch):
        rmap, h, U = lattice_map(matern, 2, "none", 12)
        q = rmap.measurement.points + 0.5 * h
        entries = len(q) * rmap.size
        self.check_fallback(monkeypatch, rmap, U, q, threshold=entries + 1)
        assert lattice_and_dense(monkeypatch, rmap, rmap.coefficients(U), q, entries)[-1]

    def test_default_threshold_keeps_burgers_dense_and_darcy_on_the_lattice(self):
        assert 128 * 128 < recovery.LATTICE_MIN_ENTRIES <= 28 * 28 * 29 * 29
