import numpy as np
import pytest

from odlearn.errors import FactorizationError
from odlearn.kernels import ScalarKernel, gram
from odlearn.recovery import (
    FunctionSamples,
    MeasurementOperator,
    RecoveryMap,
    cholesky_preconditioner,
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
