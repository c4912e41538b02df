import logging
import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, solve_triangular
from scipy.spatial.distance import cdist

from odlearn import kernels, regression
from odlearn.errors import FactorizationError
from odlearn.kernels import GRAM_IDENTITY_MIN_DIM, ScalarKernel, gram, sqnorms
from odlearn.regression import (
    TuningSpec,
    fit,
    log_marginal_likelihood,
    posterior_variance,
    predict,
    fit_residual,
    rkhs_norm_squared,
    tune,
)


def dense_predict_oracle(kernel, U_train, V_train, gamma, U_query):
    """Brute-force oracle: full matrix inverse, no shared factorization."""
    G = gram(kernel, U_train)
    Ginv = np.linalg.inv(G + gamma * np.eye(G.shape[0]))
    return gram(kernel, np.atleast_2d(U_query), U_train) @ Ginv @ V_train


def dense_variance_oracle(kernel, U_train, gamma, u):
    """Schur-complement oracle with an explicit inverse."""
    G = gram(kernel, U_train)
    Ginv = np.linalg.inv(G + gamma * np.eye(G.shape[0]))
    k_row = gram(kernel, np.atleast_2d(u), U_train)[0]
    from odlearn.kernels import eval_kernel

    return eval_kernel(kernel, u, u) - k_row @ Ginv @ k_row


def dense_lml_oracle(kernel, U, V, gamma):
    """GP evidence from an explicit solve and slogdet, no Cholesky, no target factor."""
    A = gram(kernel, U) + gamma * np.eye(U.shape[0])
    sign, logdet = np.linalg.slogdet(A)
    assert sign > 0
    n, m = V.shape
    return -0.5 * np.sum(V * np.linalg.solve(A, V)) - 0.5 * m * logdet - 0.5 * n * m * math.log(2 * math.pi)


class TestFit:
    def test_single_sample_unit_gram(self):
        # gaussian kernel has k(U1, U1) = 1 for any point
        model = fit(ScalarKernel.gaussian(1.0), [[0.4, 0.2]], [[3.0, -2.0]], gamma=0.0)
        np.testing.assert_allclose(model.coef, [[3.0, -2.0]], rtol=1e-12)

    def test_linear_kernel_recovers_linear_map(self):
        rng = np.random.default_rng(20)
        n, N = 4, 12
        W = rng.normal(size=(3, n))
        U = rng.normal(size=(N, n))
        V = U @ W.T
        model = fit(ScalarKernel.linear(), U, V, gamma=1e-12)
        U_query = rng.normal(size=(6, n))
        # oracle: direct least-squares solve for the linear map
        W_ls, *_ = np.linalg.lstsq(U, V, rcond=None)
        expected = U_query @ W_ls
        np.testing.assert_allclose(predict(model, U_query), expected, atol=1e-6)
        np.testing.assert_allclose(predict(model, U_query), U_query @ W.T, atol=1e-6)

    def test_large_gamma_ridge_limit(self):
        rng = np.random.default_rng(21)
        U = rng.normal(size=(3, 2))
        V = rng.normal(size=(3, 2))
        gamma = 1e10
        model = fit(ScalarKernel.gaussian(1.0), U, V, gamma=gamma)
        np.testing.assert_allclose(model.coef, V / gamma, rtol=1e-6)
        assert np.abs(predict(model, U)).max() <= 1e-8

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(22)
        U = rng.normal(size=(8, 3))
        V = rng.normal(size=(8, 2))
        gamma = 1e-3
        model = fit(ScalarKernel.matern(nu=2.5, lengthscale=1.0), U, V, gamma=gamma)
        G = gram(model.kernel, U) + gamma * np.eye(8)
        resid = np.linalg.norm(G @ model.coef - V) / np.linalg.norm(V)
        assert resid <= 1e-8

    def test_gamma_zero_fallback_is_logged(self, caplog):
        # duplicated rows make the gamma=0 Gram exactly singular
        U = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        V = np.array([[1.0], [1.0], [2.0]])
        with caplog.at_level(logging.WARNING, logger="odlearn.regression"):
            model = fit(ScalarKernel.gaussian(1.0), U, V, gamma=0.0)
        assert model.gamma > 0
        assert any("default gamma" in rec.message for rec in caplog.records)

    def test_positive_gamma_failure_raises(self):
        U = np.array([[0.0, 0.0], [0.0, 0.0]])
        V = np.array([[1.0], [1.0]])
        with pytest.raises(FactorizationError, match="increase gamma"):
            fit(ScalarKernel.gaussian(1.0), U, V, gamma=1e-300)

    @pytest.mark.parametrize("gamma", [-1e-12, np.nan, np.inf, True], ids=str)
    def test_gamma_must_be_a_finite_number_at_least_zero(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be a finite number >= 0"):
            fit(ScalarKernel.gaussian(1.0), [[0.0], [1.0]], [[1.0], [2.0]], gamma=gamma)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit(ScalarKernel.gaussian(1.0), np.zeros((2, 2)), np.zeros((3, 1)))


class TestPredict:
    def test_interpolates_training_rows(self):
        rng = np.random.default_rng(23)
        U = rng.normal(size=(6, 2))
        V = rng.normal(size=(6, 3))
        model = fit(ScalarKernel.gaussian(1.5), U, V, gamma=0.0)
        for i in range(6):
            np.testing.assert_allclose(predict(model, U[i]), V[i], atol=1e-8)

    def test_far_query_decays_to_zero(self):
        model = fit(ScalarKernel.gaussian(0.1), [[0.0]], [[5.0]], gamma=0.0)
        assert abs(predict(model, [100.0])[0]) <= 1e-15

    def test_three_point_dense_inverse_oracle(self):
        rng = np.random.default_rng(24)
        U = rng.normal(size=(3, 2))
        V = rng.normal(size=(3, 2))
        gamma = 1e-3
        kernel = ScalarKernel.rq(lengthscale=0.9, alpha=1.2)
        model = fit(kernel, U, V, gamma=gamma)
        q = rng.normal(size=(4, 2))
        np.testing.assert_allclose(
            predict(model, q), dense_predict_oracle(kernel, U, V, gamma, q), atol=1e-10
        )

    def test_dimension_mismatch(self):
        model = fit(ScalarKernel.gaussian(1.0), [[0.0, 1.0]], [[1.0]], gamma=0.0)
        with pytest.raises(ValueError, match="dimension"):
            predict(model, [1.0, 2.0, 3.0])

    def test_other_coefficients_share_the_kernel_row(self):
        rng = np.random.default_rng(30)
        U = rng.normal(size=(7, 3))
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=1.2)
        model = fit(kernel, U, rng.normal(size=(7, 2)), gamma=1e-6)
        C, Q = rng.normal(size=(7, 5)), rng.normal(size=(4, 3))
        assert np.array_equal(predict(model, Q, C), gram(kernel, Q, U) @ C)
        assert np.array_equal(predict(model, Q, model.coef), predict(model, Q))
        np.testing.assert_allclose(predict(model, Q[1], C), predict(model, Q, C)[1], rtol=1e-14)
        mean, var = regression.posterior(model, Q, C)
        assert np.array_equal(mean, predict(model, Q, C)) and np.array_equal(var, posterior_variance(model, Q))

    def test_features_are_checked_once_at_construction(self, monkeypatch):
        rng = np.random.default_rng(31)
        U = rng.normal(size=(6, 2))
        kernel = ScalarKernel.matern(nu=1.5, lengthscale=1.0)
        model = fit(kernel, U, rng.normal(size=(6, 1)), gamma=1e-6)
        bad = U.copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match="^inputs contains non-finite coordinates$"):
            regression.TrainedRegressor(kernel=kernel, inputs=bad, gamma=model.gamma, coef=model.coef, chol=model.chol)
        scanned = []
        real = kernels.as_points
        monkeypatch.setattr(kernels, "as_points", lambda X, name: scanned.append(name) or real(X, name))
        predict(model, rng.normal(size=(3, 2)))
        assert scanned == ["X"]  # the queries; the training features come with their norms


class TestPosteriorVariance:
    def test_zero_at_training_point(self):
        rng = np.random.default_rng(25)
        U = rng.normal(size=(5, 2))
        model = fit(ScalarKernel.matern(nu=1.5, lengthscale=1.0), U, rng.normal(size=(5, 1)), gamma=0.0)
        for i in range(5):
            assert abs(posterior_variance(model, U[i])) <= 1e-8

    def test_one_triangular_solve_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(41)
        U = rng.normal(size=(8, 3))
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=1.1)
        gamma = 1e-3
        model = fit(kernel, U, rng.normal(size=(8, 2)), gamma=gamma)
        assert model.chol.flags.c_contiguous and np.array_equal(model.chol, np.tril(model.chol))
        Q = rng.normal(size=(6, 3))
        k = gram(kernel, Q, U)
        A = gram(kernel, U) + gamma * np.eye(8)
        expected = np.diag(gram(kernel, Q)) - np.einsum("ij,ji->i", k, np.linalg.solve(A, k.T))
        np.testing.assert_allclose(posterior_variance(model, Q), expected, rtol=0, atol=1e-12)
        single = posterior_variance(model, Q[2])
        assert isinstance(single, float) and abs(single - expected[2]) <= 1e-12

    def test_far_query_returns_prior_variance(self):
        kernel = ScalarKernel.gaussian(0.1, output_scale=2.5)
        model = fit(kernel, [[0.0]], [[1.0]], gamma=0.0)
        assert posterior_variance(model, [500.0]) == pytest.approx(2.5, rel=1e-12)

    def test_three_point_schur_oracle(self):
        rng = np.random.default_rng(26)
        U = rng.normal(size=(3, 2))
        kernel = ScalarKernel.gaussian(1.0)
        gamma = 1e-4
        model = fit(kernel, U, rng.normal(size=(3, 1)), gamma=gamma)
        for _ in range(5):
            u = rng.normal(size=2)
            assert posterior_variance(model, u) == pytest.approx(
                dense_variance_oracle(kernel, U, gamma, u), abs=1e-10
            )

    def test_bounds(self):
        rng = np.random.default_rng(27)
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=0.7)
        U = rng.normal(size=(10, 2))
        model = fit(kernel, U, rng.normal(size=(10, 2)), gamma=1e-8)
        queries = rng.normal(size=(200, 2))
        var = posterior_variance(model, queries)
        assert (var >= -1e-10).all()
        assert (var <= 1.0 + 1e-10).all()  # k(u, u) = 1 for unit output_scale


    def test_posterior_is_predict_and_variance_from_one_kernel_row(self, monkeypatch):
        rng = np.random.default_rng(29)
        U = rng.normal(size=(9, 3))
        model = fit(ScalarKernel.matern(nu=2.5, lengthscale=1.3), U, rng.normal(size=(9, 4)), gamma=1e-6)
        Q = rng.normal(size=(5, 3))
        calls = []
        real = regression.gram
        monkeypatch.setattr(regression, "gram", lambda *a, **k: calls.append(1) or real(*a, **k))
        mean, var = regression.posterior(model, Q)
        assert len(calls) == 1
        assert np.array_equal(mean, predict(model, Q)) and np.array_equal(var, posterior_variance(model, Q))
        mean1, var1 = regression.posterior(model, Q[3])
        assert np.array_equal(mean1, predict(model, Q[3])) and var1 == posterior_variance(model, Q[3])
        assert isinstance(var1, float)


class TestLogMarginalLikelihood:
    def test_standard_normal_at_zero(self):
        got = log_marginal_likelihood(ScalarKernel.gaussian(1.0), [[0.3]], [[0.0]], gamma=0.0)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_unit_gram_value_one(self):
        got = log_marginal_likelihood(ScalarKernel.gaussian(1.0), [[0.3]], [[1.0]], gamma=0.0)
        assert got == pytest.approx(-0.5 - 0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_duplicated_column_doubles(self):
        rng = np.random.default_rng(28)
        U = rng.normal(size=(4, 2))
        v = rng.normal(size=(4, 1))
        k = ScalarKernel.gaussian(1.0)
        one = log_marginal_likelihood(k, U, v, gamma=1e-6)
        two = log_marginal_likelihood(k, U, np.hstack([v, v]), gamma=1e-6)
        assert two == pytest.approx(2 * one, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 13])
    def test_triangular_target_factor_matches_dense_oracle(self, n):
        # m > N: the data fit is solved in column blocks of the QR triangle,
        # uneven at n = 5, 7, 13 and fewer rows than blocks at n < 4
        rng = np.random.default_rng(60 + n)
        U = rng.normal(size=(n, 2))
        V = rng.normal(size=(n, n + 9))
        k = ScalarKernel.matern(2.5, 1.3)
        got = log_marginal_likelihood(k, U, V, gamma=1e-3)
        assert got == pytest.approx(dense_lml_oracle(k, U, V, 1e-3), rel=1e-10)

    @pytest.mark.parametrize("m", [3, 12])
    def test_dense_targets_keep_one_solve(self, m):
        # m <= N: the target factor is V itself and the data fit one solve against it
        rng = np.random.default_rng(70 + m)
        U = rng.normal(size=(12, 2))
        V = rng.normal(size=(12, m))
        k = ScalarKernel.gaussian(0.9)
        G = gram(k, U)
        L, _ = cho_factor(G + 1e-4 * np.eye(12), lower=True)
        Z = solve_triangular(L, V, lower=True)
        data_fit = -0.5 * float(np.sum(np.square(Z, out=Z)))
        logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
        want = data_fit - 0.5 * m * logdet - 0.5 * 12 * m * np.log(2.0 * np.pi)
        assert regression._evidence(G, 1e-4, regression._target_factor(V), m) == want


class TestFitResidual:
    def test_matches_explicit_fitted_targets(self):
        rng = np.random.default_rng(5)
        U = rng.normal(size=(12, 3))
        V = rng.normal(size=(12, 4))
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=1.3)
        for gamma in (0.0, 1e-3, 0.5):
            model = fit(kernel, U, V, gamma=gamma)
            fitted = gram(kernel, U) @ model.coef
            expected = np.mean(np.linalg.norm(V - fitted, axis=1) / np.linalg.norm(V, axis=1))
            assert fit_residual(model, V) == pytest.approx(expected, rel=1e-8, abs=1e-12)


class TestRkhsNorm:
    def test_single_sample(self):
        model = fit(ScalarKernel.gaussian(1.0), [[0.0]], [[3.0]], gamma=0.0)
        assert rkhs_norm_squared(model, [[3.0]]) == pytest.approx(9.0, rel=1e-12)

    def test_zero_targets(self):
        V = np.zeros((2, 2))
        model = fit(ScalarKernel.gaussian(1.0), [[0.0], [1.0]], V, gamma=0.0)
        assert rkhs_norm_squared(model, V) == 0.0

    def test_three_point_quadratic_form_oracle(self):
        rng = np.random.default_rng(29)
        U = rng.normal(size=(3, 2))
        V = rng.normal(size=(3, 2))
        gamma = 1e-3
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=1.3)
        model = fit(kernel, U, V, gamma=gamma)
        Ginv = np.linalg.inv(gram(kernel, U) + gamma * np.eye(3))
        expected = sum(V[:, j] @ Ginv @ V[:, j] for j in range(2))
        assert rkhs_norm_squared(model, V) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(30)
        U = rng.normal(size=(10, 2))
        V = rng.normal(size=(10, 3))
        kernel = ScalarKernel.gaussian(1.0)
        norms = [
            rkhs_norm_squared(fit(kernel, U, V, gamma=g), V)
            for g in (1e-8, 1e-4, 1e-2, 1.0, 100.0)
        ]
        assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))


class TestTune:
    def test_single_grid_point(self):
        rng = np.random.default_rng(31)
        U = rng.normal(size=(6, 2))
        V = rng.normal(size=(6, 1))
        spec = TuningSpec(grid=({"family": "gaussian", "lengthscale": 1.0, "gamma": 1e-6},))
        best, value, report = tune(spec, U, V)
        assert best["lengthscale"] == 1.0
        assert report[0]["objective"] == value

    def test_lml_selects_generating_lengthscale(self):
        # data drawn from the matern nu=5/2, l=1 prior via an exact GP sample
        rng = np.random.default_rng(32)
        U = rng.uniform(-2, 2, size=(40, 2))
        kern = ScalarKernel.matern(nu=2.5, lengthscale=1.0)
        G = gram(kern, U) + 1e-10 * np.eye(40)
        V = (np.linalg.cholesky(G) @ rng.standard_normal((40, 1)))
        grid = tuple(
            {"family": "matern", "nu": 2.5, "lengthscale": l, "gamma": 1e-8}
            for l in (0.01, 1.0, 100.0)
        )
        best, _, report = tune(TuningSpec(grid=grid, objective="lml"), U, V)
        assert best["lengthscale"] == 1.0
        assert len(report) == 3 and all(r["status"] == "ok" for r in report)

    def test_grid_permutation_invariance(self):
        rng = np.random.default_rng(33)
        U = rng.normal(size=(12, 2))
        V = rng.normal(size=(12, 1))
        grid = [
            {"family": "gaussian", "lengthscale": l, "gamma": 1e-6} for l in (0.3, 1.0, 3.0)
        ]
        best_fwd, _, _ = tune(TuningSpec(grid=tuple(grid), objective="lml"), U, V)
        best_rev, _, _ = tune(TuningSpec(grid=tuple(reversed(grid)), objective="lml"), U, V)
        assert best_fwd == best_rev

    def test_cv_objective_runs_and_selects(self):
        rng = np.random.default_rng(34)
        U = rng.uniform(-1, 1, size=(30, 1))
        V = np.sin(3 * U)
        grid = tuple(
            {"family": "matern", "nu": 2.5, "lengthscale": l, "gamma": 1e-8}
            for l in (1e-3, 0.5)
        )
        best, score, _ = tune(TuningSpec(grid=grid, objective="cv", folds=3, seed=1), U, V)
        assert best["lengthscale"] == 0.5
        assert score >= 0.0

    def test_folds_exceeding_samples_rejected(self):
        spec = TuningSpec(grid=({"family": "gaussian", "lengthscale": 1.0},), objective="cv", folds=5)
        with pytest.raises(ValueError, match="folds"):
            tune(spec, np.zeros((3, 1)) + np.arange(3)[:, None], np.ones((3, 1)))

    @pytest.mark.parametrize("objective", ["lml", "cv"])
    def test_row_count_mismatch_names_both_arguments(self, objective):
        spec = TuningSpec(grid=({"family": "gaussian", "lengthscale": 1.0},), objective=objective, folds=2)
        with pytest.raises(ValueError, match="inputs have 5 rows but targets have 4"):
            tune(spec, np.arange(10.0).reshape(5, 2), np.ones((4, 1)))

    def test_all_entries_failing_raises(self):
        U = np.array([[0.0], [0.0]])  # duplicate rows, gamma forced tiny
        V = np.array([[1.0], [1.0]])
        grid = ({"family": "gaussian", "lengthscale": 1.0, "gamma": 1e-300},)
        with pytest.raises(FactorizationError, match="every tuning grid entry"):
            tune(TuningSpec(grid=grid, objective="lml"), U, V)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            TuningSpec(grid=())
        with pytest.raises(ValueError, match="objective"):
            TuningSpec(grid=({"family": "linear"},), objective="mse")
        with pytest.raises(ValueError, match="folds"):
            TuningSpec(grid=({"family": "linear"},), objective="cv", folds=1)
        with pytest.raises(ValueError, match="gamma"):
            TuningSpec(grid=({"family": "linear", "gamma": True},))
        with pytest.raises(ValueError, match="lengthscale"):
            TuningSpec(grid=({"family": "gaussian", "lengthscale": True, "gamma": 1e-8},))


class TestFeatureDistances:
    def test_matern_half_on_duplicate_features_matches_cdist_oracle(self):
        # Matern-1/2 has a kink at r = 0: a duplicate pair that the Gram identity
        # left at sqrt(eps |x|^2) would move the kernel by ~1e-8
        rng = np.random.default_rng(53)
        U = rng.normal(size=(60, 92))
        U[40:50] = U[:10]
        V = rng.normal(size=(60, 5))
        Q = np.concatenate([U[:5], U[:5] + 1e-9, rng.normal(size=(5, 92))])
        assert U.shape[1] >= GRAM_IDENTITY_MIN_DIM
        kernel, gamma = ScalarKernel.matern(nu=0.5, lengthscale=10.0), 0.1  # cond(A) ~ 170
        A = kernel.stationary_value(cdist(U, U)) + gamma * np.eye(60)
        expected = kernel.stationary_value(cdist(Q, U)) @ np.linalg.solve(A, V)
        got = predict(fit(kernel, U, V, gamma), Q)
        rms = np.sqrt(np.mean(expected ** 2))
        assert np.abs(got - expected).max() <= 1e-13 * rms

    def test_training_norms_are_computed_once_per_regressor(self, monkeypatch):
        rng = np.random.default_rng(54)
        U = rng.normal(size=(30, 40))
        model = fit(ScalarKernel.matern(nu=2.5, lengthscale=8.0), U, rng.normal(size=(30, 2)), gamma=1e-8)
        seen = []
        real = regression.gram
        monkeypatch.setattr(regression, "gram", lambda *a, **k: seen.append(k["Y_sqnorms"]) or real(*a, **k))
        for Q in (U[:3], U[5], rng.normal(size=(4, 40))):
            regression.posterior(model, Q)
        assert len(seen) == 3 and all(norms is model.input_sqnorms for norms in seen)
        assert np.array_equal(model.input_sqnorms, sqnorms(U))


class TestTuneLmlPath:
    """The LML search shares distances, Grams and a target factor across entries."""

    # linear, rq, gaussian and matern entries, several gammas each
    MIXED_GRID = (
        {"family": "linear", "gamma": 1e-2},
        {"family": "linear", "gamma": 1e-1},
        {"family": "rq", "lengthscale": 1.5, "alpha": 0.7, "gamma": 1e-3},
        {"family": "rq", "lengthscale": 1.5, "alpha": 0.7, "gamma": 1e-1},
        {"family": "gaussian", "lengthscale": 0.8, "gamma": 1e-3},
        {"family": "gaussian", "lengthscale": 2.0, "gamma": 1e-3},
        {"family": "gaussian", "lengthscale": 2.0, "gamma": 1e-2},
        {"family": "matern", "nu": 2.5, "lengthscale": 1.2, "gamma": 1e-4},
        {"family": "matern", "nu": 0.5, "lengthscale": 1.2, "gamma": 1e-4},
        {"family": "matern", "nu": 2.5, "lengthscale": 1.2, "gamma": 1e-2},
    )

    @pytest.mark.parametrize("m", [3, 25, 60], ids=["m<N", "m=N", "m>N"])
    def test_matches_per_entry_reference(self, m):
        rng = np.random.default_rng(40 + m)
        U = rng.normal(size=(25, 3))
        V = np.sin(U @ rng.normal(size=(3, m))) + 0.1 * rng.normal(size=(25, m))
        best, value, report = tune(TuningSpec(grid=self.MIXED_GRID, objective="lml"), U, V)
        reference, oracle = [], []
        for entry in self.MIXED_GRID:
            cfg = dict(entry)
            gamma = cfg.pop("gamma")
            kernel = ScalarKernel.from_config(cfg)
            reference.append(log_marginal_likelihood(kernel, U, V, gamma))
            oracle.append(dense_lml_oracle(kernel, U, V, gamma))
        got = [r["objective"] for r in report]
        assert all(r["status"] == "ok" for r in report)
        np.testing.assert_allclose(got, reference, rtol=1e-10)
        np.testing.assert_allclose(got, oracle, rtol=1e-10)
        first_best = int(np.argmax(reference))
        assert first_best == int(np.argmax(oracle))
        assert best == self.MIXED_GRID[first_best] and value == got[first_best]

    def test_failed_entry_reported_others_score(self):
        # duplicated rows make the gamma=0 Gram exactly singular
        U = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        V = np.array([[1.0, 0.5], [1.0, 0.5], [2.0, -1.0]])
        grid = (
            {"family": "gaussian", "lengthscale": 1.0, "gamma": 0.0},
            {"family": "gaussian", "lengthscale": 1.0, "gamma": 1e-3},
            {"family": "linear", "gamma": 1e-2},
        )
        best, value, report = tune(TuningSpec(grid=grid, objective="lml"), U, V)
        assert report[0] == {
            "params": grid[0],
            "status": "failed",
            "detail": "Gram factorization failed at gamma=0.000e+00; increase gamma",
        }
        assert [r["status"] for r in report[1:]] == ["ok", "ok"]
        assert report[1]["objective"] == log_marginal_likelihood(ScalarKernel.gaussian(1.0), U, V, 1e-3)
        assert best in grid[1:] and value == max(r["objective"] for r in report[1:])

    def test_distances_once_and_one_gram_per_kernel(self, monkeypatch):
        calls = {"distances": 0, "stationary_gram": 0, "gram": 0}

        def counted(name):
            real = getattr(regression, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(regression, name, wrapper)

        for name in calls:
            counted(name)
        rng = np.random.default_rng(41)
        U = rng.normal(size=(20, 2))
        V = rng.normal(size=(20, 4))
        # the repeated gaussian entry at the end is the same kernel as entries 4-6
        grid = self.MIXED_GRID + ({"family": "gaussian", "lengthscale": 2.0, "gamma": 1e-1},)
        tune(TuningSpec(grid=grid, objective="lml"), U, V)
        # rq, gaussian 0.8, gaussian 2.0, matern 2.5, matern 0.5; one linear
        assert calls == {"distances": 1, "stationary_gram": 5, "gram": 1}


class TestProperties:
    def test_interpolation_relative_error(self):
        rng = np.random.default_rng(35)
        U = rng.normal(size=(20, 3))
        V = rng.normal(size=(20, 4))
        model = fit(ScalarKernel.matern(nu=2.5, lengthscale=1.0), U, V, gamma=0.0)
        pred = predict(model, U)
        rel = np.abs(pred - V) / (1.0 + np.abs(V))
        assert rel.max() <= 1e-7

    def test_linearity_in_targets(self):
        rng = np.random.default_rng(36)
        U = rng.normal(size=(8, 2))
        V1 = rng.normal(size=(8, 2))
        V2 = rng.normal(size=(8, 2))
        kernel = ScalarKernel.gaussian(1.0)
        gamma = 1e-6
        q = rng.normal(size=(5, 2))
        sum_fit = predict(fit(kernel, U, V1 + V2, gamma), q)
        fit_sum = predict(fit(kernel, U, V1, gamma), q) + predict(fit(kernel, U, V2, gamma), q)
        np.testing.assert_allclose(sum_fit, fit_sum, atol=1e-9)

    def test_deterministic_error_bound(self):
        # f = sum_i c_i k(., Z_i) has known RKHS norm; the posterior-sd bound
        # must dominate the prediction error everywhere
        rng = np.random.default_rng(37)
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=0.8)
        Z = rng.normal(size=(6, 2))
        c = rng.normal(size=6)
        norm_f = math.sqrt(c @ gram(kernel, Z) @ c)

        def f_true(u):
            return float(gram(kernel, np.atleast_2d(u), Z)[0] @ c)

        U_train = rng.normal(size=(10, 2))
        V_train = np.array([[f_true(u)] for u in U_train])
        model = fit(kernel, U_train, V_train, gamma=0.0)
        for _ in range(100):
            u = rng.normal(size=2)
            err = abs(f_true(u) - predict(model, u)[0])
            bound = math.sqrt(max(posterior_variance(model, u), 0.0)) * norm_f
            assert err <= bound + 1e-8
