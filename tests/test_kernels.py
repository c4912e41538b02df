import math
import pickle

import numpy as np
import pytest

from scipy.spatial.distance import cdist

from odlearn.kernels import (
    GRAM_IDENTITY_MIN_DIM,
    GRAM_IDENTITY_MIN_WORK,
    MATERN_NUS,
    ScalarKernel,
    distances,
    eval_kernel,
    gram,
    gram_diag,
    sqnorms,
)


def all_families():
    return [
        ScalarKernel.linear(),
        ScalarKernel.rq(lengthscale=0.7, alpha=1.3),
        ScalarKernel.matern(nu=0.5, lengthscale=0.9),
        ScalarKernel.matern(nu=1.5, lengthscale=1.1),
        ScalarKernel.matern(nu=2.5, lengthscale=0.8),
        ScalarKernel.matern(nu=3.5, lengthscale=1.4),
        ScalarKernel.gaussian(lengthscale=1.2),
    ]


class TestEval:
    def test_linear_dot_product(self):
        assert eval_kernel(ScalarKernel.linear(), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_rq_at_equal_points_is_one(self):
        k = ScalarKernel.rq(lengthscale=0.37, alpha=2.9)
        assert eval_kernel(k, [0.4, -1.0], [0.4, -1.0]) == 1.0

    def test_matern_half_collapses_to_exponential(self):
        # p = 0 collapses the finite sum to exp(-r/l)
        k = ScalarKernel.matern(nu=0.5, lengthscale=1.0)
        assert eval_kernel(k, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_gaussian_at_r_sqrt2(self):
        k = ScalarKernel.gaussian(lengthscale=1.0)
        assert eval_kernel(k, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            eval_kernel(ScalarKernel.linear(), [1.0], [1.0, 2.0])

    def test_nonfinite_input_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            eval_kernel(ScalarKernel.gaussian(1.0), [np.nan], [1.0])
        with pytest.raises(ValueError, match="non-finite"):
            eval_kernel(ScalarKernel.linear(), [1.0], [np.inf])

    def test_matern_closed_forms(self):
        # independent closed-form oracles for nu = 3/2 and 5/2
        r, l = 0.7, 1.3
        k32 = eval_kernel(ScalarKernel.matern(nu=1.5, lengthscale=l), [0.0], [r])
        t = math.sqrt(3) * r / l
        assert k32 == pytest.approx((1 + t) * math.exp(-t), rel=1e-14)
        k52 = eval_kernel(ScalarKernel.matern(nu=2.5, lengthscale=l), [0.0], [r])
        t = math.sqrt(5) * r / l
        assert k52 == pytest.approx((1 + t + t * t / 3) * math.exp(-t), rel=1e-14)


class TestGram:
    def test_gaussian_duplicate_points(self):
        G = gram(ScalarKernel.gaussian(1.0), [[0.0], [0.0]])
        assert np.array_equal(G, np.ones((2, 2)))

    def test_linear_orthonormal_inputs(self):
        G = gram(ScalarKernel.linear(), [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(G, np.eye(2))

    def test_matern_toeplitz(self):
        G = gram(ScalarKernel.matern(nu=0.5, lengthscale=1.0), [[0.0], [1.0], [2.0]])
        expected_row = np.array([1.0, math.exp(-1.0), math.exp(-2.0)])
        np.testing.assert_allclose(G[0], expected_row, rtol=1e-14)
        np.testing.assert_allclose(np.diag(G), 1.0, rtol=1e-15)

    def test_empty_point_list_raises(self):
        with pytest.raises(ValueError, match="nonempty"):
            gram(ScalarKernel.gaussian(1.0), np.empty((0, 2)))

    def test_cross_gram_shape(self):
        G = gram(ScalarKernel.gaussian(1.0), np.zeros((3, 2)) + 1.0, np.zeros((5, 2)))
        assert G.shape == (3, 5)

    def test_gram_matches_eval(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(6, 3))
        for k in all_families():
            G = gram(k, X, Y)
            for i in range(4):
                for j in range(6):
                    assert G[i, j] == pytest.approx(eval_kernel(k, X[i], Y[j]), rel=1e-13)

    def test_gram_diag_matches(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2))
        for k in all_families():
            np.testing.assert_allclose(gram_diag(k, X), np.diag(gram(k, X)), rtol=1e-13)

    def test_gram_diag_is_the_cached_value_bitwise(self):
        X = np.random.default_rng(2).normal(size=(6, 3))
        for k in [k for k in all_families() if k.family != "linear"]:
            k = ScalarKernel.from_config({**k.to_config(), "output_scale": 1.7})
            want = np.full(6, k.output_scale * k.stationary_value(0.0))
            assert k.diag_value == want[0] and gram_diag(k, X).tobytes() == want.tobytes()
        linear = ScalarKernel.linear(output_scale=1.7)
        assert linear.diag_value is None
        assert gram_diag(linear, X).tobytes() == (1.7 * np.einsum("ij,ij->i", X, X)).tobytes()


def long_double_distances(X, Y):
    """|X_i - Y_j| from differences, squares and a root in extended precision."""
    diff = X.astype(np.longdouble)[:, None, :] - Y.astype(np.longdouble)[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def feature_pairs(case: str, d: int = 92):
    """Features X, Y (40 and 30 rows) holding the pairs the Gram identity
    cancels on: rows of Y 0-4 repeat rows of X and X[20] repeats X[3]; rows
    5-9 sit 1e-9 of their norm from rows of X; "offset" moves every point by a
    common vector 100 times their spread."""
    rng = np.random.default_rng(77)
    X, Y = rng.normal(size=(40, d)), rng.normal(size=(30, d))
    Y[:5], X[20] = X[:5], X[3]
    step = rng.normal(size=(5, d))
    step *= 1e-9 * np.linalg.norm(X[5:10], axis=1)[:, None] / np.linalg.norm(step, axis=1)[:, None]
    Y[5:10] = X[5:10] + step
    if case == "offset":
        shift = 100.0 * rng.normal(size=d)
        X, Y = X + shift, Y + shift
    return X, Y


class TestDistances:
    @pytest.mark.parametrize("case", ["centred", "offset"])
    def test_within_64_ulps_of_long_double(self, case):
        X, Y = feature_pairs(case)
        assert X.shape[1] >= GRAM_IDENTITY_MIN_DIM
        for D, exact in ((distances(X, Y), long_double_distances(X, Y)),
                         (distances(X), long_double_distances(X, X)),
                         (distances(X, Y, sqnorms(Y)), long_double_distances(X, Y))):
            zero = exact == 0
            assert zero.sum() >= 5 and np.array_equal(D[zero], np.zeros(zero.sum()))
            rel = np.abs(D.astype(np.longdouble) - exact)[~zero] / exact[~zero]
            assert float(rel.max()) <= 64 * np.finfo(float).eps

    def test_near_duplicates_are_not_rounded_to_their_norm(self):
        X, Y = feature_pairs("centred")
        near = np.diagonal(distances(X[5:10], Y[5:10]))
        np.testing.assert_allclose(near, 1e-9 * np.linalg.norm(X[5:10], axis=1), rtol=1e-6)

    @pytest.mark.parametrize("d", [1, 3, GRAM_IDENTITY_MIN_DIM - 1])
    def test_below_the_floor_is_cdist(self, d):
        X, Y = feature_pairs("offset", d)
        assert np.array_equal(distances(X, Y), cdist(X, Y))
        assert np.array_equal(distances(X), cdist(X, X))
        assert np.array_equal(gram(ScalarKernel.matern(1.5, 2.0), X, Y),
                              ScalarKernel.matern(1.5, 2.0).stationary_value(cdist(X, Y)))

    def test_small_products_are_cdist(self):
        # one darcy request: a 92-vector against 500 features, under GRAM_IDENTITY_MIN_WORK
        rng = np.random.default_rng(78)
        Y = rng.normal(size=(500, 92))
        X = Y[:2] + 1e-3
        assert X[:1].size * len(Y) < GRAM_IDENTITY_MIN_WORK <= X.size * len(Y)
        assert np.array_equal(distances(X[:1], Y, sqnorms(Y)), cdist(X[:1], Y))
        assert not np.array_equal(distances(X, Y), cdist(X, Y))

    @pytest.mark.parametrize("case", ["centred", "offset"])
    def test_one_argument_form_is_symmetric_with_zero_diagonal(self, case):
        X, _ = feature_pairs(case)
        D = distances(X)
        assert np.array_equal(D, D.T) and np.array_equal(np.diagonal(D), np.zeros(len(X)))
        G = gram(ScalarKernel.matern(2.5, 10.0), X)
        assert np.array_equal(G, G.T) and np.array_equal(np.diagonal(G), np.ones(len(X)))

    def test_floor_sits_between_burgers_and_darcy_features(self):
        # burgers' PCA features have d = 3, darcy's d = 92 (and 285 preconditioned)
        assert 3 < GRAM_IDENTITY_MIN_DIM <= 92


class TestInvariants:
    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        for k in all_families():
            for _ in range(20):
                x, y = rng.normal(size=3), rng.normal(size=3)
                assert eval_kernel(k, x, y) == eval_kernel(k, y, x)

    def test_self_gram_symmetric_and_psd(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, 4))
            X = rng.uniform(-2, 2, size=(n, d))
            for k in all_families():
                G = gram(k, X)
                scale = np.abs(G).max()
                assert np.abs(G - G.T).max() <= 1e-12 * max(scale, 1.0)
                w = np.linalg.eigvalsh(G)
                assert w.min() >= -1e-10 * max(w.max(), 0.0) - 1e-300

    def test_matern_half_agrees_with_exponential_on_grid(self):
        l = 0.8
        k = ScalarKernel.matern(nu=0.5, lengthscale=l)
        for r in np.linspace(0.0, 10.0, 100):
            got = eval_kernel(k, [0.0], [r])
            assert abs(got - math.exp(-r / l)) <= 1e-12

    def test_output_scale_multiplies(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=2), rng.normal(size=2)
        c = 3.7
        pairs = [
            (ScalarKernel.linear(), ScalarKernel.linear(output_scale=c)),
            (ScalarKernel.rq(0.5, 1.1), ScalarKernel.rq(0.5, 1.1, output_scale=c)),
            (ScalarKernel.matern(2.5, 0.6), ScalarKernel.matern(2.5, 0.6, output_scale=c)),
            (ScalarKernel.gaussian(0.9), ScalarKernel.gaussian(0.9, output_scale=c)),
        ]
        for base, scaled in pairs:
            assert eval_kernel(scaled, x, y) == pytest.approx(c * eval_kernel(base, x, y), rel=1e-15)


class TestValidationAndConfig:
    def test_nu_restricted_to_half_integers(self):
        for nu in MATERN_NUS:
            ScalarKernel.matern(nu=nu, lengthscale=1.0)
        with pytest.raises(ValueError, match="nu"):
            ScalarKernel.matern(nu=2.0, lengthscale=1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(family="rq", lengthscale=1.0),          # missing alpha
            dict(family="rq", lengthscale=1.0, alpha=-1.0),
            dict(family="matern", nu=2.5),               # missing lengthscale
            dict(family="gaussian", lengthscale=0.0),
            dict(family="gaussian", lengthscale=1.0, output_scale=0.0),
            dict(family="linear", lengthscale=1.0),      # linear takes none
            dict(family="spline", lengthscale=1.0),
            # bools are ints to Python, so each of these would pass as 1
            dict(family="gaussian", lengthscale=True),
            dict(family="rq", lengthscale=1.0, alpha=True),
            dict(family="gaussian", lengthscale=1.0, nu=True),
            dict(family="gaussian", lengthscale=1.0, output_scale=True),
            dict(family="linear", output_scale=True),
        ],
    )
    def test_invalid_parameters_raise(self, bad):
        with pytest.raises(ValueError):
            ScalarKernel(**bad)

    def test_config_round_trip(self):
        cfg = {"family": "matern", "nu": 2.5, "lengthscale": 1.0, "output_scale": 1.0}
        k = ScalarKernel.from_config(cfg)
        assert k.family == "matern" and k.nu == 2.5
        assert ScalarKernel.from_config(k.to_config()) == k

    def test_cached_diagonal_is_not_part_of_the_kernel(self):
        k = ScalarKernel.matern(nu=2.5, lengthscale=0.8, output_scale=1.7)
        other = ScalarKernel.matern(nu=2.5, lengthscale=0.8, output_scale=1.7)
        object.__setattr__(other, "diag_value", 0.5)
        assert k == other and hash(k) == hash(other)
        assert "diag_value" not in repr(k) and "diag_value" not in k.to_config()
        # pickled to sweep workers, and rebuilt from a saved model's config
        for copy in (pickle.loads(pickle.dumps(k)), ScalarKernel.from_config(k.to_config())):
            assert copy == k and copy.diag_value == k.diag_value == 1.7
        with pytest.raises(TypeError):
            ScalarKernel("gaussian", lengthscale=1.0, diag_value=2.0)

    def test_config_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown kernel config"):
            ScalarKernel.from_config({"family": "gaussian", "lengthscale": 1.0, "ell": 2})
