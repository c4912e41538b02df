import numpy as np
import pytest

from odlearn import preprocess
from odlearn.preprocess import pca_fit, project, reconstruct


def make_two_direction_data(amps=(3.0, 1.0), n=40, seed=0):
    """Rows = mean + a1 z1 e1 + a2 z2 e2 with orthonormal e1, e2 and zero-mean
    orthonormal coefficient columns, so squared singular values are exactly amps**2."""
    rng = np.random.default_rng(seed)
    d = 6
    e = np.linalg.qr(rng.normal(size=(d, 2)))[0]
    raw = rng.normal(size=(n, 2))
    z = np.linalg.qr(raw - raw.mean(axis=0))[0]  # zero-mean spans give zero-mean Q columns
    mean = rng.normal(size=d)
    X = mean + amps[0] * np.outer(z[:, 0], e[:, 0]) + amps[1] * np.outer(z[:, 1], e[:, 1])
    return X, e, np.asarray(amps)


def make_wide_data(singular_values, d=60, seed=0):
    """An (N, d) matrix, N = len(singular_values) + 1 < d, whose centered singular
    values are exactly the given ones, about a random mean."""
    rng = np.random.default_rng(seed)
    s = np.asarray(singular_values, dtype=float)
    raw = rng.normal(size=(s.size + 1, s.size))
    left = np.linalg.qr(raw - raw.mean(axis=0))[0]
    right = np.linalg.qr(rng.normal(size=(d, s.size)))[0]
    return rng.normal(size=d) + (left * s) @ right.T


def svd_oracle(X, frac):
    """k, singular values, sign-fixed basis and achieved fraction by the textbook rule."""
    _, s, Vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    cum = np.cumsum(s**2) / np.sum(s**2)
    k = int(np.argmax(cum >= frac - 1e-12) + 1)
    basis = Vt[:k].T
    basis = basis * np.sign(basis[np.abs(basis).argmax(axis=0), np.arange(k)])
    return k, s[:k], basis, cum[k - 1]


def count_calls(monkeypatch):
    """Count np.linalg.svd and np.linalg.eigh calls as odlearn.preprocess sees them."""
    calls = {"svd": 0, "eigh": 0}
    for name in calls:
        real = getattr(preprocess.np.linalg, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(preprocess.np.linalg, name, wrapper)
    return calls


class TestFit:
    def test_rank_one_data(self):
        rng = np.random.default_rng(1)
        direction = rng.normal(size=5)
        X = 2.5 + np.outer(rng.normal(size=30), direction)
        p = pca_fit(X, 0.9)
        assert p.k == 1

    def test_rank_one_wide_data(self):
        rng = np.random.default_rng(1)
        X = 2.5 + np.outer(rng.normal(size=5), rng.normal(size=30))
        p = pca_fit(X, 0.9)
        assert p.k == 1

    def test_full_fraction_keeps_rank_and_reconstructs(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 4)) @ rng.normal(size=(4, 7))  # rank 4 in dim 7
        p = pca_fit(X, 1.0)
        assert p.k == 4
        back = reconstruct(p, project(p, X))
        assert np.abs(back - X).max() <= 1e-9

    def test_exact_threshold_nine_to_one(self):
        # squared singular values (9, 1): fraction 0.9 is met by k = 1
        X, e, amps = make_two_direction_data()
        p = pca_fit(X, 0.9)
        assert p.k == 1
        # oracle: explicit eigendecomposition of the centered second-moment matrix
        C = (X - X.mean(0)).T @ (X - X.mean(0))
        w = np.sort(np.linalg.eigvalsh(C))[::-1]
        np.testing.assert_allclose(w[:2], amps**2, atol=1e-10)
        np.testing.assert_allclose(p.singular_values**2, w[:1], atol=1e-10)

    def test_constant_data_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pca_fit(np.full((5, 3), 2.0), 0.9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            pca_fit(np.zeros((1, 3)), 0.9)
        with pytest.raises(ValueError):
            pca_fit(np.random.default_rng(0).normal(size=(5, 3)), 0.0)
        with pytest.raises(ValueError):
            pca_fit(np.random.default_rng(0).normal(size=(5, 3)), 1.5)

    def test_bool_fraction_rejected(self):
        # True == 1.0 in Python, but a fraction is a number, as regression.fit's gamma is
        with pytest.raises(ValueError, match=r"^retained_fraction must be a number in \(0, 1\], got True$"):
            pca_fit(np.random.default_rng(0).normal(size=(5, 3)), True)

    def test_basis_orthonormal_and_values_sorted(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 8))
        p = pca_fit(X, 0.99)
        assert np.abs(p.basis.T @ p.basis - np.eye(p.k)).max() <= 1e-10
        assert (np.diff(p.singular_values) <= 1e-12).all()

    def test_k_is_minimal(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 6))
        _, s, _ = np.linalg.svd(X - X.mean(0), full_matrices=False)
        frac = 0.9
        p = pca_fit(X, frac)
        cum = np.cumsum(s**2) / np.sum(s**2)
        # oracle: smallest k with cum >= frac
        k_min = int(np.argmax(cum >= frac - 1e-12) + 1)
        assert p.k == k_min


class TestProjectReconstruct:
    def test_mean_projects_to_zero(self):
        X = np.random.default_rng(5).normal(size=(15, 4))
        p = pca_fit(X, 0.95)
        np.testing.assert_allclose(project(p, p.mean), 0.0, atol=1e-12)

    def test_basis_column_projects_to_unit_vector(self):
        X = np.random.default_rng(6).normal(size=(15, 4))
        p = pca_fit(X, 1.0)
        for j in range(p.k):
            ej = project(p, p.mean + p.basis[:, j])
            np.testing.assert_allclose(ej, np.eye(p.k)[j], atol=1e-10)

    def test_project_matches_matrix_multiply_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(15, 5))
        p = pca_fit(X, 0.9)
        x = rng.normal(size=5)
        np.testing.assert_allclose(project(p, x), p.basis.T @ (x - p.mean), atol=1e-13)

    def test_reconstruct_zero_gives_mean(self):
        X = np.random.default_rng(8).normal(size=(10, 3))
        p = pca_fit(X, 0.9)
        np.testing.assert_allclose(reconstruct(p, np.zeros(p.k)), p.mean, atol=1e-13)

    def test_round_trip_in_affine_span(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 5))
        p = pca_fit(X, 0.8)
        x = p.mean + p.basis @ rng.normal(size=p.k)
        np.testing.assert_allclose(reconstruct(p, project(p, x)), x, atol=1e-10)

    def test_project_after_reconstruct_is_identity_on_coefficients(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(12, 5))
        p = pca_fit(X, 0.8)
        z = rng.normal(size=(7, p.k))
        np.testing.assert_allclose(project(p, reconstruct(p, z)), z, atol=1e-10)

    def test_dimension_checks(self):
        X = np.random.default_rng(11).normal(size=(10, 4))
        p = pca_fit(X, 0.9)
        with pytest.raises(ValueError):
            project(p, np.zeros(3))
        with pytest.raises(ValueError):
            reconstruct(p, np.zeros(p.k + 1))


class TestVarianceAccounting:
    def test_eckart_young_residual(self):
        # residual Frobenius^2 over the training set equals (1 - achieved) * total
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 10)) * np.linspace(3, 0.2, 10)
        for frac in (0.6, 0.9, 0.99):
            p = pca_fit(X, frac)
            resid = X - reconstruct(p, project(p, X))
            total = np.sum((X - X.mean(0)) ** 2)
            got = np.sum(resid**2)
            expected = (1.0 - p.achieved_fraction) * total
            assert got == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_reconstruction_error_monotone_in_fraction(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 8))
        errs = []
        for frac in (0.5, 0.7, 0.9, 0.99, 1.0):
            p = pca_fit(X, frac)
            errs.append(np.sum((X - reconstruct(p, project(p, X))) ** 2))
        assert all(errs[i + 1] <= errs[i] + 1e-10 for i in range(len(errs) - 1))

    def test_row_permutation_leaves_subspace(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(25, 6)) * np.linspace(4, 0.5, 6)  # distinct spectrum
        p1 = pca_fit(X, 0.9)
        p2 = pca_fit(X[rng.permutation(25)], 0.9)
        assert p1.k == p2.k
        # sin of the largest principal angle, stable where arccos is not
        gap = np.linalg.norm(p1.basis @ p1.basis.T - p2.basis @ p2.basis.T, ord=2)
        assert gap <= 1e-8


class TestGramPath:
    """N < d with a fraction below 1 fits from the N x N Gram; the rest by SVD."""

    SPECTRUM = np.geomspace(5.0, 0.05, 24)  # N = 25 samples in d = 60

    @pytest.mark.parametrize("frac", [0.5, 0.9, 0.99])
    def test_matches_svd_oracle(self, frac, monkeypatch):
        X = make_wide_data(self.SPECTRUM)
        calls = count_calls(monkeypatch)
        p = pca_fit(X, frac)
        assert calls == {"svd": 0, "eigh": 1}
        k, s, basis, achieved = svd_oracle(X, frac)
        assert p.k == k
        np.testing.assert_allclose(p.singular_values, s, rtol=1e-12)
        assert np.abs(p.basis - basis).max() <= 1e-10
        assert p.achieved_fraction == pytest.approx(achieved, abs=1e-12)

    @pytest.mark.parametrize("shape,frac", [((30, 12), 0.9), ((12, 12), 0.9), ((12, 30), 1.0)],
                             ids=["N>d", "N=d", "fraction-1"])
    def test_svd_kept_for_tall_data_and_full_fraction(self, shape, frac, monkeypatch):
        X = np.random.default_rng(15).normal(size=shape)
        calls = count_calls(monkeypatch)
        pca_fit(X, frac)
        assert calls == {"svd": 1, "eigh": 0}

    def test_weak_kept_direction_falls_back_to_svd(self, monkeypatch):
        # six directions from 1 down to 1e-6, then 28 more at 1e-6: a fraction of
        # 1 - 1e-11 keeps directions whose eigenvalues are 1e-12 of the largest
        X = make_wide_data(np.r_[np.geomspace(1.0, 1e-6, 6), np.full(28, 1e-6)])
        frac = 1.0 - 1e-11
        calls = count_calls(monkeypatch)
        p = pca_fit(X, frac)
        assert calls == {"svd": 1, "eigh": 1}
        k, s, _, _ = svd_oracle(X, frac)
        assert p.k == k and s[-1] / s[0] == pytest.approx(1e-6)
        assert np.abs(p.basis.T @ p.basis - np.eye(p.k)).max() <= 1e-10
        resid = X - reconstruct(p, project(p, X))
        total = np.sum((X - X.mean(0)) ** 2)
        got = np.sum(resid**2)
        assert got == pytest.approx((1.0 - p.achieved_fraction) * total, rel=1e-8, abs=1e-8)
