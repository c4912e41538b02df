import dataclasses
import json
import os
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from odlearn import cli, operator
from odlearn.data import Dataset, gen_advection1, load_dataset, save_dataset
from odlearn.data.container import write_array
from odlearn.errors import DatasetFormatError, OdlearnError
from odlearn.kernels import ScalarKernel, gram, gram_diag
from odlearn.operator import (
    apply,
    apply_batch,
    apply_mesh_invariant,
    apply_with_uq,
    error_bound,
    fit_operator,
    load_model,
    prepare_features,
    save_model,
)
from odlearn.preprocess import project, reconstruct
from odlearn.recovery import (
    NUGGET_FACTOR,
    FunctionSamples,
    MeasurementOperator,
    RecoveryMap,
    measure,
    on_grid_weights,
    recover,
    recovery_weights,
)
from odlearn import regression


def smooth_dataset(n_train=24, n_pts=20, seed=0):
    """Smooth 1D inputs and a nonlinear but benign target map, for chain tests."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, n_pts)[:, None]
    x = grid[:, 0]
    inputs = np.array(
        [
            rng.normal() * np.sin(2 * np.pi * x) + rng.normal() * np.cos(2 * np.pi * x) + rng.normal()
            for _ in range(n_train)
        ]
    )
    outputs = np.tanh(inputs) + 0.1 * inputs**2
    return grid, inputs, outputs


@pytest.fixture(scope="module")
def adv1_model():
    ds = gen_advection1(count_train=200, count_test=40, grid_size=40, seed=11)
    model = fit_operator(
        ds.input_grid, ds.output_grid, ds.train_inputs, ds.train_outputs,
        ScalarKernel.linear(), gamma=1e-12,
    )
    return ds, model


class TestApply:
    def test_chain_interpolation_on_training_pairs(self):
        grid, inputs, outputs = smooth_dataset()
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.gaussian(2.0), gamma=1e-12
        )
        for i in range(0, 24, 5):
            u = FunctionSamples(grid, inputs[i])
            got = apply(model, u, grid).values
            rel = np.linalg.norm(got - outputs[i]) / np.linalg.norm(outputs[i])
            assert rel <= 1e-7

    def test_linear_pipeline_is_linear(self):
        # full-rank training inputs keep the rank-deficient directions out of
        # the regularized solve, so linearity holds to roundoff
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 1.0, 20)[:, None]
        inputs = rng.normal(size=(30, 20))
        outputs = np.roll(inputs, 3, axis=1)
        model = fit_operator(grid, grid, inputs, outputs, ScalarKernel.linear(), gamma=1e-10)
        u1 = FunctionSamples(grid, rng.normal(size=20))
        u2 = FunctionSamples(grid, rng.normal(size=20))
        a, b = 0.7, -1.3
        combo = FunctionSamples(grid, a * u1.values + b * u2.values)
        left = apply(model, combo, grid).values
        right = a * apply(model, u1, grid).values + b * apply(model, u2, grid).values
        np.testing.assert_allclose(left, right, atol=1e-8)
        zero = apply(model, FunctionSamples(grid, np.zeros(20)), grid).values
        np.testing.assert_allclose(zero, 0.0, atol=1e-8)

    def test_advection_square_wave_is_shifted(self, adv1_model):
        ds, model = adv1_model
        # analytic transport oracle: output is the input rolled by half a period
        for i in range(10):
            u = FunctionSamples(ds.input_grid, ds.test_inputs[i])
            got = apply(model, u, ds.output_grid).values
            expected = np.roll(ds.test_inputs[i], 20)
            rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
            assert rel <= 1e-8

    def test_query_point_extension_leaves_values(self, adv1_model):
        ds, model = adv1_model
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
        q1 = ds.output_grid[:13]
        q2 = np.vstack([q1, [[0.987]]])
        v1 = apply(model, u, q1).values
        v2 = apply(model, u, q2).values[:13]
        np.testing.assert_allclose(v2, v1, atol=1e-12)

    def test_apply_batch_matches_apply(self, adv1_model):
        ds, model = adv1_model
        batch = apply_batch(model, ds.test_inputs[:5], ds.output_grid)
        for i in range(5):
            single = apply(model, FunctionSamples(ds.input_grid, ds.test_inputs[i]), ds.output_grid)
            np.testing.assert_allclose(batch[i], single.values, atol=1e-10)

    @pytest.mark.parametrize("query_points, message", [
        ([[np.nan]], "query_points contains non-finite coordinates"),
        ([], "query_points must be a nonempty list of vectors"),
        ([[0.1, 0.2], [0.3, 0.4]], "query_points are 2-d but the output grid is 1-d"),
    ], ids=["non-finite", "empty", "dimension"])
    def test_off_grid_errors_name_the_query_points(self, uq_dataset_model, query_points, message):
        ds, model = uq_dataset_model
        fresh = replace(model, output_recovery=replace(model.output_recovery))
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
        for call in (apply, apply_with_uq):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(fresh, u, query_points)
        assert "_factor" not in vars(fresh.output_recovery)  # rejected before the solve

    @pytest.mark.parametrize("rows, message", [
        (np.empty((0, 20)), "input values must be one or more rows of 20 values, got shape (0, 20)"),
        (np.ones((3, 19)), "input values must be one or more rows of 20 values, got shape (3, 19)"),
        (np.where(np.arange(60).reshape(3, 20) == 47, np.nan, 1.0), "input row 2 has a non-finite value"),
        (np.where(np.arange(60).reshape(3, 20) == 21, -np.inf, 1.0), "input row 1 has a non-finite value"),
    ], ids=["empty", "length", "nan", "inf"])
    def test_bad_input_rows_named(self, uq_dataset_model, rows, message):
        ds, model = uq_dataset_model
        for q in (ds.output_grid, offgrid(ds.output_grid)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                apply_batch(model, rows, q)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                operator._predict(model, rows, q, std=True)

    def test_output_projection_property(self):
        # measuring then recovering a sampled output function is a projection
        grid, inputs, outputs = smooth_dataset(seed=3)
        model = fit_operator(grid, grid, inputs, outputs, ScalarKernel.gaussian(1.0), gamma=1e-10)
        v = FunctionSamples(grid, outputs[0])
        V = measure(model.output_measurement, v)
        w = recover(model.output_recovery, V, grid)
        V2 = measure(model.output_measurement, w)
        np.testing.assert_allclose(V2, V, atol=1e-7)


class TestMeshInvariance:
    def test_same_grid_reduces_to_apply(self):
        grid, inputs, outputs = smooth_dataset(seed=21)
        model = fit_operator(grid, grid, inputs, outputs, ScalarKernel.gaussian(2.0), gamma=1e-10)
        u = FunctionSamples(grid, inputs[2] + 0.1)
        native = apply(model, u, grid).values
        got = apply_mesh_invariant(model, u, model.input_recovery, grid).values
        np.testing.assert_allclose(got, native, atol=1e-10)

    def test_finer_foreign_grid_close_to_native(self):
        # smooth input sampled on a 2x finer grid; retrofit through recovery
        grid, inputs, outputs = smooth_dataset(n_train=30, n_pts=24, seed=4)
        q_kernel = ScalarKernel.matern(nu=2.5, lengthscale=0.3)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.gaussian(2.0), gamma=1e-10,
            q_kernel=q_kernel,
        )
        fine = np.linspace(0.0, 1.0, 47)[:, None]
        x = fine[:, 0]
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=3)
        vals_fine = a * np.sin(2 * np.pi * x) + b * np.cos(2 * np.pi * x) + c
        vals_native = a * np.sin(2 * np.pi * grid[:, 0]) + b * np.cos(2 * np.pi * grid[:, 0]) + c
        psi_t = RecoveryMap(q_kernel, MeasurementOperator(fine))
        got = apply_mesh_invariant(model, FunctionSamples(fine, vals_fine), psi_t, grid).values
        native = apply(model, FunctionSamples(grid, vals_native), grid).values
        rel = np.linalg.norm(got - native) / np.linalg.norm(native)
        assert rel <= 1e-2

    def test_single_point_foreign_operator_is_defined(self):
        grid, inputs, outputs = smooth_dataset(seed=6)
        model = fit_operator(grid, grid, inputs, outputs, ScalarKernel.gaussian(2.0), gamma=1e-10)
        psi_t = RecoveryMap(ScalarKernel.gaussian(0.3), MeasurementOperator(np.array([[0.5]])))
        out = apply_mesh_invariant(model, FunctionSamples(np.array([[0.5]]), [1.0]), psi_t, grid)
        assert np.isfinite(out.values).all()


class TestUq:
    def test_training_input_has_zero_std(self):
        # gamma = 0: conditioned points carry no posterior variance
        grid, inputs, outputs = smooth_dataset(seed=7)
        model = fit_operator(grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=2.0), gamma=0.0)
        assert model.regressor.gamma == 0.0
        for i in (0, 5, 11):
            _, std = apply_with_uq(model, FunctionSamples(grid, inputs[i]), grid)
            assert std.values.max() <= 1e-7

    def test_std_at_output_node_equals_sqrt_posterior_variance(self):
        grid, inputs, outputs = smooth_dataset(seed=8)
        model = fit_operator(grid, grid, inputs, outputs, ScalarKernel.gaussian(1.0), gamma=1e-3)
        rng = np.random.default_rng(9)
        u = FunctionSamples(grid, rng.normal(size=20))
        _, std = apply_with_uq(model, u, grid)
        s = regression.posterior_variance(model.regressor, measure(model.input_measurement, u))
        # identity input preconditioner, identity-ish recovery at the nodes:
        # weight rows at output training points are standard basis rows
        W = recovery_weights(model.output_recovery, grid)
        np.testing.assert_allclose(
            std.values, np.sqrt(max(s, 0.0)) * np.linalg.norm(W, axis=1), atol=1e-10
        )
        np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0, atol=1e-6)

    def test_monte_carlo_oracle_two_output_points(self):
        # push the conditioned finite-dimensional Gaussian through the output
        # recovery by brute force and compare standard deviations
        rng = np.random.default_rng(10)
        in_grid = np.array([[0.0], [1.0]])
        out_grid = np.array([[0.0], [1.0]])
        inputs = rng.normal(size=(3, 2))
        outputs = rng.normal(size=(3, 2))
        model = fit_operator(
            in_grid, out_grid, inputs, outputs, ScalarKernel.gaussian(1.0), gamma=0.05,
            k_kernel=ScalarKernel.matern(nu=1.5, lengthscale=0.8),
        )
        u = FunctionSamples(in_grid, rng.normal(size=2))
        queries = np.array([[0.25], [0.6], [1.0]])
        mean, std = apply_with_uq(model, u, queries)
        U = measure(model.input_measurement, u)
        s = regression.posterior_variance(model.regressor, U)
        zhat = regression.predict(model.regressor, U)
        W = recovery_weights(model.output_recovery, queries)
        draws = zhat + np.sqrt(s) * rng.standard_normal((100_000, 2))
        vals = draws @ W.T
        mc_std = vals.std(axis=0, ddof=1)
        se = mc_std / np.sqrt(2 * (100_000 - 1))
        assert (np.abs(std.values - mc_std) <= 3 * se + 1e-12).all()
        np.testing.assert_allclose(mean.values, vals.mean(axis=0), atol=5 * np.max(se) + 1e-3)


class TestErrorBound:
    def test_zero_cases(self):
        grid, inputs, outputs = smooth_dataset(seed=11)
        model = fit_operator(grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=2.0), gamma=0.0)
        u_train = FunctionSamples(grid, inputs[0])
        # zero up to the conditional-variance cancellation floor
        assert error_bound(model, u_train, 10.0) <= 1e-5
        rng = np.random.default_rng(12)
        u = FunctionSamples(grid, rng.normal(size=20))
        assert error_bound(model, u, 0.0) == 0.0
        with pytest.raises(ValueError):
            error_bound(model, u, -1.0)

    def test_nan_bound_rejected(self, adv1_model):
        ds, model = adv1_model
        with pytest.raises(ValueError, match="^rkhs_norm_bound must be a finite number >= 0, got nan$"):
            error_bound(model, FunctionSamples(ds.input_grid, ds.test_inputs[0]), float("nan"))

    def test_inf_bound_rejected(self, adv1_model):
        # an infinite bound gave NaN at a training input, where s clamps to 0
        ds, model = adv1_model
        with pytest.raises(ValueError, match="^rkhs_norm_bound must be a finite number >= 0, got inf$"):
            error_bound(model, FunctionSamples(ds.input_grid, ds.test_inputs[0]), float("inf"))

    def test_bool_bound_rejected(self, adv1_model):
        # True == 1.0 in Python, but a bound is a number, as regression.fit's gamma is
        ds, model = adv1_model
        with pytest.raises(ValueError, match="^rkhs_norm_bound must be a finite number >= 0, got True$"):
            error_bound(model, FunctionSamples(ds.input_grid, ds.test_inputs[0]), True)

    def test_bound_dominates_synthetic_truth(self):
        # operator whose measurement-space map lives in the RKHS with known norm
        rng = np.random.default_rng(13)
        from odlearn.kernels import gram

        grid = np.linspace(0, 1, 6)[:, None]
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=1.0)
        Z = rng.normal(size=(5, 6))
        C = rng.normal(size=(5, 6)) * 0.5  # coefficients per output component
        G_z = gram(kernel, Z)
        norm_sq = sum(C[:, j] @ G_z @ C[:, j] for j in range(6))
        norm_f = np.sqrt(norm_sq)

        def f_true(U):
            return gram(kernel, np.atleast_2d(U), Z)[0] @ C

        U_train = rng.normal(size=(12, 6))
        V_train = np.array([f_true(u) for u in U_train])
        model = fit_operator(grid, grid, U_train, V_train, kernel, gamma=0.0)
        for _ in range(100):
            u_vec = rng.normal(size=6)
            err = np.linalg.norm(f_true(u_vec) - regression.predict(model.regressor, u_vec))
            bound = error_bound(model, FunctionSamples(grid, u_vec), norm_f)
            assert err <= bound + 1e-8


class TestPcaPipeline:
    def test_pca_chain_reduces_dimensions_and_stays_accurate(self):
        grid, inputs, outputs = smooth_dataset(n_train=40, seed=14)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.gaussian(2.0), gamma=1e-10,
            pca_input_fraction=0.999, pca_output_fraction=0.999,
        )
        assert model.regressor.input_dim < 20
        u = FunctionSamples(grid, inputs[0])
        got = apply(model, u, grid).values
        rel = np.linalg.norm(got - outputs[0]) / np.linalg.norm(outputs[0])
        assert rel <= 0.05

    def test_cholesky_preconditioned_pipeline_runs(self):
        grid, inputs, outputs = smooth_dataset(n_train=25, seed=15)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=5.0),
            gamma=1e-10, preconditioner="cholesky",
        )
        u = FunctionSamples(grid, inputs[3])
        got = apply(model, u, grid).values
        rel = np.linalg.norm(got - outputs[3]) / np.linalg.norm(outputs[3])
        assert rel <= 1e-5


    def test_cholesky_preconditioner_built_once_for_equal_grids(self, monkeypatch):
        grid, inputs, outputs = smooth_dataset(n_train=10, seed=16)
        calls = []
        real = operator.cholesky_preconditioner
        monkeypatch.setattr(operator, "cholesky_preconditioner",
                            lambda *a: calls.append(a[0]) or real(*a))
        feats = prepare_features(grid, grid.copy(), inputs, outputs, preconditioner="cholesky")
        assert len(calls) == 1
        assert feats.output_recovery.measurement.preconditioner is feats.input_recovery.measurement.preconditioner
        other = ScalarKernel.matern(nu=2.5, lengthscale=0.3)
        feats = prepare_features(grid, grid, inputs, outputs, preconditioner="cholesky", k_kernel=other)
        assert len(calls) == 3 and calls[-1] == other
        np.testing.assert_array_equal(
            feats.output_recovery.measurement.preconditioner, real(other, grid, None))

    def test_default_kernels_on_equal_grids_take_one_lengthscale(self, monkeypatch):
        grid, inputs, outputs = smooth_dataset(n_train=10, seed=16)
        calls = []
        real = operator.mesh_lengthscale
        monkeypatch.setattr(operator, "mesh_lengthscale", lambda p: calls.append(1) or real(p))
        feats = prepare_features(grid, grid.copy(), inputs, outputs)
        assert len(calls) == 1
        assert feats.output_recovery.kernel == feats.input_recovery.kernel
        feats = prepare_features(grid, 2.0 * grid, inputs, outputs)
        assert len(calls) == 3
        assert feats.output_recovery.kernel.lengthscale == 2.0 * feats.input_recovery.kernel.lengthscale


class TestMeshLengthscale:
    @staticmethod
    def dense(points):
        """The formula from the full n x n distance matrix."""
        d = cdist(points, points)
        d[np.diag_indices(len(points))] = np.inf
        spacing = float(np.median(d.min(axis=1)))
        return 2.0 * spacing if spacing > 0 else 1.0

    @pytest.mark.parametrize("points", [
        np.linspace(0.0, 1.0, 300)[:, None],
        np.linspace(-2.0, 3.0, 129)[:, None],
        np.column_stack([a.ravel() for a in np.meshgrid(np.linspace(0, 1, 29), np.linspace(0, 2, 23),
                                                        indexing="ij")]),
        np.random.default_rng(40).uniform(0.0, 1.0, size=(500, 2)),
        np.random.default_rng(41).normal(size=(257, 3)),
        np.array([[0.0], [1.0]]),
    ], ids=["1d-300", "1d-129", "2d-29x23", "random-500x2", "random-257x3", "two-points"])
    def test_blocked_nearest_spacing_equals_the_dense_formula(self, points):
        assert operator.mesh_lengthscale(points) == self.dense(points)


class TestPersistence:
    def test_ill_conditioned_cholesky_model_serves_after_a_reload(self, tmp_path):
        # a smooth user kernel on a fine grid at the default nugget: the Gram's condition
        # is 3.5e11, and the model's own root L passes the check that scales with it
        grid, inputs, outputs = smooth_dataset(n_pts=60, seed=7)
        smooth = ScalarKernel.gaussian(0.3)
        model = fit_operator(grid, grid, inputs, outputs, ScalarKernel.gaussian(2.0), gamma=1e-10,
                             preconditioner="cholesky", q_kernel=smooth, k_kernel=smooth)
        assert np.linalg.cond(gram(smooth, grid) + model.output_recovery.nugget * np.eye(60)) > 1e11
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        u = FunctionSamples(grid, inputs[0])
        for q in (grid, offgrid(grid)):
            mean, std = apply_with_uq(loaded, u, q)
            assert np.isfinite(std.values).all()
            assert np.array_equal(apply(loaded, u, q).values, mean.values)
        assert "_root" in vars(loaded.output_recovery)

    def test_round_trip_preserves_predictions(self, tmp_path, adv1_model):
        ds, model = adv1_model
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        q = ds.output_grid
        a = apply_batch(model, ds.test_inputs[:7], q)
        b = apply_batch(loaded, ds.test_inputs[:7], q)
        np.testing.assert_array_equal(a, b)

    def test_round_trip_with_pca_and_preconditioner(self, tmp_path):
        grid, inputs, outputs = smooth_dataset(n_train=30, seed=16)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=4.0),
            gamma=1e-8, preconditioner="cholesky", pca_input_fraction=0.99,
        )
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.input_pca is not None and loaded.input_pca.k == model.input_pca.k
        rng = np.random.default_rng(17)
        u = rng.normal(size=(4, 20))
        np.testing.assert_array_equal(
            apply_batch(model, u, grid), apply_batch(loaded, u, grid)
        )

    def test_unknown_format_version_rejected(self, tmp_path, adv1_model):
        _, model = adv1_model
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match="format_version"):
            load_model(tmp_path / "m")

    def test_truncated_binary_rejected(self, tmp_path, adv1_model):
        _, model = adv1_model
        save_model(model, tmp_path / "m")
        blob = (tmp_path / "m" / "coefficients.bin").read_bytes()
        (tmp_path / "m" / "coefficients.bin").write_bytes(blob[:-8])
        with pytest.raises(DatasetFormatError, match="bytes"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("key", ["arrays.coefficients", "pca_input", "arrays.l_output"])
    def test_missing_binary_named(self, tmp_path, key):
        # the file the manifest names for the key: l_output names l_input.bin
        grid, inputs, outputs = smooth_dataset(n_train=30, seed=16)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=4.0),
            gamma=1e-8, preconditioner="cholesky", pca_input_fraction=0.99,
        )
        save_model(model, tmp_path / "m")
        name = manifest_entry(tmp_path / "m", key)["file"]
        (tmp_path / "m" / name).unlink()
        with pytest.raises(DatasetFormatError, match=rf"missing .*{re.escape(name)}"):
            load_model(tmp_path / "m")

    STORED = ["arrays.input_points", "arrays.output_points", "arrays.l_input", "arrays.l_output",
              "arrays.train_features", "arrays.coefficients", "arrays.gram_factor", "pca_input", "pca_output"]

    @pytest.fixture()
    def chol_pca_dir(self, tmp_path):
        """A saved model with a Cholesky preconditioner and input and output PCA."""
        grid, inputs, outputs = smooth_dataset(n_train=30, seed=16)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=4.0),
            gamma=1e-8, preconditioner="cholesky", pca_input_fraction=0.99, pca_output_fraction=0.99,
        )
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert {f"arrays.{k}" for k in manifest["arrays"]} | {"pca_input", "pca_output"} == set(self.STORED)
        return tmp_path / "m"

    @pytest.mark.parametrize("key", STORED)
    def test_non_finite_stored_array_names_its_file(self, chol_pca_dir, key):
        # the file the manifest names for the key: output_points names input_points.bin;
        # the factor fails the regressor's row check, every other array the finite check
        path = chol_pca_dir / manifest_entry(chol_pca_dir, key)["file"]
        arr = np.fromfile(path, dtype="<f8")
        arr[3] = np.nan
        write_array(chol_pca_dir, path.name, arr)
        reason = "the regressor's Gram factor is corrupt" if key == "arrays.gram_factor" else "non-finite value nan"
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: {reason}"):
            load_model(chol_pca_dir)

    def test_repeated_grid_point_names_its_key(self, chol_pca_dir):
        path = chol_pca_dir / manifest_entry(chol_pca_dir, "arrays.input_points")["file"]
        points = np.fromfile(path, dtype="<f8")
        points[1] = points[0]
        write_array(chol_pca_dir, path.name, points)
        with pytest.raises(DatasetFormatError, match=r"manifest\.json: malformed arrays\.input_points "
                                                     r"\(collocation points must be pairwise distinct\)$"):
            load_model(chol_pca_dir)

    def test_saved_model_holds_only_what_load_reads(self, tmp_path, monkeypatch):
        grid, inputs, outputs = smooth_dataset(n_train=30, seed=16)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=4.0),
            gamma=1e-8, preconditioner="cholesky", pca_input_fraction=0.99, pca_output_fraction=0.99,
        )
        directory = tmp_path / "m"
        save_model(model, directory)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert set(manifest["arrays"]) == {
            "input_points", "output_points", "train_features", "coefficients", "gram_factor",
            "l_input", "l_output",
        }
        assert "lower" not in manifest["arrays"]["gram_factor"]
        assert "preconditioner" not in manifest
        for key, first in (("output_points", "input_points"), ("l_output", "l_input")):
            assert manifest["arrays"][key] == manifest["arrays"][first] == {
                "file": f"{first}.bin", "shape": manifest["arrays"][key]["shape"]}
        read = []
        real = operator.read_array
        monkeypatch.setattr(operator, "read_array", lambda path, shape: read.append(path.name) or real(path, shape))
        load_model(directory)
        # each distinct file once, and no file the manifest does not name
        assert sorted(read) == sorted(named_files(directory)) == sorted(p.name for p in directory.glob("*.bin"))
        two_file_layout(directory)
        assert {"output_points.bin", "l_output.bin"} <= named_files(directory)
        save_model(model, directory)
        assert named_files(directory) == {p.name for p in directory.glob("*.bin")}
        assert not {"output_points.bin", "l_output.bin"} & named_files(directory)

    def test_save_load_save_writes_the_same_files(self, tmp_path, uq_dataset_model):
        save_model(uq_dataset_model[1], tmp_path / "a")
        assert manifest_entry(tmp_path / "a", "arrays.output_points")["file"] == "input_points.bin"
        save_model(load_model(tmp_path / "a"), tmp_path / "b")
        assert saved_files(tmp_path / "a") == saved_files(tmp_path / "b")

    def test_two_file_layout_loads_to_the_same_model(self, tmp_path, uq_dataset_model):
        # every save before equal arrays were shared wrote the output grid and L to
        # files of their own; such a model serves the same bits, and saving it
        # shares the equal arrays again
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "new")
        save_model(model, tmp_path / "old")
        two_file_layout(tmp_path / "old")
        new, old = load_model(tmp_path / "new"), load_model(tmp_path / "old")
        assert new.output_measurement.points is new.input_measurement.points
        assert old.output_measurement.points is not old.input_measurement.points
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])

        def outputs(m):
            got = [np.array(error_bound(m, u, 1.0))]
            for q in (ds.output_grid, offgrid(ds.output_grid)):
                mean, std = apply_with_uq(m, u, q)
                got += [apply_batch(m, ds.test_inputs, q), mean.values, std.values]
            return got

        assert all(map(np.array_equal, outputs(old), outputs(new)))
        save_model(old, tmp_path / "old")
        assert saved_files(tmp_path / "old") == saved_files(tmp_path / "new")

    @pytest.mark.parametrize("case, shared", [
        ("different grids", {}),
        ("input L only", {"output_points": "input_points.bin"}),
        ("equal sides", {"output_points": "input_points.bin", "l_output": "l_input.bin",
                         "pca_output": "pca_input.bin"}),
    ], ids=["different_grids", "input_l_only", "equal_sides"])
    def test_keys_share_a_file_only_when_their_arrays_are_equal(self, tmp_path, case, shared):
        grid, inputs, outputs = smooth_dataset(n_train=30, seed=16)
        s_kernel, kw = ScalarKernel.matern(nu=2.5, lengthscale=4.0), {
            "preconditioner": "cholesky", "pca_input_fraction": 0.99, "pca_output_fraction": 0.99}
        if case == "different grids":  # not a scaled or shifted grid, whose default L would be equal
            model = fit_operator(grid, grid**2, inputs, outputs, s_kernel, 1e-8, **kw)
        elif case == "equal sides":  # the identity map: equal grids, L's and PCA sidecars
            model = fit_operator(grid, grid, inputs, inputs, s_kernel, 1e-8, **kw)
        else:
            model = fit_operator(grid, grid, inputs, outputs, s_kernel, 1e-8, **kw)
            out = model.output_recovery
            model = replace(model, output_recovery=RecoveryMap(
                out.kernel, MeasurementOperator(out.measurement.points), out.nugget))
        save_model(model, tmp_path / "m")
        table = {
            "arrays.input_points": model.input_measurement.points,
            "arrays.output_points": model.output_measurement.points,
            "arrays.train_features": model.regressor.inputs,
            "arrays.coefficients": model.regressor.coef,
            "arrays.gram_factor": model.regressor.chol,
            "arrays.l_input": model.input_measurement.preconditioner,
            "arrays.l_output": model.output_measurement.preconditioner,
            "pca_input": np.concatenate([model.input_pca.mean, model.input_pca.basis.ravel()]),
            "pca_output": np.concatenate([model.output_pca.mean, model.output_pca.basis.ravel()]),
        }
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        for key, a in table.items():
            base = key.split(".")[-1]
            if a is None:
                assert base not in manifest["arrays"]
                continue
            name = manifest_entry(tmp_path / "m", key)["file"]
            assert name == shared.get(base, f"{base}.bin"), key
            assert (tmp_path / "m" / name).read_bytes() == np.ascontiguousarray(a, dtype="<f8").tobytes(), key
        assert named_files(tmp_path / "m") == {p.name for p in (tmp_path / "m").glob("*.bin")}
        loaded = load_model(tmp_path / "m")
        assert np.array_equal(apply_batch(loaded, inputs, model.output_measurement.points),
                              apply_batch(model, inputs, model.output_measurement.points))

    def test_older_layout_loads_to_the_same_model(self, tmp_path, uq_dataset_model):
        # older models also carry the training targets, a gram_factor.lower flag
        # and a preconditioner key; loading reads none of them
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "new")
        save_model(model, tmp_path / "old")
        reg = model.regressor
        path = tmp_path / "old" / "manifest.json"
        manifest = json.loads(path.read_text())
        targets = reg.chol @ (reg.chol.T @ reg.coef)  # (S + gamma I) coef
        manifest["arrays"]["train_targets"] = write_array(tmp_path / "old", "train_targets.bin", targets)
        manifest["arrays"]["gram_factor"]["lower"] = True
        manifest["preconditioner"] = model.preconditioner
        path.write_text(json.dumps(manifest))
        new, old = load_model(tmp_path / "new"), load_model(tmp_path / "old")
        assert np.array_equal(new.regressor.chol, reg.chol)
        for q in (ds.output_grid, offgrid(ds.output_grid)):
            assert np.array_equal(apply_batch(old, ds.test_inputs, q), apply_batch(new, ds.test_inputs, q))
            for x in ds.test_inputs[:3]:
                u = FunctionSamples(ds.input_grid, x)
                assert np.array_equal(apply_with_uq(old, u, q)[1].values, apply_with_uq(new, u, q)[1].values)

    @pytest.mark.parametrize("key, value", [
        ("output_nugget", True), ("output_nugget", float("nan")), ("input_nugget", float("inf")),
    ], ids=["true", "nan", "inf"])
    def test_bad_nugget_rejected_at_load(self, tmp_path, adv1_model, key, value):
        save_model(adv1_model[1], tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match=r"manifest\.json.*nugget must be a finite number >= 0"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("key", ["arrays.coefficients", "pca_input"])
    def test_file_outside_directory_rejected(self, tmp_path, key):
        # a manifest that names another model's binary by absolute path must not
        # load it, even when the local file is gone
        grid, inputs, outputs = smooth_dataset(n_train=30, seed=17)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=4.0),
            gamma=1e-8, pca_input_fraction=0.99,
        )
        save_model(model, tmp_path / "m")
        save_model(model, tmp_path / "other")
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        node = manifest
        for part in key.split("."):
            node = node[part]
        (tmp_path / "m" / node["file"]).unlink()
        node["file"] = str(tmp_path / "other" / node["file"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match=rf"{key}.*bare file name"):
            load_model(tmp_path / "m")


def manifest_entry(directory, key: str) -> dict:
    """The manifest entry at a dotted key, such as ``arrays.l_output`` or ``pca_input``."""
    node = json.loads((directory / "manifest.json").read_text())
    for part in key.split("."):
        node = node[part]
    return node


def named_files(directory) -> set[str]:
    """The binaries a model directory's manifest names."""
    manifest = json.loads((directory / "manifest.json").read_text())
    entries = [*manifest["arrays"].values(), manifest["pca_input"], manifest["pca_output"]]
    return {entry["file"] for entry in entries if entry is not None}


def saved_files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def two_file_layout(directory) -> None:
    """Rewrite a saved model into the layout every save wrote before equal arrays
    were shared: the output grid and L in files of their own."""
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    for key, first in (("output_points", "input_points"), ("l_output", "l_input")):
        if key in manifest["arrays"]:
            assert manifest["arrays"][key]["file"] == f"{first}.bin"
            shutil.copyfile(directory / f"{first}.bin", directory / f"{key}.bin")
            manifest["arrays"][key]["file"] = f"{key}.bin"
    path.write_text(json.dumps(manifest))


@pytest.fixture(scope="module", params=["none", "cholesky"])
def uq_dataset_model(request):
    """Matern model with input and output PCA, with and without the preconditioner."""
    grid, inputs, outputs = smooth_dataset(n_train=40, n_pts=20, seed=31)
    model = fit_operator(
        grid, grid, inputs[:30], outputs[:30], ScalarKernel.matern(nu=2.5, lengthscale=3.0),
        gamma=1e-6, preconditioner=request.param,
        pca_input_fraction=0.999, pca_output_fraction=0.999,
    )
    ds = Dataset("smooth", grid, grid, inputs[:30], outputs[:30], inputs[30:], outputs[30:])
    return ds, model


GRID_PARTS = {"_grid_mean", "_grid_norms"}  # the cached properties of a model's own output grid


def offgrid(grid):
    """As many query points as the grid has, none of them on it."""
    return grid + 0.25 * (grid[1] - grid[0])


def convolutions(monkeypatch) -> list:
    """A list that grows by one on each lattice convolution of an off-grid product,
    whether or not the query set's parts were cached."""
    from odlearn import recovery

    calls, real = [], recovery._convolve
    monkeypatch.setattr(recovery, "_convolve", lambda *a: calls.append(1) or real(*a))
    return calls


def held_arrays(obj, path="model") -> dict:
    """Every array in the dataclass fields of ``obj``, nested, by attribute path."""
    if isinstance(obj, np.ndarray):
        return {path: obj}
    if not dataclasses.is_dataclass(obj):
        return {}
    found = {}
    for f in dataclasses.fields(obj):
        found.update(held_arrays(getattr(obj, f.name), f"{path}.{f.name}"))
    return found


class TestMappedModels:
    """A loaded model's arrays map its files read-only; saves replace files."""

    def test_every_serving_path_works_on_read_only_arrays(self, tmp_path, uq_dataset_model):
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        arrays = held_arrays(loaded)
        assert len(arrays) >= 8 and [k for k, a in arrays.items() if a.flags.writeable] == []
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
        for q in (ds.output_grid, offgrid(ds.output_grid)):
            assert np.array_equal(apply_batch(loaded, ds.test_inputs, q), apply_batch(model, ds.test_inputs, q))
            assert np.array_equal(apply(loaded, u, q).values, apply(model, u, q).values)
            for got, want in zip(apply_with_uq(loaded, u, q), apply_with_uq(model, u, q)):
                assert np.array_equal(got.values, want.values)
        assert error_bound(loaded, u, 2.0) == error_bound(model, u, 2.0)
        fine = np.linspace(0.0, 1.0, 39)[:, None]
        foreign = RecoveryMap(loaded.input_recovery.kernel, MeasurementOperator(fine))
        u_fine = recover(loaded.input_recovery, measure(loaded.input_measurement, u), fine)
        assert np.array_equal(apply_mesh_invariant(loaded, u_fine, foreign, ds.output_grid).values,
                              apply_mesh_invariant(model, u_fine, foreign, ds.output_grid).values)

    @pytest.mark.parametrize("family", ["matern", "linear"])
    def test_variance_is_bitwise_a_solve_triangular_reference(self, tmp_path, uq_dataset_model, family):
        # the direct LAPACK solve on the read-only mapped factor keeps scipy's bits
        from scipy.linalg import solve_triangular

        ds, model = uq_dataset_model
        if family == "linear":
            model = fit_operator(ds.input_grid, ds.output_grid, ds.train_inputs, ds.train_outputs,
                                 ScalarKernel.linear(), gamma=1e-6, preconditioner=model.preconditioner,
                                 pca_input_fraction=0.999, pca_output_fraction=0.999)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        reg = loaded.regressor
        assert not reg.chol.flags.writeable
        for U in (operator._features(loaded, ds.test_inputs[:1]), operator._features(loaded, ds.test_inputs[:7])):
            K = gram(reg.kernel, U, reg.inputs)
            Z = solve_triangular(reg.chol, K.T, lower=True, check_finite=False)
            want = gram_diag(reg.kernel, U) - np.sum(np.square(Z), axis=0)
            mean, var = regression.posterior(reg, U)
            assert var.tobytes() == regression.posterior_variance(reg, U).tobytes() == want.tobytes()
            assert mean.tobytes() == (K @ reg.coef).tobytes()
            if len(U) == 1:
                u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
                assert error_bound(loaded, u, 2.0) == float(np.sqrt(reg.output_dim * max(want[0], 0.0)) * 2.0)

    def test_saving_over_a_loaded_model_and_dataset_leaves_them_unchanged(self, tmp_path, uq_dataset_model):
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        save_dataset(ds, tmp_path / "d")
        loaded, data = load_model(tmp_path / "m"), load_dataset(tmp_path / "d")
        q = offgrid(ds.output_grid)  # off the grid: nothing cached from the first call serves the second
        expected = apply_batch(loaded, ds.test_inputs, q)
        model_copy = {k: a.copy() for k, a in held_arrays(loaded).items()}
        data_copy = {k: a.copy() for k, a in held_arrays(data, "dataset").items()}
        # another model and dataset with files of the same sizes
        other = fit_operator(
            ds.input_grid, ds.output_grid, ds.train_inputs, 2.0 * ds.train_outputs, model.regressor.kernel,
            gamma=1e-5, preconditioner=model.preconditioner, pca_input_fraction=0.999, pca_output_fraction=0.999,
        )
        assert other.output_pca.k == model.output_pca.k
        save_model(other, tmp_path / "m")
        save_dataset(Dataset("other", ds.input_grid, ds.output_grid, -ds.train_inputs, ds.train_outputs,
                             -ds.test_inputs, ds.test_outputs), tmp_path / "d")
        assert np.array_equal(load_model(tmp_path / "m").regressor.coef, other.regressor.coef)
        assert np.array_equal(load_dataset(tmp_path / "d").test_inputs, -ds.test_inputs)
        for k, a in held_arrays(loaded).items():
            assert np.array_equal(a, model_copy[k]), k
        for k, a in held_arrays(data, "dataset").items():
            assert np.array_equal(a, data_copy[k]), k
        assert np.array_equal(apply_batch(loaded, ds.test_inputs, q), expected)

    def test_factor_checked_once_per_loaded_model(self, tmp_path, monkeypatch, uq_dataset_model):
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        checks = []
        real = regression.TrainedRegressor.__post_init__
        monkeypatch.setattr(regression.TrainedRegressor, "__post_init__", lambda self: checks.append(1) or real(self))
        loaded = load_model(tmp_path / "m")
        for x in ds.test_inputs[:3]:
            apply(loaded, FunctionSamples(ds.input_grid, x), ds.output_grid)
        assert len(checks) == 1


class TestLoadMemo:
    """A load of the bytes the last load read returns that load's model; any
    other load builds and checks a model of its own."""

    def test_two_loads_of_one_directory_return_one_model(self, tmp_path, uq_dataset_model):
        save_model(uq_dataset_model[1], tmp_path / "m")
        assert load_model(tmp_path / "m") is load_model(tmp_path / "m")

    def test_load_after_saving_a_refit_returns_the_refit(self, tmp_path, monkeypatch, uq_dataset_model):
        ds, model = uq_dataset_model
        g, u = ds.output_grid, FunctionSamples(ds.input_grid, ds.test_inputs[0])
        save_model(model, tmp_path / "m")
        first = load_model(tmp_path / "m")
        apply_with_uq(first, u, g)  # its grid parts are built
        refit = fit_operator(
            g, g, ds.train_inputs, ds.train_outputs, model.regressor.kernel, gamma=1e-3,
            preconditioner=model.preconditioner, pca_input_fraction=0.999, pca_output_fraction=0.999,
        )
        save_model(refit, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        monkeypatch.setattr(operator, "_last_load", None)
        fresh = load_model(tmp_path / "m")
        assert loaded is not first and fresh is not loaded

        def outputs(m):
            mean, std = apply_with_uq(m, u, g)
            q = offgrid(g)
            return (apply_batch(m, ds.test_inputs, g), apply_batch(m, ds.test_inputs, q), mean.values, std.values,
                    apply_with_uq(m, u, q)[1].values, np.array(error_bound(m, u, 1.0)))

        got = outputs(loaded)
        assert all(map(np.array_equal, got, outputs(fresh)))
        assert not np.array_equal(got[0], outputs(first)[0])

    def test_manifest_equal_only_as_python_values_is_checked(self, tmp_path, uq_dataset_model):
        # true == 1.0 in Python, but a kernel's output_scale must not be a bool
        save_model(uq_dataset_model[1], tmp_path / "m")
        load_model(tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["s_kernel"]["output_scale"] == 1.0
        manifest["s_kernel"]["output_scale"] = True
        path.write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match="kernel output_scale must be a number, got True"):
            load_model(tmp_path / "m")

    def test_replacing_a_loaded_file_by_a_non_finite_one_fails_the_next_load(self, tmp_path, uq_dataset_model):
        save_model(uq_dataset_model[1], tmp_path / "m")
        load_model(tmp_path / "m")
        path = tmp_path / "m" / "coefficients.bin"
        coef = np.fromfile(path, dtype="<f8")
        coef[3] = np.nan
        tmp = path.with_name(".coefficients.bin.tmp")
        coef.tofile(tmp)
        os.replace(tmp, path)
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(path))}: non-finite value nan at flat index 3$"):
            load_model(tmp_path / "m")


class TestInferenceCore:
    @pytest.mark.parametrize("preconditioner", ["none", "cholesky"])
    def test_fit_and_load_factorize_no_recovery_map(self, tmp_path, monkeypatch, preconditioner):
        from odlearn import recovery

        calls = []
        real = recovery.cho_factor
        monkeypatch.setattr(recovery, "cho_factor", lambda *a, **k: calls.append(1) or real(*a, **k))
        grid, inputs, outputs = smooth_dataset(n_train=12, seed=33)
        s_kernel, kw = ScalarKernel.gaussian(2.0), {"preconditioner": preconditioner, "pca_input_fraction": 0.999}
        model = fit_operator(grid, grid, inputs, outputs, s_kernel, 1e-8, **kw)
        operator.fit_operator_from_features(prepare_features(grid, grid, inputs, outputs, **kw), s_kernel, 1e-8)
        save_model(model, tmp_path / "m")
        load_model(tmp_path / "m")
        assert calls == []

    def test_single_apply_matches_batch_row(self, uq_dataset_model, adv1_model, monkeypatch):
        # one off-grid row takes the unblocked triangular solves, a batch the blocked
        # ones. At threshold 0 the off-grid set, a lattice of the grid's step,
        # convolves every single row; the 10-row batch of the 20-point grid (past its
        # 8-column crossover) and adv1's 40 rows on its 40-point grid take the blocked
        # path. The models, and the query sets they cache, serve both thresholds
        from odlearn import recovery

        convolved = convolutions(monkeypatch)
        for threshold in (recovery.LATTICE_MIN_ENTRIES, 0):
            monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", threshold)
            for ds, model in (uq_dataset_model, adv1_model):
                for q in (ds.output_grid, offgrid(ds.output_grid)):
                    convolved.clear()
                    batch = apply_batch(model, ds.test_inputs, q)
                    scale = np.sqrt(np.mean(np.sum(batch * batch, axis=1)))
                    for i in range(batch.shape[0]):
                        single = apply(model, FunctionSamples(ds.input_grid, ds.test_inputs[i]), q).values
                        assert np.linalg.norm(single - batch[i]) <= 1e-13 * scale
                    if threshold == 0 and q is not ds.output_grid:
                        assert len(convolved) == len(batch)
                    else:
                        assert convolved == []

    def test_single_uq_std_matches_batched_eval_std(self, uq_dataset_model):
        ds, model = uq_dataset_model
        stds = np.array([
            apply_with_uq(model, FunctionSamples(ds.input_grid, x), ds.output_grid)[1].values
            for x in ds.test_inputs
        ])
        assert stds.max() > 0
        _, batched = operator._predict(model, ds.test_inputs, ds.output_grid, std=True)
        np.testing.assert_allclose(stds, batched, rtol=1e-12, atol=1e-15 * stds.max())
        for q in (ds.output_grid, offgrid(ds.output_grid)):
            u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
            s = regression.posterior_variance(model.regressor, operator._features(model, u.values[None, :]))
            rows = recovery_weights(model.output_recovery, q) @ model.output_pca.basis
            np.testing.assert_allclose(
                apply_with_uq(model, u, q)[1].values, np.sqrt(s) * np.linalg.norm(rows, axis=1), rtol=1e-12
            )
        report = cli.evaluate_model(model, ds, with_uq=True)
        assert report["uq"]["max_std"] == pytest.approx(stds.max(), rel=1e-12)
        assert report["uq"]["mean_std"] == pytest.approx(stds.mean(), rel=1e-12)

    def test_uq_builds_one_kernel_row_per_input_row(self, uq_dataset_model, monkeypatch):
        ds, model = uq_dataset_model
        reg = model.regressor
        rows = []  # batch sizes of the kernel rows built against the training features
        real = regression.gram

        def counted(kernel, X, Y=None, **kwargs):
            if Y is reg.inputs:
                rows.append(len(X))
            return real(kernel, X, Y, **kwargs)

        monkeypatch.setattr(regression, "gram", counted)
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
        for q in (ds.output_grid, offgrid(ds.output_grid)):
            rows.clear()
            apply_with_uq(model, u, q)
            assert rows == [1]
            rows.clear()
            mean, std = operator._predict(model, ds.test_inputs, q, std=True)
            assert rows == [len(ds.test_inputs)]
            # bitwise what predict and the clipped posterior_variance give: on the own
            # grid through the grid mean's A and a0, elsewhere the mean of apply_batch
            U = operator._features(model, ds.test_inputs)
            if q is ds.output_grid:
                A, a0 = model._grid_mean
                expected, norms = regression.predict(reg, U, A) + a0, model._grid_norms
            else:
                expected, norms = apply_batch(model, ds.test_inputs, q), operator._weight_norms(model, q)
            assert np.array_equal(mean, expected)
            assert np.array_equal(std, np.sqrt(np.clip(regression.posterior_variance(reg, U), 0.0, None))[:, None] * norms)

    def test_on_grid_weights_built_once_per_model(self, tmp_path, uq_dataset_model, monkeypatch):
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        solves, weights = [], []  # on-grid recovery solves, and off-grid weight matrices
        real_solves, real_weights = operator.on_grid_weights, operator.recovery_weights
        monkeypatch.setattr(operator, "on_grid_weights", lambda *a: solves.append(1) or real_solves(*a))
        monkeypatch.setattr(operator, "recovery_weights", lambda *a: weights.append(1) or real_weights(*a))
        loaded = load_model(tmp_path / "m")
        assert solves == [] and not GRID_PARTS & vars(loaded).keys()
        g = ds.output_grid
        for x in ds.test_inputs[:3]:
            u = FunctionSamples(ds.input_grid, x)
            apply(loaded, u, g)
            apply_with_uq(loaded, u, g)
            apply_batch(loaded, ds.test_inputs, g)
            error_bound(loaded, u, 1.0)
        assert len(solves) == 2 and weights == []  # A with a0, and the norms, once; no weight matrix
        apply(loaded, FunctionSamples(ds.input_grid, ds.test_inputs[0]), offgrid(g))
        assert len(solves) == 2

    @pytest.mark.parametrize("first, built", [
        ("error_bound", set()), ("off_grid_apply", set()), ("on_grid_apply", {"_grid_mean"}),
        ("on_grid_uq", GRID_PARTS),
    ])
    def test_first_request_builds_only_the_parts_it_reads(self, tmp_path, uq_dataset_model, first, built):
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        u, g = FunctionSamples(ds.input_grid, ds.test_inputs[0]), ds.output_grid
        {"error_bound": lambda: error_bound(loaded, u, 1.0), "off_grid_apply": lambda: apply(loaded, u, offgrid(g)),
         "on_grid_apply": lambda: apply(loaded, u, g), "on_grid_uq": lambda: apply_with_uq(loaded, u, g)}[first]()
        assert GRID_PARTS & vars(loaded).keys() == built
        # a recovery builds the map's factor, or with a preconditioner its checked root and no factor
        rmap, recovered = loaded.output_recovery, first != "error_bound"
        preconditioned = rmap.measurement.preconditioner is not None
        assert ("_factor" in vars(rmap)) == (recovered and not preconditioned)
        assert ("_root" in vars(rmap)) == (recovered and preconditioned)

    def test_reloaded_model_reuses_weights_changed_chain_does_not(self, tmp_path, uq_dataset_model, monkeypatch):
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        solves = []
        real = operator.on_grid_weights
        monkeypatch.setattr(operator, "on_grid_weights", lambda *a: solves.append(1) or real(*a))
        g = ds.output_grid
        loaded = load_model(tmp_path / "m")
        first = apply_batch(loaded, ds.test_inputs, g)
        again = load_model(tmp_path / "m")
        assert again is loaded
        assert np.array_equal(apply_batch(again, ds.test_inputs, g), first) and len(solves) == 1  # A with a0
        r = again.output_recovery
        other = replace(again, output_recovery=RecoveryMap(r.kernel, r.measurement, 2.0 * r.nugget))
        assert not GRID_PARTS & vars(other).keys()
        apply_batch(other, ds.test_inputs, g)
        assert len(solves) == 2
        assert other._grid_mean[0] is not again._grid_mean[0]

    def test_models_differing_only_in_coefficients_keep_their_own_fold(self, uq_dataset_model):
        # a refit at another gamma has the same chain but other coefficients; served
        # alternately, each answers bitwise as a model that has built nothing
        ds, model = uq_dataset_model
        g = ds.output_grid
        other = fit_operator(
            g, g, ds.train_inputs, ds.train_outputs, model.regressor.kernel, gamma=1e-3,
            preconditioner=model.preconditioner, pca_input_fraction=0.999, pca_output_fraction=0.999,
        )
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])

        def outputs(m):
            mean, std = apply_with_uq(m, u, g)
            return apply(m, u, g).values, apply_batch(m, ds.test_inputs, g), mean.values, std.values

        expected = [outputs(replace(m)) for m in (model, other)]  # a copy caches nothing
        assert not np.array_equal(expected[0][1], expected[1][1])
        for _ in range(2):
            for m, want in zip((model, other, replace(model), replace(other)), expected * 2):
                assert all(map(np.array_equal, outputs(m), want))

    def test_load_builds_no_weights_no_input_gram_no_lu(self, tmp_path, uq_dataset_model, monkeypatch):
        _, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        from odlearn import recovery

        sizes = []
        real = recovery.gram
        monkeypatch.setattr(recovery, "gram", lambda *a: sizes.append(a[1].shape[0]) or real(*a))
        loaded = load_model(tmp_path / "m")
        assert sizes == []
        assert not {"_feature_map", *GRID_PARTS} & vars(loaded).keys()
        assert not {"_factor", "_root"} & vars(loaded.output_recovery).keys()

    def test_offgrid_uq_builds_weights_once_mean_is_apply(self, uq_dataset_model, monkeypatch):
        ds, model = uq_dataset_model
        model = replace(model)  # a copy has served no query set
        q = offgrid(ds.output_grid)
        applied = [apply(model, FunctionSamples(ds.input_grid, x), q).values for x in ds.test_inputs]
        real = operator.recovery_weights
        weights = []
        monkeypatch.setattr(operator, "recovery_weights", lambda *a: weights.append(1) or real(*a))
        for x, expected in zip(ds.test_inputs, applied):
            mean, _ = apply_with_uq(model, FunctionSamples(ds.input_grid, x), q)
            assert np.array_equal(mean.values, expected)
        assert len(weights) == 1  # one W per query set, for its row norms

    @pytest.mark.parametrize("queries", ["grid", "lattice", "dense"])
    def test_uq_mean_is_apply_bitwise(self, uq_dataset_model, monkeypatch, queries):
        # at threshold 0 the off-grid lattice, of the grid's step, convolves each
        # single row, and the 10-row batches, past the 8-column crossover, take the
        # dense path; the 301-point set is no such lattice and takes the dense path
        from odlearn import recovery

        monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", 0)
        convolved = convolutions(monkeypatch)
        ds, model = uq_dataset_model
        g = ds.output_grid
        q = {"grid": g, "lattice": offgrid(g), "dense": np.linspace(0.0, 1.0, 301)[:, None]}[queries]
        for x in ds.test_inputs:
            u = FunctionSamples(ds.input_grid, x)
            assert np.array_equal(apply_with_uq(model, u, q)[0].values, apply(model, u, q).values)
        mean, std = operator._predict(model, ds.test_inputs, q, std=True)
        assert np.array_equal(mean, apply_batch(model, ds.test_inputs, q)) and std.shape == mean.shape
        assert len(convolved) == (2 * len(ds.test_inputs) if queries == "lattice" else 0)

    def test_apply_equals_recover_on_and_off_grid(self, uq_dataset_model):
        ds, model = uq_dataset_model
        dense = np.linspace(0.0, 1.0, 301)[:, None]  # spans three off-grid query blocks
        for q in (offgrid(ds.output_grid), ds.output_grid, dense):
            for x in ds.test_inputs[:4]:
                u = FunctionSamples(ds.input_grid, x)
                U = project(model.input_pca, measure(model.input_measurement, u))
                V = reconstruct(model.output_pca, regression.predict(model.regressor, U))
                expected = recover(model.output_recovery, V, q).values
                got = apply(model, u, q).values
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_outputs_do_not_depend_on_process_history(self, tmp_path, monkeypatch, uq_dataset_model):
        # repeating a request must take the path its first use took: an off-grid set
        # no other test uses, a 40-point lattice of the grid's step, and the own grid
        # of a reloaded model; the lattice threshold admits the lattice, not the
        # 20-point sets
        from odlearn import recovery

        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        g = ds.output_grid
        h = g[1] - g[0]
        lattice = g[0] + 0.1 * h + np.arange(40)[:, None] * h
        monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", len(lattice) * len(g))
        convolved = convolutions(monkeypatch)
        cases = [(model, g + 0.37 * h), (model, lattice), (load_model(tmp_path / "m"), g)]
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])

        def outputs(m, q):  # apply first, so that its first call is the set's first use
            single = apply(m, u, q).values
            mean, std = apply_with_uq(m, u, q)
            return single, apply_batch(m, ds.test_inputs, q), mean.values, std.values

        first = [outputs(m, q) for m, q in cases]
        for _ in range(3):
            for (m, q), expected in zip(cases, first):
                assert all(map(np.array_equal, outputs(m, q), expected))
        assert len(convolved) == 4 * 3  # on the lattice alone: apply, UQ and the batch, in 4 rounds

    def test_input_nugget_is_the_gram_default_and_persists(self, tmp_path, uq_dataset_model):
        _, model = uq_dataset_model
        pts, q_kernel = model.input_measurement.points, model.input_recovery.kernel
        assert model.input_recovery.nugget == NUGGET_FACTOR * float(np.mean(np.diag(gram(q_kernel, pts))))
        save_model(model, tmp_path / "a")
        save_model(load_model(tmp_path / "a"), tmp_path / "b")
        for f in (tmp_path / "a").iterdir():
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name


def held_sets(model) -> list[np.ndarray]:
    """The points of the query sets the model's cache holds, least recently used first."""
    return [entry.points for entry in model._queries._entries.values() if entry is not None]


class TestQueryCache:
    """A model caches the off-grid query sets it serves: a set's second request
    holds a copy of its points, and its parts are kept from then on; a repeated
    request gives a fresh model's bits, and what the cache holds stays within
    its byte cap."""

    @pytest.mark.parametrize("case", ["lattice", "dense", "dense above the cap"])
    def test_repeated_request_is_a_fresh_models_first(self, uq_dataset_model, monkeypatch, case):
        from odlearn import recovery

        ds, model = uq_dataset_model
        g = ds.output_grid
        if case == "lattice":
            monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", 0)
            q = offgrid(g)
        else:  # 301 points, no lattice of the grid's step: three 128-row blocks
            q = np.linspace(0.0, 1.0, 301)[:, None]
        if case == "dense above the cap":  # the entry fits, its 48 kB cross Gram does not
            monkeypatch.setattr(operator, "QUERY_CACHE_BYTES", 16 * 1024)
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
        kinds = {
            "apply": lambda m: apply(m, u, q).values,
            "batch": lambda m: apply_batch(m, ds.test_inputs, q),
            "uq": lambda m: np.concatenate([r.values for r in apply_with_uq(m, u, q)]),
        }
        first = {kind: f(replace(model)) for kind, f in kinds.items()}  # a copy has served nothing
        m = replace(model)
        for _ in range(3):
            for kind, f in kinds.items():
                assert np.array_equal(f(m), first[kind]), kind
        (entry,) = m._queries._entries.values()
        kept = vars(entry.query_set).keys()
        # the lattice set convolves single rows and keeps the cross Gram for the
        # 10-row batch, past the 8-column crossover of the 20-point grid
        assert ("_stencil" in kept) == (case == "lattice") and ("_blocks" in kept) == (case != "dense above the cap")
        assert entry.norms is not None and m._queries.nbytes == entry.nbytes <= operator.QUERY_CACHE_BYTES

    def test_least_recently_used_sets_go_first_and_a_set_over_the_cap_is_not_stored(self, uq_dataset_model,
                                                                                     monkeypatch):
        ds, model = uq_dataset_model
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
        m = replace(model)
        a, b, c, d = (offgrid(ds.output_grid) + 0.01 * i for i in range(4))
        apply(m, u, a)
        assert held_sets(m) == [] and len(m._queries._entries) == 1  # a first request keeps nothing
        apply(m, u, a)
        monkeypatch.setattr(operator, "QUERY_CACHE_BYTES", 3 * m._queries.nbytes)  # three sets like a
        for q in (b, b, c, c, a, d, d):  # two requests hold a set
            apply(m, u, q)
        assert [p.tolist() for p in held_sets(m)] == [c.tolist(), a.tolist(), d.tolist()]  # b went first
        big = np.linspace(0.0, 1.0, 2000)[:, None]  # 16 kB of points: its entry alone is over the cap
        for _ in range(3):
            assert np.array_equal(apply(m, u, big).values, apply(replace(model), u, big).values)
            assert held_sets(m) and all(p.shape != big.shape for p in held_sets(m))
        assert m._queries.nbytes <= operator.QUERY_CACHE_BYTES
        counted = [operator.QUERY_ENTRY_BYTES if e is None else e.counted for e in m._queries._entries.values()]
        assert m._queries.nbytes == sum(counted)
        m._queries.clear()
        assert not m._queries._entries and m._queries.nbytes == 0

    def test_overwriting_the_query_array_serves_the_new_points(self, uq_dataset_model):
        ds, model = uq_dataset_model
        m, u = replace(model), FunctionSamples(ds.input_grid, ds.test_inputs[0])
        q = offgrid(ds.output_grid)
        before = [apply(m, u, q).values for _ in range(3)]  # held from the second request
        assert not any(np.shares_memory(p, q) for p in held_sets(m))
        q += 0.5 * (q[1] - q[0])  # in place
        after = apply(m, u, q).values
        assert np.array_equal(after, apply(replace(model), u, q.copy()).values)
        assert not np.array_equal(after, before[0])

    def test_threads_sharing_a_model_keep_the_count_and_the_bits(self, uq_dataset_model, monkeypatch):
        # more threads than cores serve four sets on one model under a cap that
        # holds two: a lost update would break the byte count or an output
        import sys
        import threading

        ds, model = uq_dataset_model
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
        sets = [offgrid(ds.output_grid) + 0.01 * i for i in range(4)]
        expected = [apply_with_uq(replace(model), u, q)[1].values for q in sets]
        m = replace(model)
        apply_with_uq(m, u, sets[0])
        apply_with_uq(m, u, sets[0])
        monkeypatch.setattr(operator, "QUERY_CACHE_BYTES", 2 * m._queries.nbytes)
        failures = []

        def serve(k):
            try:
                for i in range(600):
                    j = (k + i) % len(sets)
                    if not np.array_equal(apply_with_uq(m, u, sets[j])[1].values, expected[j]):
                        failures.append(j)
            except Exception as exc:  # a lost update can also surface as an error in the thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=serve, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and failures == []
        counted = [operator.QUERY_ENTRY_BYTES if e is None else e.counted for e in m._queries._entries.values()]
        assert m._queries.nbytes == sum(counted) <= operator.QUERY_CACHE_BYTES

    def test_what_the_cache_holds_stays_within_its_cap(self, uq_dataset_model, monkeypatch):
        # tracemalloc sees numpy's buffers and the Python objects: what clearing the
        # cache frees is at most what it counted, and that is at most the cap
        import gc
        import tracemalloc

        from odlearn import recovery

        ds, model = uq_dataset_model
        g = ds.output_grid
        monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", 0)
        monkeypatch.setattr(operator, "QUERY_CACHE_BYTES", 64 * 1024)
        m, u = replace(model), FunctionSamples(ds.input_grid, ds.test_inputs[0])
        apply_with_uq(m, u, g + 1.0)  # builds the model's own parts before the count starts
        m._queries.clear()
        sets = [offgrid(g) + 0.01 * i * (g[1] - g[0]) if i % 2 else np.linspace(0.0, 1.0, 30 + i)[:, None]
                for i in range(40)]  # lattices, kept as stencils, and dense sets, kept as cross Grams
        gc.collect()
        tracemalloc.start()
        try:
            for i, q in enumerate(sets):
                for _ in range(2 + i % 3):
                    apply_with_uq(m, u, q)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            counted, entries = m._queries.nbytes, len(m._queries._entries)
            m._queries.clear()
            gc.collect()
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert entries < len(sets)  # some were evicted
        assert 0 < freed <= counted <= operator.QUERY_CACHE_BYTES


class TestRecoverySolves:
    """Output recovery solves on the cached factors: the grid parts keep the bits
    of a cho_solve build, or with a preconditioner L of K @ (L @ R), apart from
    the closed-form norms of a model without output PCA, and a
    corrupt regressor factor is rejected when the regressor is built, or else
    fails the UQ requests that read it."""

    @pytest.mark.parametrize("which", ["pca", "plain"])
    def test_fold_is_bitwise_a_cho_solve_build(self, uq_dataset_model, adv1_model, which):
        from scipy.linalg import cho_solve

        _, model = uq_dataset_model if which == "pca" else adv1_model
        rmap, out, coef = model.output_recovery, model.output_pca, model.regressor.coef
        L = rmap.measurement.preconditioner

        def weights(R):  # on_grid_weights with scipy's cho_solve, or through L alone
            if L is not None:
                return gram(rmap.kernel, rmap.measurement.points) @ (L @ R)
            return R - rmap.nugget * cho_solve(rmap._factor, R)

        (A, a0), norms = model._grid_mean, model._grid_norms
        P_T, directions = (coef.T, np.eye(rmap.size)) if out is None else (out.basis @ coef.T, out.basis)
        assert np.array_equal(A, weights(P_T).T)
        built = np.linalg.norm(weights(directions), axis=1)
        if out is None:  # the closed form of on_grid_norms, within rounding
            np.testing.assert_allclose(norms, built, rtol=1e-14, atol=0)
        else:
            assert np.array_equal(norms, built)
        if out is not None:  # one column: the unblocked solve, within rounding
            np.testing.assert_allclose(a0, weights(out.mean), rtol=0, atol=1e-13 * np.abs(a0).max())

    def test_grid_mean_builds_the_grid_kernel_matrix_once(self, uq_dataset_model, monkeypatch):
        # a0 = W mu rides as the last column of A's product, so a preconditioned
        # map builds its grid's kernel matrix once, not once for A and again for a0
        from odlearn import recovery

        _, model = uq_dataset_model
        rmap, out, coef = model.output_recovery, model.output_pca, model.regressor.coef
        model = replace(model)  # nothing built yet
        rmap._root if rmap.measurement.preconditioner is not None else rmap._factor
        rows, real = [], recovery.gram
        monkeypatch.setattr(recovery, "gram", lambda k, X, *a: rows.append(len(X)) or real(k, X, *a))
        A, a0 = model._grid_mean
        monkeypatch.undo()
        assert sum(rows) == (rmap.size if rmap.measurement.preconditioner is not None else 0)
        two_calls = (on_grid_weights(rmap, out.basis @ coef.T).T, on_grid_weights(rmap, out.mean))
        for got, want in zip((A, a0), two_calls):
            assert np.abs(got - want).max() <= 1e-12 * np.sqrt(np.mean(want * want))

    @pytest.mark.parametrize("entry,value", [((3, 3), np.nan), ((7, 2), np.nan), ((0, 0), np.inf),
                                             ((7, 2), np.inf), ((7, 2), 1e300), ((0, 0), 1e300)],
                             ids=["nan-diagonal", "nan-below", "inf-diagonal", "inf-below", "overflow",
                                  "finite-diagonal"])
    def test_corrupt_gram_factor_fails_uq(self, uq_dataset_model, entry, value):
        # the squares of a factor row must sum to S(U_i, U_i) + gamma: no request gets a corrupt regressor
        _, model = uq_dataset_model
        chol = model.regressor.chol.copy()
        chol[entry] = value
        with pytest.raises(OdlearnError, match=r"regressor's Gram factor is corrupt: the squares in its row"):
            replace(model.regressor, chol=chol)

    @pytest.mark.parametrize("pivot", ["zero", "negative"])
    def test_factor_with_a_non_positive_pivot_is_rejected(self, uq_dataset_model, pivot):
        # row 5 keeps its sum of squares, so only the pivot check sees it
        _, model = uq_dataset_model
        chol = model.regressor.chol.copy()
        if pivot == "zero":
            chol[5, 0], chol[5, 1:6] = np.linalg.norm(chol[5, :6]), 0.0
        else:
            chol[5, 5] = -chol[5, 5]
        with pytest.raises(OdlearnError, match=r"regressor's Gram factor is corrupt: its diagonal entry 5 is"):
            replace(model.regressor, chol=chol)

    def test_factor_that_passes_the_row_check_still_fails_uq(self, uq_dataset_model):
        # row 1 keeps its squared norm but puts it all below a 1e-300 pivot: the solve overflows
        ds, model = uq_dataset_model
        chol = model.regressor.chol.copy()
        chol[1, :2] = np.hypot(chol[1, 0], chol[1, 1]), 1e-300
        bad = replace(model, regressor=replace(model.regressor, chol=chol))
        u = FunctionSamples(ds.input_grid, ds.test_inputs[0])
        for q in (ds.output_grid, offgrid(ds.output_grid)):
            with pytest.raises(OdlearnError, match="regressor's Gram factor is corrupt"):
                apply_with_uq(bad, u, q)
        with pytest.raises(OdlearnError, match="regressor's Gram factor is corrupt"):
            error_bound(bad, u, 1.0)
        assert np.array_equal(apply(bad, u, ds.output_grid).values, apply(model, u, ds.output_grid).values)
