import json
import re
from dataclasses import replace

import numpy as np
import pytest

from odlearn import cli, operator
from odlearn.data import Dataset, gen_advection1
from odlearn.data.container import write_array
from odlearn.errors import DatasetFormatError
from odlearn.kernels import ScalarKernel, gram
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


class TestPersistence:
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

    @pytest.mark.parametrize("name", ["coefficients.bin", "pca_input.bin", "l_output.bin"])
    def test_missing_binary_named(self, tmp_path, name):
        grid, inputs, outputs = smooth_dataset(n_train=30, seed=16)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=4.0),
            gamma=1e-8, preconditioner="cholesky", pca_input_fraction=0.99,
        )
        save_model(model, tmp_path / "m")
        (tmp_path / "m" / name).unlink()
        with pytest.raises(DatasetFormatError, match=rf"missing .*{name}"):
            load_model(tmp_path / "m")

    def test_saved_model_holds_only_what_load_reads(self, tmp_path, monkeypatch):
        grid, inputs, outputs = smooth_dataset(n_train=30, seed=16)
        model = fit_operator(
            grid, grid, inputs, outputs, ScalarKernel.matern(nu=2.5, lengthscale=4.0),
            gamma=1e-8, preconditioner="cholesky", pca_input_fraction=0.99, pca_output_fraction=0.99,
        )
        save_model(model, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert set(manifest["arrays"]) == {
            "input_points", "output_points", "train_features", "coefficients", "gram_factor",
            "l_input", "l_output",
        }
        assert "lower" not in manifest["arrays"]["gram_factor"]
        assert "preconditioner" not in manifest
        read = []
        real = operator.read_array
        monkeypatch.setattr(operator, "read_array", lambda path, shape: read.append(path.name) or real(path, shape))
        load_model(tmp_path / "m")
        assert sorted(read) == sorted(p.name for p in (tmp_path / "m").glob("*.bin"))

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


def offgrid(grid):
    """As many query points as the grid has, none of them on it."""
    return grid + 0.25 * (grid[1] - grid[0])


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

    def test_single_apply_matches_batch_row(self, uq_dataset_model, adv1_model):
        for ds, model in (uq_dataset_model, adv1_model):
            for q in (ds.output_grid, offgrid(ds.output_grid)):
                batch = apply_batch(model, ds.test_inputs, q)
                scale = np.sqrt(np.mean(np.sum(batch * batch, axis=1)))
                for i in range(batch.shape[0]):
                    single = apply(model, FunctionSamples(ds.input_grid, ds.test_inputs[i]), q).values
                    assert np.linalg.norm(single - batch[i]) <= 1e-13 * scale

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

    def test_on_grid_weights_built_once_per_model(self, tmp_path, uq_dataset_model, monkeypatch):
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        calls = []
        real = operator.recovery_weights
        monkeypatch.setattr(operator, "recovery_weights", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(operator, "_last_weights", None)  # nothing to reuse
        loaded = load_model(tmp_path / "m")
        assert calls == [] and "output_weights" not in vars(loaded)
        g = ds.output_grid
        for x in ds.test_inputs[:3]:
            u = FunctionSamples(ds.input_grid, x)
            apply(loaded, u, g)
            apply_with_uq(loaded, u, g)
            apply_batch(loaded, ds.test_inputs, g)
            error_bound(loaded, u, 1.0)
        assert len(calls) == 1
        apply(loaded, FunctionSamples(ds.input_grid, ds.test_inputs[0]), offgrid(g))
        assert len(calls) == 1

    def test_reloaded_model_reuses_weights_changed_chain_does_not(self, tmp_path, uq_dataset_model, monkeypatch):
        ds, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        calls = []
        real = operator.recovery_weights
        monkeypatch.setattr(operator, "recovery_weights", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(operator, "_last_weights", None)
        g = ds.output_grid
        first = apply_batch(load_model(tmp_path / "m"), ds.test_inputs, g)
        again = load_model(tmp_path / "m")
        assert np.array_equal(apply_batch(again, ds.test_inputs, g), first) and len(calls) == 1
        r = again.output_recovery
        other = replace(again, output_recovery=RecoveryMap(r.kernel, r.measurement, 2.0 * r.nugget))
        assert "output_weights" not in vars(other)
        apply_batch(other, ds.test_inputs, g)
        assert len(calls) == 2
        assert other.output_weights[0] is not again.output_weights[0]

    def test_load_builds_no_weights_no_input_gram_no_lu(self, tmp_path, uq_dataset_model, monkeypatch):
        _, model = uq_dataset_model
        save_model(model, tmp_path / "m")
        from odlearn import recovery

        sizes = []
        real = recovery.gram
        monkeypatch.setattr(recovery, "gram", lambda *a: sizes.append(a[1].shape[0]) or real(*a))
        loaded = load_model(tmp_path / "m")
        assert sizes == []
        assert "output_weights" not in vars(loaded)
        assert "_factor" not in vars(loaded.output_recovery)
        assert "_preconditioner_lu" not in vars(loaded.output_recovery)

    def test_offgrid_uq_builds_one_cross_gram_and_its_mean_is_apply(self, uq_dataset_model, monkeypatch):
        ds, model = uq_dataset_model
        q = offgrid(ds.output_grid)
        batch = apply_batch(model, ds.test_inputs, q)
        scale = np.sqrt(np.mean(np.sum(batch * batch, axis=1)))  # RMS row norm
        applied = [apply(model, FunctionSamples(ds.input_grid, x), q).values for x in ds.test_inputs]
        real = operator.evaluate
        blocked = []  # the coefficient form's blocked cross Gram
        monkeypatch.setattr(operator, "evaluate", lambda *a: blocked.append(1) or real(*a))
        for x, expected in zip(ds.test_inputs, applied):
            mean, _ = apply_with_uq(model, FunctionSamples(ds.input_grid, x), q)
            assert np.linalg.norm(mean.values - expected) <= 1e-12 * scale
        assert blocked == []

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

    def test_input_nugget_is_the_gram_default_and_persists(self, tmp_path, uq_dataset_model):
        _, model = uq_dataset_model
        pts, q_kernel = model.input_measurement.points, model.input_recovery.kernel
        assert model.input_recovery.nugget == NUGGET_FACTOR * float(np.mean(np.diag(gram(q_kernel, pts))))
        save_model(model, tmp_path / "a")
        save_model(load_model(tmp_path / "a"), tmp_path / "b")
        for f in (tmp_path / "a").iterdir():
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name
