import numpy as np
import pytest

from odlearn.data import gen_advection1
from odlearn.kernels import ScalarKernel
from odlearn.metrics import (
    count_inference_flops,
    quadrature_weights,
    relative_l2,
)
from odlearn.operator import fit_operator


def tensor_grid(nx, ny):
    xs = np.linspace(0, 1, nx)
    ys = np.linspace(0, 2, ny)
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


class TestRelativeL2:
    def test_exact_predictions_give_zero(self):
        grid = np.linspace(0, 1, 9)[:, None]
        T = np.random.default_rng(0).normal(size=(4, 9)) + 2.0
        rep = relative_l2(T, T, grid, "trapezoid1d")
        assert rep.mean_relative_l2 == 0.0
        assert rep.n_samples == 4

    def test_factor_two_gives_one(self):
        grid = np.linspace(0, 1, 9)[:, None]
        T = np.random.default_rng(1).normal(size=(3, 9)) + 3.0
        rep = relative_l2(2 * T, T, grid, "trapezoid1d")
        np.testing.assert_allclose(rep.per_sample, 1.0, rtol=1e-12)

    def test_constants_give_half(self):
        grid = np.linspace(0, 1, 11)[:, None]
        truth = np.full((1, 11), 2.0)
        pred = np.full((1, 11), 3.0)
        for quad in ("trapezoid1d", "euclidean"):
            rep = relative_l2(pred, truth, grid, quad)
            assert rep.mean_relative_l2 == pytest.approx(0.5, rel=1e-12)

    def test_zero_norm_truth_names_sample(self):
        grid = np.linspace(0, 1, 5)[:, None]
        truth = np.ones((3, 5))
        truth[1] = 0.0
        with pytest.raises(ValueError, match="sample 1"):
            relative_l2(truth, truth, grid)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(0, 1, 8)[:, None]
        P = rng.normal(size=(5, 8))
        T = rng.normal(size=(5, 8)) + 2.0
        a = relative_l2(P, T, grid, "trapezoid1d").per_sample
        b = relative_l2(137.0 * P, 137.0 * T, grid, "trapezoid1d").per_sample
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_mean_equals_arithmetic_mean(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0, 1, 8)[:, None]
        rep = relative_l2(rng.normal(size=(7, 8)), rng.normal(size=(7, 8)) + 1.5, grid)
        assert rep.mean_relative_l2 == pytest.approx(float(rep.per_sample.mean()), abs=1e-15)

    def test_shape_mismatch_rejected(self):
        grid = np.linspace(0, 1, 4)[:, None]
        with pytest.raises(ValueError):
            relative_l2(np.zeros((2, 4)), np.zeros((3, 4)), grid)


class TestQuadrature:
    def test_trapezoid1d_constant_times_interval(self):
        grid = np.linspace(0.25, 1.75, 13)[:, None]
        val = quadrature_weights(grid, "trapezoid1d") @ np.full(13, 4.0)
        assert val == pytest.approx(4.0 * 1.5, abs=1e-12)

    def test_trapezoid1d_matches_numpy(self):
        x = np.sort(np.random.default_rng(4).uniform(0, 1, 17))
        y = np.sin(3 * x)
        got = quadrature_weights(x[:, None], "trapezoid1d") @ y
        assert got == pytest.approx(np.trapezoid(y, x), rel=1e-13)

    def test_trapezoid2d_matches_nested_numpy(self):
        # oracle: iterated 1D trapezoid over the tensor grid
        nx, ny = 7, 9
        grid = tensor_grid(nx, ny)
        f = np.cos(2 * grid[:, 0]) * (1 + grid[:, 1] ** 2)
        got = quadrature_weights(grid, "trapezoid2d") @ f
        F = f.reshape(nx, ny)
        xs = np.linspace(0, 1, nx)
        ys = np.linspace(0, 2, ny)
        expected = np.trapezoid(np.trapezoid(F, ys, axis=1), xs)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_non_tensor_grid_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="tensor"):
            quadrature_weights(pts, "trapezoid2d")

    def test_euclidean_weights_are_ones(self):
        np.testing.assert_array_equal(
            quadrature_weights(np.zeros((4, 3)) + np.arange(4)[:, None], "euclidean"), np.ones(4)
        )

    def test_unknown_quadrature_rejected(self):
        with pytest.raises(ValueError, match="quadrature"):
            quadrature_weights(np.zeros((2, 1)), "simpson")


def toy_model(n_train=5, n_in=4, n_out=3, pca_in=None, pca_out=None, precond="none", seed=0):
    rng = np.random.default_rng(seed)
    in_grid = np.linspace(0, 1, n_in)[:, None]
    out_grid = np.linspace(0, 1, n_out)[:, None]
    inputs = rng.normal(size=(n_train, n_in))
    outputs = rng.normal(size=(n_train, n_out))
    return fit_operator(
        in_grid, out_grid, inputs, outputs,
        ScalarKernel.gaussian(1.0), gamma=1e-6,
        preconditioner=precond,
        pca_input_fraction=pca_in, pca_output_fraction=pca_out,
    )


class TestFlops:
    def test_plain_pipeline_closed_form(self):
        # no preconditioner, no PCA: kernel row + regression matvec + output matvec
        model = toy_model(n_train=5, n_in=4, n_out=3)
        q = 6
        rep = count_inference_flops(model, q)
        expected = 5 * 3 * 4 + 3 * (2 * 5 - 1) + q * (2 * 3 - 1)
        assert rep.per_query_flops == expected
        assert rep.per_query_flops == sum(v for _, v in rep.breakdown)
        # served: the kernel row and one matvec from it to the 3 output points
        assert rep.served_flops == 5 * 3 * 4 + 3 * (2 * 5 - 1)

    def test_single_sample_kernel_row_rule(self):
        # N=1, c=3, n=4: the kernel-row stage contributes exactly 12
        model = toy_model(n_train=1, n_in=4, n_out=2)
        rep = count_inference_flops(model, 1)
        assert dict(rep.breakdown)["kernel_row_evaluation"] == 12

    def test_doubling_train_count_doubles_middle_stages(self):
        m1 = toy_model(n_train=6, n_in=4, n_out=3, seed=1)
        m2 = toy_model(n_train=12, n_in=4, n_out=3, seed=2)
        q = 5
        b1 = dict(count_inference_flops(m1, q).breakdown)
        b2 = dict(count_inference_flops(m2, q).breakdown)
        assert b2["kernel_row_evaluation"] == 2 * b1["kernel_row_evaluation"]
        # regression matvec: m(2N-1) is affine, not proportional, in N
        assert b2["regression_matvec"] == 3 * (2 * 12 - 1)
        assert b2["output_reconstruction_matvec"] == b1["output_reconstruction_matvec"]

    def test_pure_function_of_shapes(self):
        m1 = toy_model(seed=3)
        m2 = toy_model(seed=4)
        r1 = count_inference_flops(m1, 9)
        r2 = count_inference_flops(m2, 9)
        assert r1.per_query_flops == r2.per_query_flops
        assert r1.breakdown == r2.breakdown

    def test_pca_and_preconditioner_stages_appear(self):
        model = toy_model(n_train=8, n_in=6, n_out=5, pca_in=0.999, pca_out=0.999, precond="cholesky", seed=5)
        rep = count_inference_flops(model, 4)
        labels = [name for name, _ in rep.breakdown]
        assert "input_measurement_matvec" in labels
        assert "input_pca_projection" in labels
        assert "output_pca_reconstruction" in labels
        k_in = model.input_pca.k
        k_out = model.output_pca.k
        expected = (
            6 * (2 * 6 - 1)                      # preconditioner matvec
            + 6 + k_in * (2 * 6 - 1)             # centering + projection
            + 8 * 3 * k_in                       # kernel row
            + k_out * (2 * 8 - 1)                # regression matvec
            + 5 * (2 * k_out - 1) + 5            # PCA reconstruction + de-centering
            + 4 * (2 * 5 - 1)                    # output recovery matvec
        )
        assert rep.per_query_flops == expected
        assert rep.served_flops == (
            k_in * (2 * 6 - 1) + k_in            # folded feature matvec + offset
            + 8 * 3 * k_in                       # kernel row
            + 5 * (2 * 8 - 1) + 5                # folded output matvec + PCA mean
        )

    def test_note_mentions_conventions(self):
        rep = count_inference_flops(toy_model(), 2)
        assert "m*(2n-1)" in rep.assumptions_note
        assert "3" in rep.assumptions_note

    def test_advection_model_flops(self):
        ds = gen_advection1(20, 5, grid_size=8, seed=0)
        model = fit_operator(
            ds.input_grid, ds.output_grid, ds.train_inputs, ds.train_outputs,
            ScalarKernel.linear(), gamma=1e-10,
        )
        rep = count_inference_flops(model, 8)
        assert rep.per_query_flops == 20 * 3 * 8 + 8 * (2 * 20 - 1) + 8 * (2 * 8 - 1)
