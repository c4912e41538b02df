import warnings

import numpy as np
import pytest

from odlearn.data import (
    Dataset,
    GaussianFieldSpec,
    gen_advection1,
    gen_advection2,
    gen_burgers,
    gen_darcy,
    load_dataset,
    sample_field_matrix,
    save_dataset,
    solve_burgers,
    solve_darcy,
)
from odlearn.data.fields import mode_table
from odlearn.errors import DatasetFormatError, SolverError


class TestGaussianFields:
    def test_first_mode_constant(self):
        eigfuns, variances = mode_table(GaussianFieldSpec(boundary="periodic1d", grid_size=16))
        assert eigfuns.shape == (15, 16)  # the constant and 7 sine/cosine pairs
        assert np.ptp(eigfuns[0]) == 0.0
        assert (np.diff(variances) <= 1e-15).all()  # sorted by eigenvalue

    def test_empirical_variance_matches_kl_sum(self):
        # oracle: analytic variance sum over modes at each grid point
        spec = GaussianFieldSpec(boundary="periodic1d", grid_size=32, scale=2.0, tau=2.0, exponent=1.5)
        _, fields = sample_field_matrix(spec, seed=123, count=10_000)
        eigfuns, variances = mode_table(spec)
        analytic = (variances[:, None] * eigfuns**2).sum(axis=0)
        empirical = fields.var(axis=0)
        np.testing.assert_allclose(empirical, analytic, rtol=0.05)

    def test_seed_contract(self):
        spec = GaussianFieldSpec(boundary="periodic1d", grid_size=16)
        _, a = sample_field_matrix(spec, seed=1, count=3)
        _, b = sample_field_matrix(spec, seed=1, count=3)
        _, c = sample_field_matrix(spec, seed=2, count=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_independent_of_batch_size(self):
        spec = GaussianFieldSpec(boundary="periodic1d", grid_size=16)
        _, small = sample_field_matrix(spec, seed=3, count=2)
        _, large = sample_field_matrix(spec, seed=3, count=6)
        np.testing.assert_array_equal(small, large[:2])

    def test_neumann2d_modes(self):
        spec = GaussianFieldSpec(boundary="neumann2d", grid_size=9)
        eigfuns, variances = mode_table(spec)
        assert eigfuns.shape == (81, 81)
        assert (np.diff(variances) <= 1e-15).all()  # sorted by eigenvalue
        grid, fields = sample_field_matrix(spec, seed=0, count=4)
        assert grid.shape == (81, 2) and fields.shape == (4, 81)

    def test_neumann2d_first_mode_constant(self):
        eigfuns, _ = mode_table(GaussianFieldSpec(boundary="neumann2d", grid_size=7))
        assert np.ptp(eigfuns[0]) == 0.0

    def test_neumann2d_variance_matches_kl_sum(self):
        spec = GaussianFieldSpec(boundary="neumann2d", grid_size=7, tau=3.0, exponent=2.0)
        _, fields = sample_field_matrix(spec, seed=21, count=10_000)
        eigfuns, variances = mode_table(spec)
        analytic = (variances[:, None] * eigfuns**2).sum(axis=0)
        np.testing.assert_allclose(fields.var(axis=0), analytic, rtol=0.05)


class TestAdvection:
    def test_square_wave_values_and_shift(self):
        ds = gen_advection1(30, 10, grid_size=40, seed=7)
        n = 40
        for row_in, row_out in zip(ds.train_inputs, ds.train_outputs):
            h = row_in.max()
            assert 1.0 <= h <= 2.0
            assert set(np.unique(row_in)) <= {0.0, h}
            np.testing.assert_array_equal(row_out, np.roll(row_in, n // 2))

    def test_wrap_consistent_trapezoid_sums_match(self):
        # periodic trapezoid oracle: append the wrap point, then np.trapezoid
        ds = gen_advection1(10, 2, grid_size=40, seed=8)
        x = np.append(ds.input_grid[:, 0], 1.0)
        for u, v in zip(ds.train_inputs, ds.train_outputs):
            iu = np.trapezoid(np.append(u, u[0]), x)
            iv = np.trapezoid(np.append(v, v[0]), x)
            assert iu == pytest.approx(iv, abs=1e-14)

    def test_advection2_binary_and_shift(self):
        ds = gen_advection2(20, 5, grid_size=200, seed=9)
        assert set(np.unique(ds.train_inputs)) <= {-1.0, 1.0}
        np.testing.assert_array_equal(ds.train_outputs, np.roll(ds.train_inputs, 100, axis=1))

    def test_advection2_sign_balance(self):
        ds = gen_advection2(10_000, 0, grid_size=64, seed=10)
        frac = (ds.train_inputs > 0).mean()
        assert abs(frac - 0.5) <= 0.02

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError, match="even"):
            gen_advection1(2, 1, grid_size=41, seed=0)


class TestBurgers:
    def test_zero_initial_condition_stays_zero(self):
        out = solve_burgers(np.zeros((1, 64)), nu=0.1, t_final=0.1)
        np.testing.assert_array_equal(out, np.zeros((1, 64)))

    def test_mean_conservation_and_energy_decay(self):
        ds = gen_burgers(6, 2, grid_size=64, seed=11)
        drift = np.abs(ds.train_outputs.mean(axis=1) - ds.train_inputs.mean(axis=1))
        assert drift.max() <= 1e-8
        e_in = np.linalg.norm(ds.train_inputs, axis=1)
        e_out = np.linalg.norm(ds.train_outputs, axis=1)
        assert (e_out <= e_in * (1 + 1e-12)).all()

    def test_energy_trace_monotone(self):
        spec_inputs = sample_field_matrix(
            GaussianFieldSpec(boundary="periodic1d", grid_size=64, scale=625.0, tau=5.0, exponent=2.0),
            seed=12,
            count=1,
        )[1]
        _, energies = solve_burgers(spec_inputs, nu=0.1, t_final=0.3, energy_trace=True)
        assert (np.diff(energies) <= 1e-12).all()

    def test_time_step_convergence(self):
        _, u0 = sample_field_matrix(
            GaussianFieldSpec(boundary="periodic1d", grid_size=64, scale=625.0, tau=5.0, exponent=2.0),
            seed=13,
            count=1,
        )
        a = solve_burgers(u0, nu=0.1, t_final=1.0)
        b = solve_burgers(u0, nu=0.1, t_final=1.0, dt_safety=0.5)
        rel = np.linalg.norm(a - b) / np.linalg.norm(a)
        assert rel <= 1e-6

    def test_blowup_names_sample(self):
        bad = np.zeros((3, 64))
        bad[1, 0] = np.inf
        with pytest.raises(SolverError, match="sample 1"):
            solve_burgers(bad, nu=0.1, t_final=0.01)

    def test_sample_independent_of_batch(self):
        _, u0 = sample_field_matrix(
            GaussianFieldSpec(boundary="periodic1d", grid_size=64, scale=625.0, tau=5.0, exponent=2.0),
            seed=16,
            count=2,
        )
        alone = solve_burgers(u0[:1], nu=0.1, t_final=0.5)
        batched = solve_burgers(np.vstack([u0[0], 5.0 * u0[1]]), nu=0.1, t_final=0.5)
        assert np.array_equal(alone[0], batched[0])

    def test_blowup_names_sample_after_rows_finish(self):
        # row 0 (zero) finishes in one step; row 2 overflows on its first step
        u0 = np.zeros((3, 64))
        u0[1] = np.sin(2.0 * np.pi * np.arange(64) / 64)
        u0[2, 0] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="sample 2"):
                solve_burgers(u0, nu=0.1, t_final=0.01)

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            gen_burgers(1, 1, grid_size=100, seed=0)


class TestDarcy:
    def test_constant_coefficient_scaling(self):
        v1 = solve_darcy(np.ones((29, 29)))
        v4 = solve_darcy(4.0 * np.ones((29, 29)))
        assert np.abs(4.0 * v4 - v1).max() <= 1e-10

    def test_boundary_zero_and_interior_positive(self):
        ds = gen_darcy(3, 1, grid_size=17, seed=14)
        g = 17
        for row in ds.train_outputs:
            v = row.reshape(g, g)
            assert np.array_equal(v[0], np.zeros(g)) and np.array_equal(v[-1], np.zeros(g))
            assert np.array_equal(v[:, 0], np.zeros(g)) and np.array_equal(v[:, -1], np.zeros(g))
            assert (v[1:-1, 1:-1] > 0).all()

    def test_inputs_are_log_coefficients(self):
        ds = gen_darcy(4, 1, grid_size=9, seed=15)
        vals = set(np.unique(ds.train_inputs.round(12)))
        assert vals <= {round(np.log(3.0), 12), round(np.log(12.0), 12)}

    def test_grid_refinement_consistency(self):
        # constant-coefficient solution on 57x57 restricted to the 29x29 nodes
        coarse = solve_darcy(np.ones((29, 29)))
        fine = solve_darcy(np.ones((57, 57)))[::2, ::2]
        rel = np.linalg.norm(fine - coarse) / np.linalg.norm(coarse)
        assert rel <= 0.02

    def test_nonpositive_coefficient_rejected(self):
        a = np.ones((9, 9))
        a[4, 4] = -1.0
        with pytest.raises(SolverError, match="positive"):
            solve_darcy(a)

    def test_batch_matches_single_solves_bitwise(self):
        # more samples than one assembly chunk, so a chunk boundary is crossed
        a = np.where(np.random.default_rng(3).standard_normal((70, 11, 11)) >= 0.0, 12.0, 3.0)
        batch = solve_darcy(a)
        assert batch.shape == a.shape
        for i in range(a.shape[0]):
            assert np.array_equal(batch[i], solve_darcy(a[i]))

    def test_sample_independent_of_dataset_size(self):
        small = gen_darcy(3, 2, grid_size=9, seed=21)
        large = gen_darcy(66, 4, grid_size=9, seed=21)
        small_out = np.vstack([small.train_outputs, small.test_outputs])
        assert np.array_equal(small_out, large.train_outputs[:5])

    def test_matches_sparse_reference(self):
        # oracle: the 5-point harmonic-mean matrix in CSR, solved by sparse LU
        import scipy.sparse as sp
        from scipy.sparse.linalg import spsolve

        g, m = 17, 15
        h = 1.0 / (g - 1)
        a = np.where(np.random.default_rng(5).standard_normal((g, g)) >= 0.0, 12.0, 3.0)
        ax = 2.0 * a[1:, :] * a[:-1, :] / (a[1:, :] + a[:-1, :])
        ay = 2.0 * a[:, 1:] * a[:, :-1] / (a[:, 1:] + a[:, :-1])
        rows, cols, vals = [], [], []
        for i in range(1, g - 1):
            for j in range(1, g - 1):
                k = (i - 1) * m + (j - 1)
                faces = {(1, 0): ax[i, j], (-1, 0): ax[i - 1, j], (0, 1): ay[i, j], (0, -1): ay[i, j - 1]}
                rows.append(k)
                cols.append(k)
                vals.append(sum(faces.values()) / h**2)
                for (di, dj), face in faces.items():
                    if 1 <= i + di <= g - 2 and 1 <= j + dj <= g - 2:
                        rows.append(k)
                        cols.append((i + di - 1) * m + (j + dj - 1))
                        vals.append(-face / h**2)
        A = sp.csr_matrix((vals, (rows, cols)), shape=(m * m, m * m))
        ref = np.zeros((g, g))
        ref[1:-1, 1:-1] = spsolve(A, np.ones(m * m)).reshape(m, m)
        v = solve_darcy(a)
        assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize(
        "value,match",
        [
            (-1.0, "positive"),
            (0.0, "positive"),
            (np.nan, "positive"),
            (np.inf, "positive"),
            (1e-320, "Cholesky failed"),  # faces underflow to 0: singular matrix
            (1e300, "non-finite"),  # faces overflow
        ],
    )
    @pytest.mark.parametrize("row", [2, 66])  # 66 lies in the second assembly chunk
    def test_bad_sample_named(self, value, match, row):
        a = np.full((70, 9, 9), 3.0)
        a[row] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=rf"{match}.*sample {row}$"):
                solve_darcy(a)

    @pytest.mark.parametrize("shape", [(9, 8), (2, 2), (3, 9, 8), (9,), (2, 3, 9, 9)])
    def test_bad_grid_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="square nodal grid"):
            solve_darcy(np.ones(shape))


class TestDeterminism:
    @pytest.mark.parametrize(
        "gen,kwargs",
        [
            (gen_advection1, dict(grid_size=40)),
            (gen_advection2, dict(grid_size=50)),
            (gen_burgers, dict(grid_size=64)),
            (gen_darcy, dict(grid_size=9)),
        ],
    )
    def test_bit_identical_repeats(self, gen, kwargs):
        a = gen(4, 2, seed=42, **kwargs)
        b = gen(4, 2, seed=42, **kwargs)
        for attr in ("train_inputs", "train_outputs", "test_inputs", "test_outputs"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))
        c = gen(4, 2, seed=43, **kwargs)
        assert not np.array_equal(a.train_inputs, c.train_inputs)


class TestContainer:
    def test_round_trip_bitwise(self, tmp_path):
        ds = gen_advection1(5, 3, grid_size=16, seed=1)
        save_dataset(ds, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        for attr in ("train_inputs", "train_outputs", "test_inputs", "test_outputs"):
            assert np.array_equal(getattr(ds, attr), getattr(back, attr))
        assert np.array_equal(ds.input_grid, back.input_grid)
        assert back.name == "advection1" and back.seed == 1
        assert "PCG64" in back.prng

    def test_save_twice_byte_identical(self, tmp_path):
        ds = gen_advection1(5, 3, grid_size=16, seed=1)
        save_dataset(ds, tmp_path / "a")
        save_dataset(ds, tmp_path / "b")
        for name in ("train_inputs.bin", "test_outputs.bin", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_truncated_binary_reports_byte_counts(self, tmp_path):
        ds = gen_advection1(5, 3, grid_size=16, seed=1)
        save_dataset(ds, tmp_path / "d")
        f = tmp_path / "d" / "train_inputs.bin"
        f.write_bytes(f.read_bytes()[:-16])
        with pytest.raises(DatasetFormatError, match=r"expected 640 bytes.*found 624"):
            load_dataset(tmp_path / "d")

    def test_unknown_format_version_rejected(self, tmp_path):
        import json

        ds = gen_advection1(2, 1, grid_size=16, seed=1)
        save_dataset(ds, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        manifest["format_version"] = 2
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match="format_version"):
            load_dataset(tmp_path / "d")

    def test_missing_file_rejected(self, tmp_path):
        ds = gen_advection1(2, 1, grid_size=16, seed=1)
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "test_inputs.bin").unlink()
        with pytest.raises(DatasetFormatError, match="missing"):
            load_dataset(tmp_path / "d")

    def test_missing_manifest_key_named(self, tmp_path):
        import json

        ds = gen_advection1(2, 1, grid_size=16, seed=1)
        save_dataset(ds, tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        del manifest["splits"]
        (tmp_path / "d" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match=r"manifest\.json: missing key 'splits'"):
            load_dataset(tmp_path / "d")

    def test_dataset_validation(self):
        with pytest.raises(ValueError, match="columns"):
            Dataset(
                name="x",
                input_grid=np.zeros((3, 1)) + np.arange(3)[:, None],
                output_grid=np.zeros((3, 1)) + np.arange(3)[:, None],
                train_inputs=np.ones((2, 4)),
                train_outputs=np.ones((2, 3)),
                test_inputs=np.ones((1, 3)),
                test_outputs=np.ones((1, 3)),
            )
