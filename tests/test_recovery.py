import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotri, dtrtrs
from scipy.spatial.distance import pdist

from odlearn import recovery
from odlearn.errors import FactorizationError
from odlearn.kernels import ScalarKernel, gram
from odlearn.recovery import (
    FunctionSamples,
    MeasurementOperator,
    QuerySet,
    RecoveryMap,
    cholesky_preconditioner,
    fill_distance,
    measure,
    on_grid_norms,
    on_grid_weights,
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

    @pytest.mark.parametrize("grid", [[[-0.0], [0.5]], [[-0.0], [0.25], [0.5]]], ids=["equal", "superset"])
    def test_signed_zeros_are_one_point_on_every_path(self, grid):
        op = MeasurementOperator(np.array([[0.0], [0.5]]))
        f = FunctionSamples(np.array(grid), np.arange(len(grid), dtype=float))
        np.testing.assert_array_equal(measure(op, f), [0.0, len(grid) - 1.0])

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

    @pytest.mark.parametrize("nugget", [True, False, np.nan, np.inf, -1e-12], ids=str)
    def test_nugget_must_be_a_finite_number_at_least_zero(self, nugget):
        op = MeasurementOperator(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError, match="nugget must be a finite number >= 0"):
            RecoveryMap(ScalarKernel.gaussian(1.0), op, nugget=nugget)

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
        # a preconditioned map checks its root once and never builds a kernel matrix or a factor
        rng = np.random.default_rng(15)
        pts = rng.uniform(0, 1, size=(8, 1))
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=0.3)
        L = cholesky_preconditioner(kernel, pts) if preconditioned else None
        rmap = RecoveryMap(kernel, MeasurementOperator(pts, L))
        calls, grams = [], []
        real, real_gram = recovery.cho_factor, recovery.gram
        monkeypatch.setattr(recovery, "cho_factor", lambda *a, **k: calls.append(1) or real(*a, **k))
        monkeypatch.setattr(recovery, "gram", lambda k, X, Y=None: grams.append(Y is None) or real_gram(k, X, Y))
        built = "_root" if preconditioned else "_factor"
        assert calls == [] and built not in vars(rmap)
        U, q = rng.normal(size=8), rng.uniform(0, 1, size=(5, 1))
        first = recover(rmap, U, q).values
        assert len(calls) == (not preconditioned) and built in vars(rmap)
        assert np.array_equal(recover(rmap, U, q).values, first)
        recovery_weights(rmap, q)
        on_grid_weights(rmap, U)
        assert len(calls) == grams.count(True) == (not preconditioned)
        assert ("_factor" in vars(rmap)) != preconditioned

    def test_recovery_through_an_l_that_is_not_the_maps_root_raises(self):
        # measuring takes any invertible L; recovering needs L G L = I, checked at the first recovery
        pts = np.linspace(0.0, 1.0, 6)[:, None]
        op = MeasurementOperator(pts, 2.0 * np.eye(6))
        np.testing.assert_array_equal(measure(op, FunctionSamples(pts, np.arange(6.0))), 2.0 * np.arange(6.0))
        rmap = RecoveryMap(ScalarKernel.matern(nu=2.5, lengthscale=0.4), op)
        message = r"^preconditioner is not the root \(K \+ nugget I\)\^-1/2 of its recovery map: " \
                  r"\|L G L x - x\| / \|x\| = \d\.\d{3}e[+-]\d+ > 1\.000e-08$"
        for recovery_call in (lambda: recover(rmap, np.ones(6), pts), lambda: recovery_weights(rmap, pts),
                              lambda: on_grid_weights(rmap, np.ones(6))):
            with pytest.raises(ValueError, match=message):
                recovery_call()
        assert not {"_factor", "_root"} & vars(rmap).keys()

    @pytest.mark.parametrize("kernel,pts", [
        (ScalarKernel.gaussian(0.2), np.linspace(0.0, 1.0, 200)[:, None]),
        (ScalarKernel.gaussian(0.3), np.stack(np.meshgrid(*2 * [np.linspace(0.0, 1.0, 20)], indexing="ij"), -1).reshape(-1, 2)),
    ], ids=["1d-cond-9e11", "2d-cond-1e12"])
    def test_own_root_passes_at_any_conditioning_a_scaled_entry_does_not(self, kernel, pts):
        # the check's bound follows cond(G), which an eigh-built root's rounding grows with;
        # one entry of L scaled by 1.5, as in a corrupt saved L, still misses it
        L = cholesky_preconditioner(kernel, pts)
        U = np.random.default_rng(3).normal(size=len(pts))
        recover(RecoveryMap(kernel, MeasurementOperator(pts, L)), U, pts)
        L.flat[3] *= 1.5
        with pytest.raises(ValueError, match="^preconditioner is not the root"):
            recover(RecoveryMap(kernel, MeasurementOperator(pts, L)), U, pts)

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
        kernel = ScalarKernel.gaussian(0.4)  # this Gram's condition is 7e9: its root passes the check
        rmap = RecoveryMap(kernel, MeasurementOperator(pts, cholesky_preconditioner(kernel, pts)))
        U = rng.normal(size=7)
        queries = rng.uniform(0, 1, size=(9, 1))
        W = recovery_weights(rmap, queries)
        np.testing.assert_allclose(W @ U, recover(rmap, U, queries).values, atol=1e-11)

    @pytest.mark.parametrize("preconditioned", [False, True], ids=["identity", "preconditioned"])
    def test_on_grid_weights_are_the_weights_at_the_map_points(self, preconditioned):
        rng = np.random.default_rng(15)
        pts = rng.uniform(0, 1, size=(7, 1))
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=0.3)
        L = cholesky_preconditioner(kernel, pts) if preconditioned else None
        rmap = RecoveryMap(kernel, MeasurementOperator(pts, L))
        R = rng.normal(size=(7, 3))
        W = recovery_weights(rmap, pts)
        np.testing.assert_allclose(on_grid_weights(rmap, R), W @ R, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(on_grid_weights(rmap, R[:, 0]), W @ R[:, 0], rtol=1e-10, atol=1e-12)

    def test_batched_coefficients_and_cached_root(self, monkeypatch):
        rng = np.random.default_rng(14)
        pts = rng.uniform(0, 1, size=(9, 1))
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=0.3)
        L = cholesky_preconditioner(kernel, pts)
        rmap = RecoveryMap(kernel, MeasurementOperator(pts, L))
        checks = []  # the root check is the one QuerySet.evaluate call: K L x at the map's points
        real = QuerySet.evaluate
        monkeypatch.setattr(QuerySet, "evaluate", lambda *a: checks.append(1) or real(*a))
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
        assert checks == [1] and vars(rmap)["_root"] is L and "_factor" not in vars(rmap)


class TestTriangularSolves:
    """Recovery solves are two triangular solves on the cached factor, which is
    never scanned: many columns give the bits of cho_solve, the right-hand
    sides are checked instead, and a failed solve is a FactorizationError. A
    preconditioned map recovers by products with its root L and builds no factor."""

    @staticmethod
    def map_and_rows(preconditioned, seed=16):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(30, 2))
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=0.4)
        L = cholesky_preconditioner(kernel, pts) if preconditioned else None
        rmap = RecoveryMap(kernel, MeasurementOperator(pts, L))
        return rmap, rng.normal(size=(5, 30)), rng.uniform(0, 1, size=(11, 2))

    @pytest.mark.parametrize("preconditioned", [False, True], ids=["identity", "preconditioned"])
    def test_many_columns_are_bitwise_cho_solve(self, preconditioned):
        rmap, U, q = self.map_and_rows(preconditioned)
        kq, L = gram(rmap.kernel, q, rmap.measurement.points), rmap.measurement.preconditioner
        if preconditioned:
            assert np.array_equal(rmap.coefficients(U), L @ U.T)
            assert np.array_equal(recovery_weights(rmap, q), kq @ L)
            assert np.array_equal(on_grid_weights(rmap, U.T), gram(rmap.kernel, rmap.measurement.points) @ (L @ U.T))
            assert "_factor" not in vars(rmap)
        else:
            assert np.array_equal(rmap.coefficients(U), cho_solve(rmap._factor, U.T))
            assert np.array_equal(recovery_weights(rmap, q), cho_solve(rmap._factor, kq.T).T)

    @pytest.mark.parametrize("preconditioned", [False, True], ids=["identity", "preconditioned"])
    def test_non_finite_measurement_rejected_before_factorizing(self, preconditioned):
        rmap, U, q = self.map_and_rows(preconditioned)
        for bad in (np.nan, np.inf):
            row = U[0].copy()
            row[3] = bad
            with pytest.raises(ValueError, match="^measurement vector must be finite$"):
                recover(rmap, row, q)
            with pytest.raises(ValueError, match="^measurement vector must be finite$"):
                rmap.coefficients(np.vstack([U, row]))
        assert not {"_factor", "_root"} & vars(rmap).keys()

    def test_non_finite_on_grid_right_hand_side_rejected(self):
        rmap, U, _ = self.map_and_rows(False)
        R = U.T.copy()
        R[0, 1] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            on_grid_weights(rmap, R)

    def test_singular_factor_raises_factorization_error(self):
        rmap, U, q = self.map_and_rows(False)
        c, lower = rmap._factor
        c = c.copy()
        c[7, 7] = 0.0
        vars(rmap)["_factor"] = (c, lower)  # a zero pivot: LAPACK reports info = 8
        with pytest.raises(FactorizationError, match="info=8"):
            recover(rmap, U[0], q)
        with pytest.raises(FactorizationError, match="info=8"):
            recovery_weights(rmap, q)


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
    """QuerySet.evaluate on q at the lattice threshold given, then on each column
    of C alone, then with the lattice path off; and whether the batch took the
    lattice path (which builds no cross Gram)."""
    calls = []
    real = recovery.gram
    monkeypatch.setattr(recovery, "gram", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", threshold)
    fast = QuerySet(rmap, q).evaluate(C)
    took_lattice = not calls
    singles = np.column_stack([QuerySet(rmap, q).evaluate(c) for c in C.T])
    monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", np.inf)
    return fast, singles, QuerySet(rmap, q).evaluate(C), took_lattice


def matern(h):
    return ScalarKernel.matern(nu=2.5, lengthscale=2.0 * h)


def dense_root(kernel, pts, nugget=None):
    """(G + nugget I)^-1/2 from one eigh of the whole matrix, symmetrized."""
    G = gram(kernel, pts)
    w, V = np.linalg.eigh(G + recovery.resolve_nugget(kernel, pts, nugget) * np.eye(len(G)))
    L = (V * (1.0 / np.sqrt(w))) @ V.T
    return 0.5 * (L + L.T)


def eigh_sizes(monkeypatch) -> list:
    """A list that gets the order of every matrix np.linalg.eigh decomposes."""
    sizes, real = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A, *a: sizes.append(len(A)) or real(A, *a))
    return sizes


def lattice(*counts):
    return tensor_points(*[np.linspace(0.0, 1.0, m) for m in counts])


def criterion_8_sets():
    rng = np.random.default_rng(800)  # the random sets of acceptance criterion 8
    for trial in range(20):
        n, d = int(rng.integers(2, 25)), int(rng.integers(2, 4))
        while True:
            pts = rng.uniform(0, 2, size=(n, d))
            if pdist(pts).min() >= 0.15:
                break
        kernel = [ScalarKernel.matern(nu=2.5, lengthscale=0.7), ScalarKernel.matern(nu=1.5, lengthscale=1.0),
                  ScalarKernel.rq(lengthscale=0.8, alpha=1.0)][trial % 3]
        yield kernel, pts, 1e-13
        rng.normal(size=n)


def one_block_sets():
    pts = lattice(8, 7)
    jittered = pts + 1e-6 * np.random.default_rng(3).uniform(-1.0, 1.0, pts.shape)
    yield ScalarKernel.matern(nu=2.5, lengthscale=0.3), jittered, None
    yield ScalarKernel.linear(), pts, 1e-3
    yield ScalarKernel.gaussian(1.0), [[0.3, 0.4]], None


class TestParityBlocks:
    """On a lattice a stationary kernel's matrix splits into 2^d parity blocks,
    and L is built from one eigh of each; every other set is one block, whose L
    is bitwise the dense formula."""

    @pytest.mark.parametrize("kernel_of_step", [lambda h: ScalarKernel.matern(nu=2.5, lengthscale=2.0 * h),
                                                lambda h: ScalarKernel.gaussian(lengthscale=h),
                                                lambda h: ScalarKernel.rq(lengthscale=h, alpha=1.5)],
                             ids=["matern2.5", "gaussian", "rq"])
    @pytest.mark.parametrize("counts, blocks", [
        ((41,), [21, 20]), ((40,), [20, 20]), ((29, 29), [225, 210, 210, 196]),
        ((8, 7), [16, 12, 16, 12]), ((2, 5), [3, 2, 3, 2]),
    ], ids=["41", "40", "29x29", "8x7", "2x5"])
    def test_lattice_root_matches_a_dense_eigh(self, monkeypatch, kernel_of_step, counts, blocks):
        # lengthscales tied to the finest step, as the default grid kernel's are:
        # condition numbers 10-5e3, so the two roots differ by rounding alone
        pts, kernel = lattice(*counts), kernel_of_step(1.0 / (max(counts) - 1))
        reference = dense_root(kernel, pts)
        sizes = eigh_sizes(monkeypatch)
        L = cholesky_preconditioner(kernel, pts)
        assert sizes == blocks
        assert np.array_equal(L, L.T)
        assert np.abs(L - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("kernel, pts, nugget", [*criterion_8_sets(), *one_block_sets()],
                             ids=[*(f"criterion8-{i}" for i in range(20)), "jittered", "linear", "one-point"])
    def test_one_block_is_bitwise_the_dense_formula(self, monkeypatch, kernel, pts, nugget):
        sizes = eigh_sizes(monkeypatch)
        L = cholesky_preconditioner(kernel, pts, nugget=nugget)
        assert sizes == [len(L)]
        assert np.array_equal(L, dense_root(kernel, pts, nugget))

    def test_lattice_moved_by_ulps_takes_the_parity_path_and_passes_the_root_check(self, monkeypatch):
        pts = lattice(12, 9)
        pts[[5, 40, 77]] += 4 * np.finfo(float).eps * np.array([[1.0, -1.0], [-1.0, 0.0], [0.0, 1.0]])
        assert recovery._lattice_of(pts) is not None and not np.array_equal(pts, lattice(12, 9))
        kernel = ScalarKernel.matern(nu=2.5, lengthscale=0.2)
        sizes = eigh_sizes(monkeypatch)
        L = cholesky_preconditioner(kernel, pts)
        assert sizes == [30, 24, 30, 24]
        monkeypatch.undo()
        rmap = RecoveryMap(kernel, MeasurementOperator(pts, L))
        assert rmap._root is L
        assert np.abs(L - dense_root(kernel, pts)).max() <= 1e-12 * np.abs(L).max()

    @pytest.mark.parametrize("block", range(4))
    def test_nonpositive_eigenvalue_in_any_block_advises_a_larger_nugget(self, monkeypatch, block):
        calls, real = [], np.linalg.eigh

        def eigh(A):  # the given block loses its smallest eigenvalue
            w, V = real(A)
            if len(calls) == block:
                w[0] = -1e-17
            calls.append(1)
            return w, V

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(FactorizationError, match=r"nonpositive eigenvalue -1\.000e-17 .*increase the nugget"):
            cholesky_preconditioner(ScalarKernel.matern(nu=2.5, lengthscale=0.2), lattice(6, 5))
        assert len(calls) == block + 1

    def test_singular_lattice_matrix_advises_a_larger_nugget(self):
        with pytest.raises(FactorizationError, match="nonpositive eigenvalue.*increase the nugget"):
            cholesky_preconditioner(ScalarKernel.gaussian(lengthscale=2.0), lattice(12, 12), nugget=0.0)


class TestLattice:
    """QuerySet.evaluate on lattice query sets convolves by FFT; it must agree
    with the blocked dense path to 1e-13 of each column, bitwise for one column
    alone or in a batch, and fall back bitwise wherever a condition fails."""

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

    @pytest.mark.parametrize("dim, n, crossover", [(2, 29, 138), (1, 1000, None)], ids=["darcy", "1d-1000"])
    def test_columns_past_the_crossover_take_the_blocked_path(self, monkeypatch, dim, n, crossover):
        # darcy's cell centres on its 29x29 grid convolve up to 138 columns of C, then
        # the blocked product is cheaper; on a 1-D lattice the FFTs stay cheaper at
        # any column count; the rule is read on every call
        rmap, h, _ = lattice_map(matern, dim, "none", n)
        qs = recovery.QuerySet(rmap, tensor_points(*[0.5 * h + np.arange(n - 1) * h] * dim))
        if crossover is None:
            assert qs.lattice_pair(10**6) is not None
        else:
            assert qs.lattice_pair(crossover) is not None and qs.lattice_pair(crossover + 1) is None
            monkeypatch.setattr(recovery, "LATTICE_FFT_COST", 0.5 * recovery.LATTICE_FFT_COST)
            assert qs.lattice_pair(crossover + 1) is not None
        assert qs.lattice_pair(1) is not None
        monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", np.inf)
        assert qs.lattice_pair(1) is None

    def test_darcy_cell_centres_convolve_120_columns_and_not_198(self):
        # timed cold at 1 BLAS thread: 120 columns 9.1-9.4 ms convolved against
        # 10.6 blocked, 198 columns 15.0-20.1 convolved against 10.4-12.1 blocked
        rmap, h, _ = lattice_map(matern, 2, "none", 29)
        centres = 0.5 * h + np.arange(28) * h
        qs = recovery.QuerySet(rmap, tensor_points(centres, centres))
        assert qs.lattice_pair(120) is not None and qs.lattice_pair(198) is None


def dense_solve(rmap, Y):
    """G^-1 Y from one dense cho_factor of G and two dtrtrs calls on it."""
    pts = rmap.measurement.points
    c, _ = cho_factor(gram(rmap.kernel, pts) + rmap.nugget * np.eye(len(pts)), lower=True)
    X, info = dtrtrs(c, Y, lower=1)
    X, info2 = dtrtrs(c, X, lower=1, trans=1)
    assert info == info2 == 0
    return X, c


def dense_norms(c, nugget):
    """The closed-form on-grid norms from the dense factor c, by its dpotri inverse."""
    inv, info = dpotri(c, lower=1)
    assert info == 0
    T = np.tril(inv)
    T *= T
    sq = 1.0 - 2.0 * nugget * np.diag(inv) + nugget * nugget * (T.sum(axis=0) + T.sum(axis=1) - np.diag(T))
    return np.sqrt(np.clip(sq, 0.0, None))


def owned_bytes(arrays) -> int:
    """Bytes of the distinct buffers that the arrays view."""
    roots = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        roots[id(a)] = a.nbytes
    return sum(roots.values())


class TestParityFactor:
    """On a lattice of at least PARITY_MIN_POINTS points a stationary kernel's G
    is factorized by its parity blocks, and every solve and the closed-form norms
    go through them; any other map is one block, bitwise the dense factor."""

    KERNELS = [lambda h: ScalarKernel.matern(nu=2.5, lengthscale=2.0 * h),
               lambda h: ScalarKernel.gaussian(lengthscale=h),
               lambda h: ScalarKernel.rq(lengthscale=h, alpha=1.5)]

    @pytest.mark.parametrize("kernel_of_step", KERNELS, ids=["matern2.5", "gaussian", "rq"])
    @pytest.mark.parametrize("counts, blocks", [
        ((41,), [21, 20]), ((40,), [20, 20]), ((29, 29), [225, 210, 210, 196]),
        ((8, 7), [16, 12, 16, 12]), ((2, 5), [3, 2, 3, 2]),
    ], ids=["41", "40", "29x29", "8x7", "2x5"])
    def test_parity_solve_matches_the_dense_solve(self, monkeypatch, kernel_of_step, counts, blocks):
        monkeypatch.setattr(recovery, "PARITY_MIN_POINTS", 1)
        pts = lattice(*counts)
        rmap = RecoveryMap(kernel_of_step(1.0 / (max(counts) - 1)), MeasurementOperator(pts))
        c, lower = rmap._factor
        assert rmap._parity.flips and lower and [len(b) for b in c] == blocks
        Y = np.random.default_rng(34).normal(size=(3, len(pts))).T  # F-ordered columns, as callers pass
        want, _ = dense_solve(rmap, Y)
        column = recovery._gram_solve(rmap, Y[:, 1].copy())
        for got, ref in ((recovery._gram_solve(rmap, Y), want), (column, want[:, 1]), (rmap.coefficients(Y.T), want)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("kernel_of_step", KERNELS, ids=["matern2.5", "gaussian", "rq"])
    @pytest.mark.parametrize("counts", [(41,), (40,), (29, 29), (8, 7), (2, 5)],
                             ids=["41", "40", "29x29", "8x7", "2x5"])
    def test_on_grid_norms_match_the_dense_closed_form(self, monkeypatch, kernel_of_step, counts):
        # a nugget of 1e-2 moves every norm off 1 by more than 1e-3, so the diagonal
        # and row terms of every parity block are both tested
        monkeypatch.setattr(recovery, "PARITY_MIN_POINTS", 1)
        pts = lattice(*counts)
        rmap = RecoveryMap(kernel_of_step(1.0 / (max(counts) - 1)), MeasurementOperator(pts), nugget=1e-2)
        _, c = dense_solve(rmap, np.zeros(len(pts)))
        want = dense_norms(c, rmap.nugget)
        assert np.abs(1.0 - want).min() >= 1e-3
        got = on_grid_norms(rmap)
        assert rmap._parity.flips
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("case", ["random", "linear", "below-the-rule", "jittered"])
    def test_one_block_is_bitwise_the_dense_factor(self, monkeypatch, case):
        pts, kernel = lattice(20, 20), ScalarKernel.matern(nu=2.5, lengthscale=0.1)
        if case != "below-the-rule":  # 400 points: one block at the default rule
            monkeypatch.setattr(recovery, "PARITY_MIN_POINTS", 1)
        if case == "random":
            pts = np.random.default_rng(35).uniform(0.0, 1.0, size=(60, 2))
        elif case == "linear":
            kernel = ScalarKernel.linear()
        elif case == "jittered":
            pts = pts + 1e-6 * np.random.default_rng(36).uniform(-1.0, 1.0, pts.shape)
        rmap = RecoveryMap(kernel, MeasurementOperator(pts), nugget=1e-3)
        Y = np.random.default_rng(37).normal(size=(4, len(pts))).T
        want, c_dense = dense_solve(rmap, Y)
        c, lower = rmap._factor
        assert not rmap._parity.flips and lower
        assert np.array_equal(c, c_dense)
        assert np.array_equal(rmap.coefficients(Y.T), want)
        assert np.array_equal(recovery._gram_solve(rmap, Y[:, 0].copy()), dense_solve(rmap, Y[:, 0].copy())[0])
        assert np.array_equal(on_grid_norms(rmap), dense_norms(c_dense, rmap.nugget))

    @pytest.mark.parametrize("block", range(4))
    def test_nonpositive_pivot_in_any_block_advises_a_larger_nugget(self, monkeypatch, block):
        monkeypatch.setattr(recovery, "PARITY_MIN_POINTS", 1)
        calls, real = [], recovery.cho_factor

        def cho_factor(a, **kw):  # the given block gets a nonpositive leading pivot
            if len(calls) == block:
                a[0, 0] = -1.0
            calls.append(1)
            return real(a, **kw)

        monkeypatch.setattr(recovery, "cho_factor", cho_factor)
        rmap = RecoveryMap(ScalarKernel.matern(nu=2.5, lengthscale=0.2), MeasurementOperator(lattice(6, 5)))
        message = r"^kernel matrix is numerically singular even after adding nugget=1\.000e-10; increase the nugget$"
        with pytest.raises(FactorizationError, match=message):
            recover(rmap, np.ones(30), rmap.measurement.points)
        assert len(calls) == block + 1 and "_factor" not in vars(rmap)

    def test_darcy_grid_keeps_a_quarter_of_the_dense_factor(self):
        # the default grid kernel on darcy's 29x29 grid: four blocks of 225, 210,
        # 210 and 196 points, 177,241 floats against 707,281 for the dense factor
        from odlearn.operator import default_grid_kernel

        pts = lattice(29, 29)
        rmap = RecoveryMap(default_grid_kernel(pts), MeasurementOperator(pts))
        assert len(pts) >= recovery.PARITY_MIN_POINTS and rmap._parity.flips
        c, _ = rmap._factor
        assert [b.shape for b in c] == [(225, 225), (210, 210), (210, 210), (196, 196)]
        assert owned_bytes(c) == 8 * 177_241 <= 8 * 1.005 * len(pts) ** 2 / 4

    def test_size_rule_keeps_burgers_and_advection_dense_and_splits_darcy(self):
        assert 200 < recovery.PARITY_MIN_POINTS <= 841


@pytest.mark.parametrize("preconditioner", ["none", "cholesky"])
@pytest.mark.parametrize("dim, n", [(1, 12), (2, 6)])
def test_closed_form_on_grid_norms_match_an_mpmath_reference(dim, n, preconditioner):
    # |w_y| on the map's own grid, W = K G^-1 without a preconditioner and K L with
    # the map's own root, whose W W^T is K G^-1 K; the reference takes the kernel
    # values as given and inverts G in 40 digits. Measured: 1.1e-16 and 0 relative,
    # against up to 1.5e-14 for the row norms of recovery_weights
    mpmath = pytest.importorskip("mpmath")
    rmap, _, _ = lattice_map(matern, dim, preconditioner, n)
    grid = rmap.measurement.points
    with mpmath.workdps(40):
        K = mpmath.matrix(gram(rmap.kernel, grid).tolist())
        G_inv = (K + rmap.nugget * mpmath.eye(len(grid))) ** -1
        W = K * G_inv
        M = W * W.T if preconditioner == "none" else W * K
        reference = np.array([float(mpmath.sqrt(M[i, i])) for i in range(len(grid))])
    closed = on_grid_norms(rmap)
    assert np.abs(closed - reference).max() <= 1e-15 * reference.max()
    built = np.linalg.norm(recovery_weights(rmap, grid), axis=1)
    assert np.abs(closed - built).max() <= 1e-13 * reference.max()


def _longdouble_cholesky(A):
    """The lower Cholesky factor of a symmetric positive definite matrix, in np.longdouble."""
    A = np.asarray(A, dtype=np.longdouble)
    C = np.zeros_like(A)
    for j in range(len(A)):
        C[j, j] = np.sqrt(A[j, j] - C[j, :j] @ C[j, :j])
        C[j + 1:, j] = (A[j + 1:, j] - C[j + 1:, :j] @ C[j, :j]) / C[j, j]
    return C


def _longdouble_spd_solve(A, B):
    """A^-1 B for symmetric positive definite A, by forward and back substitution
    on ``_longdouble_cholesky(A)``."""
    C, Y = _longdouble_cholesky(A), np.array(B, dtype=np.longdouble)
    for i in range(len(C)):
        Y[i] = (Y[i] - C[i, :i] @ Y[:i]) / C[i, i]
    for i in reversed(range(len(C))):
        Y[i] = (Y[i] - C[i + 1:, i] @ Y[i + 1:]) / C[i, i]
    return Y


@pytest.mark.parametrize("min_entries", [recovery.LATTICE_MIN_ENTRIES, 0], ids=["dense", "lattice"])
def test_preconditioned_recovery_matches_an_extended_precision_reference(monkeypatch, min_entries):
    # recovering through L alone must stay near K G^-1 L^-1 v, taken in extended
    # precision with L and G factorized there (L is symmetric positive definite);
    # at LATTICE_MIN_ENTRIES 0 the root check's product with K on the grid and the
    # product off it convolve, and the on-grid weights take the blocked product
    monkeypatch.setattr(recovery, "LATTICE_MIN_ENTRIES", min_entries)
    convolved, real = [], recovery._convolve
    monkeypatch.setattr(recovery, "_convolve", lambda *a: convolved.append(1) or real(*a))
    rmap, h, U = lattice_map(matern, 1, "cholesky", 60)
    grid, L = rmap.measurement.points, rmap.measurement.preconditioner
    q = grid[:-1] + 0.5 * h  # off the grid
    G = gram(rmap.kernel, grid).astype(np.longdouble) + np.longdouble(rmap.nugget) * np.eye(len(grid))
    c = _longdouble_spd_solve(G, _longdouble_spd_solve(L, U.T))
    C = rmap.coefficients(U)
    for got, want in ((C, c), (on_grid_weights(rmap, U.T), gram(rmap.kernel, grid) @ c),
                      (QuerySet(rmap, q).evaluate(C), gram(rmap.kernel, q, grid) @ c)):
        rms = np.sqrt(np.mean(want * want))
        assert np.abs(got - want).max() <= 1e-12 * rms
    assert len(convolved) == (2 if min_entries == 0 else 0)
