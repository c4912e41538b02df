"""The point-array contract: every public entry point that takes points reads a
1-D array as n points on a line and rejects an empty or non-finite one with the
same ValueError, because all of them go through ``kernels.as_points``."""

import numpy as np
import pytest

from odlearn import regression
from odlearn.data import Dataset
from odlearn.kernels import ScalarKernel, gram, gram_diag
from odlearn.metrics import quadrature_weights
from odlearn.operator import mesh_lengthscale
from odlearn.recovery import (
    FunctionSamples,
    MeasurementOperator,
    RecoveryMap,
    fill_distance,
    recover,
    recovery_weights,
)

K = ScalarKernel.matern(nu=2.5, lengthscale=0.5)
RMAP = RecoveryMap(K, MeasurementOperator(np.linspace(0.0, 1.0, 5)[:, None]))
LINE = np.array([0.0, 0.3, 0.5, 0.9])  # four points on a line


def _dataset_grids(P):
    blank = np.zeros((2, len(P)))
    ds = Dataset("line", P, P, blank, blank, blank, blank)
    return ds.input_grid, ds.output_grid


def _fit(P):
    model = regression.fit(K, P, P, 1e-6)
    return model.inputs, model.coef


def _recover(P):
    f = recover(RMAP, np.arange(5.0), P)
    return f.grid, f.values


def _outputs(result):
    return result if isinstance(result, tuple) else (result,)


# each takes a point array and returns what it made of it
ENTRY_POINTS = {
    "gram": lambda P: gram(K, P),
    "gram_diag": lambda P: gram_diag(K, P),
    "FunctionSamples": lambda P: FunctionSamples(P, np.zeros(len(P))).grid,
    "MeasurementOperator": lambda P: MeasurementOperator(P).points,
    "recover": _recover,
    "recovery_weights": lambda P: recovery_weights(RMAP, P),
    "fill_distance": lambda P: fill_distance(P, P),
    "mesh_lengthscale": mesh_lengthscale,
    "quadrature_weights": lambda P: quadrature_weights(P, "euclidean"),
    "Dataset": _dataset_grids,
    "regression.fit": _fit,
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_1d_array_is_points_on_a_line(name):
    # array_equal also compares shapes, so returned points are (4, 1) as given
    line, column = (_outputs(ENTRY_POINTS[name](P)) for P in (LINE, LINE[:, None]))
    assert len(line) == len(column) and all(map(np.array_equal, line, column))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_empty_points_rejected(name):
    with pytest.raises(ValueError, match="must be a nonempty list of vectors"):
        ENTRY_POINTS[name](np.array([]))


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_rejected(name, bad):
    with pytest.raises(ValueError, match="contains non-finite coordinates"):
        ENTRY_POINTS[name](np.array([0.0, 0.3, bad, 0.9]))
