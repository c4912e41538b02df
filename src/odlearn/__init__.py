"""odlearn: kernel / Gaussian-process operator learning between function spaces.

Learn maps between function spaces from sampled input/output pairs by
composing pointwise measurements, vector-valued kernel ridge regression with a
diagonal operator-valued kernel, and optimal-recovery interpolation back to
functions; with Gaussian-process uncertainty quantification, norm-equalizing
preconditioners, PCA preprocessing, synthetic PDE benchmark generators, and a
cost-accuracy benchmark CLI.
"""

from .errors import (
    DatasetFormatError,
    FactorizationError,
    OdlearnError,
    SolverError,
    UsageError,
)
from .kernels import ScalarKernel
from .metrics import ErrorReport, FlopsReport, count_inference_flops, relative_l2
from .operator import (
    OperatorModel,
    apply,
    apply_batch,
    apply_mesh_invariant,
    apply_with_uq,
    error_bound,
    fit_operator,
    fit_operator_from_features,
    load_model,
    prepare_features,
    save_model,
)
from .preprocess import PcaProjector
from .recovery import FunctionSamples, MeasurementOperator, RecoveryMap, measure, recover

__version__ = "0.1.0"

# The operator-level API. Layer functions (Gram assembly, ridge regression and
# tuning, PCA, recovery weights, preconditioners) live in their modules.
__all__ = [
    "DatasetFormatError",
    "ErrorReport",
    "FactorizationError",
    "FlopsReport",
    "FunctionSamples",
    "MeasurementOperator",
    "OdlearnError",
    "OperatorModel",
    "PcaProjector",
    "RecoveryMap",
    "ScalarKernel",
    "SolverError",
    "UsageError",
    "apply",
    "apply_batch",
    "apply_mesh_invariant",
    "apply_with_uq",
    "count_inference_flops",
    "error_bound",
    "fit_operator",
    "fit_operator_from_features",
    "load_model",
    "measure",
    "prepare_features",
    "recover",
    "relative_l2",
    "save_model",
]
