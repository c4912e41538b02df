"""Synthetic dataset generation and the ODL dataset container."""

from .container import Dataset, load_dataset, manifest_sha256, save_dataset
from .fields import GaussianFieldSpec, sample_field_matrix
from .problems import (
    GENERATORS,
    gen_advection1,
    gen_advection2,
    gen_burgers,
    gen_darcy,
    solve_burgers,
    solve_darcy,
)

__all__ = [
    "Dataset",
    "GaussianFieldSpec",
    "GENERATORS",
    "gen_advection1",
    "gen_advection2",
    "gen_burgers",
    "gen_darcy",
    "load_dataset",
    "manifest_sha256",
    "sample_field_matrix",
    "save_dataset",
    "solve_burgers",
    "solve_darcy",
]
