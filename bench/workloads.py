"""The benchmark's workloads.

Each workload is one dataset recipe plus one training recipe, run through the
CLI and the serving calls a user makes. The reasons each one is here are in
README.md; in short, ``burgers`` is dominated by the PDE generator,
``darcy`` by dense linear algebra, and ``darcy-cholesky`` exercises the
preconditioned measurement and recovery paths on the same data.

The LML lengthscales are the acceptance recipe (median pairwise distance of the
first 300 training features, times 0.25, 0.5, 1, 2 and 4) evaluated once at
each workload's default seed and frozen here, so that the grid does not move
with the seed and every run tunes over the same candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

LENGTHSCALE_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
GAMMAS = (1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str                  # generator name passed to `odlearn generate`
    n_train: int
    n_test: int
    grid: int
    seed: int                     # default workload seed (the acceptance seed)
    median_distance: float        # median pairwise feature distance at `seed`
    preconditioner: str = "none"
    rel_l2_gate: float = math.inf  # acceptance gate on the test mean relative L2
    # Repetitions in one pass over the serving schedule; medians are reported.
    gen_reps: int = 1
    train_reps: int = 3
    eval_reps: int = 3
    load_reps: int = 3
    batch_reps: int = 5
    requests_per_kind: int = 100

    def train_config(self, dataset_dir: str, model_dir: str) -> dict:
        """The `odlearn train` config: input PCA 0.95 and a 15-entry Matern-5/2 LML grid."""
        grid = [
            {"family": "matern", "nu": 2.5, "lengthscale": self.median_distance * f, "gamma": g}
            for f in LENGTHSCALE_FACTORS
            for g in GAMMAS
        ]
        return {
            "dataset": dataset_dir,
            "preconditioner": self.preconditioner,
            "pca": {"enabled": True, "input_fraction": 0.95},
            "tuning": {"objective": "lml", "grid": grid},
            "output_dir": model_dir,
            "seed": 0,
        }

    def toy(self) -> "Workload":
        """A few-second version of the workload for the smoke test; no accuracy gate."""
        return replace(
            self,
            n_train=24,
            n_test=8,
            grid=32 if self.problem == "burgers" else 9,
            rel_l2_gate=math.inf,
            gen_reps=1,
            train_reps=1,
            eval_reps=1,
            load_reps=1,
            batch_reps=1,
            requests_per_kind=4,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Quarter of the acceptance sample count: generation time is linear in
        # samples and the RK4 step count does not depend on the batch. Its
        # other operations take milliseconds, so they are repeated more.
        Workload("burgers", "burgers", 200, 100, 128, seed=7,
                 median_distance=14.558, rel_l2_gate=0.06, train_reps=30,
                 eval_reps=30, load_reps=50, batch_reps=50, requests_per_kind=500),
        Workload("darcy", "darcy", 500, 100, 29, seed=42,
                 median_distance=27.584, rel_l2_gate=0.10, gen_reps=3,
                 eval_reps=7, load_reps=10, batch_reps=10),
        # 15% relative L2 at the default seed, above the darcy gate; only
        # finiteness is required.
        Workload("darcy-cholesky", "darcy", 500, 100, 29, seed=42,
                 median_distance=35.780, preconditioner="cholesky", gen_reps=3,
                 load_reps=5, batch_reps=6),
    )
}
