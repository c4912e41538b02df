"""One pass of a workload: the CLI pipeline and a serving schedule, with output checks.

A pass is a closed loop with one client. It first runs ``odlearn generate``,
``odlearn train`` and ``odlearn eval --with-uq --flops``, each called
in-process through ``odlearn.cli.main(argv)``, to make the dataset and the
model. Then it runs the schedule once, and goes on repeating it until serving
has lasted the requested seconds: ``operator.load_model`` and
``operator.apply_batch`` over the test split, then blocks of single-sample requests with the remaining
repetitions of every operation spread evenly between them.

Every operation is timed on its own and counted as attempted; it fails on an
exception, a non-zero CLI exit or a failed output check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from odlearn import cli, operator
from odlearn.data import load_dataset
from odlearn.recovery import FunctionSamples

from workloads import Workload

KINDS = ("apply", "offgrid", "uq")
# end-to-end metric prefix of each request kind
KIND_METRIC = {"apply": "apply", "offgrid": "apply_offgrid", "uq": "uq"}
APPLY_RTOL = 1e-10       # single apply vs the matching apply_batch row
BURGERS_MEAN_TOL = 1e-8  # Burgers conserves the spatial mean
TIMED_OPS = ("generate", "train", "eval", "load", "batch") + KINDS
END_TO_END = (
    "setup_s", "generate_s", "train_s", "eval_s", "load_ms", "batch_samples_per_s",
    "apply_p50_ms", "apply_p90_ms", "apply_offgrid_p50_ms", "apply_offgrid_p90_ms",
    "uq_p50_ms", "uq_p90_ms", "peak_rss_mb",
)


class Abort(Exception):
    """An operation the rest of the pass depends on failed."""


FAILED = object()  # what Pass.timed returns for a failed operation


def build_schedule(wl: Workload, seed: int) -> list[tuple[str, int]]:
    """The serving schedule: a load and a batch, then blocks of single-sample
    requests, with the remaining repetitions of every operation spread evenly
    between the blocks.

    Block k holds one request of each kind on test input k mod n_test, in an
    order drawn from the workload seed. Blocks keep the kinds evenly
    interleaved whatever the seed, so that how often a cheap request follows
    an expensive one does not vary from seed to seed. Spreading the repeated
    operations over the schedule samples each at different times, so that a
    short stall of the machine slows a few samples rather than all of them.
    """
    rng = np.random.default_rng(seed)
    blocks = [
        [(KINDS[j], k % wl.n_test) for j in rng.permutation(len(KINDS))]
        for k in range(wl.requests_per_kind)
    ]
    counts = {"generate": wl.gen_reps, "train": wl.train_reps, "eval": wl.eval_reps,
              "load": wl.load_reps, "batch": wl.batch_reps}
    # the schedule opens with the first load and batch, and the pass with the
    # first generate, train and eval; further repetition i of m sits (i + 1/2) / m of the way
    extras = sorted(((i + 0.5) / (n - 1), op) for op, n in counts.items() for i in range(n - 1))
    at = defaultdict(list)
    for position, op in extras:
        at[int(position * len(blocks))].append((op, 0))
    schedule = [("load", 0), ("batch", 0)]
    for k, block in enumerate(blocks):
        schedule += at[k] + block
    return schedule


def offgrid_points(grid: np.ndarray) -> np.ndarray:
    """Midpoints of a uniform 1-D grid, or the cell centres of a tensor 2-D grid.

    None of them is an output grid point, so a cache keyed to the model's own
    output grid cannot serve them.
    """
    if grid.shape[1] == 1:
        x = grid[:, 0]
        return (x + 0.5 * (x[1] - x[0]))[:, None]
    xs, ys = np.unique(grid[:, 0]), np.unique(grid[:, 1])
    cx, cy = 0.5 * (xs[1:] + xs[:-1]), 0.5 * (ys[1:] + ys[:-1])
    xx, yy = np.meshgrid(cx, cy, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def single(wl: Workload) -> Workload:
    """The workload with one repetition of every operation, for traced passes."""
    return replace(wl, gen_reps=1, train_reps=1, eval_reps=1, load_reps=1, batch_reps=1)


class Pass:
    """One pass of a workload, with its samples, failures and checks."""

    def __init__(self, wl: Workload, seed: int, schedule, workdir: Path, tracer=None) -> None:
        self.wl = wl
        self.seed = seed
        self.schedule = schedule
        self.data_dir = workdir / "data"
        self.model_dir = workdir / "model"
        self.report_path = workdir / "report.json"
        self.config_path = workdir / "train.json"
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rel_l2: float | None = None
        self.model_bytes = 0
        self.worst_row_rel = 0.0

    # -- bookkeeping ------------------------------------------------------

    def fail(self, op: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op}: {message}")

    def check(self, op: str, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(op, message)
        return ok

    def timed(self, op: str, fn, *args):
        """Run one operation; returns its result, or FAILED after recording a failure."""
        self.attempted += 1
        span = self.tracer.span(op, op=self.attempted) if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - any failure is counted, the loop goes on
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return FAILED
        self.samples[op].append(time.perf_counter() - t0)
        return result

    def must(self, op: str, fn, *args):
        result = self.timed(op, fn, *args)
        if result is FAILED:
            raise Abort(op)
        return result

    @staticmethod
    def odlearn(*argv) -> None:
        """`odlearn <argv>` in-process, its output kept off the result stream."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"odlearn {argv[0]} exited with {code}")

    # -- the pass -----------------------------------------------------------

    def generate(self):
        wl = self.wl
        self.must("generate", self.odlearn, "generate", wl.problem, "--train", wl.n_train, "--test",
                  wl.n_test, "--grid", wl.grid, "--seed", self.seed, "--out", self.data_dir)
        ds = load_dataset(self.data_dir)
        self.check_dataset(ds)
        return ds

    def train(self) -> None:
        self.must("train", self.odlearn, "train", "--config", self.config_path)
        self.model_bytes = sum(f.stat().st_size for f in self.model_dir.iterdir())

    def eval(self) -> None:
        self.must("eval", self.odlearn, "eval", self.model_dir, self.data_dir,
                  "--report", self.report_path, "--with-uq", "--flops")
        self.check_report(json.loads(self.report_path.read_text()))

    def run(self, seconds: float) -> None:
        """The pipeline once, then the schedule once and again until serving has lasted ``seconds``.

        The deadline is checked between operations, so a run lasts the pipeline
        plus the longer of one schedule and ``seconds``."""
        self.config_path.write_text(json.dumps(self.wl.train_config(str(self.data_dir), str(self.model_dir))))
        try:
            ds = self.generate()  # later regenerations write the same data
            self.train()
            self.eval()
            offgrid = offgrid_points(ds.output_grid)
            deadline = time.perf_counter() + seconds
            self.serve(ds, offgrid)
            while time.perf_counter() < deadline:
                self.serve(ds, offgrid, deadline)
        except Abort:
            pass

    def serve(self, ds, offgrid: np.ndarray, deadline: float = math.inf) -> None:
        """One pass over the schedule, cut short at ``deadline``. Requests are served
        by the schedule's first model; later loads are timed only. Retraining
        writes the same model."""
        grid, out_grid = ds.input_grid, ds.output_grid
        model = batch = None
        calls = {
            "apply": lambda x: operator.apply(model, FunctionSamples(grid, x), out_grid),
            "offgrid": lambda x: operator.apply(model, FunctionSamples(grid, x), offgrid),
            "uq": lambda x: operator.apply_with_uq(model, FunctionSamples(grid, x), out_grid),
        }
        pipeline = {"generate": self.generate, "train": self.train, "eval": self.eval}
        applied, uq_means = {}, {}
        for kind, i in self.schedule:
            if time.perf_counter() >= deadline:
                break
            if kind in pipeline:
                pipeline[kind]()
                continue
            if kind == "load":
                loaded = self.must("load", operator.load_model, self.model_dir)
                model = model or loaded
                continue
            if kind == "batch":
                out = self.must("batch", operator.apply_batch, model, ds.test_inputs, out_grid)
                if not self.check("batch", out.shape == ds.test_outputs.shape and np.isfinite(out).all(),
                                  f"apply_batch returned shape {out.shape} or non-finite values"):
                    raise Abort("batch")
                if batch is None:
                    batch = out
                    scale = float(np.sqrt(np.mean(np.sum(batch * batch, axis=1))))  # RMS row norm
                continue
            result = self.timed(kind, calls[kind], ds.test_inputs[i])
            if result is FAILED:
                continue
            if kind == "offgrid":
                self.check(kind, result.values.shape == (offgrid.shape[0],) and np.isfinite(result.values).all(),
                           "off-grid values not finite")
            elif kind == "apply":
                applied[i] = result.values
                self.check_close(kind, result.values, batch[i], scale, "its apply_batch row")
            else:
                mean, std = result
                uq_means[i] = mean.values
                self.check(kind, std.values.shape == batch[i].shape and np.isfinite(std.values).all()
                           and (std.values >= 0).all(), "std not finite and >= 0")
        # both kinds cycle over the same test indices, so every uq input also had an apply
        for i, mean in uq_means.items():
            if i in applied:
                self.check_close("uq", mean, applied[i], scale, "apply on the same input")

    # -- output checks ------------------------------------------------------

    def check_dataset(self, ds) -> None:
        if self.wl.problem == "burgers":
            drift = max(
                float(np.abs(outs.mean(axis=1) - ins.mean(axis=1)).max())
                for ins, outs in ((ds.train_inputs, ds.train_outputs), (ds.test_inputs, ds.test_outputs))
            )
            self.check("generate", drift <= BURGERS_MEAN_TOL, f"Burgers mean drift {drift:.3e}")
        else:
            g = self.wl.grid
            outs = np.vstack([ds.train_outputs, ds.test_outputs]).reshape(-1, g, g)
            self.check("generate", bool((outs[:, 1:-1, 1:-1] > 0).all()), "Darcy interior not positive")

    def check_report(self, report: dict) -> None:
        err = report.get("mean_relative_l2")
        if not self.check("eval", isinstance(err, float) and math.isfinite(err), f"rel_l2 {err!r}"):
            return
        self.rel_l2 = err
        self.check("eval", err <= self.wl.rel_l2_gate,
                   f"rel_l2 {err:.4f} above the gate {self.wl.rel_l2_gate}")
        uq = report.get("uq", {})
        self.check("eval", math.isfinite(uq.get("max_std", math.nan)) and uq.get("mean_std", -1.0) >= 0,
                   f"uq section {uq!r}")
        self.check("eval", report.get("flops", {}).get("per_query_flops", 0) > 0, "no flops section")

    def check_close(self, op: str, value, reference, scale: float, what: str) -> None:
        """Agreement to APPLY_RTOL relative to the output scale: the larger of the
        reference row's norm and the batch's RMS row norm.

        Single and batched apply contract the same ill-conditioned recovery solve
        in different orders. A test output whose norm is far below the batch's
        (a Burgers state that has decayed to near zero) would turn that rounding
        into a failure of a purely row-relative check; the worst row-relative
        difference is still recorded, as ``worst_row_rel``.
        """
        err = float(np.linalg.norm(value - reference))
        norm = float(np.linalg.norm(reference))
        self.worst_row_rel = max(self.worst_row_rel, err / norm if norm > 0 else math.inf)
        self.check(op, err <= APPLY_RTOL * max(norm, scale), f"differs from {what} by {err:.2e}")

    # -- metrics --------------------------------------------------------------

    def medians(self) -> dict[str, float]:
        return {op: statistics.median(v) for op, v in self.samples.items() if v}

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        med = self.medians()
        m: dict[str, tuple[float, str]] = {}
        for op in ("generate", "train", "eval"):
            if op in med:
                m[f"{op}_s"] = (med[op], "s")
        if "load" in med:
            m["load_ms"] = (1e3 * med["load"], "ms")
        if "batch" in med:
            m["batch_samples_per_s"] = (self.wl.n_test / med["batch"], "1/s")
        for kind in KINDS:
            ms = 1e3 * np.asarray(self.samples[kind])
            if ms.size:
                p50, p90 = np.percentile(ms, [50, 90])
                m[f"{KIND_METRIC[kind]}_p50_ms"] = (float(p50), "ms")
                m[f"{KIND_METRIC[kind]}_p90_ms"] = (float(p90), "ms")
        return m


def overhead(plain: Pass, traced: Pass) -> dict[str, tuple[float, str]]:
    """Traced minus untraced time, as a share of untraced, per operation and in total."""
    a, b = plain.medians(), traced.medians()
    ops = [op for op in TIMED_OPS if op in a and op in b]
    m = {f"trace.overhead_frac.{op}": (b[op] / a[op] - 1.0, "1") for op in ops}
    total_a = sum(sum(plain.samples[op]) for op in ops)
    total_b = sum(sum(traced.samples[op]) for op in ops)
    m["trace.overhead_frac"] = (total_b / total_a - 1.0 if total_a else 0.0, "1")
    return m
