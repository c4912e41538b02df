"""Spans for the traced run, recorded from the benchmark's own code.

The program is not instrumented. Instead, each public layer function is
replaced, for the length of the traced pass, at the module attribute its
callers look it up through (``odlearn.regression.gram``, not
``odlearn.kernels.gram``), by a wrapper that opens a span around the call.
Spans are kept in memory and written once, when the run ends.

A span's self time is its duration minus the durations of its direct
children; the benchmark is single-threaded, so children nest inside their
parent and the self times of one operation sum to its wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

from odlearn.metrics import count_inference_flops
from scipy.linalg import LinAlgError

# Span names are "<module>.<function>", with the module path below odlearn.
CLI_OPS = ("generate", "train", "eval")


def _dataset_bytes(ds) -> int:
    return 8 * sum(
        getattr(ds, a).size for a in ("train_inputs", "train_outputs", "test_inputs", "test_outputs")
    )


def _cholesky_flops(args) -> float:
    n = args[0].shape[0]
    return n ** 3 / 3.0


def _apply_batch_flops(args, result) -> float:
    return count_inference_flops(args[0], result.shape[1]).per_query_flops * result.shape[0]


# (module whose attribute is replaced, attribute, span name, counters)
# A counter is (stat, fn(args, result) -> number), summed over calls.
TARGETS = (
    ("odlearn.data.problems", "solve_burgers", "data.problems.solve_burgers",
     (("samples", lambda a, r: len(r)),)),
    ("odlearn.data.problems", "solve_darcy", "data.problems.solve_darcy", ()),
    ("odlearn.data.problems", "sample_field_matrix", "data.fields.sample_field_matrix", ()),
    ("odlearn.cli", "save_dataset", "data.container.save_dataset",
     (("bytes", lambda a, r: _dataset_bytes(a[0])),)),
    ("odlearn.cli", "load_dataset", "data.container.load_dataset",
     (("bytes", lambda a, r: _dataset_bytes(r)),)),
    ("odlearn.operator", "pca_fit", "preprocess.pca_fit", (("k", lambda a, r: r.k),)),
    ("odlearn.regression", "gram", "kernels.gram", (("entries", lambda a, r: r.size),)),
    ("odlearn.recovery", "gram", "kernels.gram", (("entries", lambda a, r: r.size),)),
    ("odlearn.regression", "tune", "regression.tune", ()),
    ("odlearn.regression", "log_marginal_likelihood", "regression.log_marginal_likelihood", ()),
    ("odlearn.regression", "fit", "regression.fit", ()),
    ("odlearn.regression", "cho_factor", "regression.cho_factor",
     (("flops", lambda a, r: _cholesky_flops(a)),)),
    ("odlearn.regression", "predict", "regression.predict", ()),
    ("odlearn.regression", "posterior_variance", "regression.posterior_variance", ()),
    ("odlearn.operator", "MeasurementOperator", "recovery.MeasurementOperator", ()),
    ("odlearn.operator", "RecoveryMap", "recovery.RecoveryMap", ()),
    ("odlearn.recovery", "cho_factor", "recovery.cho_factor",
     (("flops", lambda a, r: _cholesky_flops(a)),)),
    ("odlearn.operator", "cholesky_preconditioner", "recovery.cholesky_preconditioner", ()),
    ("odlearn.operator", "recovery_weights", "recovery.recovery_weights", ()),
    ("odlearn.cli", "recovery_weights", "recovery.recovery_weights", ()),
    ("odlearn.operator", "recover", "recovery.recover", ()),
    ("odlearn.operator", "prepare_features", "operator.prepare_features", ()),
    ("odlearn.operator", "save_model", "operator.save_model", ()),
    ("odlearn.operator", "load_model", "operator.load_model", ()),
    ("odlearn.operator", "apply_batch", "operator.apply_batch", (("flops", _apply_batch_flops),)),
    ("odlearn.metrics", "relative_l2", "metrics.relative_l2", ()),
)


class Tracer:
    """In-memory span recorder. Spans are [id, name, op, parent, start, end, self]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.failures: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # open spans, each with its children's total
        self._op: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        """Open a span; ``op`` marks a root span and tags every span inside it."""
        if op is not None:
            self._op = op
        parent = self._stack[-1][0][0] if self._stack else None
        record = [len(self.spans), name, self._op, parent, time.perf_counter(), None, None]
        self.spans.append(record)
        frame = [record, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()
            duration = record[5] - record[4]
            record[6] = duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if op is not None:
                self._op = None

    def wrap(self, name: str, fn, counters=()):
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except LinAlgError:
                self.failures[name] += 1
                raise
            for stat, count in counters:
                self.counters[f"{name}.{stat}"] += count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target attribute by its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, counters in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counters))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for _, name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        return calls, self_s

    def dump(self, path: Path) -> None:
        fields = ("id", "name", "op", "parent", "start", "end", "self_s")
        with path.open("w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(fields, record))) + "\n")

    def table(self) -> str:
        """Self-time table: one line per span name, largest self time first."""
        calls, self_s = self.totals()
        total = sum(self_s.values()) or 1.0
        lines = [f"{'span':44s} {'calls':>7s} {'self_s':>10s} {'share':>7s}"]
        for name in sorted(self_s, key=self_s.get, reverse=True):
            lines.append(
                f"{name:44s} {calls[name]:7d} {self_s[name]:10.4f} {100 * self_s[name] / total:6.1f}%"
            )
        return "\n".join(lines) + "\n"


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    calls, self_s = tracer.totals()
    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}

    def own(name):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    def count(name):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")

    def rate(name, seconds):
        flops = c.get(f"{name}.flops", 0.0)
        m[f"{name}.gflop_per_s"] = (flops / seconds / 1e9 if seconds > 0 else 0.0, "GFLOP/s")

    burgers = "data.problems.solve_burgers"
    own(burgers)
    samples = c.get(f"{burgers}.samples", 0)
    m[f"{burgers}.ms_per_sample"] = (1e3 * self_s.get(burgers, 0.0) / samples if samples else 0.0, "ms")
    count("data.problems.solve_darcy")
    own("data.problems.solve_darcy")
    own("data.fields.sample_field_matrix")
    own("data.container.save_dataset")
    own("data.container.load_dataset")
    m["data.container.bytes_written"] = (c.get("data.container.save_dataset.bytes", 0), "B")
    m["data.container.bytes_read"] = (c.get("data.container.load_dataset.bytes", 0), "B")
    own("preprocess.pca_fit")
    pca_calls = calls.get("preprocess.pca_fit", 0)
    m["preprocess.pca_fit.k"] = (c.get("preprocess.pca_fit.k", 0) / pca_calls if pca_calls else 0, "count")
    count("kernels.gram")
    own("kernels.gram")
    m["kernels.gram.entries"] = (c.get("kernels.gram.entries", 0), "count")
    own("regression.tune")
    count("regression.log_marginal_likelihood")
    own("regression.log_marginal_likelihood")
    own("regression.fit")
    count("regression.cho_factor")
    own("regression.cho_factor")
    m["regression.cho_factor.failed"] = (tracer.failures.get("regression.cho_factor", 0), "count")
    rate("regression.cho_factor", self_s.get("regression.cho_factor", 0.0))
    own("regression.predict")
    own("regression.posterior_variance")
    own("recovery.MeasurementOperator")
    count("recovery.RecoveryMap")
    own("recovery.RecoveryMap")
    count("recovery.cho_factor")
    own("recovery.cho_factor")
    own("recovery.cholesky_preconditioner")
    count("recovery.recovery_weights")
    own("recovery.recovery_weights")
    own("recovery.recover")
    own("operator.prepare_features")
    own("operator.save_model")
    own("operator.load_model")
    own("operator.apply_batch")
    batch_wall = sum(s[5] - s[4] for s in tracer.spans if s[1] == "operator.apply_batch")
    rate("operator.apply_batch", batch_wall)
    own("metrics.relative_l2")
    m["cli.self_s"] = (sum(self_s.get(op, 0.0) for op in CLI_OPS), "s")
    return m
