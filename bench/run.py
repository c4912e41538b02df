"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload darcy --seed 42 --seconds 15 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics.
``--trace 1`` runs it once untraced and once traced, then once more traced in
a child process with one BLAS thread per core, and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record (with
the environment), the span dump and a self-time table go under ``--out``.
See README.md for the workloads and metrics.
"""

import time

START = time.perf_counter()  # set-up is timed from here: imports, then the serving schedule

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread. With one per core, on a 2-vCPU VM, small BLAS calls wait for
# a descheduled worker thread: Burgers apply_batch read 8, 16 or 32 ms from run
# to run (1.3 ms on one thread), and run-to-run spreads of train, eval and
# latency reached 0.3-0.5 of the median. The traced run still times every
# layer at one thread per core, as threads_nproc.*.
BLAS_THREADS = 1
SETUP_PROBES = 4       # extra set-ups in fresh interpreters; setup_s is the median of all
CHILD_TIMEOUT_S = 150
CHILD_ERRORS = (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError)


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: the acceptance seed)")
    p.add_argument("--seconds", type=float, default=15.0, help="least time an untraced pass spends serving")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=BENCH / "results", help="directory for records and spans")
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    # internal: how the benchmark re-invokes itself in child processes
    p.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--traced-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_argv(ns, *extra) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", ns.workload,
            "--seed", str(ns.seed), "--out", str(ns.out)]
    return argv + (["--toy"] if ns.toy else []) + list(extra)


def run_child(argv) -> dict:
    """Run the benchmark in a child process and parse its last output line."""
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(threads: int, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu_model": cpu,
        "git_sha": git_sha(),
        "workload_seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def main(argv=None) -> int:
    ns = parse_args(argv)
    ns.out = ns.out.resolve()
    if not (SRC / "odlearn" / "__init__.py").is_file():
        print(f"error: no odlearn package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    threads = ns.threads or BLAS_THREADS
    for var in THREAD_VARS:  # before numpy is first imported, below
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))

    import harness
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[ns.workload].toy() if ns.toy else WORKLOADS[ns.workload]
    ns.seed = wl.seed if ns.seed is None else ns.seed
    schedule = harness.build_schedule(wl if ns.trace == 0 else harness.single(wl), ns.seed)
    setup_s = time.perf_counter() - START
    if ns.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    stamp = f"{wl.name}-seed{ns.seed}-trace{ns.trace}{'-nproc' if ns.traced_only else ''}-{time.time_ns()}"
    workdir = ns.out / "work" / stamp
    workdir.mkdir(parents=True)
    (ns.out / "runs").mkdir(exist_ok=True)
    (ns.out / "spans").mkdir(exist_ok=True)
    attempted = failed = 0
    samples: dict[str, list[float]] = {}  # seconds per timed operation, untraced passes
    rel_l2 = None  # test-split mean relative L2 of the untraced pass
    worst_row_rel = 0.0  # largest single-vs-batch apply difference relative to its own row
    errors: list[str] = []

    def new_pass(name, workload, tracer=None):
        (workdir / name).mkdir()
        return harness.Pass(workload, ns.seed, schedule, workdir / name, tracer)

    def absorb(p):
        nonlocal attempted, failed, worst_row_rel
        attempted += p.attempted
        failed += p.failed
        errors.extend(p.errors)
        worst_row_rel = max(worst_row_rel, p.worst_row_rel)

    try:
        if ns.trace == 0:
            setups = [setup_s]
            for _ in range(SETUP_PROBES):
                attempted += 1
                try:
                    setups.append(run_child(child_argv(ns, "--setup-probe", "--threads", str(threads)))["setup_s"])
                except CHILD_ERRORS as exc:
                    failed += 1
                    errors.append(f"setup probe: {exc}")
            p = new_pass("untraced", wl)
            p.run(ns.seconds)
            absorb(p)
            samples = {"setup": setups, **p.samples}
            rel_l2 = p.rel_l2
            metrics = p.end_to_end()
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        else:
            one = harness.single(wl)
            metrics = {}
            if not ns.traced_only:
                plain = new_pass("untraced", one)
                plain.run(0)
                absorb(plain)
            tracer = spans.Tracer()
            traced = new_pass("traced", one, tracer)
            with tracer.installed():
                traced.run(0)
            absorb(traced)
            metrics.update(spans.layer_metrics(tracer))
            metrics["operator.model_bytes"] = (traced.model_bytes, "B")
            base = ns.out / "spans" / stamp
            tracer.dump(base.with_suffix(".jsonl"))
            base.with_suffix(".layers.txt").write_text(tracer.table())
            if not ns.traced_only:
                metrics.update(harness.overhead(plain, traced))
                nproc = str(len(os.sched_getaffinity(0)))
                try:
                    child = run_child(child_argv(ns, "--trace", "1", "--threads", nproc, "--traced-only"))
                    attempted += child["attempted"]
                    failed += child["failed"]
                    for name, m in child["metrics"].items():
                        if name.endswith("self_s"):
                            metrics[f"threads_nproc.{name}"] = (m["value"], m["unit"])
                except CHILD_ERRORS as exc:
                    attempted += 1
                    failed += 1
                    errors.append(f"pass at {nproc} BLAS threads: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and (ns.trace == 1 or set(harness.END_TO_END) <= set(metrics))
    record = {
        "workload": wl.name,
        "toy": ns.toy,
        "seed": ns.seed,
        "trace": ns.trace,
        "seconds": ns.seconds,
        "env": environment(threads, ns.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "errors": errors,
        "rel_l2": rel_l2,
        "worst_row_rel": worst_row_rel,
        "metrics": metric_json(metrics),
        "samples_s": samples,
    }
    if not ns.traced_only:
        path = ns.out / "runs" / f"{stamp}.json"
        path.write_text(json.dumps(record, indent=1))
        print(f"record: {path}", file=sys.stderr)
    for e in errors:
        print(f"failure: {e}", file=sys.stderr)
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
