"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

    python3 bench/smoke.py

For each workload it checks that the run exits 0 with ``correct`` true and
no failed operation; that the result line carries exactly the end_to_end
metrics of BENCHMARK.json (untraced) or exactly its per_layer metrics (traced),
each a finite number with the unit given there; and that in the span dump the
self times of the spans inside one operation sum to no more than that
operation's wall time. Last, it checks that the benchmark refuses to run, with
a non-zero exit and no result line, from a directory that holds only
BENCHMARK.json and bench/. Takes about a minute; it is not part of the
pytest suite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "results" / "smoke"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=300, cwd=cwd)


def check_result(proc: subprocess.CompletedProcess, want: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, unexpected {sorted(set(got) - set(want))}")
    problems += [f"{k}: unit {u!r}, expected {want[k]!r}" for k, u in got.items() if k in want and u != want[k]]
    problems += [f"{k}: value {v['value']!r}" for k, v in result.get("metrics", {}).items()
                 if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"]))]
    return problems


def check_spans(path: Path) -> list[str]:
    """Self times of the spans inside each operation sum to at most its wall time."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    wall = {s["op"]: s["end"] - s["start"] for s in spans if s["parent"] is None}
    total = dict.fromkeys(wall, 0.0)
    problems = []
    for s in spans:
        if s["op"] not in total:
            problems.append(f"span {s['name']} outside any operation")
            continue
        total[s["op"]] += s["self_s"]
    problems += [f"operation {op}: self times {total[op]:.6f} s > wall {w:.6f} s"
                 for op, w in wall.items() if total[op] > w + 1e-9]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(OUT, ignore_errors=True)
    failures = 0
    for w in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run([str(BENCH / "run.py"), "--workload", w, "--toy", "--seconds", "1",
                        "--trace", str(trace), "--out", str(OUT)], ROOT)
            problems = check_result(proc, {m["name"]: m["unit"] for m in spec[key]})
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {w} --trace {trace}" + "".join(f"\n     {p}" for p in problems))
    dumps = sorted((OUT / "spans").glob("*.jsonl"))
    for path in dumps:
        problems = check_spans(path)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} spans {path.name}" + "".join(f"\n     {p}" for p in problems))
    if not dumps:
        failures += 1
        print("FAIL no span dump written")

    bare = OUT / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["bench/run.py", "--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], bare)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the sources (exit {proc.returncode})")

    if failures == 0:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
