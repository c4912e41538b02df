"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py OLD_DIR NEW_DIR

Each directory holds run records, as ``bench/run.py`` writes them under
``<out>/runs/``; subdirectories are searched too, and traced and toy runs are
skipped. For each workload and each end-to-end metric of BENCHMARK.json it
prints both sides' median and quartiles and a verdict under the bound and
direction BENCHMARK.json gives the metric:

  worse       the new median is worse than the old one by more than the bound;
  better      the new median is better than the old one by more than the old
              runs' own spread (quartile distance over median), and a new run
              beats an old run in at least nine tenths of all (old, new) pairs;
  unresolved  anything else. A metric whose spread on either side is wider than
              its bound is unresolved unless every new run beats every old run.

Collect the two sides alternately, one old run then one new run, on the same
machine: this machine's speed drifts by about a tenth between sets of runs
made minutes apart, and alternating puts the drift on both sides.

Each workload's operation failures are printed as an error rate per side, and
the test-split mean relative L2 as quartiles per side, without a verdict: it
is a function of the seed, and its accuracy gate is checked in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or "workload" not in record or "metrics" not in record:
            continue
        if record.get("trace") != 0 or record.get("toy"):
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(old: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    if om == 0 or nm == 0:
        return "unresolved"
    sign = 1.0 if lower_is_better else -1.0
    worsening = sign * (nm - om) / abs(om)
    spread_old = (o3 - o1) / abs(om)
    spread_new = (n3 - n1) / abs(nm)
    if max(spread_old, spread_new) > bound:
        every_run_better = all(sign * (n - o) < 0 for n in new for o in old)
        return "better" if every_run_better else "unresolved"
    if worsening > bound:
        return "worse"
    wins = sum(sign * (n - o) < 0 for n in new for o in old) / (len(new) * len(old))
    if -worsening > spread_old and wins >= 0.9:
        return "better"
    return "unresolved"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    ns = p.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    old, new = load_runs(ns.old), load_runs(ns.new)
    counts = {"better": 0, "worse": 0, "unresolved": 0}
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = old.get(workload, []), new.get(workload, [])
        if not a or not b:
            print(f"{workload}: no runs on {'the old' if not a else 'the new'} side")
            continue
        rates = [sum(r["failed"] for r in rs) / max(sum(r["attempted"] for r in rs), 1) for rs in (a, b)]
        print(f"{workload}: {len(a)} old runs, {len(b)} new runs; error rate {rates[0]:.3g} -> {rates[1]:.3g}")
        print(f"  {'metric':22s} {'old q1':>11s} {'old med':>11s} {'old q3':>11s}"
              f" {'new q1':>11s} {'new med':>11s} {'new q3':>11s} {'change':>8s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                print(f"  {name:22s} missing")
                continue
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
            v = verdict(va, vb, m["bound"], m["better"] == "lower")
            counts[v] += 1
            print(f"  {name:22s} {qa[0]:11.5g} {qa[1]:11.5g} {qa[2]:11.5g}"
                  f" {qb[0]:11.5g} {qb[1]:11.5g} {qb[2]:11.5g} {100 * change:+7.1f}%  {v}")
        errs = [[r["rel_l2"] for r in rs if r.get("rel_l2") is not None] for rs in (a, b)]
        if all(errs):
            qa, qb = quartiles(errs[0]), quartiles(errs[1])
            print(f"  {'rel_l2 (no bound)':22s} {qa[0]:11.5g} {qa[1]:11.5g} {qa[2]:11.5g}"
                  f" {qb[0]:11.5g} {qb[1]:11.5g} {qb[2]:11.5g}")
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
