"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 perfbench/smoke.py

Checks, in well under a minute:

* one minimal pass per workload (its cheapest catalogue jobs) passes the
  correctness gate;
* a deliberately corrupted output is caught by the digest check and counted
  in the failure share;
* a traced pass reports every per-layer metric named in BENCHMARK.json, and
  a second traced pass repeats every exact count;
* ``run.py`` exits non-zero without printing a result when the program's
  sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run

EXACT = ("calls", "cells", "terms", "basis_len", "zero_frac")


def cheapest(workload: str, count: int) -> list:
    catalogue = json.loads((run.HERE / "catalogue.json").read_text())[workload]
    if workload == "closed-form":
        pool = catalogue["headline"] + [j for pair in catalogue["pairs"] for j in pair]
    elif workload == "oracle-grid":
        pool = [c for block in catalogue["blocks"] for c in block]
    else:
        pool = catalogue["jobs"]
    return sorted(pool, key=lambda j: j["ref_s"])[:count]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")
    print(f"smoke: ok: {message}")


def main() -> None:
    runner = run.Runner(time.perf_counter() + run.DEADLINE_S)
    for workload in run.WORKLOADS:
        tally = run.Tally()
        jobs = cheapest(workload, 3)
        tally.checked_pass(runner, jobs)
        check(not tally.failures and tally.attempted == len(jobs),
              f"{workload}: minimal pass of {len(jobs)} jobs is correct")

    tally = run.Tally()
    jobs = cheapest("closed-form", 3)
    jobs[0] = dict(jobs[0], corrupt=True)
    tally.checked_pass(runner, jobs)
    frac = len(tally.failures) / tally.attempted
    check(len(tally.failures) == 1 and "pinned digest" in tally.failures[0],
          "a corrupted output fails the digest check")
    check(abs(frac - 1 / 3) < 1e-12, f"it counts in the failure share ({frac:.3f})")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spans = run.ROOT / ".perfbench"
    spans.mkdir(exist_ok=True)
    jobs = cheapest("oracle-grid", 4) + cheapest("wlp-modp", 1)
    first = run.per_layer(runner, run.Tally(), jobs, spans / "smoke-a.json")
    second = run.per_layer(runner, run.Tally(), jobs, spans / "smoke-b.json")
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in first]
    check(not missing, f"traced pass reports every per-layer metric {missing or ''}")
    drift = [
        name for name in first
        if name.rsplit(".", 1)[-1] in EXACT and first[name] != second[name]
    ]
    check(not drift, f"exact counts repeat on a second traced pass {drift or ''}")

    bare = spans / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "wlp-modp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without sources run.py exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    main()
