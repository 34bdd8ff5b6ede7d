"""The acigb benchmark: end-to-end CLI cost on three workloads, plus a traced
per-layer run.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 36 --trace 0

Workloads (each sends most of its time through different modules):

* ``closed-form`` -- the golden case, ``gb --m eq:3:9 --k 3 --format json``,
  ``init --m eq:3:10 --k 3`` and 30 mid-size ``gb``/``crit`` jobs (n 5..8,
  exponents 2..4, k 1..4, random ranking and order).  Critical sets, element
  build and output formatting dominate; the oracle does no work.
* ``oracle-grid`` -- a stratified sample of the default ``verify`` grid
  (n <= 4, m_i in {2, 3, 4}, k <= 4), each case checked by
  ``acigb.cli._verify_case`` as ``verify`` checks it.  Buchberger over Q
  dominates.
* ``wlp-modp`` -- ten ``wlp`` verdicts over F_p: the oracle with a degree cap
  and the dense modular elimination.

Each pass runs the workload's job list in a fresh interpreter
(``worker.py``) with ``ACI_GB_THREADS=1``, one pass at a time, as a CLI user
pays for it; no in-process cache survives from one pass to the next.  Passes
repeat while the next one still fits in ``--seconds``.  The seed only picks
the jobs (one of each cost-matched pair or block of ``catalogue.json``) and
their order; the program receives only the argv or grid case.  Every output
is checked against the SHA-256 digest pinned in the catalogue, or against
the ``ok`` verdict for grid cases.

End-to-end metrics (``--trace 0``), in seconds at the reference host speed
(below):

* ``setup_s`` -- median, over fresh interpreters started before every pass
  and after the last, of the time from spawn to ``import acigb.cli`` plus
  ``build_parser()`` done;
* ``wall_s`` -- median over passes of the time of one pass over the job
  list, after set-up;
* ``job_s.p50`` -- median per-job time over all passes;
* ``peak_rss_mib`` -- median over passes of the pass process's ``ru_maxrss``.

Reference host speed: on a small shared host the speed of a core swings by
up to 2x for tens of seconds at a time (CPU time equals wall time, so it is
not preemption), far more than any change worth measuring.  The worker
therefore times a fixed calibration slice (``calibrate.py``) every 0.2 s,
inside jobs too, and each time is converted as
``measured * REFERENCE_SLICE_S / slice time around it``.  Both sides of a
comparison run the same slice, which no change to ``acigb`` can move.  The
raw times are recorded too (``raw_pass_wall_s``, ``raw_setup_s``).

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics listed in ``BENCHMARK.json`` (see ``layer_trace.py``) in
raw seconds and exact counts, plus the tracing overhead.  The traced pass
writes its spans to ``.perfbench/``.

Before the result, one line ``{"perfbench": {...}}`` records the seed, the
chosen jobs, the failure share, ``job_s.p90`` where at least ten samples lie
beyond it, and the Python version, core count, platform and ``src/`` line
count.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("closed-form", "oracle-grid", "wlp-modp")
SETUP_PROBES = 3  # before every pass and after the last
DEADLINE_S = 170.0  # every run ends well inside three minutes
# the calibration slice's time on the unthrottled host the catalogue was
# pinned on: timings are reported in seconds at that host speed
REFERENCE_SLICE_S = 0.0055


class PassFailed(Exception):
    pass


def at_reference_speed(seconds: float, slice_s: float) -> float:
    """Seconds measured while a calibration slice took ``slice_s``, converted
    to seconds at the reference host speed."""
    return seconds * REFERENCE_SLICE_S / slice_s


def plan(workload: str, catalogue: dict, rng: random.Random) -> list:
    """The seed's job list: catalogue entries, each with its expectation."""
    part = catalogue[workload]
    if workload == "closed-form":
        jobs = list(part["headline"]) + [rng.choice(pair) for pair in part["pairs"]]
    elif workload == "oracle-grid":
        jobs = [rng.choice(block) for block in part["blocks"]]
    else:
        jobs = list(part["jobs"])
    rng.shuffle(jobs)
    return jobs


def job_label(job: dict) -> str:
    if "case" in job:
        n, m, k = job["case"]
        return f"verify-case n={n} m={','.join(map(str, m))} k={k}"
    return job["id"]


def job_input(job: dict) -> dict:
    """Only what the program is given: the argv or the grid case (plus the
    smoke test's corruption flag)."""
    given = {"case": job["case"]} if "case" in job else {"argv": job["argv"]}
    if job.get("corrupt"):
        given["corrupt"] = True
    return given


def job_ok(job: dict, result: dict) -> bool:
    if "case" in job:
        return result.get("ok") is True
    return result.get("code") == 0 and result.get("sha256") == job["sha256"]


class Runner:
    """Spawns workers one at a time and enforces the run deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, ACI_GB_THREADS="1", PYTHONHASHSEED="0")

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self) -> tuple:
        """(process, set-up seconds, mean calibration slice of the worker)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self.env,
            cwd=str(ROOT),
        )
        ready, _, _ = select.select([proc.stdout], [], [], max(self.remaining(), 0))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        if not line.startswith("ready "):
            proc.kill()
            _, err = proc.communicate()
            raise PassFailed(f"worker did not start: {err.strip()[-300:]}")
        slices = [float(x) for x in line.split()[1:]]
        return proc, elapsed - sum(slices), sum(slices) / len(slices)

    def probe(self) -> tuple:
        """(set-up seconds, mean calibration slice of that worker)."""
        proc, setup, slice_s = self.spawn()
        proc.communicate(input="", timeout=max(self.remaining(), 1))
        return setup, slice_s

    def run_pass(self, jobs: list, spans_path: str | None = None) -> dict:
        proc, _, _ = self.spawn()
        spec = {"jobs": [job_input(j) for j in jobs], "spans_path": spans_path}
        try:
            out, err = proc.communicate(
                input=json.dumps(spec), timeout=max(self.remaining(), 1)
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise PassFailed("pass ran past the run deadline") from None
        if proc.returncode != 0:
            raise PassFailed(f"worker exited {proc.returncode}: {err.strip()[-300:]}")
        return json.loads(out.splitlines()[-1])


class Tally:
    """Attempted and failed jobs over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.passes: list = []  # per pass: raw and scaled job seconds, maxrss_kib

    def samples(self) -> list:
        return [s for p in self.passes for s in p["job_s"]]

    def add(self, jobs: list, report: dict | None, why: str = "") -> None:
        self.attempted += len(jobs)
        if report is None:
            self.failures.extend(f"{job_label(j)}: {why}" for j in jobs)
            return
        self.passes.append({
            "raw_job_s": [r["s"] for r in report["jobs"]],
            "job_s": [at_reference_speed(r["s"], r["slice_s"]) for r in report["jobs"]],
            "maxrss_kib": report["maxrss_kib"],
        })
        for job, result in zip(jobs, report["jobs"]):
            if not job_ok(job, result):
                detail = result.get("error") or "output differs from the pinned digest"
                self.failures.append(f"{job_label(job)}: {detail}")

    def checked_pass(self, runner: Runner, jobs: list, spans_path=None):
        try:
            report = runner.run_pass(jobs, spans_path)
        except PassFailed as exc:
            self.add(jobs, None, str(exc))
            return None
        self.add(jobs, report)
        return report


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def p90_record(samples: list) -> dict:
    """p90 with its sample count, given only when ten samples lie beyond it."""
    if len(samples) < 100:
        return {"value": None, "samples": len(samples),
                "omitted": "fewer than ten samples beyond p90"}
    return {"value": statistics.quantiles(samples, n=10)[-1], "samples": len(samples)}


def end_to_end(runner: Runner, tally: Tally, jobs: list, seconds: int) -> tuple:
    """(metrics, raw set-up seconds)."""
    setups: list = []

    def probe() -> None:
        for _ in range(SETUP_PROBES):
            if runner.remaining() > 0:
                setups.append(runner.probe())

    try:
        runner.probe()  # warm-up: a fresh checkout compiles its bytecode once
        durations = []
        window = time.perf_counter()
        while runner.remaining() > 0:
            probe()
            start = time.perf_counter()
            if tally.checked_pass(runner, jobs) is None:
                break
            durations.append(time.perf_counter() - start)
            elapsed = time.perf_counter() - window
            if elapsed + statistics.median(durations) > seconds:
                break
        probe()
    except PassFailed as exc:  # the worker cannot even start
        tally.add(jobs, None, str(exc))
    raw_setup = [s for s, _ in setups]
    if not tally.passes or not setups:
        return {}, raw_setup
    metrics = {
        "setup_s": statistics.median(at_reference_speed(*s) for s in setups),
        "wall_s": statistics.median(sum(p["job_s"]) for p in tally.passes),
        "job_s.p50": statistics.median(tally.samples()),
        "peak_rss_mib": statistics.median(p["maxrss_kib"] / 1024 for p in tally.passes),
    }
    return metrics, raw_setup


def per_layer(runner: Runner, tally: Tally, jobs: list, spans_path: Path) -> dict:
    plain = tally.checked_pass(runner, jobs)
    traced = tally.checked_pass(runner, jobs, str(spans_path))
    if plain is None or traced is None:
        return {}
    stats = dict(traced["trace"])
    calls = stats["algebra.reduce_full.calls"]
    stats["algebra.reduce_full.zero_frac"] = (
        stats["algebra.reduce_full.zero"] / calls if calls else 0.0
    )
    stats["trace.overhead_s"] = sum(r["s"] for r in traced["jobs"]) - sum(
        r["s"] for r in plain["jobs"]
    )
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acigb" / "cli.py").is_file():
        print(f"error: no acigb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = json.loads((HERE / "catalogue.json").read_text())
    jobs = plan(args.workload, catalogue, random.Random(args.seed))

    runner = Runner(time.perf_counter() + DEADLINE_S)
    tally = Tally()
    if args.trace:
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"spans-{args.workload}-seed{args.seed}.json"
        values = per_layer(runner, tally, jobs, spans_path)
        declared = spec["per_layer"]
        raw_setup: list = []
    else:
        values, raw_setup = end_to_end(runner, tally, jobs, args.seconds)
        declared = spec["end_to_end"]

    failed = len(tally.failures)
    for line in tally.failures:
        print(f"failed: {line}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [job_label(j) for j in jobs],
        "attempted": tally.attempted,
        "failed_frac": failed / tally.attempted if tally.attempted else 1.0,
        "passes": len(tally.passes),
        "raw_pass_wall_s": [sum(p["raw_job_s"]) for p in tally.passes],
        "raw_setup_s": statistics.median(raw_setup) if raw_setup else None,
        "job_s.p90": p90_record(tally.samples()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "src_lines": src_lines(),
    }
    print(json.dumps({"perfbench": record}))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    result = {
        "correct": failed == 0 and len(metrics) == len(declared),
        "attempted": max(tally.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
