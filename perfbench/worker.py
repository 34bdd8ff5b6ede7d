"""One benchmark pass in a fresh interpreter.

Protocol with ``run.py``:

1. The worker imports ``acigb.cli``, calls ``build_parser()`` and writes
   ``ready`` on stdout, followed by the times of two calibration slices
   (``calibrate.py``) run just before and just after that import; the time
   from spawn to that line, less the two slices, is set-up time.
2. It reads one JSON object from stdin.  Empty stdin ends the process
   (a set-up probe).  Otherwise the object holds ``jobs`` and, for a traced
   pass, ``spans_path``.
3. It runs the jobs in order and writes one JSON line with per-job results,
   its peak RSS and, when traced, the layer aggregates.

While an untraced pass runs, an interval timer runs one calibration slice
(``calibrate.py``) every ``TICK`` seconds, inside jobs too.  Each job reports
its time without the slices that ran inside it, and ``slice_s``, the mean
time of the slices that ran during it and one tick either side, widened for
short jobs to a ``WINDOW`` centred on the job: how fast the host ran then.

A job is either ``{"argv": [...]}``, run through ``acigb.cli.main`` with
stdout captured and hashed, or ``{"case": [n, m, k]}``, one grid case
checked by ``acigb.cli._verify_case`` exactly as ``verify`` checks it.  A job
with ``"corrupt": true`` has one byte appended to its output before hashing;
the benchmark's smoke test uses it to prove that the digest check bites.
"""

import sys
from pathlib import Path

# This file is only ever run, never imported: the import of acigb.cli below is
# the set-up being timed, so it stays at the top level, ahead of everything
# the benchmark itself needs.
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

before_import = calibrate.slice_seconds()

import acigb.cli  # noqa: E402

acigb.cli.build_parser()
sys.stdout.write(f"ready {before_import!r} {calibrate.slice_seconds()!r}\n")
sys.stdout.flush()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402

TICK = 0.2  # seconds between calibration slices
WINDOW = 1.0  # a job's speed comes from slices over at least this long


def run_job(job: dict) -> dict:
    if "case" in job:
        n, m, k = job["case"]
        row = acigb.cli._verify_case((n, tuple(m), k, False))
        return {"ok": row["ok"] is True}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = acigb.cli.main(list(job["argv"]))
    text = out.getvalue() + ("\0" if job.get("corrupt") else "")
    result = {"code": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if code != 0:
        result["error"] = err.getvalue().strip()[-300:]
    return result


def main() -> None:
    raw = sys.stdin.read()
    if not raw.strip():
        return
    spec = json.loads(raw)
    tracer = None
    if spec.get("spans_path"):
        import layer_trace

        tracer = layer_trace.Tracer()
        layer_trace.install(tracer)
    clock = time.perf_counter
    slices: list = []  # (start, seconds) of every calibration slice

    def calibrate_now(*_):
        start = clock()
        calibrate.work()
        slices.append((start, clock() - start))

    timed = []
    calibrate_now()
    if tracer is None:
        signal.signal(signal.SIGALRM, calibrate_now)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)
    for job in spec["jobs"]:
        start = clock()
        try:
            result = run_job(job)
        except Exception as exc:  # a crashing job is a failed job, not a crashed pass
            result = {"error": f"{type(exc).__name__}: {exc}"[:300]}
        timed.append((result, start, clock()))
    signal.setitimer(signal.ITIMER_REAL, 0)
    calibrate_now()
    results = []
    for result, start, end in timed:
        inside = sum(s for t, s in slices if start <= t < end)
        pad = max(TICK, (WINDOW - (end - start)) / 2)
        near = [s for t, s in slices if start - pad <= t <= end + pad]
        result["s"] = end - start - inside
        result["slice_s"] = sum(near) / len(near) if near else slices[-1][1]
        results.append(result)
    report = {
        "jobs": results,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.aggregates()
        tracer.write_spans(spec["spans_path"])
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()


main()
