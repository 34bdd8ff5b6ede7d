"""Build ``catalogue.json``: every job the benchmark can run, with its pinned
expected output.

Run once, from the repository root, at the commit whose outputs are pinned:

    python3 perfbench/make_catalogue.py

It takes several minutes on one core.  Nothing is pinned unchecked:

* the golden case must match the worked example byte for byte;
* every ``gb`` job must equal the Buchberger oracle's reduced basis in the
  same ranking and order (``oracle_reduced_gb``), except the 394-element
  headline job, which the oracle does not finish in 7 minutes; there the
  leading monomials are cross-checked by the degree-equation formula and
  every element by the independent tail form;
* every ``crit`` and ``init`` job must agree with ``critical_sets_formula``;
* every grid case must come back ``ok`` from ``_verify_case``.

Reference times (``ref_s``) are measured here only to group jobs of similar
cost, so that each seed draws a subset of nearly the same total work; the
smoke test also uses them to find the cheapest jobs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import statistics
import sys
import time
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from acigb import cli  # noqa: E402
from acigb.algebra import TermOrder  # noqa: E402
from acigb.closed_form import (  # noqa: E402
    build_gs_divisor_form,
    build_gs_tail_form,
    reduced_gb,
)
from acigb.initial_ideal import (  # noqa: E402
    critical_sets,
    critical_sets_formula,
    minimal_generators,
    pure_power_removed,
)
from acigb.oracle import OracleConfig, oracle_reduced_gb  # noqa: E402

# the worked example of the paper, n = 4, m = (3, 2, 2, 3), k = 2
GOLDEN_TEXT = """\
x1^2 + 2*x1*x2 + 2*x1*x3 + 2*x2*x3 + 2*x1*x4 + 2*x2*x4 + 2*x3*x4 + x4^2
x2^2
x3^2
x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + 2*x2*x3*x4 + 1/2*x1*x4^2 + x2*x4^2 + x3*x4^2
x4^3
x1*x2*x4^2
x1*x3*x4^2
x2*x3*x4^2
"""

MID_SLOTS = 60  # drawn in cost-adjacent pairs, one of each pair per seed
ORACLE_SECONDS = 30
MAX_ORACLE_ELEMENTS = 32
GRID_BLOCK_RATIO = 1.3
WLP_TRIPLES = (
    (5, "2,2,2,4,5", 3),
    (5, "2,2,2,4,5", 7),
    (6, "3", 5),
    (6, "3", 7),
    (7, "2", 5),
    (7, "2", 3),
    (5, "4", 7),
    (5, "4", 11),
    (6, "2,3,3,3,4,4", 5),
    (7, "3", 5),
)


class OracleTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OracleTimeout


def run_cli(argv: list) -> tuple:
    """(output, best of three seconds) of one CLI call."""
    times = []
    for _ in range(3):
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
    return out.getvalue(), min(times)


def job(argv: list, checked: str) -> dict:
    text, seconds = run_cli(argv)
    return {
        "id": " ".join(argv),
        "argv": argv,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "checked": checked,
        "ref_s": round(seconds, 4),
    }


def check_crit(n: int, m: tuple, k: int) -> None:
    if critical_sets(n, m, k) != critical_sets_formula(n, m, k):
        raise SystemExit(f"critical sets disagree with the formula: {n} {m} {k}")


def check_init(n: int, m: tuple, k: int) -> None:
    check_crit(n, m, k)
    formula = critical_sets_formula(n, m, k)
    expected = {s for group in formula.by_index for s in group}
    expected |= {
        tuple(m[j - 1] if i == j - 1 else 0 for i in range(n))
        for j in range(1, n + 1)
        if not pure_power_removed(m, k, j)
    }
    if set(minimal_generators(n, m, k).min_gens) != expected:
        raise SystemExit(f"initial ideal disagrees with the formula: {n} {m} {k}")


def check_tail_form(n: int, m: tuple, k: int) -> None:
    check_crit(n, m, k)
    crit = critical_sets_formula(n, m, k)
    ideal = minimal_generators(n, m, k)
    for j, group in enumerate(crit.by_index, start=1):
        for s in group:
            if build_gs_divisor_form(s, j, m, k, n) != build_gs_tail_form(s, j, m, k, n, ideal):
                raise SystemExit(f"divisor and tail forms disagree at {s}: {n} {m} {k}")


def oracle_agrees(n, m, k, ranking, kind) -> bool | None:
    """True or False once the oracle finishes, None if it runs out of time."""
    mine = reduced_gb(n, m, k, ranking=ranking, kind=kind)
    signal.alarm(ORACLE_SECONDS)
    try:
        theirs = oracle_reduced_gb(n, m, k, OracleConfig(TermOrder(kind, ranking)))
    except OracleTimeout:
        return None
    finally:
        signal.alarm(0)
    return mine.fingerprint() == theirs.fingerprint()


def mtext(m) -> str:
    return ",".join(str(v) for v in m)


def headline_jobs() -> list:
    golden = job(["gb", "--m", "3,2,2,3", "--k", "2", "--format", "text"], "golden")
    text, _ = run_cli(golden["argv"])
    if text != GOLDEN_TEXT:
        raise SystemExit("golden case is not byte-identical to the worked example")
    check_tail_form(9, (3,) * 9, 3)
    check_init(10, (3,) * 10, 3)
    return [
        golden,
        job(["gb", "--m", "eq:3:9", "--k", "3", "--format", "json"], "formula+tail"),
        job(["init", "--m", "eq:3:10", "--k", "3"], "formula"),
    ]


def mid_job(slot: int, rng: random.Random) -> dict:
    """One n in 5..8, k in 1..4 job: gb (oracle-checked) or crit."""
    n = 5 + slot % 4
    k = 1 + (slot // 4) % 4
    fmt = rng.choice(("json", "text"))
    if rng.random() < 2 / 3:
        for _ in range(6):
            m = tuple(rng.choice((2, 3, 4)) for _ in range(n))
            ranking = tuple(rng.sample(range(1, n + 1), n))
            kind = rng.choice(("grevlex", "grlex"))
            if len(reduced_gb(n, m, k, ranking=ranking, kind=kind).elements) > MAX_ORACLE_ELEMENTS:
                continue
            verdict = oracle_agrees(n, m, k, ranking, kind)
            if verdict is False:
                raise SystemExit(f"oracle disagrees: {n} {m} {k} {ranking} {kind}")
            if verdict:
                argv = ["gb", "--m", mtext(m), "--k", str(k), "--ranking",
                        mtext(ranking), "--order", kind, "--format", fmt]
                return job(argv, "oracle")
    m = tuple(rng.choice((2, 3, 4)) for _ in range(n))
    check_crit(n, m, k)
    return job(["crit", "--m", mtext(m), "--k", str(k), "--format", fmt], "formula")


def mid_pairs() -> list:
    rng = random.Random(20250630)
    jobs = []
    for slot in range(MID_SLOTS):
        jobs.append(mid_job(slot, rng))
        print(f"mid {slot}: {jobs[-1]['id']} {jobs[-1]['ref_s']}s", file=sys.stderr)
    jobs.sort(key=lambda j: j["ref_s"])
    return [jobs[i : i + 2] for i in range(0, len(jobs), 2)]


def grid_blocks() -> list:
    """Strata (n, k, holds an exponent 4) of the default verify grid, each
    cut into runs of cases whose reference times lie within a factor
    GRID_BLOCK_RATIO; a seed draws one case per block."""
    strata: dict = {}
    for n in range(1, 5):
        for m in product(range(2, 5), repeat=n):
            for k in range(1, 5):
                start = time.perf_counter()
                row = cli._verify_case((n, m, k, False))
                seconds = time.perf_counter() - start
                if not row["ok"]:
                    raise SystemExit(f"verify case failed: {n} {m} {k}")
                strata.setdefault((n, k, 4 in m), []).append(
                    {"case": [n, list(m), k], "ref_s": round(seconds, 4)}
                )
    blocks = []
    for key in sorted(strata):
        block: list = []
        for case in sorted(strata[key], key=lambda c: c["ref_s"]):
            if block and case["ref_s"] > GRID_BLOCK_RATIO * block[0]["ref_s"]:
                blocks.append(block)
                block = []
            block.append(case)
        blocks.append(block)
    return blocks


def wlp_jobs() -> list:
    jobs = []
    for n, m, p in WLP_TRIPLES:
        entry = job(["wlp", "--n", str(n), "--m", m, "--p", str(p)], "pinned")
        verdict = json.loads(run_cli(entry["argv"])[0])
        entry["verdict"] = {
            key: verdict[key] for key in ("has_wlp", "route", "witness", "explanation")
        }
        jobs.append(entry)
    return jobs


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    src_lines = sum(
        len(path.read_text().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    catalogue = {
        "pinned_at": {"src_lines": src_lines, "python": sys.version.split()[0]},
        "closed-form": {"headline": headline_jobs(), "pairs": mid_pairs()},
        "oracle-grid": {"blocks": grid_blocks()},
        "wlp-modp": {"jobs": wlp_jobs()},
    }
    blocks = catalogue["oracle-grid"]["blocks"]
    print(
        f"grid: {len(blocks)} blocks, expected pass "
        f"{sum(statistics.mean(c['ref_s'] for c in b) for b in blocks):.1f}s",
        file=sys.stderr,
    )
    out = Path(__file__).resolve().parent / "catalogue.json"
    out.write_text(json.dumps(catalogue, indent=1) + "\n")


if __name__ == "__main__":
    main()
