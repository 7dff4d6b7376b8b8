"""The benchmark's workloads, their step counts and their output checks.

Each workload is one stableem experiment at the size of the acceptance
criterion it replays, with gamma_n = 1/(2n) and alpha = 1.5.  Together they
put each layer of ``src/stableem`` on the path that decides the time to a
verdict:

* ``ensemble-cf``   the block engine on the Pareto path, single-threaded
  (stream derivation, innovation draws, stepping); the CF oracle and the
  empirical CF are a small share;
* ``ensemble-rate`` the engine on the CMS / exact-OU path with two worker
  threads, plus invariant-law draws and the W1 bootstrap;
* ``oracle-rate``   the deterministic CF-gap W1 oracle; no RNG, no engine;
* ``schedule-diag`` the step-schedule decay diagnostics.

Every run must exit with the code its verdict implies (0 for PASS, 2 for
FAIL) and, except on ``ensemble-rate``, report PASS.  The ``ensemble-rate``
verdict is a two-sample test, ``|w1 - floor| <= 3 stderr`` at the last
checkpoint, where ``w1`` and ``floor`` are both Monte-Carlo W1 estimates of a
heavy-tailed law; a correct program fails it on some seeds (seed 1139617452:
floor 0.112 against w1 0.037 +- 0.011).  There the check
recomputes the verdict from the written rows and requires the summary to
agree with it, whichever way it goes.

Checks beyond the verdict: the deterministic workloads
must reproduce the outputs stored in ``reference/``, which are the CSV and
JSON that stableem wrote for them when this benchmark was added (for
``oracle-rate`` the CSV's ``w1`` and the JSON's ``slope``; for
``schedule-diag`` every CSV column and every numeric field of the JSON); the
ensemble workloads record a SHA-256 digest of their CSV, which must be the
same for every run of one code version and seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: dict
    ensemble: bool  # Monte-Carlo output: digest it; deterministic output: compare to reference
    chance_verdict: bool = False  # the verdict is a seed-dependent test: recompute it, not require PASS

    def config_text(self, seed: int) -> str:
        lines = [f"experiment = {self.experiment}", f"seed = {seed}"]
        lines += [f"{k} = {v}" for k, v in self.config.items()]
        return "\n".join(lines) + "\n"


_HALF_N = {"alpha": "1.5", "schedule": "c-over-n:0.5"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ensemble-cf",
            "cf-check",
            {**_HALF_N, "scheme": "pareto-em", "n": "512", "m": "200000", "workers": "1"},
            ensemble=True,
        ),
        Workload(
            "ensemble-rate",
            "rate",
            {
                **_HALF_N,
                "scheme": "exact-ou",
                "reference": "ensemble",
                "checkpoints": "16..1024 geometric",
                "m": "100000",
                "workers": "2",
            },
            ensemble=True,
            chance_verdict=True,
        ),
        Workload(
            "oracle-rate",
            "rate",
            {
                **_HALF_N,
                "scheme": "pareto-em",
                "reference": "oracle",
                "checkpoints": "128..8192 geometric",
            },
            ensemble=False,
        ),
        Workload(
            "schedule-diag",
            "schedule",
            {"alpha": "1.5", "schedule": "c-over-rho-n:2,0.5", "rho_toy": "0.5", "n_max": "100000"},
            ensemble=False,
        ),
    )
}


def step_count(cfg) -> int:
    """Chain-steps for the ensembles, summed checkpoint depths for the oracle, n_max for schedules."""
    if cfg.experiment == "cf-check":
        return cfg.m * cfg.n
    if cfg.experiment == "rate":
        cps = cfg.checkpoint_list()
        return sum(cps) if cfg.reference == "oracle" else cfg.m * max(cps)
    if cfg.experiment == "schedule":
        return cfg.n_max
    raise ValueError(f"no step count for experiment {cfg.experiment!r}")


def csv_digest(prefix: str) -> str:
    with open(f"{prefix}.csv", "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _doubling(lo: int, hi: int) -> list[int]:
    out = [lo]
    while out[-1] * 2 <= hi:
        out.append(out[-1] * 2)
    return out


def expected_ns(workload: Workload) -> list[int]:
    """The row index ``n`` a ``rate`` or ``schedule`` workload reports, from its config."""
    if workload.experiment == "rate":
        lo, hi = workload.config["checkpoints"].split()[0].split("..")
        return _doubling(int(lo), int(hi))
    n_max = int(workload.config["n_max"])
    ns = _doubling(1, n_max)
    return ns if ns[-1] == n_max else ns + [n_max]


def _floor_test_problems(workload: Workload, summary: dict, rows: list[dict]) -> list[str]:
    """Recompute the exact-OU floor test from the rows; the summary must agree with it."""
    ns = [int(r["n"]) for r in rows]
    if ns != expected_ns(workload):
        return [f"rows n={ns}, expected {expected_ns(workload)}"]
    problems = []
    for r in rows:
        if not all(math.isfinite(float(r[k])) and float(r[k]) >= 0 for k in ("w1", "stderr", "floor")):
            problems.append(f"n={r['n']}: w1, stderr or floor not finite and >= 0")
        if float(r["floor"]) != summary.get("floor"):
            problems.append(f"n={r['n']}: floor {r['floor']} vs summary {summary.get('floor')}")
    last = rows[-1]
    gap = abs(float(last["w1"]) - float(last["floor"]))
    tol = 3.0 * float(last["stderr"]) if float(last["stderr"]) else 1e-12
    if not _close(summary.get("final_gap_vs_floor", math.nan), gap, 1e-12):
        problems.append(f"final_gap_vs_floor {summary.get('final_gap_vs_floor')} vs |w1 - floor| {gap}")
    if summary.get("verdict") is not (gap <= tol):
        problems.append(f"verdict {summary.get('verdict')!r} but gap {gap} vs 3 stderr {tol}")
    return problems


def check_outputs(workload: Workload, prefix: str, exit_code: int = 0) -> list[str]:
    """Problems with one run's outputs; an empty list means the run is correct."""
    try:
        summary = json.loads(Path(f"{prefix}.json").read_text())
        rows = _read_csv(f"{prefix}.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    verdict = summary.get("verdict")
    if not isinstance(verdict, bool) or exit_code != (0 if verdict else 2):
        problems.append(f"verdict {verdict!r} with exit code {exit_code}")
    elif not verdict and not workload.chance_verdict:
        problems.append("verdict is FAIL, not PASS")
    if not rows:
        return problems + ["empty CSV"]
    if workload.chance_verdict:
        problems += _floor_test_problems(workload, summary, rows)
    if workload.ensemble:
        return problems
    ns = [int(r["n"]) for r in rows]
    if ns != expected_ns(workload):
        problems.append(f"rows n={ns}, expected {expected_ns(workload)}")
    ref_rows = {int(r["n"]): r for r in _read_csv(REFERENCE / f"{workload.name}.csv")}
    if workload.name == "oracle-rate":
        fields, rel = ("w1",), 1e-10
    else:
        fields, rel = tuple(k for k in rows[0] if k != "n") if rows else (), 1e-12
    for row in rows:
        ref = ref_rows.get(int(row["n"]))
        if ref is None:
            problems.append(f"row n={row['n']} has no reference")
            continue
        for key in fields:
            if not _close(float(row[key]), float(ref[key]), rel):
                problems.append(f"n={row['n']} {key}={row[key]} vs reference {ref[key]}")
    if ns != list(ref_rows):
        return problems  # the reference summary belongs to the reference rows
    ref_summary = json.loads((REFERENCE / f"{workload.name}.json").read_text())
    if workload.name == "oracle-rate":
        if not abs(summary.get("slope", math.nan) - ref_summary["slope"]) < 5e-4:
            problems.append(f"slope {summary.get('slope')} vs reference {ref_summary['slope']}")
        return problems
    for key, ref in ref_summary.items():
        if key == "seed" or isinstance(ref, bool) or not isinstance(ref, (int, float)):
            continue
        if not _close(float(summary.get(key, math.nan)), float(ref), rel):
            problems.append(f"{key}={summary.get(key)} vs reference {ref}")
    return problems
