"""Layered benchmark for stableem: time to verdict end to end, and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py``): ensemble-cf, ensemble-rate, oracle-rate,
schedule-diag.  Each run is closed-loop: one experiment at a time, each in a
fresh ``python3`` process that calls ``stableem.cli.main`` on a config file,
as the ``stableem`` command does.

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``.
It first starts a few processes that only import stableem and build the
config (set-up time), then runs the experiment once, and again as long as
another run, as long as the last one, would end within ``--seconds``; it
reports medians over the runs.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``, the run length that file declares; callers of the
declared command pass that same value.

``--trace 1`` gives the per-layer metrics.  It runs the experiment once
untraced and once with the layers wrapped by ``spans.instrument``; the
difference of the two wall times is the tracing overhead.  A third process
times the public samplers on one engine block of draws.

Every run's outputs are checked (``workloads.check_outputs``).  A run that
errors, exits with a code its verdict does not imply, fails a check (which
requires PASS except where the verdict is a seed-dependent test), or whose
CSV digest differs from another run of the same code and seed counts as
failed; a failed run never stops the benchmark.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of each invocation, with the environment of
every run, is written under ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from spans import read as read_spans, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, check_outputs, csv_digest  # noqa: E402

RUN_LIMIT_S = 170.0  # every invocation must end within 180 s
SETUP_RUNS = 5
SAMPLER_DRAWS = 1 << 24  # one engine block: 2^25 doubles hold 2^24 1-D draws


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the files of src/, so runs of one code version can be matched."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_sha": sha,
        "src_sha256": source_digest(),
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def _spawn(spec: dict, workdir: Path, deadline: float) -> dict:
    """Run child.py on SPEC; return its result plus spawn time, load and errors."""
    spec_path = workdir / f"{spec['run_id']}.spec.json"
    spec["result"] = str(workdir / f"{spec['run_id']}.result.json")
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = {"run_id": spec["run_id"], "load1": os.getloadavg()[0]}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        out["error"] = "timed out"
        return out
    out["duration_s"] = time.monotonic() - spawned
    if proc.returncode != 0:
        out["error"] = f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return out
    result = json.loads(Path(spec["result"]).read_text())
    out["setup_s"] = result.pop("ready") - spawned
    out.update(result)
    if out.get("exit_code", 0) not in (0, 2):  # 2: the experiment ran and its verdict is FAIL
        out["error"] = f"stableem exited {out['exit_code']}: {proc.stderr.strip()[-500:]}"
    return out


def _run(workload: Workload, seed: int, workdir: Path, cfg: Path, run_id: str,
         deadline: float, trace: bool) -> dict:
    prefix = workdir / run_id
    spec = {
        "mode": "run",
        "config": str(cfg),
        "out": str(prefix),
        "trace": trace,
        "spans": str(workdir / f"{run_id}.spans.jsonl"),
        "run_id": run_id,
    }
    rec = _spawn(spec, workdir, deadline)
    rec["trace"] = trace
    rec["problems"] = (
        [rec["error"]] if "error" in rec
        else check_outputs(workload, str(prefix), rec.get("exit_code", 0))
    )
    if workload.ensemble and prefix.with_suffix(".csv").exists():
        rec["digest"] = csv_digest(str(prefix))
    return rec


def _check_digests(runs: list[dict], config: str, src: str, work: Path) -> None:
    """Every run of one code version and config (seed included) must write the same CSV bytes."""
    registry_path = work / "digests.json"
    try:
        registry = json.loads(registry_path.read_text())
    except (OSError, ValueError):
        registry = {}
    key = f"{src}:{hashlib.sha256(config.encode()).hexdigest()}"
    for rec in runs:
        if "digest" not in rec:
            continue
        want = registry.setdefault(key, rec["digest"])
        if rec["digest"] != want:
            rec["problems"].append(f"CSV digest {rec['digest'][:16]} != {want[:16]} for this seed")
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, registry_path)


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    timed = [r for r in runs if "wall_s" in r]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in timed),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "setup_s": statistics.median(setups),
    }


def per_layer(traced: dict, untraced_wall: float, spans_path: str, sampler_ns: dict) -> tuple[dict, list]:
    """Per-layer metrics from one traced run, and the accounting problems found."""
    spans, counts = read_spans(spans_path)
    selfs, concurrent = self_times(spans)
    # each child's wrapper cost outside its own span sits in its parent's self
    # time; for children on worker threads a sibling's span may already cover
    # part of it, so there the correction can overstate the cost slightly
    per_span = counts.get("trace.ns_per_span", 0.0) * 1e-9
    children = Counter(s.parent for s in spans)
    for s in spans:
        selfs[s.id] -= children[s.id] * per_span
    span_cost = per_span * sum(children[s.id] for s in spans)
    calls, self_s, last = {}, {}, {}
    for s in spans:  # in the order the spans closed
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        last[s.name] = selfs[s.id]
    wall = next(s.end - s.start for s in spans if s.name == "cli.main")

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    ens_wall = sum(s.end - s.start for s in spans if s.name == "em.run_ensemble")
    m = {
        "rng.derive_stream.calls": calls.get("rng.derive_stream", 0),
        "em.aborted_chains": int(counts.get("em.aborted_chains", 0)),
        "em.run_ensemble.cores_busy": ratio(counts.get("em.run_ensemble.cpu_s", 0.0), ens_wall),
        "metrics.bootstrap_w1_stderr.calls": calls.get("metrics.bootstrap_w1_stderr", 0),
        "schedule.t_grid.calls": calls.get("schedule.t_grid", 0),
        "sampling.cms_1d.ns_per_draw": sampler_ns["cms_1d"],
        "sampling.pareto_1d.ns_per_draw": sampler_ns["pareto_1d"],
        # checkpoints run in increasing order, so the last call is the deepest
        "cf_oracle.w1_pareto.s_at_max_n": last.get("cf_oracle.w1_pareto_chain_vs_invariant", 0.0),
    }
    for name in (
        "rng.derive_stream",
        "em.run_ensemble",
        "sampling.sample_stable_1d",
        "metrics.bootstrap_w1_stderr",
        "metrics.w1_sorted_1d",
        "metrics.ecf",
        "metrics.rate_fit",
        "cf_oracle.w1_pareto_chain_vs_invariant",
        "cf_oracle.pareto_em_chain_cf",
        "schedule.decay_diagnostics",
        "schedule.t_grid",
        "cli.emit_outputs",
        "config.load_config",
        "cli.main",
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["experiments.self_s"] = self_s.get("experiments.run_experiment", 0.0)
    m["rng.derive_stream.us_per_call"] = ratio(
        m["rng.derive_stream.self_s"], m["rng.derive_stream.calls"], 1e6
    )
    m["em.ns_per_chain_step"] = ratio(
        m["em.run_ensemble.self_s"], counts.get("em.chain_steps", 0), 1e9
    )
    m["sampling.sample_stable_1d.ns_per_draw"] = ratio(
        m["sampling.sample_stable_1d.self_s"], counts.get("sampling.sample_stable_1d.draws", 0), 1e9
    )
    accounted = sum(v for k, v in m.items() if k.endswith(".self_s"))
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.concurrent_s"] = concurrent
    m["trace.ns_per_span"] = per_span * 1e9
    m["trace.span_cost_s"] = span_cost
    # self time spent in wrapped functions that no metric above names
    m["trace.unaccounted_s"] = wall - (accounted + span_cost - concurrent)
    problems = []
    tolerance = max(abs(m["trace.overhead_s"]), 0.01 * wall)
    if abs(m["trace.unaccounted_s"]) > tolerance:
        unnamed = sorted(
            ((v, k) for k, v in self_s.items() if f"{k}.self_s" not in m and k != "experiments.run_experiment"),
            reverse=True,
        )[:3]
        problems.append(
            f"accounting: {m['trace.unaccounted_s']:.4f} s outside the named layers "
            f"(tolerance {tolerance:.4f} s); largest: {unnamed}"
        )
    return m, problems


# ---------------------------------------------------------------------------
# One invocation.
# ---------------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path = WORK,
            setup_runs: int = SETUP_RUNS, sampler_draws: int = SAMPLER_DRAWS) -> dict:
    """Run WORKLOAD as the module docstring describes; return the full record.

    Scratch files, records, the digest registry and the last traced run's
    spans live under WORK.
    """
    if not (ROOT / "src" / "stableem").is_dir():
        raise SetupError(f"no stableem sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    # byte-compile first, so no measured import pays for it
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True, capture_output=True, timeout=120,
    )
    work.mkdir(exist_ok=True)
    workdir = work / f"{workload.name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    cfg = workdir / "workload.cfg"
    cfg.write_text(workload.config_text(seed))
    env = environment()
    record = {"workload": workload.name, "seed": seed, "trace": trace, "env": env,
              "config": workload.config_text(seed), "setups": [], "runs": []}
    try:
        runs = record["runs"]
        if trace:
            runs.append(_run(workload, seed, workdir, cfg, "untraced", deadline, False))
            runs.append(_run(workload, seed, workdir, cfg, "traced", deadline, True))
            sampler = _spawn(
                {"mode": "samplers", "config": str(cfg), "run_id": "samplers",
                 "seed": seed, "alpha": float(workload.config["alpha"]), "draws": sampler_draws},
                workdir, deadline,
            )
            record["samplers"] = sampler
        else:
            for k in range(setup_runs):
                record["setups"].append(_spawn(
                    {"mode": "setup", "config": str(cfg), "run_id": f"setup{k}"}, workdir, deadline
                ))
            start = time.monotonic()
            while True:
                runs.append(_run(workload, seed, workdir, cfg, f"run{len(runs)}", deadline, False))
                now = time.monotonic()
                took = runs[-1].get("duration_s", seconds)
                if now + took - start > seconds or now + 1.25 * took > deadline:
                    break
        _check_digests(runs, record["config"], env["src_sha256"], work)

        if not any("wall_s" in r for r in runs):
            raise SetupError("no run of the workload completed: "
                             + "; ".join(p for r in runs for p in r["problems"]))
        if trace:
            untraced, traced = runs
            spans_path = str(workdir / "traced.spans.jsonl")
            if "wall_s" not in traced or "error" in sampler:
                raise SetupError(f"traced run failed: {traced.get('error') or sampler.get('error')}")
            metrics, problems = per_layer(
                traced, untraced.get("wall_s", traced["wall_s"]), spans_path, sampler["ns_per_draw"]
            )
            traced["problems"] += problems
            shutil.copy(spans_path, work / f"spans-{workload.name}.jsonl")
        else:
            setups = [s["setup_s"] for s in record["setups"] if "setup_s" in s]
            setups += [r["setup_s"] for r in runs if "setup_s" in r]
            if not setups:
                raise SetupError("stableem could not be imported: "
                                 + "; ".join(s.get("error", "") for s in record["setups"]))
            metrics = end_to_end(runs, setups)
        record["metrics"] = metrics
        record["attempted"] = len(runs)
        record["failed"] = sum(1 for r in runs if r["problems"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        (work / "records").mkdir(parents=True, exist_ok=True)
        name = f"{workload.name}-seed{seed}-trace{int(trace)}.json"
        (work / "records" / name).write_text(json.dumps(record, indent=1, default=str))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        record = measure(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))
        metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                   for m in wanted}
    except (SetupError, OSError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} runs, {record['failed']} failed, "
          f"fail_ratio {record['failed'] / record['attempted']:.3g}")
    for r in record["runs"]:
        for p in r["problems"]:
            print(f"  {r['run_id']}: {p}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
