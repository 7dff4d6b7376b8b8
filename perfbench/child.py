"""One measured run in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC names a mode and the files to use:

* ``setup``    import stableem and build the config, then exit;
* ``run``      also run the experiment through ``stableem.cli.main``, the
  way the ``stableem`` command does, and time that call;
* ``samplers`` time the public 1-D samplers on one engine block of draws.

The result goes to ``spec["result"]`` as JSON.  ``ready`` is the
``time.monotonic()`` reading once stableem is imported and the config is
built; on Linux that clock is shared by all processes, so the parent turns
it into set-up time by subtracting the moment it spawned this process.
In a traced run the spans go to ``spec["spans"]`` when the run ends.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _user_sys_s() -> tuple[float, float]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime


def _samplers(spec: dict) -> dict:
    from stableem.rng import derive_stream
    from stableem.sampling import sample_pareto_vec, sample_stable_1d

    draws, alpha = spec["draws"], spec["alpha"]
    out = {}
    for name, draw in (
        ("cms_1d", lambda gen: sample_stable_1d(alpha, gen, draws)),
        ("pareto_1d", lambda gen: sample_pareto_vec(alpha, 1, gen, draws)),
    ):
        gen = derive_stream(spec["seed"], 0)
        start = time.perf_counter()
        z = draw(gen)
        out[name] = (time.perf_counter() - start) * 1e9 / draws
        del z
    return out


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    import stableem.cli
    from stableem.config import load_config

    cfg = load_config(spec["config"])
    result = {"ready": time.monotonic()}
    if spec["mode"] == "samplers":
        result["ns_per_draw"] = _samplers(spec)
    elif spec["mode"] == "run":
        from workloads import step_count

        recorder = None
        if spec["trace"]:
            from spans import Recorder, instrument, span_cost_ns

            recorder = Recorder(spec["run_id"])
            recorder.counts["trace.ns_per_span"] = span_cost_ns()
            instrument(recorder)
        argv = [cfg.experiment, "--config", spec["config"], "--out", spec["out"]]
        user0, sys0 = _user_sys_s()
        start = time.perf_counter()
        if recorder is None:
            code = stableem.cli.main(argv)
        else:
            with recorder.span("cli.main"):
                code = stableem.cli.main(argv)
        wall = time.perf_counter() - start
        user1, sys1 = _user_sys_s()
        result.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=(user1 - user0) + (sys1 - sys0),
            user_s=user1 - user0,
            sys_s=sys1 - sys0,
            peak_rss_mb=_rss_mb(),
            steps=step_count(cfg),
        )
        if recorder is not None:
            recorder.write(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
