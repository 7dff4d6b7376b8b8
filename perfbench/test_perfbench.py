"""Tests of the benchmark itself: self-time arithmetic, and a tiny-size smoke
run of every workload through the same child-process path as a real run.

Run with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import threading

import pytest

from run import measure
from spans import Recorder, Span, self_times, union_length
from workloads import REFERENCE, WORKLOADS, check_outputs


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (6, 6)]) == 4


def test_self_time_with_overlapping_children_on_two_threads():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1, "r"),
        Span(2, "child", 1.0, 5.0, 1, 2, "r"),
        Span(3, "child", 3.0, 8.0, 1, 3, "r"),
        Span(4, "leaf", 4.0, 4.5, 3, 3, "r"),
    ]
    selfs, concurrent = self_times(spans)
    assert selfs == {1: 3.0, 2: 4.0, 3: 4.5, 4: 0.5}
    assert concurrent == 2.0  # the children share [3, 5]
    assert sum(selfs.values()) - concurrent == 10.0


def test_worker_thread_spans_take_the_open_span_as_parent():
    rec = Recorder("r")
    both_open = threading.Barrier(2, timeout=10)

    def work():
        with rec.span("child"):
            both_open.wait()

    with rec.span("root"):
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    root = next(s for s in rec.spans if s.name == "root")
    kids = [s for s in rec.spans if s.name == "child"]
    assert [s.parent for s in kids] == [root.id, root.id]
    assert kids[0].thread != kids[1].thread
    selfs, concurrent = self_times(rec.spans)
    assert concurrent > 0.0  # both children were open at the barrier
    total = sum(selfs.values()) - concurrent
    assert total == pytest.approx(root.end - root.start, abs=1e-9)


_TINY = {
    "ensemble-cf": {"m": "2000", "n": "32"},
    "ensemble-rate": {"m": "2000", "checkpoints": "16..64 geometric"},
    "oracle-rate": {"checkpoints": "128..1024 geometric"},
    "schedule-diag": {"n_max": "1024"},
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_smoke(name, trace, tmp_path):
    w = WORKLOADS[name]
    tiny = dataclasses.replace(w, config={**w.config, **_TINY[name]})
    rec = measure(tiny, seed=42, seconds=0, trace=trace, work=tmp_path, setup_runs=1, sampler_draws=1000)
    assert rec["failed"] == 0, [r["problems"] for r in rec["runs"]]
    values = rec["metrics"]
    if trace:
        assert values["trace.wall_s"] > 0
        assert values["experiments.self_s"] > 0
        assert values["trace.ns_per_span"] > 0
        if w.ensemble:
            assert values["rng.derive_stream.calls"] > 0
            assert values["em.run_ensemble.self_s"] > 0
        assert len({r.get("digest") for r in rec["runs"]}) == 1
    else:
        assert set(values) == {"wall_s", "steps_per_s", "cpu_s", "peak_rss_mb", "setup_s"}
        assert all(v > 0 for v in values.values())


def test_schedule_summary_is_checked_against_the_reference(tmp_path):
    w = WORKLOADS["schedule-diag"]
    assert check_outputs(w, str(REFERENCE / w.name)) == []
    summary = json.loads((REFERENCE / f"{w.name}.json").read_text())
    summary["v_ratio_final"] *= 1 + 1e-9
    (tmp_path / "out.json").write_text(json.dumps(summary))
    shutil.copy(REFERENCE / f"{w.name}.csv", tmp_path / "out.csv")
    problems = check_outputs(w, str(tmp_path / "out"))
    assert len(problems) == 1 and problems[0].startswith("v_ratio_final=")


def test_floor_test_verdict_is_recomputed_not_required(tmp_path):
    w = WORKLOADS["ensemble-rate"]
    ns = [16, 32, 64, 128, 256, 512, 1024]
    floor = 0.112
    rows = "\n".join(f"{n},0,0,0.037,0.011,{floor},0,1.6" for n in ns)
    (tmp_path / "out.csv").write_text("n,t_n,gamma_n,w1,stderr,floor,used,moment_kappa\n" + rows + "\n")
    summary = {"floor": floor, "final_gap_vs_floor": abs(0.037 - floor), "verdict": False}
    (tmp_path / "out.json").write_text(json.dumps(summary))
    prefix = str(tmp_path / "out")
    assert check_outputs(w, prefix, exit_code=2) == []  # a FAIL the rows imply is a correct output
    assert check_outputs(w, prefix, exit_code=0) == ["verdict False with exit code 0"]
    assert check_outputs(WORKLOADS["ensemble-cf"], prefix, exit_code=2) == ["verdict is FAIL, not PASS"]
    (tmp_path / "out.json").write_text(json.dumps({**summary, "verdict": True}))
    problems = check_outputs(w, prefix, exit_code=0)
    assert len(problems) == 1 and problems[0].startswith("verdict True but gap")
