"""Span recorder for the traced benchmark run, and self-time arithmetic.

``instrument`` wraps each layer's public functions at the names their
callers look them up by, so the program under test is not edited:

* ``stableem.rng.derive_stream`` (the engine and the experiments call it
  through the module);
* every stableem function that ``stableem.experiments`` imports from
  another module (the engine, samplers, metrics, CF oracles, schedule
  diagnostics);
* ``StepSchedule.t_grid``;
* ``load_config``, ``run_experiment`` and ``emit_outputs`` as ``stableem.cli``
  calls them.

A span is (id, name, start, end, parent, thread, run).  Spans are kept in
memory and written out once, when the run ends.  A span opened on a thread
with no span of its own (a ``ThreadPoolExecutor`` worker of the ensemble
engine) takes as parent the innermost span open on the thread that made the
recorder, which is the ``run_ensemble`` call waiting for the pool.

A span's self time is its duration minus the union of its children's
intervals.  Children on different threads can overlap; that overlap is
reported as ``concurrent`` so the self times still add up to the wall time.

Part of each wrapper's cost falls outside its own span, in the caller's:
``span_cost_ns`` measures it per span, so the caller's self time can be
corrected by that cost times its number of children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._local.stack = []
        self._owner_stack = self._local.stack

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, token: tuple, name: str) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        # list.append is atomic under the interpreter lock
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), self.run_id))

    @contextmanager
    def span(self, name: str):
        token = self.open()
        try:
            yield
        finally:
            self.close(token, name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"counts": dict(self.counts)}, fh)
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")


def read(path: str) -> tuple[list[Span], dict]:
    with open(path) as fh:
        counts = json.loads(fh.readline())["counts"]
        spans = [Span(*json.loads(line)) for line in fh]
    return spans, counts


def _wrap(fn, name: str, recorder: Recorder):
    on_result = _ON_RESULT.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        cpu = time.process_time() if on_result else 0.0
        token = recorder.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(token, name)
        if on_result:
            recorder.counts[f"{name}.cpu_s"] += time.process_time() - cpu
            on_result(recorder.counts, args, result)
        return result

    return traced


def span_cost_ns(calls: int = 10000, repeats: int = 5) -> float:
    """Wrapper time per call that lands outside the call's own span.

    That time (the wrapper's own call, the stack push and pop, building and
    storing the Span) is counted in the caller's span.  It is the extra time
    of a loop of traced no-op calls over a loop of bare ones, less the time
    inside the recorded spans; the median of REPEATS such loops.
    """

    def noop():
        return None

    estimates = []
    for _ in range(repeats):
        recorder = Recorder("span-cost")
        traced = _wrap(noop, "noop", recorder)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        inside = sum(s.end - s.start for s in recorder.spans)
        estimates.append(((t2 - t1) - (t1 - t0) - inside) * 1e9 / calls)
    return statistics.median(estimates)


def _count_ensemble(counts, args, result):
    run = args[0]
    counts["em.chain_steps"] += run.m_chains * (run.checkpoints[-1] if run.checkpoints else 0)
    counts["em.aborted_chains"] += result.abort_count


def _count_draws(counts, args, result):
    counts["sampling.sample_stable_1d.draws"] += result.size


_ON_RESULT = {
    "em.run_ensemble": _count_ensemble,
    "sampling.sample_stable_1d": _count_draws,
}


def instrument(recorder: Recorder) -> None:
    """Wrap the layer entry points listed in the module docstring."""
    import stableem.cli as cli
    import stableem.experiments as experiments
    import stableem.rng as rng
    from stableem.schedule import StepSchedule

    targets = [
        (rng, "derive_stream", "rng.derive_stream"),
        (StepSchedule, "t_grid", "schedule.t_grid"),
        (cli, "load_config", "config.load_config"),
        (cli, "run_experiment", "experiments.run_experiment"),
        (cli, "emit_outputs", "cli.emit_outputs"),
    ]
    for attr, obj in vars(experiments).items():
        module = getattr(obj, "__module__", "") or ""
        if (
            inspect.isfunction(obj)
            and module.startswith("stableem.")
            and module != experiments.__name__
        ):
            targets.append((experiments, attr, f"{module.rsplit('.', 1)[1]}.{attr}"))

    for holder, attr, name in targets:
        original = getattr(holder, attr)
        setattr(holder, attr, _wrap(original, name, recorder))


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, lo, hi = 0.0, None, None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, float], float]:
    """Self time of each span, and the summed overlap between sibling spans.

    Children are clipped to their parent's interval.  For a tree of spans the
    self times sum to the root's duration plus the returned overlap, which is
    nonzero only where sibling spans ran at the same time on different
    threads.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    selfs, overlap = {}, 0.0
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        covered = union_length(kids)
        selfs[s.id] = (s.end - s.start) - covered
        overlap += sum(max(0.0, b - a) for a, b in kids) - covered
    return selfs, overlap
