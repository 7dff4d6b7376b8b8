import math
import sys
import threading

import numpy as np
import pytest

from stableem import em
from stableem.drift import builtin_ou, builtin_perturbed_ou, DriftModel
from stableem.cf_oracle import exact_ou_scale_pow
from stableem.em import EnsembleRun, empirical_moment, run_ensemble
from stableem.metrics import ecf
from stableem.rng import chunk_stream, derive_stream
from stableem.sampling import (
    CMS,
    PARETO,
    Innovations,
    noise_constants,
    sample_pareto_vec,
    sample_stable_1d,
)
from stableem.schedule import StepSchedule

ALPHA = 1.5
SCHED = StepSchedule(gamma1=0.5, theta=1.0 / ALPHA)
OU = builtin_ou(1)


def test_exact_ou_sigma_small_gamma():
    # sigma(g)^alpha = (1 - e^{-alpha g})/alpha ~ g as g -> 0
    g = 1e-8
    assert exact_ou_scale_pow(ALPHA, g) ** (1 / ALPHA) == pytest.approx(g ** (1 / ALPHA), rel=1e-6)


def _run(scheme, m, checkpoints, seed=0, workers=1, x0=0.0):
    cfg = EnsembleRun(
        scheme=scheme,
        alpha=ALPHA,
        drift=OU,
        schedule=SCHED,
        m_chains=m,
        x0=x0,
        checkpoints=checkpoints,
        master_seed=seed,
    )
    return run_ensemble(cfg, workers=workers)


def test_checkpoint_zero_is_initial_condition():
    res = _run("stable-em", 5, (0, 2), x0=1.5)
    assert res.samples.shape == (2, 5)
    np.testing.assert_array_equal(res.samples[0], np.full(5, 1.5))


def test_engine_matches_single_chain_steps(monkeypatch):
    # Chunks of 3 steps, so the 4 steps of the one block of 3 chains take
    # streams chunk_stream(0, 0) and chunk_stream(0, 1).  Replay chain 1,
    # column 1 of each chunk's (step, chain) draws, with the stable-EM step
    # x <- x - gamma x + gamma^{1/alpha} zeta on b(x) = -x.
    monkeypatch.setattr(em, "_STEP_CHUNK", 3)
    res = _run("stable-em", 3, (1, 2, 3, 4), seed=11)
    u, w = [], []
    for chunk, steps in ((0, 3), (1, 1)):
        gen = derive_stream(11, chunk_stream(0, chunk))
        u.extend(gen.random((steps, 3))[:, 1])
        w.extend(gen.standard_exponential((steps, 3))[:, 1])
    u = np.pi * (np.array(u) - 0.5)
    z = (np.sin(ALPHA * u) / np.cos(u) ** (1 / ALPHA)) * (
        np.cos(u - ALPHA * u) / np.array(w)
    ) ** ((1 - ALPHA) / ALPHA)
    x = 0.0
    for k in range(4):
        g = SCHED.gamma_at(k + 1)
        x = x - g * x + g ** (1 / ALPHA) * z[k]
        assert res.samples[k, 1] == pytest.approx(x, rel=1e-12)


def test_worker_count_does_not_change_output():
    a = _run("pareto-em", 4000, (8, 64), seed=3, workers=1)
    b = _run("pareto-em", 4000, (8, 64), seed=3, workers=4)
    np.testing.assert_array_equal(a.samples, b.samples)


def _sampled(scheme, alpha, gen, size):
    """``size`` innovations of ``scheme`` from the public sampler that draws them."""
    if scheme == "pareto-em":
        return sample_pareto_vec(alpha, 1, gen, size)[:, 0]
    return sample_stable_1d(alpha, gen, size)


def _reference_ensemble(cfg):
    """The engine under draw-order contract 4, block by block and chunk by chunk.

    Chunk c of block k (em._BLOCK_CHAINS chains, em._STEP_CHUNK steps) is
    what the scheme's sampler draws from a newly derived stream
    (seed, chunk_stream(k, c)), laid out in (step, chain) order.
    """
    alpha = cfg.alpha
    B, C = em._BLOCK_CHAINS, em._STEP_CHUNK
    n_max = cfg.checkpoints[-1]
    g = cfg.schedule.gammas(n_max)
    if cfg.scheme == "stable-em":
        scale = g ** (1.0 / alpha)
    elif cfg.scheme == "pareto-em":
        scale = g ** (1.0 / alpha) / noise_constants(alpha, 1).beta
    else:
        scale = exact_ou_scale_pow(alpha, g) ** (1.0 / alpha)
        decay = np.exp(-g)
    snaps = {n: np.empty(cfg.m_chains) for n in cfg.checkpoints}
    for k, lo in enumerate(range(0, cfg.m_chains, B)):
        hi = min(lo + B, cfg.m_chains)
        x = np.full(hi - lo, cfg.x0)
        if 0 in snaps:
            snaps[0][lo:hi] = x
        for c, n in enumerate(range(0, n_max, C)):
            steps = min(C, n_max - n)
            gen = derive_stream(cfg.master_seed, chunk_stream(k, c))
            innov = _sampled(cfg.scheme, alpha, gen, steps * (hi - lo)).reshape(steps, hi - lo)
            for s in range(steps):
                step = n + s
                if cfg.scheme == "exact-ou":
                    x = decay[step] * x + scale[step] * innov[s]
                else:
                    x = x + g[step] * cfg.drift(x) + scale[step] * innov[s]
                if step + 1 in snaps:
                    snaps[step + 1][lo:hi] = x
    return [snaps[n] for n in cfg.checkpoints]


# (scheme, drift) by test id.  The ids are kept from when each case also
# named a dimension and a noise matrix A (None for A = I), so the test names
# stay stable.
_ENGINE_CASES = {
    "stable-em-1-None-ou": ("stable-em", "ou"),
    "stable-em-1-None-perturbed": ("stable-em", "perturbed"),
    "pareto-em-1-None-ou": ("pareto-em", "ou"),
    "pareto-em-1-matrix_a7-perturbed": ("pareto-em", "perturbed"),
    "exact-ou-1-None-ou": ("exact-ou", "ou"),
}


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scheme, drift", list(_ENGINE_CASES.values()), ids=list(_ENGINE_CASES))
def test_engine_matches_per_chain_reference(monkeypatch, chunk, workers, scheme, drift):
    # Blocks of 5 chains, so that workers 2 shares the 23 chains out and the
    # last block is short.  With chunk = 5 and n_max = 13 each block takes
    # three chunk streams, the last one short; with the default chunk, one.
    monkeypatch.setattr(em, "_BLOCK_CHAINS", 5)
    if chunk is not None:
        monkeypatch.setattr(em, "_STEP_CHUNK", chunk)
    cfg = EnsembleRun(
        scheme=scheme,
        alpha=ALPHA,
        drift=OU if drift == "ou" else builtin_perturbed_ou(1, 0.3),
        schedule=SCHED,
        m_chains=23,
        x0=0.5,
        checkpoints=(0, 4, 5, 11, 13),
        master_seed=2024,
    )
    want = _reference_ensemble(cfg)
    got = run_ensemble(cfg, workers=workers)
    for row, ref in zip(got.samples, want):
        np.testing.assert_array_equal(row, ref)


# The ids keep the dimension they named when the engine also ran d > 1.
@pytest.mark.parametrize("scheme", ["stable-em", "pareto-em"], ids=["1-stable-em", "1-pareto-em"])
def test_first_chunk_is_what_the_samplers_draw(scheme):
    # The engine and the samplers draw through one definition of the draw
    # order: chunk (k, c) of C steps of B chains is the sampler's C * B draws
    # from stream (seed, chunk_stream(k, c)), in (step, chain) order.
    C, B, seed = 7, 9, 31
    cfg = EnsembleRun(
        scheme=scheme,
        alpha=ALPHA,
        drift=OU,
        schedule=SCHED,
        m_chains=B,
        x0=0.0,
        checkpoints=(C,),
        master_seed=seed,
    )
    kind = PARETO if scheme == "pareto-em" else CMS
    ws = Innovations(kind, (B + 3) * (C + 2))  # a buffer larger than the chunk
    for block, chunk in ((0, 0), (3, 5)):
        z = em._fill_chunk(cfg, ws, block, chunk, C, B)
        gen = derive_stream(seed, chunk_stream(block, chunk))
        if scheme == "pareto-em":
            want = sample_pareto_vec(ALPHA, 1, gen, C * B)
        else:
            want = sample_stable_1d(ALPHA, gen, C * B)
        np.testing.assert_array_equal(z, want.reshape(C, B))


@pytest.mark.parametrize("m, blocks", [(3, 1), (10, 3)])
def test_no_more_threads_than_blocks(monkeypatch, block_spy, m, blocks):
    # Blocks of 4 chains and 6 workers: 3 chains make one block and one
    # shard, 10 make three blocks and three shards of one block each.  Each
    # shard allocates one buffer, on the pool thread that runs its blocks.
    monkeypatch.setattr(em, "_BLOCK_CHAINS", 4)
    _run("stable-em", m, (3,), seed=5, workers=6)
    assert sorted(lo for lo, _ in block_spy.blocks) == list(range(0, m, 4))
    assert len(block_spy.buffers) == blocks
    assert len({thread for _, thread in block_spy.blocks}) <= blocks
    assert {thread for _, thread in block_spy.blocks} <= set(block_spy.buffers)
    assert threading.current_thread() not in block_spy.buffers  # pool threads only


def test_each_block_runs_once_under_fast_thread_switching(monkeypatch, block_spy):
    # More workers than cores run 34 blocks of 3 chains, worker t taking
    # blocks t, t + 4, t + 8, ..., while the interpreter switches threads
    # every microsecond.
    monkeypatch.setattr(em, "_BLOCK_CHAINS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run("pareto-em", 100, (5,), seed=9, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(lo for lo, _ in block_spy.blocks) == list(range(0, 100, 3))
    want = _run("pareto-em", 100, (5,), seed=9)
    np.testing.assert_array_equal(got.samples, want.samples)


def test_footprint_is_the_snapshots_and_one_workspace_per_worker(traced_peak):
    # Two buffers of one 32-step chunk of 2048 chains each (six arrays of
    # 32 x 2048 doubles: u, w, three scratch, innovations), plus the snapshots:
    # about 6 MB, whatever n is.
    cfg = EnsembleRun(
        scheme="exact-ou",
        alpha=ALPHA,
        drift=OU,
        schedule=SCHED,
        m_chains=20_000,
        x0=0.0,
        checkpoints=(16, 64, 256, 1024),
        master_seed=42,
    )
    assert traced_peak(run_ensemble, cfg, workers=2) <= 10e6


def test_exact_ou_one_step_law():
    m = 100_000
    xs = _run("exact-ou", m, (1,), seed=17, x0=2.0).samples[0]
    g = SCHED.gamma_at(1)
    lams = np.array([0.5, 1.0, 2.0])
    want = np.exp(1j * lams * math.exp(-g) * 2.0 - exact_ou_scale_pow(ALPHA, g) * lams**ALPHA)
    emp = ecf(xs, lams)
    assert np.max(np.abs(emp - want)) < 4.0 / math.sqrt(m)


def test_engine_refuses_a_drift_above_one_dimension():
    for scheme in em.SCHEMES:
        with pytest.raises(ValueError, match="drift dim must be 1, got 2"):
            EnsembleRun(
                scheme=scheme,
                alpha=ALPHA,
                drift=builtin_ou(2),
                schedule=SCHED,
                m_chains=1,
                x0=0.0,
                checkpoints=(1,),
                master_seed=0,
            )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("master_seed", -5, r"master_seed must lie in \[0, 2\^64\), got -5"),
        ("x0", math.inf, "x0 must be finite, got inf"),
        ("m_chains", 0, "m_chains must be >= 1"),
        ("checkpoints", (-1, 4), "checkpoints must be nonnegative"),
        ("drift", builtin_perturbed_ou(1, 0.1), "exact-ou requires the ou drift"),
    ],
    ids=["master_seed", "x0", "m_chains", "checkpoints", "drift"],
)
def test_ensemble_run_refuses_bad_input_naming_the_field(field, value, message):
    # Refused when the run is built, before any work; with checkpoint 0 alone
    # a bad seed would otherwise draw nothing and pass silently.
    run = dict(
        scheme="exact-ou",
        alpha=ALPHA,
        drift=OU,
        schedule=SCHED,
        m_chains=10,
        x0=0.0,
        checkpoints=(0,),
        master_seed=0,
    )
    with pytest.raises(ValueError, match=message):
        EnsembleRun(**{**run, field: value})


def test_a_worker_error_reaches_the_caller_and_every_thread_ends(monkeypatch):
    # Two workers over three blocks: the drift fails in both threads, and the
    # caller gets the exception once both threads have ended.
    monkeypatch.setattr(em, "_BLOCK_CHAINS", 4)

    def failing(x):
        raise ArithmeticError("drift failed")

    cfg = EnsembleRun(
        scheme="stable-em",
        alpha=ALPHA,
        drift=DriftModel(fn=failing, dim=1, lipschitz_l=1.0, dissip_theta1=1.0, dissip_k=0.0),
        schedule=SCHED,
        m_chains=10,
        x0=0.0,
        checkpoints=(3,),
        master_seed=0,
    )
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="drift failed"):
        run_ensemble(cfg, workers=2)
    assert threading.active_count() == before


def test_checkpoints_must_increase():
    with pytest.raises(ValueError):
        _run("stable-em", 1, (4, 2))


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        _run("heun", 1, (1,))


def test_abort_budget_enforced():
    exploding = DriftModel(
        fn=lambda x: 1e160 * x, dim=1, lipschitz_l=1e160, dissip_theta1=1e-12, dissip_k=0.0
    )
    cfg = EnsembleRun(
        scheme="stable-em",
        alpha=ALPHA,
        drift=exploding,
        schedule=SCHED,
        m_chains=100,
        x0=1.0,
        checkpoints=(8,),
        master_seed=0,
    )
    with pytest.raises(RuntimeError, match="non-finite"):
        run_ensemble(cfg)


def test_empirical_moment():
    xs = _run("pareto-em", 1000, (16,)).samples[0]
    mom = empirical_moment(xs, 1.2, ALPHA)
    assert mom > 0.0
    with pytest.raises(ValueError):
        empirical_moment(xs, 1.5, ALPHA)  # kappa must stay below alpha
    with pytest.raises(ValueError):
        empirical_moment(xs, 0.5, ALPHA)
