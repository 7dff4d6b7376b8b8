import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from stableem import em
from stableem.drift import builtin_ou, builtin_perturbed_ou, DriftModel
from stableem.cf_oracle import exact_ou_scale_pow
from stableem.em import EnsembleRun, empirical_moment, run_ensemble
from stableem.metrics import ecf
from stableem.rng import derive_stream
from stableem.sampling import (
    noise_constants,
    sample_pareto_vec,
    sample_stable_1d,
    sample_stable_vec,
)
from stableem.schedule import StepSchedule

ALPHA = 1.5
SCHED = StepSchedule.c_over_rho_n(c=0.5, rho=1.0, theta=1.0 / ALPHA)
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
        x0=np.array([x0]),
        checkpoints=checkpoints,
        master_seed=seed,
    )
    return run_ensemble(cfg, workers=workers)


def test_checkpoint_zero_is_initial_condition():
    res = _run("stable-em", 5, (0, 2), x0=1.5)
    np.testing.assert_array_equal(res.snapshots[0].samples, np.full((5, 1), 1.5))
    assert res.snapshots[0].t == 0.0


def test_engine_matches_single_chain_steps():
    # chain i consumes stream (seed, i): replay chain 1 with the stable-EM
    # step x <- x - gamma x + gamma^{1/alpha} zeta on b(x) = -x, drawing in
    # the engine's documented order
    res = _run("stable-em", 3, (1, 2, 3, 4), seed=11)
    gen = derive_stream(11, 1)
    u = np.pi * (gen.random(4) - 0.5)
    w = gen.standard_exponential(4)
    z = (np.sin(ALPHA * u) / np.cos(u) ** (1 / ALPHA)) * (
        np.cos(u - ALPHA * u) / w
    ) ** ((1 - ALPHA) / ALPHA)
    x = 0.0
    for k in range(4):
        g = SCHED.gamma_at(k + 1)
        x = x - g * x + g ** (1 / ALPHA) * z[k]
        assert res.snapshots[k].samples[1, 0] == pytest.approx(x, rel=1e-12)


def test_worker_count_does_not_change_output():
    a = _run("pareto-em", 4000, (8, 64), seed=3, workers=1)
    b = _run("pareto-em", 4000, (8, 64), seed=3, workers=4)
    for sa, sb in zip(a.snapshots, b.snapshots):
        np.testing.assert_array_equal(sa.samples, sb.samples)


def _reference_innovations(scheme, alpha, d, gens, C):
    """One chunk of C steps, drawn chain by chain: shape (m, C, d)."""
    m = len(gens)
    if scheme in ("stable-em", "exact-ou") and d == 1:
        u, w = np.empty((m, C)), np.empty((m, C))
        for i, gen in enumerate(gens):
            u[i] = gen.random(C)
            w[i] = gen.standard_exponential(C)
        u = np.pi * (u - 0.5)
        z = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
            np.cos(u - alpha * u) / w
        ) ** ((1.0 - alpha) / alpha)
        return z[:, :, None]
    if scheme == "stable-em":
        rho = alpha / 2.0
        th, w, g = np.empty((m, C)), np.empty((m, C)), np.empty((m, C, d))
        for i, gen in enumerate(gens):
            th[i] = gen.random(C)
            w[i] = gen.standard_exponential(C)
            g[i] = gen.standard_normal((C, d))
        th *= np.pi
        s = (
            np.sin(rho * th)
            * np.sin((1.0 - rho) * th) ** ((1.0 - rho) / rho)
            / np.sin(th) ** (1.0 / rho)
        ) * w ** (-(1.0 - rho) / rho)
        return np.sqrt(2.0 * s)[:, :, None] * g
    v = np.empty((m, C))
    if d == 1:
        su = np.empty((m, C))
        for i, gen in enumerate(gens):
            v[i] = gen.random(C)
            su[i] = gen.random(C)
        r = v ** (-1.0 / alpha)
        return np.where(su < 0.5, -r, r)[:, :, None]
    g = np.empty((m, C, d))
    for i, gen in enumerate(gens):
        v[i] = gen.random(C)
        g[i] = gen.standard_normal((C, d))
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    return (v ** (-1.0 / alpha))[:, :, None] * g


def _reference_ensemble(cfg):
    """The engine as it was with one derive_stream generator per chain.

    Chain i draws whole chunks of em._STEP_CHUNK steps from stream
    (seed, i), continuing the same stream from chunk to chunk.
    """
    alpha, d = cfg.alpha, cfg.drift.dim
    n_max = cfg.checkpoints[-1]
    g = cfg.schedule.gammas(n_max)
    if cfg.scheme == "stable-em":
        scale = g ** (1.0 / alpha)
    elif cfg.scheme == "pareto-em":
        scale = g ** (1.0 / alpha) / noise_constants(alpha, d).beta
    else:
        scale = ((1.0 - np.exp(-alpha * g)) / alpha) ** (1.0 / alpha)
        decay = np.exp(-g)
    gens = [derive_stream(cfg.master_seed, i) for i in range(cfg.m_chains)]
    x = np.tile(cfg.x0, (cfg.m_chains, 1))
    snaps = {0: x}
    n = 0
    while n < n_max:
        n1 = min(n + em._STEP_CHUNK, n_max)
        innov = _reference_innovations(cfg.scheme, alpha, d, gens, n1 - n)
        for s in range(n1 - n):
            step = n + s
            zeta = innov[:, s, :]
            if cfg.scheme == "exact-ou":
                x = decay[step] * x + scale[step] * zeta
            else:
                x = x + g[step] * cfg.drift(x) + scale[step] * zeta
            snaps[step + 1] = x
        n = n1
    return [snaps[n] for n in cfg.checkpoints]


# (scheme, d, drift) by test id.  The ids are kept from when each case also
# named a noise matrix A (None for A = I), so the test names stay stable.
_ENGINE_CASES = {
    "stable-em-1-None-ou": ("stable-em", 1, "ou"),
    "stable-em-3-None-ou": ("stable-em", 3, "ou"),
    "pareto-em-1-None-ou": ("pareto-em", 1, "ou"),
    "pareto-em-3-None-ou": ("pareto-em", 3, "ou"),
    "exact-ou-1-None-ou": ("exact-ou", 1, "ou"),
    "stable-em-2-matrix_a5-perturbed": ("stable-em", 2, "perturbed"),
    "pareto-em-2-matrix_a6-ou": ("pareto-em", 2, "ou"),
    "pareto-em-1-matrix_a7-perturbed": ("pareto-em", 1, "perturbed"),
}


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("scheme, d, drift", list(_ENGINE_CASES.values()), ids=list(_ENGINE_CASES))
def test_engine_matches_per_chain_reference(monkeypatch, chunk, workers, scheme, d, drift):
    # Small blocks and tiles, so that workers 2 shares the chains out and the
    # transforms run tile by tile.  With chunk = 5 and n_max = 13 every chain's
    # stream has to continue across two chunk boundaries.  The blocks hold 2
    # to 14 chains, depending on d and the chunk.
    block = 70 * d // (min(13, chunk or em._STEP_CHUNK) * max(d, 2))
    monkeypatch.setattr(em, "_BLOCK_CHAINS", block)
    monkeypatch.setattr(em, "_TILE_DOUBLES", 64)
    if chunk is not None:
        monkeypatch.setattr(em, "_STEP_CHUNK", chunk)
    cfg = EnsembleRun(
        scheme=scheme,
        alpha=ALPHA,
        drift=builtin_ou(d) if drift == "ou" else builtin_perturbed_ou(d, 0.3),
        schedule=SCHED,
        m_chains=23,
        x0=np.linspace(0.5, -0.5, d),
        checkpoints=(0, 4, 5, 11, 13),
        master_seed=2024,
    )
    want = _reference_ensemble(cfg)
    got = run_ensemble(cfg, workers=workers)
    for snap, ref in zip(got.snapshots, want):
        np.testing.assert_array_equal(snap.samples, ref)


@pytest.mark.parametrize("scheme", ["stable-em", "pareto-em"])
@pytest.mark.parametrize("d", [1, 3])
def test_first_chunk_is_what_the_samplers_draw(monkeypatch, scheme, d):
    # The engine and the samplers draw through one definition of the draw
    # order: chain i's first chunk of C innovations is the sampler's C draws
    # from stream (seed, i), also when the rows are transformed in tiles.
    monkeypatch.setattr(em, "_TILE_DOUBLES", 64)
    C, lo, m, seed = 7, 4, 9, 31
    cfg = EnsembleRun(
        scheme=scheme,
        alpha=ALPHA,
        drift=builtin_ou(d),
        schedule=SCHED,
        m_chains=lo + m,
        x0=np.zeros(d),
        checkpoints=(C,),
        master_seed=seed,
    )
    z = np.empty((C, m, d))
    assert em._fill_chunk(cfg, em._Workspace(cfg, m, C), lo, z, None, keep=False) is None
    for i in range(m):
        gen = derive_stream(seed, lo + i)
        if scheme == "pareto-em":
            want = sample_pareto_vec(ALPHA, d, gen, C)
        elif d == 1:
            want = sample_stable_1d(ALPHA, gen, C)[:, None]
        else:
            want = sample_stable_vec(ALPHA, d, gen, C)
        np.testing.assert_array_equal(z[:, i], want)


@pytest.mark.parametrize("m, blocks", [(3, 1), (10, 3)])
def test_no_more_threads_than_blocks(monkeypatch, block_spy, m, blocks):
    # Blocks of 4 chains: 3 chains make one block, run in the calling thread;
    # 10 make three, run by three threads, each with one workspace.
    monkeypatch.setattr(em, "_BLOCK_CHAINS", 4)
    _run("stable-em", m, (3,), seed=5, workers=6)
    assert sorted(lo for lo, _ in block_spy.blocks) == list(range(0, m, 4))
    assert len(block_spy.workspaces) == len(set(block_spy.workspaces)) == blocks
    assert {thread for _, thread in block_spy.blocks} <= set(block_spy.workspaces)
    if blocks == 1:
        assert block_spy.workspaces == [threading.current_thread()]


def test_each_block_runs_once_under_fast_thread_switching(monkeypatch, block_spy):
    # More workers than cores take 34 blocks of 3 chains from the shared
    # counter while the interpreter switches threads every microsecond.
    monkeypatch.setattr(em, "_BLOCK_CHAINS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run("pareto-em", 100, (5,), seed=9, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(lo for lo, _ in block_spy.blocks) == list(range(0, 100, 3))
    want = _run("pareto-em", 100, (5,), seed=9)
    np.testing.assert_array_equal(got.snapshots[0].samples, want.snapshots[0].samples)


def test_footprint_is_the_snapshots_and_one_workspace_per_worker():
    # Two workspaces of a 1024 x 2048 innovation array and a tile each, plus
    # the snapshots: about 37 MB.  One array of 2^24 doubles per block made
    # this run peak at 170 MB.
    cfg = EnsembleRun(
        scheme="exact-ou",
        alpha=ALPHA,
        drift=OU,
        schedule=SCHED,
        m_chains=20_000,
        x0=np.array([0.0]),
        checkpoints=(16, 64, 256, 1024),
        master_seed=42,
    )
    tracemalloc.start()
    try:
        run_ensemble(cfg, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_exact_ou_one_step_law():
    m = 100_000
    snap = _run("exact-ou", m, (1,), seed=17, x0=2.0).snapshots[0]
    g = SCHED.gamma_at(1)
    lams = np.array([0.5, 1.0, 2.0])
    want = np.exp(1j * lams * math.exp(-g) * 2.0 - exact_ou_scale_pow(ALPHA, g) * lams**ALPHA)
    emp = ecf(snap.samples[:, 0], lams)
    assert np.max(np.abs(emp - want)) < 4.0 / math.sqrt(m)


def test_exact_ou_validation():
    with pytest.raises(ValueError):
        EnsembleRun(
            scheme="exact-ou",
            alpha=ALPHA,
            drift=builtin_ou(2),
            schedule=SCHED,
            m_chains=1,
            x0=np.zeros(2),
            checkpoints=(1,),
            master_seed=0,
        )


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
        x0=np.array([1.0]),
        checkpoints=(8,),
        master_seed=0,
    )
    with pytest.raises(RuntimeError, match="non-finite"):
        run_ensemble(cfg)


def test_empirical_moment():
    snap = _run("pareto-em", 1000, (16,)).snapshots[0]
    mom = empirical_moment(snap, 1.2, ALPHA)
    assert mom > 0.0
    with pytest.raises(ValueError):
        empirical_moment(snap, 1.5, ALPHA)  # kappa must stay below alpha
    with pytest.raises(ValueError):
        empirical_moment(snap, 0.5, ALPHA)
