"""The two decreasing-step EM iterations, the exact 1-D OU reference, ensembles.

The noise is isotropic, A = I in dX = b(X) dt + A dZ, and has the
dimension of the drift.  run_ensemble advances many chains; ``_run_block``
holds the one definition of each scheme's step.  Chain i of an ensemble
always consumes stream (master_seed, i) in a fixed scheme-defined order, so
output is bit-reproducible for a fixed configuration regardless of worker
count.

Chains run in blocks of _BLOCK_CHAINS.  Each worker thread holds one
``_Workspace``, allocated once per run and reused for every block it takes:
one Philox generator from ``rng.derive_stream``, moved from chain to chain
with ``rng.reposition``; the (step, chain, d) innovation array; and the
tile buffers and transform scratch.  Each chain draws the innovations of a
whole chunk of _STEP_CHUNK steps at a time, in the order that
``sampling.draw_variates`` defines, so _STEP_CHUNK is part of the draw
order: the first chunk of chain i is exactly what the matching sampler
draws from stream (master_seed, i).  A chain that spans several chunks
resumes its own stream from the state the previous chunk left it in.
Draws go into a small tile, are turned into innovations there by
``sampling.transform_variates`` and are copied into the innovation array,
so each step reads, scales and adds one contiguous row in place.  The
transforms and the steps work on contiguous operands, so NumPy allocates
no iteration buffers for them.  A block writes its checkpoint rows straight
into the run's output.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .drift import DriftModel
from .sampling import (
    CMS,
    PARETO,
    SUBORDINATED,
    check_noise,
    draw_variates,
    noise_constants,
    transform_scratch,
    transform_variates,
    variate_arrays,
    variates,
)
from .schedule import StepSchedule

STABLE_EM = "stable-em"
PARETO_EM = "pareto-em"
EXACT_OU = "exact-ou"
SCHEMES = (STABLE_EM, PARETO_EM, EXACT_OU)

# Fixed internals of the block engine; never depend on worker count.
# _STEP_CHUNK is part of the draw order: each chain draws the variates of a
# whole chunk of steps at a time (see sampling.draw_variates).
_STEP_CHUNK = 8192
# Chains per block.  A worker's innovation array holds min(n, _STEP_CHUNK) x
# _BLOCK_CHAINS x d doubles: 16 MiB at n = 1024 and d = 1, 128 MiB at n >= 8192.
_BLOCK_CHAINS = 2048
_TILE_DOUBLES = 1 << 16  # draws per tile: drawn, transformed and placed at a time

#: Fraction of chains allowed to hit non-finite positions before the run fails.
ABORT_BUDGET = 1e-3


@dataclass(frozen=True)
class EnsembleRun:
    """m_chains chains of ``scheme`` at stability index alpha, in the dimension of the drift."""

    scheme: str
    alpha: float
    drift: DriftModel
    schedule: StepSchedule
    m_chains: int
    x0: np.ndarray
    checkpoints: tuple[int, ...]
    master_seed: int

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        check_noise(self.alpha, self.drift.dim)
        if self.m_chains < 1:
            raise ValueError("m_chains must be >= 1")
        cps = tuple(int(c) for c in self.checkpoints)
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if any(c < 0 for c in cps):
            raise ValueError("checkpoints must be nonnegative")
        x0 = np.broadcast_to(np.asarray(self.x0, dtype=float).ravel(), (self.drift.dim,)).copy()
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "checkpoints", cps)
        if self.scheme == EXACT_OU:
            if self.drift.dim != 1:
                raise ValueError("exact-ou is 1-D only")
            if self.drift.name != "ou":
                raise ValueError("exact-ou requires the ou drift")


@dataclass
class Snapshot:
    n: int
    t: float
    gamma_n: float
    samples: np.ndarray  # (m, d); aborted chains are NaN rows


@dataclass
class EnsembleResult:
    snapshots: list[Snapshot]
    abort_count: int
    m_chains: int


# ---------------------------------------------------------------------------
# Block engine.
# ---------------------------------------------------------------------------


class _Workspace:
    """One worker thread's buffers, allocated once per run and reused by every block it runs.

    ``gen`` is one Philox generator that blocks reposition from chain to
    chain, ``innov`` the (C, B, d) innovations of a chunk of C steps of B
    chains, and ``tile(C)`` the variates, innovations and transform scratch
    of one tile of chains for chunks of C steps.
    """

    def __init__(self, cfg: EnsembleRun, chains: int, steps: int):
        self.dim, self.chains = cfg.drift.dim, chains
        # stable-em and exact-ou draw stable innovations: CMS in 1-D, subordinated above.
        self.kind = PARETO if cfg.scheme == PARETO_EM else CMS if self.dim == 1 else SUBORDINATED
        self.gen = rngmod.derive_stream(cfg.master_seed, 0)
        self.innov = np.empty((steps, chains, self.dim))
        self._tiles = {}

    def tile(self, steps: int):
        """(variates, innovations, scratch) of a tile, for chunks of ``steps`` steps.

        The last chunk of a run may be shorter than the others.
        """
        if steps not in self._tiles:
            width = sum(variates(self.kind, self.dim)) * steps
            rows = min(self.chains, max(1, _TILE_DOUBLES // width))
            self._tiles[steps] = (
                variate_arrays(self.kind, self.dim, rows, steps),
                np.empty((rows, steps, self.dim)),
                transform_scratch(self.kind, rows, steps, self.dim),
            )
        return self._tiles[steps]


def _fill_chunk(cfg: EnsembleRun, ws: _Workspace, lo, z, states, keep):
    """Innovations of the next C steps of chains lo, lo+1, ..., into z (C, B, d).

    Tile by tile of about _TILE_DOUBLES draws: the workspace's generator is
    moved to each chain's stream in turn (to its start on the first chunk,
    or to the state ``states[i]`` in which the previous chunk left chain
    lo+i) and draws the variates of C innovations into that chain's row of
    the tile.  The tile is transformed in this (chain, step) layout and
    copied to its (step, chain) place in z.  With ``keep`` the chains'
    states at the end of the chunk are returned.
    """
    C, B, d = z.shape
    drawn, buf, scratch = ws.tile(C)
    gen = ws.gen
    bitgen = gen.bit_generator
    saved = [] if keep else None
    for i0 in range(0, B, len(buf)):
        t = buf[: B - i0]
        v = [a[: len(t)] for a in drawn]
        for i in range(len(t)):
            if states is None:
                rngmod.reposition(gen, cfg.master_seed, lo + i0 + i)
            else:
                bitgen.state = states[i0 + i]
            draw_variates(gen, ws.kind, d, [a[i] for a in v])
            if keep:
                saved.append(bitgen.state)
        transform_variates(ws.kind, cfg.alpha, v, t, scratch)
        z[:, i0 : i0 + len(t)] = t.transpose(1, 0, 2)
    return saved


def _run_block(cfg: EnsembleRun, lo: int, hi: int, g, cp_set, ws: _Workspace, samples, aborted):
    """Chains lo..hi-1 through every checkpoint, with the step gamma = g[n] from x_n to x_{n+1}:

    stable-em  x' = x + gamma b(x) + gamma^{1/alpha} zeta,
    pareto-em  x' = x + gamma b(x) + (gamma^{1/alpha}/beta) Ztilde,
    exact-ou   x' = e^{-gamma} x + sigma(gamma) zeta   (b = -x),

    with sigma(gamma)^alpha = ``cf_oracle.exact_ou_scale_pow(alpha, gamma)``.
    The noise is isotropic (A = I), so each step adds its innovations as
    drawn.

    The chains' snapshots go to rows lo..hi-1 of ``samples`` (m, checkpoint,
    d) and their abort flags to the same rows of ``aborted``.
    """
    alpha = cfg.alpha
    n_max = cfg.checkpoints[-1] if cfg.checkpoints else 0
    beta = noise_constants(alpha, cfg.drift.dim).beta if cfg.scheme == PARETO_EM else None

    if cfg.scheme == STABLE_EM:
        scale = g ** (1.0 / alpha)
    elif cfg.scheme == PARETO_EM:
        scale = g ** (1.0 / alpha) / beta
    else:
        # sigma(gamma) as an array: NumPy's array exp and libm's scalar exp (in
        # exact_ou_scale_pow) differ in the last bit for some gamma, so the
        # scalar form would change the exact-OU chains.
        scale = ((1.0 - np.exp(-alpha * g)) / alpha) ** (1.0 / alpha)
        decay = np.exp(-g)

    x = np.tile(cfg.x0, (hi - lo, 1))
    out = samples[lo:hi]
    cp_index = {n: i for i, n in enumerate(cfg.checkpoints)}
    if 0 in cp_set:
        out[:, cp_index[0], :] = x

    states = None
    n = 0
    while n < n_max:
        n1 = min(n + _STEP_CHUNK, n_max)
        z = ws.innov[: n1 - n, : hi - lo]
        states = _fill_chunk(cfg, ws, lo, z, states, keep=n1 < n_max)
        for s in range(n1 - n):
            step = n + s  # advancing from step index `step` to `step + 1`
            zeta = z[s]
            zeta *= scale[step]
            # In place, with the rounding of decay*x + scale*zeta and of
            # (x + g*b(x)) + scale*zeta.
            if cfg.scheme == EXACT_OU:
                x *= decay[step]
            else:
                drift = g[step] * cfg.drift(x)
                drift += x
                x = drift
            x += zeta
            if (step + 1) in cp_set:
                out[:, cp_index[step + 1], :] = x
        n = n1
    bad = ~np.all(np.isfinite(x), axis=1)
    # A chain that overflowed mid-way stays non-finite forever, so marking
    # NaN rows checkpoint-wise after the fact is equivalent to an abort.
    for j in range(len(cfg.checkpoints)):
        nonfinite = ~np.all(np.isfinite(out[:, j, :]), axis=1)
        out[nonfinite, j, :] = np.nan
        bad |= nonfinite
    aborted[lo:hi] = bad


def run_ensemble(cfg: EnsembleRun, workers: int = 1) -> EnsembleResult:
    """Advance m_chains independent chains, recording checkpoint snapshots.

    Chains shard into blocks of a fixed size; min(workers, blocks) threads
    each take blocks in turn and write them at their fixed row range, so any
    worker count produces identical output.  A chain aborts on a non-finite
    position (NaN rows in snapshots); the run fails if more than
    ABORT_BUDGET of the chains abort.
    """
    d = cfg.drift.dim
    cp_set = frozenset(cfg.checkpoints)
    n_max = cfg.checkpoints[-1] if cfg.checkpoints else 0
    g = cfg.schedule.gammas(n_max) if n_max else np.empty(0)
    t = cfg.schedule.t_grid(n_max)

    block = _BLOCK_CHAINS
    starts = range(0, cfg.m_chains, block)
    next_start, lock = iter(starts), threading.Lock()
    samples = np.empty((cfg.m_chains, len(cfg.checkpoints), d))
    aborted = np.zeros(cfg.m_chains, dtype=bool)

    def work():
        ws = _Workspace(cfg, min(block, cfg.m_chains), min(n_max, _STEP_CHUNK))
        while True:
            with lock:
                lo = next(next_start, None)
            if lo is None:
                return
            _run_block(cfg, lo, min(lo + block, cfg.m_chains), g, cp_set, ws, samples, aborted)

    threads = min(workers, len(starts))
    if threads > 1:
        errors = []

        def guarded():
            try:
                work()
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)

        pool = [threading.Thread(target=guarded) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        if errors:
            raise errors[0]
    else:
        work()

    abort_count = int(aborted.sum())
    if abort_count > ABORT_BUDGET * cfg.m_chains:
        raise RuntimeError(
            f"{abort_count}/{cfg.m_chains} chains hit non-finite positions "
            f"(budget {ABORT_BUDGET:.1%})"
        )
    snaps = [
        Snapshot(n=n, t=float(t[n]), gamma_n=float(g[n - 1]) if n >= 1 else float("nan"),
                 samples=samples[:, j, :])
        for j, n in enumerate(cfg.checkpoints)
    ]
    return EnsembleResult(snapshots=snaps, abort_count=abort_count, m_chains=cfg.m_chains)


def empirical_moment(snap: Snapshot, kappa: float, alpha: float) -> float:
    """(1/m) sum_i |x_i|^kappa; refuses kappa >= alpha (infinite moment)."""
    if kappa >= alpha:
        raise ValueError(
            f"kappa={kappa} >= alpha={alpha}: stable laws have no finite alpha-moment, "
            "the empirical average would not converge"
        )
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    norms = np.linalg.norm(snap.samples, axis=1)
    return float(np.nanmean(norms**kappa))
