"""The two decreasing-step EM iterations, the exact 1-D OU reference, ensembles.

The ensemble engine is 1-D: it runs a drift of dimension 1 from a scalar
x0, with the noise dZ of dX = b(X) dt + dZ.  ``step_law`` is the one
statement of each scheme's step; run_ensemble advances many chains by it.

Draw order, contract 4 (``rng.RNG_CONTRACT``), stated here once.  Chains
run in blocks of _BLOCK_CHAINS (block k holds chains k B .. k B + B - 1;
the last block may be shorter) and steps in chunks of _STEP_CHUNK (chunk c
holds steps c C .. c C + C - 1; the last chunk may be shorter).  The
innovations of chunk c of block k come from the one stream (master_seed,
``rng.chunk_stream(k, c)``), which ``rng.derive_stream`` builds for the
chunk, as C B innovations in (step, chain) order.  Each variate array of
the chunk is filled with one generator call: the uniforms, then for CMS
the exponentials.  A CMS innovation takes one uniform and one exponential,
a 1-D Pareto innovation one uniform, which gives both its sign and its
radius.  The 1-D samplers draw in the same order from their own stream,
so chunk (k, c) is what a sampler's C B draws from stream (master_seed,
``chunk_stream(k, c)``) give, laid out as (C, B).  A chain's innovations
are its column of its block's chunks: chain i does not draw what a
sampler draws from stream (master_seed, i).  _BLOCK_CHAINS and _STEP_CHUNK
are part of the draw order, so output is bit-reproducible for a fixed
configuration regardless of worker count.

run_ensemble takes the laws of the run's steps once (``step_law``) and
runs the blocks on one thread pool, whatever the worker count: shard t of
T holds blocks t, t + T, t + 2T, ...  Each shard allocates one
``sampling.Innovations`` for one chunk on the pool thread that runs it,
reuses it for every block of the shard, and draws each chunk into it
(``_fill_chunk``).  The step loop reads the innovations' (C, B) view,
scales and adds it in place, row by row, so the transforms and the steps
work on contiguous operands and NumPy allocates no iteration buffers for
them.  A block writes its checkpoint rows straight into the run's
(checkpoint, chain) array, which run_ensemble returns as
``EnsembleResult.samples``; the checkpoints' n, t_n and gamma_n are the
schedule's.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .cf_oracle import exact_ou_scale_pow
from .drift import DriftModel
from .sampling import CMS, PARETO, Innovations, check_noise, noise_constants
from .schedule import StepSchedule

STABLE_EM = "stable-em"
PARETO_EM = "pareto-em"
EXACT_OU = "exact-ou"
SCHEMES = (STABLE_EM, PARETO_EM, EXACT_OU)

# Fixed internals of the block engine, both part of the draw order (see the
# module docstring); neither depends on the worker count.  A worker's chunk
# arrays hold _STEP_CHUNK x _BLOCK_CHAINS doubles each (512 KiB, one
# sampling._PIECE, so a chunk is transformed in one piece), and a chunk's
# draws, transforms and steps stay in cache.
_STEP_CHUNK = 32
_BLOCK_CHAINS = 2048

#: Fraction of chains allowed to hit non-finite positions before the run fails.
ABORT_BUDGET = 1e-3


@dataclass(frozen=True)
class EnsembleRun:
    """m_chains 1-D chains of ``scheme`` at stability index alpha, each started at x0."""

    scheme: str
    alpha: float
    drift: DriftModel
    schedule: StepSchedule
    m_chains: int
    x0: float
    checkpoints: tuple[int, ...]
    master_seed: int

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        check_noise(self.alpha, self.drift.dim)
        if self.drift.dim != 1:
            raise ValueError(f"the engine is 1-D: drift dim must be 1, got {self.drift.dim}")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if not np.isfinite(self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if self.m_chains < 1:
            raise ValueError("m_chains must be >= 1")
        cps = tuple(int(c) for c in self.checkpoints)
        if any(b <= a for a, b in zip(cps, cps[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if any(c < 0 for c in cps):
            raise ValueError("checkpoints must be nonnegative")
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "checkpoints", cps)
        if self.scheme == EXACT_OU and self.drift.name != "ou":
            raise ValueError("exact-ou requires the ou drift")


@dataclass
class EnsembleResult:
    samples: np.ndarray  # (checkpoint, m): row j is the chains at checkpoints[j]; aborted ones NaN
    abort_count: int


# ---------------------------------------------------------------------------
# Block engine.
# ---------------------------------------------------------------------------


def step_law(scheme: str, alpha: float, gamma) -> tuple:
    """The law of one step of ``scheme`` from x at step size gamma, as (kind, scale, decay):

    stable-em  x' = x + gamma b(x) + gamma^{1/alpha} zeta,
    pareto-em  x' = x + gamma b(x) + (gamma^{1/alpha}/beta) Ztilde,
    exact-ou   x' = e^{-gamma} x + sigma(gamma) zeta   (b = -x),

    with sigma(gamma)^alpha = ``cf_oracle.exact_ou_scale_pow(alpha, gamma)``:
    ``kind`` is the innovation's (``sampling.CMS`` for zeta, ``PARETO`` for
    Ztilde), ``scale`` its factor, and ``decay`` e^{-gamma} for exact-ou and
    None for the EM schemes.  gamma may be an array of steps.
    """
    if scheme == STABLE_EM:
        return CMS, gamma ** (1.0 / alpha), None
    if scheme == PARETO_EM:
        return PARETO, gamma ** (1.0 / alpha) / noise_constants(alpha, 1).beta, None
    if scheme == EXACT_OU:
        return CMS, exact_ou_scale_pow(alpha, gamma) ** (1.0 / alpha), np.exp(-gamma)
    raise ValueError(f"unknown scheme {scheme!r}")


def _fill_chunk(cfg: EnsembleRun, ws: Innovations, block: int, chunk: int, steps: int, chains: int):
    """Chunk ``chunk`` of block ``block``: the innovations of ``steps`` steps of ``chains`` chains.

    They are drawn from stream (master_seed, ``rng.chunk_stream(block,
    chunk)``) into the first steps * chains entries of ``ws``, returned as
    a (steps, chains) view.
    """
    gen = rngmod.derive_stream(cfg.master_seed, rngmod.chunk_stream(block, chunk))
    return ws.draw(gen, cfg.alpha, steps * chains).reshape(steps, chains)


def _run_block(cfg: EnsembleRun, lo: int, hi: int, plan: tuple, ws: Innovations, samples):
    """Chains lo..hi-1 through every checkpoint, by the steps of ``plan``.

    ``plan`` is (gamma, scale, decay, rows): x_n to x_{n+1} is the step of
    ``step_law`` at gamma[n], whose innovation scale is scale[n] and decay
    (exact-ou only) decay[n].  Checkpoint n is row rows[n] of ``samples``
    (checkpoint, m); the chains' positions go to its columns lo..hi-1.
    """
    g, scale, decay, rows = plan
    n_max = cfg.checkpoints[-1] if cfg.checkpoints else 0
    x = np.full(hi - lo, cfg.x0)
    out = samples[:, lo:hi]
    if 0 in rows:
        out[rows[0]] = x

    for n in range(0, n_max, _STEP_CHUNK):
        n1 = min(n + _STEP_CHUNK, n_max)
        z = _fill_chunk(cfg, ws, lo // _BLOCK_CHAINS, n // _STEP_CHUNK, n1 - n, hi - lo)
        z *= scale[n:n1, None]
        for s in range(n1 - n):
            step = n + s  # advancing from step index `step` to `step + 1`
            zeta = z[s]
            # In place, with the rounding of decay*x + scale*zeta and of
            # (x + g*b(x)) + scale*zeta.
            if decay is not None:
                x *= decay[step]
            else:
                drift = g[step] * cfg.drift(x)
                drift += x
                x = drift
            x += zeta
            if step + 1 in rows:
                out[rows[step + 1]] = x


def run_ensemble(cfg: EnsembleRun, workers: int = 1) -> EnsembleResult:
    """Advance m_chains independent chains, recording their positions at each checkpoint.

    Chains shard into blocks of a fixed size; worker t of T = min(workers,
    blocks) pool threads runs blocks t, t + T, t + 2T, ... and writes them
    at their fixed chain range, so any worker count produces identical
    output.  The first worker error is raised once every thread has ended.
    A chain aborts when any of its positions is non-finite; a non-finite
    position stays non-finite under every step, and x0 is finite.  Its
    positions are then NaN, and the run fails if more than ABORT_BUDGET of
    the chains abort.
    """
    n_max = cfg.checkpoints[-1] if cfg.checkpoints else 0
    gamma = cfg.schedule.gammas(n_max) if n_max else np.empty(0)
    kind, scale, decay = step_law(cfg.scheme, cfg.alpha, gamma)
    plan = gamma, scale, decay, {n: j for j, n in enumerate(cfg.checkpoints)}

    block = _BLOCK_CHAINS
    starts = range(0, cfg.m_chains, block)
    if n_max:  # a run past the engine's stream-id fields fails before any work
        rngmod.chunk_stream(len(starts) - 1, (n_max - 1) // _STEP_CHUNK)
    size = min(block, cfg.m_chains) * min(n_max, _STEP_CHUNK)
    samples = np.empty((len(cfg.checkpoints), cfg.m_chains))

    def work(mine):
        ws = Innovations(kind, size)
        for lo in mine:
            _run_block(cfg, lo, min(lo + block, cfg.m_chains), plan, ws, samples)

    threads = min(workers, len(starts))
    with ThreadPoolExecutor(threads) as pool:
        # Leaving the block waits for every thread, also when result() raises.
        for shard in [pool.submit(work, starts[t::threads]) for t in range(threads)]:
            shard.result()

    nonfinite = ~np.isfinite(samples)
    samples[nonfinite] = np.nan
    abort_count = int(nonfinite.any(axis=0).sum())
    if abort_count > ABORT_BUDGET * cfg.m_chains:
        raise RuntimeError(
            f"{abort_count}/{cfg.m_chains} chains hit non-finite positions "
            f"(budget {ABORT_BUDGET:.1%})"
        )
    return EnsembleResult(samples=samples, abort_count=abort_count)


def empirical_moment(xs: np.ndarray, kappa: float, alpha: float) -> float:
    """(1/m) sum_i |x_i|^kappa over the finite x_i; refuses kappa >= alpha (infinite moment)."""
    if kappa >= alpha:
        raise ValueError(
            f"kappa={kappa} >= alpha={alpha}: stable laws have no finite alpha-moment, "
            "the empirical average would not converge"
        )
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    powers = np.abs(xs)
    np.power(powers, kappa, out=powers)
    total = powers.sum()
    if np.isnan(total):  # aborted chains are NaN; average over the others
        return float(np.nanmean(powers))
    return float(total / powers.size)
