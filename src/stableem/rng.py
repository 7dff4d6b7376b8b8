"""Deterministic random-stream derivation.

Every stream is a PCG64DXSM generator seeded from the pair (master_seed,
stream_id) by ``derive_stream``, the one constructor of every stream.
Both words must lie in [0, 2^64); each enters the SeedSequence entropy as
its two 32-bit halves, low first, so the entropy has a fixed width of four
words and distinct pairs give distinct, statistically independent streams.
The derived stream is a pure function of the pair, so results never depend
on how work is sharded across workers.  Disjoint stream-id ranges keep the
users apart:

* the samplers of ``stableem sample`` and ``certify-drift``: stream 0;
* reference ensembles: ``INVARIANT_STREAM + j``, ``FLOOR_STREAM + j`` and
  ``AUX_STREAM + j``;
* the 1-D ensemble engine: ``chunk_stream(block, chunk)``, one stream per
  block of chains and chunk of steps, drawn in the order that
  ``stableem.em`` states (draw order contract 4).
"""

from __future__ import annotations

import numpy as np

# Reserved stream-id offsets, far away from any index a caller adds to them.
INVARIANT_STREAM = 1 << 40
FLOOR_STREAM = 1 << 41
AUX_STREAM = 1 << 42
# Engine streams: CHUNK_STREAM | block << _CHUNK_BITS | chunk, so the range
# [2^43, 2^43 + 2^60) lies above every other one.
CHUNK_STREAM = 1 << 43
_CHUNK_BITS = 20
_BLOCK_BITS = 40

#: Version of the draw order, recorded in every run's summary.  4: every
#: stream is the PCG64DXSM generator of ``derive_stream`` (under 3 the pair
#: was the key of a counter-based generator).
RNG_CONTRACT = 4

#: Human-readable generator name, recorded in output metadata.
GENERATOR_NAME = (
    "pcg64dxsm seeded by SeedSequence(uint64 [master_seed, stream_id] as uint32 words, "
    "low first); engine chunk stream_id=(1<<43)|(block<<20)|chunk"
)


def chunk_stream(block: int, chunk: int) -> int:
    """The stream id of chunk ``chunk`` of steps of block ``block`` of chains in the engine."""
    for name, value, bits in (("block", block, _BLOCK_BITS), ("chunk", chunk, _CHUNK_BITS)):
        if not 0 <= value < 1 << bits:
            raise ValueError(f"{name} must lie in [0, 2^{bits}), got {value}")
    return CHUNK_STREAM | block << _CHUNK_BITS | chunk


def derive_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Return the generator of stream (master_seed, stream_id), both in [0, 2^64).

    PCG64DXSM seeded by SeedSequence of the four 32-bit words of the two
    64-bit words, low half first.
    """
    for name, value in (("master_seed", master_seed), ("stream_id", stream_id)):
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    words = np.array([master_seed, stream_id], dtype="<u8").view("<u4")
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(words)))
