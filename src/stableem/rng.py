"""Deterministic random-stream derivation.

Every stream is a counter-based Philox stream keyed by the pair
(master_seed, stream_id).  The derived stream is a pure function of that
pair, so results never depend on how work is sharded across workers.
Disjoint stream-id ranges keep the users apart:

* the samplers of ``stableem sample`` and ``certify-drift``: stream 0;
* reference ensembles: ``INVARIANT_STREAM + j``, ``FLOOR_STREAM + j`` and
  ``AUX_STREAM + j``;
* the 1-D ensemble engine: ``chunk_stream(block, chunk)``, one stream per
  block of chains and chunk of steps (draw order contract 3, see
  ``stableem.em``), from which ``sampling.innovations`` draws the chunk's
  C B innovations in (step, chain) order, as the samplers draw theirs.
  A chain's innovations are its column of its block's chunks, so chain i
  no longer draws what a sampler draws from stream (master_seed, i).

A stream is fixed by its key alone: counter and buffer start at zero.  So a
generator can be moved to the start of another stream by setting its
Philox state (``reposition``), which draws exactly what a newly derived
generator would, at a fraction of the cost of building one.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_ZEROS4 = (0, 0, 0, 0)  # plain ints: the state setter reads them faster than array items

# Reserved stream-id offsets, far away from any index a caller adds to them.
INVARIANT_STREAM = 1 << 40
FLOOR_STREAM = 1 << 41
AUX_STREAM = 1 << 42
# Engine streams: CHUNK_STREAM | block << _CHUNK_BITS | chunk, so the range
# [2^43, 2^43 + 2^60) lies above every other one.
CHUNK_STREAM = 1 << 43
_CHUNK_BITS = 20
_BLOCK_BITS = 40

#: Version of the engine's draw order, recorded in every run's summary.  3: a
#: 1-D Pareto innovation takes one uniform (2 drew a radius and a sign uniform).
RNG_CONTRACT = 3

#: Human-readable generator name, recorded in output metadata.
GENERATOR_NAME = (
    "philox4x64 key=(master_seed<<64)|stream_id; "
    "engine chunk stream_id=(1<<43)|(block<<20)|chunk"
)


def chunk_stream(block: int, chunk: int) -> int:
    """The stream id of chunk ``chunk`` of steps of block ``block`` of chains in the engine."""
    for name, value, bits in (("block", block, _BLOCK_BITS), ("chunk", chunk, _CHUNK_BITS)):
        if not 0 <= value < 1 << bits:
            raise ValueError(f"{name} must lie in [0, 2^{bits}), got {value}")
    return CHUNK_STREAM | block << _CHUNK_BITS | chunk


def _key(master_seed: int, stream_id: int) -> tuple[int, int]:
    """The 128-bit Philox key (master_seed<<64)|stream_id as its words, low first.

    The two 64-bit words are the concatenation of the pair, so distinct pairs
    map to distinct, statistically independent streams.
    """
    if stream_id < 0:
        raise ValueError("stream_id must be nonnegative")
    return int(stream_id) & _MASK64, int(master_seed) & _MASK64


def derive_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Return the Philox generator for (master_seed, stream_id)."""
    key = np.array(_key(master_seed, stream_id), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reposition(gen: np.random.Generator, master_seed: int, stream_id: int) -> None:
    """Move a Philox ``gen`` to the start of stream (master_seed, stream_id).

    Its draws are then those of ``derive_stream(master_seed, stream_id)``:
    the same key, a zero counter and an empty buffer.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": _key(master_seed, stream_id)},
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
