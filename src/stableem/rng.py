"""Deterministic random-stream derivation for parallel chains.

Every chain owns a counter-based Philox stream keyed by the pair
(master_seed, stream_id).  The derived stream is a pure function of that
pair, so results never depend on how chains are sharded across workers.
Reference ensembles use reserved stream-id offsets so they can never
collide with chain indices.

A stream is fixed by its key alone: counter and buffer start at zero.  So a
generator can be moved to the start of another stream by setting its
Philox state (``reposition``), which draws exactly what a newly derived
generator would, at a fraction of the cost of building one.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_ZEROS4 = (0, 0, 0, 0)  # plain ints: the state setter reads them faster than array items

# Reserved stream-id offsets.  Chain i of an ensemble uses stream_id = i;
# auxiliary ensembles (invariant-law references, floor estimates, ...) are
# keyed far away from any realistic chain count.
INVARIANT_STREAM = 1 << 40
FLOOR_STREAM = 1 << 41
AUX_STREAM = 1 << 42

#: Human-readable generator name, recorded in output metadata.
GENERATOR_NAME = "philox4x64 key=(master_seed<<64)|stream_id"


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
