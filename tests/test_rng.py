import numpy as np
import pytest

from stableem.rng import (
    AUX_STREAM,
    CHUNK_STREAM,
    FLOOR_STREAM,
    INVARIANT_STREAM,
    chunk_stream,
    derive_stream,
    reposition,
)


def test_same_key_reproduces_sequence():
    a = derive_stream(42, 7).random(100)
    b = derive_stream(42, 7).random(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = derive_stream(42, 0).random(100)
    b = derive_stream(42, 1).random(100)
    c = derive_stream(43, 0).random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_reserved_offsets_are_far_apart():
    assert INVARIANT_STREAM < FLOOR_STREAM < AUX_STREAM
    # leaves room for billions of chain indices below the reserved block
    assert INVARIANT_STREAM >= 1 << 40


def test_negative_stream_rejected():
    with pytest.raises(ValueError):
        derive_stream(1, -1)


def _draws(gen):
    return (
        gen.random(5),
        gen.standard_exponential(4),
        gen.standard_normal((3, 2)),
        gen.integers(0, 1000, 6),
        gen.random(3),
    )


@pytest.mark.parametrize("seed", [42, -7, (1 << 64) + 5, (1 << 70) - 1])
@pytest.mark.parametrize("stream", [0, 1, INVARIANT_STREAM + 3, AUX_STREAM])
def test_reposition_matches_derive_stream(seed, stream):
    # Move a used generator from another stream; the masking of negative and
    # >= 2^64 seeds must be the same as derive_stream's.
    gen = derive_stream(3, 9)
    _draws(gen)
    reposition(gen, seed, stream)
    want = _draws(derive_stream(seed, stream))
    for a, b in zip(_draws(gen), want):
        np.testing.assert_array_equal(a, b)


def test_stream_key_is_seed_high_word_stream_low_word():
    # GENERATOR_NAME's key layout: (master_seed << 64) | stream_id.
    seed, stream = -7, INVARIANT_STREAM + 3
    key = ((seed & ((1 << 64) - 1)) << 64) | stream
    want = np.random.Generator(np.random.Philox(key=key)).random(8)
    np.testing.assert_array_equal(derive_stream(seed, stream).random(8), want)


def test_reposition_rejects_negative_stream():
    with pytest.raises(ValueError):
        reposition(derive_stream(1, 0), 1, -1)


def test_chunk_stream_packs_block_above_chunk():
    assert chunk_stream(0, 0) == CHUNK_STREAM == 1 << 43
    assert chunk_stream(3, 5) == (1 << 43) + 3 * (1 << 20) + 5
    assert chunk_stream(0, (1 << 20) - 1) + 1 == chunk_stream(1, 0)
    ids = {chunk_stream(k, c) for k in (0, 1, 2, 1 << 39) for c in (0, 1, 7, (1 << 20) - 1)}
    assert len(ids) == 16


@pytest.mark.parametrize("block, chunk, name", [
    (-1, 0, "block"), (1 << 40, 0, "block"), (0, -1, "chunk"), (0, 1 << 20, "chunk"),
])
def test_chunk_stream_refuses_values_outside_its_fields(block, chunk, name):
    value = block if name == "block" else chunk
    with pytest.raises(ValueError, match=rf"^{name} must lie in .*got {value}$"):
        chunk_stream(block, chunk)


def test_chunk_streams_overlap_no_other_range():
    # Chain-sized ids and the reference offsets (plus any index below 2^40)
    # lie below the lowest engine stream; the highest still fits the key's
    # 64-bit stream word.
    lowest, highest = chunk_stream(0, 0), chunk_stream((1 << 40) - 1, (1 << 20) - 1)
    assert AUX_STREAM + (1 << 40) <= lowest
    assert max(INVARIANT_STREAM, FLOOR_STREAM) + (1 << 40) <= lowest
    assert highest < 1 << 64
    want = np.random.Generator(np.random.Philox(key=(9 << 64) | highest)).random(4)
    np.testing.assert_array_equal(derive_stream(9, highest).random(4), want)
