import numpy as np
import pytest

from stableem.rng import (
    AUX_STREAM,
    CHUNK_STREAM,
    FLOOR_STREAM,
    INVARIANT_STREAM,
    chunk_stream,
    derive_stream,
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


@pytest.mark.parametrize("seed, stream, name", [
    (-7, 0, "master_seed"), (1 << 64, 0, "master_seed"), (1, 1 << 64, "stream_id"),
])
def test_derive_stream_refuses_words_outside_64_bits(seed, stream, name):
    # No masking: -7 and 2^64 - 7 would otherwise name one stream.
    value = seed if name == "master_seed" else stream
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 2\^64\), got {value}$"):
        derive_stream(seed, stream)


def test_derive_stream_is_the_documented_constructor():
    # PCG64DXSM from SeedSequence of the pair's four 32-bit words, low half first.
    for seed, stream in ((0, 0), (42, INVARIANT_STREAM + 3), ((1 << 64) - 1, 5)):
        words = [seed & 0xFFFFFFFF, seed >> 32, stream & 0xFFFFFFFF, stream >> 32]
        want = np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(words)))
        np.testing.assert_array_equal(derive_stream(seed, stream).random(8), want.random(8))


@pytest.mark.parametrize("pair, other", [
    (((1 << 32) + 1, 1), (1, (1 << 32) + 1)),  # both [1, 1, 1] as plain words
    ((1 << 32, 0), (0, 1)),  # [0, 1, 0] and [0, 1]: trailing zero words change nothing
])
def test_pairs_that_share_a_plain_seed_sequence_differ(pair, other):
    # SeedSequence([seed, stream]) splits each int into as many 32-bit words
    # as it needs, so these pairs would draw alike; fixed-width words do not.
    plain = [np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence(list(p))))
             for p in (pair, other)]
    np.testing.assert_array_equal(plain[0].random(8), plain[1].random(8))
    assert not np.array_equal(derive_stream(*pair).random(8), derive_stream(*other).random(8))


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
    # lie below the lowest engine stream; the highest still fits the 64-bit
    # stream word.
    lowest, highest = chunk_stream(0, 0), chunk_stream((1 << 40) - 1, (1 << 20) - 1)
    assert AUX_STREAM + (1 << 40) <= lowest
    assert max(INVARIANT_STREAM, FLOOR_STREAM) + (1 << 40) <= lowest
    assert highest < 1 << 64


def test_highest_chunk_stream_is_accepted():
    highest = chunk_stream((1 << 40) - 1, (1 << 20) - 1)
    a, b = derive_stream(9, highest).random(4), derive_stream(9, highest - 1).random(4)
    assert np.all((0.0 <= a) & (a < 1.0))
    assert not np.array_equal(a, b)
