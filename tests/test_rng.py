import numpy as np
import pytest

from stableem.rng import AUX_STREAM, FLOOR_STREAM, INVARIANT_STREAM, derive_stream, reposition


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
