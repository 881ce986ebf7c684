"""Counter-based RNG: purity, range, and rough uniformity."""

import math

import numpy as np
from hypothesis import given, strategies as st

import skewlab as sl
from skewlab import counter_uniform, derive_seed
from skewlab.rng import _MASK, counter_uniforms

from _common import index_with_hash as _index_with_hash

ints = st.integers(min_value=-(2 ** 62), max_value=2 ** 62)
words = st.integers(min_value=-(2 ** 63), max_value=2 ** 64 - 1)


@given(ints, ints, ints)
def test_counter_uniform_pure_and_in_range(seed, stream, index):
    a = counter_uniform(seed, stream, index)
    b = counter_uniform(seed, stream, index)
    assert a == b
    assert 0.0 <= a < 1.0


def test_counter_uniform_varies_with_each_coordinate():
    base = counter_uniform(1, 2, 3)
    assert counter_uniform(2, 2, 3) != base
    assert counter_uniform(1, 3, 3) != base
    assert counter_uniform(1, 2, 4) != base


def test_counter_uniform_negative_indices_are_distinct():
    vals = {counter_uniform(7, 0, j) for j in range(-500, 500)}
    assert len(vals) == 1000


def test_rough_uniformity():
    n = 20000
    vals = [counter_uniform(42, 5, i) for i in range(n)]
    mean = sum(vals) / n
    assert abs(mean - 0.5) < 0.01
    low = sum(1 for v in vals if v < 0.25) / n
    assert abs(low - 0.25) < 0.02


@given(ints, ints)
def test_derive_seed_deterministic(seed, part):
    assert derive_seed(seed, part) == derive_seed(seed, part)


def test_derive_seed_separates_paths():
    s = 123
    assert derive_seed(s, 1) != derive_seed(s, 2)
    assert derive_seed(s, 1, 2) != derive_seed(s, 2, 1)
    assert derive_seed(s) != derive_seed(s, 0)


def test_counter_uniform_top_hashes_stay_below_one():
    """z / 2**64 rounds up to 1.0 for the top 1024 hashes; draws clamp below 1."""
    below = math.nextafter(1.0, 0.0)
    assert _index_with_hash(5, 0, _MASK) == 8761941433968539397
    cases = [
        (_MASK, below),
        (2 ** 64 - 1024, below),
        (2 ** 64 - 1025, (2 ** 64 - 2048) / 2 ** 64),
    ]
    space = sl.ShiftSpace(2)
    measure = sl.BaseMeasure("bernoulli", probs=(0.5, 0.5))
    for z, expected in cases:
        j = _index_with_hash(5, 0, z)
        assert counter_uniform(5, 0, j) == expected
        assert counter_uniforms(5, 0, j, j + 1).tolist() == [expected]
        assert sl.sample_sequence(space, measure, 5, 0).symbol(j) == 1


@given(words, words, st.integers(-(2 ** 63), 2 ** 63 - 513), st.integers(0, 300))
def test_counter_uniforms_match_scalar(seed, stream, start, n):
    got = counter_uniforms(seed, stream, start, start + n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tolist() == [counter_uniform(seed, stream, j) for j in range(start, start + n)]


def test_counter_uniforms_round_like_the_scalar_draw():
    """Hashes on and beside the rounding ties of every binade above 2**53."""
    for k in range(53, 64):
        half = 1 << (k - 53)  # half an ulp of floats in [2**k, 2**(k+1))
        for tie in (2 ** k + half, 2 ** k + 3 * half, 2 ** (k + 1) - half):
            for z in (tie - 1, tie, tie + 1):
                j = _index_with_hash(11, 2, z)
                scalar = counter_uniform(11, 2, j)
                assert counter_uniforms(11, 2, j, j + 1).tolist() == [scalar]
                assert scalar == min(z / 2 ** 64, math.nextafter(1.0, 0.0))
