"""Counter-based random streams.

Every draw is a pure function of (seed, stream_id, index), so sampling is
reproducible independently of call order or worker scheduling.  The mixing
function is the splitmix64 finalizer, which is the standard choice for
stateless counter hashing.

``counter_uniform`` draws one index with Python integers; it is the scalar
reference.  ``counter_uniforms`` draws a run of consecutive indices with
numpy ``uint64`` wrap-around arithmetic and gives the same floats bit for
bit; ``stream_uniforms`` draws such runs for many streams at once, one row
per stream, each from its own start.  The two share one copy of the array
arithmetic.  All map the 64-bit hash z to z / 2**64, clamped to the largest
float below 1: the top 1024 hash values would otherwise round up to 1.0.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SCALE = 18446744073709551616.0  # 2**64
_BELOW_ONE = math.nextafter(1.0, 0.0)
_U_GOLDEN, _U_M1, _U_M2 = np.uint64(_GOLDEN), np.uint64(_M1), np.uint64(_M2)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(z):
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def counter_uniform(seed, stream_id, index):
    """Uniform float in [0, 1) determined by the triple of integers."""
    z = _mix(derive_seed(seed, stream_id) + ((index + (1 << 62)) & _MASK) * _GOLDEN)
    return min(z / _SCALE, _BELOW_ONE)


def counter_uniforms(seed, stream_id, start, stop):
    """``counter_uniform(seed, stream_id, j)`` for j in range(start, stop), as an array."""
    counters = np.arange(stop - start, dtype=np.uint64)
    counters += np.uint64((start + (1 << 62)) & _MASK)
    return _hash_uniforms(counters, np.uint64(derive_seed(seed, stream_id)))


def stream_uniforms(keys, starts, n):
    """Uniforms of many streams at once: one row per stream, n consecutive indices each.

    Row i holds ``counter_uniforms(seed, stream_id, starts[i], starts[i] + n)``
    for the stream whose key ``keys[i]`` is ``derive_seed(seed, stream_id)``.
    """
    firsts = np.array([(s + (1 << 62)) & _MASK for s in starts], dtype=np.uint64)
    counters = firsts[:, None] + np.arange(n, dtype=np.uint64)
    return _hash_uniforms(counters, np.array(keys, dtype=np.uint64)[:, None])


def _hash_uniforms(z, key):
    """``_mix(key + z * _GOLDEN) / 2**64`` for a uint64 array z, hashed in place.

    The arithmetic stays on arrays, where uint64 wraps silently (a wrapping
    numpy scalar warns).  z is overwritten and its buffer becomes the
    result, so a draw holds at most two arrays of z's size.
    """
    z *= _U_GOLDEN
    z += key
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
    u = z.view(np.float64)  # converted in place: each entry is read before it is written
    np.divide(z, _SCALE, out=u)
    return np.minimum(u, _BELOW_ONE, out=u)


def derive_seed(seed, *path):
    """Deterministic sub-seed for a labelled child stream."""
    z = _mix((seed & _MASK) + _GOLDEN)
    for part in path:
        z = _mix(z ^ _mix((part & _MASK) + _GOLDEN))
    return z
