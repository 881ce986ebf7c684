"""Counter-based random streams.

Every draw is a pure function of (seed, stream_id, index), so sampling is
reproducible independently of call order or worker scheduling.  The mixing
function is the splitmix64 finalizer, which is the standard choice for
stateless counter hashing.

``counter_uniform`` draws one index with Python integers; it is the scalar
reference.  ``counter_uniforms`` draws a run of consecutive indices with
numpy ``uint64`` wrap-around arithmetic and gives the same floats bit for
bit.  Both map the 64-bit hash z to z / 2**64, clamped to the largest float
below 1: the top 1024 hash values would otherwise round up to 1.0.
"""

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SCALE = 18446744073709551616.0  # 2**64
_BELOW_ONE = math.nextafter(1.0, 0.0)


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
    u64 = np.uint64
    counters = u64((start + (1 << 62)) & _MASK) + np.arange(stop - start, dtype=u64)
    z = u64(derive_seed(seed, stream_id)) + counters * u64(_GOLDEN)
    z = (z ^ (z >> u64(30))) * u64(_M1)
    z = (z ^ (z >> u64(27))) * u64(_M2)
    z ^= z >> u64(31)
    u = z.astype(np.float64) / _SCALE
    return np.minimum(u, _BELOW_ONE, out=u)


def derive_seed(seed, *path):
    """Deterministic sub-seed for a labelled child stream."""
    z = _mix((seed & _MASK) + _GOLDEN)
    for part in path:
        z = _mix(z ^ _mix((part & _MASK) + _GOLDEN))
    return z
