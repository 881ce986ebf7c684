"""Shared builders for the test suite."""

import math

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.rng import _GOLDEN, _MASK, _M1, _M2

CAT = (2, 1, 1, 1)
ROT90 = (0, -1, 1, 0)
IDENT = (1, 0, 0, 1)
SHEAR_UP = (1, 1, 0, 1)
SHEAR_LO = (1, 0, 1, 1)

LOG_CAT = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # 0.9624236501192069


def cat_map():
    return fm.ToralAutomorphism(CAT)


def rotation_map():
    return fm.ToralAutomorphism(ROT90)


def identity_map():
    return fm.ToralAutomorphism(IDENT)


def bernoulli2():
    return sl.BaseMeasure("bernoulli", probs=(0.5, 0.5))


def lc_system(f0, f1, metric_base=0.5):
    """Depth-1 locally constant system over the full 2-shift."""
    space = sl.ShiftSpace(2, metric_base=metric_base)
    family = sl.LocallyConstantFamily(1, {0: f0, 1: f1})
    return sl.SkewSystem(space, bernoulli2(), family)


def cat_system(metric_base=0.5):
    return lc_system(cat_map(), cat_map(), metric_base)


def twisted_cat_system(T=0.5, center=(0.25, 0.25), radius=0.2):
    """Generators (A, A o twist): the end-to-end pipeline configuration."""
    twist = fm.LocalizedTwist(center, radius, T)
    return lc_system(cat_map(), fm.Composite([cat_map(), twist]))


def golden_mean_system(T=0.7):
    """Depth-1 family (A, A o twist) over the golden-mean Markov shift."""
    space = sl.ShiftSpace(2, transitions=((True, True), (True, False)))
    measure = sl.BaseMeasure("markov", P=((0.5, 0.5), (1.0, 0.0)))
    twisted = fm.Composite([cat_map(), fm.LocalizedTwist((0.3, 0.6), 0.2, T)])
    family = sl.LocallyConstantFamily(1, {0: cat_map(), 1: twisted})
    return sl.SkewSystem(space, measure, family)


def rotation_system():
    return lc_system(rotation_map(), rotation_map())


def holder_system(metric_base=1.0 / 16.0, eps=0.05, K0=0.5, alpha=1.0):
    space = sl.ShiftSpace(2, metric_base=metric_base)
    family = sl.HolderFamily(K0=K0, eps=eps, alpha=alpha, space=space)
    return sl.SkewSystem(space, bernoulli2(), family)


# one system per array-path case: LC maps, a twist, zero gap, a Markov base, sin/cos
BATCH_SYSTEMS = [
    twisted_cat_system,
    lambda: twisted_cat_system(T=0.0),
    rotation_system,
    golden_mean_system,
    holder_system,
]
BATCH_IDS = ["twisted-cat", "cat-T0", "rotation", "golden-mean", "holder"]


def stable_pair(system, seed, k, diff_index=-1):
    """A sampled point and a partner on its local stable set.

    The partner shares the future (j >= 0), is forced to differ at
    ``diff_index`` < 0, and takes independent symbols further in the past,
    so the pair distance is exactly metric_base**(-diff_index).
    """
    space, measure = system.space, system.measure
    x = sl.sample_sequence(space, measure, sl.derive_seed(seed, k), 0)
    o = sl.sample_sequence(space, measure, sl.derive_seed(seed, k), 1)
    xs, os_ = x.symbol, o.symbol
    d = space.alphabet_size

    def look(j):
        if j >= 0:
            return xs(j)
        if j == diff_index:
            return (xs(j) + 1) % d
        if j > diff_index:
            return xs(j)
        return os_(j)

    return x, sl.BaseSequence(space, look)


def unstable_pair(system, seed, k, diff_index=1):
    space, measure = system.space, system.measure
    x = sl.sample_sequence(space, measure, sl.derive_seed(seed, k), 0)
    o = sl.sample_sequence(space, measure, sl.derive_seed(seed, k), 1)
    xs, os_ = x.symbol, o.symbol
    d = space.alphabet_size

    def look(j):
        if j <= 0:
            return xs(j)
        if j == diff_index:
            return (xs(j) + 1) % d
        if j < diff_index:
            return xs(j)
        return os_(j)

    return x, sl.BaseSequence(space, look)


def loop_inputs(system, z_symbol=1, z_index=1, i=2):
    """Periodic fixed point of symbol 0 and a homoclinic excursion."""
    p = sl.PeriodicPoint((0,))
    z = sl.homoclinic_point(system.space, p, z_symbol, z_index)
    return p, z, i


def _unxorshift(z, s):
    x = z
    for _ in range(64 // s + 1):
        x = z ^ (x >> s)
    return x


def _unmix(z):
    """Inverse of the splitmix64 finalizer ``rng._mix``."""
    z = _unxorshift(z, 31)
    z = (z * pow(_M2, -1, 1 << 64)) & _MASK
    z = _unxorshift(z, 27)
    z = (z * pow(_M1, -1, 1 << 64)) & _MASK
    return _unxorshift(z, 30)


def _key_for(index, z):
    """The stream key under which ``index`` hashes to z."""
    return (_unmix(z) - ((index + (1 << 62)) & _MASK) * _GOLDEN) & _MASK


def index_with_hash(seed, stream, z):
    """An index whose 64-bit hash under (seed, stream) is z."""
    key = sl.derive_seed(seed, stream)
    counter = ((_unmix(z) - key) * pow(_GOLDEN, -1, 1 << 64)) & _MASK
    return counter - (1 << 62)


def stream_with_hash(seed, index, z):
    """A stream id under which ``index`` of seed's streams hashes to z.

    It inverts ``derive_seed(seed, stream)``, whose last step mixes the
    seed's hash with the stream's.
    """
    seed_hash = sl.rng._mix((seed & _MASK) + _GOLDEN)
    stream_hash = _unmix(_key_for(index, z)) ^ seed_hash
    return (_unmix(stream_hash) - _GOLDEN) & _MASK
