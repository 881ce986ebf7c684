"""Shared builders for the test suite."""

import math

import numpy as np

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.holonomy import stable_holonomy_jet
from skewlab.lyapunov import oseledets_frames
from skewlab.rng import _GOLDEN, _MASK, _M1, _M2
from skewlab.skew import CocycleResult, accumulate_cocycle

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


def depth4_system():
    """Depth-4 family over the full 2-shift: four generators spread over the 16 words."""
    twist = fm.LocalizedTwist((0.3, 0.6), 0.2, 0.7)
    maps = [
        cat_map(),
        fm.ToralAutomorphism(SHEAR_UP),
        fm.Composite([fm.ToralAutomorphism(SHEAR_LO), twist]),
        fm.Composite([cat_map(), twist]),
    ]
    space = sl.ShiftSpace(2)
    words = sl.admissible_words(space, 4)
    table = {w: maps[(3 * i + w[0]) % len(maps)] for i, w in enumerate(words)}
    return sl.SkewSystem(space, bernoulli2(), sl.LocallyConstantFamily(4, table))


def scalar_parameter(family, x):
    """The Holder parameter summed one symbol lookup at a time."""
    c = family.coeffs
    s = c[x.symbol(0)]
    w = 1.0
    for j in range(1, family.window + 1):
        w *= family.gamma
        s += w * (c[x.symbol(j)] + c[x.symbol(-j)])
    return family.K0 + family.eps * s


def scalar_iterate_cocycle(sys, x, t, n):
    """``iterate_cocycle`` reading x.symbol(j) one index at a time.

    The map at shift^k x comes from ``family.table`` (locally constant) or
    is ``StandardMap(scalar_parameter(...))`` (Holder); backward steps
    apply the inverses of the maps at shift^-1 x, shift^-2 x, ...
    """
    family = sys.family

    def map_at(k):
        y = x.shift(k)
        if isinstance(family, sl.LocallyConstantFamily):
            return family.table[tuple(y.symbol(j) for j in range(family.depth))]
        return fm.StandardMap(scalar_parameter(family, y))

    if n >= 0:
        maps = [map_at(k) for k in range(n)]
    else:
        maps = [map_at(-k - 1).inverse() for k in range(-n)]
    t, log_norm, tail, det_defect = accumulate_cocycle(maps, t)
    return CocycleResult(t, log_norm, tail, n, det_defect)


# one system per array-path case: LC maps, a twist, zero gap, a Markov base, sin/cos
BATCH_SYSTEMS = [
    twisted_cat_system,
    lambda: twisted_cat_system(T=0.0),
    rotation_system,
    golden_mean_system,
    holder_system,
]
BATCH_IDS = ["twisted-cat", "cat-T0", "rotation", "golden-mean", "holder"]


def scalar_loop_apply(loop, t):
    """(h(t), H(t)) of a ``HolonomyLoop`` one point at a time, in one pass."""
    t_z, m, _ = stable_holonomy_jet(loop.sys, loop.q_u, t)
    for f in loop.excursion:
        t_z, d = f.apply(t_z)
        m = fm.mat_mul(d, m)
    out, hs, _ = stable_holonomy_jet(loop.sys, loop.q_s, t_z)
    return out, fm.mat_mul(hs, m)


def _scalar_projective_distance(u, v):
    nu = math.hypot(*u)
    nv = math.hypot(*v)
    if nu == 0.0 or nv == 0.0:
        raise sl.ConfigurationError("projective distance of a zero vector")
    c = abs(u[0] * v[0] + u[1] * v[1]) / (nu * nv)
    return math.acos(min(1.0, c))


def _angle_vec(a):
    return (math.cos(a), math.sin(a))


def _scalar_nearest(points, t):
    du = np.abs(points[:, 0] - t[0])
    du = np.minimum(du, 1.0 - du)
    dv = np.abs(points[:, 1] - t[1])
    dv = np.minimum(dv, 1.0 - dv)
    d = np.hypot(du, dv)
    k = int(d.argmin())
    return k, float(d[k])


def scalar_check_twisting(sys, loop, params):
    """``check_twisting`` moving one sample point round the loop at a time."""
    side = max(2, int(math.ceil(math.sqrt(params.n_K))))
    u, v = fm.grid_points(side)
    frames = oseledets_frames(
        sys, loop.p, u, v, depth=params.frame_depth, delta_pinch=params.delta_pinch
    )
    K = [(t, f) for t, f in zip(zip(u.tolist(), v.tolist()), frames) if f.converged]
    K = K[: params.n_K]
    if not K:
        raise sl.SkewlabError("no sample points with converged frames")
    positions = np.array([t for t, _ in K])
    per_point = []
    any_return = False
    for t, frame in K:
        cur = t
        tu = _angle_vec(frame.e_u)
        ts = _angle_vec(frame.e_s)
        j_t = None
        min_sep = None
        for j in range(1, params.j_max + 1):
            cur, H = scalar_loop_apply(loop, cur)
            tu = fm.mat_vec(H, tu)
            ts = fm.mat_vec(H, ts)
            nu, ns = math.hypot(*tu), math.hypot(*ts)
            tu = (tu[0] / nu, tu[1] / nu)
            ts = (ts[0] / ns, ts[1] / ns)
            k, d = _scalar_nearest(positions, cur)
            if d <= params.eps_K:
                any_return = True
                target = K[k][1]
                sep = min(
                    _scalar_projective_distance(tu, _angle_vec(target.e_u)),
                    _scalar_projective_distance(tu, _angle_vec(target.e_s)),
                    _scalar_projective_distance(ts, _angle_vec(target.e_u)),
                    _scalar_projective_distance(ts, _angle_vec(target.e_s)),
                )
                if j_t is None:
                    j_t, min_sep = j, sep
                if sep > min_sep:
                    min_sep = sep
                    if sep > params.epsilon_twist:
                        j_t = j
                if min_sep > params.epsilon_twist:
                    break
        per_point.append((j_t, min_sep))
    twisted = sum(
        1 for _, s in per_point if s is not None and s > params.epsilon_twist
    )
    return sl.TwistingReport(
        K_sample=K,
        per_point=per_point,
        twisting=any_return and twisted / len(K) >= params.fraction_required,
        epsilon_twist=params.epsilon_twist,
        fraction_required=params.fraction_required,
        inconclusive=not any_return,
    )


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
