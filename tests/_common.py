"""Shared builders for the test suite."""

import itertools
import math

import numpy as np

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.holonomy import _fit_rate, stable_holonomy_jet
from skewlab.lyapunov import oseledets_frames
from skewlab.rng import _GOLDEN, _MASK, _M1, _M2
from skewlab.skew import (
    CocycleResult, accumulate_cocycle, generator_base_points, orbit_maps, unplanned,
)

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


def same_bits(a, b):
    """Whether two float arrays have the same shape and the same bits, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


def word(x, start, stop):
    """The symbols of the sequence x at indices start..stop-1, as a tuple."""
    return tuple(x.symbols(start, stop).tolist())


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


def golden_mean_base(d=2):
    """Shift space and Markov measure on d symbols where d - 1 never follows itself.

    d = 2 is the golden-mean shift; each row of P spreads evenly over the
    symbols allowed next.
    """
    allowed = [[not (a == b == d - 1) for b in range(d)] for a in range(d)]
    P = [[float(ok) / sum(row) for ok in row] for row in allowed]
    return sl.ShiftSpace(d, transitions=allowed), sl.BaseMeasure("markov", P=P)


def golden_mean_system(T=0.7):
    """Depth-1 family (A, A o twist) over the golden-mean Markov shift."""
    twisted = fm.Composite([cat_map(), fm.LocalizedTwist((0.3, 0.6), 0.2, T)])
    family = sl.LocallyConstantFamily(1, {0: cat_map(), 1: twisted})
    return sl.SkewSystem(*golden_mean_base(), family)


class Stretch(fm.FiberMap):
    """The identity on points with the constant derivative (factor, 0, 0, 1)."""

    def __init__(self, factor=2.0):
        self.deriv = (factor, 0.0, 0.0, 1.0)

    def apply(self, t):
        return t, self.deriv

    def apply_many(self, u, v):
        return u, v, self.deriv

    def inverse(self):
        return Stretch(1.0 / self.deriv[0])


def rotation_system():
    return lc_system(rotation_map(), rotation_map())


class ScriptedLoop(fm.FiberMap):
    """A stand-in holonomy loop of system sys and periodic point p whose
    iterations are scripted.

    Iteration j moves every point by steps[j - 1][0] in u and turns every
    direction by the angle steps[j - 1][1]: a point is back where it began
    when the shifts so far add up to 0, and the pair it carries has turned
    by the sum of the angles.  ``calls`` counts the iterations asked for.
    """

    def __init__(self, sys, p, steps):
        self.sys, self.p, self.steps, self.calls = sys, p, steps, 0

    def apply_many(self, u, v):
        shift, angle = self.steps[self.calls]
        self.calls += 1
        c, s = math.cos(angle), math.sin(angle)
        return (u + shift) % 1.0, v, (c, -s, s, c)


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


def scalar_symbol_rows(xs, start, stop):
    """``base_shift.symbol_rows`` as one ``x.symbols`` window per sequence."""
    rows = np.empty((len(xs), stop - start), dtype=np.intp)
    for row, x in zip(rows, xs):
        row[:] = x.symbols(start, stop)
    return rows


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
    t, log_norm, det_defect = accumulate_cocycle(unplanned(maps), t)
    return CocycleResult(t, log_norm, n, det_defect)


def _reference_twist_apply(tw, t):
    """``LocalizedTwist.apply`` testing its support by ``hypot`` first, at every point."""
    y1, y2 = fm.torus_delta(t, tw.center)
    r = math.hypot(y1, y2)
    s = r / tw.radius
    if s >= fm.BUMP_SUPPORT:
        return t, fm.IDENTITY
    rho, drho = fm.bump(s)
    phi = tw.angle * rho
    cp, sp = math.cos(phi), math.sin(phi)
    z1 = cp * y1 - sp * y2
    z2 = sp * y1 + cp * y2
    image = ((tw.center[0] + z1) % 1.0, (tw.center[1] + z2) % 1.0)
    if drho == 0.0:
        return image, (cp, -sp, sp, cp)
    g = tw.angle * drho / (tw.radius * r)
    return image, (cp - z2 * g * y1, -sp - z2 * g * y2, sp + z1 * g * y1, cp + z1 * g * y2)


def reference_apply(f, t):
    """``f.apply(t)``, a composite as a ``mat_mul`` chain from IDENTITY and a twist hypot-first."""
    if isinstance(f, fm.Composite):
        deriv = fm.IDENTITY
        for g in reversed(f.factors):
            t, d = reference_apply(g, t)
            deriv = fm.mat_mul(d, deriv)
        return t, deriv
    if isinstance(f, fm.LocalizedTwist):
        return _reference_twist_apply(f, t)
    return f.apply(t)


def scalar_integrated_exponent(sys, n_orbits, n_steps, seed):
    """``integrated_exponent`` walking a sampled fiber point along every orbit."""
    base_seed = sl.derive_seed(seed, 1)
    fiber_seed = sl.derive_seed(seed, 2)
    values = np.empty(n_orbits)
    defects = np.empty(n_orbits)
    for i in range(n_orbits):
        x = sl.sample_sequence(sys.space, sys.measure, base_seed, i)
        t = sl.random_fiber_point(fiber_seed, i)
        res = sl.iterate_cocycle(sys, x, t, n_steps)
        values[i] = res.log_norm / n_steps
        defects[i] = res.det_defect
    stderr = float(values.std(ddof=1) / math.sqrt(n_orbits)) if n_orbits > 1 else 0.0
    return sl.ExponentEstimate(
        mean=float(values.mean()),
        stderr=stderr,
        n_orbits=n_orbits,
        n_steps=n_steps,
        det_defect_max=float(defects.max()),
        seed=seed,
    )


def scalar_exponent_grid(sys, p, grid, n_steps):
    """``return_map_exponent_grid`` one fiber point at a time."""
    g = sl.return_map(sys, p)
    out = np.empty((grid, grid))
    for i in range(grid):
        for j in range(grid):
            t = ((i + 0.5) / grid, (j + 0.5) / grid)
            maps = itertools.repeat(g, n_steps)
            out[i, j] = accumulate_cocycle(unplanned(maps), t)[1] / n_steps
    return out


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


def scalar_check_twisting(loop, params):
    """``check_twisting`` moving one sample point round the loop at a time."""
    side = max(2, int(math.ceil(math.sqrt(params.n_K))))
    u, v = fm.grid_points(side)
    frames = oseledets_frames(
        loop.sys, loop.p, u, v, depth=params.frame_depth, delta_pinch=params.delta_pinch
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


def _pair_sources(system, seed, k):
    """The sampled point and the sequence its partner takes its far symbols from."""
    seed = sl.derive_seed(seed, k)
    return (sl.sample_sequence(system.space, system.measure, seed, i) for i in (0, 1))


def stable_pair(system, seed, k, diff_index=-1):
    """A sampled point and a partner on its local stable set.

    The partner shares the future (j >= 0), is forced to differ at
    ``diff_index`` < 0, and takes independent symbols further in the past,
    so the pair distance is exactly metric_base**(-diff_index).
    """
    x, o = _pair_sources(system, seed, k)
    flipped = (x.symbol(diff_index) + 1) % system.space.alphabet_size
    return x, sl.splice(system.space, (o, flipped, x), (diff_index, diff_index + 1))


def contraction_rate(sys, q, t, n=20):
    """Fitted exponential rate of the fiber distance from t to h(t) along the pair's orbits.

    Only the initial decreasing segment above the truncation noise floor is
    fitted: once the distance reaches the holonomy tolerance, cocycle
    expansion amplifies the truncation error and the tail grows again.
    """
    t_y, _ = sl.stable_holonomy_point(sys, q, t)
    backward = q.direction == "unstable"
    walk_x = orbit_maps(sys, q.x, backward)
    walk_y = orbit_maps(sys, q.y, backward)
    dists = []
    a, b = t, t_y
    for _ in range(n + 1):
        d = fm.torus_distance(a, b)
        if dists and (d >= dists[-1] or d < 100.0 * q.tol):
            break
        dists.append(d)
        a = next(walk_x)[0].apply(a)[0]
        b = next(walk_y)[0].apply(b)[0]
    if len(dists) >= 4:
        dists = dists[1:]  # drop the transient step; fit the asymptotic rate
    return _fit_rate(dists, 1e-14)


def unstable_pair(system, seed, k, diff_index=1):
    """``stable_pair`` mirrored: the partner shares the past (j <= 0) and differs at ``diff_index`` > 0."""
    x, o = _pair_sources(system, seed, k)
    flipped = (x.symbol(diff_index) + 1) % system.space.alphabet_size
    return x, sl.splice(system.space, (x, flipped, o), (diff_index, diff_index + 1))


def closure_pair(system, seed, k, diff_index):
    """``stable_pair`` (diff_index < 0) or ``unstable_pair`` (diff_index > 0), its partner a closure.

    The partner has no window reader, so it is read one index at a time:
    the scalar reference for the spliced partners.
    """
    x, o = _pair_sources(system, seed, k)
    d = system.space.alphabet_size

    def look(j):
        if j == diff_index:
            return (x.symbol(j) + 1) % d
        shared = j > diff_index if diff_index < 0 else j < diff_index
        return x.symbol(j) if shared else o.symbol(j)

    return x, sl.BaseSequence(system.space, look)


def mat_conorm(m):
    """m(A) = ||A^{-1}||^{-1}: the smallest singular value."""
    det = abs(fm.mat_det(m))
    n = fm.mat_norm(m)
    return det / n if n > 0.0 else 0.0


def cycle_expansion_exponent(matrices, space, measure, max_length):
    """Top exponent of products of positive 2x2 matrices by cycle expansion.

    Pollicott (Invent. Math. 2010): for every admissible word w with weight
    p_w (``cylinder_measure``), A_w the product of its matrices, lambda_w its
    leading eigenvalue and r_w = 1 / (1 - det A_w / lambda_w^2), the
    determinant d(z, t) = exp(-sum_n z^n / n sum_{|w| = n} p_w r_w
    lambda_w^t) = sum_n a_n(t) z^n vanishes at z = exp(-P(t)), so the
    exponent P'(0) is sum_n a_n'(0) / sum_n n a_n(0).  The series is cut
    after words of max_length.  No orbit is walked and no transfer operator
    iterated; a parabolic A_w (det A_w / lambda_w^2 = 1) divides by zero.
    """
    # B_n = 1/n sum_{|w| = n} p_w r_w lambda_w^t at t = 0, and its t-derivative
    B, dB = [0.0], [0.0]
    for n in range(1, max_length + 1):
        total = dtotal = 0.0
        for w in sl.admissible_words(space, n):
            p, q, r, s = 1.0, 0.0, 0.0, 1.0
            for symbol in w:  # A_w = A_{w[n-1]} ... A_{w[0]}
                a, b, c, d = matrices[symbol]
                p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
            trace, det = p + s, p * s - q * r
            lam = (trace + math.sqrt(trace * trace - 4.0 * det)) / 2.0
            weight = sl.cylinder_measure(measure, w) / (1.0 - det / (lam * lam))
            total += weight
            dtotal += weight * math.log(lam)
        B.append(total / n)
        dB.append(dtotal / n)
    # d = exp(-sum B_n z^n): n a_n = -sum_k k B_k a_{n-k}, and a' = -a * (sum dB_n z^n)
    coef = [1.0]
    for n in range(1, max_length + 1):
        coef.append(-sum(k * B[k] * coef[n - k] for k in range(1, n + 1)) / n)
    dcoef = [-sum(dB[k] * coef[n - k] for k in range(1, n + 1)) for n in range(max_length + 1)]
    return sum(dcoef) / sum(n * a_n for n, a_n in enumerate(coef))


def fiber_c1_distance(f, g, grid=64, n_random=1000, seed=0):
    """sup over sampled fiber points of displacement + derivative gap, for one pair of maps."""
    u, v = fm.sample_points(grid, n_random, seed, 1)
    if len(u) == 0:
        raise sl.ConfigurationError("fiber_c1_distance needs grid or n_random >= 1")
    fu, fv, df = f.apply_many(u, v)
    gu, gv, dg = g.apply_many(u, v)
    du, dv = fm.torus_delta((fu, fv), (gu, gv))
    gaps = fm.elementwise(math.hypot, du, dv) + fm.mat_norms(*(p - q for p, q in zip(df, dg)))
    return float(gaps.max(initial=0.0))


def scalar_c1_distance(sys_f, sys_g, n_base_samples=100, grid=32, n_random=200, seed=0):
    """``c1_distance`` as one ``fiber_c1_distance`` per base point, through ``fiber_map_at``."""
    worst = 0.0
    for x in generator_base_points(sys_f, n_base_samples, seed, 11):
        gap = fiber_c1_distance(
            sys_f.fiber_map_at(x), sys_g.fiber_map_at(x), grid, n_random, seed
        )
        if gap > worst:
            worst = gap
    return worst


def scalar_holder_estimate(sys, n_pairs, seed, grid=16, n_random=100):
    """``holder_estimate``'s (H_hat, alpha) with closure partners, read one index at a time.

    Raises ``holder_estimate``'s ``CertificateViolationError``, witness and
    all, when H_hat exceeds the family's declared constant.
    """
    h_hat = 0.0
    witness = None
    for k in range(n_pairs):
        x = sl.sample_sequence(sys.space, sys.measure, sl.derive_seed(seed, 17), k)
        other = sl.sample_sequence(sys.space, sys.measure, sl.derive_seed(seed, 13), k)
        radius = k % 8
        y = sl.BaseSequence(
            sys.space, lambda j: x.symbol(j) if abs(j) < radius else other.symbol(j)
        )
        d = sl.distance(x, y)
        if d == 0.0:
            continue
        gap = fiber_c1_distance(
            sys.fiber_map_at(x), sys.fiber_map_at(y), grid, n_random, seed
        )
        q = gap / d ** sys.holder_alpha
        if q > h_hat:
            h_hat, witness = q, (k, radius, d, gap)
    if not sys.is_locally_constant and h_hat > sys.family.holder_constant():
        raise sl.CertificateViolationError(
            "sampled Holder quotient %.6g exceeds declared %.6g (witness %r)"
            % (h_hat, sys.family.holder_constant(), witness)
        )
    return h_hat, sys.holder_alpha


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
