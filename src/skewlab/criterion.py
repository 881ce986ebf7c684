"""Positivity machinery: pinching and twisting detectors and sweeps.

The homoclinic holonomy loop composes unstable holonomy, a finite cocycle
excursion, and stable holonomy back to the periodic fiber.  It is a fiber
map of that fiber: ``loop.apply(t)`` gives the image h(t) and the linear
part H(t) in one pass.  Twisting asks whether the loop's projective action
moves the Oseledets pair fully off the pair at the return point, on a
definite fraction of sampled points.
"""

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import fiber_maps as fm
from .base_shift import sample_sequence
from .errors import ConfigurationError, SkewlabError
from .holonomy import HolonomyQuery, stable_holonomy_jet
from .lyapunov import (
    DELTA_PINCH,
    GENERIC_DIRECTION,
    integrated_exponent,
    oseledets_frames,
    return_map_exponent_grid,
)
from .rng import derive_seed
from .skew import orbit_batch, orbit_maps


@dataclass
class HolonomyLoop(fm.FiberMap):
    """The loop h = h^s o f^i_z o h^u as a fiber map of the periodic fiber.

    ``apply(t)`` returns (h(t), H(t)) from one unstable and one stable
    holonomy truncation and one pass along z; ``h`` and ``H_at`` are its halves.
    """

    sys: object  # SkewSystem
    p: object  # PeriodicPoint
    z: object  # BaseSequence
    i: int
    q_u: HolonomyQuery  # unstable pair (p, z)
    q_s: HolonomyQuery  # stable pair (shift(z, i), p)
    excursion: list  # fiber maps along z for steps 0..i-1

    def apply(self, t):
        t_z, m, _ = stable_holonomy_jet(self.sys, self.q_u, t)
        for f in self.excursion:
            t_z, d = f.apply(t_z)
            m = fm.mat_mul(d, m)
        out, hs, _ = stable_holonomy_jet(self.sys, self.q_s, t_z)
        return out, fm.mat_mul(hs, m)

    def h(self, t):
        return self.apply(t)[0]

    def H_at(self, t):
        return self.apply(t)[1]

    def area_defect(self, grid=32):
        return fm.max_det_defect(self, *fm.grid_points(grid))


@dataclass
class PinchingReport:
    integral: float
    positive: bool
    nuh_fraction: float
    grid: int
    n_steps: int


@dataclass
class TwistingParams:
    n_K: int = 200
    j_max: int = 64
    epsilon_twist: float = 0.05
    fraction_required: float = 0.1
    eps_K: float = 1e-2
    frame_depth: int = 150
    delta_pinch: float = DELTA_PINCH


@dataclass
class TwistingReport:
    K_sample: list  # (point, OseledetsFrame) pairs
    per_point: list  # (j_t or None, min_separation) pairs
    twisting: bool
    epsilon_twist: float
    fraction_required: float
    inconclusive: bool = False

    @property
    def min_separation_median(self):
        seps = [s for _, s in self.per_point if s is not None]
        return statistics.median(seps) if seps else 0.0

    @property
    def j_t_median(self):
        js = [j for j, _ in self.per_point if j is not None]
        return statistics.median(js) if js else 0.0


def projective_distance(u, v):
    """Acute angle between the lines spanned by two nonzero vectors."""
    nu = math.hypot(*u)
    nv = math.hypot(*v)
    if nu == 0.0 or nv == 0.0:
        raise ConfigurationError("projective distance of a zero vector")
    c = abs(u[0] * v[0] + u[1] * v[1]) / (nu * nv)
    return math.acos(min(1.0, c))


def _check_homoclinic(p_seq, z, i):
    horizon = p_seq.space.metric_horizon
    for j in range(0, horizon + 1):
        if z.symbol(-j) != p_seq.symbol(-j):
            raise ConfigurationError(
                "z is not on the local unstable set of p (index %d)" % (-j,)
            )
    zi = z.shift(i)
    for j in range(0, horizon + 1):
        if zi.symbol(j) != p_seq.symbol(j):
            raise ConfigurationError(
                "shift(z, i) is not on the local stable set of p (index %d)" % j
            )


def build_holonomy_loop(sys, p, z, i):
    """Assemble h = h^s o f^i_z o h^u and its linear part from holonomies."""
    p_seq = p.point(sys.space)
    _check_homoclinic(p_seq, z, i)
    return HolonomyLoop(
        sys, p, z, i,
        q_u=HolonomyQuery("unstable", p_seq, z),
        q_s=HolonomyQuery("stable", z.shift(i), p_seq),
        excursion=[f for f, _ in orbit_maps(sys, z, n=i)],
    )


def check_pinching(sys, p, grid=64, n_steps=1000, delta_pinch=DELTA_PINCH):
    """Average return-map exponent over the periodic fiber, with NUH bookkeeping."""
    values = return_map_exponent_grid(sys, p, grid, n_steps)
    integral = float(values.mean())
    return PinchingReport(
        integral=integral,
        positive=integral > delta_pinch,
        nuh_fraction=float((values > delta_pinch).mean()),
        grid=grid,
        n_steps=n_steps,
    )


def _angle_vec(a):
    return (math.cos(a), math.sin(a))


def _nearest(points, t):
    du = np.abs(points[:, 0] - t[0])
    du = np.minimum(du, 1.0 - du)
    dv = np.abs(points[:, 1] - t[1])
    dv = np.minimum(dv, 1.0 - dv)
    d = np.hypot(du, dv)
    k = int(d.argmin())
    return k, float(d[k])


def check_twisting(sys, loop, params=TwistingParams()):
    """Transport the Oseledets pair around loop iterates and measure separation.

    The twisting definition quantifies the loop power existentially, so
    every return time j <= j_max to the eps_K-neighborhood of the sample
    set is examined; the pair is transported by the product of per-step
    loop linear parts and compared projectively against the frame at the
    return point.  j_t is the smallest return achieving separation (or
    the first return when none does) and min_separation the best over
    returns -- first returns alone can be degenerate, e.g. exact lattice
    recurrences of an integer toral generator with zero separation.
    """
    side = max(2, int(math.ceil(math.sqrt(params.n_K))))
    u, v = fm.grid_points(side)
    frames = oseledets_frames(
        sys, loop.p, u, v, depth=params.frame_depth, delta_pinch=params.delta_pinch
    )
    K = [(t, f) for t, f in zip(zip(u.tolist(), v.tolist()), frames) if f.converged]
    K = K[: params.n_K]
    if not K:
        raise SkewlabError(
            "no sample points with converged frames: pinching failed, "
            "twisting is not applicable"
        )
    positions = np.array([t for t, _ in K])
    per_point = []
    any_return = False
    for t, frame in K:
        cur = t
        # push the pair through the per-step linear parts with per-step
        # normalization: the same projective action as the matrix product,
        # but stable when the product becomes numerically rank-one
        tu = _angle_vec(frame.e_u)
        ts = _angle_vec(frame.e_s)
        j_t = None
        min_sep = None
        for j in range(1, params.j_max + 1):
            cur, H = loop.apply(cur)
            tu = fm.mat_vec(H, tu)
            ts = fm.mat_vec(H, ts)
            nu, ns = math.hypot(*tu), math.hypot(*ts)
            tu = (tu[0] / nu, tu[1] / nu)
            ts = (ts[0] / ns, ts[1] / ns)
            k, d = _nearest(positions, cur)
            if d <= params.eps_K:
                any_return = True
                target = K[k][1]
                sep = min(
                    projective_distance(tu, _angle_vec(target.e_u)),
                    projective_distance(tu, _angle_vec(target.e_s)),
                    projective_distance(ts, _angle_vec(target.e_u)),
                    projective_distance(ts, _angle_vec(target.e_s)),
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
    fraction = twisted / len(K)
    return TwistingReport(
        K_sample=K,
        per_point=per_point,
        twisting=any_return and fraction >= params.fraction_required,
        epsilon_twist=params.epsilon_twist,
        fraction_required=params.fraction_required,
        inconclusive=not any_return,
    )


_PROBE_WORDS = 8  # sampled base orbits per histogram


def _direction_histograms(sys, u, v, seeds, bins, n_iter, burn_in):
    """Angle histogram of the projective cocycle for each (start, seed).

    Histogram k follows _PROBE_WORDS sampled base orbits from the fiber
    point (u[k], v[k]); all orbits step together through ``orbit_batch``
    and bins are counted step by step.
    """
    xs = [
        sample_sequence(sys.space, sys.measure, derive_seed(s, 31), w)
        for s in seeds
        for w in range(_PROBE_WORDS)
    ]
    u, v = np.repeat(u, _PROBE_WORDS), np.repeat(v, _PROBE_WORDS)
    e0, e1 = (np.full(len(xs), c) for c in GENERIC_DIRECTION)
    first_bin = np.repeat(np.arange(len(seeds)) * bins, _PROBE_WORDS)
    counts = np.zeros(len(seeds) * bins)
    for k, (_, _, d) in enumerate(orbit_batch(sys, xs, u, v, n_iter)):
        e0, e1 = fm.mat_vec_unit(d, (e0, e1))
        if k >= burn_in:
            angle = fm.elementwise(math.atan2, e1, e0) % math.pi
            bin_ = np.minimum((angle / math.pi * bins).astype(np.intp), bins - 1)
            np.add.at(counts, first_bin + bin_, 1.0)
    hists = counts.reshape(len(seeds), bins)
    return hists / hists.sum(axis=1, keepdims=True)


def _push_histogram(hist, m):
    bins = len(hist)
    out = np.zeros(bins)
    for b in range(bins):
        if hist[b] == 0.0:
            continue
        a = (b + 0.5) * math.pi / bins
        w = fm.mat_vec(m, (math.cos(a), math.sin(a)))
        a2 = math.atan2(w[1], w[0]) % math.pi
        out[min(int(a2 / math.pi * bins), bins - 1)] += hist[b]
    return out


def su_state_probe(sys, p, loop, bins=64, n_iter=400, n_points=100, seed=0, burn_in=100):
    """Worst sampled L1 defect of holonomy-loop invariance of projective measures.

    An su-state must transport exactly at every point, so a single sampled
    point with a large defect witnesses the obstruction that
    pinching-plus-twisting systems exhibit; the score is therefore the
    maximum defect over a fiber grid.  Near-zero scores are consistent
    with an invariant su-structure (isometric systems).
    """
    if n_iter <= burn_in:
        raise ConfigurationError(
            "su_state_probe needs n_iter > burn_in (got %d <= %d)" % (n_iter, burn_in)
        )
    side = max(2, int(math.ceil(math.sqrt(n_points))))
    u, v = fm.grid_points(side)
    hu, hv, H = loop.apply_many(u, v)
    n = len(u)
    seeds = [derive_seed(seed, 41, k) for k in range(n)]
    seeds += [derive_seed(seed, 43, k) for k in range(n)]
    hists = _direction_histograms(
        sys, np.concatenate([u, hu]), np.concatenate([v, hv]), seeds, bins, n_iter, burn_in
    )
    worst = 0.0
    for k, m in enumerate(zip(*(e.tolist() for e in H))):
        pushed = _push_histogram(hists[k], m)
        worst = max(worst, 0.5 * float(np.abs(pushed - hists[n + k]).sum()))
    return worst


def perturbed_system(sys, generator_word, twist_center, twist_radius, T):
    """Post-compose one locally constant generator with a localized twist."""
    if T == 0.0:
        return sys
    if isinstance(generator_word, int):
        generator_word = (generator_word,)
    f = sys.family.map_for_word(tuple(generator_word))
    twist = fm.LocalizedTwist(twist_center, twist_radius, T)
    return sys.with_generator(generator_word, fm.Composite([f, twist]))


@dataclass
class SweepRow:
    T: float
    pinching_flag: bool = False
    pinching_integral: float = float("nan")
    twisting_flag: bool = False
    twisting_min_separation_median: float = float("nan")
    L_estimate: float = float("nan")
    L_stderr: float = float("nan")
    error: str = ""


def perturbation_sweep(
    sys,
    generator_word,
    twist_center,
    twist_radius,
    T_values,
    p,
    z,
    i,
    seed=0,
    grid=32,
    n_steps=500,
    n_orbits=100,
    exponent_steps=2000,
    twisting_params=TwistingParams(),
):
    """Run the pinching/twisting/exponent pipeline for each twist angle."""
    rows = []
    for idx, T in enumerate(T_values):
        row = SweepRow(T=float(T))
        try:
            g_sys = perturbed_system(sys, generator_word, twist_center, twist_radius, T)
            pin = check_pinching(g_sys, p, grid=grid, n_steps=n_steps)
            row.pinching_flag = pin.positive
            row.pinching_integral = pin.integral
            loop = build_holonomy_loop(g_sys, p, z, i)
            tw = check_twisting(g_sys, loop, twisting_params)
            row.twisting_flag = tw.twisting
            row.twisting_min_separation_median = tw.min_separation_median
            est = integrated_exponent(
                g_sys, n_orbits, exponent_steps, derive_seed(seed, idx)
            )
            row.L_estimate = est.mean
            row.L_stderr = est.stderr
        except SkewlabError as exc:
            row.error = str(exc)
        rows.append(row)
    return rows
