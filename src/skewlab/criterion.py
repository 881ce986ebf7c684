"""Positivity machinery: pinching and twisting detectors and sweeps.

The homoclinic holonomy loop composes unstable holonomy, a finite cocycle
excursion, and stable holonomy back to the periodic fiber.  It is a fiber
map of that fiber: ``loop.apply_many(u, v)`` gives the images h(t) and the
linear parts H(t) of a whole point set in one pass, with one walk of each
holonomy orbit, and ``loop.apply(t)`` is its one-point case.  Twisting asks
whether the loop's projective action moves the Oseledets pair fully off the
pair at the return point, on a definite fraction of sampled points; all
sample points go round the loop together.
"""

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import fiber_maps as fm
from .base_shift import sample_sequence
from .errors import ConfigurationError, SkewlabError, check_counts, check_positive
from .holonomy import HolonomyQuery, stable_holonomy_jets
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

    ``apply_many(u, v)`` returns h and H at every point from one unstable
    and one stable holonomy truncation on arrays and one pass along z;
    ``apply(t)`` is its one-point case, and ``h`` and ``H_at`` are its halves.
    """

    sys: object  # SkewSystem
    p: object  # PeriodicPoint
    q_u: HolonomyQuery  # unstable pair (p, z)
    q_s: HolonomyQuery  # stable pair (z.shift(i), p)
    excursion: list  # fiber maps along z for steps 0..i-1

    def apply_many(self, u, v):
        u, v, m = stable_holonomy_jets(self.sys, self.q_u, u, v)
        for f in self.excursion:
            u, v, d = f.apply_many(u, v)
            m = fm.mat_mul(d, m)
        u, v, hs = stable_holonomy_jets(self.sys, self.q_s, u, v)
        return u, v, fm.mat_mul(hs, m)

    def apply(self, t):
        """The array pass on one point, many times slower per point than a
        batch: callers with many points use ``apply_many``.
        """
        u, v, m = self.apply_many(np.array([t[0]]), np.array([t[1]]))
        return (float(u[0]), float(v[0])), tuple(float(e[0]) for e in m)

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


@dataclass(frozen=True)
class TwistingParams:
    n_K: int = 200
    j_max: int = 64
    epsilon_twist: float = 0.05
    fraction_required: float = 0.1
    eps_K: float = 1e-2
    frame_depth: int = 150
    delta_pinch: float = DELTA_PINCH

    def __post_init__(self):
        check_counts(n_K=self.n_K, j_max=self.j_max, frame_depth=self.frame_depth)
        check_positive(
            epsilon_twist=self.epsilon_twist,
            fraction_required=self.fraction_required,
            eps_K=self.eps_K,
            delta_pinch=self.delta_pinch,
        )


@dataclass
class TwistingReport:
    K_sample: list  # (point, OseledetsFrame) pairs
    per_point: list  # (j_t or None, min_separation) pairs
    twisting: bool
    epsilon_twist: float
    fraction_required: float
    inconclusive: bool = False

    @property
    def twisted_count(self):
        """Points whose best separation exceeds epsilon_twist."""
        return sum(1 for _, s in self.per_point if s is not None and s > self.epsilon_twist)

    @property
    def twisted_fraction(self):
        return self.twisted_count / len(self.per_point) if self.per_point else 0.0

    @property
    def min_separation_median(self):
        seps = [s for _, s in self.per_point if s is not None]
        return statistics.median(seps) if seps else 0.0

    @property
    def j_t_median(self):
        js = [j for j, _ in self.per_point if j is not None]
        return statistics.median(js) if js else 0.0


def projective_distance(u, v):
    """Acute angle between the lines spanned by two nonzero vectors.

    u and v are pairs of floats, giving a float, or pairs of arrays,
    giving the angle at each entry.
    """
    u0, u1, v0, v1 = (np.atleast_1d(np.asarray(c, dtype=float)) for c in (*u, *v))
    nu = fm.elementwise(math.hypot, u0, u1)
    nv = fm.elementwise(math.hypot, v0, v1)
    if not (nu.all() and nv.all()):
        raise ConfigurationError("projective distance of a zero vector")
    c = np.abs(u0 * v0 + u1 * v1) / (nu * nv)
    angles = fm.elementwise(math.acos, np.fmin(c, 1.0))
    return angles if np.ndim(u[0]) else float(angles[0])


def build_holonomy_loop(sys, p, z, i):
    """Assemble h = h^s o f^i_z o h^u and its linear part from holonomies.

    The queries raise ``ConfigurationError`` unless z and z.shift(i) lie on
    the local unstable and stable sets of p.
    """
    p_seq = p.point(sys.space)
    return HolonomyLoop(
        sys, p,
        q_u=HolonomyQuery("unstable", p_seq, z),
        q_s=HolonomyQuery("stable", z.shift(i), p_seq),
        excursion=[f for f, _ in orbit_maps(sys, z, n=i)],
    )


def check_pinching(sys, p, grid=64, n_steps=1000, delta_pinch=DELTA_PINCH):
    """Average return-map exponent over the periodic fiber, with NUH bookkeeping."""
    check_positive(delta_pinch=delta_pinch)
    values = return_map_exponent_grid(sys, p, grid, n_steps)
    integral = float(values.mean())
    return PinchingReport(
        integral=integral,
        positive=integral > delta_pinch,
        nuh_fraction=float((values > delta_pinch).mean()),
        grid=grid,
        n_steps=n_steps,
    )


_NEAREST_CELLS = 1 << 17  # point pairs per distance block: 1 MB per float array


def _nearest(points, u, v, eps):
    """The i with a sample point within eps of (u[i], v[i]), and each one's nearest.

    Distances and the nearest point come from np.hypot; squared distances,
    with a relative margin that covers their rounding, first pick the i
    that can have a point that near.  The i go in blocks of at most
    _NEAREST_CELLS point pairs, so memory stays bounded for large samples.
    """
    step = max(1, _NEAREST_CELLS // len(points))
    hits, nearest = [], []
    for lo in range(0, max(len(u), 1), step):
        du = np.abs(points[:, 0] - u[lo:lo + step, None])
        du = np.minimum(du, 1.0 - du)
        dv = np.abs(points[:, 1] - v[lo:lo + step, None])
        dv = np.minimum(dv, 1.0 - dv)
        rows = np.flatnonzero((du * du + dv * dv).min(axis=1) <= (eps * (1.0 + 1e-9)) ** 2)
        d = np.hypot(du[rows], dv[rows])
        k = d.argmin(axis=1)
        near = d[np.arange(len(rows)), k] <= eps
        hits.append(lo + rows[near])
        nearest.append(k[near])
    return np.concatenate(hits), np.concatenate(nearest)


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
    All sample points go round the loop together, through
    ``loop.apply_many``; a point leaves once it has separated.
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
    # the frame directions as unit vectors: (e_u, e_s) for each sample point
    angles = np.array([(f.e_u, f.e_s) for _, f in K])
    eu, es = (
        (fm.elementwise(math.cos, a), fm.elementwise(math.sin, a)) for a in angles.T
    )
    j_t = np.zeros(len(K), dtype=int)  # 0 until the first return
    min_sep = np.zeros(len(K))
    active = np.arange(len(K))
    cu, cv = positions[:, 0], positions[:, 1]
    # push the pair through the per-step linear parts with per-step
    # normalization: the same projective action as the matrix product,
    # but stable when the product becomes numerically rank-one
    tu, ts = eu, es
    for j in range(1, params.j_max + 1):
        if not len(active):
            break
        cu, cv, H = loop.apply_many(cu, cv)
        tu = fm.mat_vec_unit(H, tu)
        ts = fm.mat_vec_unit(H, ts)
        hit, k = _nearest(positions, cu, cv, params.eps_K)
        if len(hit):
            pt = active[hit]
            sep = np.minimum.reduce([
                projective_distance(tuple(w[hit] for w in vec), tuple(e[k] for e in target))
                for vec in (tu, ts)
                for target in (eu, es)
            ])
            first = j_t[pt] == 0
            better = ~first & (sep > min_sep[pt])
            j_t[pt[first | (better & (sep > params.epsilon_twist))]] = j
            min_sep[pt[first | better]] = sep[first | better]
        keep = min_sep[active] <= params.epsilon_twist
        active, cu, cv = active[keep], cu[keep], cv[keep]
        tu, ts = (tuple(w[keep] for w in vec) for vec in (tu, ts))
    per_point = [
        (j, s) if j else (None, None) for j, s in zip(j_t.tolist(), min_sep.tolist())
    ]
    report = TwistingReport(
        K_sample=K,
        per_point=per_point,
        twisting=False,
        epsilon_twist=params.epsilon_twist,
        fraction_required=params.fraction_required,
        inconclusive=not j_t.any(),
    )
    report.twisting = not report.inconclusive and (
        report.twisted_fraction >= params.fraction_required
    )
    return report


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
    check_counts(bins=bins, n_iter=n_iter, n_points=n_points)
    if not burn_in >= 0:
        raise ConfigurationError("burn_in must be >= 0, got %r" % (burn_in,))
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
    twisting_params=TwistingParams(),
):
    """Run the pinching/twisting/exponent pipeline for each twist angle.

    The exponent takes 4 n_steps steps per orbit.  A row that fails records
    its error, but a ``ConfigurationError`` is about the arguments, not
    about one T, so it propagates.
    """
    rows = []
    for idx, T in enumerate(T_values):
        row = SweepRow(T=float(T))
        try:
            g_sys = perturbed_system(sys, generator_word, twist_center, twist_radius, T)
            pin = check_pinching(g_sys, p, grid, n_steps, twisting_params.delta_pinch)
            row.pinching_flag = pin.positive
            row.pinching_integral = pin.integral
            loop = build_holonomy_loop(g_sys, p, z, i)
            tw = check_twisting(g_sys, loop, twisting_params)
            row.twisting_flag = tw.twisting
            row.twisting_min_separation_median = tw.min_separation_median
            est = integrated_exponent(
                g_sys, n_orbits, 4 * n_steps, derive_seed(seed, idx)
            )
            row.L_estimate = est.mean
            row.L_stderr = est.stderr
        except ConfigurationError:
            raise
        except SkewlabError as exc:
            row.error = str(exc)
        rows.append(row)
    return rows
