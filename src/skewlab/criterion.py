"""Positivity machinery: pinching and twisting detectors and sweeps.

The homoclinic holonomy loop composes unstable holonomy, a finite cocycle
excursion, and stable holonomy back to the periodic fiber.  It is a fiber
map of that fiber: ``loop.apply_many(u, v)`` gives the images h(t) and the
linear parts H(t) of a whole point set in one pass, with one walk of each
holonomy orbit kept for every later pass, and ``loop.apply(t)`` is its
one-point case.  Twisting asks whether the loop's projective action moves
the Oseledets pair fully off the pair at the return point, on a definite
fraction of sampled points; all go round the loop together, in blocks.
"""

import itertools
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import fiber_maps as fm
from .base_shift import sample_sequence
from .errors import (
    ConfigurationError, NonConvergenceError, SkewlabError, check_counts, check_positive,
)
from .holonomy import HolonomyQuery, holonomy_walk, stable_holonomy_jets
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
    Each query's steps are kept as the first calls walk them, at most
    n_max of them, so a loop walks each of its four orbits once however
    often it is applied; one thread at a time may apply it.  Beside each
    query's steps the loop keeps the query's linear truncation once a call
    has settled it on constant derivatives (a toral walk, as on the
    twisted-cat loops, whose twist lies on the excursion), and every later
    call of that query walks only the points, stopping each on its squared
    offset (``holonomy._below``).  H comes back as arrays of the points'
    shape even when every map of the loop is constant.
    """

    sys: object  # SkewSystem
    p: object  # PeriodicPoint
    q_u: HolonomyQuery  # unstable pair (p, z)
    q_s: HolonomyQuery  # stable pair (z.shift(i), p)
    excursion: list  # fiber maps along z for steps 0..i-1
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _jets(self, q, u, v):
        # a tee keeps every pair that one of its copies has pulled, so the
        # copy kept here replays them and then walks on
        steps, linear = self._kept.get(q) or (holonomy_walk(self.sys, q), [])
        steps, walk = itertools.tee(steps)
        self._kept[q] = steps, linear
        return stable_holonomy_jets(self.sys, q, u, v, walk, linear)

    def apply_many(self, u, v):
        u, v, m = self._jets(self.q_u, u, v)
        for f in self.excursion:
            u, v, d = f.apply_many(u, v)
            m = fm.mat_mul(d, m)
        u, v, hs = self._jets(self.q_s, u, v)
        H = fm.mat_mul(hs, m)
        if not isinstance(H[0], np.ndarray):  # every map constant: one H for every point
            H = tuple(np.full(u.shape, e) for e in H)
        return u, v, H

    def apply(self, t):
        """The array pass on one point: callers with many points use ``apply_many``.

        On a shared 2-vCPU VM (Python 3.11, numpy 2.4) a call took about
        145 µs on the twisted-cat loop, where a batch of 200 points took
        about 1 µs a point, and about 5 ms on the Hölder loop.
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

    u and v are pairs of floats, giving a float, or pairs of arrays of
    one shape, giving the angle at each entry in an array of that shape.
    """
    u0, u1, v0, v1 = (np.atleast_1d(np.asarray(c, dtype=float)) for c in (*u, *v))
    nu = fm.elementwise(math.hypot, u0, u1)
    nv = fm.elementwise(math.hypot, v0, v1)
    if not (nu.all() and nv.all()):
        raise ConfigurationError("projective distance of a zero vector")
    angles = _acute_angles(u0, u1, nu, v0, v1, nv)
    return angles if np.ndim(u[0]) else float(angles[0])


def _acute_angles(u0, u1, nu, v0, v1, nv):
    """``projective_distance`` of the vectors (u0, u1) and (v0, v1), given their norms nu and nv."""
    c = np.abs(u0 * v0 + u1 * v1) / (nu * nv)
    return fm.elementwise(math.acos, np.fmin(c, 1.0))


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
_TWIST_BLOCK = 8  # loop iterations whose returns check_twisting settles together


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


def check_twisting(loop, params=TwistingParams()):
    """Transport the Oseledets pair around loop iterates and measure separation.

    The twisting definition quantifies the loop power existentially, so
    every return time j <= j_max to the eps_K-neighborhood of the sample
    set is examined; the pair is transported by the product of per-step
    loop linear parts and compared projectively against the frame at the
    return point (frames of ``loop.sys`` at ``loop.p``).  j_t is the
    smallest return achieving separation and min_separation the best over
    returns up to j_t; a point that never separates takes its first return
    and the best over all its returns -- first returns alone can be
    degenerate, e.g. exact lattice recurrences of an integer toral
    generator with zero separation.
    All sample points go round the loop together, through
    ``loop.apply_many``, _TWIST_BLOCK iterations at a time: one
    ``_nearest`` call and one ``_acute_angles`` call, on norms taken once
    per block and once per frame, take every return of a block, and a
    point that has separated leaves at the end of its block.  If the loop raises ``NonConvergenceError`` within a block, the
    block's earlier iterations are settled and the failed one is tried
    again with the points left; a second failure propagates.
    """
    side = max(2, int(math.ceil(math.sqrt(params.n_K))))
    u, v = fm.grid_points(side)
    frames = oseledets_frames(
        loop.sys, loop.p, u, v, depth=params.frame_depth, delta_pinch=params.delta_pinch
    )
    K = [(t, f) for t, f in zip(zip(u.tolist(), v.tolist()), frames) if f.converged]
    K = K[: params.n_K]
    if not K:
        raise SkewlabError(
            "no sample points with converged frames: pinching failed, "
            "twisting is not applicable"
        )
    positions = np.array([t for t, _ in K])
    # the frame directions as unit vectors (ex, ey), stacked: row 0 holds
    # e_u and row 1 e_s, one column per sample point
    angles = np.array([(f.e_u, f.e_s) for _, f in K]).T
    ex, ey = (fm.elementwise(fn, angles) for fn in (math.cos, math.sin))
    frame = ex, ey, fm.elementwise(math.hypot, ex, ey)
    j_t = np.zeros(len(K), dtype=int)  # 0 until the first return
    min_sep = np.zeros(len(K))
    active = np.arange(len(K))
    cu, cv = positions[:, 0], positions[:, 1]
    # push the pair through the per-step linear parts with per-step
    # normalization: the same projective action as the matrix product,
    # but stable when the product becomes numerically rank-one
    tx, ty = ex, ey
    j = 0  # iterations settled
    while j < params.j_max and len(active):
        block = []  # (cu, cv, tx, ty) after each iteration of the block
        for _ in range(min(_TWIST_BLOCK, params.j_max - j)):
            try:
                cu, cv, H = loop.apply_many(cu, cv)
            except NonConvergenceError:
                if not block:  # no point here has separated: the error stands
                    raise
                break
            tx, ty = fm.mat_vec_unit(H, (tx, ty))
            block.append((cu, cv, tx, ty))
        # row r * n + i of the stacked block is point i after iteration j + r + 1
        bu, bv, btx, bty = (np.concatenate(c, axis=-1) for c in zip(*block))
        sep = np.full(len(bu), -1.0)  # -1 where no return
        hit, k = _nearest(positions, bu, bv, params.eps_K)
        if len(hit):
            # each of the pair against each frame direction at the return,
            # as rows (e_u, e_u), (e_u, e_s), (e_s, e_u), (e_s, e_s) of one
            # call, with each vector's norm taken once
            wx, wy = btx[:, hit], bty[:, hit]
            vecs = (wx, wy, fm.elementwise(math.hypot, wx, wy))
            vecs = tuple(np.repeat(w, 2, axis=0) for w in vecs)
            targets = tuple(np.tile(e[:, k], (2, 1)) for e in frame)
            sep[hit] = _acute_angles(*vecs, *targets).min(axis=0)
        sep = sep.reshape(len(block), -1)
        returned, twisted = sep >= 0.0, sep > params.epsilon_twist
        separated = twisted.any(axis=0)
        # each point's last row: its first separating return, else the block's end
        last = np.where(separated, twisted.argmax(axis=0), len(block) - 1)
        first = (j_t[active] == 0) & returned.any(axis=0)
        j_t[active[first]] = j + 1 + returned.argmax(axis=0)[first]
        j_t[active[separated]] = j + 1 + last[separated]
        upto = np.arange(len(block))[:, None] <= last
        min_sep[active] = np.maximum(min_sep[active], sep.max(axis=0, initial=0.0, where=upto))
        keep = min_sep[active] <= params.epsilon_twist
        active, cu, cv = active[keep], cu[keep], cv[keep]
        tx, ty = tx[:, keep], ty[:, keep]
        j += len(block)
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
    point (u[k], v[k]); all orbits step together through ``orbit_batch``.
    Each step maps every orbit's direction by the step's derivative and
    scales it by the power of two that puts its larger entry in [0.5, 1),
    which is exact: the direction stays a power of two times the
    unnormalised product, whose libm angle, and so bin, it shares, and
    no hypot is taken.  Each step after burn_in keeps every orbit's
    direction; whenever they are as many as the cells of all histograms,
    and after the last step, one ``_angle_bins`` call bins them and
    ``np.bincount`` counts their cells (histogram, bin).  Memory stays two
    floats per kept orbit-step, twice the size of the histograms, for any
    n_iter.
    """
    xs = [
        sample_sequence(sys.space, sys.measure, key, w)
        for key in [derive_seed(s, 31) for s in seeds]
        for w in range(_PROBE_WORDS)
    ]
    u, v = np.repeat(u, _PROBE_WORDS), np.repeat(v, _PROBE_WORDS)
    e0, e1 = (np.full(len(xs), c) for c in GENERIC_DIRECTION)
    first_cell = np.repeat(np.arange(len(seeds)) * bins, _PROBE_WORDS)
    counts = np.zeros(len(seeds) * bins, dtype=np.intp)
    kept = []
    for k, (_, _, d) in enumerate(orbit_batch(sys, xs, u, v, n_iter)):
        e0, e1 = fm.mat_vec(d, (e0, e1))
        ex = np.frexp(np.fmax(abs(e0), abs(e1)))[1]
        e0, e1 = np.ldexp(e0, -ex), np.ldexp(e1, -ex)
        if k >= burn_in:
            kept.append((e0, e1))
            if len(kept) * len(xs) >= counts.size or k == n_iter - 1:
                x, y = (np.concatenate(c) for c in zip(*kept))
                cells = np.tile(first_cell, len(kept)) + _angle_bins(x, y, bins)
                counts += np.bincount(cells, minlength=counts.size)
                kept = []
    counts = counts.reshape(len(seeds), bins)
    return counts / counts.sum(axis=1, keepdims=True)


_EDGE_MARGIN = 1e-9  # radians; numpy's atan2 is within a few ulps of libm's


def _angle_bins(x, y, bins):
    """The bin of each direction (x[k], y[k]) among bins equal arcs of [0, pi).

    The bin is that of libm's angle: (atan2(y, x) % pi) / pi * bins, rounded
    down and capped at bins - 1.  Positions come from numpy's atan2, plus pi
    where negative; its last-bit difference can change the bin only within
    _EDGE_MARGIN of an edge, and those entries are recomputed by the rule.
    """
    angle = np.arctan2(y, x)
    pos = np.where(angle < 0.0, angle + math.pi, angle) / math.pi * bins
    near = np.nonzero(abs(pos - np.rint(pos)) <= bins * (_EDGE_MARGIN / math.pi))
    if len(near[0]):
        angle = fm.elementwise(math.atan2, y[near], x[near]) % math.pi
        pos[near] = angle / math.pi * bins
    return np.minimum(pos.astype(np.intp), bins - 1)


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
    # push the histogram at t through H(t): bin b's mass moves to H(t)'s image of its centre
    centres = (np.arange(bins) + 0.5) * math.pi / bins
    c = (fm.elementwise(math.cos, centres), fm.elementwise(math.sin, centres))
    w0, w1 = fm.mat_vec([e[:, None] for e in H], c)
    pushed = np.zeros((n, bins))
    to = _angle_bins(w0, w1, bins)
    np.add.at(pushed, (np.arange(n)[:, None], to), hists[:n])
    return 0.5 * float(np.abs(pushed - hists[n:]).sum(axis=1).max())


def perturbed_system(sys, generator_word, twist_center, twist_radius, T):
    """Post-compose one generator with a twist of angle T; sys itself, checked, at T = 0."""
    twist = fm.LocalizedTwist(twist_center, twist_radius, T)
    return sys.with_generator(generator_word, lambda f: fm.Composite([f, twist]) if T else f)


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
            tw = check_twisting(loop, twisting_params)
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
