"""Lyapunov exponent estimation along the fiber direction.

Monte Carlo orbits are addressed by counter-based streams derived from
(seed, orbit_index), so estimates are a pure function of the seed.  The
return map g of a periodic point runs on arrays: the pinching grid and
the Oseledets frames step all their fiber points at once through
``g.apply_many``, equal bit for bit to one point at a time.  An
independent projective transfer-operator discretization provides the
cross-check oracle for random matrix products.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fiber_maps as fm
from . import skew
from .base_shift import sample_sequence
from .errors import ConfigurationError
from .rng import derive_seed
from .skew import iterate_cocycle, orbit_maps, random_fiber_point

DELTA_PINCH = 0.05

GENERIC_DIRECTION = (0.6471298642911707, 0.7623855618404413)  # a fixed unit vector


@dataclass(frozen=True)
class ExponentEstimate:
    mean: float
    stderr: float
    n_orbits: int
    n_steps: int
    det_defect_max: float
    seed: int

    @property
    def reliable(self):
        return self.det_defect_max < 1e-6


@dataclass(frozen=True)
class OseledetsFrame:
    e_u: float  # projective angle in [0, pi)
    e_s: float
    gap: float
    converged: bool
    depth_used: int


def pointwise_exponent(sys, x, t, n):
    """(1/n) log ||Df^n_x(t)||; negative n gives the backward exponent.

    For n < 0 the value returned is -(1/|n|) log ||Df^n_x(t)||, i.e. the
    estimate of the smaller exponent, which by det = 1 is the negative of
    the forward one.
    """
    if n == 0:
        raise ConfigurationError("n must be nonzero")
    res = iterate_cocycle(sys, x, t, n)
    if n > 0:
        return res.log_norm / n
    return -res.log_norm / abs(n)


def integrated_exponent(sys, n_orbits=100, n_steps=1000, seed=0):
    """Monte Carlo mean of the pointwise exponent over the product measure."""
    if n_orbits < 1 or n_steps < 1:
        raise ConfigurationError("n_orbits and n_steps must be >= 1")
    base_seed = derive_seed(seed, 1)
    fiber_seed = derive_seed(seed, 2)
    values = np.empty(n_orbits)
    defects = np.empty(n_orbits)
    for i in range(n_orbits):
        x = sample_sequence(sys.space, sys.measure, base_seed, i)
        t = random_fiber_point(fiber_seed, i)
        res = iterate_cocycle(sys, x, t, n_steps)
        values[i] = res.log_norm / n_steps
        defects[i] = res.det_defect
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_orbits)) if n_orbits > 1 else 0.0
    return ExponentEstimate(
        mean=mean,
        stderr=stderr,
        n_orbits=n_orbits,
        n_steps=n_steps,
        det_defect_max=float(defects.max()),
        seed=seed,
    )


def return_map(sys, p):
    """g = f^kappa along the periodic fiber, as a single fiber map."""
    factors = [f for f, _ in orbit_maps(sys, p.point(sys.space), n=p.period)][::-1]
    if len(factors) == 1:
        return factors[0]
    return fm.Composite(factors)


def _mean_log_norms(g, u, v, n_steps):
    """(1/n) log ||Dg^n(t)|| at every point t = (u[i], v[i]), for n = n_steps.

    All points step together through ``g.apply_many``; the log norm is
    ``accumulate_cocycle``'s, in array form, so each value equals the
    single-point result bit for bit.  A constant derivative keeps the
    product in floats, which are broadcast to the points at the end.
    """
    pp, qq, rr, ss = fm.IDENTITY  # running product, row-major
    log_acc = 0.0
    for k in range(1, n_steps + 1):
        u, v, (a, b, c, d) = g.apply_many(u, v)
        pp, qq, rr, ss = a * pp + b * rr, a * qq + b * ss, c * pp + d * rr, c * qq + d * ss
        if k % skew.RENORM_EVERY == 0:
            nb = fm.mat_norms(pp, qq, rr, ss)
            log_acc = log_acc + fm.elementwise(math.log, nb)
            pp, qq, rr, ss = pp / nb, qq / nb, rr / nb, ss / nb
    log_norm = log_acc + fm.elementwise(math.log, fm.mat_norms(pp, qq, rr, ss))
    return np.broadcast_to(log_norm / n_steps, u.shape).copy()


def return_map_exponent_grid(sys, p, grid=64, n_steps=1000):
    """Pointwise exponents of the return cocycle on a fiber grid."""
    g = return_map(sys, p)
    return _mean_log_norms(g, *fm.grid_points(grid), n_steps).reshape(grid, grid)


def projective_gap(a, b):
    """Acute angle between two projective angles (floats or arrays)."""
    d = abs(a - b) % math.pi
    return np.minimum(d, math.pi - d)


def _limit_angles(f, f_inv, u, v, depth):
    """Angles of Df^k(f^{-k}(t)) applied to a generic vector, for k = depth, 2 depth.

    One backward walk of 2 depth steps serves both k; each push starts at
    the far end of its walk and normalises the vector at every step.  The
    vector stays two floats while the derivatives are constant.
    """
    derivs = []
    for _ in range(2 * depth):
        u, v, _ = f_inv.apply_many(u, v)
        derivs.append(f.apply_many(u, v)[2])
    angles = []
    for k in (depth, 2 * depth):
        e = GENERIC_DIRECTION
        for d in reversed(derivs[:k]):
            e = fm.mat_vec_unit(d, e)
        angle = fm.elementwise(math.atan2, e[1], e[0]) % math.pi
        angles.append(np.broadcast_to(angle, u.shape))
    return angles


def oseledets_frames(sys, p, u, v, depth=200, delta_pinch=DELTA_PINCH, gap_steps=400):
    """Estimated Oseledets directions of the return cocycle at every (u[i], v[i]).

    The gap is the mean log norm of Dg^gap_steps.  Where it reaches
    delta_pinch, e_u and e_s are the limit directions of g and g^{-1} at
    2 depth; the frame has converged when they agree with those at depth
    to 1e-4 and are more than 1e-6 apart.  All points go through g in one
    array pass, so each frame equals the single-point computation bit for bit.
    """
    g = return_map(sys, p)
    gaps = _mean_log_norms(g, u, v, gap_steps)
    frames = [OseledetsFrame(0.0, 0.0, gap, False, depth) for gap in gaps.tolist()]
    live = np.flatnonzero(gaps >= delta_pinch)
    if len(live) == 0:
        return frames
    g_inv = g.inverse()
    e_u_1, e_u_2 = _limit_angles(g, g_inv, u[live], v[live], depth)
    e_s_1, e_s_2 = _limit_angles(g_inv, g, u[live], v[live], depth)
    converged = (
        (projective_gap(e_u_1, e_u_2) < 1e-4)
        & (projective_gap(e_s_1, e_s_2) < 1e-4)
        & (projective_gap(e_u_2, e_s_2) > 1e-6)
    )
    for i, e_u, e_s, c in zip(
        live.tolist(), e_u_2.tolist(), e_s_2.tolist(), converged.tolist()
    ):
        frames[i] = OseledetsFrame(e_u, e_s, frames[i].gap, c, 2 * depth)
    return frames


def oseledets_frame(sys, p, t, depth=200, delta_pinch=DELTA_PINCH, gap_steps=400):
    """Estimated Oseledets directions of the return cocycle at one fiber point.

    It runs the array pass on one point, many times slower per point than a
    batch: callers with many points use ``oseledets_frames``.
    """
    u, v = (np.array([c], dtype=float) for c in t)
    return oseledets_frames(sys, p, u, v, depth, delta_pinch, gap_steps)[0]


def furstenberg_exponent_transfer_operator(
    matrices, probs, n_bins=10000, n_iter=2000, tol=1e-13
):
    """Independent oracle: exponent of an i.i.d. random matrix product.

    Discretizes the projective line into angle bins, power-iterates the
    transfer operator to its stationary measure, and integrates the
    log-expansion.  Shares no code path with orbit simulation.
    """
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-12 or (probs <= 0).any():
        raise ConfigurationError("probs must be positive and sum to 1")
    theta = (np.arange(n_bins) + 0.5) * math.pi / n_bins
    vx, vy = np.cos(theta), np.sin(theta)
    images = []
    log_gains = []
    for m in matrices:
        a, b, c, d = m
        wx = a * vx + b * vy
        wy = c * vx + d * vy
        norm = np.hypot(wx, wy)
        log_gains.append(np.log(norm))
        phi = np.mod(np.arctan2(wy, wx), math.pi)
        idx = np.clip((phi / math.pi * n_bins).astype(np.int64), 0, n_bins - 1)
        images.append(idx)
    nu = np.full(n_bins, 1.0 / n_bins)
    for _ in range(n_iter):
        new = np.zeros(n_bins)
        for p_i, idx in zip(probs, images):
            np.add.at(new, idx, p_i * nu)
        if np.abs(new - nu).sum() < tol:
            nu = new
            break
        nu = new
    exponent = 0.0
    for p_i, lg in zip(probs, log_gains):
        exponent += p_i * float((nu * lg).sum())
    return exponent
