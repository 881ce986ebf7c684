"""Lyapunov exponent estimation along the fiber direction.

Monte Carlo orbits are addressed by counter-based streams derived from
(seed, orbit_index), so estimates are a pure function of the seed.  An
independent projective transfer-operator discretization provides the
cross-check oracle for random matrix products.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fiber_maps as fm
from .base_shift import sample_sequence
from .errors import ConfigurationError
from .rng import derive_seed
from .skew import accumulate_cocycle, iterate_cocycle, orbit_maps, random_fiber_point

DELTA_PINCH = 0.05


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


def pointwise_exponent(sys, x, t, n, renorm_every=16):
    """(1/n) log ||Df^n_x(t)||; negative n gives the backward exponent.

    For n < 0 the value returned is -(1/|n|) log ||Df^n_x(t)||, i.e. the
    estimate of the smaller exponent, which by det = 1 is the negative of
    the forward one.
    """
    if n == 0:
        raise ConfigurationError("n must be nonzero")
    res = iterate_cocycle(sys, x, t, n, renorm_every)
    if n > 0:
        return res.log_norm / n
    return -res.log_norm / abs(n)


def integrated_exponent(sys, n_orbits, n_steps, seed, renorm_every=16):
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
        res = iterate_cocycle(sys, x, t, n_steps, renorm_every)
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


def return_map_exponent_grid(sys, p, grid=64, n_steps=1000, renorm_every=16):
    """Pointwise exponents of the return cocycle on a fiber grid.

    All grid points step together through ``g.apply_many``; the log norm
    is ``accumulate_cocycle``'s, in array form, so each value equals the
    single-point result bit for bit.
    """
    g = return_map(sys, p)
    axis = (np.arange(grid) + 0.5) / grid
    u, v = np.repeat(axis, grid), np.tile(axis, grid)
    pp, qq, rr, ss = fm.IDENTITY  # running product, row-major
    log_acc = 0.0
    since = 0
    for _ in range(n_steps):
        u, v, (a, b, c, d) = g.apply_many(u, v)
        pp, qq, rr, ss = a * pp + b * rr, a * qq + b * ss, c * pp + d * rr, c * qq + d * ss
        since += 1
        if since == renorm_every:
            nb = fm.mat_norms(pp, qq, rr, ss)
            log_acc = log_acc + fm.elementwise(math.log, nb)
            pp, qq, rr, ss = pp / nb, qq / nb, rr / nb, ss / nb
            since = 0
    log_norm = log_acc + fm.elementwise(math.log, fm.mat_norms(pp, qq, rr, ss))
    return (log_norm / n_steps).reshape(grid, grid)


def pinching_integral(sys, p, grid=64, n_steps=1000, renorm_every=16):
    """Grid average of the return-map exponent over the periodic fiber."""
    return float(return_map_exponent_grid(sys, p, grid, n_steps, renorm_every).mean())


def _direction_angle(v):
    return math.atan2(v[1], v[0]) % math.pi


def projective_gap(a, b):
    """Acute angle between two projective angles."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def _limit_direction(g, t, depth):
    """Direction of Dg^depth(g^{-depth}(t)) applied to a generic vector."""
    g_inv = g.inverse()
    back = [t]
    for _ in range(depth):
        back.append(g_inv.apply(back[-1])[0])
    v = (0.6471298642911707, 0.7623855618404413)  # fixed generic direction
    for k in range(depth, 0, -1):
        _, d = g.apply(back[k])
        v = fm.mat_vec(d, v)
        n = math.hypot(*v)
        v = (v[0] / n, v[1] / n)
    return _direction_angle(v)


def oseledets_frame(sys, p, t, depth=200, delta_pinch=DELTA_PINCH, gap_steps=400):
    """Estimated Oseledets directions of the return cocycle at a fiber point."""
    g = return_map(sys, p)
    gap = accumulate_cocycle(itertools.repeat(g, gap_steps), t)[1] / gap_steps
    if gap < delta_pinch:
        return OseledetsFrame(0.0, 0.0, gap, False, depth)
    g_inv = g.inverse()
    e_u_1 = _limit_direction(g, t, depth)
    e_u_2 = _limit_direction(g, t, 2 * depth)
    e_s_1 = _limit_direction(g_inv, t, depth)
    e_s_2 = _limit_direction(g_inv, t, 2 * depth)
    converged = (
        projective_gap(e_u_1, e_u_2) < 1e-4
        and projective_gap(e_s_1, e_s_2) < 1e-4
        and projective_gap(e_u_2, e_s_2) > 1e-6
    )
    return OseledetsFrame(e_u_2, e_s_2, gap, converged, 2 * depth)


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
