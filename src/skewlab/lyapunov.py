"""Lyapunov exponent estimation along the fiber direction.

Monte Carlo orbits are addressed by counter-based streams derived from
(seed, orbit_index), so estimates are a pure function of the seed.
``integrated_exponent`` reads a group of orbits' keys with one
``skew.orbit_keys`` call and walks each orbit by key, equal to
``iterate_cocycle`` bit for bit.  When every generator of a locally
constant family has a constant derivative (toral maps and their
compositions), the fiber cocycle is a random product of those matrices,
the same at every fiber point: the walk multiplies the matrices
(``skew.table_cocycle``) and draws no fiber point.  A Holder family walks
a fiber point through ``skew.standard_map_cocycle``, which steps the
standard map inline from each parameter K.  Any other table walks a fiber
point through ``skew.accumulate_cocycle``, one step per key from the
family's ``plans``: its toral steps are taken inline, and a twist's
``apply`` runs only on the twist's disc.  The walk is chosen once per
call.  The return map g of a periodic point runs on arrays: the pinching
grid and the Oseledets frames step all their fiber points at once through
``g.apply_many``, equal bit for bit to one point at a time.  Once g's
derivative comes back as floats, it is the same matrix at every point
(a toral return map), and the points stop walking: every later step
reuses that matrix.  An independent projective transfer-operator
discretization provides the cross-check oracle for random matrix products.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fiber_maps as fm
from . import skew
from .base_shift import sample_sequence
from .errors import ConfigurationError, SkewlabError, check_counts, check_positive
from .rng import derive_seed
from .skew import accumulate_cocycle, orbit_maps, random_fiber_point, standard_map_cocycle

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


@dataclass(frozen=True)
class OseledetsFrame:
    e_u: float  # projective angle in [0, pi)
    e_s: float
    gap: float
    converged: bool
    depth_used: int


def integrated_exponent(sys, n_orbits=100, n_steps=1000, seed=0):
    """Monte Carlo mean of the pointwise exponent over the product measure.

    One ``skew.orbit_keys`` read serves each group of orbits whose keys fit
    ``skew._MAX_BATCH_CELLS``; a longer orbit streams its chunks alone.
    Each orbit walks its keys: ``skew.table_cocycle`` with a derivative
    table, else a Lebesgue-sampled fiber point, through
    ``standard_map_cocycle`` for a Holder family and ``accumulate_cocycle``
    with the family's ``plans`` at the keys for a table.  An orbit whose log norm
    is not finite (a product that overflows within RENORM_EVERY steps,
    such as that of a standard map with |K| past about 1e19) raises
    ``SkewlabError``, naming the orbit.
    """
    check_counts(n_orbits=n_orbits, n_steps=n_steps)
    base_seed = derive_seed(seed, 1)
    fiber_seed = derive_seed(seed, 2)
    family = sys.family
    if not sys.is_locally_constant:
        def walk(rows, i):
            return standard_map_cocycle(rows, random_fiber_point(fiber_seed, i))[1:]
    elif family.derivatives is None:
        def walk(rows, i):
            steps = itertools.chain.from_iterable(family.plans[row].tolist() for row in rows)
            return accumulate_cocycle(steps, random_fiber_point(fiber_seed, i))[1:]
    else:
        def walk(rows, i):
            return skew.table_cocycle(family.derivatives, (row.tolist() for row in rows))
    group = max(1, skew._MAX_BATCH_CELLS // n_steps)
    values = np.empty(n_orbits)
    defects = np.empty(n_orbits)
    for start in range(0, n_orbits, group):
        xs = [
            sample_sequence(sys.space, sys.measure, base_seed, i)
            for i in range(start, min(start + group, n_orbits))
        ]
        chunks = skew.orbit_keys(sys, xs, n_steps)
        # a group's chunks fit the budget together; a lone orbit streams its own
        orbits = zip(*chunks) if len(xs) > 1 else [(c[0] for c in chunks)]
        for i, chunk_rows in enumerate(orbits, start):
            log_norm, defects[i] = walk(chunk_rows, i)
            if not math.isfinite(log_norm):
                raise SkewlabError(
                    "orbit %d: the log norm of its derivative product is %r, not finite"
                    % (i, log_norm)
                )
            values[i] = log_norm / n_steps
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


def _derivatives(f, u, v, n, f_inv=None):
    """Df along n steps from the points (u, v), one derivative per step.

    The points walk forward through f, or, given f_inv, back through the
    preimages f^{-1}(t), f^{-2}(t), ..., with Df taken at each.  Once the
    four entries come back as floats, Df is the same at every point
    (``FiberMap.apply_many``), so the walk stops and the remaining steps
    yield those floats.
    """
    for k in range(n):
        if f_inv is None:
            u, v, d = f.apply_many(u, v)
        else:
            u, v, _ = f_inv.apply_many(u, v)
            d = f.apply_many(u, v)[2]
        yield d
        if not any(isinstance(e, np.ndarray) for e in d):
            yield from itertools.repeat(d, n - 1 - k)
            return


def _mean_log_norms(g, u, v, n_steps):
    """(1/n) log ||Dg^n(t)|| at every point t = (u[i], v[i]), for n = n_steps.

    All points step together through ``g.apply_many``; the log norm is
    ``accumulate_cocycle``'s, in array form, so each value equals the
    single-point result bit for bit.  A constant derivative stops the walk
    and keeps the product in floats, which are broadcast to the points at
    the end.
    """
    pp, qq, rr, ss = fm.IDENTITY  # running product, row-major
    log_acc = 0.0
    for k, (a, b, c, d) in enumerate(_derivatives(g, u, v, n_steps), 1):
        pp, qq, rr, ss = a * pp + b * rr, a * qq + b * ss, c * pp + d * rr, c * qq + d * ss
        if k % skew.RENORM_EVERY == 0:
            nb = fm.mat_norms(pp, qq, rr, ss)
            log_acc = log_acc + fm.elementwise(math.log, nb)
            pp, qq, rr, ss = pp / nb, qq / nb, rr / nb, ss / nb
    log_norm = log_acc + fm.elementwise(math.log, fm.mat_norms(pp, qq, rr, ss))
    return np.broadcast_to(log_norm / n_steps, u.shape).copy()


def return_map_exponent_grid(sys, p, grid=64, n_steps=1000):
    """Pointwise exponents of the return cocycle on a fiber grid."""
    check_counts(grid=grid, n_steps=n_steps)
    g = return_map(sys, p)
    return _mean_log_norms(g, *fm.grid_points(grid), n_steps).reshape(grid, grid)


def projective_gap(a, b):
    """Acute angle between two projective angles (floats or arrays)."""
    d = abs(a - b) % math.pi
    return np.minimum(d, math.pi - d)


def _limit_angles(f, f_inv, u, v, depth):
    """Angles of Df^k(f^{-k}(t)) applied to a generic vector, for k = depth, 2 depth.

    One backward walk of 2 depth steps serves both k; each push starts at
    the far end of its walk and normalises the vector at every step.  When
    the derivatives are constant the points stop walking, and the vector
    stays two floats: the walk's constant tail pushes it inline, with
    ``fm.mat_vec_unit``'s operations on floats, and only the derivatives
    that depend on the point go through ``fm.mat_vec_unit``.
    """
    derivs = list(_derivatives(f, u, v, 2 * depth, f_inv))
    varying = next(  # the steps before the derivative turned constant
        (i for i, d in enumerate(derivs) if not any(isinstance(e, np.ndarray) for e in d)),
        len(derivs),
    )
    angles = []
    for k in (depth, 2 * depth):
        x, y = GENERIC_DIRECTION
        for a, b, c, d in reversed(derivs[varying:k]):
            x, y = a * x + b * y, c * x + d * y
            n = math.hypot(x, y)
            x, y = x / n, y / n
        e = x, y
        for d in reversed(derivs[:min(varying, k)]):
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
    check_counts(depth=depth, gap_steps=gap_steps)
    check_positive(delta_pinch=delta_pinch)
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

    It runs the array pass on one point.  When the return map depends on
    the point, that is many times slower per point than a batch: callers
    with many points use ``oseledets_frames``.
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
