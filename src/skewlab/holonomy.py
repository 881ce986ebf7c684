"""Stable/unstable holonomies as truncated limits, with diagnostics.

Non-linear holonomies are limits of (f^n_y)^{-1} o f^n_x along stable
pairs; linear holonomies are the analogous limits for the derivative
cocycle.  Unstable holonomies reuse the same code path on the inverted
dynamics: both walk the orbits of x and y with ``skew.orbit_maps``.
Truncation stops once successive increments fall below the query
tolerance: two in a row for smooth families, where a single increment can
vanish by accident; for a locally constant family of depth D, the first
one from the (D - 1)-th increment on, since the truncations are exactly
stationary from there (earlier increments can vanish while x and y still
read different words).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fiber_maps as fm
from .base_shift import distance, sample_sequence
from .errors import ConfigurationError, NonConvergenceError
from .rng import derive_seed
from .skew import orbit_maps, random_fiber_point

_OVERFLOW_GUARD = 1e120


@dataclass
class BunchingReport:
    beta: float
    worst_margin: float
    satisfied: bool
    sample_counts: dict = field(default_factory=dict)


@dataclass
class ConvergenceDiagnostics:
    increments: list
    fitted_theta: float
    stopped_at: int
    holder_ratio: float = 0.0


@dataclass(frozen=True)
class HolonomyQuery:
    direction: str  # "stable" | "unstable"
    x: object
    y: object
    tol: float = 1e-9
    n_max: int = 256

    def __post_init__(self):
        if self.direction not in ("stable", "unstable"):
            raise ConfigurationError("direction must be 'stable' or 'unstable'")
        horizon = self.x.space.metric_horizon
        rng = range(0, horizon + 1) if self.direction == "stable" else range(-horizon, 1)
        for j in rng:
            if self.x.symbol(j) != self.y.symbol(j):
                raise ConfigurationError(
                    "query pair is not on the same local %s set (index %d)"
                    % (self.direction, j)
                )

    @cached_property
    def pair_distance(self):
        return distance(self.x, self.y)


def _fit_theta(increments):
    """Least-squares decay rate of the positive increments."""
    pts = [(n, math.log(v)) for n, v in enumerate(increments) if v > 0.0]
    if len(pts) < 2:
        return 0.0
    ns = np.array([p[0] for p in pts], dtype=float)
    ls = np.array([p[1] for p in pts], dtype=float)
    slope = np.polyfit(ns, ls, 1)[0]
    return float(math.exp(slope))


def fiber_bunching_margin(sys, beta, n_base=50, n_fiber=200, grid=16, seed=0):
    """Evaluate both fiber-bunching inequalities over sampled points.

    The margin at a base point is (sup_t ||Df(t)|| / sup_t m(Df(t))) *
    lambda^beta, and the analogue for the inverted generator; the report
    carries the worst margin over all samples.
    """
    if beta <= 0:
        raise ConfigurationError("beta must be positive")
    lam = sys.space.metric_base
    if sys.is_locally_constant:
        from .base_shift import BaseSequence

        words = sys.admissible_words(sys.family.depth)
        base_points = []
        for w in words:
            base_points.append(
                BaseSequence(sys.space, lambda j, w=w: w[min(max(j, 0), len(w) - 1)])
            )
    else:
        base_points = [
            sample_sequence(sys.space, sys.measure, derive_seed(seed, 23), i)
            for i in range(n_base)
        ]
    pts = [((i + 0.5) / grid, (j + 0.5) / grid) for i in range(grid) for j in range(grid)]
    pts.extend(random_fiber_point(seed, i, stream=3) for i in range(n_fiber))
    u, v = (np.array(c) for c in zip(*pts))
    worst = 0.0
    for x in base_points:
        for f in next(orbit_maps(sys, x, n=1)):
            _, _, (a, b, c, d) = f.apply_many(u, v)
            norms = fm.mat_norms(a, b, c, d)
            # m(A) = |det A| / ||A||, as fm.mat_conorm
            conorms = np.divide(
                abs(a * d - b * c), norms, out=np.zeros(norms.shape), where=norms > 0.0
            )
            sup_norm = float(norms.max(initial=0.0))
            margin = sup_norm / float(conorms.max(initial=0.0)) * lam ** beta
            if margin > worst:
                worst = margin
    return BunchingReport(
        beta=beta,
        worst_margin=worst,
        satisfied=worst < 1.0,
        sample_counts={
            "n_base": len(base_points),
            "n_fiber": len(pts),
        },
    )


def _stop_ok(sys, increments, tol):
    """Whether the truncation may stop at the latest increment.

    A locally constant family of depth D reads the word at [0, D), so past
    the first D - 2 steps the maps along x and y agree and the truncations
    are stationary: a sub-tol increment is final once there are at least
    max(1, D - 1) of them.  Smooth families can produce a spuriously tiny
    first increment (e.g. when a symmetry of the fiber point annihilates
    the leading parameter difference), so two consecutive sub-tol
    increments are required before trusting the limit.
    """
    if increments[-1] >= tol:
        return False
    if sys.is_locally_constant:
        return len(increments) >= max(1, sys.family.depth - 1)
    return len(increments) >= 2 and increments[-2] < tol


def stable_holonomy_point(sys, q, t):
    """Holonomy image of a fiber point, with convergence diagnostics.

    The n-th truncation is h^n(t) = (f^n_y)^{-1}(f^n_x(t)), or its mirror
    along the backward orbits for unstable queries; f^n_x(t) and the list
    of inverses along y grow by one step per n.
    """
    backward = q.direction == "unstable"
    walk_x = orbit_maps(sys, q.x, backward)
    walk_y = orbit_maps(sys, q.y, backward)
    y_inverses = []
    s = t
    increments = []
    prev = t
    for n, (f_x, _), (_, g_y) in zip(range(1, q.n_max + 1), walk_x, walk_y):
        s = f_x.apply(s)[0]
        y_inverses.append(g_y)
        cur = s
        for g in reversed(y_inverses):
            cur = g.apply(cur)[0]
        inc = fm.torus_distance(cur, prev)
        increments.append(inc)
        prev = cur
        if _stop_ok(sys, increments, q.tol):
            diag = ConvergenceDiagnostics(increments, _fit_theta(increments), n)
            d = q.pair_distance
            if d > 0.0:
                diag.holder_ratio = fm.torus_distance(cur, t) / d ** sys.holder_alpha
            return cur, diag
    raise NonConvergenceError(
        "holonomy truncation did not converge within n_max=%d" % q.n_max,
        ConvergenceDiagnostics(increments, _fit_theta(increments), q.n_max),
    )


def stable_holonomy_jet(sys, q, t):
    """(h^s(t), linear holonomy, its diagnostics) from one point truncation."""
    t_y, _ = stable_holonomy_point(sys, q, t)
    backward = q.direction == "unstable"
    walk_x = orbit_maps(sys, q.x, backward)
    walk_y = orbit_maps(sys, q.y, backward)
    px = fm.IDENTITY
    py = fm.IDENTITY
    tx, ty = t, t_y
    prev = fm.IDENTITY
    increments = []
    for n, (fx, _), (fy, _) in zip(range(1, q.n_max + 1), walk_x, walk_y):
        tx, dx = fx.apply(tx)
        ty, dy = fy.apply(ty)
        px = fm.mat_mul(dx, px)
        py = fm.mat_mul(dy, py)
        if fm.mat_norm(px) > _OVERFLOW_GUARD or fm.mat_norm(py) > _OVERFLOW_GUARD:
            break
        cur = fm.mat_mul(fm.mat_inv_det1(py), px)
        inc = fm.mat_sub_norm(cur, prev)
        increments.append(inc)
        prev = cur
        if _stop_ok(sys, increments, q.tol):
            diag = ConvergenceDiagnostics(increments, _fit_theta(increments), n)
            d = q.pair_distance
            if d > 0.0:
                diag.holder_ratio = (
                    fm.mat_sub_norm(cur, fm.IDENTITY) / d ** sys.holder_alpha
                )
            return t_y, cur, diag
    raise NonConvergenceError(
        "linear holonomy truncation did not converge within n_max=%d" % q.n_max,
        ConvergenceDiagnostics(increments, _fit_theta(increments), len(increments)),
    )


def linear_stable_holonomy(sys, q, t):
    """Linear holonomy at (x, t), paired with (y, h^s(t)) on the strong set."""
    _, m, diag = stable_holonomy_jet(sys, q, t)
    return m, diag


def unstable_holonomy_point(sys, q, t):
    if q.direction != "unstable":
        raise ConfigurationError("query direction must be 'unstable'")
    return stable_holonomy_point(sys, q, t)


def holonomy_cocycle_check(sys, q, t, envelope_constant=None):
    """Defect of the equivariance axiom plus any Holder-bound excess.

    The equivariance defect compares h^s over shifted pairs with the
    conjugated holonomy for j in {1, 2, 3}.  When an envelope constant is
    supplied (or fitted from the increments), the excess of
    d(h(t), t) <= L d(x, y)^alpha adds to the defect.
    """
    sign = -1 if q.direction == "unstable" else 1
    h_t, diag = stable_holonomy_point(sys, q, t)
    defect = 0.0
    point = t
    image = h_t
    walk_x = orbit_maps(sys, q.x, backward=sign < 0, n=3)
    walk_y = orbit_maps(sys, q.y, backward=sign < 0, n=3)
    for j, ((f_x, _), (f_y, _)) in enumerate(zip(walk_x, walk_y), 1):
        point = f_x.apply(point)[0]
        image = f_y.apply(image)[0]
        qj = HolonomyQuery(q.direction, q.x.shift(sign * j), q.y.shift(sign * j), q.tol, q.n_max)
        direct, _ = stable_holonomy_point(sys, qj, point)
        defect = max(defect, fm.torus_distance(direct, image))
    d = q.pair_distance
    if envelope_constant is None:
        head = [v for v in diag.increments[:3] if v > 0.0]
        theta = diag.fitted_theta
        if head and 0.0 < theta < 1.0 and d > 0.0:
            c = max(v / theta ** n for n, v in enumerate(head))
            envelope_constant = c / (1.0 - theta) / d ** sys.holder_alpha
    if envelope_constant is not None and d > 0.0:
        excess = fm.torus_distance(h_t, t) - envelope_constant * d ** sys.holder_alpha
        if excess > 0.0:
            defect += excess
    return defect


def strong_stable_contraction_rate(sys, q, t, n=20):
    """Fitted exponential rate of the fiber distance along the forward orbit.

    Only the initial decreasing segment above the truncation noise floor is
    fitted: once the distance reaches the holonomy tolerance, cocycle
    expansion amplifies the truncation error and the tail grows again.
    """
    t_y, _ = stable_holonomy_point(sys, q, t)
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
    pts = [(k, math.log(v)) for k, v in enumerate(dists) if v > 1e-14]
    if len(pts) < 2:
        return 0.0
    ks = np.array([p[0] for p in pts], dtype=float)
    ls = np.array([p[1] for p in pts], dtype=float)
    slope = np.polyfit(ks, ls, 1)[0]
    return float(math.exp(slope))
