"""Stable/unstable holonomies as truncated limits, with diagnostics.

Non-linear holonomies are limits of h^n = (f^n_y)^{-1} o f^n_x along stable
pairs; unstable holonomies are the same limits along the backward orbits.
One truncation serves both the point and the linear holonomy: each n
extends f^n_x(t) by one step along x and maps it back through the n
inverses along y (both orbits walked once, with ``skew.orbit_maps``), and
the derivatives those ``apply`` calls return give Dh^n(t) =
D[(f^n_y)^{-1}](f^n_x(t)) . Df^n_x(t) by the chain rule.  The point and the
matrix each freeze once their own increments fall below the query
tolerance: two in a row for smooth families, where a single increment can
vanish by accident; for a locally constant family of depth D, the first
one from the (D - 1)-th increment on, since the truncations are exactly
stationary from there (earlier increments can vanish while x and y still
read different words).

Every Dh^n(t) has determinant 1, so |det - 1| measures rounding, which the
expanding products amplify.  The linear truncation raises
``NonConvergenceError`` once it reaches the tolerance: past it, the
increments can fall below tol on rounding noise alone.

The truncation runs on one point (``_truncate``, for point queries) or on a
point set (``stable_holonomy_jets``, for the holonomy loop).  Every point of
a set meets the same maps, so one walk of each orbit serves them all; each
point keeps its own increments and stops, so both forms agree bit for bit.
Both take their steps from ``holonomy_walk``; the holonomy loop keeps them
and hands them to every later truncation of the same query.

Fibre bunching, the condition under which these limits exist, is checked
on the array pass that ``skew.c1_distance`` uses: every base point's key read
at once, and every generator and inverse applied to chunks of the fibre
sample, one family step each.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fiber_maps as fm
from .base_shift import distance
from .errors import ConfigurationError, NonConvergenceError, check_counts, check_positive
from .skew import fiber_chunks, generator_base_points, orbit_keys, orbit_maps

@dataclass
class BunchingReport:
    beta: float
    worst_margin: float
    satisfied: bool
    sample_counts: dict = field(default_factory=dict)


@dataclass
class ConvergenceDiagnostics:
    increments: list
    stopped_at: int

    @property
    def fitted_theta(self):
        """Least-squares decay rate of the positive increments."""
        return _fit_rate(self.increments, 0.0)


def _fit_rate(values, floor):
    """exp of the least-squares slope of log values[n] over the values above floor."""
    pts = [(n, math.log(v)) for n, v in enumerate(values) if v > floor]
    if len(pts) < 2:
        return 0.0
    ns, ls = np.array(pts, dtype=float).T
    return float(math.exp(np.polyfit(ns, ls, 1)[0]))


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
        check_positive(tol=self.tol)
        check_counts(n_max=self.n_max)
        # indices 0..h (stable) or -h..0 (unstable); the error names the one nearest 0
        stable = self.direction == "stable"
        h = self.x.space.metric_horizon
        lo, hi = (0, h + 1) if stable else (-h, 1)
        differ = np.flatnonzero(self.x.symbols(lo, hi) != self.y.symbols(lo, hi))
        if len(differ):
            raise ConfigurationError(
                "query pair is not on the same local %s set (index %d)"
                % (self.direction, lo + differ[0 if stable else -1])
            )

    @cached_property
    def pair_distance(self):
        return distance(self.x, self.y)


def fiber_bunching_margin(sys, beta=1.0, n_base=50, n_fiber=200, fiber_grid=16, seed=0):
    """Evaluate both fiber-bunching inequalities at n_base base points.

    The margin at a base point is sup_t ||Df(t)|| / inf_t m(Df(t)) *
    lambda^beta, with m(A) = ||A^-1||^-1 and t over a fiber_grid x
    fiber_grid grid and n_fiber random points: the sup of
    ||Df(xi)|| ||Df(eta)^-1|| lambda^beta over every pair of sampled fibre
    points xi, eta.  The same margin for the inverted generator is checked
    too; the report carries the worst.

    The base points' keys come from one ``orbit_keys`` read, and each of
    ``skew.fiber_chunks`` of the fibre sample takes one family step of every
    generator, then one of every inverse: each fibre point's sin and cos
    (Hölder family), and each generator's map of it (locally constant
    family), are computed once per margin.
    """
    if not beta > 0:
        raise ConfigurationError("beta must be positive")
    base_points = generator_base_points(sys, n_base, seed, 23)
    u, v = fm.sample_points(fiber_grid, n_fiber, seed, 1003)  # random_fiber_point(seed, i, stream=3)
    if not base_points or len(u) == 0:
        raise ConfigurationError("fiber_bunching_margin sampled no base or fiber point")
    keys = next(orbit_keys(sys, base_points, 1))
    sups = np.zeros((2, 2, len(keys)))  # [f, f^-1] x [sup ||Df||, inf m(Df)] per base point
    sups[:, 1] = np.inf
    for cu, cv in fiber_chunks(len(keys), u, v):
        for inverse, (sup, inf) in zip((False, True), sups):
            norms, conorms = _row_sups(sys.family.apply_many(keys, cu, cv, inverse)[2])
            np.maximum(sup, norms, out=sup)
            np.minimum(inf, conorms, out=inf)
    worst = float((sups[:, 0] / sups[:, 1] * sys.space.metric_base ** beta).max(initial=0.0))
    return BunchingReport(
        beta=beta,
        worst_margin=worst,
        satisfied=worst < 1.0,
        sample_counts={
            "n_base": len(base_points),
            "n_fiber": len(u),
        },
    )


def _row_sups(deriv):
    """(sup ||Df||, inf m(Df)) over each row of derivatives, as two arrays."""
    a, b, c, d = deriv
    norms = fm.mat_norms(a, b, c, d)
    # m(A) = ||A^-1||^-1, the smallest singular value, is |det A| / ||A||
    conorms = np.divide(
        abs(a * d - b * c), norms, out=np.zeros(norms.shape), where=norms > 0.0
    )
    return norms.max(axis=1), conorms.min(axis=1)


def _stop_ok(sys, increments, tol):
    """Whether the truncation may stop at the latest increment.

    ``increments`` lists one increment per step: floats for one point, or
    arrays with one entry per point, giving a bool array.  A locally
    constant family of depth D reads the word at [0, D), so past the first
    D - 2 steps the maps along x and y agree and the truncations are
    stationary: a sub-tol increment is final once there are at least
    max(1, D - 1) of them.  Smooth families can produce a spuriously tiny
    first increment (e.g. when a symmetry of the fiber point annihilates
    the leading parameter difference), so two consecutive sub-tol
    increments are required before trusting the limit.
    """
    below = increments[-1] < tol
    if sys.is_locally_constant:
        return below & (len(increments) >= max(1, sys.family.depth - 1))
    return below & (len(increments) >= 2 and increments[-2] < tol)


def holonomy_walk(sys, q):
    """The truncation's steps (f_x, g_y^-1), from one walk of each orbit."""
    backward = q.direction == "unstable"
    walk_x = orbit_maps(sys, q.x, backward)
    walk_y = orbit_maps(sys, q.y, backward)
    return ((f_x, g_y) for (f_x, _), (_, g_y) in zip(walk_x, walk_y))


def _truncate(sys, q, t, linear):
    """One walk of both orbits: ((h(t), diag), (Dh(t), diag) or None)."""
    y_inverses = []
    s, px = t, fm.IDENTITY
    prev, prev_m = t, fm.IDENTITY
    increments, m_increments = [], []
    point = jet = None
    for n, (f_x, g_y) in zip(range(1, q.n_max + 1), holonomy_walk(sys, q)):
        s, d = f_x.apply(s)
        y_inverses.append(g_y)
        cur = s
        if linear and jet is None:
            px = m = fm.mat_mul(d, px)
            for g in reversed(y_inverses):
                cur, d = g.apply(cur)
                m = fm.mat_mul(d, m)
            m_increments.append(fm.mat_sub_norm(m, prev_m))
            prev_m = m
            drift = fm.mat_det(m) - 1.0
            if abs(drift) >= q.tol:
                raise NonConvergenceError(
                    "linear holonomy truncation lost precision at n=%d: "
                    "det - 1 = %.3g" % (n, drift),
                    ConvergenceDiagnostics(m_increments, n),
                )
            if _stop_ok(sys, m_increments, q.tol):
                jet = m, ConvergenceDiagnostics(m_increments, n)
        else:
            for g in reversed(y_inverses):
                cur = g.apply(cur)[0]
        if point is None:
            increments.append(fm.torus_distance(cur, prev))
            prev = cur
            if _stop_ok(sys, increments, q.tol):
                point = cur, ConvergenceDiagnostics(increments, n)
        if point is not None and (jet is not None or not linear):
            return point, jet
    kind, incs = ("", increments) if point is None else ("linear ", m_increments)
    raise NonConvergenceError(
        "%sholonomy truncation did not converge within n_max=%d" % (kind, q.n_max),
        ConvergenceDiagnostics(incs, q.n_max),
    )


def stable_holonomy_jets(sys, q, u, v, walk):
    """``stable_holonomy_jet`` at every point (u[k], v[k]): arrays h_u, h_v, (a, b, c, d).

    One walk of each orbit serves the whole point set, since every point
    meets the same maps; ``walk`` is that walk: the pairs of
    ``holonomy_walk(sys, q)``, fresh or kept by the caller and replayed.
    Each point keeps its own increments and freezes its image and its
    matrix at its own stops, as ``_truncate`` does, so every entry equals
    the one-point truncation bit for bit; frozen points keep their place
    in the arrays until the last point stops.  Constant derivatives keep
    the matrix, its increments and its det drift in floats, shared by
    every point.  Raises ``NonConvergenceError`` when any open point trips
    the det guard or stays open at n_max, with the diagnostics of the
    first such point.
    """
    y_inverses = []
    su, sv = np.array(u, dtype=float), np.array(v, dtype=float)
    h_u, h_v = np.empty(len(su)), np.empty(len(su))
    jet = tuple(np.empty(len(su)) for _ in range(4))
    point_open = np.ones(len(su), dtype=bool)
    jet_open = point_open.copy()
    px, prev, prev_m = fm.IDENTITY, (su, sv), fm.IDENTITY
    increments, m_increments = [], []
    for n, (f_x, g_y) in zip(range(1, q.n_max + 1), walk):
        su, sv, d = f_x.apply_many(su, sv)
        y_inverses.append(g_y)
        cu, cv = su, sv
        px = m = fm.mat_mul(d, px)
        for g in reversed(y_inverses):
            cu, cv, d = g.apply_many(cu, cv)
            m = fm.mat_mul(d, m)
        m_increments.append(fm.mat_norms(*(a - b for a, b in zip(m, prev_m))))
        prev_m = m
        drift = fm.mat_det(m) - 1.0
        bad = np.flatnonzero(jet_open & (abs(drift) >= q.tol))
        if len(bad):
            k = bad[0]
            raise NonConvergenceError(
                "linear holonomy truncation lost precision at n=%d: "
                "det - 1 = %.3g" % (n, _entry(drift, k)),
                ConvergenceDiagnostics([_entry(a, k) for a in m_increments], n),
            )
        stop = jet_open & _stop_ok(sys, m_increments, q.tol)
        for out, e in zip(jet, m):
            np.copyto(out, e, where=stop)
        jet_open &= ~stop
        increments.append(fm.elementwise(math.hypot, *fm.torus_delta((cu, cv), prev)))
        prev = cu, cv
        stop = point_open & _stop_ok(sys, increments, q.tol)
        h_u[stop], h_v[stop] = cu[stop], cv[stop]
        point_open &= ~stop
        if not (point_open | jet_open).any():
            return h_u, h_v, jet
    k = np.flatnonzero(point_open | jet_open)[0]
    kind, incs = ("", increments) if point_open[k] else ("linear ", m_increments)
    raise NonConvergenceError(
        "%sholonomy truncation did not converge within n_max=%d" % (kind, q.n_max),
        ConvergenceDiagnostics([_entry(a, k) for a in incs], q.n_max),
    )


def _entry(a, k):
    """Entry k of a per-point value: an array, or a float shared by every point."""
    return float(a[k] if np.ndim(a) else a)


def stable_holonomy_point(sys, q, t):
    """Holonomy image of a fiber point, with convergence diagnostics."""
    return _truncate(sys, q, t, linear=False)[0]


def stable_holonomy_jet(sys, q, t):
    """(h^s(t), linear holonomy, its diagnostics) from one truncation."""
    (t_y, _), (m, diag) = _truncate(sys, q, t, linear=True)
    return t_y, m, diag


def linear_stable_holonomy(sys, q, t):
    """Linear holonomy at (x, t), paired with (y, h^s(t)) on the strong set."""
    _, m, diag = stable_holonomy_jet(sys, q, t)
    return m, diag


def unstable_holonomy_point(sys, q, t):
    if q.direction != "unstable":
        raise ConfigurationError("query direction must be 'unstable'")
    return stable_holonomy_point(sys, q, t)


def holonomy_cocycle_check(sys, q, t):
    """Defect of the equivariance axiom plus any Holder-bound excess.

    The equivariance defect compares h^s over shifted pairs with the
    conjugated holonomy for j in {1, 2, 3}.  When an envelope constant L can
    be fitted from the first increments of h(t) (c / (1 - theta) / d(x, y)^alpha),
    the excess of d(h(t), t) <= L d(x, y)^alpha adds to the defect.
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
    head = [v for v in diag.increments[:3] if v > 0.0]
    theta = diag.fitted_theta
    if head and 0.0 < theta < 1.0 and d > 0.0:
        c = max(v / theta ** n for n, v in enumerate(head))
        envelope_constant = c / (1.0 - theta) / d ** sys.holder_alpha
        excess = fm.torus_distance(h_t, t) - envelope_constant * d ** sys.holder_alpha
        if excess > 0.0:
            defect += excess
    return defect
