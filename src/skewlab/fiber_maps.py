"""Area-preserving diffeomorphisms of the 2-torus with exact derivatives.

Points are plain (u, v) tuples with coordinates in [0, 1); 2x2 matrices are
(a, b, c, d) tuples in row-major order.  ``apply`` maps one point; every map
kind also has ``apply_many(u, v)``, which maps arrays of coordinates and
returns the image coordinates as arrays and the four derivative entries,
equal bit for bit to ``apply`` at each point.  The entries are arrays, or
floats where the derivative is the same at every point (toral maps and
their compositions): they broadcast against the points, and a product of
such derivatives stays four floats.  The standard map's batched steps,
forward and inverse (``standard_map_many``, ``standard_map_inverse_many``),
take the parameter K as an array too: one value per point, or a column of
values against a row of points, with sin and cos taken once per point.

The batch rule that keeps them equal: numpy does only + - * /, floor, sqrt
and comparisons, which round exactly as the scalar float operations do.
Sin, cos, exp, hypot, atan2 and log go through ``math`` one element at a
time (``elementwise``), because numpy's versions can differ from libm in
the last bit.  Three exact fast paths ride on that rule:

- Mod 1 on arrays is ``mod1``, x - floor(x), several times faster than
  numpy's float ``%``.  Both round the same exact value once: numpy's
  x % 1.0 is fmod(x, 1), which is exact, plus 1 when it is negative, and
  x - floor(x) is that same sum in one subtraction; both give +0.0 where
  the remainder is zero.  Scalar ``apply`` keeps Python's ``%``, so float
  points stay Python floats.
- A numpy transcendental may pick a discrete outcome, never a value:
  where only a bin of its result is kept and the result lies well inside
  a bin, numpy's value and libm's give the same bin, and only the entries
  near an edge are recomputed through ``math`` (``criterion._angle_bins``).
- Scaling by a power of two is exact while the result stays normal, and
  libm's atan2 gave (x, y) and (2**k x, 2**k y) the same angle on every
  pair tried: a walk that keeps only a direction's angle may scale it by
  the power of two that puts its larger entry in [0.5, 1)
  (``np.frexp``/``np.ldexp``) in place of dividing by its hypot, and its
  angles are those of the unnormalised product
  (``criterion._direction_histograms``).
"""

import math

import numpy as np

from .errors import ConfigurationError, check_finite
from .rng import counter_uniform, counter_uniforms

IDENTITY = (1.0, 0.0, 0.0, 1.0)

TWO_PI = 2.0 * math.pi


def mod1(x):
    """x % 1.0 over an array, as x - floor(x): equal bit for bit (module docstring)."""
    return x - np.floor(x)


def torus_delta(a, b):
    """Shortest displacement from b to a, componentwise in [-1/2, 1/2); floats or arrays."""
    du = a[0] - b[0] + 0.5
    dv = a[1] - b[1] + 0.5
    if isinstance(du, np.ndarray):
        return mod1(du) - 0.5, mod1(dv) - 0.5
    return du % 1.0 - 0.5, dv % 1.0 - 0.5


def torus_distance(a, b):
    du, dv = torus_delta(a, b)
    return math.hypot(du, dv)


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_vec(m, v):
    a, b, c, d = m
    return (a * v[0] + b * v[1], c * v[0] + d * v[1])


def mat_vec_unit(m, v):
    """m v scaled to unit length, over arrays of vectors v = (x, y)."""
    x, y = mat_vec(m, v)
    n = elementwise(math.hypot, x, y)
    return x / n, y / n


def mat_det(m):
    return m[0] * m[3] - m[1] * m[2]


_SCALE_ABOVE = 1e150  # past this t, t * t would overflow


def mat_norm(m):
    """Spectral norm of a 2x2 matrix, in closed form; scaled by its largest entry past _SCALE_ABOVE."""
    a, b, c, d = m
    t = a * a + b * b + c * c + d * d
    if t > _SCALE_ABOVE:
        w = max(abs(a), abs(b), abs(c), abs(d))
        return w * mat_norm((a / w, b / w, c / w, d / w))
    det = a * d - b * c
    disc = t * t - 4.0 * det * det
    if disc < 0.0:
        disc = 0.0
    return math.sqrt(0.5 * (t + math.sqrt(disc)))


def mat_norms(a, b, c, d):
    """``mat_norm`` over arrays of the four entries, each scaled as ``mat_norm`` scales it."""
    with np.errstate(over="ignore"):  # a t past the float range is inf, and scales
        t = a * a + b * b + c * c + d * d
    big = t > _SCALE_ABOVE  # an array, or one bool for float entries
    if big.any() if isinstance(big, np.ndarray) else big:
        w = np.maximum(np.maximum(abs(a), abs(b)), np.maximum(abs(c), abs(d)))
        w = np.where(big, w, 1.0)[()]
        return w * mat_norms(a / w, b / w, c / w, d / w)
    det = a * d - b * c
    disc = np.maximum(t * t - 4.0 * det * det, 0.0)
    return np.sqrt(0.5 * (t + np.sqrt(disc)))


def elementwise(fn, *arrays):
    """A ``math`` function applied element by element, as a float array shaped like arrays[0].

    Scalar arguments, such as the entries of a constant derivative, give
    the float ``fn(*arrays)``.
    """
    if not isinstance(arrays[0], np.ndarray):
        return fn(*arrays)
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)


def mat_sub_norm(m, n):
    return mat_norm((m[0] - n[0], m[1] - n[1], m[2] - n[2], m[3] - n[3]))


BUMP_PLATEAU = 1.0 / 3.0  # the bump is 1 on [0, BUMP_PLATEAU]
BUMP_SUPPORT = 2.0 / 3.0  # and 0 from BUMP_SUPPORT on


def bump(s):
    """rho(s) and rho'(s) of the twist's smooth step: the exp(-1/u) step between the constants."""
    a, b = BUMP_PLATEAU, BUMP_SUPPORT
    if s <= a:
        return 1.0, 0.0
    if s >= b:
        return 0.0, 0.0
    w = b - a
    u = (s - a) / w
    fu = math.exp(-1.0 / u)
    fv = math.exp(-1.0 / (1.0 - u))
    denom = fu + fv
    q = fu / denom
    dfu = fu / (u * u)
    dfv = fv / ((1.0 - u) * (1.0 - u))
    dq = (dfu * fv + fu * dfv) / (denom * denom)
    return 1.0 - q, -dq / w


class FiberMap:
    """Common interface: apply(t) -> (image, derivative); inverse() -> FiberMap."""

    kind = "abstract"

    def apply(self, t):
        raise NotImplementedError

    def apply_many(self, u, v):
        """``apply`` at every point (u[i], v[i]): arrays u', v' and (a, b, c, d).

        Each derivative entry is an array of the points' shape, or a float
        when the derivative does not depend on the point.
        """
        raise NotImplementedError

    def inverse(self):
        raise NotImplementedError

    def __call__(self, t):
        return self.apply(t)[0]


class ToralAutomorphism(FiberMap):
    kind = "toral"

    def __init__(self, matrix):
        m = tuple(matrix)
        if len(m) != 4 or not all(float(v).is_integer() for v in m):
            raise ConfigurationError(
                "toral automorphism needs 4 integer entries, got %r" % (m,)
            )
        m = tuple(int(v) for v in m)
        if m[0] * m[3] - m[1] * m[2] != 1:
            raise ConfigurationError("toral automorphism must have determinant 1")
        self.matrix = tuple(float(v) for v in m)

    def apply(self, t):
        a, b, c, d = self.matrix
        return ((a * t[0] + b * t[1]) % 1.0, (c * t[0] + d * t[1]) % 1.0), self.matrix

    def apply_many(self, u, v):
        a, b, c, d = self.matrix
        return mod1(a * u + b * v), mod1(c * u + d * v), self.matrix

    def inverse(self):
        a, b, c, d = self.matrix
        return ToralAutomorphism((d, -b, -c, a))


class StandardMap(FiberMap):
    """(u, v) -> (u + v + (K/2pi) sin(2pi u), v + (K/2pi) sin(2pi u)) mod 1."""

    kind = "stdmap"

    def __init__(self, K):
        self.K = float(K)

    def apply(self, t):
        u, v = t
        kick = self.K / TWO_PI * math.sin(TWO_PI * u)
        s = self.K * math.cos(TWO_PI * u)
        return ((u + v + kick) % 1.0, (v + kick) % 1.0), (1.0 + s, 1.0, s, 1.0)

    def apply_many(self, u, v):
        return standard_map_many(self.K, u, v)

    def inverse(self):
        return _StandardMapInverse(self.K)


def standard_map_many(K, u, v):
    """``StandardMap(K).apply_many(u, v)``; K may be an array that broadcasts against the points.

    One value per point, or a column of values against a row of points:
    sin and cos are taken once per point, and the results broadcast to the
    parameters-by-points shape.
    """
    x = TWO_PI * u
    kick = K / TWO_PI * elementwise(math.sin, x)
    s = K * elementwise(math.cos, x)
    one = np.ones(u.shape)
    return mod1(u + v + kick), mod1(v + kick), (1.0 + s, one, s, one)


class _StandardMapInverse(FiberMap):
    kind = "stdmap_inv"

    def __init__(self, K):
        self.K = float(K)

    def apply(self, t):
        u1, v1 = t
        u = (u1 - v1) % 1.0
        v = (v1 - self.K / TWO_PI * math.sin(TWO_PI * u)) % 1.0
        s = self.K * math.cos(TWO_PI * u)
        # inverse of the forward Jacobian [[1+s, 1], [s, 1]] at the preimage
        return (u, v), (1.0, -1.0, -s, 1.0 + s)

    def apply_many(self, u1, v1):
        return standard_map_inverse_many(self.K, u1, v1)

    def inverse(self):
        return StandardMap(self.K)


def standard_map_inverse_many(K, u1, v1):
    """``StandardMap(K).inverse().apply_many(u1, v1)``; K as in ``standard_map_many``."""
    u = mod1(u1 - v1)
    x = TWO_PI * u
    v = mod1(v1 - K / TWO_PI * elementwise(math.sin, x))
    s = K * elementwise(math.cos, x)
    one = np.ones(u.shape)
    return u, v, (one, -one, -s, 1.0 + s)


class LocalizedTwist(FiberMap):
    """Rotation by angle * rho(dist/radius) about ``center``, rho = ``bump``.

    In polar coordinates about the center the map is (s, theta) ->
    (s, theta + angle * rho(s)); it is the bit-exact identity outside the
    disc of radius BUMP_SUPPORT * radius.
    """

    kind = "twist"

    def __init__(self, center, radius, angle):
        if not 0.0 < radius <= 0.25:
            raise ConfigurationError("twist radius must lie in (0, 1/4]")
        check_finite(angle=angle, center_u=center[0], center_v=center[1])
        self.center = (center[0] % 1.0, center[1] % 1.0)
        self.radius = float(radius)
        self.angle = float(angle)
        reach = BUMP_SUPPORT * self.radius
        # (center u, center v, squared reach widened for rounding): the support test
        self.disc = (self.center[0], self.center[1], reach * reach * (1.0 + 1e-9))

    def apply(self, t):
        """Fixes t when its squared offset is off the support, as in ``apply_many``.

        ``skew.accumulate_cocycle`` makes this same test on ``disc`` inline.
        """
        cu, cv, near_sq = self.disc
        y1 = (t[0] - cu + 0.5) % 1.0 - 0.5
        y2 = (t[1] - cv + 0.5) % 1.0 - 0.5
        if y1 * y1 + y2 * y2 > near_sq:
            return t, IDENTITY
        r = math.hypot(y1, y2)
        s = r / self.radius
        if s >= BUMP_SUPPORT:
            return t, IDENTITY
        rho, drho = bump(s)
        phi = self.angle * rho
        cp, sp = math.cos(phi), math.sin(phi)
        z1 = cp * y1 - sp * y2
        z2 = sp * y1 + cp * y2
        image = ((cu + z1) % 1.0, (cv + z2) % 1.0)
        if drho == 0.0:
            return image, (cp, -sp, sp, cp)
        # D = Rot(phi) + (J Rot(phi) y) grad(phi)^T, grad(phi) = angle*rho'(s) y/(R r)
        g = self.angle * drho / (self.radius * r)
        return image, (
            cp - z2 * g * y1,
            -sp - z2 * g * y2,
            sp + z1 * g * y1,
            cp + z1 * g * y2,
        )

    def apply_many(self, u, v):
        """Identity off the support disc; ``apply`` at the points near it.

        The squared offset selects the points, with a relative margin that
        covers its rounding, so ``apply`` makes the exact support test.
        """
        y1, y2 = torus_delta((u, v), self.center)
        near = np.flatnonzero(y1 * y1 + y2 * y2 <= self.disc[2])
        out_u, out_v = u.copy(), v.copy()
        a, d = np.ones(u.shape), np.ones(u.shape)
        b, c = np.zeros(u.shape), np.zeros(u.shape)
        for i, t in zip(near.tolist(), zip(u[near].tolist(), v[near].tolist())):
            (out_u[i], out_v[i]), (a[i], b[i], c[i], d[i]) = self.apply(t)
        return out_u, out_v, (a, b, c, d)

    def inverse(self):
        return LocalizedTwist(self.center, self.radius, -self.angle)


class Composite(FiberMap):
    """Composition in function order: Composite([f, g]) acts as f o g.

    ``apply`` multiplies the derivatives in the order the factors act,
    inline, from IDENTITY, which keeps the sign of a zero as ``mat_mul`` does.
    """

    kind = "compose"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ConfigurationError("empty composition")
        self.factors = factors
        self._acting = factors[::-1]

    def apply(self, t):
        a, b, c, d = IDENTITY
        for f in self._acting:
            t, (e, g, h, k) = f.apply(t)
            a, b, c, d = e * a + g * c, e * b + g * d, h * a + k * c, h * b + k * d
        return t, (a, b, c, d)

    def apply_many(self, u, v):
        deriv = IDENTITY
        for f in reversed(self.factors):
            u, v, d = f.apply_many(u, v)
            deriv = mat_mul(d, deriv)
        return u, v, deriv

    def inverse(self):
        return Composite([f.inverse() for f in reversed(self.factors)])


def random_point(seed, stream_id, index):
    """Deterministic Lebesgue sample on the torus."""
    return (
        counter_uniform(seed, stream_id, 2 * index),
        counter_uniform(seed, stream_id, 2 * index + 1),
    )


def grid_points(side):
    """Centres of the side x side grid cells as arrays (u, v), u varying slowest."""
    axis = (np.arange(side) + 0.5) / side
    return np.repeat(axis, side), np.tile(axis, side)


def sample_points(grid, n_random, seed, stream_id):
    """``grid_points(grid)`` followed by ``random_point(seed, stream_id, i)``, i < n_random."""
    u, v = grid_points(grid)
    r = counter_uniforms(seed, stream_id, 0, 2 * n_random)
    return np.concatenate([u, r[0::2]]), np.concatenate([v, r[1::2]])


def max_det_defect(f, u, v):
    """Max of |det Df(t) - 1| over the points (u[i], v[i]); 0.0 for none."""
    _, _, (a, b, c, d) = f.apply_many(u, v)
    defect = np.broadcast_to(abs(a * d - b * c - 1.0), u.shape)
    return float(defect.max(initial=0.0))
