"""Area-preserving diffeomorphisms of the 2-torus with exact derivatives.

Points are plain (u, v) tuples with coordinates in [0, 1); 2x2 matrices are
(a, b, c, d) tuples in row-major order.  ``apply`` maps one point; every map
kind also has ``apply_many(u, v)``, which maps arrays of coordinates and
returns the image coordinates as arrays and the four derivative entries,
equal bit for bit to ``apply`` at each point.  The entries are arrays, or
floats where the derivative is the same at every point (toral maps and
their compositions): they broadcast against the points, and a product of
such derivatives stays four floats.

The batch rule that keeps them equal: numpy does only + - * / %, sqrt and
comparisons, which round exactly as the scalar float operations do.  Sin,
cos, exp, hypot, atan2 and log go through ``math`` one element at a time
(``elementwise``), because numpy's versions can differ from libm in the
last bit.
"""

import math

import numpy as np

from .errors import ConfigurationError, check_finite
from .rng import counter_uniform, counter_uniforms

IDENTITY = (1.0, 0.0, 0.0, 1.0)

TWO_PI = 2.0 * math.pi


def torus_delta(a, b):
    """Shortest displacement from b to a, componentwise in [-1/2, 1/2)."""
    du = (a[0] - b[0] + 0.5) % 1.0 - 0.5
    dv = (a[1] - b[1] + 0.5) % 1.0 - 0.5
    return du, dv


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


def mat_norm(m):
    """Spectral norm of a 2x2 matrix, in closed form."""
    a, b, c, d = m
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = t * t - 4.0 * det * det
    if disc < 0.0:
        disc = 0.0
    return math.sqrt(0.5 * (t + math.sqrt(disc)))


def mat_norms(a, b, c, d):
    """``mat_norm`` over arrays of the four entries."""
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.maximum(t * t - 4.0 * det * det, 0.0)
    return np.sqrt(0.5 * (t + np.sqrt(disc)))


def elementwise(fn, *arrays):
    """A ``math`` function applied one element at a time, as a float array.

    Scalar arguments, such as the entries of a constant derivative, give
    the float ``fn(*arrays)``.
    """
    if not isinstance(arrays[0], np.ndarray):
        return fn(*arrays)
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, len(arrays[0]))


def mat_conorm(m):
    """m(A) = ||A^{-1}||^{-1}: the smallest singular value."""
    det = abs(mat_det(m))
    n = mat_norm(m)
    return det / n if n > 0.0 else 0.0


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
        return (a * u + b * v) % 1.0, (c * u + d * v) % 1.0, self.matrix

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
    """``StandardMap(K).apply_many(u, v)``; K may be an array, one value per point."""
    x = TWO_PI * u
    kick = K / TWO_PI * elementwise(math.sin, x)
    s = K * elementwise(math.cos, x)
    one = np.ones(u.shape)
    return (u + v + kick) % 1.0, (v + kick) % 1.0, (1.0 + s, one, s, one)


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
        u = (u1 - v1) % 1.0
        x = TWO_PI * u
        v = (v1 - self.K / TWO_PI * elementwise(math.sin, x)) % 1.0
        s = self.K * elementwise(math.cos, x)
        one = np.ones(u.shape)
        return u, v, (one, -one, -s, 1.0 + s)

    def inverse(self):
        return StandardMap(self.K)


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

    def apply(self, t):
        y1, y2 = torus_delta(t, self.center)
        r = math.hypot(y1, y2)
        s = r / self.radius
        if s >= BUMP_SUPPORT:
            return t, IDENTITY
        rho, drho = bump(s)
        phi = self.angle * rho
        cp, sp = math.cos(phi), math.sin(phi)
        z1 = cp * y1 - sp * y2
        z2 = sp * y1 + cp * y2
        image = ((self.center[0] + z1) % 1.0, (self.center[1] + z2) % 1.0)
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
        reach = BUMP_SUPPORT * self.radius
        near = np.flatnonzero(y1 * y1 + y2 * y2 <= reach * reach * (1.0 + 1e-9))
        out_u, out_v = u.copy(), v.copy()
        a, d = np.ones(u.shape), np.ones(u.shape)
        b, c = np.zeros(u.shape), np.zeros(u.shape)
        for i, t in zip(near.tolist(), zip(u[near].tolist(), v[near].tolist())):
            (out_u[i], out_v[i]), (a[i], b[i], c[i], d[i]) = self.apply(t)
        return out_u, out_v, (a, b, c, d)

    def inverse(self):
        return LocalizedTwist(self.center, self.radius, -self.angle)


class Composite(FiberMap):
    """Composition in function order: Composite([f, g]) acts as f o g."""

    kind = "compose"

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ConfigurationError("empty composition")
        self.factors = factors

    def apply(self, t):
        deriv = IDENTITY
        for f in reversed(self.factors):
            t, d = f.apply(t)
            deriv = mat_mul(d, deriv)
        return t, deriv

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


def area_preservation_defect(f, n_samples=1000, seed=0):
    """Max over sampled points of |det Df(t) - 1|."""
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    return max_det_defect(f, *sample_points(0, n_samples, seed, 0))
