"""Skew products: base dynamics plus a family of fiber maps.

Two family types are supported.  Locally constant families look the
generator up from the word at indices [0, depth); with depth 1 this is the
classical random product.  The Holder family modulates a standard-map
parameter by a geometrically weighted symbol sum, giving a genuinely
base-dependent family with an explicit Holder certificate.  Every walk
along a base orbit goes through ``orbit_maps``, which reads the symbols
once per window and asks the family for all the window's maps at once.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fiber_maps as fm
from .base_shift import sample_sequence
from .errors import CertificateViolationError, ConfigurationError
from .rng import derive_seed


def admissible_words(space, length):
    """All admissible words of the given length, in lexicographic order."""
    return [
        w
        for w in itertools.product(range(space.alphabet_size), repeat=length)
        if all(space.admissible(a, b) for a, b in zip(w, w[1:]))
    ]


class LocallyConstantFamily:
    """Generator assignment depending only on the word at [0, depth)."""

    def __init__(self, depth, table):
        if depth < 1:
            raise ConfigurationError("depth must be >= 1")
        self.depth = int(depth)
        self.table = {}
        for word, f in table.items():
            if isinstance(word, int):
                word = (word,)
            word = tuple(int(s) for s in word)
            if len(word) != self.depth:
                raise ConfigurationError("table word %r has wrong length" % (word,))
            self.table[word] = f
        self._pairs = {word: (f, f.inverse()) for word, f in self.table.items()}
        self.reach = (0, self.depth - 1)

    def map_for_word(self, word):
        try:
            return self.table[word]
        except KeyError:
            raise ConfigurationError("no generator for word %r" % (word,))

    def window_maps(self, syms, n):
        """(map, inverse) at the n positions whose words start at syms[0], ..."""
        d, pairs = self.depth, self._pairs
        try:
            return [pairs[tuple(syms[i:i + d])] for i in range(n)]
        except KeyError as exc:
            raise ConfigurationError("no generator for word %r" % (exc.args[0],))


class HolderFamily:
    """f_x = StandardMap(K0 + eps * s(x)) with s a weighted symbol sum.

    s(x) = sum_{|j| <= window} coeffs[x_j] * gamma^|j|, gamma = lambda^alpha,
    which makes x -> f_x alpha-Holder with an explicit constant.
    """

    def __init__(self, K0, eps, alpha, space, window=16, coeffs=None):
        self.K0 = float(K0)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.window = int(window)
        d = space.alphabet_size
        if coeffs is None:
            coeffs = tuple(2.0 * i / (d - 1) - 1.0 for i in range(d))
        self.coeffs = tuple(float(c) for c in coeffs)
        self.gamma = space.metric_base ** self.alpha
        self.reach = (-self.window, self.window)

    def _parameters(self, syms, n):
        """K at the n positions centred at syms[window], syms[window + 1], ...

        Sums over j in the same order as the scalar formula, so each value
        is bit-identical to it.
        """
        c = np.array(self.coeffs)[np.asarray(syms)]
        W = self.window
        s = c[W:W + n].copy()
        w = 1.0
        for j in range(1, W + 1):
            w *= self.gamma
            s += w * (c[W + j:W + j + n] + c[W - j:W - j + n])
        return (self.K0 + self.eps * s).tolist()

    def parameter(self, x):
        W = self.window
        return self._parameters([x.symbol(j) for j in range(-W, W + 1)], 1)[0]

    def window_maps(self, syms, n):
        """(map, inverse) at the n positions centred at syms[window], ..."""
        return [(f, f.inverse()) for f in map(fm.StandardMap, self._parameters(syms, n))]

    def holder_constant(self):
        """Certified bound on d_C1(f_x, f_y) / d(x, y)^alpha."""
        c_max = max(abs(c) for c in self.coeffs)
        # standard-map C1 gap per unit of K: 1/2pi displacement, sqrt(2) derivative
        per_k = 1.0 / fm.TWO_PI + math.sqrt(2.0)
        return self.eps * per_k * 4.0 * c_max / (1.0 - self.gamma)


@dataclass(frozen=True)
class CocycleResult:
    end_point: tuple
    log_norm: float
    matrix_tail: tuple
    steps: int
    det_defect: float


class SkewSystem:
    """f(x, t) = (shift(x), f_x(t)) with an invariant product measure."""

    def __init__(self, space, measure, family):
        measure.validate_support(space)
        self.space = space
        self.measure = measure
        self.family = family

    @property
    def is_locally_constant(self):
        return isinstance(self.family, LocallyConstantFamily)

    @property
    def holder_alpha(self):
        return self.family.alpha if not self.is_locally_constant else 1.0

    def fiber_map_at(self, x):
        return next(orbit_maps(self, x, n=1))[0]

    def inverse_fiber_map_at(self, x):
        return next(orbit_maps(self, x, n=1))[1]

    def admissible_words(self, length):
        return admissible_words(self.space, length)

    def with_generator(self, word, new_map):
        """Copy of the system with one locally constant table entry replaced."""
        if not self.is_locally_constant:
            raise ConfigurationError("generator replacement needs a locally constant family")
        if isinstance(word, int):
            word = (word,)
        table = dict(self.family.table)
        if tuple(word) not in table:
            raise ConfigurationError("no generator for word %r" % (word,))
        table[tuple(word)] = new_map
        return SkewSystem(
            self.space, self.measure, LocallyConstantFamily(self.family.depth, table)
        )


_MAX_CHUNK = 4096


def orbit_maps(sys, x, backward=False, n=None):
    """The fiber maps met along the base orbit of x, as (map, inverse) pairs.

    Forward, step k = 0, 1, 2, ... yields (f_{s^k x}, f_{s^k x}^{-1}), so
    the first m maps compose to f^m_x.  Backward, step k yields
    (f_{s^{-k-1} x}^{-1}, f_{s^{-k-1} x}), so the first m maps compose to
    f^{-m}_x; s is the shift.  The walk stops after n steps; with n None
    it runs on, reading symbols in windows that double (up to a cap) with
    the steps consumed.  Either way a walk of m steps reads O(m) symbols
    and holds O(min(m, cap)) maps.
    """
    window_maps = sys.family.window_maps
    lo, hi = sys.family.reach
    symbol = x.symbol
    k, size = 0, 1
    while n is None or k < n:
        if n is not None:
            size = min(n - k, _MAX_CHUNK)
        first = -k - size if backward else k  # lowest base position of the chunk
        pairs = window_maps(list(map(symbol, range(first + lo, first + size + hi))), size)
        if backward:
            for f, f_inv in reversed(pairs):
                yield f_inv, f
        else:
            yield from pairs
        k += size
        size = min(2 * size, _MAX_CHUNK)


def accumulate_cocycle(maps, t, renorm_every=16):
    """Endpoint, log norm, normalized tail and det defect of a map sequence.

    The running derivative product is renormalized by its norm every
    ``renorm_every`` steps; the factored-out norms go into a log
    accumulator, so the result is exact up to round-off for up to 1e7 steps.
    """
    p, q, r, s = fm.IDENTITY  # running product, row-major
    log_acc = 0.0
    det_defect = 0.0
    since = 0
    for f in maps:
        t, (a, b, c, d) = f.apply(t)
        defect = abs(a * d - b * c - 1.0)
        if defect > det_defect:
            det_defect = defect
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        since += 1
        if since == renorm_every:
            nb = fm.mat_norm((p, q, r, s))
            log_acc += math.log(nb)
            p, q, r, s = p / nb, q / nb, r / nb, s / nb
            since = 0
    tail_norm = fm.mat_norm((p, q, r, s))
    log_norm = log_acc + math.log(tail_norm)
    tail = (p / tail_norm, q / tail_norm, r / tail_norm, s / tail_norm)
    return t, log_norm, tail, det_defect


def iterate_cocycle(sys, x, t, n, renorm_every=16):
    """Orbit endpoint and log operator norm of the derivative product.

    Negative n follows the backward orbit with inverted generators.
    """
    if renorm_every <= 0:
        raise ConfigurationError("renorm_every must be positive")
    maps = (f for f, _ in orbit_maps(sys, x, backward=n < 0, n=abs(int(n))))
    t, log_norm, tail, det_defect = accumulate_cocycle(maps, t, renorm_every)
    return CocycleResult(t, log_norm, tail, int(n), det_defect)


def fiber_c1_distance(f, g, grid=64, n_random=1000, seed=0):
    """sup over sampled fiber points of displacement + derivative gap."""
    worst = 0.0
    pts = [
        ((i + 0.5) / grid, (j + 0.5) / grid)
        for i in range(grid)
        for j in range(grid)
    ]
    pts.extend(fm.random_point(seed, 1, i) for i in range(n_random))
    for t in pts:
        tf, df = f.apply(t)
        tg, dg = g.apply(t)
        gap = fm.torus_distance(tf, tg) + fm.mat_sub_norm(df, dg)
        if gap > worst:
            worst = gap
    return worst


def _sampled_base_points(sys, n_samples, seed):
    if sys.is_locally_constant:
        from .base_shift import periodic_point

        out = []
        for w in sys.admissible_words(sys.family.depth):
            # any sequence starting with w selects table[w]; cyclic words suffice
            try:
                out.append(periodic_point(sys.space, w))
            except ConfigurationError:
                continue
        if out:
            return out
    return [
        sample_sequence(sys.space, sys.measure, derive_seed(seed, 11), i)
        for i in range(n_samples)
    ]


def c1_distance(sys_f, sys_g, n_base_samples=100, grid=32, n_random=200, seed=0):
    """Estimate of sup_x d_C1(f_x, g_x) over sampled base points."""
    if sys_f.space.alphabet_size != sys_g.space.alphabet_size:
        raise ConfigurationError("systems live over different bases")
    worst = 0.0
    for x in _sampled_base_points(sys_f, n_base_samples, seed):
        gap = fiber_c1_distance(
            sys_f.fiber_map_at(x), sys_g.fiber_map_at(x), grid, n_random, seed
        )
        if gap > worst:
            worst = gap
    return worst


def _perturbed_partner(sys, x, radius, seed, k):
    """A sequence agreeing with x exactly for |j| < radius."""
    other = sample_sequence(sys.space, sys.measure, derive_seed(seed, 13), k)
    xs, os = x.symbol, other.symbol

    def look(j):
        if abs(j) < radius:
            return xs(j)
        return os(j)

    from .base_shift import BaseSequence

    return BaseSequence(sys.space, look)


def holder_estimate(sys, n_pairs=100, seed=0, grid=16, n_random=100):
    """Worst sampled Holder quotient (H_hat, alpha) with a certificate check."""
    alpha = sys.holder_alpha
    if sys.is_locally_constant:
        declared = None
    else:
        declared = sys.family.holder_constant()
    if not sys.space.is_full_shift:
        raise ConfigurationError("holder_estimate pair splicing needs a full shift")
    h_hat = 0.0
    witness = None
    for k in range(n_pairs):
        x = sample_sequence(sys.space, sys.measure, derive_seed(seed, 17), k)
        radius = k % 8
        y = _perturbed_partner(sys, x, radius, seed, k)
        from .base_shift import distance

        d = distance(x, y)
        if d == 0.0:
            continue
        gap = fiber_c1_distance(
            sys.fiber_map_at(x), sys.fiber_map_at(y), grid, n_random, seed
        )
        q = gap / d ** alpha
        if q > h_hat:
            h_hat = q
            witness = (k, radius, d, gap)
    if declared is not None and h_hat > declared:
        raise CertificateViolationError(
            "sampled Holder quotient %.6g exceeds declared %.6g (witness %r)"
            % (h_hat, declared, witness)
        )
    return h_hat, alpha


def random_fiber_point(seed, index, stream=0):
    """Lebesgue sample on the fiber, counter-addressed for determinism."""
    return fm.random_point(seed, 1000 + stream, index)
