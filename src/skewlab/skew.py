"""Skew products: base dynamics plus a family of fiber maps.

Two family types are supported.  Locally constant families look the
generator up from the word at indices [0, depth); with depth 1 this is the
classical random product.  The Holder family modulates a standard-map
parameter by a geometrically weighted symbol sum, giving a genuinely
base-dependent family with an explicit Holder certificate.  Every walk
along a base orbit goes through ``orbit_maps``, which reads the symbols
once per window and asks the family for all the window's maps at once.
``orbit_batch`` walks many orbits forward together on arrays: the family
turns a symbol window into one key per orbit and step (a generator index,
or the standard-map parameter) and applies a whole step from the keys.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import fiber_maps as fm
from .base_shift import BaseSequence, distance, sample_sequence
from .errors import CertificateViolationError, ConfigurationError, check_finite
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
        # word code (the word's digits in base _radix) -> index into _maps, or -1
        self._radix = 1 + max((max(word) for word in self.table), default=0)
        self._maps = list({id(f): f for f in self.table.values()}.values())
        index = {id(f): k for k, f in enumerate(self._maps)}
        self._keys = np.full(self._radix ** self.depth, -1, dtype=np.int32)
        for word, f in self.table.items():
            self._keys[self._code(np.array(word), 1)] = index[id(f)]

    def _code(self, syms, n):
        code = syms[..., 0:n]
        for i in range(1, self.depth):
            code = code * self._radix + syms[..., i:i + n]
        return code

    def map_for_word(self, word):
        try:
            return self.table[word]
        except KeyError:
            raise ConfigurationError("no generator for word %r" % (word,))

    def window_maps(self, syms, n):
        """(map, inverse) at the n positions whose words start at syms[0], ..."""
        words = zip(*(syms[i:i + n] for i in range(self.depth)))
        try:
            return list(map(self._pairs.__getitem__, words))
        except KeyError as exc:
            raise ConfigurationError("no generator for word %r" % (exc.args[0],))

    def window_keys(self, syms, n):
        """Generator indices at the n positions whose words start at syms[..., 0], ..."""
        syms = np.asarray(syms)
        in_range = syms.size == 0 or (syms.min() >= 0 and syms.max() < self._radix)
        keys = self._keys[self._code(syms, n)] if in_range else None
        if keys is None or (keys < 0).any():
            # some word has no generator: window_maps raises, naming the first
            for row in syms.reshape(-1, syms.shape[-1]).tolist():
                self.window_maps(row, n)
        return keys

    def apply_many(self, keys, u, v):
        """One step of every orbit: orbit i applies generator keys[i]."""
        out_u, out_v = np.empty(u.shape), np.empty(u.shape)
        deriv = tuple(np.empty(u.shape) for _ in range(4))
        for k, f in enumerate(self._maps):
            sel = np.flatnonzero(keys == k)
            if len(sel) == len(keys):
                return f.apply_many(u, v)
            if len(sel):
                out_u[sel], out_v[sel], d = f.apply_many(u[sel], v[sel])
                for dst, src in zip(deriv, d):
                    dst[sel] = src
        return out_u, out_v, deriv


class HolderFamily:
    """f_x = StandardMap(K0 + eps * s(x)) with s a weighted symbol sum.

    s(x) = sum_{|j| <= window} coeffs[x_j] * gamma^|j|, gamma = lambda^alpha,
    with the coefficients 2i/(d - 1) - 1 evenly spaced over [-1, 1]; this
    makes x -> f_x alpha-Holder with an explicit constant.
    """

    def __init__(self, K0, eps, alpha, space, window=16):
        check_finite(K0=K0, eps=eps)
        if not float(window).is_integer() or window < 0:
            raise ConfigurationError("window must be an integer >= 0, got %r" % (window,))
        self.K0 = float(K0)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.window = int(window)
        d = space.alphabet_size
        self.coeffs = tuple(2.0 * i / (d - 1) - 1.0 for i in range(d))
        self.gamma = space.metric_base ** self.alpha
        if not 0.0 < self.gamma < 1.0:  # holder_constant divides by 1 - gamma
            raise ConfigurationError(
                "alpha must put metric_base**alpha in (0, 1), got alpha=%r" % (alpha,)
            )
        self.reach = (-self.window, self.window)

    def window_keys(self, syms, n):
        """K at the n positions centred at syms[..., window], syms[..., window + 1], ...

        Sums over j in the same order as the scalar formula, so each value
        is bit-identical to it.
        """
        c = np.array(self.coeffs)[np.asarray(syms)]
        W = self.window
        s = c[..., W:W + n].copy()
        w = 1.0
        for j in range(1, W + 1):
            w *= self.gamma
            s += w * (c[..., W + j:W + j + n] + c[..., W - j:W - j + n])
        return self.K0 + self.eps * s

    def parameter(self, x):
        W = self.window
        return float(self.window_keys([x.symbol(j) for j in range(-W, W + 1)], 1)[0])

    def window_maps(self, syms, n):
        """(map, inverse) at the n positions centred at syms[window], ..."""
        Ks = self.window_keys(syms, n).tolist()
        return [(f, f.inverse()) for f in map(fm.StandardMap, Ks)]

    def apply_many(self, keys, u, v):
        """One step of every orbit: orbit i applies StandardMap(keys[i])."""
        return fm.standard_map_many(keys, u, v)

    def holder_constant(self):
        """Certified bound on d_C1(f_x, f_y) / d(x, y)^alpha."""
        # standard-map C1 gap per unit of K: 1/2pi displacement, sqrt(2) derivative;
        # the coefficients are at most 1 in absolute value
        per_k = 1.0 / fm.TWO_PI + math.sqrt(2.0)
        return self.eps * per_k * 4.0 / (1.0 - self.gamma)


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
_MAX_BATCH_CELLS = 1 << 17  # 1 MB per int64 array of an orbit_batch chunk


def orbit_maps(sys, x, backward=False, n=None):
    """The fiber maps met along the base orbit of x, as (map, inverse) pairs.

    Forward, step k = 0, 1, 2, ... yields (f_{s^k x}, f_{s^k x}^{-1}), so
    the first m maps compose to f^m_x.  Backward, step k yields
    (f_{s^{-k-1} x}^{-1}, f_{s^{-k-1} x}), so the first m maps compose to
    f^{-m}_x; s is the shift.  The walk stops after n steps; with n None
    it runs on, reading symbols in windows that double (up to a cap) with
    the steps consumed.  Either way a walk of m steps reads O(m) symbols
    and holds O(min(m, cap)) maps.  Each window is one ``x.symbols`` call:
    a Bernoulli sequence slices it from its cached blocks when it holds
    them all, and otherwise draws it with one counter-RNG call; a Markov
    sequence slices its blocks.
    """
    window_maps = sys.family.window_maps
    lo, hi = sys.family.reach
    symbols = x.symbols
    k, size = 0, 1
    while n is None or k < n:
        if n is not None:
            size = min(n - k, _MAX_CHUNK)
        first = -k - size if backward else k  # lowest base position of the chunk
        pairs = window_maps(symbols(first + lo, first + size + hi).tolist(), size)
        if backward:
            for f, f_inv in reversed(pairs):
                yield f_inv, f
        else:
            yield from pairs
        k += size
        size = min(2 * size, _MAX_CHUNK)


def orbit_batch(sys, xs, u, v, n):
    """Walk the orbits of (xs[i], (u[i], v[i])) forward together for n steps.

    Step k yields the fiber points after it and the derivatives of its maps,
    as arrays (u, v, (a, b, c, d)) with one entry per orbit, equal bit for
    bit to walking each orbit with ``orbit_maps`` and ``apply``; a step
    whose orbits all meet one constant-derivative map yields its floats.  Symbols
    and family keys are read in chunks of at most _MAX_CHUNK steps and
    _MAX_BATCH_CELLS orbit-steps, so memory stays bounded for any n and
    any number of orbits.
    """
    family = sys.family
    lo, hi = family.reach
    chunk = max(1, min(_MAX_CHUNK, _MAX_BATCH_CELLS // max(1, len(xs))))
    for k in range(0, n, chunk):
        size = min(n - k, chunk)
        syms = np.empty((len(xs), size + hi - lo), dtype=np.int32)
        for row, x in zip(syms, xs):
            row[:] = x.symbols(k + lo, k + size + hi)
        for step_keys in family.window_keys(syms, size).T:
            u, v, d = family.apply_many(step_keys, u, v)
            yield u, v, d


RENORM_EVERY = 16  # steps between renormalizations of a running derivative product


def accumulate_cocycle(maps, t):
    """Endpoint, log norm, normalized tail and det defect of a map sequence.

    The running derivative product is renormalized by its norm every
    RENORM_EVERY steps; the factored-out norms go into a log
    accumulator, so the result is exact up to round-off for up to 1e7 steps.
    """
    p, q, r, s = fm.IDENTITY  # running product, row-major
    log_acc = 0.0
    det_defect = 0.0
    for k, f in enumerate(maps, 1):
        t, (a, b, c, d) = f.apply(t)
        defect = abs(a * d - b * c - 1.0)
        if defect > det_defect:
            det_defect = defect
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        if k % RENORM_EVERY == 0:
            nb = fm.mat_norm((p, q, r, s))
            log_acc += math.log(nb)
            p, q, r, s = p / nb, q / nb, r / nb, s / nb
    tail_norm = fm.mat_norm((p, q, r, s))
    log_norm = log_acc + math.log(tail_norm)
    tail = (p / tail_norm, q / tail_norm, r / tail_norm, s / tail_norm)
    return t, log_norm, tail, det_defect


def iterate_cocycle(sys, x, t, n):
    """Orbit endpoint and log operator norm of the derivative product.

    Negative n follows the backward orbit with inverted generators.
    """
    maps = map(operator.itemgetter(0), orbit_maps(sys, x, backward=n < 0, n=abs(int(n))))
    t, log_norm, tail, det_defect = accumulate_cocycle(maps, t)
    return CocycleResult(t, log_norm, tail, int(n), det_defect)


def fiber_c1_distance(f, g, grid=64, n_random=1000, seed=0):
    """sup over sampled fiber points of displacement + derivative gap."""
    u, v = fm.sample_points(grid, n_random, seed, 1)
    if len(u) == 0:
        raise ConfigurationError("fiber_c1_distance needs grid or n_random >= 1")
    fu, fv, df = f.apply_many(u, v)
    gu, gv, dg = g.apply_many(u, v)
    du, dv = fm.torus_delta((fu, fv), (gu, gv))
    gaps = fm.elementwise(math.hypot, du, dv) + fm.mat_norms(*(p - q for p, q in zip(df, dg)))
    return float(gaps.max(initial=0.0))


def generator_base_points(sys, n, seed, stream):
    """Base points at which to evaluate the family's fiber maps.

    A locally constant family gets one sequence per admissible word w of
    its depth, reading w on [0, depth) and w's end symbols beyond it, so
    each word's generator is met, also for words that no periodic point
    starts with.  Any other family gets n sequences sampled on the stream
    derive_seed(seed, stream).
    """
    if sys.is_locally_constant:
        return [
            BaseSequence(sys.space, lambda j, w=w: w[min(max(j, 0), len(w) - 1)])
            for w in admissible_words(sys.space, sys.family.depth)
        ]
    return [
        sample_sequence(sys.space, sys.measure, derive_seed(seed, stream), i)
        for i in range(n)
    ]


def c1_distance(sys_f, sys_g, n_base_samples=100, grid=32, n_random=200, seed=0):
    """Estimate of sup_x d_C1(f_x, g_x) over sampled base points."""
    if sys_f.space.alphabet_size != sys_g.space.alphabet_size:
        raise ConfigurationError("systems live over different bases")
    base_points = generator_base_points(sys_f, n_base_samples, seed, 11)
    if not base_points:
        raise ConfigurationError("c1_distance needs n_base_samples >= 1")
    worst = 0.0
    for x in base_points:
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
    if n_pairs < 1:
        raise ConfigurationError("holder_estimate needs n_pairs >= 1")
    h_hat = 0.0
    witness = None
    for k in range(n_pairs):
        x = sample_sequence(sys.space, sys.measure, derive_seed(seed, 17), k)
        radius = k % 8
        y = _perturbed_partner(sys, x, radius, seed, k)
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
