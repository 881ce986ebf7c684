"""Skew products: base dynamics plus a family of fiber maps.

Two family types are supported.  Locally constant families look the
generator up from the word at indices [0, depth); with depth 1 this is the
classical random product.  The Holder family modulates a standard-map
parameter by a geometrically weighted symbol sum, giving a genuinely
base-dependent family with an explicit Holder certificate.  A single
orbit's walk (``iterate_cocycle``, the holonomies) goes through
``orbit_maps``, which reads the symbols once per window and asks the
family for all the window's (map, inverse) pairs at once; an open-ended
walk's first window is one reach of the family wide.
``orbit_keys`` reads many orbits' symbol windows with one
``base_shift.symbol_rows`` call and has the family turn them into one key
per orbit and step (a generator index, looked up in a trie of the table's
words, or the standard-map parameter).  The exponent walks each orbit's
keys: ``table_cocycle`` multiplies a key's derivative matrix per step when
every generator of a table has a constant derivative;
``standard_map_cocycle`` steps a Holder family's standard maps inline from
their parameters; any other table gives ``accumulate_cocycle`` one step
per key from its ``plans``.  A step is one tuple (a, b, c, d, disc,
f): a table plans each generator once (``_step_plan``), so a toral
generator, or a toral map after a twist while the point is off the
twist's disc, is stepped inline on floats, and f's ``apply`` takes every
other step; ``unplanned`` makes the steps of bare maps, ``orbit_maps``'
for ``iterate_cocycle``.
``orbit_batch`` walks many orbits forward together on arrays, applying a
whole step from the keys with the family's ``apply_many``; that step also
runs inverted, and on a column of keys against a row of fibre points
(every base point's generator on one fibre sample).  The sup-checks
(``c1_distance``, ``holder_estimate``, ``holonomy.fiber_bunching_margin``)
take that step on ``fiber_chunks`` of the sample, with a running maximum
per base point, which is exact in any order.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import fiber_maps as fm
from .base_shift import distance, sample_sequence, splice, symbol_rows
from .errors import CertificateViolationError, ConfigurationError, check_finite
from .rng import derive_seed


def admissible_words(space, length):
    """All admissible words of the given length, in lexicographic order.

    Listed by extending the admissible words one symbol shorter, so the
    cost grows with the number of words, not with d**length.
    """
    symbols = range(space.alphabet_size)
    words = [(a,) for a in symbols] if length else [()]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in symbols if space.admissible(w[-1], b)]
    return words


def _step_plan(f):
    """The step (a, b, c, d, disc, f) that ``accumulate_cocycle`` takes for the generator f.

    A toral map M gives (a, b, c, d, None, None), M's matrix, stepped
    inline.  Composite([M, twist]) gives M's matrix, the twist's
    ``LocalizedTwist.disc`` and f: a point off the disc is stepped inline as
    M alone, which is f's step bit for bit (off its disc the twist returns
    (t, IDENTITY), and the composite's products I.I and M.I are exact for
    integer entries whose zeros are +0.0), and f's ``apply`` steps a point
    on it.  Any other map gives (None, None, None, None, None, f), and so
    does a matrix whose float determinant is not exactly 1 (entries from
    about 2**26.5 on): it has a det defect, which ``apply`` takes.
    """
    m, disc = f, None
    if type(f) is fm.Composite and len(f.factors) == 2:
        if type(f.factors[1]) is fm.LocalizedTwist:
            m, disc = f.factors[0], f.factors[1].disc
    if type(m) is fm.ToralAutomorphism:
        a, b, c, d = m.matrix
        if a * d - b * c == 1.0:
            return a, b, c, d, disc, (f if disc else None)
    return None, None, None, None, None, f


def unplanned(maps):
    """The steps (None, None, None, None, None, f) of ``accumulate_cocycle`` for each map f.

    ``iterate_cocycle`` walks ``orbit_maps``' maps this way.
    """
    none = itertools.repeat(None)
    return zip(none, none, none, none, none, maps)


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
        # a trie of the table's words, one row of _radix entries per word prefix
        # shorter than depth, flattened: entry s of a prefix's row is the row
        # of the prefix + (s,), or for a prefix of length depth - 1 the index
        # into _maps of the word's generator; -1 marks no word, and the last
        # row, all -1, is where -1 leads
        self._radix = 1 + max((max(word) for word in self.table), default=0)
        self._maps = list({id(f): f for f in self.table.values()}.values())
        self._inverses = [f.inverse() for f in self._maps]
        index = {id(f): k for k, f in enumerate(self._maps)}
        trie = [[-1] * self._radix]
        for word, f in self.table.items():
            row = 0
            for s in word[:-1]:
                if trie[row][s] < 0:
                    trie[row][s] = len(trie)
                    trie.append([-1] * self._radix)
                row = trie[row][s]
            trie[row][word[-1]] = index[id(f)]
        trie.append([-1] * self._radix)
        self._trie = np.array(trie, dtype=np.int32).ravel()
        # index -> derivative matrix when every generator's is constant
        # (``FiberMap.apply_many`` gives floats), else None
        empty = np.empty(0)
        derivs = [tuple(f.apply_many(empty, empty)[2]) for f in self._maps]
        constant = not any(isinstance(e, np.ndarray) for d in derivs for e in d)
        self.derivatives = derivs if constant else None
        # index -> the generator's step in ``accumulate_cocycle`` (``_step_plan``),
        # in an object array, so that a row of keys gathers its steps in one index
        self.plans = np.fromiter(map(_step_plan, self._maps), object, len(self._maps))

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
        if in_range:
            keys = self._trie[syms[..., 0:n]]
            for i in range(1, self.depth):
                keys = self._trie[keys * self._radix + syms[..., i:i + n]]
            if not (keys < 0).any():
                return keys
        # some word has no generator: window_maps raises, naming the first
        for row in syms.reshape(-1, syms.shape[-1]).tolist():
            self.window_maps(row, n)

    def apply_many(self, keys, u, v, inverse=False):
        """One step of every orbit: orbit i applies generator keys[i], or its inverse.

        Keys may also be a column against a row of points: row b of the
        results applies generator keys[b, 0] to every point, and each
        generator met maps the points once.
        """
        rows = keys.ndim > u.ndim
        shape = keys.shape[:-1] + u.shape if rows else u.shape
        out_u, out_v = np.empty(shape), np.empty(shape)
        deriv = tuple(np.empty(shape) for _ in range(4))
        for k, f in enumerate(self._inverses if inverse else self._maps):
            sel = np.flatnonzero(keys == k)
            if len(sel):
                pu, pv = (u, v) if rows else (u[sel], v[sel])
                out_u[sel], out_v[sel], d = f.apply_many(pu, pv)
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

    def apply_many(self, keys, u, v, inverse=False):
        """One step of every orbit: orbit i applies StandardMap(keys[i]), or its inverse.

        Keys may also be a column against a row of points, giving one row of
        results per key; sin and cos are taken once per point.
        """
        step = fm.standard_map_inverse_many if inverse else fm.standard_map_many
        return step(keys, u, v)

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

    def with_generator(self, word, replace):
        """The system with word's generator f replaced by replace(f); itself if that is f."""
        if not self.is_locally_constant:
            raise ConfigurationError("generator replacement needs a locally constant family")
        word = (word,) if isinstance(word, int) else tuple(word)
        table = dict(self.family.table)
        if word not in table:
            raise ConfigurationError("no generator for word %r" % (word,))
        new_map = replace(table[word])
        if new_map is table[word]:
            return self
        table[word] = new_map
        return SkewSystem(
            self.space, self.measure, LocallyConstantFamily(self.family.depth, table)
        )


_MAX_CHUNK = 4096
_MAX_BATCH_CELLS = 1 << 17  # 1 MB per int64 array of an orbit_batch chunk
_FIBER_CELLS = 1 << 12  # base points x fibre points per array step of a fibre sup


def orbit_maps(sys, x, backward=False, n=None):
    """The fiber maps met along the base orbit of x, as (map, inverse) pairs.

    Forward, step k = 0, 1, 2, ... yields (f_{s^k x}, f_{s^k x}^{-1}), so
    the first m maps compose to f^m_x.  Backward, step k yields
    (f_{s^{-k-1} x}^{-1}, f_{s^{-k-1} x}), so the first m maps compose to
    f^{-m}_x; s is the shift.  The walk stops after n steps; with n None
    it runs on, reading symbols in windows that double (up to a cap,
    _MAX_CHUNK steps) with the steps consumed, from a first window one
    reach wide (hi - lo + 1 steps, capped): a step reads that many
    symbols, so no window reads more than twice the symbols its steps
    need.  Either way a walk of m steps reads O(m) symbols and holds
    O(min(m, cap)) maps.  Each window is one ``x.symbols`` call: a
    Bernoulli sequence slices it from its cached blocks when it holds them
    all, and otherwise draws it with one counter-RNG call; a Markov
    sequence slices its blocks.
    """
    window_maps = sys.family.window_maps
    lo, hi = sys.family.reach
    symbols = x.symbols
    k, size = 0, min(hi - lo + 1, _MAX_CHUNK)
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


def orbit_keys(sys, xs, n):
    """The family's keys along the orbits of xs for their first n steps, chunk by chunk.

    Each chunk is an array with one row per orbit and one column per step,
    read from one ``base_shift.symbol_rows`` window, which draws the rows
    of Bernoulli-sampled orbits of one measure with one counter-RNG call.
    Chunks hold at most _MAX_CHUNK steps and _MAX_BATCH_CELLS orbit-steps,
    so memory stays bounded, O(min(n, cap)) keys per orbit, for any n and
    any number of orbits.
    """
    family = sys.family
    lo, hi = family.reach
    chunk = max(1, min(_MAX_CHUNK, _MAX_BATCH_CELLS // max(1, len(xs))))
    for k in range(0, n, chunk):
        size = min(n - k, chunk)
        yield family.window_keys(symbol_rows(xs, k + lo, k + size + hi), size)


def orbit_batch(sys, xs, u, v, n):
    """Walk the orbits of (xs[i], (u[i], v[i])) forward together for n steps.

    Step k yields the fiber points after it and the derivatives of its maps,
    as arrays (u, v, (a, b, c, d)) with one entry per orbit, equal bit for
    bit to walking each orbit with ``orbit_maps`` and ``apply``.  The keys
    come from ``orbit_keys``, so memory stays bounded.
    """
    apply_many = sys.family.apply_many
    for keys in orbit_keys(sys, xs, n):
        for step_keys in keys.T:
            u, v, d = apply_many(step_keys, u, v)
            yield u, v, d


def fiber_chunks(n_rows, u, v):
    """The fibre sample (u, v) in slices of _FIBER_CELLS // n_rows points, or of one."""
    chunk = max(1, _FIBER_CELLS // n_rows)
    for i in range(0, len(u), chunk):
        yield u[i:i + chunk], v[i:i + chunk]


RENORM_EVERY = 16  # steps between renormalizations of a running derivative product


def accumulate_cocycle(steps, t):
    """Endpoint, log norm and det defect of a walk from the fiber point t.

    Each step is a tuple (a, b, c, d, disc, f): a table's ``plans`` at its
    keys (``_step_plan``), or ``unplanned`` maps.  With no f, or with the point
    off the disc by ``LocalizedTwist.apply``'s own squared-offset test, the
    point takes the step of the matrix (a, b, c, d) inline on floats, with
    no det defect; otherwise f's ``apply`` takes it.
    The running derivative product is renormalized by its norm every
    RENORM_EVERY steps; the factored-out norms go into a log
    accumulator, so the result is exact up to round-off for up to 1e7 steps.
    """
    u, v = t
    p, q, r, s = fm.IDENTITY  # running product, row-major
    log_acc = 0.0
    det_defect = 0.0
    for k, (a, b, c, d, disc, f) in enumerate(steps, 1):
        if disc is not None:
            cu, cv, near = disc
            y1 = (u - cu + 0.5) % 1.0 - 0.5
            y2 = (v - cv + 0.5) % 1.0 - 0.5
            if y1 * y1 + y2 * y2 > near:
                f = None
        if f is None:
            u, v = (a * u + b * v) % 1.0, (c * u + d * v) % 1.0
        else:
            (u, v), (a, b, c, d) = f.apply((u, v))
            defect = abs(a * d - b * c - 1.0)
            if defect > det_defect:
                det_defect = defect
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        if k % RENORM_EVERY == 0:
            nb = fm.mat_norm((p, q, r, s))
            log_acc += math.log(nb)
            p, q, r, s = p / nb, q / nb, r / nb, s / nb
    return (u, v), log_acc + math.log(fm.mat_norm((p, q, r, s))), det_defect


def table_cocycle(table, rows):
    """Log norm and det defect of ``accumulate_cocycle`` along one orbit, at any point.

    For a locally constant family whose generators all have constant
    derivatives: table is ``family.derivatives``, and rows are the orbit's
    generator indices (from ``orbit_keys``) as lists, chunk after chunk, at
    least one index in all.
    The walk multiplies the indices' matrices, moving no fiber point.  The
    product order, the renormalization and the defect are
    ``accumulate_cocycle``'s, so both values are equal bit for bit.
    """
    p, q, r, s = fm.IDENTITY  # running product, row-major
    log_acc = 0.0
    met = set()
    k = 0
    for keys in rows:
        met.update(keys)
        for k, (a, b, c, d) in enumerate(map(table.__getitem__, keys), k + 1):
            p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
            if k % RENORM_EVERY == 0:
                nb = fm.mat_norm((p, q, r, s))
                log_acc += math.log(nb)
                p, q, r, s = p / nb, q / nb, r / nb, s / nb
    log_norm = log_acc + math.log(fm.mat_norm((p, q, r, s)))
    # accumulate_cocycle's running maximum, taken over the generators met
    defects = (abs(a * d - b * c - 1.0) for a, b, c, d in map(table.__getitem__, met))
    return log_norm, max(0.0, *defects)


def standard_map_cocycle(rows, t):
    """``accumulate_cocycle`` over the maps StandardMap(K), stepped inline from each K.

    For a Holder family: rows are one orbit's parameters K (from
    ``orbit_keys``) as arrays, chunk after chunk, at least one K in all.
    Each step is ``StandardMap.apply``'s arithmetic, then the walk's on
    the derivative (1 + c, 1.0, c, 1.0) with its multiplications by 1.0
    left out; those are exact, signed zeros included, and K / 2pi rounds
    in numpy as in Python.  So the endpoint, log norm and det defect equal
    ``accumulate_cocycle``'s bit for bit.
    """
    u, v = t
    p, q, r, s = fm.IDENTITY  # running product, row-major
    log_acc = 0.0
    det_defect = 0.0
    sin, cos, two_pi = math.sin, math.cos, fm.TWO_PI
    k = 0
    for Ks in rows:
        for k, (K, K_2pi) in enumerate(zip(Ks.tolist(), (Ks / two_pi).tolist()), k + 1):
            x = two_pi * u
            kick = K_2pi * sin(x)
            c = K * cos(x)
            u, v = (u + v + kick) % 1.0, (v + kick) % 1.0
            a = 1.0 + c
            defect = abs(a - c - 1.0)
            if defect > det_defect:
                det_defect = defect
            p, q, r, s = a * p + r, a * q + s, c * p + r, c * q + s
            if k % RENORM_EVERY == 0:
                nb = fm.mat_norm((p, q, r, s))
                log_acc += math.log(nb)
                p, q, r, s = p / nb, q / nb, r / nb, s / nb
    return (u, v), log_acc + math.log(fm.mat_norm((p, q, r, s))), det_defect


def iterate_cocycle(sys, x, t, n):
    """Orbit endpoint and log operator norm of the derivative product.

    Negative n follows the backward orbit with inverted generators.
    """
    maps = map(operator.itemgetter(0), orbit_maps(sys, x, backward=n < 0, n=abs(int(n))))
    t, log_norm, det_defect = accumulate_cocycle(unplanned(maps), t)
    return CocycleResult(t, log_norm, int(n), det_defect)


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
            splice(sys.space, w, range(1, len(w)))
            for w in admissible_words(sys.space, sys.family.depth)
        ]
    return [
        sample_sequence(sys.space, sys.measure, derive_seed(seed, stream), i)
        for i in range(n)
    ]


def _c1_sups(sys_f, xs, sys_g, ys, grid, n_random, seed):
    """sup_t |f(t) - g(t)| + ||Df(t) - Dg(t)|| over the fiber sample, f = f_{xs[i]}, g = g_{ys[i]}.

    Both families step each chunk of the sample on a column of their keys,
    and each i keeps a running maximum, exact in any order (module docstring).
    """
    u, v = fm.sample_points(grid, n_random, seed, 1)
    if len(u) == 0:
        raise ConfigurationError("C1 distances need grid or n_random >= 1")
    keys_f, keys_g = next(orbit_keys(sys_f, xs, 1)), next(orbit_keys(sys_g, ys, 1))
    sups = np.zeros(len(xs))
    for cu, cv in fiber_chunks(len(xs), u, v):
        fu, fv, df = sys_f.family.apply_many(keys_f, cu, cv)
        gu, gv, dg = sys_g.family.apply_many(keys_g, cu, cv)
        du, dv = fm.torus_delta((fu, fv), (gu, gv))
        gaps = fm.elementwise(math.hypot, du, dv) + fm.mat_norms(*(p - q for p, q in zip(df, dg)))
        np.maximum(sups, gaps.max(axis=1), out=sups)
    return sups.tolist()


def c1_distance(sys_f, sys_g, n_base_samples=100, grid=32, n_random=200, seed=0):
    """Estimate of sup_x d_C1(f_x, g_x) over sampled base points."""
    if sys_f.space.alphabet_size != sys_g.space.alphabet_size:
        raise ConfigurationError("systems live over different bases")
    base_points = generator_base_points(sys_f, n_base_samples, seed, 11)
    if not base_points:
        raise ConfigurationError("c1_distance needs n_base_samples >= 1")
    return max(0.0, *_c1_sups(sys_f, base_points, sys_g, base_points, grid, n_random, seed))


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
    xs, ys = [], []
    for k in range(n_pairs):
        x = sample_sequence(sys.space, sys.measure, derive_seed(seed, 17), k)
        # the partner agrees with x exactly for |j| < radius
        radius = k % 8
        other = sample_sequence(sys.space, sys.measure, derive_seed(seed, 13), k)
        xs.append(x)
        ys.append(splice(sys.space, (other, x, other), (1 - radius, radius)) if radius else other)
    h_hat = 0.0
    witness = None
    gaps = _c1_sups(sys, xs, sys, ys, grid, n_random, seed)
    for k, (x, y, gap) in enumerate(zip(xs, ys, gaps)):
        d = distance(x, y)
        if d == 0.0:
            continue
        q = gap / d ** alpha
        if q > h_hat:
            h_hat = q
            witness = (k, k % 8, d, gap)
    if declared is not None and h_hat > declared:
        raise CertificateViolationError(
            "sampled Holder quotient %.6g exceeds declared %.6g (witness %r)"
            % (h_hat, declared, witness)
        )
    return h_hat, alpha


def random_fiber_point(seed, index, stream=0):
    """Lebesgue sample on the fiber, counter-addressed for determinism."""
    return fm.random_point(seed, 1000 + stream, index)
