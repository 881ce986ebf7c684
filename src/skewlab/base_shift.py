"""Symbolic base dynamics: full shifts and subshifts of finite type.

Points of the shift space are bi-infinite symbol sequences, represented
lazily by a symbol-lookup rule so that arbitrary indices are available in
O(1) amortized time.  The metric is d(x, y) = metric_base**n with n the
two-sided agreement radius.

Sampled sequences draw their symbols in blocks of consecutive indices, one
vectorized counter-RNG call per block (``rng.counter_uniforms``).  Bernoulli
symbols are independent, so their tape keeps a bounded number of blocks and
draws a dropped block again when it is read; Markov symbols are picked one
after another from each block's uniforms, outward from index 0.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import BracketUndefinedError, ConfigurationError
from .rng import counter_uniforms


@dataclass(frozen=True)
class ShiftSpace:
    """A full shift or SFT on ``alphabet_size`` symbols with its metric."""

    alphabet_size: int
    transitions: tuple = None  # row-major tuple of bool tuples; None = full shift
    metric_base: float = 0.5
    metric_horizon: int = 128

    def __post_init__(self):
        d = self.alphabet_size
        if d < 2:
            raise ConfigurationError("alphabet_size must be >= 2")
        if not 0.0 < self.metric_base < 1.0:
            raise ConfigurationError("metric_base must lie in (0, 1)")
        if self.transitions is None:
            object.__setattr__(
                self, "transitions", tuple((True,) * d for _ in range(d))
            )
        t = np.asarray(self.transitions, dtype=bool)
        if t.shape != (d, d):
            raise ConfigurationError("transitions must be a d x d matrix")
        if not (t.any(axis=1).all() and t.any(axis=0).all()):
            raise ConfigurationError("transition matrix has a dead symbol")
        object.__setattr__(self, "transitions", tuple(map(tuple, t.tolist())))

    @property
    def is_full_shift(self):
        return all(all(row) for row in self.transitions)

    def admissible(self, a, b):
        """Whether the transition a -> b is allowed."""
        return self.transitions[a][b]

    def check_word(self, word, cyclic=False):
        word = tuple(int(s) for s in word)
        for s in word:
            if not 0 <= s < self.alphabet_size:
                raise ConfigurationError("symbol %r out of range" % (s,))
        for a, b in zip(word, word[1:]):
            if not self.admissible(a, b):
                raise ConfigurationError("inadmissible transition %d -> %d" % (a, b))
        if cyclic and word and not self.admissible(word[-1], word[0]):
            raise ConfigurationError(
                "word %r is not cyclically admissible" % (word,)
            )
        return word


class BaseSequence:
    """A point of the shift space: symbol lookup plus a shift offset."""

    __slots__ = ("space", "_lookup", "offset")

    def __init__(self, space, lookup, offset=0):
        self.space = space
        self._lookup = lookup
        self.offset = offset

    def symbol(self, j):
        return self._lookup(j + self.offset)

    def word(self, start, stop):
        """Symbols at indices start..stop-1 as a tuple."""
        return tuple(self.symbol(j) for j in range(start, stop))

    def shift(self, k=1):
        """The image under the shift map iterated k times (k may be negative)."""
        return BaseSequence(self.space, self._lookup, self.offset + k)


def shift(x, k=1):
    return x.shift(k)


def distance(x, y):
    """Shift metric: metric_base**(two-sided agreement radius)."""
    if x.space.alphabet_size != y.space.alphabet_size:
        raise ConfigurationError("sequences live over different alphabets")
    space = x.space
    for n in range(space.metric_horizon + 1):
        if x.symbol(n) != y.symbol(n) or x.symbol(-n) != y.symbol(-n):
            return space.metric_base ** n
    return 0.0


def bracket(x, y):
    """The unique splice agreeing with x on j <= 0 and with y on j >= 0."""
    if x.symbol(0) != y.symbol(0):
        raise BracketUndefinedError(
            "bracket undefined: sequences disagree at index 0"
        )
    xs, ys = x.symbol, y.symbol
    return BaseSequence(x.space, lambda j: xs(j) if j <= 0 else ys(j))


@dataclass(frozen=True)
class PeriodicPoint:
    """An admissible word repeated bi-infinitely."""

    word: tuple

    @property
    def period(self):
        return len(self.word)

    def point(self, space):
        return periodic_point(space, self.word)


def periodic_point(space, word):
    """The bi-infinite periodic repetition of ``word``."""
    word = space.check_word(word, cyclic=True)
    if not word:
        raise ConfigurationError("empty periodic word")
    kappa = len(word)
    return BaseSequence(space, lambda j: word[j % kappa])


def homoclinic_point(space, p, insert_symbol, insert_index=1):
    """Homoclinic point of a fixed point: one inserted symbol, ``p`` elsewhere."""
    if p.period != 1:
        raise ConfigurationError("homoclinic construction needs a fixed point")
    i = p.word[0]
    l = int(insert_symbol)
    if l == i:
        raise ConfigurationError("inserted symbol must differ from the fixed symbol")
    if not (space.admissible(i, l) and space.admissible(l, i)):
        raise ConfigurationError("transitions %d <-> %d are inadmissible" % (i, l))
    k = int(insert_index)
    return BaseSequence(space, lambda j: l if j == k else i)


@dataclass(frozen=True)
class BaseMeasure:
    """Bernoulli or stationary Markov measure with full support on the SFT."""

    kind: str  # "bernoulli" | "markov"
    probs: tuple = None  # bernoulli weights
    P: tuple = None  # markov transition matrix, row-major
    pi: tuple = None  # stationary vector

    def __post_init__(self):
        if self.kind == "bernoulli":
            p = np.asarray(self.probs, dtype=float)
            if p.ndim != 1 or (p <= 0).any():
                raise ConfigurationError("bernoulli weights must be positive")
            if abs(p.sum() - 1.0) > 1e-12:
                raise ConfigurationError("bernoulli weights must sum to 1")
            object.__setattr__(self, "probs", tuple(p.tolist()))
        elif self.kind == "markov":
            P = np.asarray(self.P, dtype=float)
            d = P.shape[0]
            if P.shape != (d, d) or (P < 0).any():
                raise ConfigurationError("markov matrix must be square, nonnegative")
            if np.abs(P.sum(axis=1) - 1.0).max() > 1e-12:
                raise ConfigurationError("markov rows must sum to 1")
            if self.pi is None:
                pi = _stationary_vector(P)
            else:
                pi = np.asarray(self.pi, dtype=float)
            if np.abs(pi @ P - pi).max() > 1e-12 or (pi <= 0).any():
                raise ConfigurationError("pi is not a positive stationary vector")
            object.__setattr__(self, "P", tuple(map(tuple, P.tolist())))
            object.__setattr__(self, "pi", tuple(pi.tolist()))
        else:
            raise ConfigurationError("unknown measure kind %r" % (self.kind,))

    @property
    def alphabet_size(self):
        if self.kind == "bernoulli":
            return len(self.probs)
        return len(self.pi)

    def validate_support(self, space):
        """Full support on the SFT is required for product structure."""
        if self.alphabet_size != space.alphabet_size:
            raise ConfigurationError("measure and shift space alphabet mismatch")
        if self.kind == "bernoulli":
            if not space.is_full_shift:
                raise ConfigurationError(
                    "bernoulli measures are supported only on the full shift"
                )
        else:
            P = np.asarray(self.P)
            t = np.asarray(space.transitions)
            if ((P > 0) & ~t).any():
                raise ConfigurationError("markov matrix charges an inadmissible edge")
            if (t & (P == 0)).any():
                raise ConfigurationError("markov measure is not fully supported")


def _stationary_vector(P):
    vals, vecs = np.linalg.eig(P.T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    v = v / v.sum()
    return v


# Indices per counter_uniforms call, and the most blocks a Bernoulli tape holds.
_BLOCK = 64
_MAX_BLOCKS = 64


class _BernoulliTape:
    """Independent symbols: the first cumulative weight exceeding the uniform.

    Each symbol is a pure function of its counter, so blocks can be dropped
    and drawn again without changing the sequence.
    """

    __slots__ = ("cum", "seed", "stream_id", "blocks")

    def __init__(self, measure, seed, stream_id):
        self.cum = np.cumsum(measure.probs)
        self.seed = seed
        self.stream_id = stream_id
        self.blocks = {}

    def __call__(self, j):
        b = j // _BLOCK
        block = self.blocks.get(b)
        if block is None:
            if len(self.blocks) >= _MAX_BLOCKS:
                self.blocks.clear()
            u = counter_uniforms(self.seed, self.stream_id, b * _BLOCK, (b + 1) * _BLOCK)
            block = self.blocks[b] = np.searchsorted(self.cum, u, side="right").tolist()
        return block[j - b * _BLOCK]


class _MarkovTape:
    """Lazily materialized two-sided stationary Markov sequence.

    Forward symbols follow P; backward symbols follow the time reversal
    P_rev[i][j] = pi[j] P[j][i] / pi[i].  Draws use counter-based uniforms,
    taken a block at a time, so the tape is a pure function of
    (seed, stream_id).  ``fwd[j]`` holds index j >= 0 and ``bwd[j]`` index
    -1 - j.
    """

    def __init__(self, measure, seed, stream_id):
        P = np.asarray(measure.P)
        pi = np.asarray(measure.pi)
        self.cum_fwd = np.cumsum(P, axis=1).tolist()
        self.cum_bwd = np.cumsum((pi[None, :] * P.T) / pi[:, None], axis=1).tolist()
        self.seed = seed
        self.stream_id = stream_id
        u = counter_uniforms(seed, stream_id, 0, _BLOCK).tolist()
        self.fwd = [bisect_right(np.cumsum(pi).tolist(), u[0])]
        self._walk(self.fwd, self.fwd[0], self.cum_fwd, u[1:])
        self.bwd = []

    def __call__(self, j):
        if j >= 0:
            fwd = self.fwd
            while j >= len(fwd):
                n = len(fwd)
                u = counter_uniforms(self.seed, self.stream_id, n, n + _BLOCK)
                self._walk(fwd, fwd[-1], self.cum_fwd, u.tolist())
            return fwd[j]
        bwd = self.bwd
        while -1 - j >= len(bwd):
            n = len(bwd)
            u = counter_uniforms(self.seed, self.stream_id, -n - _BLOCK, -n)
            self._walk(bwd, bwd[-1] if bwd else self.fwd[0], self.cum_bwd, u.tolist()[::-1])
        return bwd[-1 - j]

    @staticmethod
    def _walk(tape, s, cum, us):
        for u in us:
            s = bisect_right(cum[s], u)
            tape.append(s)


def sample_sequence(space, measure, seed, stream_id=0):
    """Draw a two-sided sequence distributed per ``measure``.

    Deterministic in (seed, stream_id): the symbol at any index is a pure
    function of the triple, independent of query order.
    """
    measure.validate_support(space)
    tape = _BernoulliTape if measure.kind == "bernoulli" else _MarkovTape
    return BaseSequence(space, tape(measure, seed, stream_id))


def cylinder_measure(measure, word, start_index=0):
    """Exact probability of the cylinder fixing ``word`` from ``start_index``."""
    word = tuple(int(s) for s in word)
    if not word:
        return 1.0
    if measure.kind == "bernoulli":
        out = 1.0
        for s in word:
            out *= measure.probs[s]
        return out
    out = measure.pi[word[0]]
    for a, b in zip(word, word[1:]):
        out *= measure.P[a][b]
    return out
