"""Symbolic base dynamics: full shifts and subshifts of finite type.

Points of the shift space are bi-infinite symbol sequences, represented
lazily by a symbol-lookup rule so that arbitrary indices are available in
O(1) amortized time.  The metric is d(x, y) = metric_base**n with n the
two-sided agreement radius.

Sampled sequences draw their symbols in blocks of consecutive indices, one
vectorized counter-RNG call per block (``rng.counter_uniforms``).  Bernoulli
symbols are independent, so their tape keeps a bounded number of blocks and
draws a dropped block again when it is read.  Markov symbols are picked one
after another from each block's uniforms, outward from index 0; their tape
also keeps a bounded number of blocks, plus one checkpoint symbol per block
reached, from which it walks a dropped block again.  Both tapes pin the
cumulative weight of their last positive-weight symbol to 1.0, so no
uniform below 1 can pick a symbol past it.

``BaseSequence.symbols`` reads a window of indices as a numpy array: a
Bernoulli tape slices its cached blocks when it holds every block of the
window, and otherwise draws the window with one counter-RNG call and caches
nothing; a Markov tape slices its blocks, walking the missing ones;
periodic and homoclinic points index their word with the window's
indices; any other lookup (a bracket, a hand-made sequence) is asked one
index at a time.
"""

import itertools
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

    def symbols(self, start, stop):
        """Symbols at indices start..stop-1 as a numpy int array."""
        lo, hi = start + self.offset, stop + self.offset
        window = getattr(self._lookup, "window", None)
        if window is not None:
            return window(lo, hi)
        return np.array([self._lookup(j) for j in range(lo, hi)], dtype=np.intp)

    def word(self, start, stop):
        """Symbols at indices start..stop-1 as a tuple."""
        return tuple(self.symbol(j) for j in range(start, stop))

    def shift(self, k=1):
        """The image under the shift map iterated k times (k may be negative)."""
        return BaseSequence(self.space, self._lookup, self.offset + k)


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


class _Periodic:
    """Symbol j is word[j mod len(word)]; windows index the word as an array."""

    __slots__ = ("word", "_array")

    def __init__(self, word):
        self.word, self._array = word, np.array(word, dtype=np.intp)

    def __call__(self, j):
        return self.word[j % len(self.word)]

    def window(self, start, stop):
        return self._array[np.arange(start, stop) % len(self.word)]


def periodic_point(space, word):
    """The bi-infinite periodic repetition of ``word``."""
    word = space.check_word(word, cyclic=True)
    if not word:
        raise ConfigurationError("empty periodic word")
    return BaseSequence(space, _Periodic(word))


class _Homoclinic:
    """Symbol j is ``inserted`` at j == index and ``fixed`` elsewhere."""

    __slots__ = ("fixed", "inserted", "index")

    def __init__(self, fixed, inserted, index):
        self.fixed, self.inserted, self.index = fixed, inserted, index

    def __call__(self, j):
        return self.inserted if j == self.index else self.fixed

    def window(self, start, stop):
        return np.where(np.arange(start, stop) == self.index, self.inserted, self.fixed)


def homoclinic_point(space, p, insert_symbol, insert_index=1):
    """Homoclinic point of a fixed point: one inserted symbol, ``p`` elsewhere."""
    if p.period != 1:
        raise ConfigurationError("homoclinic construction needs a fixed point")
    (i,) = space.check_word(p.word, cyclic=True)
    (l,) = space.check_word((insert_symbol,))
    if l == i:
        raise ConfigurationError("inserted symbol must differ from the fixed symbol")
    if not (space.admissible(i, l) and space.admissible(l, i)):
        raise ConfigurationError("transitions %d <-> %d are inadmissible" % (i, l))
    return BaseSequence(space, _Homoclinic(i, l, int(insert_index)))


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
            if p.ndim != 1 or not (p > 0).all():
                raise ConfigurationError("bernoulli probs must be positive")
            if not abs(p.sum() - 1.0) <= 1e-12:
                raise ConfigurationError("bernoulli probs must sum to 1")
            object.__setattr__(self, "probs", tuple(p.tolist()))
        elif self.kind == "markov":
            P = np.asarray(self.P, dtype=float)
            d = P.shape[0]
            if P.shape != (d, d) or not (P >= 0).all():
                raise ConfigurationError("markov matrix P must be square, nonnegative")
            if not np.abs(P.sum(axis=1) - 1.0).max() <= 1e-12:
                raise ConfigurationError("markov rows of P must sum to 1")
            if self.pi is None:
                pi = _stationary_vector(P)
            else:
                pi = np.asarray(self.pi, dtype=float)
            if not (np.abs(pi @ P - pi).max() <= 1e-12 and (pi > 0).all()):
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


# Indices per counter_uniforms call, and the most blocks a tape holds.
_BLOCK = 64
_MAX_BLOCKS = 64


def _cumulative(weights):
    """Running sums of the weights, as a list ending in exactly 1.0.

    The entry of the last positive weight, and every entry after it, is
    pinned to 1.0: rounding can leave the sum just below 1, and a uniform
    above it would pick a symbol past the alphabet or a trailing
    zero-weight one.
    """
    cum = list(itertools.accumulate(weights))
    last = max(i for i, w in enumerate(weights) if w > 0.0)
    cum[last:] = [1.0] * (len(cum) - last)
    return cum


class _BernoulliTape:
    """Independent symbols: the first cumulative weight exceeding the uniform.

    Each symbol is a pure function of its counter, so blocks can be dropped
    and drawn again without changing the sequence.
    """

    __slots__ = ("cum", "seed", "stream_id", "blocks")

    def __init__(self, measure, seed, stream_id):
        self.cum = np.array(_cumulative(measure.probs))
        self.seed = seed
        self.stream_id = stream_id
        self.blocks = {}

    def __call__(self, j):
        b = j // _BLOCK
        block = self.blocks.get(b)
        if block is None:
            if len(self.blocks) >= _MAX_BLOCKS:
                self.blocks.clear()
            block = self.blocks[b] = self._draw(b * _BLOCK, (b + 1) * _BLOCK).tolist()
        return block[j - b * _BLOCK]

    def window(self, start, stop):
        """Sliced from the cached blocks when all are held, else drawn uncached.

        The scan stops at the first missing block, so a fresh tape pays one
        dict lookup before its draw.
        """
        out = []
        for b in range(start // _BLOCK, -(-stop // _BLOCK)):
            block = self.blocks.get(b)
            if block is None:
                return self._draw(start, stop)
            out += block[max(start - b * _BLOCK, 0):stop - b * _BLOCK]
        return np.array(out, dtype=np.intp)

    def _draw(self, start, stop):
        u = counter_uniforms(self.seed, self.stream_id, start, max(start, stop))
        return np.searchsorted(self.cum, u, side="right")


class _MarkovTape:
    """Lazily drawn two-sided stationary Markov sequence.

    Forward symbols follow P; backward symbols follow the time reversal
    P_rev[i][j] = pi[j] P[j][i] / pi[i].  Draws use counter-based uniforms,
    taken a block at a time, so the tape is a pure function of
    (seed, stream_id).  Block b holds indices [b * _BLOCK, (b + 1) * _BLOCK)
    and is walked outward from index 0: block 0 from a draw from pi, block
    b > 0 on from the last symbol of block b - 1, block b < 0 back from the
    first symbol of block b + 1.  ``fwd[b]`` and ``bwd[-1 - b]`` keep that
    checkpoint symbol for every block reached, so the tape keeps at most
    _MAX_BLOCKS blocks, as the Bernoulli tape does, and walks a dropped
    block again from its checkpoint.
    """

    def __init__(self, measure, seed, stream_id):
        P = np.asarray(measure.P)
        pi = np.asarray(measure.pi)
        self.cum_pi = _cumulative(measure.pi)
        self.cum_fwd = [_cumulative(row) for row in P.tolist()]
        self.cum_bwd = [_cumulative(row) for row in ((pi[None, :] * P.T) / pi[:, None]).tolist()]
        self.seed = seed
        self.stream_id = stream_id
        self.blocks = {}
        self.fwd = [None]  # block 0 opens with a draw from pi
        self.bwd = [self._block(0)[0]]

    def __call__(self, j):
        try:
            return self.blocks[j // _BLOCK][j % _BLOCK]
        except KeyError:
            return self._block(j // _BLOCK)[j % _BLOCK]

    def window(self, start, stop):
        out = []
        for b in range(start // _BLOCK, -(-stop // _BLOCK)):
            block = self.blocks.get(b) or self._block(b)
            out += block[max(start - b * _BLOCK, 0):stop - b * _BLOCK]
        return np.array(out, dtype=np.intp)

    def _block(self, b):
        """Block b, walked from its checkpoint, recording the checkpoints out to it."""
        marks, k = (self.fwd, b) if b >= 0 else (self.bwd, -1 - b)
        if k < len(marks) - 1:  # reached before and dropped
            block = self._walk(b, marks[k])
        for c in range(len(marks) - 1, k + 1):
            block = self._walk(c if b >= 0 else -1 - c, marks[c])
            marks.append(block[-1] if b >= 0 else block[0])
        if len(self.blocks) >= _MAX_BLOCKS:
            self.blocks.clear()
        self.blocks[b] = block
        return block

    def _walk(self, b, s):
        """The symbols of block b in index order, walked outward from symbol s."""
        us = counter_uniforms(self.seed, self.stream_id, b * _BLOCK, (b + 1) * _BLOCK).tolist()
        if b < 0:
            return self._steps(s, self.cum_bwd, us[::-1])[::-1]
        if s is None:
            s = bisect_right(self.cum_pi, us[0])
            return [s] + self._steps(s, self.cum_fwd, us[1:])
        return self._steps(s, self.cum_fwd, us)

    @staticmethod
    def _steps(s, cum, us):
        out = []
        for u in us:
            s = bisect_right(cum[s], u)
            out.append(s)
        return out


def sample_sequence(space, measure, seed, stream_id=0):
    """Draw a two-sided sequence distributed per ``measure``.

    Deterministic in (seed, stream_id): the symbol at any index is a pure
    function of the triple, independent of query order.
    """
    measure.validate_support(space)
    tape = _BernoulliTape if measure.kind == "bernoulli" else _MarkovTape
    return BaseSequence(space, tape(measure, seed, stream_id))


def cylinder_measure(measure, word):
    """Exact probability of the cylinder fixing ``word``, at any start (shift-invariance)."""
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
