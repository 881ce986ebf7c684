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
reached, from which it walks a dropped block again.  A new Markov tape has
walked nothing.  Both tapes pin the cumulative weight of their last
positive-weight symbol to 1.0, so no uniform below 1 can pick a symbol past
it.

``BaseSequence.symbols`` reads a window of indices as a numpy array: a
Bernoulli tape slices its cached blocks when it holds every block of the
window, and otherwise draws the window with one counter-RNG call and caches
nothing; a Markov tape slices its blocks, walking the missing ones;
periodic points index their word with the window's indices; a splice
(``splice``: a bracket, a homoclinic point, a stable or unstable partner,
a word held constant past its ends) reads each piece it touches once, a
sequence piece by its own window and a fixed symbol by ``np.full``; any
other lookup (a hand-made sequence) is asked one index at a time.
``symbol_rows`` reads one window of many sequences:
the rows of Bernoulli-sampled sequences of one measure come from one
many-stream counter-RNG call (``rng.stream_uniforms``); the forward rows
(window at index 0 or later) of Markov-sampled sequences that share a
measure, a first index and a checkpoint block are stepped together in
lockstep, one many-stream draw per block of 64 steps and one array gather
per step, resuming from their tapes' checkpoint and leaving new ones;
every other row is its sequence's own window.
"""

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BracketUndefinedError, ConfigurationError
from .rng import counter_uniforms, derive_seed, stream_uniforms


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


def splice(space, pieces, cuts):
    """The sequence reading pieces[i] on the indices [cuts[i - 1], cuts[i]).

    The first piece runs from -infinity and the last to +infinity, so there
    is one piece more than cuts, which increase strictly.  A piece is a
    ``BaseSequence``, read at the splice's own indices, or a fixed symbol.
    """
    pieces = tuple(p if isinstance(p, BaseSequence) else int(p) for p in pieces)
    cuts = tuple(int(c) for c in cuts)
    if len(pieces) != len(cuts) + 1 or any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise ConfigurationError("a splice needs increasing cuts and one piece more")
    return BaseSequence(space, _Splice(pieces, cuts))


class _Splice:
    """Symbol j is the piece's whose interval holds j; a window reads each piece it touches once."""

    __slots__ = ("pieces", "cuts")

    def __init__(self, pieces, cuts):
        self.pieces, self.cuts = pieces, cuts

    def __call__(self, j):
        piece = self.pieces[bisect_right(self.cuts, j)]
        return piece.symbol(j) if isinstance(piece, BaseSequence) else piece

    def window(self, start, stop):
        if stop <= start:
            return np.empty(0, dtype=np.intp)
        cuts, i = self.cuts, bisect_right(self.cuts, start)
        parts = []
        while True:
            end = cuts[i] if i < len(cuts) and cuts[i] < stop else stop
            piece = self.pieces[i]
            if isinstance(piece, BaseSequence):
                parts.append(piece.symbols(start, end))
            else:
                parts.append(np.full(end - start, piece, dtype=np.intp))
            if end == stop:
                return parts[0] if len(parts) == 1 else np.concatenate(parts)
            start, i = end, i + 1


def bracket(x, y):
    """The unique splice agreeing with x on j <= 0 and with y on j >= 0."""
    if x.symbol(0) != y.symbol(0):
        raise BracketUndefinedError(
            "bracket undefined: sequences disagree at index 0"
        )
    return splice(x.space, (x, y), (1,))


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
    return splice(space, (i, l, i), (insert_index, insert_index + 1))


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

    @cached_property
    def _markov_cumulatives(self):
        """``_cumulative`` of pi, of each row of P and of each row of its time reversal."""
        P, pi = np.asarray(self.P), np.asarray(self.pi)
        return (
            _cumulative(self.pi),
            [_cumulative(row) for row in P.tolist()],
            [_cumulative(row) for row in ((pi[None, :] * P.T) / pi[:, None]).tolist()],
        )

    @cached_property
    def _bernoulli_cumulative(self):
        """``_cumulative`` of the Bernoulli weights, one array for every tape of the measure."""
        return np.array(_cumulative(self.probs))

    @property
    def alphabet_size(self):
        if self.kind == "bernoulli":
            return len(self.probs)
        return len(self.pi)

    @lru_cache(maxsize=64)
    def validate_support(self, space):
        """Full support on the SFT is required for product structure; a passing pair is cached."""
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
    and drawn again without changing the sequence.  ``key`` is the stream's
    ``derive_seed(seed, stream_id)``, which ``symbol_rows`` draws by.
    """

    __slots__ = ("measure", "cum", "seed", "stream_id", "key", "blocks")

    def __init__(self, measure, seed, stream_id):
        self.measure = measure
        self.cum = measure._bernoulli_cumulative
        self.seed = seed
        self.stream_id = stream_id
        self.key = derive_seed(seed, stream_id)
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
    block again from its checkpoint.  A new tape has walked nothing: ``bwd``
    gets the symbol at index 0 when the first backward block is walked.
    ``key`` is the stream's ``derive_seed(seed, stream_id)``, which
    ``symbol_rows`` draws by when it steps many tapes' forward rows at once.
    """

    def __init__(self, measure, seed, stream_id):
        self.measure = measure
        self.cum_pi, self.cum_fwd, self.cum_bwd = measure._markov_cumulatives
        self.seed = seed
        self.stream_id = stream_id
        self.key = derive_seed(seed, stream_id)
        self.blocks = {}
        self.fwd = [None]  # block 0 opens with a draw from pi
        self.bwd = []

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
        if not marks:  # block -1 walks back from the symbol at index 0
            marks.append(self(0))
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


def symbol_rows(xs, start, stop):
    """``x.symbols(start, stop)`` for every x in xs, as the rows of one intp array.

    The rows of Bernoulli-sampled sequences of one measure come from one
    counter-RNG call (``rng.stream_uniforms``): each row is its own stream,
    read from start plus the row's shift offset.  The rows of Markov-sampled
    sequences whose window, after the offset, starts at index 0 or later
    are stepped together (``_step_markov_rows``), a group for each measure,
    first index and checkpoint block the tape resumes from.  Every other
    row is its sequence's own ``symbols`` window.
    """
    n = max(stop - start, 0)
    # by id(measure): (cumulative weights, row numbers, keys, starts) of Bernoulli rows;
    # by (id(measure), first index, checkpoint block): (row numbers, tapes) of Markov rows
    groups, walks, own = {}, {}, []
    for i, x in enumerate(xs):
        tape, first = x._lookup, start + x.offset
        if type(tape) is _BernoulliTape:
            cum, at, keys, starts = groups.setdefault(id(tape.measure), (tape.cum, [], [], []))
            at.append(i)
            keys.append(tape.key)
            starts.append(first)
        elif type(tape) is _MarkovTape and first >= 0 and n:
            b = min(first // _BLOCK, len(tape.fwd) - 1)
            at, tapes = walks.setdefault((id(tape.measure), first, b), ([], []))
            at.append(i)
            tapes.append(tape)
        else:
            own.append(i)
    # drawn before the rows are allocated, so a read holds at most two arrays of its size
    drawn = [
        (at, np.searchsorted(cum, stream_uniforms(keys, starts, n), side="right"))
        for cum, at, keys, starts in groups.values()
    ]
    rows = np.empty((len(xs), n), dtype=np.intp)
    for at, syms in drawn:
        rows[at] = syms
    for (_, first, b), (at, tapes) in walks.items():
        _step_markov_rows(tapes, at, first, b, rows)
    for i in own:
        rows[i] = xs[i].symbols(start, stop)
    return rows


def _step_markov_rows(tapes, at, first, b, out):
    """Write the tapes' windows [first, first + n), n out's width, into out's rows at.

    The tapes share a measure and hold the checkpoint ``fwd[b]``, from which
    they walk in lockstep (block 0 from an extra state d, "draw from pi").
    Each block takes one ``stream_uniforms`` draw of _BLOCK uniforms per
    tape, one lookup giving the next state of every tape at every step from
    each of the d + 1 states, stored as a flat pointer (row * (d + 1) +
    state), and one gather ``p = table[t][p]`` per step.

    The lookup is exact.  u < 1 and each cumulative row is nondecreasing up
    to its entries pinned at 1.0, so its entries <= u form a prefix, whose
    length is ``bisect_right(cum, u)``, the tape's own pick.  Every entry
    is one of the sorted cut points, the entries of all d + 1 rows, so that
    length depends on u only through the number k of cut points <= u: one
    ``searchsorted`` over the cut points gives k, and ``picks[k]`` holds
    the pick of every state.

    The checkpoint of every block passed is appended to its tape's ``fwd``,
    so a later read resumes there, and memory stays O(tapes * _BLOCK * d)
    beyond out.
    """
    n = out.shape[1]
    cums = [*tapes[0].cum_fwd, tapes[0].cum_pi]  # state d draws from pi
    d = len(cums) - 1
    cuts = np.sort(np.concatenate(cums))
    picks = np.zeros((len(cuts) + 1, d + 1), dtype=np.intp)  # picks[0]: no cut <= u
    for j, cum in enumerate(cums):
        picks[1:, j] = np.searchsorted(cum, cuts, side="right")
    keys = [tape.key for tape in tapes]
    state = np.array([d if t.fwd[b] is None else t.fwd[b] for t in tapes])
    base = np.arange(len(tapes)) * (d + 1)  # each row's pointer to its state 0
    for c in range(b, (first + n - 1) // _BLOCK + 1):
        u = stream_uniforms(keys, [c * _BLOCK] * len(keys), _BLOCK).T
        table = np.take(picks, np.searchsorted(cuts, u, side="right"), axis=0)
        table += base[:, None]
        p, walked = base + state, []
        for nxt in table.reshape(_BLOCK, -1):
            p = nxt[p]
            walked.append(p)
        walked = np.array(walked) - base
        col = c * _BLOCK - first  # out's column of block c's first index
        if col > -_BLOCK:
            out[at, max(col, 0):col + _BLOCK] = walked[max(-col, 0):n - col].T
        state = walked[-1]
        for tape, s in zip(tapes, state.tolist()):
            if len(tape.fwd) == c + 1:
                tape.fwd.append(s)


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
