"""Shift spaces: metric, bracket, periodic/homoclinic points, measures."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import skewlab as sl
from skewlab.base_shift import _BLOCK, _MAX_BLOCKS, _BernoulliTape
from skewlab.errors import BracketUndefinedError, ConfigurationError

from _common import bernoulli2, stream_with_hash


def seq_from(space, past, future):
    """Sequence with explicit symbols: past[k] at index -(k+1), future[j] at j."""

    def look(j):
        if j >= 0:
            return future[j] if j < len(future) else future[-1]
        k = -j - 1
        return past[k] if k < len(past) else past[-1]

    return sl.BaseSequence(space, look)


@pytest.fixture
def space():
    return sl.ShiftSpace(2, metric_base=0.5)


def test_space_validation():
    with pytest.raises(ConfigurationError):
        sl.ShiftSpace(1)
    with pytest.raises(ConfigurationError):
        sl.ShiftSpace(2, metric_base=1.0)
    with pytest.raises(ConfigurationError):
        sl.ShiftSpace(2, transitions=((True, False), (True, False)))


def test_distance_identity(space):
    x = sl.periodic_point(space, (0, 1))
    assert sl.distance(x, x) == 0.0


def test_distance_agreement_radius(space):
    # agreement exactly for |j| <= 3, disagreement first at index 4
    x = seq_from(space, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0])
    y = seq_from(space, [0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0])
    assert sl.distance(x, y) == 2.0 ** -4 == 0.0625


def test_distance_mismatched_alphabets(space):
    other = sl.ShiftSpace(3)
    with pytest.raises(ConfigurationError):
        sl.distance(sl.periodic_point(space, (0,)), sl.periodic_point(other, (0,)))


def test_stable_pair_contraction(space):
    m = bernoulli2()
    for k in range(100):
        x = sl.sample_sequence(space, m, sl.derive_seed(3, k), 0)
        o = sl.sample_sequence(space, m, sl.derive_seed(3, k), 1)
        xs, os_ = x.symbol, o.symbol
        y = sl.BaseSequence(space, lambda j: xs(j) if j >= 0 else os_(j))
        d = sl.distance(x, y)
        if d == 0.0:
            continue
        assert sl.distance(x.shift(1), y.shift(1)) <= 0.5 * d + 1e-15


def test_shift_basics(space):
    x = sl.periodic_point(space, (0, 1))
    assert x.shift(0).word(0, 4) == x.word(0, 4)
    assert x.shift(1).word(0, 2) == (1, 0)
    assert x.shift(3).shift(-1).word(-2, 2) == x.shift(2).word(-2, 2)
    s = sl.sample_sequence(space, bernoulli2(), 99, 0)
    assert s.shift(5).symbol(0) == s.symbol(5)


def test_bracket_splice(space):
    x = sl.periodic_point(space, (0,))
    y = seq_from(space, [1, 1, 1], [0, 1, 1, 1])
    z = sl.bracket(x, y)
    for j in range(-6, 1):
        assert z.symbol(j) == x.symbol(j)
    for j in range(0, 6):
        assert z.symbol(j) == y.symbol(j)


def test_bracket_identity_and_error(space):
    x = sl.periodic_point(space, (0, 1))
    z = sl.bracket(x, x)
    assert z.word(-5, 5) == x.word(-5, 5)
    y = sl.periodic_point(space, (1, 0))
    with pytest.raises(BracketUndefinedError):
        sl.bracket(x, y)


def test_periodic_point(space):
    p = sl.periodic_point(space, (0,))
    assert p.word(-3, 3) == (0,) * 6
    q = sl.periodic_point(space, (0, 1))
    assert q.shift(2).word(-4, 4) == q.word(-4, 4)
    s3 = sl.ShiftSpace(3)
    assert sl.periodic_point(s3, (0, 1, 2)).word(0, 3) == (0, 1, 2)
    with pytest.raises(ConfigurationError):
        sl.periodic_point(space, ())


def test_periodic_point_cyclic_admissibility():
    sft = sl.ShiftSpace(2, transitions=((True, True), (True, False)))
    sl.periodic_point(sft, (0, 1))  # 0->1, 1->0 admissible
    with pytest.raises(ConfigurationError):
        sl.periodic_point(sft, (1,))  # 1->1 inadmissible


def test_homoclinic_point(space):
    p = sl.PeriodicPoint((0,))
    pt = p.point(space)
    z = sl.homoclinic_point(space, p, 1, 1)
    assert z.symbol(1) == 1
    for j in list(range(-5, 1)) + list(range(2, 6)):
        assert z.symbol(j) == 0
    assert sl.distance(z, pt) == 0.5  # first disagreement at |j| = 1
    z2 = z.shift(2)
    assert all(z2.symbol(j) == 0 for j in range(0, 6))
    with pytest.raises(ConfigurationError):
        sl.homoclinic_point(space, p, 0, 1)
    with pytest.raises(ConfigurationError):
        sl.homoclinic_point(space, sl.PeriodicPoint((0, 1)), 1, 1)
    # symbols past the alphabet built a point that failed later, in an IndexError
    with pytest.raises(ConfigurationError, match="symbol 5 out of range"):
        sl.homoclinic_point(space, sl.PeriodicPoint((5,)), 1, 1)
    with pytest.raises(ConfigurationError, match="symbol 5 out of range"):
        sl.homoclinic_point(space, sl.PeriodicPoint((0,)), 5, 1)
    sft = sl.ShiftSpace(2, transitions=((True, True), (True, False)))
    with pytest.raises(ConfigurationError, match="cyclically"):
        sl.homoclinic_point(sft, sl.PeriodicPoint((1,)), 0, 1)  # 1 -> 1 inadmissible


def test_sample_sequence_bernoulli_frequency(space):
    x = sl.sample_sequence(space, bernoulli2(), 7, 0)
    n = 100000
    freq = sum(1 for j in range(n) if x.symbol(j) == 0) / n
    assert 0.495 <= freq <= 0.505


def test_sample_sequence_markov_transition_frequency():
    space = sl.ShiftSpace(2)
    m = sl.BaseMeasure("markov", P=((0.9, 0.1), (0.1, 0.9)))
    x = sl.sample_sequence(space, m, 11, 0)
    n = 100000
    stay = 0
    total = 0
    prev = x.symbol(0)
    for j in range(1, n):
        cur = x.symbol(j)
        total += 1
        if cur == prev:
            stay += 1
        prev = cur
    assert abs(stay / total - 0.9) < 0.01


def test_sample_sequence_determinism_and_order_independence():
    space = sl.ShiftSpace(2)
    m = sl.BaseMeasure("markov", P=((0.7, 0.3), (0.3, 0.7)))
    a = sl.sample_sequence(space, m, 5, 3)
    b = sl.sample_sequence(space, m, 5, 3)
    # query a forward first, b backward first: lazily built tapes must agree
    wa = [a.symbol(j) for j in range(-20, 21)]
    wb = [b.symbol(j) for j in range(20, -21, -1)][::-1]
    assert wa == wb
    c = sl.sample_sequence(space, m, 5, 4)
    assert [c.symbol(j) for j in range(-20, 21)] != wa


def _pick(cum, u):
    return int(np.searchsorted(cum, u, side="right"))


def _bernoulli_reference(measure, seed, stream):
    """One counter draw and one search per index."""
    cum = np.cumsum(measure.probs)
    return lambda j: _pick(cum, sl.counter_uniform(seed, stream, j))


def _markov_reference(measure, seed, stream):
    """One counter draw per index, walked outward from index 0."""
    P, pi = np.asarray(measure.P), np.asarray(measure.pi)
    cum_fwd = np.cumsum(P, axis=1)
    cum_bwd = np.cumsum((pi[None, :] * P.T) / pi[:, None], axis=1)
    known = {0: _pick(np.cumsum(pi), sl.counter_uniform(seed, stream, 0))}

    def look(j):
        if j in known:
            return known[j]
        step = 1 if j > 0 else -1
        cum = cum_fwd if j > 0 else cum_bwd
        i = 0
        while i != j:
            if i + step not in known:
                u = sl.counter_uniform(seed, stream, i + step)
                known[i + step] = _pick(cum[known[i]], u)
            i += step
        return known[j]

    return look


def _query_indices(reach, far=()):
    """Every index in [-reach, reach], plus ``far``, in shuffled order."""
    idx = list(range(-reach, reach + 1)) + list(far)
    random.Random(reach).shuffle(idx)
    return idx


@pytest.mark.parametrize("seed,stream", [(0, 0), (7, 3), (-12, 2 ** 40)])
def test_sample_sequence_bernoulli_matches_per_index_draws(seed, stream):
    space = sl.ShiftSpace(3)
    m = sl.BaseMeasure("bernoulli", probs=(0.2, 0.5, 0.3))
    # far indices on both edges of 64-index blocks, out to the int64 limits
    far = (10 ** 9, 10 ** 9 - 1, -(10 ** 9), -(10 ** 9) - 1, 2 ** 63 - 1, -(2 ** 63))
    x = sl.sample_sequence(space, m, seed, stream)
    ref = _bernoulli_reference(m, seed, stream)
    idx = _query_indices(3000, far)
    assert [x.symbol(j) for j in idx] == [ref(j) for j in idx]
    # reading again after the tape dropped blocks gives the same symbols
    assert [x.symbol(j) for j in idx[::-1]] == [ref(j) for j in idx[::-1]]
    assert [x.shift(-5).symbol(j) for j in range(-70, 70)] == [
        ref(j - 5) for j in range(-70, 70)
    ]


@pytest.mark.parametrize("seed,stream", [(0, 0), (7, 3), (-12, 2 ** 40)])
def test_sample_sequence_markov_matches_per_index_draws(seed, stream):
    space = sl.ShiftSpace(2, transitions=((True, True), (True, False)))
    m = sl.BaseMeasure("markov", P=((0.6, 0.4), (1.0, 0.0)))
    x = sl.sample_sequence(space, m, seed, stream)
    ref = _markov_reference(m, seed, stream)
    idx = _query_indices(3000)
    got = [x.symbol(j) for j in idx]
    assert got == [ref(j) for j in idx]
    assert 0 < sum(got) < len(got) // 2
    # a fresh tape queried from the far ends inward agrees
    y = sl.sample_sequence(space, m, seed, stream)
    assert [y.symbol(j) for j in (-3000, 3000, 0)] == [ref(-3000), ref(3000), ref(0)]


_GOLDEN = sl.ShiftSpace(2, transitions=((True, True), (True, False)))
_GOLDEN_MARKOV = sl.BaseMeasure("markov", P=((0.6, 0.4), (1.0, 0.0)))


@pytest.mark.parametrize("order", ["forward", "backward", "shuffled", "outside-in"])
def test_markov_tape_past_its_block_cap_matches_per_index_draws(order):
    """A tape keeps 64 blocks of 64 symbols; it walks dropped ones again."""
    reach = 100 * 64 + 5
    idx = list(range(-reach, reach + 1))
    if order == "backward":
        idx.reverse()
    elif order == "shuffled":
        random.Random(reach).shuffle(idx)
    elif order == "outside-in":
        idx.sort(key=lambda j: (-abs(j), j))
    ref = _markov_reference(_GOLDEN_MARKOV, 7, 3)
    ref(reach), ref(-reach)
    x = sl.sample_sequence(_GOLDEN, _GOLDEN_MARKOV, 7, 3)
    assert [x.symbol(j) for j in idx] == [ref(j) for j in idx]
    # again, after the tape dropped the blocks read first, and as windows
    assert [x.symbol(j) for j in idx[::-1]] == [ref(j) for j in idx[::-1]]
    assert x.symbols(-reach, reach + 1).tolist() == [ref(j) for j in range(-reach, reach + 1)]
    assert x.symbols(-reach, -reach + 3).tolist() == [ref(j) for j in range(-reach, -reach + 3)]


def test_markov_tape_memory_stays_bounded():
    x = sl.sample_sequence(_GOLDEN, _GOLDEN_MARKOV, 7, 3)
    tracemalloc.start()
    try:
        for j in range(0, 200_000, 1000):
            list(map(x.symbol, range(j, j + 1000)))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a tape keeping every symbol held 1.55 MB after 200,000 forward steps
    assert retained < 250_000, retained


def _window_sequences():
    space3 = sl.ShiftSpace(3)
    bern = sl.BaseMeasure("bernoulli", probs=(0.2, 0.5, 0.3))
    golden = sl.ShiftSpace(2, transitions=((True, True), (True, False)))
    markov = sl.BaseMeasure("markov", P=((0.5, 0.5), (1.0, 0.0)))
    x = sl.sample_sequence(space3, bern, 4, 1)
    partner = next(
        y for y in (sl.sample_sequence(space3, bern, 4, k) for k in range(2, 50))
        if y.symbol(0) == x.symbol(0)
    )

    def warmed(blocks):
        """The Bernoulli sequence after a symbol read in each of the blocks, in order."""
        warm = sl.sample_sequence(space3, bern, 4, 1)
        for k in blocks:
            warm.symbol(k * _BLOCK)

        def make():
            x = sl.sample_sequence(space3, bern, 4, 1)
            x._lookup.blocks.update(warm._lookup.blocks)
            return x

        return make

    return {
        "bernoulli": lambda: sl.sample_sequence(space3, bern, 4, 1),
        # blocks -2..1 held
        "bernoulli-warmed": warmed(range(-2, 2)),
        # the read of block 62 drops blocks -2..61, then -1 and 0 come back
        "bernoulli-evicted": warmed([*range(-2, _MAX_BLOCKS - 1), -1, 0]),
        "markov": lambda: sl.sample_sequence(golden, markov, 6, 2),
        "periodic": lambda: sl.periodic_point(space3, (0, 1, 1, 2, 0)),
        "periodic-shifted": lambda: sl.periodic_point(space3, (0, 1, 1, 2, 0)).shift(-7),
        "homoclinic": lambda: sl.homoclinic_point(space3, sl.PeriodicPoint((2,)), 0),
        "homoclinic-shifted": lambda: sl.homoclinic_point(
            space3, sl.PeriodicPoint((1,)), 2, -64
        ).shift(3),
        "bracket": lambda: sl.bracket(x, partner),
        "bernoulli-shifted": lambda: sl.sample_sequence(space3, bern, 4, 1).shift(-70),
        "markov-shifted": lambda: sl.sample_sequence(golden, markov, 6, 2).shift(37),
    }


@pytest.mark.parametrize("name", list(_window_sequences()))
def test_symbols_window_matches_symbol_lookups(name):
    make = _window_sequences()[name]
    windows = [
        (-130, -60), (-64, 64), (-1, 1), (63, 129), (0, 0), (5, 3), (-200, 200),
        (127, 128), (-65, -63), (-128, -64), (4000, 4100), (3970, 4000), (3970, 4100),
        (1, 2), (-67, -66), (2, 1), (-3, 17),
    ]
    reused = make()
    if name == "bernoulli-evicted":
        assert set(reused._lookup.blocks) == {_MAX_BLOCKS - 2, -1, 0}
    for a, b in windows:
        want = [make().symbol(j) for j in range(a, b)]
        for x in (make(), reused):
            tape = x._lookup
            held = set(tape.blocks) if isinstance(tape, _BernoulliTape) else None
            got = x.symbols(a, b)
            assert got.dtype.kind == "i" and got.tolist() == want, (a, b)
            if held is not None:  # a Bernoulli window caches nothing
                assert set(tape.blocks) == held, (a, b)


def test_bernoulli_window_slices_held_blocks_without_drawing(monkeypatch):
    x = _window_sequences()["bernoulli-warmed"]()
    want = [x.symbol(j) for j in range(-128, 128)]
    monkeypatch.setattr(sl.base_shift, "counter_uniforms", None)  # any draw raises
    assert x.symbols(-128, 128).tolist() == want
    assert x.symbols(-70, 3).tolist() == want[58:131]


def test_periodic_and_homoclinic_windows_read_no_single_symbol(monkeypatch):
    space = sl.ShiftSpace(3)
    xs = [
        sl.periodic_point(space, (0, 1, 1, 2, 0)),
        sl.homoclinic_point(space, sl.PeriodicPoint((2,)), 0, -3),
    ]
    want = [[x.symbol(j) for j in range(-20, 20)] for x in xs]
    for lookup in (sl.base_shift._Periodic, sl.base_shift._Homoclinic):
        monkeypatch.setattr(lookup, "__call__", None)  # any one-index read raises
    assert [x.symbols(-20, 20).tolist() for x in xs] == want


def test_bernoulli_symbols_stay_in_range_when_weights_sum_below_one():
    """np.cumsum((0.7, 0.2, 0.1)) ends at 0.9999999999999999."""
    measure = sl.BaseMeasure("bernoulli", probs=(0.7, 0.2, 0.1))
    assert np.cumsum(measure.probs)[-1] < 1.0
    j = 8761941433968539397  # hashes to 2**64 - 1 under (5, 0): the largest draw
    x = sl.sample_sequence(sl.ShiftSpace(3), measure, 5, 0)
    assert x.symbol(j) == 2
    assert x.symbols(j - 2, j + 2).tolist() == [x.symbol(i) for i in range(j - 2, j + 2)]


_ROW_A, _ROW_B = (0.7, 0.2, 0.0, 0.1), (0.7, 0.2, 0.1, 0.0)


@pytest.mark.parametrize(
    "P, index",
    [
        # forward: each row's sum ends below 1, on its last entry or before a zero
        ((_ROW_A, _ROW_B, _ROW_B, _ROW_B), 1),
        # backward: symmetric and doubly stochastic, so the time reversal is P
        (((0.7, 0.2, 0.1), (0.2, 0.1, 0.7), (0.1, 0.7, 0.2)), -1),
    ],
)
def test_markov_rows_ending_below_one_yield_admissible_symbols(P, index):
    """The largest draw must pick an admissible successor of every row."""
    d = len(P)
    space = sl.ShiftSpace(d, transitions=tuple(tuple(p > 0 for p in row) for row in P))
    measure = sl.BaseMeasure("markov", P=P)
    for seed in range(8):
        stream = stream_with_hash(seed, index, 2 ** 64 - 1)
        assert sl.counter_uniform(seed, stream, index) == math.nextafter(1.0, 0.0)
        x = sl.sample_sequence(space, measure, seed, stream)
        word = [x.symbol(j) for j in range(-3, 4)]
        assert all(0 <= s < d for s in word), word
        space.check_word(word)
        assert x.symbols(-3, 4).tolist() == word


def test_measure_validation():
    with pytest.raises(ConfigurationError):
        sl.BaseMeasure("bernoulli", probs=(0.5, 0.6))
    with pytest.raises(ConfigurationError):
        sl.BaseMeasure("bernoulli", probs=(1.0, 0.0))
    with pytest.raises(ConfigurationError):
        sl.BaseMeasure("markov", P=((0.5, 0.6), (0.5, 0.5)))
    with pytest.raises(ConfigurationError):
        sl.BaseMeasure("gibbs")
    sft = sl.ShiftSpace(2, transitions=((True, True), (True, False)))
    with pytest.raises(ConfigurationError):
        bernoulli2().validate_support(sft)  # bernoulli needs the full shift
    with pytest.raises(ConfigurationError):
        sl.BaseMeasure("markov", P=((0.9, 0.1), (0.5, 0.5))).validate_support(sft)
    # nan passed every weight and row check: a bernoulli measure sampled
    # with it, and a markov one failed in numpy's eigensolver
    nan = float("nan")
    with pytest.raises(ConfigurationError, match="probs"):
        sl.BaseMeasure("bernoulli", probs=(nan, 0.5))
    with pytest.raises(ConfigurationError, match="P must"):
        sl.BaseMeasure("markov", P=((nan, 0.5), (1.0, 0.0)))
    with pytest.raises(ConfigurationError, match="rows of P"):
        sl.BaseMeasure("markov", P=((0.5, float("inf")), (1.0, 0.0)))
    with pytest.raises(ConfigurationError, match="pi"):
        sl.BaseMeasure("markov", P=((0.5, 0.5), (0.5, 0.5)), pi=(nan, nan))


def test_markov_stationary_vector_computed():
    m = sl.BaseMeasure("markov", P=((0.9, 0.1), (0.3, 0.7)))
    pi = m.pi
    assert abs(pi[0] - 0.75) < 1e-9 and abs(pi[1] - 0.25) < 1e-9


def test_cylinder_measure_examples():
    assert sl.cylinder_measure(bernoulli2(), (0, 1)) == 0.25
    m = sl.BaseMeasure("markov", P=((0.9, 0.1), (0.1, 0.9)), pi=(0.5, 0.5))
    assert abs(sl.cylinder_measure(m, (0, 0)) - 0.45) < 1e-15
    assert sl.cylinder_measure(bernoulli2(), ()) == 1.0


@given(
    st.lists(st.integers(0, 1), min_size=0, max_size=6),
    st.lists(st.integers(0, 1), min_size=0, max_size=6),
)
def test_cylinder_measure_bernoulli_multiplicative(u, v):
    m = sl.BaseMeasure("bernoulli", probs=(0.3, 0.7))
    lhs = sl.cylinder_measure(m, tuple(u) + tuple(v))
    rhs = sl.cylinder_measure(m, tuple(u)) * sl.cylinder_measure(m, tuple(v))
    assert abs(lhs - rhs) < 1e-12
