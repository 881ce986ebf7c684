"""Exponent estimation, Oseledets frames, and the transfer-operator oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import skewlab as sl
import skewlab.fiber_maps as fm
import skewlab.lyapunov as lyapunov
import skewlab.skew as skew
from skewlab.errors import ConfigurationError, SkewlabError
from skewlab.lyapunov import (
    DELTA_PINCH,
    GENERIC_DIRECTION,
    OseledetsFrame,
    oseledets_frames,
    projective_gap,
    return_map_exponent_grid,
)
from skewlab.skew import accumulate_cocycle, unplanned

from _common import (
    BATCH_IDS,
    BATCH_SYSTEMS,
    LOG_CAT,
    SHEAR_LO,
    SHEAR_UP,
    Stretch,
    bernoulli2,
    cat_map,
    cycle_expansion_exponent,
    cat_system,
    golden_mean_base,
    holder_system,
    identity_map,
    lc_system,
    rotation_system,
    same_bits,
    scalar_exponent_grid,
    scalar_integrated_exponent,
    twisted_cat_system,
)


def test_pointwise_exponent_cat():
    system = cat_system()
    x = sl.periodic_point(system.space, (0,))
    val = sl.iterate_cocycle(system, x, (0.3, 0.7), 10000).log_norm / 10000
    assert abs(val - LOG_CAT) < 1e-3


def test_pointwise_exponent_rotation_zero():
    system = rotation_system()
    x = sl.periodic_point(system.space, (0,))
    assert abs(sl.iterate_cocycle(system, x, (0.3, 0.7), 1000).log_norm / 1000) < 1e-6


def test_pointwise_exponent_shear():
    shear = fm.ToralAutomorphism(SHEAR_UP)
    system = lc_system(shear, shear)
    x = sl.periodic_point(system.space, (0,))
    n = 10000
    assert 0.0 < sl.iterate_cocycle(system, x, (0.3, 0.7), n).log_norm / n <= math.log(n + 1) / n


BIG = (70000, 1, 69999, 1)  # det 1; 16 steps take the product past 1e77, its t * t past 1e308


def _exact_log_norm(m, n):
    """log ||M^n|| from Python integers: det M^n = 1, so ||M^n||^2 = (t + sqrt(t^2 - 4)) / 2."""
    a, b, c, d = m
    p, q, r, s = 1, 0, 0, 1
    for _ in range(n):
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    t = p * p + q * q + r * r + s * s
    return (math.log(t + math.isqrt(t * t - 4)) - math.log(2)) / 2


def test_exponent_of_a_large_matrix_matches_its_exact_norm():
    """The table walk and the return-map grid renormalize a product whose squared norm overflowed.

    Each step rounds the product's entries by 2**-53 relative, so after
    100 steps the log norm is off by about 1e-14 of its 1,116.
    """
    big = fm.ToralAutomorphism(BIG)
    system = lc_system(big, big)
    for n_steps in (16, 100):
        exact = _exact_log_norm(BIG, n_steps) / n_steps
        assert math.isclose(sl.integrated_exponent(system, 2, n_steps).mean, exact, rel_tol=1e-13)
    grid = return_map_exponent_grid(system, sl.PeriodicPoint((0,)), 2, 100)
    assert np.allclose(grid, _exact_log_norm(BIG, 100) / 100, rtol=1e-13, atol=0.0)
    twist = fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5)
    twisted = sl.integrated_exponent(lc_system(big, fm.Composite([big, twist])), 2, 100)
    assert math.isfinite(twisted.mean)


def test_twisted_grid_of_a_huge_matrix_matches_the_point_walk():
    """Entries of 2**32 square past the float range within one renormalization."""
    big = fm.ToralAutomorphism((2 ** 32, 1, 2 ** 32 - 1, 1))
    twist = fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5)
    system = lc_system(big, fm.Composite([big, twist]))
    p = sl.PeriodicPoint((1,))
    grid = return_map_exponent_grid(system, p, 4, 64)
    assert same_bits(grid, scalar_exponent_grid(system, p, 4, 64))


def test_monotone_stabilization():
    system = cat_system()
    x = sl.periodic_point(system.space, (0,))
    t = (0.3, 0.7)
    gap = abs(
        sl.iterate_cocycle(system, x, t, 10000).log_norm / 10000
        - sl.iterate_cocycle(system, x, t, 20000).log_norm / 20000
    )
    assert gap < 1e-3


def test_integrated_exponent_identity_is_exact_zero():
    system = lc_system(identity_map(), identity_map())
    est = sl.integrated_exponent(system, 20, 100, seed=1)
    assert est.mean == 0.0
    assert est.stderr == 0.0
    assert est.det_defect_max == 0.0
    assert est.det_defect_max < 1e-6


def test_integrated_exponent_seed_determinism():
    # shear generators: finite-n estimates genuinely depend on the orbits
    system = lc_system(fm.ToralAutomorphism(SHEAR_UP), fm.ToralAutomorphism(SHEAR_LO))
    a = sl.integrated_exponent(system, 20, 200, seed=5)
    b = sl.integrated_exponent(system, 20, 200, seed=5)
    c = sl.integrated_exponent(system, 20, 200, seed=6)
    assert a == b
    assert a.mean != c.mean


def test_integrated_exponent_worker_independence():
    # orbits run one after another; a rerun must reproduce every bit
    system = cat_system()
    a = sl.integrated_exponent(system, 16, 200, seed=9)
    b = sl.integrated_exponent(system, 16, 200, seed=9)
    assert a == b


def _shears():
    return fm.ToralAutomorphism(SHEAR_UP), fm.ToralAutomorphism(SHEAR_LO)


def _golden_mean_shears():
    up, lo = _shears()
    return sl.SkewSystem(*golden_mean_base(), sl.LocallyConstantFamily(1, {0: up, 1: lo}))


def _depth2_system(space, measure):
    """Depth-2 table of composites of the shears and the cat map."""
    up, lo = _shears()
    maps = [
        fm.Composite([up, lo]),
        fm.Composite([cat_map(), up]),
        lo,
        fm.Composite([lo, cat_map(), up]),
    ]
    words = sl.admissible_words(space, 2)
    table = {w: maps[i % len(maps)] for i, w in enumerate(words)}
    return sl.SkewSystem(space, measure, sl.LocallyConstantFamily(2, table))


EXPONENT_SYSTEMS = {  # name -> (system, walks fiber points)
    "shear": (lambda: lc_system(*_shears()), False),
    "golden-mean": (_golden_mean_shears, False),
    "depth2-bernoulli": (lambda: _depth2_system(sl.ShiftSpace(2), bernoulli2()), False),
    "depth2-golden-mean": (lambda: _depth2_system(*golden_mean_base()), False),
    "identity": (lambda: lc_system(identity_map(), identity_map()), False),
    "stretch": (lambda: lc_system(cat_map(), Stretch()), False),  # det defect 1
    "twisted-cat": (twisted_cat_system, True),
    "holder": (holder_system, True),
}


@pytest.mark.parametrize("n_steps", [1, 17, 4100])  # 4100 crosses a 4096-step chunk
@pytest.mark.parametrize("name", list(EXPONENT_SYSTEMS))
def test_integrated_exponent_matches_point_walk(name, n_steps, monkeypatch):
    # constant derivatives multiply the table's matrices and walk no fiber
    # point; a derivative that depends on the point walks one per orbit,
    # one step per key: through accumulate_cocycle for a table, and through
    # standard_map_cocycle for a Holder family
    make_system, walks = EXPONENT_SYSTEMS[name]
    system = make_system()
    calls = []

    def counted(steps, t):
        steps = list(steps)
        calls.append(len(steps))
        return accumulate_cocycle(steps, t)

    def counted_rows(rows, t):
        rows = list(rows)
        calls.append(sum(map(len, rows)))
        return skew.standard_map_cocycle(rows, t)

    monkeypatch.setattr(lyapunov, "accumulate_cocycle", counted)
    monkeypatch.setattr(lyapunov, "standard_map_cocycle", counted_rows)
    est = sl.integrated_exponent(system, 3, n_steps, seed=4)
    assert calls == ([n_steps] * 3 if walks else [])
    assert est == scalar_integrated_exponent(system, 3, n_steps, 4)


def test_holder_exponent_whose_product_overflows_raises_naming_the_orbit():
    # sixteen steps with ||Df|| near |K| = 1e25 overflow the running product
    # before it is renormalized: the estimate was nan
    with pytest.raises(SkewlabError, match="orbit 0: .* not finite") as exc:
        sl.integrated_exponent(holder_system(K0=1e25), 4, 100, seed=3)
    assert not isinstance(exc.value, ConfigurationError)


@pytest.mark.parametrize(
    "n_orbits, n_steps, cells, chunk",
    [
        (5, 7, 20, 4096),  # groups of 2 orbits, one chunk each; a last group of 1
        (7, 7, 20, 3),  # groups of 2 orbits, three chunks each; a last group of 1
        (3, 25, 20, 4096),  # an orbit longer than the budget streams 2 chunks
        (2, 25, 20, 3),  # and 9 chunks
    ],
)
@pytest.mark.parametrize("name", list(EXPONENT_SYSTEMS))
def test_integrated_exponent_groups_and_chunks_match_point_walk(
    name, n_orbits, n_steps, cells, chunk, monkeypatch
):
    system = EXPONENT_SYSTEMS[name][0]()
    want = scalar_integrated_exponent(system, n_orbits, n_steps, 4)
    monkeypatch.setattr(skew, "_MAX_BATCH_CELLS", cells)
    monkeypatch.setattr(skew, "_MAX_CHUNK", chunk)
    reads = []
    orbit_keys = skew.orbit_keys

    def counted(sys, xs, n):
        reads.append(len(xs))
        return orbit_keys(sys, xs, n)

    monkeypatch.setattr(skew, "orbit_keys", counted)
    assert sl.integrated_exponent(system, n_orbits, n_steps, seed=4) == want
    group = max(1, cells // n_steps)
    assert reads == [min(group, n_orbits - k) for k in range(0, n_orbits, group)]


@pytest.mark.parametrize("chunk", [1, 64, 100])
@pytest.mark.parametrize("name", ["golden-mean", "depth2-golden-mean"])
def test_golden_mean_exponent_steps_its_rows_together(name, chunk, monkeypatch):
    """Each chunk resumes the Markov rows from the checkpoints the last one left."""
    system = EXPONENT_SYSTEMS[name][0]()
    want = scalar_integrated_exponent(system, 6, 300, 4)
    monkeypatch.setattr(skew, "_MAX_CHUNK", chunk)
    monkeypatch.setattr(sl.base_shift._MarkovTape, "_steps", None)  # no row walks alone
    assert sl.integrated_exponent(system, 6, 300, seed=4) == want


@pytest.mark.parametrize("make_system", [holder_system, twisted_cat_system])
def test_integrated_exponent_memory_does_not_grow_with_n_orbits(make_system, monkeypatch):
    """Orbits' keys are read a group at a time, and become Python objects a row at a time."""
    monkeypatch.setattr(skew, "_MAX_BATCH_CELLS", 2000)  # groups of 4 orbits
    system = make_system()
    peaks = []
    for n_orbits in (4, 64):  # all 64 orbits' 500 keys as floats would peak near 16x
        tracemalloc.start()
        try:
            sl.integrated_exponent(system, n_orbits, 500, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0], peaks


def _shear_product(word):
    maps = [fm.ToralAutomorphism((SHEAR_UP, SHEAR_LO)[s]) for s in word]
    return maps[0] if len(maps) == 1 else fm.Composite(maps)


@st.composite
def _shear_tables(draw):
    """A locally constant system of shear products, depth 1-2 over 2-3 symbols."""
    d = draw(st.integers(2, 3))
    depth = draw(st.integers(1, 2))
    space, measure = (
        golden_mean_base(d)
        if draw(st.booleans())
        else (sl.ShiftSpace(d), sl.BaseMeasure("bernoulli", probs=[1.0 / d] * d))
    )
    products = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(_shear_product)
    table = {w: draw(products) for w in sl.admissible_words(space, depth)}
    return sl.SkewSystem(space, measure, sl.LocallyConstantFamily(depth, table))


@seed(16)
@settings(max_examples=100, deadline=None)
@given(_shear_tables(), st.integers(1, 4), st.integers(1, 70), st.integers(0, 2 ** 32))
def test_table_product_matches_point_walk_on_random_shear_tables(system, n_orbits, n_steps, s):
    assert system.family.derivatives is not None
    assert sl.integrated_exponent(system, n_orbits, n_steps, s) == scalar_integrated_exponent(
        system, n_orbits, n_steps, s
    )


def test_forward_backward_symmetry():
    system = cat_system()
    x = sl.sample_sequence(system.space, system.measure, 13, 0)
    t = (0.42, 0.17)
    fwd = sl.iterate_cocycle(system, x, t, 1000).log_norm / 1000
    bwd = -sl.iterate_cocycle(system, x, t, -1000).log_norm / 1000
    assert abs(fwd + bwd) < 1e-2


def test_pinching_integral_cat():
    system = cat_system()
    p = sl.PeriodicPoint((0,))
    val = sl.check_pinching(system, p, grid=8, n_steps=300).integral
    assert abs(val - LOG_CAT) < 1e-2


def test_pinching_integral_identity_and_rotation():
    p = sl.PeriodicPoint((0,))
    ident = lc_system(identity_map(), identity_map())
    assert sl.check_pinching(ident, p, grid=4, n_steps=50).integral == 0.0
    rot = rotation_system()
    assert abs(sl.check_pinching(rot, p, grid=4, n_steps=50).integral) < 1e-2


def test_return_map_composes_over_the_period():
    system = lc_system(fm.StandardMap(0.6), fm.StandardMap(1.1))
    p = sl.PeriodicPoint((0, 1))
    g = sl.return_map(system, p)
    t = (0.3, 0.7)
    step1 = fm.StandardMap(0.6).apply(t)[0]  # symbol at index 0
    step2 = fm.StandardMap(1.1).apply(step1)[0]  # symbol at index 1
    assert fm.torus_distance(g.apply(t)[0], step2) < 1e-14


def test_oseledets_frame_cat_eigendirections():
    system = cat_system()
    p = sl.PeriodicPoint((0,))
    e_u_true = math.atan2((math.sqrt(5.0) - 1.0) / 2.0, 1.0)
    e_s_true = (math.atan2(-(1.0 + math.sqrt(5.0)) / 2.0, 1.0)) % math.pi
    frames = [
        sl.oseledets_frame(system, p, t, depth=60)
        for t in ((0.3, 0.7), (0.91, 0.12))
    ]
    for frame in frames:
        assert frame.converged
        assert projective_gap(frame.e_u, e_u_true) < 1e-6
        assert projective_gap(frame.e_s, e_s_true) < 1e-6
        assert abs(frame.gap - LOG_CAT) < 1e-6
    # constant cocycle: frame independent of the fiber point
    assert projective_gap(frames[0].e_u, frames[1].e_u) < 1e-6


def test_oseledets_frame_zero_gap_not_converged():
    frame = sl.oseledets_frame(rotation_system(), sl.PeriodicPoint((0,)), (0.3, 0.7), depth=20)
    assert not frame.converged
    assert frame.gap < 0.05


def test_frame_equivariance_under_one_step():
    system = cat_system()
    p = sl.PeriodicPoint((0,))
    t = (0.37, 0.58)
    g = sl.return_map(system, p)
    frame = sl.oseledets_frame(system, p, t, depth=60)
    img, d = g.apply(t)
    pushed = fm.mat_vec(d, (math.cos(frame.e_u), math.sin(frame.e_u)))
    frame2 = sl.oseledets_frame(system, p, img, depth=60)
    assert projective_gap(math.atan2(pushed[1], pushed[0]) % math.pi, frame2.e_u) < 1e-4


def _limit_direction(g, t, depth):
    """Direction of Dg^depth(g^{-depth}(t)) applied to a generic vector."""
    g_inv = g.inverse()
    back = [t]
    for _ in range(depth):
        back.append(g_inv.apply(back[-1])[0])
    v = GENERIC_DIRECTION
    for k in range(depth, 0, -1):
        _, d = g.apply(back[k])
        v = fm.mat_vec(d, v)
        n = math.hypot(*v)
        v = (v[0] / n, v[1] / n)
    return math.atan2(v[1], v[0]) % math.pi


def _gap(a, b):
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def _scalar_frame(sys, p, t, depth, delta_pinch=DELTA_PINCH, gap_steps=400):
    """One point with the scalar cocycle, each depth walked on its own."""
    g = sl.return_map(sys, p)
    gap = accumulate_cocycle(unplanned(itertools.repeat(g, gap_steps)), t)[1] / gap_steps
    if gap < delta_pinch:
        return OseledetsFrame(0.0, 0.0, gap, False, depth)
    g_inv = g.inverse()
    e_u_1 = _limit_direction(g, t, depth)
    e_u_2 = _limit_direction(g, t, 2 * depth)
    e_s_1 = _limit_direction(g_inv, t, depth)
    e_s_2 = _limit_direction(g_inv, t, 2 * depth)
    converged = (
        _gap(e_u_1, e_u_2) < 1e-4 and _gap(e_s_1, e_s_2) < 1e-4 and _gap(e_u_2, e_s_2) > 1e-6
    )
    return OseledetsFrame(e_u_2, e_s_2, gap, converged, 2 * depth)


@pytest.mark.parametrize("make_system", BATCH_SYSTEMS, ids=BATCH_IDS)
def test_oseledets_frames_match_scalar_reference(make_system):
    system = make_system()
    u, v = fm.sample_points(3, 4, 7, 0)
    points = list(zip(u.tolist(), v.tolist()))
    for p in (sl.PeriodicPoint((0,)), sl.PeriodicPoint((0, 1))):  # a map, a composite
        got = oseledets_frames(system, p, u, v, depth=30, gap_steps=60)
        want = [_scalar_frame(system, p, t, 30, gap_steps=60) for t in points]
        assert len(got) == len(points)
        for g, w in zip(got, want):
            assert (g.gap, g.e_u, g.e_s, g.converged, g.depth_used) == (
                w.gap, w.e_u, w.e_s, w.converged, w.depth_used
            )
            assert [type(c) for c in (g.gap, g.e_u, g.e_s)] == [float] * 3
            assert type(g.converged) is bool
        if make_system is rotation_system:
            assert all(f.gap < DELTA_PINCH for f in got)
        one = sl.oseledets_frame(system, p, points[-1], depth=30, gap_steps=60)
        assert one == want[-1]


@pytest.mark.parametrize("word", [(0,), (0, 1)])  # a toral map, a composite of two
def test_toral_return_map_gives_one_value_per_point(word):
    system = cat_system()
    p = sl.PeriodicPoint(word)
    u, v = fm.sample_points(3, 4, 7, 0)
    assert [type(e) for e in sl.return_map(system, p).apply_many(u, v)[2]] == [float] * 4
    frames = oseledets_frames(system, p, u, v, depth=30, gap_steps=60)
    assert len(frames) == len(u) and all(f.converged for f in frames)
    assert [type(c) for c in (frames[0].gap, frames[0].e_u, frames[0].e_s)] == [float] * 3
    assert len({(f.e_u, f.e_s, f.gap) for f in frames}) == 1  # the cocycle is constant
    grid = return_map_exponent_grid(system, p, 3, 50)
    assert grid.shape == (3, 3) and grid.flags.writeable


class _CountingMap(fm.FiberMap):
    """A fiber map that logs each ``apply_many`` call; its inverse logs to the same list."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls

    def apply(self, t):
        return self.inner.apply(t)

    def apply_many(self, u, v):
        self.calls.append(len(u))
        return self.inner.apply_many(u, v)

    def inverse(self):
        return _CountingMap(self.inner.inverse(), self.calls)


@pytest.mark.parametrize(
    "make_system, word, walks",
    [
        (cat_system, (0, 1), False),  # a composite of toral maps
        (twisted_cat_system, (0,), False),  # the twist is off the orbit: the cat map
        (twisted_cat_system, (0, 1), True),  # the twist is on the orbit
    ],
    ids=["cat-composite", "twisted-cat-off-orbit", "twisted-cat-on-orbit"],
)
def test_constant_return_map_stops_walking_points(make_system, word, walks, monkeypatch):
    system = make_system()
    p = sl.PeriodicPoint(word)
    calls = []
    monkeypatch.setattr(
        lyapunov, "return_map", lambda s, q: _CountingMap(sl.return_map(s, q), calls)
    )
    u, v = fm.sample_points(3, 4, 7, 0)
    points = list(zip(u.tolist(), v.tolist()))
    pinching_calls, frame_calls = [], []
    for n_steps, depth in ((40, 20), (80, 40)):
        calls.clear()
        report = sl.check_pinching(system, p, grid=4, n_steps=n_steps)
        pinching_calls.append(len(calls))
        values = scalar_exponent_grid(system, p, 4, n_steps)
        assert report.integral == float(values.mean())
        assert report.nuh_fraction == float((values > DELTA_PINCH).mean())
        calls.clear()
        frames = oseledets_frames(system, p, u, v, depth=depth, gap_steps=n_steps)
        frame_calls.append(len(calls))
        assert frames == [_scalar_frame(system, p, t, depth, gap_steps=n_steps) for t in points]
        one = sl.oseledets_frame(system, p, points[0], depth=depth, gap_steps=n_steps)
        assert one == frames[0]
    assert (pinching_calls[1] > pinching_calls[0]) is walks
    assert (frame_calls[1] > frame_calls[0]) is walks
    if not walks:  # one call for the gap and two for each of e_u and e_s
        assert frame_calls[0] == 5 * pinching_calls[0]


NAN = float("nan")


@pytest.mark.parametrize(
    "bad", [dict(depth=0), dict(gap_steps=0), dict(delta_pinch=NAN), dict(delta_pinch=-1.0)]
)
def test_oseledets_frames_reject_bad_values(bad):
    (name,) = bad
    system = twisted_cat_system()
    u, v = fm.grid_points(2)
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        oseledets_frames(system, sl.PeriodicPoint((0,)), u, v, **bad)
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        sl.oseledets_frame(system, sl.PeriodicPoint((0,)), (0.3, 0.7), **bad)


@pytest.mark.parametrize("bad", [dict(grid=0), dict(n_steps=0), dict(n_steps=-2)])
def test_exponent_grid_rejects_bad_counts(bad):
    (name,) = bad
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        return_map_exponent_grid(twisted_cat_system(), sl.PeriodicPoint((0,)), **bad)


@pytest.mark.parametrize("bad", [dict(n_orbits=0), dict(n_steps=0)])
def test_integrated_exponent_names_the_bad_count(bad):
    (name,) = bad
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        sl.integrated_exponent(cat_system(), **bad)


def test_furstenberg_oracle_properties():
    mats = [SHEAR_UP, SHEAR_LO]
    val = sl.furstenberg_exponent_transfer_operator(mats, (0.5, 0.5), n_bins=2000, n_iter=500)
    ref = sl.furstenberg_exponent_transfer_operator(mats, (0.5, 0.5), n_bins=4000, n_iter=500)
    assert val > 0.05
    assert abs(val - ref) < 2e-3  # discretization-stable
    with pytest.raises(ConfigurationError):
        sl.furstenberg_exponent_transfer_operator(mats, (0.6, 0.6))


POSITIVE_PAIR = [(2, 1, 1, 1), (1, 1, 1, 2)]  # both map the positive cone strictly inside


def _positive_pair_exponent(max_length=10):
    return cycle_expansion_exponent(POSITIVE_PAIR, sl.ShiftSpace(2), bernoulli2(), max_length)


def test_cycle_expansion_converges_super_exponentially():
    # words up to length 1 give log of the cat eigenvalue; up to 3, 0.91547900
    assert _positive_pair_exponent(1) == pytest.approx(LOG_CAT, abs=1e-15)
    values = [_positive_pair_exponent(n) for n in (6, 8, 10)]
    assert max(values) - min(values) <= 1e-14, values


@pytest.mark.parametrize("n_bins, bound", [(1000, 2e-5), (10000, 3e-6)])
def test_transfer_operator_matches_the_cycle_expansion(n_bins, bound):
    # measured gaps 1.15e-5 and 1.67e-6: each bound is about 1.8 times its gap
    val = sl.furstenberg_exponent_transfer_operator(POSITIVE_PAIR, (0.5, 0.5), n_bins=n_bins)
    assert abs(val - _positive_pair_exponent()) < bound


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_integrated_exponent_matches_the_cycle_expansion(seed):
    # the table product's Monte Carlo mean; z-scores measured 0.64, -1.28, 0.48
    system = lc_system(*(fm.ToralAutomorphism(m) for m in POSITIVE_PAIR))
    est = sl.integrated_exponent(system, n_orbits=200, n_steps=2000, seed=seed)
    assert abs(est.mean - _positive_pair_exponent()) <= 4.0 * est.stderr
