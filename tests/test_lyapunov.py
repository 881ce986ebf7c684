"""Exponent estimation, Oseledets frames, and the transfer-operator oracle."""

import itertools
import math

import pytest

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.errors import ConfigurationError
from skewlab.lyapunov import (
    DELTA_PINCH,
    GENERIC_DIRECTION,
    OseledetsFrame,
    oseledets_frames,
    projective_gap,
    return_map_exponent_grid,
)
from skewlab.skew import accumulate_cocycle

from _common import (
    BATCH_IDS,
    BATCH_SYSTEMS,
    LOG_CAT,
    SHEAR_LO,
    SHEAR_UP,
    cat_system,
    identity_map,
    lc_system,
    rotation_system,
)


def test_pointwise_exponent_cat():
    system = cat_system()
    x = sl.periodic_point(system.space, (0,))
    val = sl.pointwise_exponent(system, x, (0.3, 0.7), 10000)
    assert abs(val - LOG_CAT) < 1e-3


def test_pointwise_exponent_rotation_zero():
    system = rotation_system()
    x = sl.periodic_point(system.space, (0,))
    assert abs(sl.pointwise_exponent(system, x, (0.3, 0.7), 1000)) < 1e-6


def test_pointwise_exponent_shear():
    shear = fm.ToralAutomorphism(SHEAR_UP)
    system = lc_system(shear, shear)
    x = sl.periodic_point(system.space, (0,))
    n = 10000
    assert 0.0 < sl.pointwise_exponent(system, x, (0.3, 0.7), n) <= math.log(n + 1) / n


def test_pointwise_exponent_rejects_zero_steps():
    system = cat_system()
    x = sl.periodic_point(system.space, (0,))
    with pytest.raises(ConfigurationError):
        sl.pointwise_exponent(system, x, (0.3, 0.7), 0)


def test_monotone_stabilization():
    system = cat_system()
    x = sl.periodic_point(system.space, (0,))
    t = (0.3, 0.7)
    gap = abs(
        sl.pointwise_exponent(system, x, t, 10000)
        - sl.pointwise_exponent(system, x, t, 20000)
    )
    assert gap < 1e-3


def test_integrated_exponent_identity_is_exact_zero():
    system = lc_system(identity_map(), identity_map())
    est = sl.integrated_exponent(system, 20, 100, seed=1)
    assert est.mean == 0.0
    assert est.stderr == 0.0
    assert est.det_defect_max == 0.0
    assert est.reliable


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


def test_forward_backward_symmetry():
    system = cat_system()
    x = sl.sample_sequence(system.space, system.measure, 13, 0)
    t = (0.42, 0.17)
    fwd = sl.pointwise_exponent(system, x, t, 1000)
    bwd = sl.pointwise_exponent(system, x, t, -1000)
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
    gap = accumulate_cocycle(itertools.repeat(g, gap_steps), t)[1] / gap_steps
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


def test_furstenberg_oracle_properties():
    mats = [SHEAR_UP, SHEAR_LO]
    val = sl.furstenberg_exponent_transfer_operator(mats, (0.5, 0.5), n_bins=2000, n_iter=500)
    ref = sl.furstenberg_exponent_transfer_operator(mats, (0.5, 0.5), n_bins=4000, n_iter=500)
    assert val > 0.05
    assert abs(val - ref) < 2e-3  # discretization-stable
    with pytest.raises(ConfigurationError):
        sl.furstenberg_exponent_transfer_operator(mats, (0.6, 0.6))
