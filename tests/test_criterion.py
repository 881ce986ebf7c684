"""Pinching/twisting detectors, holonomy loop, probes, and sweeps."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import skewlab as sl
import skewlab.base_shift as base_shift
import skewlab.criterion as criterion
import skewlab.fiber_maps as fm
import skewlab.holonomy as holonomy
import skewlab.skew as skew
from skewlab.criterion import SweepRow
from skewlab.errors import ConfigurationError, NonConvergenceError, SkewlabError
from skewlab.lyapunov import oseledets_frame, return_map_exponent_grid
from skewlab.rng import derive_seed
from skewlab.skew import orbit_maps

from _common import (
    BATCH_IDS,
    BATCH_SYSTEMS,
    LOG_CAT,
    ScriptedLoop,
    cat_map,
    cat_system,
    golden_mean_system,
    holder_system,
    identity_map,
    lc_system,
    loop_inputs,
    rotation_system,
    scalar_check_twisting,
    scalar_exponent_grid,
    scalar_loop_apply,
    twisted_cat_system,
)

FAST_TWIST = sl.TwistingParams(n_K=36, j_max=32, frame_depth=60)


def test_projective_distance_calibration():
    assert sl.projective_distance((1.0, 0.0), (0.0, 1.0)) == pytest.approx(math.pi / 2)
    assert sl.projective_distance((0.3, 0.4), (0.3, 0.4)) == 0.0
    assert sl.projective_distance((1.0, 0.0), (1.0, 1.0)) == pytest.approx(math.pi / 4)
    assert sl.projective_distance((1.0, 0.0), (-2.0, 0.0)) == pytest.approx(0.0)
    with pytest.raises(ConfigurationError):
        sl.projective_distance((0.0, 0.0), (1.0, 0.0))


def test_projective_distance_keeps_the_shape_of_its_arrays():
    rng = np.random.default_rng(7)
    u, v = (tuple(rng.normal(size=(4, 6)) for _ in range(2)) for _ in range(2))
    got = sl.projective_distance(u, v)
    flat = sl.projective_distance(*(tuple(c.ravel() for c in w) for w in (u, v)))
    assert got.shape == (4, 6) and got.tobytes() == flat.tobytes()


def test_loop_is_generator_composition_for_random_products():
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    f0 = system.fiber_map_at(sl.periodic_point(system.space, (0,)))
    f1 = system.fiber_map_at(sl.periodic_point(system.space, (1,)))
    # identity holonomies collapse the loop to f_1 o f_0 along the excursion
    for t in ((0.3, 0.7), (0.25, 0.3), (0.9, 0.05)):
        mid, d0 = f0.apply(t)
        img, d1 = f1.apply(mid)
        assert fm.torus_distance(loop.h(t), img) < 1e-9
        assert fm.mat_sub_norm(loop.H_at(t), fm.mat_mul(d1, d0)) < 1e-9


def _reference_loop(system, p, z, i, tol=1e-9):
    """h and H as separate passes: point holonomies, then linear holonomies."""
    p_seq = p.point(system.space)
    q_u = sl.HolonomyQuery("unstable", p_seq, z, tol)
    q_s = sl.HolonomyQuery("stable", z.shift(i), p_seq, tol)
    excursion = [system.fiber_map_at(z.shift(k)) for k in range(i)]

    def ref_h(t):
        t_z, _ = sl.stable_holonomy_point(system, q_u, t)
        for f in excursion:
            t_z = f.apply(t_z)[0]
        return sl.stable_holonomy_point(system, q_s, t_z)[0]

    def ref_H(t):
        m, _ = sl.linear_stable_holonomy(system, q_u, t)
        t_z, _ = sl.stable_holonomy_point(system, q_u, t)
        for f in excursion:
            t_z, d = f.apply(t_z)
            m = fm.mat_mul(d, m)
        hs, _ = sl.linear_stable_holonomy(system, q_s, t_z)
        return fm.mat_mul(hs, m)

    return ref_h, ref_H


@pytest.mark.parametrize("make_system", [twisted_cat_system, holder_system])
def test_loop_apply_matches_separate_point_and_linear_passes(make_system):
    system = make_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    assert isinstance(loop, fm.FiberMap)
    ref_h, ref_H = _reference_loop(system, p, z, i)
    for k in range(60, 80):
        t = fm.random_point(3, 7, k)
        expected = (ref_h(t), ref_H(t))
        assert loop.apply(t) == expected
        assert loop(t) == loop.h(t) == expected[0]
        assert loop.H_at(t) == expected[1]


def _loop_test_points():
    """Random points, and points that the first excursion map sends into a twist disc."""
    pts = [fm.random_point(3, 7, k) for k in range(100)]
    inverse = cat_map().inverse()
    for center in ((0.25, 0.25), (0.3, 0.6)):  # twisted cat, golden mean
        for k in range(12):
            a = 2.0 * math.pi * k / 12
            r = 0.02 + 0.01 * k  # the discs reach 0.2 * 2/3 from their centres
            pts.append(inverse((center[0] + r * math.cos(a), center[1] + r * math.sin(a))))
    return pts


def _apply_many(loop, pts):
    """``loop.apply_many`` at the points, as a list of (h(t), H(t)) pairs."""
    hu, hv, H = loop.apply_many(*(np.array(c) for c in zip(*pts)))
    return list(zip(zip(hu.tolist(), hv.tolist()), zip(*(e.tolist() for e in H))))


@pytest.mark.parametrize("make_system", [twisted_cat_system, golden_mean_system, holder_system])
def test_loop_apply_many_matches_reference_loop(make_system):
    system = make_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    ref_h, ref_H = _reference_loop(system, p, z, i)
    pts = _loop_test_points()
    got = _apply_many(loop, pts)
    assert got == [(ref_h(t), ref_H(t)) for t in pts]
    assert [scalar_loop_apply(loop, t) for t in pts] == got
    if not system.is_locally_constant:
        return
    # the loop leaves the points off the disc where A^2 leaves them, moves the rest
    plain = [cat_map()(cat_map()(t)) for t in pts]
    moved = [fm.torus_distance(h, a) > 1e-9 for (h, _), a in zip(got, plain)]
    assert 0 < sum(moved) < len(pts)


def test_loop_of_constant_maps_returns_arrays():
    # every map of the cat system is toral: the holonomy jets and the
    # excursion multiply floats, and the loop still returns one H per point
    system = cat_system()
    loop = sl.build_holonomy_loop(system, *loop_inputs(system))
    pts = _loop_test_points()
    hu, hv, H = loop.apply_many(*(np.array(c) for c in zip(*pts)))
    assert [e.shape for e in (hu, hv, *H)] == [(len(pts),)] * 6
    assert _apply_many(loop, pts) == [scalar_loop_apply(loop, t) for t in pts]


def test_loop_apply_many_raises_when_one_point_fails():
    system = holder_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    loop = dataclasses.replace(
        loop,
        q_u=dataclasses.replace(loop.q_u, tol=1e-12),
        q_s=dataclasses.replace(loop.q_s, tol=1e-12),
    )
    ref_h, ref_H = _reference_loop(system, p, z, i, tol=1e-12)
    answered, failed = [], []
    for t in (fm.random_point(3, 7, k) for k in range(100)):
        try:
            answered.append((t, (ref_h(t), ref_H(t))))
        except NonConvergenceError:
            failed.append(t)
    assert len(failed) == 1 and len(answered) == 99
    with pytest.raises(NonConvergenceError, match="linear holonomy truncation"):
        _apply_many(loop, failed + [answered[0][0]])
    with pytest.raises(NonConvergenceError):
        loop.apply(failed[0])
    assert _apply_many(loop, [t for t, _ in answered]) == [want for _, want in answered]


def test_loop_step_walks_each_orbit_once(monkeypatch):
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    original = holonomy.orbit_maps
    walks = []

    def counted(*args, **kwargs):
        walks.append(args)
        return original(*args, **kwargs)

    # criterion would see the counter too if it walked orbits inside apply
    for module in (holonomy, criterion):
        monkeypatch.setattr(module, "orbit_maps", counted)
    loop.apply((0.3, 0.7))
    # one unstable and one stable truncation, each walking x and y once
    assert len(walks) == 4
    # later applications replay the kept steps, walking on where they need more
    u, v = fm.grid_points(6)
    for _ in range(3):
        u, v, _ = loop.apply_many(u, v)
    assert len(walks) == 4
    # a replaced loop keeps no steps of its own and walks afresh
    walks.clear()
    other = dataclasses.replace(loop)
    other.apply_many(u, v)
    other.apply_many(u, v)
    assert len(walks) == 4


class _ConstantJacobian(fm.FiberMap):
    """The identity on points with the constant derivative d, posing as the
    inverse of the map with derivative d_inv."""

    def __init__(self, d, d_inv):
        self.d, self.d_inv = d, d_inv

    def apply(self, t):
        return t, self.d

    def apply_many(self, u, v):
        return u, v, self.d

    def inverse(self):
        return _ConstantJacobian(self.d_inv, self.d)


def _posing_shear_loop():
    """A loop of constant maps whose two holonomies have different linear parts.

    The shear (1, 1, 0, 1) poses as the inverse of (1, 0, 1, 1), so at tol 5
    the stable truncation stops at n = 1 on (1, 1, 1, 2) and the unstable
    one on (2, 1, 1, 1), both of det 1, while every point stays put.
    """
    f = _ConstantJacobian((1.0, 1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 1.0))
    system = lc_system(f, f.inverse())
    loop = sl.build_holonomy_loop(system, *loop_inputs(system))
    return dataclasses.replace(
        loop,
        q_u=dataclasses.replace(loop.q_u, tol=5.0),
        q_s=dataclasses.replace(loop.q_s, tol=5.0),
    )


def _loop_of(make_system):
    system = make_system()
    return sl.build_holonomy_loop(system, *loop_inputs(system))


def _fresh_loop_pass(loop, u, v):
    """``loop.apply_many`` from fresh truncations, as lists, with H spread over the points."""
    walk = holonomy.holonomy_walk
    u, v, m = holonomy.stable_holonomy_jets(loop.sys, loop.q_u, u, v, walk(loop.sys, loop.q_u))
    for f in loop.excursion:
        u, v, d = f.apply_many(u, v)
        m = fm.mat_mul(d, m)
    u, v, hs = holonomy.stable_holonomy_jets(loop.sys, loop.q_s, u, v, walk(loop.sys, loop.q_s))
    H = fm.mat_mul(hs, m)
    return [u.tolist(), v.tolist(), [np.broadcast_to(e, u.shape).tolist() for e in H]]


@pytest.mark.parametrize(
    "make_loop",
    [
        lambda: _loop_of(twisted_cat_system),
        lambda: _loop_of(lambda: twisted_cat_system(T=0.0)),
        lambda: _loop_of(golden_mean_system),
        _posing_shear_loop,
    ],
    ids=["twisted-cat", "cat-T0", "golden-mean", "posing-shears"],
)
def test_loop_passes_after_the_first_equal_fresh_truncations(make_loop):
    # every holonomy walk of these loops is toral: the first pass keeps each
    # query's linear part, and later passes walk only the points
    loop = make_loop()
    u, v = fm.grid_points(6)
    for j in range(8):
        want = _fresh_loop_pass(loop, u, v)
        u, v, H = loop.apply_many(u, v)
        assert [u.tolist(), v.tolist(), [e.tolist() for e in H]] == want
        assert [len(linear) for _, linear in loop._kept.values()] == [1, 1]


@pytest.mark.parametrize("make_system", [twisted_cat_system, holder_system])
def test_second_loop_pass_runs_no_linear_truncation_on_a_toral_walk(make_system, monkeypatch):
    loop = _loop_of(make_system)
    calls = []
    for name in ("mat_norm", "mat_norms"):
        real = getattr(fm, name)
        monkeypatch.setattr(fm, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    u, v = fm.grid_points(5)
    u, v, _ = loop.apply_many(u, v)
    first = len(calls)
    calls.clear()
    loop.apply_many(u, v)
    if make_system is holder_system:  # the point-dependent walk keeps its array path
        assert calls and first
    else:  # one linear truncation per query, each stopping at n = 1, then none
        assert first == 2 and calls == []


def test_loop_linear_part_matches_finite_differences():
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    t = (0.28, 0.33)
    h = 1e-6
    cols = []
    for du, dv in ((h, 0.0), (0.0, h)):
        plus = loop.h(((t[0] + du) % 1.0, (t[1] + dv) % 1.0))
        minus = loop.h(((t[0] - du) % 1.0, (t[1] - dv) % 1.0))
        delta = fm.torus_delta(plus, minus)
        cols.append((delta[0] / (2 * h), delta[1] / (2 * h)))
    fd = (cols[0][0], cols[1][0], cols[0][1], cols[1][1])
    assert fm.mat_sub_norm(loop.H_at(t), fd) < 1e-4


def test_degenerate_loop_is_identity():
    system = cat_system()
    p = sl.PeriodicPoint((0,))
    z = p.point(system.space)
    loop = sl.build_holonomy_loop(system, p, z, 0)
    for t in ((0.3, 0.7), (0.11, 0.92)):
        assert fm.torus_distance(loop.h(t), t) < 1e-12
        assert fm.mat_sub_norm(loop.H_at(t), fm.IDENTITY) < 1e-12


def test_loop_rejects_non_homoclinic_input():
    # the error names the nearest index where z (or z.shift(i)) leaves p
    system = cat_system()
    p = sl.PeriodicPoint((0,))
    bad = sl.periodic_point(system.space, (1,))
    with pytest.raises(ConfigurationError, match=r"local unstable set \(index 0\)"):
        sl.build_holonomy_loop(system, p, bad, 2)
    past = sl.BaseSequence(system.space, lambda j: int(j < 0))
    with pytest.raises(ConfigurationError, match=r"local unstable set \(index -1\)"):
        sl.build_holonomy_loop(system, p, past, 2)
    z = sl.homoclinic_point(system.space, p, 1, 1)  # z.shift(1) reads the 1 at index 0
    with pytest.raises(ConfigurationError, match=r"local stable set \(index 0\)"):
        sl.build_holonomy_loop(system, p, z, 1)


def test_loop_area_defect_holder_family():
    system = holder_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    assert loop.area_defect(grid=8) < 1e-8


def test_check_pinching_cat():
    report = sl.check_pinching(cat_system(), sl.PeriodicPoint((0,)), grid=16, n_steps=300)
    assert report.positive
    assert abs(report.integral - LOG_CAT) < 1e-2
    assert report.nuh_fraction == 1.0


def test_check_pinching_identity_and_rotation():
    p = sl.PeriodicPoint((0,))
    ident = lc_system(identity_map(), identity_map())
    rep = sl.check_pinching(ident, p, grid=4, n_steps=50)
    assert not rep.positive and rep.integral == 0.0
    rep = sl.check_pinching(rotation_system(), p, grid=4, n_steps=50)
    assert not rep.positive


NAN = float("nan")


@pytest.mark.parametrize(
    "bad", [dict(grid=0), dict(n_steps=0), dict(delta_pinch=NAN), dict(delta_pinch=-1.0)]
)
def test_check_pinching_rejects_bad_values(bad):
    (name,) = bad
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        sl.check_pinching(twisted_cat_system(), sl.PeriodicPoint((0,)), **bad)


@pytest.mark.parametrize(
    "bad",
    [
        dict(n_K=0), dict(j_max=0), dict(frame_depth=0), dict(epsilon_twist=NAN),
        dict(epsilon_twist=0.0), dict(fraction_required=NAN), dict(eps_K=-1.0),
        dict(delta_pinch=NAN),
    ],
)
def test_twisting_params_reject_bad_values(bad):
    (name,) = bad
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        sl.TwistingParams(**bad)
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        dataclasses.replace(FAST_TWIST, **bad)


def test_twisting_params_are_frozen():
    # assigning a field skipped the checks: n_K = 0 after construction
    # brought back "pinching failed, twisting is not applicable"
    params = sl.TwistingParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.n_K = 0
    assert params.n_K == 200


def test_check_twisting_cat_loop_is_not_twisting():
    # both generators the cat map: the loop is A^2, which fixes A's
    # eigendirections, so transported pairs land back on the target pair
    system = cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    report = sl.check_twisting(loop, FAST_TWIST)
    assert not report.twisting
    assert not report.inconclusive
    assert report.min_separation_median < 1e-6


def test_check_twisting_requires_pinching():
    system = rotation_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    with pytest.raises(SkewlabError):
        sl.check_twisting(loop, FAST_TWIST)


def test_twisting_fraction_monotone_in_epsilon():
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    report = sl.check_twisting(loop, FAST_TWIST)
    seps = [s for _, s in report.per_point if s is not None]
    assert seps
    for lo, hi in ((0.01, 0.05), (0.05, 0.2)):
        frac_lo = sum(1 for s in seps if s > lo) / len(seps)
        frac_hi = sum(1 for s in seps if s > hi) / len(seps)
        assert frac_lo >= frac_hi


def test_su_state_probe_identity_system_is_invariant():
    system = lc_system(identity_map(), identity_map())
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    score = sl.su_state_probe(system, p, loop, bins=32, n_iter=60, n_points=4, burn_in=10)
    assert score < 1e-12


@pytest.mark.parametrize("n_iter, burn_in", [(10, 20), (20, 20)])
def test_su_state_probe_rejects_empty_histograms(n_iter, burn_in):
    # no step is counted, which used to score 0.0, as an invariant su-state
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    with pytest.raises(ConfigurationError, match="n_iter > burn_in"):
        sl.su_state_probe(system, p, loop, n_iter=n_iter, burn_in=burn_in)


@pytest.mark.parametrize(
    "bad",
    [
        dict(bins=0), dict(bins=-3), dict(n_iter=0), dict(n_points=0), dict(n_points=-1),
        dict(burn_in=-5), dict(burn_in=NAN),
    ],
)
def test_su_state_probe_rejects_bad_values(bad):
    (name,) = bad
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        sl.su_state_probe(system, p, loop, **bad)


# --- scalar references: one orbit and one fiber point at a time --------------


def _direction_histogram(sys, t, bins, n_iter, burn_in, seed, n_words=8, normalise=True):
    """Angle histogram of the projective cocycle along sampled base orbits,
    and the largest vector entry met.

    The vector is scaled to unit length by hypot at every step, or, with
    normalise=False, never: it is then the cocycle's product applied to
    the first direction.
    """
    hist = np.zeros(bins)
    peak = 0.0
    for w in range(n_words):
        x = sl.sample_sequence(sys.space, sys.measure, derive_seed(seed, 31), w)
        v = (0.6471298642911707, 0.7623855618404413)
        cur = t
        for k, (f, _) in enumerate(orbit_maps(sys, x, n=n_iter)):
            cur, d = f.apply(cur)
            v = fm.mat_vec(d, v)
            if normalise:
                n = math.hypot(*v)
                v = (v[0] / n, v[1] / n)
            peak = max(peak, abs(v[0]), abs(v[1]))
            if k >= burn_in:
                a = math.atan2(v[1], v[0]) % math.pi
                hist[min(int(a / math.pi * bins), bins - 1)] += 1.0
    return hist / hist.sum(), peak


def _scalar_push_histogram(hist, m):
    """The image of a direction histogram under the matrix m, one bin at a time.

    Each nonempty bin's mass moves to the bin of m applied to the direction
    of the bin's centre.
    """
    bins = len(hist)
    out = np.zeros(bins)
    for b in range(bins):
        if hist[b] == 0.0:
            continue
        a = (b + 0.5) * math.pi / bins
        w = fm.mat_vec(m, (math.cos(a), math.sin(a)))
        a2 = math.atan2(w[1], w[0]) % math.pi
        out[min(int(a2 / math.pi * bins), bins - 1)] += hist[b]
    return out


def _scalar_su_state_probe(sys, loop, bins, n_iter, n_points, seed, burn_in):
    side = max(2, int(math.ceil(math.sqrt(n_points))))
    worst = 0.0
    for k in range(side * side):
        t = ((k // side + 0.5) / side, (k % side + 0.5) / side)
        m_t, _ = _direction_histogram(sys, t, bins, n_iter, burn_in, derive_seed(seed, 41, k))
        ht, H = loop.apply(t)
        m_ht, _ = _direction_histogram(sys, ht, bins, n_iter, burn_in, derive_seed(seed, 43, k))
        pushed = _scalar_push_histogram(m_t, H)
        worst = max(worst, 0.5 * float(np.abs(pushed - m_ht).sum()))
    return worst


def _scalar_area_defect(loop, grid):
    worst = 0.0
    for a in range(grid):
        for b in range(grid):
            t = ((a + 0.5) / grid, (b + 0.5) / grid)
            worst = max(worst, abs(fm.mat_det(loop.apply(t)[1]) - 1.0))
    return worst


def _scalar_twisting_sample(sys, loop, params):
    """The first n_K grid points, u slowest, whose Oseledets frames converge."""
    side = max(2, int(math.ceil(math.sqrt(params.n_K))))
    K = []
    for a in range(side):
        for b in range(side):
            t = ((a + 0.5) / side, (b + 0.5) / side)
            frame = oseledets_frame(
                sys, loop.p, t, depth=params.frame_depth, delta_pinch=params.delta_pinch
            )
            if frame.converged and len(K) < params.n_K:
                K.append((t, frame))
    return K


@pytest.mark.parametrize("make_system", BATCH_SYSTEMS, ids=BATCH_IDS)
def test_su_state_probe_matches_scalar_reference(make_system):
    system = make_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    for kw in (
        dict(bins=32, n_iter=60, n_points=4, seed=3, burn_in=10),
        # one bin holds every direction; seven bins leave some empty
        dict(bins=1, n_iter=40, n_points=9, seed=5, burn_in=10),
        dict(bins=7, n_iter=40, n_points=9, seed=5, burn_in=10),
    ):
        score = sl.su_state_probe(system, p, loop, **kw)
        assert score == _scalar_su_state_probe(system, loop, **kw), kw
    starts = [(0.125, 0.375), (0.9, 0.05), (0.3, 0.6)]
    seeds = [derive_seed(5, k) for k in range(len(starts))]
    u, v = (np.array(c) for c in zip(*starts))
    hists = criterion._direction_histograms(system, u, v, seeds, 16, 50, 5)
    for h, t, s in zip(hists, starts, seeds):
        assert h.tobytes() == _direction_histogram(system, t, 16, 50, 5, s)[0].tobytes()
    # the probe's directions are powers of two times the products a walk
    # that never normalises keeps: both walks give the same bins, also
    # where the product has grown past 1e20 (past 1e49 on the cat systems)
    hists = criterion._direction_histograms(system, u, v, seeds, 16, 120, 5)
    peaks = []
    for h, t, s in zip(hists, starts, seeds):
        unit, _ = _direction_histogram(system, t, 16, 120, 5, s)
        product, peak = _direction_histogram(system, t, 16, 120, 5, s, normalise=False)
        assert h.tobytes() == unit.tobytes() == product.tobytes()
        peaks.append(peak)
    if make_system not in (rotation_system, holder_system):
        assert min(peaks) > 1e20


def test_direction_histograms_take_no_hypot_and_bin_each_flush_in_one_call(monkeypatch):
    """At the benchmark's probe size: 25 points, so 400 orbits x 150 steps,
    64 bins and burn-in 50.  A flush takes the 3,200 cells of eight recorded
    steps, so the 100 recorded steps make 13 flushes, the last of 4 steps."""
    calls = []

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or fn(*args))

    counted(fm, "mat_vec_unit")
    counted(criterion, "_angle_bins")
    u, v = fm.grid_points(5)
    seeds = [derive_seed(3, k) for k in range(50)]
    criterion._direction_histograms(
        twisted_cat_system(), np.tile(u, 2), np.tile(v, 2), seeds, 64, 150, 50
    )
    assert calls == ["_angle_bins"] * 13


def test_su_state_probe_draws_every_orbit_of_a_chunk_at_once(monkeypatch):
    """At the benchmark's probe sizes: 400 sampled orbits, one draw per orbit_keys chunk."""
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    draws = []

    def counted(name):
        draw = getattr(base_shift, name)
        return lambda *args: draws.append(name) or draw(*args)

    for name in ("counter_uniforms", "stream_uniforms"):
        monkeypatch.setattr(base_shift, name, counted(name))
    sl.su_state_probe(system, p, loop, bins=64, n_iter=150, burn_in=50, n_points=25)
    assert draws == ["stream_uniforms"]  # 400 x 150 orbit-steps make one chunk
    draws.clear()
    sl.su_state_probe(system, p, loop, bins=64, n_iter=400, burn_in=50, n_points=25)
    assert draws == ["stream_uniforms"] * 2  # 400 x 400 make two


def test_su_state_probe_memory_does_not_grow_with_n_iter(monkeypatch):
    """Counted cells are flushed into the histograms, not kept for the whole walk."""
    monkeypatch.setattr(skew, "_MAX_CHUNK", 8)  # key chunks too small to show
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    peaks = []
    for n_iter in (100, 1500):  # 64 orbits: 1,500 steps of cells would hold 0.75 MB
        tracemalloc.start()
        try:
            sl.su_state_probe(system, p, loop, bins=16, n_iter=n_iter, n_points=4, burn_in=10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.25 * 2 ** 20


_BELOW_PI = math.nextafter(math.pi, 0.0)
_POWERS = [s * k for k in (1, 3, 60, 200) for s in (1, -1)]  # joint scalings 2**k


def _scaled(direction, k):
    """direction with both entries times 2**k, or as it is where that is not exact."""
    scaled = tuple(math.ldexp(c, k) for c in direction)
    exact = all(math.ldexp(c, -k) == c0 for c, c0 in zip(scaled, direction))
    return scaled if exact else direction


@st.composite
def _bins_and_directions(draw):
    """A bin count and directions: any vectors, exact bin edges both ways up,
    the direction one ulp below pi, the negative axis from both sides, and
    any of these with both entries scaled by one power of two."""
    bins = draw(st.integers(1, 300))
    edge = st.builds(
        lambda k, s: (s * math.cos(k * math.pi / bins), s * math.sin(k * math.pi / bins)),
        st.integers(0, bins), st.sampled_from([1.0, -1.0]),
    )
    special = st.sampled_from([
        (math.cos(_BELOW_PI), math.sin(_BELOW_PI)), (-1.0, 0.0), (-1.0, -0.0),
        (-1.0, 5e-324), (-1.0, -5e-324), (1.0, -5e-324), (0.0, 1.0), (0.0, -1.0),
    ])
    finite = st.floats(-4.0, 4.0, allow_nan=False)
    vector = st.tuples(finite, finite)
    scaled = st.builds(_scaled, st.one_of(vector, edge, special), st.sampled_from(_POWERS))
    return bins, draw(st.lists(st.one_of(vector, edge, special, scaled), min_size=1, max_size=40))


@seed(17)
@settings(max_examples=300, deadline=None)
@given(_bins_and_directions())
def test_angle_bins_match_the_scalar_rule(case):
    bins, directions = case
    x, y = (np.array(c) for c in zip(*directions))
    want = [min(int((math.atan2(b, a) % math.pi) / math.pi * bins), bins - 1) for a, b in directions]
    assert criterion._angle_bins(x, y, bins).tolist() == want


def test_angle_bins_keep_the_shape_of_their_directions():
    # half-bin steps round the circle: every bin edge, where numpy's bin is
    # recomputed, and every centre, in rows as the probe pushes them
    bins = 64
    theta = np.arange(4 * bins).reshape(4, bins) * (math.pi / (2 * bins))
    x, y = np.cos(theta), np.sin(theta)
    got = criterion._angle_bins(x, y, bins)
    assert got.shape == (4, bins)
    assert got.ravel().tolist() == criterion._angle_bins(x.ravel(), y.ravel(), bins).tolist()


def _ulps_from(x, n):
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@pytest.mark.parametrize("bins", [1, 3, 64, 1000])
def test_angle_bins_near_every_edge_match_the_scalar_rule(bins):
    """Directions up to 3 ulps either side of every bin edge, both ways up:
    where numpy's atan2 can pick another bin than libm's, and where a
    last-bit change of libm's angle would move the bin."""
    directions = []
    for k in range(bins + 1):
        for n in range(-3, 4):
            theta = _ulps_from(k * math.pi / bins, n)
            directions += [(s * math.cos(theta), s * math.sin(theta)) for s in (1.0, -1.0)]
    x, y = (np.array(c) for c in zip(*directions))
    want = [min(int((math.atan2(b, a) % math.pi) / math.pi * bins), bins - 1) for a, b in directions]
    assert criterion._angle_bins(x, y, bins).tolist() == want
    # the probe scales its directions by powers of two: wherever that is
    # exact (the subnormal sines next to angle 0 have no exact scaling),
    # libm's angles and so the bins stay the same
    exact = np.array([all(_scaled(d, k) != d for k in _POWERS) for d in directions])
    x, y, want = x[exact], y[exact], np.array(want)[exact].tolist()
    angles = fm.elementwise(math.atan2, y, x).tobytes()
    for k in _POWERS:
        sx, sy = np.ldexp(x, k), np.ldexp(y, k)
        assert fm.elementwise(math.atan2, sy, sx).tobytes() == angles
        assert criterion._angle_bins(sx, sy, bins).tolist() == want


@pytest.mark.parametrize("T", [0.5, 0.0])
def test_loop_grid_checks_match_scalar_reference(T):
    system = twisted_cat_system(T=T)
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    assert loop.area_defect(grid=5) == _scalar_area_defect(loop, 5)
    params = sl.TwistingParams(n_K=7, j_max=4, frame_depth=40)
    K = sl.check_twisting(loop, params).K_sample
    assert K == _scalar_twisting_sample(system, loop, params)
    assert all(type(c) is float for t, _ in K for c in t)


@pytest.mark.parametrize(
    "make_system, params, verdict",
    [
        (twisted_cat_system, FAST_TWIST, False),
        (lambda: twisted_cat_system(T=0.0), FAST_TWIST, False),
        (twisted_cat_system, sl.TwistingParams(), True),
        (lambda: twisted_cat_system(T=0.0), sl.TwistingParams(), False),
        (golden_mean_system, FAST_TWIST, False),
        (twisted_cat_system, sl.TwistingParams(j_max=1, eps_K=1e-9, frame_depth=60), False),
    ],
    ids=["cat-T0.5-fast", "cat-T0-fast", "cat-T0.5", "cat-T0", "golden-mean", "no-return"],
)
def test_check_twisting_matches_scalar_transport(make_system, params, verdict):
    system = make_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    report = sl.check_twisting(loop, params)
    assert report == scalar_check_twisting(loop, params)
    assert report.twisting is verdict
    assert report.inconclusive is (params.eps_K < 1e-6)


def test_check_twisting_distance_blocks_match_one_block(monkeypatch):
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    want = sl.check_twisting(loop, FAST_TWIST)
    assert not want.inconclusive
    monkeypatch.setattr(criterion, "_NEAREST_CELLS", 100)  # 2 of the 36 points per block
    assert sl.check_twisting(loop, FAST_TWIST) == want


# on the cat's grid of 36 frames, whose e_u and e_s are orthogonal: back home
# turned by 0.02, away (a twelfth is half the grid spacing), home turned by
# 0.07 (separated), home turned by 0.11 (further), then home without turning
_SCRIPT = [(0.0, 0.02), (1.0 / 12.0, 0.0), (-1.0 / 12.0, 0.05), (0.0, 0.04)] + [(0.0, 0.0)] * 4


@pytest.mark.parametrize("block", [1, 8, 100])
def test_check_twisting_takes_the_best_separation_up_to_the_first_separating_return(
    monkeypatch, block
):
    system = cat_system()
    p, _, _ = loop_inputs(system)
    loop = ScriptedLoop(system, p, _SCRIPT)
    params = sl.TwistingParams(n_K=36, j_max=len(_SCRIPT), frame_depth=60)
    monkeypatch.setattr(criterion, "_TWIST_BLOCK", block)
    report = sl.check_twisting(loop, params)
    assert len(report.per_point) == 36 and not report.inconclusive
    for j_t, min_sep in report.per_point:
        # the return at j = 4 separates further, but j_t = 3 is the first that separates
        assert j_t == 3 and min_sep == pytest.approx(0.07, abs=1e-9)
    # one point by one, every point would leave after its separating return
    assert loop.calls == (3 if block == 1 else len(_SCRIPT))


# three returns inside one block and none separating: home turned by 0.01,
# away, home turned by 0.04 (the best), home turned by 0.02
_UNSEPARATED = [(0.0, 0.01), (1.0 / 12.0, 0.0), (-1.0 / 12.0, 0.03), (0.0, -0.02)]


def test_check_twisting_takes_the_best_separation_over_all_returns_when_none_separates():
    system = cat_system()
    p, _, _ = loop_inputs(system)
    loop = ScriptedLoop(system, p, _UNSEPARATED)
    params = sl.TwistingParams(n_K=36, j_max=len(_UNSEPARATED), frame_depth=60)
    assert params.j_max <= criterion._TWIST_BLOCK
    report = sl.check_twisting(loop, params)
    assert len(report.per_point) == 36 and not report.inconclusive and not report.twisting
    for j_t, min_sep in report.per_point:
        # j_t is the first return; min_sep the best of the three, not the first or the last
        assert j_t == 1 and min_sep == pytest.approx(0.04, abs=1e-9)


class _FailingLoop:
    """``loop``, but handing it sample point k from iteration fails[k] on
    raises ``NonConvergenceError`` naming the iteration and the point.

    Points are told apart by the images the last call gave them.
    """

    def __init__(self, loop, fails):
        self.loop, self.sys, self.p, self.fails = loop, loop.sys, loop.p, fails
        self.j, self.ids, self.raised = 0, None, 0

    def apply_many(self, u, v):
        j = self.j + 1
        ids = range(len(u))
        if self.ids is not None:
            ids = [self.ids[t] for t in zip(u.tolist(), v.tolist())]
        bad = [k for k in ids if self.fails.get(k, j + 1) <= j]
        if bad:
            self.raised += 1
            raise NonConvergenceError("scripted failure at j=%d, point %d" % (j, bad[0]))
        out = self.loop.apply_many(u, v)
        self.j, self.ids = j, dict(zip(zip(out[0].tolist(), out[1].tolist()), ids))
        return out


def _twisting_inputs():
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    return loop, sl.check_twisting(loop, sl.TwistingParams())


def test_check_twisting_settles_a_block_when_a_separated_point_fails():
    loop, want = _twisting_inputs()
    # every separated point fails from the iteration after its j_t on
    fails = {
        k: j + 1 for k, (j, s) in enumerate(want.per_point) if s is not None and s > 0.05
    }
    assert any(j % criterion._TWIST_BLOCK != 1 for j in fails.values())  # some inside a block
    failing = _FailingLoop(loop, fails)
    assert sl.check_twisting(failing, sl.TwistingParams()) == want
    assert failing.raised


@pytest.mark.parametrize("j", [5, 9])  # inside a block, and a block's first iteration
def test_check_twisting_raises_when_an_active_point_fails(j):
    loop, want = _twisting_inputs()
    k = next(k for k, (_, s) in enumerate(want.per_point) if s is not None and s <= 0.05)
    failing = _FailingLoop(loop, {k: j})
    with pytest.raises(NonConvergenceError, match="^scripted failure at j=%d, point %d$" % (j, k)):
        sl.check_twisting(failing, sl.TwistingParams())
    assert failing.raised == (2 if j % criterion._TWIST_BLOCK != 1 else 1)


def test_perturbation_sweep_matches_scalar_transport(monkeypatch):
    system = cat_system()
    p, z, i = loop_inputs(system)
    kw = dict(seed=3, grid=8, n_steps=100, n_orbits=4, twisting_params=FAST_TWIST)
    rows = sl.perturbation_sweep(system, 1, (0.25, 0.25), 0.2, [0.0, 0.5], p, z, i, **kw)
    monkeypatch.setattr(criterion, "check_twisting", scalar_check_twisting)
    assert rows == sl.perturbation_sweep(
        system, 1, (0.25, 0.25), 0.2, [0.0, 0.5], p, z, i, **kw
    )
    assert all(r.error == "" for r in rows)


def test_twisting_report_counts_twisted_points():
    per_point = [(3, 0.2), (5, 0.01), (None, None), (2, 0.05), (7, 0.06)]
    report = sl.TwistingReport([], per_point, False, 0.05, 0.1)
    assert report.twisted_count == 2
    assert report.twisted_fraction == 0.4
    assert sl.TwistingReport([], [], False, 0.05, 0.1).twisted_fraction == 0.0


@pytest.mark.parametrize("make_system", BATCH_SYSTEMS, ids=BATCH_IDS)
def test_pinching_grid_matches_scalar_reference(make_system, monkeypatch):
    system = make_system()
    for p in (sl.PeriodicPoint((0,)), sl.PeriodicPoint((0, 1))):  # a map, a composite
        for renorm_every in (16, 5):
            monkeypatch.setattr(skew, "RENORM_EVERY", renorm_every)
            got = return_map_exponent_grid(system, p, 5, 37)
            want = scalar_exponent_grid(system, p, 5, 37)
            assert got.tobytes() == want.tobytes()
        monkeypatch.undo()
        report = sl.check_pinching(system, p, grid=6, n_steps=50)
        values = scalar_exponent_grid(system, p, 6, 50)
        assert report.integral == float(values.mean())
        assert report.nuh_fraction == float((values > criterion.DELTA_PINCH).mean())


def test_perturbed_system():
    system = cat_system()
    same = sl.perturbed_system(system, 1, (0.25, 0.25), 0.2, 0.0)
    assert same is system
    pert = sl.perturbed_system(system, 1, (0.25, 0.25), 0.2, 0.5)
    x1 = sl.periodic_point(system.space, (1,))
    f = pert.fiber_map_at(x1)
    assert isinstance(f, fm.Composite)
    # outside the twist disc the perturbed generator acts exactly like A
    t = (0.8, 0.8)
    assert fm.torus_distance(f.apply(t)[0], cat_map().apply(t)[0]) < 1e-15


def test_perturbed_system_checks_word_and_radius_at_t_zero():
    # T = 0 returned the system before looking at the word or the radius
    system = cat_system()
    with pytest.raises(ConfigurationError, match=r"no generator for word \(5,\)"):
        sl.perturbed_system(system, 5, (0.25, 0.25), 0.2, 0.0)
    with pytest.raises(ConfigurationError, match="twist radius"):
        sl.perturbed_system(system, 1, (0.25, 0.25), 0.9, 0.0)


def test_perturbation_sweep_t_zero_matches_unperturbed():
    system = cat_system()
    p, z, i = loop_inputs(system)
    rows = sl.perturbation_sweep(
        system, 1, (0.25, 0.25), 0.2, [0.0], p, z, i,
        seed=3, grid=8, n_steps=200, n_orbits=10,
        twisting_params=FAST_TWIST,
    )
    assert len(rows) == 1
    row = rows[0]
    assert isinstance(row, SweepRow)
    assert row.error == ""
    assert row.pinching_flag and not row.twisting_flag
    assert abs(row.pinching_integral - LOG_CAT) < 2e-2
    assert row.L_estimate > 0.9


def test_perturbation_sweep_pinching_uses_delta_pinch():
    # the pinching check ignored delta_pinch: every row read pinching_flag
    # true at integral 0.962 while its twisting said "pinching failed"
    system = cat_system()
    p, z, i = loop_inputs(system)
    rows = sl.perturbation_sweep(
        system, 1, (0.25, 0.25), 0.2, [0.0, 0.5], p, z, i,
        seed=3, grid=4, n_steps=50, n_orbits=4,
        twisting_params=dataclasses.replace(FAST_TWIST, delta_pinch=5.0),
    )
    assert [r.pinching_flag for r in rows] == [False, False]
    assert all(abs(r.pinching_integral - LOG_CAT) < 2e-2 for r in rows)
    assert all("pinching failed" in r.error for r in rows)


def test_perturbation_sweep_exponent_steps_default_to_four_n_steps(monkeypatch):
    calls = []

    def fake_exponent(sys, n_orbits, n_steps, seed):
        calls.append(n_steps)
        return sl.ExponentEstimate(0.0, 0.0, n_orbits, n_steps, 0.0, seed)

    monkeypatch.setattr(criterion, "integrated_exponent", fake_exponent)
    system = cat_system()
    p, z, i = loop_inputs(system)
    sl.perturbation_sweep(system, 1, (0.25, 0.25), 0.2, [0.0], p, z, i, grid=4, n_steps=30,
                          twisting_params=FAST_TWIST)
    assert calls == [120]


def test_perturbation_sweep_configuration_error_propagates():
    # a bad twist radius is about the arguments, not about one T: no row records it
    system = cat_system()
    p, z, i = loop_inputs(system)
    with pytest.raises(ConfigurationError, match="twist radius"):
        sl.perturbation_sweep(system, 1, (0.25, 0.25), 0.3, [0.5], p, z, i,
                              grid=4, n_steps=10, twisting_params=FAST_TWIST)
    # a nan angle was a row error ("did not converge"), an inf one a ValueError
    for T in (NAN, float("inf")):
        with pytest.raises(ConfigurationError, match="^angle must be finite"):
            sl.perturbation_sweep(system, 1, (0.25, 0.25), 0.2, [T], p, z, i,
                                  grid=4, n_steps=10, twisting_params=FAST_TWIST)
    # a Holder family has no generator to twist: T = 0 ran it unperturbed,
    # any other T raised AttributeError
    for T in (0.0, 0.5):
        with pytest.raises(ConfigurationError, match="locally constant"):
            sl.perturbation_sweep(holder_system(), 1, (0.25, 0.25), 0.2, [T], p, z, i,
                                  grid=4, n_steps=10, twisting_params=FAST_TWIST)


def test_perturbation_sweep_t_zero_bad_word_propagates():
    system = cat_system()
    p, z, i = loop_inputs(system)
    with pytest.raises(ConfigurationError, match="no generator for word"):
        sl.perturbation_sweep(system, 5, (0.25, 0.25), 0.2, [0.0], p, z, i,
                              grid=4, n_steps=10, twisting_params=FAST_TWIST)


def test_perturbation_sweep_row_error_does_not_abort():
    system = rotation_system()
    p, z, i = loop_inputs(system)
    rows = sl.perturbation_sweep(
        system, 1, (0.25, 0.25), 0.2, [0.0, 0.1], p, z, i,
        seed=3, grid=4, n_steps=50, n_orbits=4,
        twisting_params=FAST_TWIST,
    )
    assert len(rows) == 2
    assert all(r.error != "" for r in rows)  # no pinching => twisting not applicable
    assert not any(r.pinching_flag for r in rows)
