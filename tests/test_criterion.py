"""Pinching/twisting detectors, holonomy loop, probes, and sweeps."""

import dataclasses
import math

import numpy as np
import pytest

import skewlab as sl
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
    walks.clear()
    loop.apply_many(*fm.grid_points(6))
    assert len(walks) == 4


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
    report = sl.check_twisting(system, loop, FAST_TWIST)
    assert not report.twisting
    assert not report.inconclusive
    assert report.min_separation_median < 1e-6


def test_check_twisting_requires_pinching():
    system = rotation_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    with pytest.raises(SkewlabError):
        sl.check_twisting(system, loop, FAST_TWIST)


def test_twisting_fraction_monotone_in_epsilon():
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    report = sl.check_twisting(system, loop, FAST_TWIST)
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


def _direction_histogram(sys, t, bins, n_iter, burn_in, seed, n_words=8):
    """Angle histogram of the projective cocycle along sampled base orbits."""
    hist = np.zeros(bins)
    for w in range(n_words):
        x = sl.sample_sequence(sys.space, sys.measure, derive_seed(seed, 31), w)
        v = (0.6471298642911707, 0.7623855618404413)
        cur = t
        for k, (f, _) in enumerate(orbit_maps(sys, x, n=n_iter)):
            cur, d = f.apply(cur)
            v = fm.mat_vec(d, v)
            n = math.hypot(*v)
            v = (v[0] / n, v[1] / n)
            if k >= burn_in:
                a = math.atan2(v[1], v[0]) % math.pi
                hist[min(int(a / math.pi * bins), bins - 1)] += 1.0
    return hist / hist.sum()


def _scalar_su_state_probe(sys, loop, bins, n_iter, n_points, seed, burn_in):
    side = max(2, int(math.ceil(math.sqrt(n_points))))
    worst = 0.0
    for k in range(side * side):
        t = ((k // side + 0.5) / side, (k % side + 0.5) / side)
        m_t = _direction_histogram(sys, t, bins, n_iter, burn_in, derive_seed(seed, 41, k))
        ht, H = loop.apply(t)
        m_ht = _direction_histogram(sys, ht, bins, n_iter, burn_in, derive_seed(seed, 43, k))
        pushed = criterion._push_histogram(m_t, H)
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
    kw = dict(bins=32, n_iter=60, n_points=4, seed=3, burn_in=10)
    score = sl.su_state_probe(system, p, loop, **kw)
    assert score == _scalar_su_state_probe(system, loop, **kw)
    starts = [(0.125, 0.375), (0.9, 0.05), (0.3, 0.6)]
    seeds = [derive_seed(5, k) for k in range(len(starts))]
    u, v = (np.array(c) for c in zip(*starts))
    hists = criterion._direction_histograms(system, u, v, seeds, 16, 50, 5)
    for h, t, s in zip(hists, starts, seeds):
        assert h.tobytes() == _direction_histogram(system, t, 16, 50, 5, s).tobytes()


@pytest.mark.parametrize("T", [0.5, 0.0])
def test_loop_grid_checks_match_scalar_reference(T):
    system = twisted_cat_system(T=T)
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    assert loop.area_defect(grid=5) == _scalar_area_defect(loop, 5)
    params = sl.TwistingParams(n_K=7, j_max=4, frame_depth=40)
    K = sl.check_twisting(system, loop, params).K_sample
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
    report = sl.check_twisting(system, loop, params)
    assert report == scalar_check_twisting(system, loop, params)
    assert report.twisting is verdict
    assert report.inconclusive is (params.eps_K < 1e-6)


def test_check_twisting_distance_blocks_match_one_block(monkeypatch):
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    want = sl.check_twisting(system, loop, FAST_TWIST)
    assert not want.inconclusive
    monkeypatch.setattr(criterion, "_NEAREST_CELLS", 100)  # 2 of the 36 points per block
    assert sl.check_twisting(system, loop, FAST_TWIST) == want


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
