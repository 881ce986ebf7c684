"""Pinching/twisting detectors, holonomy loop, probes, and sweeps."""

import math

import pytest

import skewlab as sl
import skewlab.criterion as criterion
import skewlab.fiber_maps as fm
import skewlab.holonomy as holonomy
from skewlab.criterion import SweepRow
from skewlab.errors import ConfigurationError, NonConvergenceError, SkewlabError

from _common import (
    LOG_CAT,
    cat_map,
    cat_system,
    holder_system,
    identity_map,
    lc_system,
    loop_inputs,
    rotation_system,
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


def _reference_loop(system, p, z, i):
    """h and H as separate passes: point holonomies, then linear holonomies."""
    p_seq = p.point(system.space)
    q_u = sl.HolonomyQuery("unstable", p_seq, z)
    q_s = sl.HolonomyQuery("stable", z.shift(i), p_seq)
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
    for k in range(60, 80):  # the Holder linear holonomy fails at k = 72
        t = fm.random_point(3, 7, k)
        try:
            expected = (ref_h(t), ref_H(t))
        except NonConvergenceError:
            with pytest.raises(NonConvergenceError):
                loop.apply(t)
            continue
        assert loop.apply(t) == expected
        assert loop(t) == loop.h(t) == expected[0]
        assert loop.H_at(t) == expected[1]


def test_loop_step_runs_two_point_holonomies(monkeypatch):
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    loop = sl.build_holonomy_loop(system, p, z, i)
    original = holonomy.stable_holonomy_point
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    # criterion would see the counter too if it imported the function by name
    for module in (holonomy, criterion):
        monkeypatch.setattr(module, "stable_holonomy_point", counted, raising=False)
    loop.apply((0.3, 0.7))
    assert len(calls) == 2


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
    system = cat_system()
    p = sl.PeriodicPoint((0,))
    bad = sl.periodic_point(system.space, (1,))
    with pytest.raises(ConfigurationError):
        sl.build_holonomy_loop(system, p, bad, 2)


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
        seed=3, grid=8, n_steps=200, n_orbits=10, exponent_steps=400,
        twisting_params=FAST_TWIST,
    )
    assert len(rows) == 1
    row = rows[0]
    assert isinstance(row, SweepRow)
    assert row.error == ""
    assert row.pinching_flag and not row.twisting_flag
    assert abs(row.pinching_integral - LOG_CAT) < 2e-2
    assert row.L_estimate > 0.9


def test_perturbation_sweep_row_error_does_not_abort():
    system = rotation_system()
    p, z, i = loop_inputs(system)
    rows = sl.perturbation_sweep(
        system, 1, (0.25, 0.25), 0.2, [0.0, 0.1], p, z, i,
        seed=3, grid=4, n_steps=50, n_orbits=4, exponent_steps=100,
        twisting_params=FAST_TWIST,
    )
    assert len(rows) == 2
    assert all(r.error != "" for r in rows)  # no pinching => twisting not applicable
    assert not any(r.pinching_flag for r in rows)
