"""End-to-end acceptance checks, one test per quantitative claim.

Run with ``pytest -v tests/test_acceptance.py``: each test prints the
measured value next to its tolerance and contributes exactly one
pass/fail line to the report.
"""

import math

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.cli import main as cli_main

from _common import (
    LOG_CAT,
    SHEAR_LO,
    SHEAR_UP,
    cat_system,
    contraction_rate,
    holder_system,
    identity_map,
    lc_system,
    loop_inputs,
    rotation_system,
    stable_pair,
    twisted_cat_system,
    unstable_pair,
)


def test_cat_map_pointwise_exponent_matches_eigenvalue():
    """Single cat-map generator, n = 1e4: exponent within 5e-3 of log((3+sqrt5)/2)."""
    system = cat_system()
    x = sl.periodic_point(system.space, (0,))
    val = sl.iterate_cocycle(system, x, (0.3, 0.7), 10_000).log_norm / 10_000
    print("cat exponent: %.10f target %.10f tol 5e-3" % (val, LOG_CAT))
    assert abs(val - 0.9624236501) < 5e-3


def test_forward_backward_exponents_cancel():
    """det = 1: forward and backward exponents sum below 1e-2 on 100 orbits."""
    system = cat_system()
    worst = 0.0
    for k in range(100):
        x = sl.sample_sequence(system.space, system.measure, sl.derive_seed(41, k), 0)
        t = sl.random_fiber_point(41, k)
        fwd = sl.iterate_cocycle(system, x, t, 1000).log_norm / 1000
        bwd = -sl.iterate_cocycle(system, x, t, -1000).log_norm / 1000
        worst = max(worst, abs(fwd + bwd))
    print("forward+backward worst |sum|: %.3e tol 1e-2" % worst)
    assert worst < 1e-2


def test_zero_controls_identity_and_rotation():
    """Identity generators: integrated exponent exactly 0; rotations: |L| < 2e-3 and no pinching."""
    ident = lc_system(identity_map(), identity_map())
    est = sl.integrated_exponent(ident, 50, 200, seed=2)
    assert est.mean == 0.0
    rot = rotation_system()
    est_rot = sl.integrated_exponent(rot, 50, 200, seed=2)
    pin = sl.check_pinching(rot, sl.PeriodicPoint((0,)), grid=8, n_steps=100)
    print(
        "identity L=%.17g rotation |L|=%.3e (tol 2e-3) pinching=%s"
        % (est.mean, abs(est_rot.mean), pin.positive)
    )
    assert abs(est_rot.mean) < 2e-3
    assert not pin.positive


def test_locally_constant_holonomies_identity_bulk():
    """1e3 sampled queries on a locally constant system: holonomies within 1e-12 of identity."""
    system = twisted_cat_system()
    worst = 0.0
    for k in range(250):
        t = sl.random_fiber_point(7, k, stream=1)
        x, y = stable_pair(system, 17, k)
        q = sl.HolonomyQuery("stable", x, y)
        img, _ = sl.stable_holonomy_point(system, q, t)
        worst = max(worst, fm.torus_distance(img, t))
        m, _ = sl.linear_stable_holonomy(system, q, t)
        worst = max(worst, fm.mat_sub_norm(m, fm.IDENTITY))
        xu, yu = unstable_pair(system, 19, k)
        qu = sl.HolonomyQuery("unstable", xu, yu)
        img_u, _ = sl.unstable_holonomy_point(system, qu, t)
        worst = max(worst, fm.torus_distance(img_u, t))
        mu, _ = sl.linear_stable_holonomy(system, qu, t)
        worst = max(worst, fm.mat_sub_norm(mu, fm.IDENTITY))
    print("locally constant holonomy worst identity gap: %.3e tol 1e-12" % worst)
    assert worst < 1e-12


def test_holonomy_increments_obey_geometric_envelope():
    """Smooth family: increments under C*theta^n*d(x,y) with theta the bunching margin."""
    system = holder_system()
    report = sl.fiber_bunching_margin(system, beta=1.0)
    assert report.satisfied
    theta = report.worst_margin
    worst_excess = -1.0
    worst_theta = 0.0
    n_converged = 0
    for k in range(20):
        x, y = stable_pair(system, 29, k)
        d = sl.distance(x, y)
        q = sl.HolonomyQuery("stable", x, y)
        t = sl.random_fiber_point(29, k, stream=2)
        _, diag = sl.stable_holonomy_point(system, q, t)
        n_converged += 1
        head = [v for v in diag.increments[:3] if v > 0.0]
        if not head:
            continue
        c = max(v / (theta ** n * d) for n, v in enumerate(diag.increments[:3]))
        for n, inc in enumerate(diag.increments):
            worst_excess = max(worst_excess, inc - c * theta ** n * d)
        worst_theta = max(worst_theta, diag.fitted_theta)
    print(
        "envelope: queries=%d worst excess %.3e, fitted theta %.4f < margin+0.05 = %.4f"
        % (n_converged, worst_excess, worst_theta, theta + 0.05)
    )
    assert n_converged == 20
    assert worst_excess <= 1e-12
    assert worst_theta < theta + 0.05


def test_holonomy_algebra_axioms_and_contraction():
    """Equivariance and composition defects < 1e-6 on 100 stable triples;
    median fitted contraction rate at most metric_base**alpha + 0.05."""
    system = holder_system()
    space, measure = system.space, system.measure
    worst = 0.0
    for k in range(100):
        x = sl.sample_sequence(space, measure, sl.derive_seed(31, k), 0)
        w1 = sl.sample_sequence(space, measure, sl.derive_seed(31, k), 1)
        w2 = sl.sample_sequence(space, measure, sl.derive_seed(31, k), 2)
        # splice independent pasts onto the shared future of x (full shift)
        y = sl.BaseSequence(space, lambda j, w=w1, x=x: x.symbol(j) if j >= 0 else w.symbol(j))
        z = sl.BaseSequence(space, lambda j, w=w2, x=x: x.symbol(j) if j >= 0 else w.symbol(j))
        t = sl.random_fiber_point(31, k, stream=3)
        q_xy = sl.HolonomyQuery("stable", x, y)
        q_yz = sl.HolonomyQuery("stable", y, z)
        q_xz = sl.HolonomyQuery("stable", x, z)
        # conjugation-equivariance of the single-pair holonomy
        worst = max(worst, sl.holonomy_cocycle_check(system, q_xy, t))
        # composition across the triple
        via_y, _ = sl.stable_holonomy_point(system, q_yz, sl.stable_holonomy_point(system, q_xy, t)[0])
        direct, _ = sl.stable_holonomy_point(system, q_xz, t)
        worst = max(worst, fm.torus_distance(via_y, direct))
    rates = []
    for k in range(100):
        x, y = stable_pair(system, 37, k)
        q = sl.HolonomyQuery("stable", x, y, tol=1e-10)
        r = contraction_rate(system, q, sl.random_fiber_point(37, k, stream=4))
        if r > 0.0:
            rates.append(r)
    rates.sort()
    median = rates[len(rates) // 2]
    bound = system.space.metric_base ** system.holder_alpha + 0.05
    print(
        "algebra worst defect %.3e (tol 1e-6); contraction median %.4f <= %.4f (%d rates)"
        % (worst, median, bound, len(rates))
    )
    assert worst < 1e-6
    assert rates
    assert median <= bound


def test_localized_twist_exactness():
    """Identity outside support bit-exactly; |det - 1| < 1e-12 on 100x100; center derivative = R_T."""
    T = 0.5
    twist = fm.LocalizedTwist((0.25, 0.25), 0.2, T)
    outside_exact = True
    for k in range(200):
        t = sl.random_fiber_point(43, k)
        du = (t[0] - 0.25) - round(t[0] - 0.25)
        dv = (t[1] - 0.25) - round(t[1] - 0.25)
        if math.hypot(du, dv) >= 0.2:
            img, d = twist.apply(t)
            outside_exact = outside_exact and img == t and d == fm.IDENTITY
    worst_det = 0.0
    for iu in range(100):
        for iv in range(100):
            _, d = twist.apply(((iu + 0.5) / 100, (iv + 0.5) / 100))
            worst_det = max(worst_det, abs(fm.mat_det(d) - 1.0))
    _, d0 = twist.apply((0.25, 0.25))
    rot = (math.cos(T), -math.sin(T), math.sin(T), math.cos(T))
    center_gap = fm.mat_sub_norm(d0, rot)
    print(
        "twist: outside exact=%s, worst |det-1| %.3e (tol 1e-12), center gap %.3e (tol 1e-9)"
        % (outside_exact, worst_det, center_gap)
    )
    assert outside_exact
    assert worst_det < 1e-12
    assert center_gap < 1e-9


def test_pipeline_pinching_twisting_positive_exponent():
    """Cat/twisted-cat pipeline: pinching + twisting verified, exponent > 3x its stderr;
    the unperturbed contrast keeps a positive exponent with twisting false."""
    system = twisted_cat_system()
    p, z, i = loop_inputs(system)
    pin = sl.check_pinching(system, p, grid=16, n_steps=300)
    loop = sl.build_holonomy_loop(system, p, z, i)
    tw = sl.check_twisting(loop)
    est = sl.integrated_exponent(system, 200, 5000, seed=8)
    print(
        "pipeline: pinching=%s integral=%.4f (target 0.9624 tol 1e-2) twisting=%s "
        "L=%.4f stderr=%.2e" % (pin.positive, pin.integral, tw.twisting, est.mean, est.stderr)
    )
    assert pin.positive
    assert abs(pin.integral - 0.9624) < 1e-2
    assert tw.twisting
    assert (tw.twisted_count, len(tw.per_point), tw.twisted_fraction) == (24, 200, 0.12)
    assert est.mean > 3.0 * est.stderr
    flat = cat_system()
    loop0 = sl.build_holonomy_loop(flat, p, z, i)
    tw0 = sl.check_twisting(loop0)
    est0 = sl.integrated_exponent(flat, 50, 1000, seed=8)
    print("contrast T=0: twisting=%s L=%.4f" % (tw0.twisting, est0.mean))
    assert not tw0.twisting
    assert tw0.twisted_count == 0
    assert est0.mean > 0.0


def test_shear_product_matches_transfer_operator_oracle():
    """Monte Carlo exponent of the two-shear product within 5e-3 of the
    discretized projective transfer-operator value; both above 0.05."""
    system = lc_system(fm.ToralAutomorphism(SHEAR_UP), fm.ToralAutomorphism(SHEAR_LO))
    est = sl.integrated_exponent(system, 200, 2000, seed=11)
    oracle = sl.furstenberg_exponent_transfer_operator(
        [SHEAR_UP, SHEAR_LO], (0.5, 0.5), n_bins=10_000
    )
    gap = abs(est.mean - oracle)
    print("shears: MC %.6f oracle %.6f gap %.2e (tol 5e-3)" % (est.mean, oracle, gap))
    assert gap < 5e-3
    assert est.mean > 0.05 and oracle > 0.05


def test_projective_state_probe_separates_systems():
    """Loop-invariance defect of projective statistics: < 0.05 for rotations,
    > 0.2 for the twisted pipeline system."""
    p = sl.PeriodicPoint((0,))
    rot = rotation_system()
    _, z, i = loop_inputs(rot)
    loop_rot = sl.build_holonomy_loop(rot, p, z, i)
    score_rot = sl.su_state_probe(rot, p, loop_rot)
    system = twisted_cat_system()
    loop = sl.build_holonomy_loop(system, p, z, i)
    score = sl.su_state_probe(system, p, loop)
    print("probe: rotation %.4f (< 0.05), twisted %.4f (> 0.2)" % (score_rot, score))
    assert score_rot < 0.05
    assert score > 0.2


SWEEP_CFG = """
[base]
type = bernoulli
d = 2
probs = 0.5, 0.5
metric_base = 0.5

[fiber]
g0 = toral:2,1,1,1
g1 = toral:2,1,1,1

[run]
seed = 8
grid = 8
n_steps = 200
n_orbits = 20
n_K = 36
j_max = 32
frame_depth = 60

[criterion]
p_word = 0
z_symbol = 1
z_index = 1
i = 2

[sweep]
T_values = 0, 0.5
generator_word = 1
center = 0.25, 0.25
radius = 0.2
"""


def test_sweep_output_independent_of_worker_count(tmp_path):
    """The perturbation sweep CSV is byte-identical on a rerun."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG)
    outs = {}
    for run in ("a", "b"):
        out = tmp_path / ("out" + run)
        rc = cli_main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs[run] = (out / "sweep.csv").read_bytes()
    identical = outs["a"] == outs["b"]
    print("sweep determinism: byte-identical=%s (%d bytes)" % (identical, len(outs["a"])))
    assert identical
