"""Holonomies: bunching margins, truncation convergence, algebra axioms."""

import math

import numpy as np
import pytest

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.errors import ConfigurationError, NonConvergenceError
import skewlab.holonomy as holonomy
from skewlab.holonomy import (
    BunchingReport,
    ConvergenceDiagnostics,
    stable_holonomy_jet,
    stable_holonomy_jets,
    strong_stable_contraction_rate,
)
from skewlab.skew import orbit_maps

from _common import (
    bernoulli2,
    cat_system,
    golden_mean_system,
    holder_system,
    rotation_system,
    stable_pair,
    twisted_cat_system,
    unstable_pair,
)

CAT_RATIO = ((3.0 + math.sqrt(5.0)) / 2.0) ** 2  # ||A|| / m(A) for the cat map


def test_bunching_rotations_margin_is_metric_base():
    report = sl.fiber_bunching_margin(rotation_system(), beta=1.0)
    assert report.satisfied
    assert report.worst_margin == pytest.approx(0.5, abs=1e-12)


def test_bunching_cat_halves():
    report = sl.fiber_bunching_margin(cat_system(metric_base=0.5), beta=1.0)
    assert not report.satisfied
    assert report.worst_margin == pytest.approx(CAT_RATIO * 0.5, rel=1e-9)


def test_bunching_cat_sixteenths():
    report = sl.fiber_bunching_margin(cat_system(metric_base=1.0 / 16), beta=1.0)
    assert report.satisfied
    assert report.worst_margin == pytest.approx(CAT_RATIO / 16, rel=1e-9)


def test_bunching_beta_validation():
    for beta in (0.0, float("nan")):  # nan gave worst_margin 0, satisfied
        with pytest.raises(ConfigurationError):
            sl.fiber_bunching_margin(cat_system(), beta=beta)


def test_bunching_rejects_empty_samples():
    # n_base=0 used to report worst_margin=0.0, satisfied=True; an empty
    # fiber sample divided by zero
    with pytest.raises(ConfigurationError):
        sl.fiber_bunching_margin(holder_system(), beta=1.0, n_base=0)
    for system in (holder_system(), cat_system()):
        with pytest.raises(ConfigurationError):
            sl.fiber_bunching_margin(system, beta=1.0, grid=0, n_fiber=0)
    # a locally constant family evaluates every generator whatever n_base is
    report = sl.fiber_bunching_margin(cat_system(metric_base=0.5), beta=1.0, n_base=0)
    assert report.worst_margin == pytest.approx(CAT_RATIO * 0.5, rel=1e-9)


def _scalar_bunching_margin(sys, beta, n_base=50, n_fiber=200, grid=16, seed=0):
    """fiber_bunching_margin one fiber point at a time (the reference)."""
    if sys.is_locally_constant:
        base_points = [
            sl.BaseSequence(sys.space, lambda j, w=w: w[min(max(j, 0), len(w) - 1)])
            for w in sl.admissible_words(sys.space, sys.family.depth)
        ]
    else:
        base_points = [
            sl.sample_sequence(sys.space, sys.measure, sl.derive_seed(seed, 23), i)
            for i in range(n_base)
        ]
    pts = [((i + 0.5) / grid, (j + 0.5) / grid) for i in range(grid) for j in range(grid)]
    pts.extend(sl.random_fiber_point(seed, i, stream=3) for i in range(n_fiber))
    worst = 0.0
    for x in base_points:
        for f in next(orbit_maps(sys, x, n=1)):
            sup_norm = 0.0
            sup_conorm = 0.0
            for t in pts:
                _, d = f.apply(t)
                sup_norm = max(sup_norm, fm.mat_norm(d))
                sup_conorm = max(sup_conorm, fm.mat_conorm(d))
            worst = max(worst, sup_norm / sup_conorm * sys.space.metric_base ** beta)
    return BunchingReport(beta, worst, worst < 1.0, {"n_base": len(base_points),
                                                     "n_fiber": len(pts)})


@pytest.mark.parametrize(
    "make_system",
    [twisted_cat_system, rotation_system, golden_mean_system, holder_system,
     lambda: holder_system(metric_base=0.5, eps=0.3)],
)
def test_bunching_margin_matches_scalar_reference(make_system):
    system = make_system()
    for beta, kw in ((1.0, {}), (0.7, dict(n_base=7, n_fiber=31, grid=5, seed=4))):
        report = sl.fiber_bunching_margin(system, beta, **kw)
        assert report == _scalar_bunching_margin(system, beta, **kw)


def test_query_validation():
    system = cat_system()
    x, y = stable_pair(system, 1, 0)
    sl.HolonomyQuery("stable", x, y)
    with pytest.raises(ConfigurationError):
        sl.HolonomyQuery("unstable", x, y)  # stable pair fails unstable check
    with pytest.raises(ConfigurationError):
        sl.HolonomyQuery("sideways", x, y)


@pytest.mark.parametrize("horizon", [128, 50])
@pytest.mark.parametrize(
    "flipped", [(3, 40), (-2, -90), (0, 7), (1, -1), "edge", "past-edge"]
)
def test_query_error_names_the_nearest_differing_index(horizon, flipped):
    space = sl.ShiftSpace(2, metric_horizon=horizon)
    flipped = {"edge": (horizon, -horizon), "past-edge": (horizon + 1, -horizon - 1)}.get(
        flipped, flipped
    )
    x = sl.sample_sequence(space, bernoulli2(), 31, 0)
    xs = x.symbol
    y = sl.BaseSequence(space, lambda j: 1 - xs(j) if j in flipped else xs(j))
    for direction, sign in (("stable", 1), ("unstable", -1)):
        want = None  # the per-index scan, nearest index first
        for j in range(0, sign * (horizon + 1), sign):
            if x.symbol(j) != y.symbol(j):
                want = j
                break
        if want is None:
            sl.HolonomyQuery(direction, x, y)
        else:
            with pytest.raises(ConfigurationError, match=r"\(index %d\)$" % want):
                sl.HolonomyQuery(direction, x, y)


@pytest.mark.parametrize(
    "bad", [dict(tol=float("nan")), dict(tol=-1.0), dict(tol=0.0), dict(n_max=0)]
)
def test_query_rejects_bad_tolerance_and_cap(bad):
    x, y = stable_pair(twisted_cat_system(), 1, 0)
    (name,) = bad
    with pytest.raises(ConfigurationError, match="^%s must be" % name):
        sl.HolonomyQuery("stable", x, y, **bad)


def test_locally_constant_holonomies_are_identity():
    system = twisted_cat_system()
    t = (0.3, 0.7)
    x, y = stable_pair(system, 2, 0)
    q = sl.HolonomyQuery("stable", x, y)
    img, diag = sl.stable_holonomy_point(system, q, t)
    assert fm.torus_distance(img, t) < 1e-12
    assert diag.stopped_at <= 1
    m, _ = sl.linear_stable_holonomy(system, q, t)
    assert fm.mat_sub_norm(m, fm.IDENTITY) < 1e-12
    xu, yu = unstable_pair(system, 2, 1)
    qu = sl.HolonomyQuery("unstable", xu, yu)
    img_u, _ = sl.unstable_holonomy_point(system, qu, t)
    assert fm.torus_distance(img_u, t) < 1e-12


def test_unstable_query_direction_guard():
    system = cat_system()
    x, y = stable_pair(system, 3, 0)
    q = sl.HolonomyQuery("stable", x, y)
    with pytest.raises(ConfigurationError):
        sl.unstable_holonomy_point(system, q, (0.5, 0.5))


def test_constant_family_holonomy_is_identity():
    system = holder_system(eps=0.0)
    x, y = stable_pair(system, 4, 0)
    q = sl.HolonomyQuery("stable", x, y)
    img, _ = sl.stable_holonomy_point(system, q, (0.3, 0.7))
    assert fm.torus_distance(img, (0.3, 0.7)) < 1e-12


def test_holder_family_holonomy_converges():
    system = holder_system()
    report = sl.fiber_bunching_margin(system, beta=1.0)
    assert report.satisfied
    x, y = stable_pair(system, 5, 0)
    q = sl.HolonomyQuery("stable", x, y)
    t = (0.3, 0.7)
    img, diag = sl.stable_holonomy_point(system, q, t)
    assert 0.0 < diag.fitted_theta < 1.0
    d = sl.distance(x, y)
    assert d == 1.0 / 16.0
    # displacement controlled by the Holder certificate times a bounded factor
    assert fm.torus_distance(img, t) <= system.family.holder_constant() * d
    m, mdiag = sl.linear_stable_holonomy(system, q, t)
    assert abs(fm.mat_det(m) - 1.0) < 1e-8
    assert mdiag.stopped_at <= 256


def test_holonomy_cocycle_check_defects():
    lc = twisted_cat_system()
    x, y = stable_pair(lc, 6, 0)
    q = sl.HolonomyQuery("stable", x, y)
    assert sl.holonomy_cocycle_check(lc, q, (0.2, 0.4)) < 1e-10

    system = holder_system()
    x, y = stable_pair(system, 7, 0)
    q = sl.HolonomyQuery("stable", x, y, tol=1e-9)
    assert sl.holonomy_cocycle_check(system, q, (0.2, 0.4)) < 1e-8


def test_holonomy_cocycle_check_adds_the_envelope_excess(monkeypatch):
    # diagnostics decaying from 1e-6 fit an envelope far below d(h(t), t),
    # so the check must add the excess to the equivariance defect
    system = holder_system()
    x, y = stable_pair(system, 7, 0)
    q = sl.HolonomyQuery("stable", x, y, tol=1e-9)
    t = (0.2, 0.4)
    h_t, _ = sl.stable_holonomy_point(system, q, t)
    equivariance = 0.0
    point, image = t, h_t
    for j in (1, 2, 3):
        point = system.fiber_map_at(x.shift(j - 1)).apply(point)[0]
        image = system.fiber_map_at(y.shift(j - 1)).apply(image)[0]
        qj = sl.HolonomyQuery("stable", x.shift(j), y.shift(j), tol=1e-9)
        direct, _ = sl.stable_holonomy_point(system, qj, point)
        equivariance = max(equivariance, fm.torus_distance(direct, image))
    assert sl.holonomy_cocycle_check(system, q, t) == pytest.approx(equivariance, abs=1e-15)

    small = ConvergenceDiagnostics([1e-6, 1e-7, 1e-8], 3)
    real = holonomy.stable_holonomy_point
    calls = []

    def first_with_small_diagnostics(sys, query, s):
        image, diag = real(sys, query, s)
        calls.append(s)
        return image, small if len(calls) == 1 else diag

    monkeypatch.setattr(holonomy, "stable_holonomy_point", first_with_small_diagnostics)
    theta = small.fitted_theta
    c = max(v / theta ** n for n, v in enumerate(small.increments))
    excess = fm.torus_distance(h_t, t) - c / (1.0 - theta)
    assert excess > 1e-4
    got = sl.holonomy_cocycle_check(system, q, t)
    assert got == pytest.approx(equivariance + excess, rel=1e-12)


def test_contraction_rate_locally_constant_is_zero():
    system = twisted_cat_system()
    x, y = stable_pair(system, 8, 0)
    q = sl.HolonomyQuery("stable", x, y)
    assert strong_stable_contraction_rate(system, q, (0.3, 0.7)) == 0.0


def test_contraction_rate_holder_family():
    system = holder_system()
    rates = []
    for k in range(20):
        x, y = stable_pair(system, 9, k)
        q = sl.HolonomyQuery("stable", x, y, tol=1e-10)
        r = strong_stable_contraction_rate(system, q, (0.31 + 0.01 * k, 0.7))
        if r > 0.0:
            rates.append(r)
    assert rates
    rates.sort()
    median = rates[len(rates) // 2]
    assert median <= 1.0 / 16.0 + 0.05


def _disjoint_twist_depth4_system():
    """Depth-4 family whose generators read only word positions 0 and 3."""
    ident = fm.ToralAutomorphism((1, 0, 0, 1))
    ta = fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5)
    tb = fm.LocalizedTwist((0.75, 0.75), 0.2, 1.0)
    space = sl.ShiftSpace(2)
    table = {
        w: fm.Composite([ta if w[0] else ident, tb if w[3] else ident])
        for w in sl.admissible_words(space, 4)
    }
    return sl.SkewSystem(space, bernoulli2(), sl.LocallyConstantFamily(4, table))


def test_locally_constant_depth4_unstable_holonomy_is_exact():
    # y differs from x = 0^inf at j = 1 only.  Backward step k reads the word
    # at [-k-1, 3-k), so steps k >= 2 agree and the holonomy is the finite
    # composition F_y,0 o F_y,1 o F_x,1^-1 o F_x,0^-1.  The first increment
    # is exactly 0 (step 0 applies the identity along both orbits), which
    # must not stop the truncation.
    system = _disjoint_twist_depth4_system()
    table = system.family.table
    x = sl.periodic_point(system.space, (0,))
    y = sl.BaseSequence(system.space, lambda j: int(j == 1))
    t = (0.7, 0.7)
    exact = t
    for k in range(3):
        exact = table[x.word(-k - 1, 3 - k)].inverse()(exact)
    for k in range(2, -1, -1):
        exact = table[y.word(-k - 1, 3 - k)](exact)
    assert fm.torus_distance(exact, t) > 0.05
    img, diag = sl.unstable_holonomy_point(system, sl.HolonomyQuery("unstable", x, y), t)
    assert diag.increments[0] == 0.0
    assert diag.stopped_at == 3
    assert fm.torus_distance(img, exact) < 1e-12


# k = 8, 32, 41, 83 diverge if Df^n_x(t) is paired with Df^n_y at an approximate h(t)
@pytest.mark.parametrize("k", range(100))
def test_linear_stable_holonomy_converges_on_holder_pairs(k):
    system = holder_system()
    x, y = stable_pair(system, 29, k)
    q = sl.HolonomyQuery("stable", x, y, tol=1e-9)
    t = sl.random_fiber_point(29, k, stream=2)
    m, _ = sl.linear_stable_holonomy(system, q, t)
    assert abs(fm.mat_det(m) - 1.0) < 1e-10


def _central_difference(system, q, t, h=1e-5):
    cols = []
    for du, dv in ((h, 0.0), (0.0, h)):
        plus, _ = sl.stable_holonomy_point(system, q, ((t[0] + du) % 1.0, (t[1] + dv) % 1.0))
        minus, _ = sl.stable_holonomy_point(system, q, ((t[0] - du) % 1.0, (t[1] - dv) % 1.0))
        delta = fm.torus_delta(plus, minus)
        cols.append((delta[0] / (2 * h), delta[1] / (2 * h)))
    return (cols[0][0], cols[1][0], cols[0][1], cols[1][1])


@pytest.mark.parametrize("k", [8, 32, 41, 83])
def test_linear_holonomy_matches_finite_differences(k):
    system = holder_system()
    x, y = stable_pair(system, 29, k)
    t = sl.random_fiber_point(29, k, stream=2)
    m, _ = sl.linear_stable_holonomy(system, sl.HolonomyQuery("stable", x, y), t)
    fd = _central_difference(system, sl.HolonomyQuery("stable", x, y, tol=1e-13), t)
    assert fm.mat_sub_norm(m, fd) < 1e-7


def test_linear_holonomy_below_rounding_floor_raises():
    # At tol 1e-10 the expanding products lose det 1 before the increments
    # settle; without the det guard this pair "converges" at n = 131 with
    # det - 1 = -52.
    system = holder_system()
    x, y = stable_pair(system, 29, 83)
    q = sl.HolonomyQuery("stable", x, y, tol=1e-10)
    with pytest.raises(NonConvergenceError, match="det - 1"):
        sl.linear_stable_holonomy(system, q, sl.random_fiber_point(29, 83, stream=2))


@pytest.mark.parametrize("make_system", [twisted_cat_system, golden_mean_system])
def test_locally_constant_linear_holonomy_answers_at_tight_tol(make_system):
    # Depth-1 LC holonomies are exactly I.  Below the rounding floor the det
    # guard must stop any truncation that drifts: every query raises or
    # answers within 1e-12 of I.  Unguarded, two of these pairs returned
    # entries of 1.8e19 and a matrix 2.7e-11 off I.
    system = make_system()
    must_raise = {
        golden_mean_system: ("unstable", 2),
        twisted_cat_system: ("stable", 5),
    }[make_system]
    raised = set()
    for k in range(40):
        for direction, pair in (("stable", stable_pair), ("unstable", unstable_pair)):
            x, y = pair(system, 29, k)
            q = sl.HolonomyQuery(direction, x, y, tol=1e-16)
            t = sl.random_fiber_point(29, k, stream=2)
            try:
                m, _ = sl.linear_stable_holonomy(system, q, t)
            except NonConvergenceError:
                raised.add((direction, k))
                continue
            assert fm.mat_sub_norm(m, fm.IDENTITY) < 1e-12
    assert must_raise in raised


def test_linear_holonomy_stops_on_its_own_increments():
    # At tol 1e-16 the points need 3 and 4 steps; the matrix is exactly the
    # identity from n = 1.  Running the matrix on until the point stops
    # amplifies rounding to entries of 1e3 and 7e24 on these pairs.
    system = twisted_cat_system()
    for k in (4, 9):
        x, y = unstable_pair(system, 29, k)
        q = sl.HolonomyQuery("unstable", x, y, tol=1e-16)
        t = sl.random_fiber_point(29, k, stream=2)
        _, diag = sl.stable_holonomy_point(system, q, t)
        m, mdiag = sl.linear_stable_holonomy(system, q, t)
        assert diag.stopped_at > 2
        assert mdiag.stopped_at == 1
        assert m == fm.IDENTITY


def _jets(system, q, pts):
    hu, hv, m = stable_holonomy_jets(system, q, *(np.array(c) for c in zip(*pts)))
    return list(zip(zip(hu.tolist(), hv.tolist()), zip(*(e.tolist() for e in m))))


@pytest.mark.parametrize(
    "make_system, tol", [(holder_system, 1e-9), (twisted_cat_system, 1e-16)]
)
def test_holonomy_jets_match_one_point_truncations(make_system, tol):
    # at tol 1e-16 the twisted cat's points and matrices stop at different n
    system = make_system()
    pts = [sl.random_fiber_point(29, j, stream=2) for j in range(30)]
    for k in (4, 9, 17):
        for direction, pair in (("stable", stable_pair), ("unstable", unstable_pair)):
            x, y = pair(system, 29, k)
            q = sl.HolonomyQuery(direction, x, y, tol=tol)
            answered, failed = [], []
            for t in pts:
                try:
                    t_y, m, _ = stable_holonomy_jet(system, q, t)
                    answered.append((t, (t_y, m)))
                except NonConvergenceError:
                    failed.append(t)
            assert _jets(system, q, [t for t, _ in answered]) == [w for _, w in answered]
            if failed:
                with pytest.raises(NonConvergenceError):
                    _jets(system, q, pts)


@pytest.mark.parametrize("n_max", [1, 3])
def test_holonomy_jets_report_non_convergence_as_one_point(n_max):
    system = holder_system()
    x, y = stable_pair(system, 29, 8)
    q = sl.HolonomyQuery("stable", x, y, n_max=n_max)
    pts = [sl.random_fiber_point(29, j, stream=2) for j in range(5)]
    with pytest.raises(NonConvergenceError) as one:
        stable_holonomy_jet(system, q, pts[0])
    with pytest.raises(NonConvergenceError) as many:
        _jets(system, q, pts)
    assert str(many.value) == str(one.value)
    assert many.value.diagnostics == one.value.diagnostics


class _SelfInverseStretch(fm.FiberMap):
    """The identity on points with the constant derivative (2, 0, 0, 1), posing
    as its own inverse, so that every linear truncation has det Dh = 4."""

    def apply(self, t):
        return t, (2.0, 0.0, 0.0, 1.0)

    def apply_many(self, u, v):
        return u, v, (2.0, 0.0, 0.0, 1.0)

    def inverse(self):
        return self


def test_holonomy_jets_report_constant_det_drift_as_one_point():
    # a constant derivative keeps the drift and the increments in floats
    f = _SelfInverseStretch()
    system = sl.SkewSystem(
        sl.ShiftSpace(2), bernoulli2(), sl.LocallyConstantFamily(1, {0: f, 1: f})
    )
    q = sl.HolonomyQuery("stable", *stable_pair(system, 29, 8))
    pts = [sl.random_fiber_point(29, j, stream=2) for j in range(5)]
    with pytest.raises(NonConvergenceError, match="det - 1 = 3") as one:
        stable_holonomy_jet(system, q, pts[0])
    with pytest.raises(NonConvergenceError) as many:
        _jets(system, q, pts)
    assert str(many.value) == str(one.value)
    assert many.value.diagnostics == one.value.diagnostics


@pytest.mark.parametrize(
    "make_system, k, tol, n_max, stops, fails",
    [
        (holder_system, 8, 1e-8, 8, 9, 1),  # the matrix of point 1 is open at n_max
        (twisted_cat_system, 2, 1e-16, 3, 0, 2),  # the image of point 2 is open
    ],
)
def test_holonomy_jets_name_the_first_open_point(make_system, k, tol, n_max, stops, fails):
    # the first point stops before n_max; the error is the one-point
    # truncation's of the first point still open there
    system = make_system()
    x, y = stable_pair(system, 29, k)
    q = sl.HolonomyQuery("stable", x, y, tol=tol, n_max=n_max)
    pts = [sl.random_fiber_point(29, j, stream=2) for j in (stops, fails, fails + 1)]
    _, diag = sl.stable_holonomy_point(system, q, pts[0])
    _, _, m_diag = stable_holonomy_jet(system, q, pts[0])
    assert max(diag.stopped_at, m_diag.stopped_at) < n_max
    with pytest.raises(NonConvergenceError) as one:
        stable_holonomy_jet(system, q, pts[1])
    with pytest.raises(NonConvergenceError) as many:
        _jets(system, q, pts)
    assert "within n_max=%d" % n_max in str(one.value)
    assert str(many.value) == str(one.value)
    assert many.value.diagnostics == one.value.diagnostics
