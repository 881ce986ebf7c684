"""Holonomies: bunching margins, truncation convergence, algebra axioms."""

import math
import tracemalloc

import numpy as np
import pytest

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.errors import ConfigurationError, NonConvergenceError
import skewlab.holonomy as holonomy
import skewlab.skew as skew
from skewlab.holonomy import (
    BunchingReport,
    ConvergenceDiagnostics,
    holonomy_walk,
    stable_holonomy_jet,
    stable_holonomy_jets,
)
from skewlab.skew import orbit_maps

from _common import (
    bernoulli2,
    cat_system,
    contraction_rate,
    depth4_system,
    golden_mean_system,
    holder_system,
    mat_conorm,
    rotation_system,
    stable_pair,
    twisted_cat_system,
    unstable_pair,
    word,
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
            sl.fiber_bunching_margin(system, beta=1.0, fiber_grid=0, n_fiber=0)
    # a locally constant family evaluates every generator whatever n_base is
    report = sl.fiber_bunching_margin(cat_system(metric_base=0.5), beta=1.0, n_base=0)
    assert report.worst_margin == pytest.approx(CAT_RATIO * 0.5, rel=1e-9)


def _scalar_row_sups(sys, n_base=50, n_fiber=200, fiber_grid=16, seed=0):
    """fiber_bunching_margin's sups one fiber point at a time (the reference).

    One row per base point, [(sup ||Df||, inf m(Df)) of f, the same of f^-1],
    and the number of fibre points.
    """
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
    side = fiber_grid
    pts = [((i + 0.5) / side, (j + 0.5) / side) for i in range(side) for j in range(side)]
    pts.extend(sl.random_fiber_point(seed, i, stream=3) for i in range(n_fiber))
    rows = []
    for x in base_points:
        row = []
        for f in next(orbit_maps(sys, x, n=1)):
            sup_norm = 0.0
            inf_conorm = math.inf
            for t in pts:
                _, d = f.apply(t)
                sup_norm = max(sup_norm, fm.mat_norm(d))
                inf_conorm = min(inf_conorm, mat_conorm(d))
            row.append((sup_norm, inf_conorm))
        rows.append(row)
    return rows, len(pts)


def _scalar_bunching_margin(sys, beta, **kw):
    """fiber_bunching_margin one fiber point at a time (the reference)."""
    rows, n_fiber = _scalar_row_sups(sys, **kw)
    worst = 0.0
    for row in rows:
        for sup_norm, inf_conorm in row:
            worst = max(worst, sup_norm / inf_conorm * sys.space.metric_base ** beta)
    return BunchingReport(beta, worst, worst < 1.0, {"n_base": len(rows), "n_fiber": n_fiber})


BUNCHING_SYSTEMS = [
    twisted_cat_system, rotation_system, golden_mean_system, holder_system,
    lambda: holder_system(metric_base=0.5, eps=0.3), depth4_system,
]


@pytest.mark.parametrize("make_system", BUNCHING_SYSTEMS)
def test_bunching_margin_matches_scalar_reference(make_system, monkeypatch):
    system = make_system()
    cases = [(1.0, {}), (0.7, dict(n_base=7, n_fiber=31, fiber_grid=5, seed=4))]
    # base points at which the default 16 x 16 grid and 200 random points first split
    split = skew._FIBER_CELLS // (16 * 16 + 200)
    cases += [(1.0, dict(n_base=n)) for n in (1, split, split + 1)]
    # fibre samples one short of, equal to and one past a chunk of the default base sample
    n_base = sl.fiber_bunching_margin(system, 1.0).sample_counts["n_base"]
    chunk = skew._FIBER_CELLS // n_base
    cases += [(1.0, dict(fiber_grid=0, n_fiber=n)) for n in (chunk - 1, chunk, chunk + 1)]
    for beta, kw in cases:
        report = sl.fiber_bunching_margin(system, beta, **kw)
        assert report == _scalar_bunching_margin(system, beta, **kw)
    # more base points than cells: one fibre point per step
    monkeypatch.setattr(skew, "_FIBER_CELLS", 1)
    kw = dict(n_base=7, n_fiber=4, fiber_grid=3)
    assert sl.fiber_bunching_margin(system, 1.0, **kw) == _scalar_bunching_margin(system, 1.0, **kw)


@pytest.mark.parametrize("cells", [skew._FIBER_CELLS, 1])
@pytest.mark.parametrize("make_system", BUNCHING_SYSTEMS)
def test_bunching_row_sups_match_each_base_points_scalar_sups(make_system, cells, monkeypatch):
    """Every base point's sup and inf of f and f^-1, before the worst margin is taken.

    ``_row_sups`` runs on the keys and fibre chunks of ``fiber_bunching_margin``
    with a running maximum of the norm and minimum of the conorm per base
    point, each compared by ``==`` with the one-point extrema of the reference.
    """
    monkeypatch.setattr(skew, "_FIBER_CELLS", cells)
    system = make_system()
    base_points = skew.generator_base_points(system, 50, 0, 23)
    u, v = fm.sample_points(16, 200, 0, 1003)
    keys = next(skew.orbit_keys(system, base_points, 1))
    sups = np.zeros((2, 2, len(keys)))
    sups[:, 1] = np.inf
    for cu, cv in skew.fiber_chunks(len(keys), u, v):
        for inverse, (sup, inf) in zip((False, True), sups):
            norms, conorms = holonomy._row_sups(system.family.apply_many(keys, cu, cv, inverse)[2])
            np.maximum(sup, norms, out=sup)
            np.minimum(inf, conorms, out=inf)
    rows, n_fiber = _scalar_row_sups(system)
    assert n_fiber == len(u) and len(rows) == len(base_points)
    for i, row in enumerate(rows):
        got = [tuple(sups[inverse, :, i].tolist()) for inverse in (0, 1)]
        assert got == row, i


def _pairwise_bunching_margin(sys, beta=1.0):
    """The bunching margin from its definition, one base and one fibre point at a time.

    For each base point and for f and f^-1, sup over fibre points t of
    ||Df(t)|| times sup over t of ||Df(t)^-1||, the inverse's norm taken
    from the adjugate, times lambda^beta: the sup over every pair xi, eta of
    ||Df(xi)|| ||Df(eta)^-1|| lambda^beta that the bunching inequality bounds.
    """
    pts = list(zip(*(c.tolist() for c in fm.sample_points(16, 200, 0, 1003))))
    worst = 0.0
    for x in skew.generator_base_points(sys, 50, 0, 23):
        for f in next(orbit_maps(sys, x, n=1)):
            sup_norm = sup_inverse_norm = 0.0
            for t in pts:
                a, b, c, d = f.apply(t)[1]
                sup_norm = max(sup_norm, fm.mat_norm((a, b, c, d)))
                inverse_norm = fm.mat_norm((d, -b, -c, a)) / abs(a * d - b * c)
                sup_inverse_norm = max(sup_inverse_norm, inverse_norm)
            worst = max(worst, sup_norm * sup_inverse_norm * sys.space.metric_base ** beta)
    return worst


@pytest.mark.parametrize(
    "make_system", BUNCHING_SYSTEMS + [lambda: holder_system(metric_base=0.25)]
)
def test_bunching_margin_bounds_every_pair_of_fibre_points(make_system):
    """The margin is sup ||Df|| / inf m(Df) lambda^beta, not sup ||Df|| / sup m(Df).

    At metric_base 0.25 the Hölder system's ||Df|| varies enough over the
    fibre that dividing by the sup of m(Df) reported 0.76, satisfied, where
    the pairs reach 1.16.
    """
    system = make_system()
    report = sl.fiber_bunching_margin(system, beta=1.0)
    expected = _pairwise_bunching_margin(system)
    assert report.worst_margin == pytest.approx(expected, rel=1e-12)
    assert report.satisfied == (expected < 1.0)


def _bunching_peaks(system, runs):
    peaks = []
    for kw in runs:
        tracemalloc.start()
        try:
            sl.fiber_bunching_margin(system, 1.0, **kw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_bunching_margin_memory_does_not_grow_with_n_base():
    """Base points go through the array steps a chunk of fibre points at a time."""
    # at once, 400 x 456 points would peak near 8x
    peaks = _bunching_peaks(holder_system(), [dict(n_base=50), dict(n_base=400)])
    assert peaks[1] < 3 * peaks[0], peaks


def test_bunching_margin_memory_does_not_grow_with_the_fiber_sample():
    """Fibre points go through the array steps in chunks, not all at once."""
    # at once, 50 x 4,296 points would peak near 9x
    peaks = _bunching_peaks(holder_system(), [dict(fiber_grid=16), dict(fiber_grid=64)])
    assert peaks[1] < 2 * peaks[0], peaks


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
    assert contraction_rate(system, q, (0.3, 0.7)) == 0.0


def test_contraction_rate_holder_family():
    system = holder_system()
    rates = []
    for k in range(20):
        x, y = stable_pair(system, 9, k)
        q = sl.HolonomyQuery("stable", x, y, tol=1e-10)
        r = contraction_rate(system, q, (0.31 + 0.01 * k, 0.7))
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
        exact = table[word(x, -k - 1, 3 - k)].inverse()(exact)
    for k in range(2, -1, -1):
        exact = table[word(y, -k - 1, 3 - k)](exact)
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


def _jets(system, q, pts, kept=None):
    """``stable_holonomy_jets`` at the points, as a list of (h(t), Dh(t)) pairs.

    A constant matrix comes back as four floats, spread here over the points.
    """
    uv = (np.array([t[c] for t in pts], dtype=float) for c in (0, 1))
    hu, hv, m = stable_holonomy_jets(system, q, *uv, holonomy_walk(system, q), kept)
    m = (np.broadcast_to(e, hu.shape) for e in m)
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


def _offsets_near(tol, n=400, ulps=4):
    """Offsets (du, dv) whose length is within a few ulps of tol, on both sides.

    Points on the circle of radius tol, scaled by 1 + k 2^-52 for |k| <= ulps,
    each also with one coordinate moved one ulp up or down.
    """
    angle = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    scale = 1.0 + np.arange(-ulps, ulps + 1)[:, None] * 2.0 ** -52
    du, dv = (np.ravel(tol * fn(angle) * scale) for fn in (np.cos, np.sin))
    return (
        np.concatenate([du, np.nextafter(du, 1.0), np.nextafter(du, -1.0), du]),
        np.concatenate([dv, dv, dv, np.nextafter(dv, 1.0)]),
    )


# 1.5e-154 squares to just above the smallest normal float, 1e-160 to a subnormal
@pytest.mark.parametrize("tol", [1e-9, 1e-16, 0.3, 1.5e-154, 1e-160])
def test_squared_offset_stop_matches_hypot_near_tol(tol):
    du, dv = _offsets_near(tol)
    want = np.array([math.hypot(a, b) < tol for a, b in zip(du.tolist(), dv.tolist())])
    # both sides of tol are there, and the rounded square alone misjudges some
    assert 0 < want.sum() < len(want)
    assert ((du * du + dv * dv < tol * tol) != want).any()
    assert holonomy._below(du, dv, tol).tolist() == want.tolist()
    # the stop rules on steps of such offsets, against each point's scalar
    # rule: locally constant at depth 1 and 4, and the Hölder two in a row
    rng = np.random.default_rng(11)
    steps = [rng.permutation(len(du))[:300] for _ in range(4)]  # point k's offset: s[k]
    for system in (twisted_cat_system(), depth4_system(), holder_system()):
        for n in range(1, len(steps) + 1):
            got = holonomy._stop_ok(system, [holonomy._below(du[s], dv[s], tol) for s in steps[:n]])
            one = [holonomy._stop_ok(system, [bool(want[s[k]]) for s in steps[:n]]) for k in range(300)]
            assert got.tolist() == one


def _first_failing(system, q, pts):
    """The one-point truncation's error at the first of pts whose truncation fails."""
    for t in pts:
        try:
            stable_holonomy_jet(system, q, t)
        except NonConvergenceError as exc:
            return exc
    raise AssertionError("every point converged")


def _count_norms(monkeypatch):
    """A list that records each ``mat_norm`` and ``mat_norms`` call from now on."""
    calls = []
    for name in ("mat_norm", "mat_norms"):
        real = getattr(fm, name)
        monkeypatch.setattr(fm, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    return calls


def test_kept_linear_part_reports_an_open_point_as_one_point(monkeypatch):
    # at tol 1e-16 and n_max 1 the matrix stops at n = 1, exactly I; dyadic
    # points come back exactly and stop there too, random ones need 3 or 4 steps
    system = twisted_cat_system()
    q = sl.HolonomyQuery("unstable", *unstable_pair(system, 29, 4), tol=1e-16, n_max=1)
    kept = []
    dyadic = [(0.5, 0.25), (0.125, 0.75), (0.0, 0.375)]
    assert _jets(system, q, dyadic, kept=kept) == [(t, fm.IDENTITY) for t in dyadic]
    assert kept == [(fm.IDENTITY, None)]
    pts = dyadic + [sl.random_fiber_point(29, j, stream=2) for j in range(5)]
    one = _first_failing(system, q, pts)
    calls = _count_norms(monkeypatch)
    with pytest.raises(NonConvergenceError) as many:
        _jets(system, q, pts, kept=kept)
    assert calls == []  # no linear truncation ran
    assert "within n_max=1" in str(one) and str(many.value) == str(one)
    assert many.value.diagnostics == one.diagnostics


def test_kept_linear_part_raises_the_det_guard_as_one_point(monkeypatch):
    f = _SelfInverseStretch()
    system = sl.SkewSystem(
        sl.ShiftSpace(2), bernoulli2(), sl.LocallyConstantFamily(1, {0: f, 1: f})
    )
    q = sl.HolonomyQuery("stable", *stable_pair(system, 29, 8))
    pts = [sl.random_fiber_point(29, j, stream=2) for j in range(5)]
    with pytest.raises(NonConvergenceError, match="det - 1 = 3") as one:
        stable_holonomy_jet(system, q, pts[0])
    kept, calls = [], None
    for _ in range(2):  # the first call settles the matrix, the second takes it as kept
        with pytest.raises(NonConvergenceError) as many:
            _jets(system, q, pts, kept=kept)
        assert str(many.value) == str(one.value)
        assert many.value.diagnostics == one.value.diagnostics
        assert len(kept) == 1 and not calls
        calls = _count_norms(monkeypatch)
    # no point, no error: as the truncation that walks them
    assert _jets(system, q, [], kept=kept) == _jets(system, q, []) == []
