"""Torus fiber maps: exact derivatives, inverses, and the localized twist."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import skewlab.fiber_maps as fm
from skewlab.errors import ConfigurationError

from _common import CAT, cat_map


def random_points(n, seed=0):
    return [fm.random_point(seed, 0, i) for i in range(n)]


MAP_KINDS = [
    cat_map(),
    fm.ToralAutomorphism((1, 1, 0, 1)),
    fm.StandardMap(1.5),
    fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5),
    fm.Composite([cat_map(), fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5)]),
]


EDGE_TWIST = fm.LocalizedTwist((0.97, 0.02), 0.2, -1.1)  # support wraps both edges
BATCH_KINDS = MAP_KINDS + [f.inverse() for f in MAP_KINDS] + [
    EDGE_TWIST,
    fm.Composite([fm.StandardMap(0.8), EDGE_TWIST, fm.ToralAutomorphism((1, 0, 1, 1))]),
]


def _boundary_points(tw, n_angles=24):
    """Points on and a few ulps either side of the twist's support circle."""
    reach = fm.BUMP_SUPPORT * tw.radius
    pts = []
    for k in range(n_angles):
        theta = 2.0 * math.pi * k / n_angles
        for scale in (1.0 - 4e-16, 1.0 - 1e-16, 1.0, 1.0 + 1e-16, 1.0 + 4e-16):
            r = reach * scale
            pts.append(((tw.center[0] + r * math.cos(theta)) % 1.0,
                        (tw.center[1] + r * math.sin(theta)) % 1.0))
    return pts


def _assert_apply_many_matches(f, pts):
    u = np.array([t[0] for t in pts], dtype=float)
    v = np.array([t[1] for t in pts], dtype=float)
    out = [f.apply(t) for t in pts]
    got_u, got_v, got_d = f.apply_many(u, v)
    want = [[t[0] for t, _ in out], [t[1] for t, _ in out]]
    want += [[d[k] for _, d in out] for k in range(4)]
    # image coordinates are arrays; a derivative entry may be a float shared
    # by every point.  Bit patterns, so that 0.0 and -0.0 differ too
    assert got_u.shape == got_v.shape == (len(pts),)
    got_d = [np.broadcast_to(d, (len(pts),)) for d in got_d]
    for got, w in zip((got_u, got_v, *got_d), want):
        assert got.tobytes() == np.array(w, dtype=float).tobytes()


unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@pytest.mark.parametrize("f", BATCH_KINDS, ids=lambda f: f.kind)
@given(st.lists(st.tuples(unit, unit), max_size=40))
def test_apply_many_matches_apply_bit_for_bit(f, pts):
    _assert_apply_many_matches(f, pts)


@pytest.mark.parametrize("f", BATCH_KINDS, ids=lambda f: f.kind)
def test_apply_many_matches_apply_on_twist_support_boundaries(f):
    pts = _boundary_points(MAP_KINDS[3]) + _boundary_points(EDGE_TWIST)
    pts += random_points(500, seed=4)
    _assert_apply_many_matches(f, pts)


def test_toral_apply_many_returns_its_matrix_as_floats():
    u, v = fm.grid_points(3)
    shear = fm.ToralAutomorphism((1, 1, 0, 1))
    for f in (cat_map(), cat_map().inverse(), fm.Composite([cat_map(), shear])):
        fu, fv, d = f.apply_many(u, v)
        assert fu.shape == fv.shape == u.shape
        assert [type(e) for e in d] == [float] * 4
    assert cat_map().apply_many(u, v)[2] == cat_map().matrix == (2.0, 1.0, 1.0, 1.0)


class _Stretch(fm.FiberMap):
    """The identity on points with the constant derivative (2, 0, 0, 1): det 2."""

    def apply(self, t):
        return t, (2.0, 0.0, 0.0, 1.0)

    def apply_many(self, u, v):
        return u, v, (2.0, 0.0, 0.0, 1.0)


def test_max_det_defect_broadcasts_a_constant_derivative():
    empty = np.empty(0)
    assert fm.max_det_defect(cat_map(), empty, empty) == 0.0
    assert fm.max_det_defect(_Stretch(), empty, empty) == 0.0
    assert fm.max_det_defect(_Stretch(), *fm.grid_points(2)) == 1.0


def test_elementwise_on_scalars_is_the_math_function():
    for fn, args in (
        (math.hypot, (3.0, 4.0)),
        (math.atan2, (-0.5, 0.25)),
        (math.log, (np.float64(2.5),)),
    ):
        got = fm.elementwise(fn, *args)
        assert got == fn(*args) and type(got) is float


def test_twist_boundary_points_straddle_the_support():
    for tw in (MAP_KINDS[3], EDGE_TWIST):
        moved = [tw.apply(t)[1] is not fm.IDENTITY for t in _boundary_points(tw)]
        assert any(moved) and not all(moved)


def test_toral_fixed_point():
    img, d = cat_map().apply((0.0, 0.0))
    assert img == (0.0, 0.0)
    assert d == (2.0, 1.0, 1.0, 1.0)


def test_toral_inverse_matrix():
    inv = cat_map().inverse()
    assert inv.matrix == (1.0, -1.0, -1.0, 2.0)


def test_toral_rejects_non_unimodular():
    with pytest.raises(ConfigurationError):
        fm.ToralAutomorphism((2, 0, 0, 2))
    with pytest.raises(ConfigurationError):
        fm.ToralAutomorphism((1, 0, 0))
    with pytest.raises(ConfigurationError, match="integer entries"):
        fm.ToralAutomorphism((2.5, 1, 1, 1))  # int() would make it the cat map


def test_standard_map_at_origin():
    K = 1.3
    img, d = fm.StandardMap(K).apply((0.0, 0.0))
    assert img == (0.0, 0.0)
    assert d == (1.0 + K, 1.0, K, 1.0)
    assert abs(fm.mat_det(d) - 1.0) < 1e-15


@pytest.mark.parametrize("f", MAP_KINDS, ids=lambda f: f.kind)
def test_inverse_round_trip(f):
    g = f.inverse()
    worst = 0.0
    for t in random_points(1000):
        img, _ = f.apply(t)
        back, _ = g.apply(img)
        worst = max(worst, fm.torus_distance(back, t))
    assert worst < 1e-10


@pytest.mark.parametrize("f", MAP_KINDS, ids=lambda f: f.kind)
def test_inverse_derivative_consistency(f):
    g = f.inverse()
    for t in random_points(300):
        img, d = f.apply(t)
        _, dinv = g.apply(img)
        assert fm.mat_sub_norm(fm.mat_mul(d, dinv), fm.IDENTITY) < 1e-10


@pytest.mark.parametrize("f", MAP_KINDS, ids=lambda f: f.kind)
def test_area_preservation(f):
    assert fm.area_preservation_defect(f, 1000, seed=1) < 1e-12


def _scalar_area_preservation_defect(f, n_samples, seed):
    worst = 0.0
    for i in range(n_samples):
        _, d = f.apply(fm.random_point(seed, 0, i))
        defect = abs(fm.mat_det(d) - 1.0)
        if defect > worst:
            worst = defect
    return worst


@pytest.mark.parametrize("f", BATCH_KINDS, ids=lambda f: f.kind)
def test_area_preservation_defect_matches_scalar_reference(f):
    for n_samples, seed in ((1, 0), (37, 5), (1000, 1)):
        got = fm.area_preservation_defect(f, n_samples, seed)
        assert got == _scalar_area_preservation_defect(f, n_samples, seed)


@pytest.mark.parametrize("side", [0, 1, 2, 7])
def test_grid_points_are_cell_centres_u_slowest(side):
    u, v = fm.grid_points(side)
    want = [((i + 0.5) / side, (j + 0.5) / side) for i in range(side) for j in range(side)]
    assert u.dtype == v.dtype == np.float64
    assert list(zip(u.tolist(), v.tolist())) == want


@pytest.mark.parametrize("grid, n_random", [(0, 0), (0, 5), (3, 0), (4, 9)])
@pytest.mark.parametrize("seed, stream_id", [(0, 1), (7, 1003)])
def test_sample_points_are_grid_then_random_points(grid, n_random, seed, stream_id):
    u, v = fm.sample_points(grid, n_random, seed, stream_id)
    want = [((i + 0.5) / grid, (j + 0.5) / grid) for i in range(grid) for j in range(grid)]
    want += [fm.random_point(seed, stream_id, i) for i in range(n_random)]
    assert u.shape == v.shape == (grid * grid + n_random,)
    assert list(zip(u.tolist(), v.tolist())) == want


@pytest.mark.parametrize("f", MAP_KINDS, ids=lambda f: f.kind)
def test_derivative_matches_finite_differences(f):
    h = 1e-6
    for t in random_points(200, seed=2):
        _, d = f.apply(t)
        cols = []
        for du, dv in ((h, 0.0), (0.0, h)):
            plus, _ = f.apply(((t[0] + du) % 1.0, (t[1] + dv) % 1.0))
            minus, _ = f.apply(((t[0] - du) % 1.0, (t[1] - dv) % 1.0))
            delta = fm.torus_delta(plus, minus)
            cols.append((delta[0] / (2 * h), delta[1] / (2 * h)))
        fd = (cols[0][0], cols[1][0], cols[0][1], cols[1][1])
        assert fm.mat_sub_norm(d, fd) < 1e-4


def test_composite_identity_pair():
    f = fm.StandardMap(1.5)
    c = fm.Composite([f, f.inverse()])
    for t in random_points(100):
        img, d = c.apply(t)
        assert fm.torus_distance(img, t) < 1e-10
        assert fm.mat_sub_norm(d, fm.IDENTITY) < 1e-10


def test_composite_chain_rule():
    f, g = cat_map(), fm.StandardMap(0.7)
    c = fm.Composite([f, g])
    for t in random_points(50):
        mid, dg = g.apply(t)
        img, df = f.apply(mid)
        cimg, cd = c.apply(t)
        assert fm.torus_distance(cimg, img) < 1e-14
        assert fm.mat_sub_norm(cd, fm.mat_mul(df, dg)) < 1e-12


def test_composite_empty_rejected():
    with pytest.raises(ConfigurationError):
        fm.Composite([])


def test_twist_identity_outside_support_bit_exact():
    tw = fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5)
    support = 2.0 / 3.0 * 0.2
    for t in random_points(2000, seed=3):
        if fm.torus_distance(t, (0.25, 0.25)) >= support:
            img, d = tw.apply(t)
            assert img == t  # bit-exact identity
            assert d is fm.IDENTITY


def test_twist_plateau_is_rigid_rotation():
    T = 0.8
    tw = fm.LocalizedTwist((0.25, 0.25), 0.2, T)
    rot = (math.cos(T), -math.sin(T), math.sin(T), math.cos(T))
    # derivative at the center itself and anywhere in the plateau s <= 1/3
    for r in (0.0, 0.01, 0.06):
        t = (0.25 + r, 0.25)
        _, d = tw.apply(t)
        assert fm.mat_sub_norm(d, rot) < 1e-12


def test_twist_det_on_grid():
    tw = fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5)
    worst = 0.0
    for i in range(100):
        for j in range(100):
            _, d = tw.apply(((i + 0.5) / 100, (j + 0.5) / 100))
            worst = max(worst, abs(fm.mat_det(d) - 1.0))
    assert worst < 1e-12


def test_twist_inverse_is_angle_negation():
    tw = fm.LocalizedTwist((0.1, 0.9), 0.15, 0.4)
    inv = tw.inverse()
    assert isinstance(inv, fm.LocalizedTwist)
    assert inv.angle == -0.4
    assert inv.center == tw.center and inv.radius == tw.radius


def test_twist_radius_validation():
    with pytest.raises(ConfigurationError):
        fm.LocalizedTwist((0.5, 0.5), 0.3, 0.5)
    with pytest.raises(ConfigurationError):
        fm.LocalizedTwist((0.5, 0.5), 0.0, 0.5)
    # a non-finite angle or centre built a map that sent the disc to nan
    nan, inf = float("nan"), float("inf")
    for center, angle, name in [((0.5, 0.5), nan, "angle"), ((0.5, 0.5), inf, "angle"),
                                ((inf, 0.5), 0.5, "center_u"), ((0.5, nan), 0.5, "center_v")]:
        with pytest.raises(ConfigurationError, match="^%s must be finite" % name):
            fm.LocalizedTwist(center, 0.2, angle)


def test_bump_profile_shape():
    assert fm.bump(0.0) == (1.0, 0.0)
    assert fm.bump(1.0 / 3.0) == (1.0, 0.0)
    assert fm.bump(2.0 / 3.0) == (0.0, 0.0)
    assert fm.bump(0.9) == (0.0, 0.0)
    vals = [fm.bump(s)[0] for s in np.linspace(0.34, 0.66, 50)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


@given(st.floats(min_value=0.35, max_value=0.65))
def test_bump_profile_slope_matches_finite_difference(s):
    h = 1e-7
    v, slope = fm.bump(s)
    fd = (fm.bump(s + h)[0] - fm.bump(s - h)[0]) / (2 * h)
    assert abs(slope - fd) < 1e-4 * max(1.0, abs(slope))


matrix_entries = st.floats(min_value=-10, max_value=10)


@given(matrix_entries, matrix_entries, matrix_entries, matrix_entries)
def test_mat_norms_match_numpy_svd(a, b, c, d):
    m = (a, b, c, d)
    sv = np.linalg.svd(np.array([[a, b], [c, d]]), compute_uv=False)
    # the closed form cancels to ~sqrt(eps) accuracy near equal singular values
    tol = 1e-7 * (1.0 + sv[0])
    assert abs(fm.mat_norm(m) - sv[0]) < tol
    assert abs(fm.mat_conorm(m) - sv[1]) < tol


def test_torus_distance_wraps():
    assert fm.torus_distance((0.05, 0.5), (0.95, 0.5)) == pytest.approx(0.1)
    assert fm.torus_distance((0.2, 0.3), (0.2, 0.3)) == 0.0
