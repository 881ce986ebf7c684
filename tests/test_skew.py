"""Skew products: families, cocycle iteration, C1 distance, Holder data."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.errors import ConfigurationError
import skewlab.skew as skew
from skewlab.skew import fiber_c1_distance, orbit_batch, orbit_maps

from _common import (
    LOG_CAT,
    SHEAR_LO,
    SHEAR_UP,
    bernoulli2,
    cat_map,
    cat_system,
    depth4_system,
    golden_mean_system,
    holder_system,
    identity_map,
    lc_system,
    scalar_iterate_cocycle,
    scalar_parameter,
    twisted_cat_system,
)


def test_fiber_map_at_depth1():
    a, b = cat_map(), fm.StandardMap(1.0)
    system = lc_system(a, b)
    x = sl.periodic_point(system.space, (1,))
    assert system.fiber_map_at(x) is b
    assert system.fiber_map_at(sl.periodic_point(system.space, (0,))) is a


def test_fiber_map_at_depth2():
    space = sl.ShiftSpace(2)
    maps = {w: fm.StandardMap(0.1 * k) for k, w in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)])}
    system = sl.SkewSystem(space, bernoulli2(), sl.LocallyConstantFamily(2, maps))
    x = sl.periodic_point(space, (0, 1))
    assert system.fiber_map_at(x) is maps[(0, 1)]
    assert system.fiber_map_at(x.shift(1)) is maps[(1, 0)]


def test_holder_family_zero_weight_is_constant():
    system = holder_system(eps=0.0)
    x = sl.sample_sequence(system.space, system.measure, 1, 0)
    y = sl.sample_sequence(system.space, system.measure, 1, 1)
    assert system.family.parameter(x) == system.family.parameter(y) == 0.5


@pytest.mark.parametrize(
    "bad, name",
    [
        (dict(K0=float("nan")), "K0"), (dict(eps=float("inf")), "eps"),
        (dict(alpha=-1.0), "alpha"), (dict(alpha=0.0), "alpha"),
        (dict(alpha=float("nan")), "alpha"), (dict(alpha=1e-300), "alpha"),
        (dict(window=-3), "window"), (dict(window=2.5), "window"),
        (dict(window=float("nan")), "window"),
    ],
)
def test_holder_family_rejects_bad_values(bad, name):
    # these built a family with nan parameters, a reach of (3, -3), or a
    # holder_constant dividing by zero
    args = dict(K0=0.5, eps=0.05, alpha=1.0, window=16)
    with pytest.raises(ConfigurationError, match="^%s must" % name):
        sl.HolderFamily(space=sl.ShiftSpace(2), **{**args, **bad})


def test_holder_family_window_zero_reads_one_symbol():
    family = sl.HolderFamily(0.5, 0.05, 1.0, sl.ShiftSpace(2), window=0)
    assert family.reach == (0, 0)
    x = sl.periodic_point(sl.ShiftSpace(2), (1, 0))
    assert family.parameter(x) == 0.5 + 0.05 * 1.0
    assert family.parameter(x.shift(1)) == 0.5 - 0.05 * 1.0


def test_missing_table_entry_errors():
    space = sl.ShiftSpace(2)
    family = sl.LocallyConstantFamily(1, {0: cat_map()})
    system = sl.SkewSystem(space, bernoulli2(), family)
    with pytest.raises(ConfigurationError):
        system.fiber_map_at(sl.periodic_point(space, (1,)))
    x = sl.periodic_point(space, (0, 0, 1))
    u = np.zeros(1)
    with pytest.raises(ConfigurationError, match=r"no generator for word \(1,\)"):
        list(orbit_batch(system, [x], u, u, 5))


def test_iterate_cocycle_n_zero():
    system = cat_system()
    x = sl.periodic_point(system.space, (0,))
    res = sl.iterate_cocycle(system, x, (0.3, 0.7), 0)
    assert res.end_point == (0.3, 0.7)
    assert res.log_norm == 0.0


@pytest.mark.parametrize("chunk", [skew._MAX_CHUNK, 7])
@pytest.mark.parametrize(
    "make_system",
    [twisted_cat_system, golden_mean_system, depth4_system, holder_system],
    ids=["twisted-cat", "golden-mean", "lc-depth4", "holder"],
)
def test_iterate_cocycle_matches_per_symbol_walk(make_system, chunk, monkeypatch):
    """Window reads meet the maps a walk reading one symbol at a time meets."""
    monkeypatch.setattr(skew, "_MAX_CHUNK", chunk)
    system = make_system()
    t = (0.3, 0.7)
    shared = sl.sample_sequence(system.space, system.measure, 29, 0)
    for n in (1, 64, -1, 300, -300, 700):
        x = sl.sample_sequence(system.space, system.measure, 29, 1 + abs(n))
        fresh = sl.iterate_cocycle(system, x, t, n)
        want = scalar_iterate_cocycle(system, x, t, n)  # warms x's cached blocks
        assert fresh == want, n
        assert sl.iterate_cocycle(system, x, t, n) == want, n
        # shared is warmed only as far as earlier walks reached: partly cached windows
        assert sl.iterate_cocycle(system, shared, t, n) == scalar_iterate_cocycle(
            system, shared, t, n
        ), n


def test_iterate_cocycle_cat_exponent():
    system = cat_system()
    x = sl.periodic_point(system.space, (0,))
    res = sl.iterate_cocycle(system, x, (0.3, 0.7), 100)
    assert abs(res.log_norm / 100 - LOG_CAT) < 1e-3


def test_iterate_cocycle_shear_subexponential():
    shear = fm.ToralAutomorphism(SHEAR_UP)
    system = lc_system(shear, shear)
    x = sl.periodic_point(system.space, (0,))
    n = 10000
    res = sl.iterate_cocycle(system, x, (0.3, 0.7), n)
    assert res.log_norm / n < 2e-3
    # oracle: S^n = [[1, n], [0, 1]] exactly
    assert abs(res.log_norm - math.log(fm.mat_norm((1.0, float(n), 0.0, 1.0)))) < 1e-6


def test_renormalization_bookkeeping_is_exact(monkeypatch):
    system = cat_system()
    x = sl.periodic_point(system.space, (0, 1))
    t = (0.21, 0.43)
    n = 500
    ref = sl.iterate_cocycle(system, x, t, n)
    # block size is capped so the raw product stays in floating range
    for renorm in (1, 7, 50, 100):
        monkeypatch.setattr(skew, "RENORM_EVERY", renorm)
        res = sl.iterate_cocycle(system, x, t, n)
        assert abs(res.log_norm - ref.log_norm) < 1e-8 * n
        assert fm.torus_distance(res.end_point, ref.end_point) < 1e-12


def test_inverse_duality():
    # det = 1 makes ||P^{-1}|| = ||P||: the inverse cocycle along the
    # forward image must report the same log norm
    system = cat_system()
    x = sl.sample_sequence(system.space, system.measure, 17, 0)
    t = (0.37, 0.58)
    n = 1000
    fwd = sl.iterate_cocycle(system, x, t, n)
    bwd = sl.iterate_cocycle(system, x.shift(n), fwd.end_point, -n)
    assert abs(fwd.log_norm - bwd.log_norm) < 1e-6
    assert fm.torus_distance(bwd.end_point, t) < 1e-8


def test_det_defect_stays_small():
    system = holder_system(metric_base=0.5)
    x = sl.sample_sequence(system.space, system.measure, 23, 0)
    res = sl.iterate_cocycle(system, x, (0.11, 0.79), 2000)
    assert res.det_defect < 1e-8


def test_c1_distance_same_system_is_zero():
    system = cat_system()
    assert sl.c1_distance(system, system) < 1e-12


def test_c1_distance_twist_shrinks_with_angle():
    base = cat_system()
    gaps = []
    for T in (1e-1, 1e-2, 1e-3):
        twist = fm.LocalizedTwist((0.25, 0.25), 0.2, T)
        pert = base.with_generator(1, fm.Composite([cat_map(), twist]))
        gaps.append(sl.c1_distance(base, pert))
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_c1_distance_single_generator_gap():
    a, b, b2 = cat_map(), fm.StandardMap(1.0), fm.StandardMap(1.4)
    sys_f = lc_system(a, b)
    sys_g = lc_system(a, b2)
    assert sl.c1_distance(sys_f, sys_g) == pytest.approx(
        fiber_c1_distance(b, b2, 32, 200, 0)
    )


def _scalar_fiber_c1_distance(f, g, grid, n_random, seed):
    worst = 0.0
    pts = [((i + 0.5) / grid, (j + 0.5) / grid) for i in range(grid) for j in range(grid)]
    pts.extend(fm.random_point(seed, 1, i) for i in range(n_random))
    for t in pts:
        tf, df = f.apply(t)
        tg, dg = g.apply(t)
        gap = fm.torus_distance(tf, tg) + fm.mat_sub_norm(df, dg)
        if gap > worst:
            worst = gap
    return worst


_TWIST = fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5)
C1_MAPS = [
    cat_map(),
    fm.StandardMap(1.0),
    fm.StandardMap(1.4).inverse(),
    _TWIST,
    fm.Composite([cat_map(), _TWIST]),
    fm.Composite([fm.StandardMap(0.8), fm.LocalizedTwist((0.97, 0.02), 0.2, -1.1)]),
]


@pytest.mark.parametrize("f", C1_MAPS, ids=lambda f: f.kind)
def test_fiber_c1_distance_matches_scalar_reference(f):
    for g in C1_MAPS:
        for grid, n_random, seed in ((16, 100, 0), (5, 0, 1), (0, 7, 3)):
            got = fiber_c1_distance(f, g, grid, n_random, seed)
            assert got == _scalar_fiber_c1_distance(f, g, grid, n_random, seed)


def test_c1_checks_reject_empty_samples():
    # an empty sample used to read 0.0, the value for C1-equal systems
    cat, twisted, holder = cat_system(), twisted_cat_system(), holder_system()
    with pytest.raises(ConfigurationError):
        fiber_c1_distance(cat_map(), fm.StandardMap(1.0), grid=0, n_random=0)
    with pytest.raises(ConfigurationError):
        sl.c1_distance(cat, twisted, grid=0, n_random=0)
    with pytest.raises(ConfigurationError):
        sl.c1_distance(holder, holder_system(eps=0.1), n_base_samples=0)
    with pytest.raises(ConfigurationError):
        sl.holder_estimate(holder, grid=0, n_random=0)
    with pytest.raises(ConfigurationError):
        sl.holder_estimate(holder, n_pairs=0)
    # a locally constant family evaluates every generator whatever n_base_samples is
    assert sl.c1_distance(cat, twisted, n_base_samples=0) > 0.0


def test_c1_distance_golden_mean_covers_every_word():
    # word (1,) has no periodic point on the golden-mean shift; it used to be skipped
    sys_f, sys_g = golden_mean_system(0.7), golden_mean_system(0.0)
    want = max(
        _scalar_fiber_c1_distance(sys_f.family.table[w], sys_g.family.table[w], 32, 200, 0)
        for w in sys_f.family.table
    )
    assert want > 5.0
    assert sl.c1_distance(sys_f, sys_g) == want


def test_generator_base_points():
    system = golden_mean_system()
    table = system.family.table
    xs = skew.generator_base_points(system, 5, 0, 11)
    assert [system.fiber_map_at(x) for x in xs] == [table[(0,)], table[(1,)]]
    holder = holder_system()
    xs = skew.generator_base_points(holder, 3, 4, 11)
    stream = sl.derive_seed(4, 11)
    want = [sl.sample_sequence(holder.space, holder.measure, stream, i) for i in range(3)]
    assert [x.symbols(-20, 20).tolist() for x in xs] == [x.symbols(-20, 20).tolist() for x in want]


def test_with_generator():
    system = cat_system()
    pert = system.with_generator(1, identity_map())
    x1 = sl.periodic_point(system.space, (1,))
    assert pert.fiber_map_at(x1).matrix == (1.0, 0.0, 0.0, 1.0)
    assert system.fiber_map_at(x1).matrix == (2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        holder_system().with_generator(0, identity_map())


def test_holder_estimate_constant_family():
    h_hat, alpha = sl.holder_estimate(holder_system(eps=0.0), n_pairs=20)
    assert h_hat == 0.0
    assert alpha == 1.0


def test_holder_estimate_locally_constant():
    a, b = cat_map(), fm.StandardMap(1.0)
    system = lc_system(a, b)
    h_hat, alpha = sl.holder_estimate(system, n_pairs=40)
    gap = fiber_c1_distance(a, b, 16, 100, 0)
    assert alpha == 1.0
    assert 0.0 <= h_hat <= gap + 1e-12


def test_holder_estimate_certificate_holds():
    system = holder_system()
    h_hat, alpha = sl.holder_estimate(system, n_pairs=60)
    assert alpha == 1.0
    assert 0.0 < h_hat <= system.family.holder_constant()


def test_orbit_maps_holder_parameters_match_scalar_sum():
    system = holder_system(metric_base=0.5, eps=0.3)
    family = system.family
    x = sl.sample_sequence(system.space, system.measure, 17, 0)
    n = 2100
    for k, (f, f_inv) in enumerate(itertools.islice(orbit_maps(system, x), n)):
        K = scalar_parameter(family, x.shift(k))
        assert f.kind == "stdmap" and f_inv.kind == "stdmap_inv"
        assert f.K == K and f_inv.K == K
    backward = orbit_maps(system, x, backward=True)
    for k, (g, g_inv) in enumerate(itertools.islice(backward, n)):
        K = scalar_parameter(family, x.shift(-k - 1))
        assert g.kind == "stdmap_inv" and g_inv.kind == "stdmap"
        assert g.K == K and g_inv.K == K
    assert family.parameter(x) == scalar_parameter(family, x)


def _golden_mean_depth2_system():
    space = sl.ShiftSpace(2, transitions=((True, True), (True, False)))
    measure = sl.BaseMeasure("markov", P=((0.5, 0.5), (1.0, 0.0)))
    twist = fm.LocalizedTwist((0.3, 0.6), 0.2, 0.7)
    maps = [
        cat_map(),
        fm.ToralAutomorphism(SHEAR_UP),
        fm.Composite([fm.ToralAutomorphism(SHEAR_LO), twist]),
    ]
    table = dict(zip(sl.admissible_words(space, 2), maps))
    return sl.SkewSystem(space, measure, sl.LocallyConstantFamily(2, table))


def test_orbit_maps_locally_constant_are_table_entries():
    system = _golden_mean_depth2_system()
    table = system.family.table
    x = sl.sample_sequence(system.space, system.measure, 19, 0)
    n = 300
    for k, (f, f_inv) in enumerate(itertools.islice(orbit_maps(system, x), n)):
        xk = x.shift(k)
        assert f is table[x.word(k, k + 2)]
        assert f is system.fiber_map_at(xk)
        assert f_inv is system.inverse_fiber_map_at(xk)
    backward = orbit_maps(system, x, backward=True)
    for k, (g, g_inv) in enumerate(itertools.islice(backward, n)):
        xk = x.shift(-k - 1)
        assert g_inv is table[x.word(-k - 1, 1 - k)]
        assert g_inv is system.fiber_map_at(xk)
        assert g is system.inverse_fiber_map_at(xk)


@pytest.mark.parametrize(
    "make_system", [_golden_mean_depth2_system, holder_system, twisted_cat_system, cat_system]
)
def test_orbit_batch_matches_orbit_maps(make_system, monkeypatch):
    monkeypatch.setattr(skew, "_MAX_CHUNK", 7)  # several chunks, one partial
    system = make_system()
    xs = [sl.sample_sequence(system.space, system.measure, 23, k) for k in range(6)]
    xs += [xs[0].shift(-40), sl.periodic_point(system.space, (0, 1, 0))]
    pts = [fm.random_point(5, 0, k) for k in range(len(xs))]
    u = np.array([t[0] for t in pts])
    v = np.array([t[1] for t in pts])
    n = 30
    steps = list(orbit_batch(system, xs, u, v, n))
    assert len(steps) == n
    for i, (x, t) in enumerate(zip(xs, pts)):
        for k, (f, _) in enumerate(orbit_maps(system, x, n=n)):
            t, d = f.apply(t)
            bu, bv, bd = steps[k]
            bd = [np.broadcast_to(e, u.shape) for e in bd]
            got = np.array([bu[i], bv[i], *(e[i] for e in bd)])
            assert got.tobytes() == np.array([*t, *d]).tobytes(), (i, k)


def test_orbit_batch_keeps_a_shared_constant_derivative_as_floats():
    # steps 0 and 2 meet the cat map on every orbit, steps 1 and 3 also A o twist
    system = twisted_cat_system()
    x, y = (sl.periodic_point(system.space, w) for w in ((0,), (0, 1)))
    u, v = fm.grid_points(2)
    steps = list(orbit_batch(system, [x, x, y, x], u, v, 4))
    assert [type(d[0]) for _, _, d in steps] == [float, np.ndarray] * 2
    assert steps[0][2] == steps[2][2] == cat_map().matrix


def test_backward_holder_orbits_retain_no_memory():
    system = holder_system()
    sl.iterate_cocycle(system, sl.sample_sequence(system.space, system.measure, 3, 99),
                       (0.3, 0.7), -50)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(10):
            x = sl.sample_sequence(system.space, system.measure, 3, k)
            sl.iterate_cocycle(system, x, (0.3, 0.7), -2000)
        del x
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.5 * 2 ** 20


def test_long_bernoulli_walk_retains_bounded_memory():
    system = cat_system()
    x = sl.sample_sequence(system.space, system.measure, 3, 0)
    sl.iterate_cocycle(system, x, (0.3, 0.7), 100)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sl.iterate_cocycle(system, x, (0.3, 0.7), 200_000)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert x.symbol(0) in (0, 1)  # the sequence is still alive
    assert retained < 0.5 * 2 ** 20
