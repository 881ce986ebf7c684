"""Skew products: families, cocycle iteration, C1 distance, Holder data."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import skewlab as sl
import skewlab.fiber_maps as fm
from skewlab.errors import CertificateViolationError, ConfigurationError
import skewlab.skew as skew
from skewlab.skew import orbit_batch, orbit_maps

from _common import (
    LOG_CAT,
    SHEAR_LO,
    SHEAR_UP,
    bernoulli2,
    cat_map,
    cat_system,
    depth4_system,
    fiber_c1_distance,
    golden_mean_system,
    holder_system,
    identity_map,
    lc_system,
    same_bits,
    scalar_c1_distance,
    scalar_holder_estimate,
    scalar_iterate_cocycle,
    scalar_parameter,
    twisted_cat_system,
    word,
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
        pert = base.with_generator(1, lambda f: fm.Composite([f, twist]))
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


C1_PAIRS = {
    "holder": lambda: (holder_system(), holder_system(eps=0.1)),
    "twisted-cat": lambda: (twisted_cat_system(), cat_system()),
    "golden-mean": lambda: (golden_mean_system(0.0), golden_mean_system(0.7)),
    "depth4": lambda: (depth4_system(), twisted_cat_system()),
}


def _fiber_cells_cases(n_rows):
    """(_FIBER_CELLS, keywords) pairs at the chunk boundaries of n_rows base points.

    The default constant on the default sample; then a 32-point sample with
    the constant at 1 (one fibre point per step) and at one short of, equal
    to and one past the cells of the whole sample against n_rows.
    """
    small = dict(grid=5, n_random=7)
    whole = n_rows * (5 * 5 + 7)
    return [(skew._FIBER_CELLS, {})] + [(c, small) for c in (1, whole - 1, whole, whole + 1)]


@pytest.mark.parametrize("pair", list(C1_PAIRS))
@pytest.mark.parametrize("seed", [0, 3])
def test_c1_distance_matches_scalar_reference(pair, seed, monkeypatch):
    sys_f, sys_g = C1_PAIRS[pair]()
    n_rows = len(skew.generator_base_points(sys_f, 100, seed, 11))
    for cells, kw in _fiber_cells_cases(n_rows):
        monkeypatch.setattr(skew, "_FIBER_CELLS", cells)
        got = sl.c1_distance(sys_f, sys_g, seed=seed, **kw)
        assert got == scalar_c1_distance(sys_f, sys_g, seed=seed, **kw), (cells, kw)
        assert got > 0.0


def test_c1_sups_match_each_one_point_gap_on_holder_pairs():
    """With one fibre point each sup is one gap, so every gap is compared, not a maximum.

    A last-bit change in the displacement's hypot (numpy's for math's)
    moves some of these 2,560 values.
    """
    system = holder_system()
    for seed in range(40):
        xs, ys = (
            [sl.sample_sequence(system.space, system.measure, sl.derive_seed(seed, s), k)
             for k in range(64)]
            for s in (17, 13)
        )
        sups = skew._c1_sups(system, xs, system, ys, grid=0, n_random=1, seed=seed)
        assert sups == [
            fiber_c1_distance(system.fiber_map_at(x), system.fiber_map_at(y), 0, 1, seed)
            for x, y in zip(xs, ys)
        ], seed


def test_c1_distance_memory_does_not_grow_with_the_fiber_sample():
    """Fibre points go through the array steps in chunks, not all at once."""
    # at once, 50 x 4,296 points would peak near 9x
    sys_f, sys_g = holder_system(), holder_system(eps=0.1)
    peaks = []
    for grid in (16, 64):
        tracemalloc.start()
        try:
            sl.c1_distance(sys_f, sys_g, n_base_samples=50, grid=grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_generator_base_points():
    system = golden_mean_system()
    table = system.family.table
    xs = skew.generator_base_points(system, 5, 0, 11)
    assert [system.fiber_map_at(x) for x in xs] == [table[(0,)], table[(1,)]]
    # a depth-4 word w is read on [0, 4) and held at its end symbols beyond
    words = sl.admissible_words(sl.ShiftSpace(2), 4)
    xs = skew.generator_base_points(depth4_system(), 0, 0, 11)
    assert [word(x, -3, 8) for x in xs] == [
        tuple(w[min(max(j, 0), 3)] for j in range(-3, 8)) for w in words
    ]
    holder = holder_system()
    xs = skew.generator_base_points(holder, 3, 4, 11)
    stream = sl.derive_seed(4, 11)
    want = [sl.sample_sequence(holder.space, holder.measure, stream, i) for i in range(3)]
    assert [x.symbols(-20, 20).tolist() for x in xs] == [x.symbols(-20, 20).tolist() for x in want]


def test_with_generator():
    system = cat_system()
    pert = system.with_generator(1, lambda f: identity_map())
    x1 = sl.periodic_point(system.space, (1,))
    assert pert.fiber_map_at(x1).matrix == (1.0, 0.0, 0.0, 1.0)
    assert system.fiber_map_at(x1).matrix == (2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ConfigurationError):
        holder_system().with_generator(0, lambda f: identity_map())


def test_with_generator_owns_the_word_checks():
    system = cat_system()
    assert system.with_generator((1,), lambda f: f) is system
    seen = []
    pert = system.with_generator(0, lambda f: seen.append(f) or identity_map())
    assert seen == [system.family.table[(0,)]]
    assert pert.family.table[(1,)] is system.family.table[(1,)]
    for word in (5, (0, 1), ()):
        with pytest.raises(ConfigurationError, match="no generator for word"):
            system.with_generator(word, lambda f: f)


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


@pytest.mark.parametrize(
    "make_system",
    [holder_system, twisted_cat_system, depth4_system],
    ids=["holder", "lc", "depth4"],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_holder_estimate_matches_closure_partner_reference(make_system, seed, monkeypatch):
    # 24 pairs: every radius 0..7 three times
    system = make_system()
    for cells, kw in _fiber_cells_cases(24):
        monkeypatch.setattr(skew, "_FIBER_CELLS", cells)
        got = sl.holder_estimate(system, n_pairs=24, seed=seed, **kw)
        assert got == scalar_holder_estimate(system, 24, seed, **kw), (cells, kw)
        assert got[0] > 0.0


@pytest.mark.parametrize("seed", [0, 3])
def test_holder_estimate_witness_matches_scalar_reference(seed, monkeypatch):
    system = holder_system()
    monkeypatch.setattr(system.family, "holder_constant", lambda: 1e-3)
    with pytest.raises(CertificateViolationError, match=r"\(witness \(") as got:
        sl.holder_estimate(system, n_pairs=24, seed=seed)
    with pytest.raises(CertificateViolationError) as want:
        scalar_holder_estimate(system, 24, seed)
    assert str(got.value) == str(want.value)


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
        assert f is table[word(x, k, k + 2)]
        assert f is system.fiber_map_at(xk)
        assert f_inv is system.inverse_fiber_map_at(xk)
    backward = orbit_maps(system, x, backward=True)
    for k, (g, g_inv) in enumerate(itertools.islice(backward, n)):
        xk = x.shift(-k - 1)
        assert g_inv is table[word(x, -k - 1, 1 - k)]
        assert g_inv is system.fiber_map_at(xk)
        assert g is system.inverse_fiber_map_at(xk)


def _shared_map_system():
    """Both words map to one object, so every orbit meets the same generator."""
    f = cat_map()
    return lc_system(f, f)


def _twist(first=False):
    twist = fm.LocalizedTwist((0.25, 0.25), 0.2, 0.5)
    return fm.Composite([twist, cat_map()] if first else [cat_map(), twist])


KEYED_SYSTEMS = {  # name -> (system, whether a twisted generator has a step plan)
    "twisted-cat": (twisted_cat_system, True),
    "golden-mean": (golden_mean_system, True),
    "twist-angle-0": (lambda: twisted_cat_system(T=0.0), True),
    "depth4": (depth4_system, True),
    "twist-first": (lambda: lc_system(cat_map(), _twist(first=True)), False),
    "three-factors": (
        lambda: lc_system(cat_map(), fm.Composite([identity_map(), *_twist().factors])),
        False,
    ),
    "bare-twist": (lambda: lc_system(cat_map(), _twist().factors[1]), False),
    "stdmap": (lambda: lc_system(cat_map(), fm.StandardMap(0.7)), False),
}


def _key_steps(family, rows):
    return itertools.chain.from_iterable(family.plans[row].tolist() for row in rows)


@pytest.mark.parametrize("n_steps", [1, 17, 4100])  # 4100 crosses a 4096-step chunk
@pytest.mark.parametrize("name", list(KEYED_SYSTEMS))
def test_keyed_cocycle_matches_accumulate_cocycle_per_orbit(name, n_steps, monkeypatch):
    """Each orbit's walk by key against its maps' walk: endpoint, log norm and defect.

    The family's planned steps (its ``plans`` at the keys) are walked against the
    generators met along the orbit, ``unplanned``, every step through
    ``apply``.  A planned generator's twist runs ``apply`` only on the steps
    whose point is on its disc; an unplanned one runs it on every step it owns.
    """
    make_system, planned = KEYED_SYSTEMS[name]
    system = make_system()
    assert system.family.derivatives is None
    applied = []
    twist_apply = fm.LocalizedTwist.apply

    def counted(self, t):
        applied.append(t)
        return twist_apply(self, t)

    monkeypatch.setattr(fm.LocalizedTwist, "apply", counted)
    keyed_applies = walk_applies = 0
    for i in range(3):
        x = sl.sample_sequence(system.space, system.measure, 7, i)
        t = sl.random_fiber_point(8, i)
        rows = [row[0] for row in skew.orbit_keys(system, [x], n_steps)]
        applied.clear()
        got = skew.accumulate_cocycle(_key_steps(system.family, rows), t)
        keyed_applies += len(applied)
        applied.clear()
        maps = (f for f, _ in orbit_maps(system, x, n=n_steps))
        want = skew.accumulate_cocycle(skew.unplanned(maps), t)
        walk_applies += len(applied)
        assert repr(got) == repr(want), i
    if not planned:
        assert keyed_applies == walk_applies
    elif n_steps == 4100:
        assert 0 < keyed_applies < walk_applies


def _float_det_zero():
    """Integer determinant 1, float determinant 0.0: 2**54 - 1 rounds to 2**54."""
    return fm.ToralAutomorphism((2**27, 2**27 - 1, 2**27 + 1, 2**27))


def test_step_plans_cover_toral_maps_and_toral_after_twist():
    twisted = _twist()
    big = _float_det_zero()
    others = [_twist(first=True), fm.StandardMap(0.7), big, fm.Composite([big, twisted.factors[1]])]
    family = sl.LocallyConstantFamily(1, dict(enumerate([cat_map(), twisted, *others])))
    assert family.plans.tolist() == [
        (2.0, 1.0, 1.0, 1.0, None, None),
        (2.0, 1.0, 1.0, 1.0, twisted.factors[1].disc, twisted),
        *((None, None, None, None, None, f) for f in others),
    ]


@pytest.mark.parametrize("keys", [[0], [1, 0, 1, 1], [1] * 20 + [0] + [1] * 20, [0, 1] * 4])
def test_keyed_cocycle_keeps_the_det_defect_of_an_unplanned_matrix(keys):
    """A matrix whose float determinant is not 1 steps through ``apply``, defect and all.

    The keys are chosen by hand, so that the matrix's steps fall before,
    between and after the twist's, within a row and across rows.
    """
    gens = {0: _float_det_zero(), 1: _twist()}
    family = sl.LocallyConstantFamily(1, gens)
    assert family.derivatives is None
    for t in [(0.3, 0.2), (0.7, 0.9)]:
        got = skew.accumulate_cocycle(_key_steps(family, np.split(keys, [3])), t)
        want = skew.accumulate_cocycle(skew.unplanned([gens[k] for k in keys]), t)
        assert repr(got) == repr(want) and want[2] == 1.0, t


@pytest.mark.parametrize(
    "kwargs, signs",  # the signs of the K met: K in [0.7, 5.3] in the second, 0 in the last
    [({}, {1.0}), (dict(K0=3.0, eps=2.0), {1.0}), (dict(K0=0.0, eps=0.5), {-1.0, 1.0}),
     (dict(K0=0.0, eps=0.0), {0.0})],
)
def test_standard_map_cocycle_matches_accumulate_cocycle_per_orbit(kwargs, signs):
    """Each orbit's inline standard-map walk against its maps' walk: endpoint, log norm, defect.

    The rows are split at 3, 17 and 4,100, so renormalizations fall inside
    rows and the step count carries across them.  Every K but 0 leaves a
    det defect, which the walk must keep.
    """
    system = holder_system(**kwargs)
    for i in range(3):
        x = sl.sample_sequence(system.space, system.measure, 7, i)
        t = sl.random_fiber_point(8, i)
        Ks = np.concatenate([row[0] for row in skew.orbit_keys(system, [x], 4133)])
        assert set(np.sign(Ks).tolist()) == signs
        got = skew.standard_map_cocycle(np.split(Ks, [3, 17, 4100]), t)
        want = skew.accumulate_cocycle(skew.unplanned(map(fm.StandardMap, Ks.tolist())), t)
        assert repr(got) == repr(want), i
        assert (want[2] > 0.0) == (signs != {0.0}), i


@pytest.mark.parametrize(
    "make_system",
    [_golden_mean_depth2_system, holder_system, twisted_cat_system, cat_system,
     _shared_map_system],
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
            assert all(e.shape == u.shape for e in bd), (i, k)
            got = np.array([bu[i], bv[i], *(e[i] for e in bd)])
            assert got.tobytes() == np.array([*t, *d]).tobytes(), (i, k)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize(
    "make_system",
    [twisted_cat_system, golden_mean_system, depth4_system, holder_system],
    ids=["twisted-cat", "golden-mean", "depth4", "holder"],
)
def test_family_step_matches_each_keys_map(make_system, inverse):
    """The batched step, keys matching the points or a column of keys against a row."""
    system = make_system()
    xs = [sl.sample_sequence(system.space, system.measure, 29, k) for k in range(12)]
    keys = next(skew.orbit_keys(system, xs, 1))  # one row per base point, one column
    maps = [next(orbit_maps(system, x, n=1))[inverse] for x in xs]
    # points on and around both twists' supports, and their images under the cat map
    pts = [(0.25, 0.25), (0.27, 0.24), (0.3, 0.6), (0.31, 0.58), (0.4, 0.55)]
    pts += [cat_map()(t) for t in pts] + [fm.random_point(3, 0, k) for k in range(6)]
    u, v = (np.array(c) for c in zip(*pts))

    def entries(out, shape, i):
        image_u, image_v, d = out
        return [np.broadcast_to(e, shape)[i] for e in (image_u, image_v, *d)]

    def scalar(f, t):
        image, d = f.apply(t)
        return (*image, *d)

    # bit patterns, so that a flipped zero sign fails
    step = system.family.apply_many(keys[:, 0], u[:len(xs)], v[:len(xs)], inverse)
    for i, (f, t) in enumerate(zip(maps, pts)):
        assert same_bits(entries(step, (len(xs),), i), scalar(f, t)), i
    step = system.family.apply_many(keys, u, v, inverse)
    for b, f in enumerate(maps):
        for i, t in enumerate(pts):
            assert same_bits(entries(step, (len(xs), len(pts)), (b, i)), scalar(f, t)), (b, i)


class _CountingLookup:
    """The lookup of a sequence, recording the length of every window read."""

    def __init__(self, x):
        self.x, self.windows = x, []

    def __call__(self, j):
        return self.x.symbol(j)

    def window(self, start, stop):
        self.windows.append(stop - start)
        return self.x.symbols(start, stop)


@pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
@pytest.mark.parametrize(
    "make_system, steps, windows",
    [
        (holder_system, 33, [33 + 32]),  # one step reads 33 symbols
        (depth4_system, 4, [4 + 3]),
        (twisted_cat_system, 15, [1, 2, 4, 8]),  # depth 1: windows of 1, 2, 4, ... steps
    ],
    ids=["holder", "lc-depth4", "lc-depth1"],
)
def test_open_ended_walk_starts_one_reach_wide(make_system, steps, windows, backward):
    system = make_system()
    x = sl.sample_sequence(system.space, system.measure, 31, 0)
    lookup = _CountingLookup(x)
    y = sl.BaseSequence(system.space, lookup)
    walk = itertools.islice(orbit_maps(system, y, backward=backward), steps)
    got = [(f.apply((0.3, 0.7)), g.apply((0.3, 0.7))) for f, g in walk]
    assert lookup.windows == windows
    want = orbit_maps(system, x, backward=backward, n=steps)
    assert got == [(f.apply((0.3, 0.7)), g.apply((0.3, 0.7))) for f, g in want]


def test_reach_wide_first_window_is_capped(monkeypatch):
    monkeypatch.setattr(skew, "_MAX_CHUNK", 5)
    system = holder_system()  # reach 33 steps, beyond the cap
    lookup = _CountingLookup(sl.sample_sequence(system.space, system.measure, 31, 0))
    walk = orbit_maps(system, sl.BaseSequence(system.space, lookup))
    list(itertools.islice(walk, 12))
    assert lookup.windows == [5 + 32, 5 + 32, 5 + 32]


def _swap_system(depth):
    """A table of the given depth over the shift where 0 and 1 alternate: two words."""
    space = sl.ShiftSpace(2, transitions=((False, True), (True, False)))
    measure = sl.BaseMeasure("markov", P=((0.0, 1.0), (1.0, 0.0)))
    twisted = fm.Composite([cat_map(), fm.LocalizedTwist((0.3, 0.6), 0.2, 0.7)])
    table = dict(zip(sl.admissible_words(space, depth), [cat_map(), twisted]))
    return sl.SkewSystem(space, measure, sl.LocallyConstantFamily(depth, table))


@pytest.mark.parametrize("depth", [40, 70])
def test_deep_two_word_table_walks_like_its_maps(depth):
    """Tables far deeper than a radix**depth array could be; 2**70 is past int64."""
    system = _swap_system(depth)
    assert sorted(system.family.table) == [(0, 1) * (depth // 2), (1, 0) * (depth // 2)]
    xs = [sl.sample_sequence(system.space, system.measure, 3, k) for k in range(4)]
    xs += [xs[0].shift(1), sl.periodic_point(system.space, (1, 0))]
    u, v = np.full(len(xs), 0.3), np.full(len(xs), 0.7)
    for k, (bu, bv, _) in enumerate(orbit_batch(system, xs, u, v, 20), 1):
        for i, x in enumerate(xs):
            want = sl.iterate_cocycle(system, x, (0.3, 0.7), k).end_point
            assert (bu[i], bv[i]) == want, (i, k)
    y = sl.BaseSequence(system.space, lambda j: 0)  # the word 0...0 has no generator
    with pytest.raises(ConfigurationError, match=r"no generator for word \(0, 0"):
        list(orbit_batch(system, [y], u[:1], v[:1], 1))


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
