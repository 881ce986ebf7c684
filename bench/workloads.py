"""The benchmark's workloads: configs, operations and output checks.

A workload is a list of operations that together make one round.  Every
round runs the same operations on the same inputs, so every round must
produce byte-identical outputs; the inputs are made from the workload
seed.  Each operation returns ``(output, attempted, failed)``; rounds are
compared by the ``repr`` of their outputs, which is exact for floats.  ``failed``
counts only the two known holonomy faults kept as failing operations
(see README.md); any other error or wrong output makes the run incorrect.

Operations reach skewlab through module attributes (``cli.main``,
``criterion.su_state_probe``, ...), never through names bound at import,
so that a traced run sees every call.
"""

import contextlib
import csv
import io
import math
import os
import random

import numpy as np

from skewlab import base_shift, cli, config, criterion, fiber_maps, holonomy, lyapunov, rng, skew
from skewlab.errors import NonConvergenceError

LOG_CAT = math.log((3.0 + math.sqrt(5.0)) / 2.0)
SHEAR_UP = (1, 1, 0, 1)
SHEAR_LO = (1, 0, 1, 1)

BERNOULLI = """[base]
type = bernoulli
d = 2
probs = 0.5, 0.5
metric_base = {metric_base}
"""

GOLDEN_MEAN_P = ((0.6, 0.4), (1.0, 0.0))
MARKOV = """[base]
type = markov
d = 2
P = %s
transitions = 1, 1, 1, 0
metric_base = 0.5
""" % ", ".join(str(v) for row in GOLDEN_MEAN_P for v in row)

LOOP = """[criterion]
p_word = 0
z_symbol = 1
z_index = 1
i = 2
"""

# cat and cat o twist: the generators of the pinching/twisting pipeline
TWISTED_FIBER = """[fiber]
g0 = toral:2,1,1,1
g1 = twist:0.25,0.25,0.2,0.5
g2 = compose:0,1

[skew]
assign = 0, 2
"""

CAT_FIBER = """[fiber]
g0 = toral:2,1,1,1
g1 = toral:2,1,1,1
"""

SHEAR_FIBER = """[fiber]
g0 = toral:1,1,0,1
g1 = toral:1,0,1,1
"""

HOLDER_FIBER = """[skew]
family = holder
K0 = 0.5
eps = 0.05
alpha = 1
"""

SWEEP = """[sweep]
T_values = {T_values}
generator_word = 1
center = 0.25, 0.25
radius = 0.2
"""


def run_section(**keys):
    return "[run]\n" + "".join("%s = %s\n" % kv for kv in keys.items())


def _csv_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _csv_row(data):
    return _csv_rows(data)[0]


class Context:
    """Per-run state: the seed, the config files and the output directory."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.configs = {}
        self.refs = {}
        self.rand = random.Random(seed)

    def stream_seed(self):
        """A fresh input seed drawn from the workload seed."""
        return self.rand.getrandbits(62)

    def add_config(self, name, text):
        path = os.path.join(self.workdir, name + ".cfg")
        with open(path, "w") as fh:
            fh.write(text)
        self.configs[name] = (path, text)

    def system(self, name):
        return config.build_system(config.parse_config(self.configs[name][1]))


class Op:
    """One operation of a round.

    ``kind`` names the end-to-end metric it feeds (or None); ``units`` is
    its work for rate metrics: cocycle steps, sweep rows or queries.
    """

    def __init__(self, label, kind, fn, check, units=1):
        self.label = label
        self.kind = kind
        self.fn = fn
        self.check = check
        self.units = units


# --- CLI operations ------------------------------------------------------


def cli_op(command, cfg_name):
    csv_name = command + ".csv"

    def fn(ctx):
        path = ctx.configs[cfg_name][0]
        out_dir = os.path.join(ctx.workdir, "out", cfg_name)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main([command, "--config", path, "--out", out_dir])
        if rc != 0:
            raise RuntimeError("skewlab %s on %s exited %d: %s"
                               % (command, cfg_name, rc, sink.getvalue().strip()))
        with open(os.path.join(out_dir, csv_name), "rb") as fh:
            return fh.read(), 1, 0

    return fn


def exponent_op(ctx, name, base, fiber, n_orbits, n_steps, check):
    ctx.add_config(name, base + "\n" + fiber + "\n" + run_section(
        seed=ctx.stream_seed(), n_orbits=n_orbits, n_steps=n_steps))
    return Op("exponent:" + name, "exponent", cli_op("exponent", name), check,
              units=n_orbits * n_steps)


def check_exponent_basic(out, ctx):
    row = _csv_row(out)
    problems = []
    if not float(row["det_defect_max"]) < 1e-6:
        problems.append("det_defect_max %s >= 1e-6" % row["det_defect_max"])
    if not math.isfinite(float(row["lambda_plus_mean"])):
        problems.append("exponent is not finite")
    return problems


def check_against(ref_key, z=6.0):
    """Monte Carlo mean within z standard errors of a reference exponent."""

    def check(out, ctx):
        problems = check_exponent_basic(out, ctx)
        row = _csv_row(out)
        mean, se = float(row["lambda_plus_mean"]), float(row["lambda_plus_stderr"])
        ref = ctx.refs[ref_key]
        if not abs(mean - ref) <= z * se:
            problems.append("%s: exponent %.6f vs reference %.6f, gap %.2e > %g stderr (%.2e)"
                            % (ref_key, mean, ref, abs(mean - ref), z, se))
        return problems

    return check


def check_positive(out, ctx):
    problems = check_exponent_basic(out, ctx)
    row = _csv_row(out)
    mean, se = float(row["lambda_plus_mean"]), float(row["lambda_plus_stderr"])
    if not mean > 3.0 * se:
        problems.append("twisted exponent %.4f not above 3 stderr (%.2e)" % (mean, se))
    return problems


def check_criterion(out, ctx):
    row = _csv_row(out)
    problems = []
    if abs(float(row["pinching_integral"]) - LOG_CAT) > 1e-12:
        problems.append("pinching integral %s != log cat eigenvalue" % row["pinching_integral"])
    if row["pinching_flag"] != "true" or row["twisting_flag"] != "true":
        problems.append("criterion on the twisted system: pinching=%s twisting=%s"
                        % (row["pinching_flag"], row["twisting_flag"]))
    return problems


def check_sweep(out, ctx):
    problems = []
    for row in _csv_rows(out):
        T = float(row["T"])
        if row["error"]:
            problems.append("sweep row T=%g failed: %s" % (T, row["error"]))
            continue
        if abs(float(row["pinching_integral"]) - LOG_CAT) > 1e-12:
            problems.append("T=%g pinching integral %s" % (T, row["pinching_integral"]))
        if (row["twisting_flag"] == "true") != (T != 0.0):
            problems.append("T=%g twisting=%s" % (T, row["twisting_flag"]))
        L = float(row["L_estimate"])
        if T == 0.0 and abs(L - LOG_CAT) > 1e-12:
            problems.append("T=0 exponent %.17g != log cat eigenvalue" % L)
        if T != 0.0 and not L > 3.0 * float(row["L_stderr"]):
            problems.append("T=%g exponent %.4f not positive" % (T, L))
    return problems


def check_bunching(out, ctx):
    row = _csv_row(out)
    return [] if row["satisfied"] == "true" else ["bunching not satisfied: %s" % row]


def check_holonomy_cmd(out, ctx):
    rows = _csv_rows(out)
    incs = [float(r["increment"]) for r in rows]
    if not (incs and incs[-1] < 1e-9 and incs[-2] < 1e-9):
        return ["holonomy command did not stop on two sub-tolerance increments: %r" % incs]
    return []


# --- library operations --------------------------------------------------


def _loop_for(ctx, cfg_name):
    cfg = config.parse_config(ctx.configs[cfg_name][1])
    system = config.build_system(cfg)
    p, z, i = config.criterion_inputs(cfg, system)
    return system, p, criterion.build_holonomy_loop(system, p, z, i)


def probe_op(ctx, cfg_name, bins, n_iter, burn_in, n_points):
    seed = ctx.stream_seed()

    def fn(ctx):
        system, p, loop = _loop_for(ctx, cfg_name)
        score = criterion.su_state_probe(system, p, loop, bins=bins, n_iter=n_iter,
                                         n_points=n_points, seed=seed, burn_in=burn_in)
        return score, 1, 0

    def check(score, ctx):
        # the twisted pipeline system has no invariant su-state
        return [] if score > 0.2 else ["probe score %.4f not above 0.2" % score]

    return Op("probe:" + cfg_name, "probe", fn, check)


def _splice(space, left, right):
    """left on indices < 0, right on indices >= 0."""
    ls, rs = left.symbol, right.symbol
    return base_shift.BaseSequence(space, lambda j: ls(j) if j < 0 else rs(j))


def _partner(x, other, direction, diff_index):
    """A partner of x on its local stable (unstable) set.

    It agrees with x on the side of ``diff_index`` that holds 0, differs
    from x at ``diff_index`` and follows ``other`` beyond it (full shift).
    """
    xs, os_, d = x.symbol, other.symbol, x.space.alphabet_size
    near = (lambda j: j > diff_index) if direction == "stable" else (lambda j: j < diff_index)

    def look(j):
        if j == diff_index:
            return (xs(j) + 1) % d
        return xs(j) if near(j) else os_(j)

    return base_shift.BaseSequence(x.space, look)


def _pair(system, seed, k, direction, diff_index):
    x = base_shift.sample_sequence(system.space, system.measure, seed, 2 * k)
    other = base_shift.sample_sequence(system.space, system.measure, seed, 2 * k + 1)
    return x, _partner(x, other, direction, diff_index)


def lc_queries_op(ctx, cfg_name, n_pairs):
    """Depth-1 locally constant holonomies: exactly the identity."""
    seed = ctx.stream_seed()
    points = [(ctx.rand.random(), ctx.rand.random()) for _ in range(n_pairs)]

    def fn(ctx):
        system = ctx.system(cfg_name)
        out = []
        for k, t in enumerate(points):
            for direction, diff in (("stable", -1), ("unstable", 1)):
                x, y = _pair(system, seed, k, direction, diff)
                q = holonomy.HolonomyQuery(direction, x, y)
                out.append(holonomy.stable_holonomy_point(system, q, t)[0])
                out.append(holonomy.linear_stable_holonomy(system, q, t)[0])
        return out, 4 * n_pairs, 0

    def check(vals, ctx):
        worst = 0.0
        for k, t in enumerate(points):
            for j in range(2):
                img, mat = vals[4 * k + 2 * j], vals[4 * k + 2 * j + 1]
                worst = max(worst, fiber_maps.torus_distance(img, t),
                            fiber_maps.mat_sub_norm(mat, fiber_maps.IDENTITY))
        return [] if worst < 1e-12 else ["LC holonomy identity gap %.3e" % worst]

    return Op("queries:lc-depth1", "queries", fn, check, units=4 * n_pairs)


def holder_queries_op(ctx, n_pairs):
    """Seeded Hölder point holonomies: stable triples and unstable pairs."""
    seed = ctx.stream_seed()
    points = [(ctx.rand.random(), ctx.rand.random()) for _ in range(n_pairs)]

    def fn(ctx):
        system = ctx.system("holder")
        space, measure = system.space, system.measure
        out = []
        for k, t in enumerate(points):
            # y and z: independent pasts spliced onto the future of x
            x = base_shift.sample_sequence(space, measure, seed, 3 * k)
            y = _splice(space, base_shift.sample_sequence(space, measure, seed, 3 * k + 1), x)
            z = _splice(space, base_shift.sample_sequence(space, measure, seed, 3 * k + 2), x)
            hxy, _ = holonomy.stable_holonomy_point(
                system, holonomy.HolonomyQuery("stable", x, y), t)
            via, _ = holonomy.stable_holonomy_point(
                system, holonomy.HolonomyQuery("stable", y, z), hxy)
            direct, _ = holonomy.stable_holonomy_point(
                system, holonomy.HolonomyQuery("stable", x, z), t)
            xu, yu = _pair(system, seed + 1, k, "unstable", 1)
            hu, _ = holonomy.unstable_holonomy_point(
                system, holonomy.HolonomyQuery("unstable", xu, yu), t)
            out.append((hxy, via, direct, hu))
        return out, 4 * n_pairs, 0

    def check(out, ctx):
        worst = max(fiber_maps.torus_distance(via, direct) for _, via, direct, _ in out)
        return [] if worst < 1e-6 else ["Hölder composition defect %.3e >= 1e-6" % worst]

    return Op("queries:holder-point", "queries", fn, check, units=4 * n_pairs)


# The linear Hölder holonomy fails to converge on some stable pairs (see
# README.md); these inputs do not depend on the workload seed.  The four
# named pairs fail every time, the others converge every time.
HOLDER_LINEAR_SEED = 29
HOLDER_LINEAR_FAILING = (8, 32, 41, 83)
HOLDER_LINEAR_KS = (0, 1, 2, 3) + HOLDER_LINEAR_FAILING


def _fixed_stable_pair(system, seed, k):
    """The stable-pair construction of the test suite's helpers."""
    space, measure = system.space, system.measure
    x = base_shift.sample_sequence(space, measure, rng.derive_seed(seed, k), 0)
    other = base_shift.sample_sequence(space, measure, rng.derive_seed(seed, k), 1)
    return x, _partner(x, other, "stable", -1)


def holder_linear_op(ctx):
    def fn(ctx):
        system = ctx.system("holder")
        out, failed = [], 0
        for k in HOLDER_LINEAR_KS:
            x, y = _fixed_stable_pair(system, HOLDER_LINEAR_SEED, k)
            t = skew.random_fiber_point(HOLDER_LINEAR_SEED, k, stream=2)
            try:
                m, _ = holonomy.linear_stable_holonomy(
                    system, holonomy.HolonomyQuery("stable", x, y), t)
            except NonConvergenceError:
                failed += 1
                m = None
            out.append((k, m))
        return out, len(HOLDER_LINEAR_KS), failed

    def check(out, ctx):
        worst = max(abs(fiber_maps.mat_det(m) - 1.0) for _, m in out if m is not None)
        return [] if worst < 1e-6 else ["linear holonomy det defect %.3e" % worst]

    return Op("queries:holder-linear", "queries", fn, check, units=len(HOLDER_LINEAR_KS))


def holder_axioms_op(ctx, n_pairs):
    """holonomy_cocycle_check: equivariance defect plus Hölder-envelope excess."""
    seed = ctx.stream_seed()
    points = [(ctx.rand.random(), ctx.rand.random()) for _ in range(n_pairs)]

    def fn(ctx):
        system = ctx.system("holder")
        out = []
        for k, t in enumerate(points):
            for direction, diff in (("stable", -1), ("unstable", 1)):
                x, y = _pair(system, seed, k, direction, diff)
                out.append(holonomy.holonomy_cocycle_check(
                    system, holonomy.HolonomyQuery(direction, x, y), t))
        return out, 2 * n_pairs, 0

    def check(out, ctx):
        worst = max(out)
        return [] if worst < 1e-6 else ["holonomy axiom defect %.3e >= 1e-6" % worst]

    return Op("axioms:holder", None, fn, check)


def holder_orbits_op(ctx, n_orbits, n_back, n_trip):
    """Backward Hölder orbits, and forward-then-backward round trips."""
    seed = ctx.stream_seed()
    points = [(ctx.rand.random(), ctx.rand.random()) for _ in range(n_orbits)]

    def fn(ctx):
        system = ctx.system("holder")
        out = []
        for k, t in enumerate(points):
            x = base_shift.sample_sequence(system.space, system.measure, seed, k)
            back = skew.iterate_cocycle(system, x, t, -n_back)
            fwd = skew.iterate_cocycle(system, x, t, n_trip)
            trip = skew.iterate_cocycle(system, x.shift(n_trip), fwd.end_point, -n_trip)
            out.append((back.log_norm, back.det_defect, fwd.log_norm, trip.log_norm,
                        trip.end_point))
        return out, n_orbits, 0

    def check(out, ctx):
        problems = []
        for (log_back, defect, log_fwd, log_trip, end), t in zip(out, points):
            if not defect < 1e-6:
                problems.append("backward det defect %.3e" % defect)
            if not math.isfinite(log_back):
                problems.append("backward log norm not finite")
            # ||(Df^n)^-1|| = ||Df^n|| for det 1, and the trip returns to t
            if abs(log_trip - log_fwd) > 1e-8 or fiber_maps.torus_distance(end, t) > 1e-6:
                problems.append("round trip off: log %.3e, point %.3e"
                                % (abs(log_trip - log_fwd), fiber_maps.torus_distance(end, t)))
        return problems

    return Op("orbits:holder-backward", None, fn, check)


# Depth-4 locally constant families.  In the generic family every word
# position changes the generator, so the truncation increments are nonzero
# until the exact limit is reached.  In the disjoint-twist family the
# generator reads only positions 0 and 3, which makes the locally constant
# stopping rule stop one step early (see README.md).
FAULT_POINT = (0.7, 0.7)


def _int_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _generic_depth4_system():
    # S^a L^b S^c L^d (upper and lower shears) with positive exponents
    # w_i + 1: distinct for distinct words, since S and L generate a free
    # monoid
    table = {}
    for w in skew.admissible_words(base_shift.ShiftSpace(2), 4):
        a, b, c, d = (s + 1 for s in w)
        m = _int_mul(_int_mul((1, a, 0, 1), (1, 0, b, 1)), _int_mul((1, c, 0, 1), (1, 0, d, 1)))
        table[w] = fiber_maps.ToralAutomorphism(m)
    return _depth4_system(table)


def _fault_depth4_system():
    ident = fiber_maps.ToralAutomorphism((1, 0, 0, 1))
    ta = fiber_maps.LocalizedTwist((0.25, 0.25), 0.2, 0.5)
    tb = fiber_maps.LocalizedTwist((0.75, 0.75), 0.2, 1.0)
    table = {
        w: fiber_maps.Composite([ta if w[0] else ident, tb if w[3] else ident])
        for w in skew.admissible_words(base_shift.ShiftSpace(2), 4)
    }
    return _depth4_system(table)


def _depth4_system(table):
    return skew.SkewSystem(
        base_shift.ShiftSpace(2),
        base_shift.BaseMeasure("bernoulli", probs=(0.5, 0.5)),
        skew.LocallyConstantFamily(4, table),
    )


def closed_form_unstable(system, x, y, t):
    """Exact unstable holonomy of a depth-D family and its derivative.

    Backward steps k >= D-1 read only indices <= 0, where x and y agree,
    so h = F_y,0 o ... o F_y,D-2 o F_x,D-2^-1 o ... o F_x,0^-1 with F_.,k the
    generator of the word at [-k-1, D-1-k).
    """
    depth = system.family.depth
    table = system.family.table
    deriv = fiber_maps.IDENTITY
    for k in range(depth - 1):
        g = table[tuple(x.symbol(j) for j in range(-k - 1, depth - 1 - k))].inverse()
        t, d = g.apply(t)
        deriv = fiber_maps.mat_mul(d, deriv)
    for k in range(depth - 2, -1, -1):
        g = table[tuple(y.symbol(j) for j in range(-k - 1, depth - 1 - k))]
        t, d = g.apply(t)
        deriv = fiber_maps.mat_mul(d, deriv)
    return t, deriv


def lc_depth4_op(ctx, n_pairs):
    """Seeded depth-4 unstable (point and linear) and stable queries, plus
    the fixed disjoint-twist query that the stopping rule gets wrong."""
    seed = ctx.stream_seed()
    points = [(ctx.rand.random(), ctx.rand.random()) for _ in range(n_pairs)]
    diffs = [1 + ctx.rand.randrange(3) for _ in range(n_pairs)]

    def fn(ctx):
        system = _generic_depth4_system()
        out = []
        for k, (t, diff) in enumerate(zip(points, diffs)):
            x, y = _pair(system, seed, k, "unstable", diff)
            q = holonomy.HolonomyQuery("unstable", x, y)
            img, _ = holonomy.unstable_holonomy_point(system, q, t)
            mat, _ = holonomy.linear_stable_holonomy(system, q, t)
            xs, ys = _pair(system, seed, n_pairs + k, "stable", -diff)
            stable, _ = holonomy.stable_holonomy_point(
                system, holonomy.HolonomyQuery("stable", xs, ys), t)
            out.append((img, mat, stable))
        fault = _fault_depth4_system()
        x = base_shift.periodic_point(fault.space, (0,))
        y = base_shift.BaseSequence(fault.space, lambda j: int(j == 1))
        got, _ = holonomy.unstable_holonomy_point(
            fault, holonomy.HolonomyQuery("unstable", x, y), FAULT_POINT)
        exact, _ = closed_form_unstable(fault, x, y, FAULT_POINT)
        failed = int(fiber_maps.torus_distance(got, exact) > 1e-9)
        return (out, got), 3 * n_pairs + 1, failed

    def check(out, ctx):
        system = _generic_depth4_system()
        vals, _ = out
        worst = 0.0
        for k, ((img, mat, stable), t, diff) in enumerate(zip(vals, points, diffs)):
            x, y = _pair(system, seed, k, "unstable", diff)
            exact, deriv = closed_form_unstable(system, x, y, t)
            worst = max(worst, fiber_maps.torus_distance(img, exact),
                        fiber_maps.mat_sub_norm(mat, deriv) / fiber_maps.mat_norm(deriv),
                        fiber_maps.torus_distance(stable, t))
        return [] if worst < 1e-9 else ["depth-4 holonomy off its closed form by %.3e" % worst]

    return Op("queries:lc-depth4", "queries", fn, check, units=3 * n_pairs + 1)


# --- references ----------------------------------------------------------


def markov_exponent(matrices, P, n_bins=20000, n_iter=5000, tol=1e-14):
    """Top exponent of a stationary Markov product of 2x2 matrices.

    The joint law of (current symbol, projective direction) is the fixed
    point of a transfer operator on symbols x angle bins; the exponent is
    the log-expansion integrated against it.  This shares no code with
    skewlab's orbit simulation or its i.i.d. oracle.
    """
    P = np.asarray(P, dtype=float)
    vals, vecs = np.linalg.eig(P.T)
    pi = np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))])
    pi = pi / pi.sum()
    theta = (np.arange(n_bins) + 0.5) * math.pi / n_bins
    vx, vy = np.cos(theta), np.sin(theta)
    images, gains = [], []
    for a, b, c, d in matrices:
        wx, wy = a * vx + b * vy, c * vx + d * vy
        gains.append(np.log(np.hypot(wx, wy)))
        phi = np.mod(np.arctan2(wy, wx), math.pi)
        images.append(np.clip((phi / math.pi * n_bins).astype(np.int64), 0, n_bins - 1))
    mu = np.outer(pi, np.full(n_bins, 1.0 / n_bins))
    for _ in range(n_iter):
        pushed = np.array([np.bincount(idx, weights=m, minlength=n_bins)
                           for idx, m in zip(images, mu)])
        new = P.T @ pushed
        done = np.abs(new - mu).sum() < tol
        mu = new
        if done:
            break
    return float(sum((m * g).sum() for m, g in zip(mu, gains)))


# --- workloads -----------------------------------------------------------


def _twisted_cfg(ctx, name, **run):
    ctx.add_config(name, BERNOULLI.format(metric_base=0.5) + "\n" + TWISTED_FIBER + "\n"
                   + LOOP + "\n" + run_section(seed=ctx.stream_seed(), **run))


def criterion_op(ctx, name, **run):
    _twisted_cfg(ctx, name, **run)
    return Op("criterion:" + name, "criterion", cli_op("criterion", name), check_criterion)


def sweep_op(ctx, name, T_values, **run):
    ctx.add_config(name, BERNOULLI.format(metric_base=0.5) + "\n" + CAT_FIBER + "\n" + LOOP
                   + "\n" + SWEEP.format(T_values=", ".join(map(str, T_values))) + "\n"
                   + run_section(seed=ctx.stream_seed(), **run))
    return Op("sweep:" + name, "sweep", cli_op("sweep", name), check_sweep,
              units=len(T_values))


def _pipeline_companions(ctx):
    """Small criterion, one-row sweep and probe on the twisted pipeline
    system, so that every end-to-end metric is measured on every workload."""
    _twisted_cfg(ctx, "probe-small")
    return [
        criterion_op(ctx, "criterion-small", grid=12, n_steps=200, n_K=25, eps_K=0.1,
                     j_max=8, frame_depth=60),
        sweep_op(ctx, "sweep-small", [0.5], grid=8, n_steps=200, n_orbits=8, n_K=25,
                 eps_K=0.1, j_max=8, frame_depth=60),
        probe_op(ctx, "probe-small", bins=32, n_iter=70, burn_in=20, n_points=25),
    ]


def mc_exponent(ctx):
    b = BERNOULLI.format(metric_base=0.5)
    ops = [
        exponent_op(ctx, "shear", b, SHEAR_FIBER, 32, 1000, check_against("shear")),
        exponent_op(ctx, "twisted", b, TWISTED_FIBER, 32, 1000, check_positive),
        exponent_op(ctx, "markov", MARKOV, SHEAR_FIBER, 32, 1000, check_against("markov")),
    ]
    _twisted_cfg(ctx, "lc")
    ops.append(lc_queries_op(ctx, "lc", 32))
    return ops + _pipeline_companions(ctx)


def prepare_mc_exponent(ctx):
    ctx.refs["shear"] = lyapunov.furstenberg_exponent_transfer_operator(
        [SHEAR_UP, SHEAR_LO], (0.5, 0.5), n_bins=20000)
    ctx.refs["markov"] = markov_exponent([SHEAR_UP, SHEAR_LO], GOLDEN_MEAN_P)
    # the reference method itself must reproduce the i.i.d. oracle
    iid = markov_exponent([SHEAR_UP, SHEAR_LO], ((0.5, 0.5), (0.5, 0.5)))
    if abs(iid - ctx.refs["shear"]) > 1e-10:
        return ["Markov reference %.12f disagrees with the i.i.d. oracle %.12f"
                % (iid, ctx.refs["shear"])]
    return []


def criterion_sweep(ctx):
    _twisted_cfg(ctx, "probe")
    _twisted_cfg(ctx, "lc")
    b = BERNOULLI.format(metric_base=0.5)
    return [
        sweep_op(ctx, "sweep", [0, 0.5], grid=8, n_steps=200, n_orbits=10, n_K=36,
                 eps_K=0.1, j_max=16, frame_depth=100),
        criterion_op(ctx, "criterion", grid=16, n_steps=300, n_K=36, eps_K=0.1, j_max=64,
                     frame_depth=150),
        probe_op(ctx, "probe", bins=64, n_iter=150, burn_in=50, n_points=25),
        exponent_op(ctx, "twisted", b, TWISTED_FIBER, 16, 1000, check_positive),
        lc_queries_op(ctx, "lc", 48),
    ]


def prepare_criterion_sweep(ctx):
    system, _, loop = _loop_for(ctx, "probe")
    defect = loop.area_defect(grid=8)
    return [] if defect < 1e-12 else ["loop area defect %.3e >= 1e-12" % defect]


def holonomy_workload(ctx):
    holder = BERNOULLI.format(metric_base=0.0625) + "\n" + HOLDER_FIBER
    for direction in ("stable", "unstable"):
        ctx.add_config("holonomy-" + direction, holder + "\n[holonomy]\ndirection = %s\n\n"
                       % direction + run_section(seed=ctx.stream_seed(), beta=1.0))
    ctx.add_config("holder", holder + "\n" + run_section(seed=ctx.stream_seed()))
    ctx.add_config("bunching", holder + "\n" + run_section(seed=ctx.stream_seed(), beta=1.0))
    ops = [
        Op("bunching:holder", None, cli_op("bunching", "bunching"), check_bunching),
        Op("holonomy:stable", None, cli_op("holonomy", "holonomy-stable"), check_holonomy_cmd),
        Op("holonomy:unstable", None, cli_op("holonomy", "holonomy-unstable"),
           check_holonomy_cmd),
        exponent_op(ctx, "holder-exponent", BERNOULLI.format(metric_base=0.0625),
                    HOLDER_FIBER, 4, 250, check_exponent_basic),
        holder_queries_op(ctx, 6),
        holder_linear_op(ctx),
        holder_axioms_op(ctx, 3),
        holder_orbits_op(ctx, 3, 1000, 40),
        lc_depth4_op(ctx, 8),
    ]
    return ops + _pipeline_companions(ctx)


WORKLOADS = {
    "mc-exponent": (mc_exponent, prepare_mc_exponent),
    "criterion-sweep": (criterion_sweep, prepare_criterion_sweep),
    "holonomy": (holonomy_workload, lambda ctx: []),
}
