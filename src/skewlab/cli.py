"""Config-driven experiment runner.

``skewlab <cmd> --config <path> [--out <dir>]`` with commands exponent,
bunching, holonomy, criterion, sweep.  Exit codes: 0 success, 1 domain
error (non-convergence, precondition failure) or output I/O error, 2
configuration error (including a missing or unreadable config file).
Output CSVs are written atomically and all numeric fields carry 17
significant digits so reruns are byte-comparable.
"""

import argparse
import inspect
import math
import os
import sys as _sys
import tempfile

from .base_shift import bracket, sample_sequence
from .config import build_system, criterion_inputs, parse_config
from .criterion import (
    TwistingParams,
    build_holonomy_loop,
    check_pinching,
    check_twisting,
    perturbation_sweep,
)
from .errors import ConfigurationError, SkewlabError
from .holonomy import HolonomyQuery, fiber_bunching_margin, stable_holonomy_point
from .lyapunov import integrated_exponent
from .rng import derive_seed


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path, header, rows):
    """Write rows atomically: temp file in the target dir, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_options(cfg, target, *skip):
    """The [run] keys that cfg sets and target takes, less skip, typed by ``RUN_KEYS``.

    Keys the config leaves out are not passed, so target's defaults apply.
    Bunching skips grid, which there means the fibre grid, not the pinching grid.
    """
    params = inspect.signature(target).parameters
    return {k: cfg.get_run(k) for k in params if cfg.has("run", k) and k not in skip}


def cmd_exponent(cfg, out_dir):
    system = build_system(cfg)
    est = integrated_exponent(system, **_run_options(cfg, integrated_exponent))
    write_csv(
        os.path.join(out_dir, "exponent.csv"),
        ["seed", "n_orbits", "n_steps", "lambda_plus_mean", "lambda_plus_stderr", "det_defect_max"],
        [[est.seed, est.n_orbits, est.n_steps, est.mean, est.stderr, est.det_defect_max]],
    )
    print("exponent mean=%.6g stderr=%.3g" % (est.mean, est.stderr))
    return 0


def cmd_bunching(cfg, out_dir):
    system = build_system(cfg)
    report = fiber_bunching_margin(system, **_run_options(cfg, fiber_bunching_margin, "grid"))
    write_csv(
        os.path.join(out_dir, "bunching.csv"),
        ["beta", "worst_margin", "satisfied"],
        [[report.beta, report.worst_margin, report.satisfied]],
    )
    print(
        "bunching beta=%g worst_margin=%.6g satisfied=%s"
        % (report.beta, report.worst_margin, str(report.satisfied).lower())
    )
    return 0


def _holonomy_pair(system, seed, direction):
    """A sampled sequence and a partner on its local stable/unstable set."""
    x = sample_sequence(system.space, system.measure, derive_seed(seed, 71), 0)
    side = range(1, 9) if direction == "stable" else range(-8, 0)
    for stream in range(1, 64):
        w = sample_sequence(system.space, system.measure, derive_seed(seed, 71), stream)
        if w.symbol(0) == x.symbol(0) and any(w.symbol(j) != x.symbol(j) for j in side):
            # stable pairs share the future of x; unstable pairs its past
            return x, (bracket(w, x) if direction == "stable" else bracket(x, w))
    raise SkewlabError("could not sample a distinct holonomy partner")


def cmd_holonomy(cfg, out_dir):
    system = build_system(cfg)
    direction = cfg.raw("holonomy", "direction", "stable")
    if direction not in ("stable", "unstable"):
        raise ConfigurationError("[holonomy].direction must be stable or unstable")
    x, y = _holonomy_pair(system, cfg.get_run("seed"), direction)
    q = HolonomyQuery(direction, x, y, **_run_options(cfg, HolonomyQuery))
    point = cfg.get_point("holonomy", "point", default=[0.3, 0.7])
    _, diag = stable_holonomy_point(system, q, point)
    report = fiber_bunching_margin(system, **_run_options(cfg, fiber_bunching_margin, "grid"))
    theta = report.worst_margin
    d = q.pair_distance
    scale = d ** system.holder_alpha if d > 0 else 1.0
    c = max(
        (v / (theta ** n * scale) for n, v in enumerate(diag.increments[:3]) if v > 0.0),
        default=0.0,
    )
    rows = [
        [n + 1, inc, c * theta ** n * scale]
        for n, inc in enumerate(diag.increments)
    ]
    write_csv(os.path.join(out_dir, "holonomy.csv"), ["n", "increment", "envelope"], rows)
    print(
        "holonomy stopped_at=%d fitted_theta=%.6g bunching_margin=%.6g"
        % (diag.stopped_at, diag.fitted_theta, theta)
    )
    return 0


def cmd_criterion(cfg, out_dir):
    system = build_system(cfg)
    p, z, i = criterion_inputs(cfg, system)
    pin = check_pinching(system, p, **_run_options(cfg, check_pinching))
    loop = build_holonomy_loop(system, p, z, i)
    tw = check_twisting(system, loop, TwistingParams(**_run_options(cfg, TwistingParams)))
    write_csv(
        os.path.join(out_dir, "criterion.csv"),
        ["pinching_flag", "pinching_integral", "nuh_fraction", "twisting_flag",
         "min_separation_median", "j_t_median"],
        [[pin.positive, pin.integral, pin.nuh_fraction, tw.twisting,
          tw.min_separation_median, tw.j_t_median]],
    )
    print(
        "pinching=%s twisting=%s"
        % (str(pin.positive).lower(), str(tw.twisting).lower())
    )
    return 0


def cmd_sweep(cfg, out_dir):
    system = build_system(cfg)
    p, z, i = criterion_inputs(cfg, system)
    t_values = cfg.get_list("sweep", "T_values", float, required=True)
    if not all(map(math.isfinite, t_values)):
        raise ConfigurationError("sweep.T_values must be finite, got %r" % (t_values,))
    center = cfg.get_point("sweep", "center", default=[0.25, 0.25])
    word = cfg.get_word("sweep", "generator_word")
    if system.is_locally_constant and word not in system.family.table:
        raise ConfigurationError("sweep.generator_word %r names no generator" % (word,))
    radius = cfg.get_float("sweep", "radius", 0.2)
    if not 0.0 < radius <= 0.25:  # the range LocalizedTwist takes
        raise ConfigurationError("sweep.radius must lie in (0, 1/4], got %r" % radius)
    rows = perturbation_sweep(
        system, word, center, radius, t_values, p, z, i,
        twisting_params=TwistingParams(**_run_options(cfg, TwistingParams)),
        **_run_options(cfg, perturbation_sweep),
    )
    write_csv(
        os.path.join(out_dir, "sweep.csv"),
        ["T", "pinching_flag", "pinching_integral", "twisting_flag",
         "twisting_min_separation_median", "L_estimate", "L_stderr", "error"],
        [[r.T, r.pinching_flag, r.pinching_integral, r.twisting_flag,
          r.twisting_min_separation_median, r.L_estimate, r.L_stderr, r.error]
         for r in rows],
    )
    n_ok = sum(1 for r in rows if not r.error)
    print("sweep rows=%d ok=%d" % (len(rows), n_ok))
    return 0


_DISPATCH = {
    "exponent": cmd_exponent,
    "bunching": cmd_bunching,
    "holonomy": cmd_holonomy,
    "criterion": cmd_criterion,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="skewlab")
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(exc)
        return _DISPATCH[args.command](parse_config(text), args.out)
    except ConfigurationError as exc:
        print("config error: %s" % exc, file=_sys.stderr)
        return 2
    except (SkewlabError, OSError) as exc:
        # OSError here comes from writing the outputs
        print("error: %s" % exc, file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
