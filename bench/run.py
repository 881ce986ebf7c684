"""skewlab benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout; skewlab need not be installed):

    python3 bench/run.py --workload <mc-exponent|criterion-sweep|holonomy>
                         --seed <n> --seconds <s> --trace <0|1>

A run sets up (median of several fresh processes), runs one untimed round
with WORKERS=1, then repeats whole rounds of the workload's operations for
``--seconds`` seconds with the default worker count, and checks that
every round's outputs are bit-identical to the WORKERS=1 round and correct.
With ``--trace 0`` it reports the end-to-end metrics, medians over the
timed rounds; with ``--trace 1`` it times one untraced round, traces the
remaining rounds and reports per-layer metrics per round, with the
tracing overhead.  The last line of stdout is the result object.
"""

import argparse
import collections
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calibrate import calibrate, normalized  # noqa: E402


def _cpus():
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


Round = collections.namedtuple(
    "Round", "wall times outputs attempted failed problems raw_wall")


def _round(ops, ctx, traced=None):
    """Run every operation once; times are normalized (see calibrate.py)."""
    times, outputs, attempted, failed, problems = [], [], 0, 0, []
    raw_total = 0.0
    cal_before = calibrate()
    for op in ops:
        t0 = time.perf_counter()
        try:
            if traced is not None:
                out, n, f = traced.span("bench." + op.label, op.fn, ctx)
            else:
                out, n, f = op.fn(ctx)
        except Exception as exc:  # an unexpected failure makes the run incorrect
            out, n, f = None, 1, 1
            problems.append("%s raised %s: %s" % (op.label, type(exc).__name__, exc))
        dt = time.perf_counter() - t0
        cal_after = calibrate()
        times.append(normalized(dt, cal_before, cal_after))
        cal_before = cal_after
        raw_total += dt
        outputs.append(out)
        attempted += n
        failed += f
    return Round(sum(times), times, outputs, attempted, failed, problems, raw_total)


def _end_to_end(ops, rounds):
    """Medians over rounds of the user-visible figures."""
    per_round = {k: [] for k in ("wall_s", "exponent_steps_per_s", "criterion_s",
                                 "sweep_row_s", "probe_s", "holonomy_queries_per_s")}
    for r in rounds:
        acc = {}
        for op, dt in zip(ops, r.times):
            if op.kind is not None:
                units, secs = acc.get(op.kind, (0, 0.0))
                acc[op.kind] = (units + op.units, secs + dt)
        per_round["wall_s"].append(r.wall)
        per_round["exponent_steps_per_s"].append(acc["exponent"][0] / acc["exponent"][1])
        per_round["criterion_s"].append(acc["criterion"][1])
        per_round["sweep_row_s"].append(acc["sweep"][1] / acc["sweep"][0])
        per_round["probe_s"].append(acc["probe"][1])
        per_round["holonomy_queries_per_s"].append(acc["queries"][0] / acc["queries"][1])
    units = {"wall_s": "s", "exponent_steps_per_s": "steps/s", "criterion_s": "s",
             "sweep_row_s": "s", "probe_s": "s", "holonomy_queries_per_s": "queries/s"}
    return {k: (statistics.median(v), units[k]) for k, v in per_round.items()}


def _setup_seconds(ctx):
    """Median set-up time over fresh processes (import, parse_config,
    build_system): raw and normalized seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cfgs = [path for path, _ in ctx.configs.values()]
    child = os.path.join(ROOT, "bench", "setup_child.py")
    raw, values = [], []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, child] + cfgs, env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError("set-up child failed: %s" % res.stderr.strip())
        elapsed, norm = map(float, res.stdout.split())
        raw.append(elapsed)
        values.append(norm)
    return statistics.median(raw), statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "skewlab")):
        print("error: no skewlab sources under %s" % SRC, file=sys.stderr)
        return 2
    # one worker per usable core; BLAS stays single-threaded
    workers = str(_cpus())
    os.environ["WORKERS"] = workers
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    build, prepare = workloads.WORKLOADS[args.workload]
    out_root = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_root, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    try:
        ctx = workloads.Context(workdir, args.seed)
        ops = build(ctx)
        setup_raw_s, setup_s = _setup_seconds(ctx)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracing.install(tracer)
        problems = prepare(ctx)
        if tracer is not None:
            prepare_stats, _ = tracer.collect()
            tracer.uninstall()

        os.environ["WORKERS"] = "1"
        reference = _round(ops, ctx)
        os.environ["WORKERS"] = workers
        problems += reference.problems
        for op, out in zip(ops, reference.outputs):
            if out is not None:
                problems += ["%s: %s" % (op.label, p) for p in op.check(out, ctx)]

        rounds = []
        untraced = None
        if tracer is not None:
            untraced = _round(ops, ctx)
            rounds.append(untraced)
            tracing.install(tracer)
        deadline = time.perf_counter() + args.seconds
        timed = []
        while not timed or time.perf_counter() < deadline:
            timed.append(_round(ops, ctx, tracer))
        if tracer is not None:
            tracer.uninstall()
        rounds += timed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = reference.attempted + sum(r.attempted for r in rounds)
        failed = reference.failed + sum(r.failed for r in rounds)
        ref_key = [repr(out) for out in reference.outputs]
        for r in rounds:
            problems += r.problems
            for op, key, out in zip(ops, ref_key, r.outputs):
                if repr(out) != key:
                    problems.append("%s: output differs from the WORKERS=1 round" % op.label)

        if tracer is None:
            metrics = _end_to_end(ops, timed)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
            print("raw seconds: setup %.4f, round median %.4f over %d rounds"
                  % (setup_raw_s, statistics.median(r.raw_wall for r in timed), len(timed)),
                  file=sys.stderr)
        else:
            stats, counts = tracer.collect()
            metrics = tracing.layer_metrics(stats, counts, len(timed))
            metrics["lyapunov.transfer_operator.s"] = (
                prepare_stats.get("lyapunov.transfer_operator", (0, 0.0, 0.0))[2], "s")
            traced_wall = statistics.median(r.wall for r in timed)
            metrics["trace.overhead_pct"] = (100.0 * (traced_wall / untraced.wall - 1.0), "%")
            span_file = os.path.join(out_root, "spans-%s-%d.json" % (args.workload, args.seed))
            with open(span_file, "w") as fh:
                json.dump([dict(zip(("id", "parent", "root", "name", "start", "end"), s))
                           for s in tracer.spans], fh)
        for p in problems:
            print("check failed: %s" % p, file=sys.stderr)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        }
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
