"""Call-site tracing for the benchmark's traced runs.

The tracer replaces public functions and methods of the skewlab modules
with timing wrappers.  A module-level function is replaced in every
skewlab module that holds it under that name (its defining module and
each module that imported it), so calls from inside the package are seen
too; methods are replaced on their class.  Nothing inside the package is
edited, and ``uninstall`` puts every original back.

Each wrapper counts calls, inclusive time and self time (inclusive time
minus the time of traced calls made inside it).  Hot functions are only
aggregated; the coarse ones listed with ``span=True`` also keep a span
record (id, parent id, root id, name, start, end) in memory, which the
benchmark writes out when it ends.  Statistics are kept per thread, since
``integrated_exponent`` runs its orbits on a thread pool, and merged by
``collect``.  Times are wall-clock: a span on a pool thread also counts
the time that thread waited for the interpreter lock.
"""

import itertools
import sys
import threading
import time


class _ThreadState:
    __slots__ = ("stack", "stats", "counts", "loop_depth")

    def __init__(self):
        self.stack = []  # frames: [child_time, span_id, root_id]
        self.stats = {}  # name -> [calls, self_s, incl_s]
        self.counts = {}  # name -> number
        self.loop_depth = 0


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patches = []
        self._ids = itertools.count(1)
        self.spans = []

    def _state(self):
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState()
            self._tls.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name, fn, span=False, note=None, loop=False):
        """A traced stand-in for ``fn``.

        ``note(state, args, kwargs, result)`` may add counts after a call
        that returned; ``loop`` marks a holonomy-loop evaluation so that
        holonomy calls made inside it can be counted.
        """
        perf = time.perf_counter
        state = self._state
        ids = self._ids
        spans = self.spans

        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            if span:
                sid = next(ids)
                root = parent[2] if parent is not None and parent[2] else sid
            else:
                sid = parent[1] if parent is not None else None
                root = parent[2] if parent is not None else None
            frame = [0.0, sid, root]
            stack.append(frame)
            if loop:
                st.loop_depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                if loop:
                    st.loop_depth -= 1
                if parent is not None:
                    parent[0] += dur
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - frame[0]
                rec[2] += dur
                if span:
                    spans.append(
                        (sid, parent[1] if parent is not None else None, root, name, t0, t1)
                    )
            if note is not None:
                note(st, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` under a span of the given name (a benchmark operation)."""
        return self.wrap(name, fn, span=True)(*args, **kwargs)

    def patch_function(self, module, attr, name, **opts):
        """Replace ``module.attr`` wherever a skewlab module holds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, **opts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "skewlab" or mod_name.startswith("skewlab.")):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((setattr, mod, attr, original))
                setattr(mod, attr, traced)
        return traced

    def patch_method(self, cls, attr, name, **opts):
        original = cls.__dict__[attr]
        self._patches.append((setattr, cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **opts))

    def patch_item(self, table, key, name, **opts):
        original = table[key]
        self._patches.append((dict.__setitem__, table, key, original))
        table[key] = self.wrap(name, original, **opts)

    def uninstall(self):
        for restore, obj, key, original in reversed(self._patches):
            restore(obj, key, original)
        self._patches.clear()

    def collect(self):
        """Merge and reset the statistics of every thread seen so far."""
        stats, counts = {}, {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, self_s, incl_s) in st.stats.items():
                rec = stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += self_s
                rec[2] += incl_s
            for name, v in st.counts.items():
                counts[name] = counts.get(name, 0) + v
            st.stats = {}
            st.counts = {}
        return stats, counts


def count(st, name, v=1):
    st.counts[name] = st.counts.get(name, 0) + v


def _steps(st, args, kwargs, result):
    count(st, "skew.iterate_cocycle.steps", abs(result.steps))


def _depth(st, args, kwargs, result):
    count(st, "holonomy.depth_sum", result[1].stopped_at)
    count(st, "holonomy.depth_n")
    if st.loop_depth:
        count(st, "criterion.loop_holonomy_calls")


def _frame(st, args, kwargs, result):
    count(st, "lyapunov.frames_tried")
    if result.converged:
        count(st, "lyapunov.frames_converged")


FIBER_KINDS = ("toral", "twist", "compose", "stdmap", "stdmap_inv")


def install(tracer):
    """Wrap the public calls of every skewlab layer the benchmark reports."""
    from skewlab import (
        base_shift, cli, config, criterion, fiber_maps, holonomy, lyapunov, rng, skew,
    )

    t = tracer
    t.patch_function(rng, "counter_uniform", "rng.counter_uniform")
    t.patch_method(base_shift.BaseSequence, "symbol", "base_shift.symbol")
    t.patch_function(base_shift, "sample_sequence", "base_shift.sample_sequence")
    for cls in (
        fiber_maps.ToralAutomorphism,
        fiber_maps.LocalizedTwist,
        fiber_maps.Composite,
        fiber_maps.StandardMap,
        fiber_maps._StandardMapInverse,
    ):
        t.patch_method(cls, "apply", "fiber_maps.apply." + cls.kind)
    t.patch_method(skew.SkewSystem, "fiber_map_at", "skew.fiber_map_at")
    t.patch_method(skew.SkewSystem, "inverse_fiber_map_at", "skew.inverse_fiber_map_at")
    t.patch_method(skew.HolderFamily, "parameter", "skew.holder_parameter")
    t.patch_function(skew, "iterate_cocycle", "skew.iterate_cocycle", note=_steps)
    t.patch_function(
        holonomy, "stable_holonomy_point", "holonomy.stable_holonomy_point", note=_depth
    )
    t.patch_function(
        holonomy, "linear_stable_holonomy", "holonomy.linear_stable_holonomy"
    )
    t.patch_function(
        holonomy, "fiber_bunching_margin", "holonomy.fiber_bunching_margin", span=True
    )
    t.patch_function(lyapunov, "oseledets_frame", "lyapunov.oseledets_frame", note=_frame)
    for attr in ("return_map_exponent_grid", "integrated_exponent"):
        t.patch_function(lyapunov, attr, "lyapunov." + attr, span=True)
    t.patch_function(
        lyapunov,
        "furstenberg_exponent_transfer_operator",
        "lyapunov.transfer_operator",
        span=True,
    )
    for attr in ("check_pinching", "check_twisting", "su_state_probe"):
        t.patch_function(criterion, attr, "criterion." + attr, span=True)

    def traced_loop(st, args, kwargs, loop):
        loop.h = t.wrap("criterion.loop.h", loop.h, loop=True)
        loop.H_at = t.wrap("criterion.loop.H_at", loop.H_at, loop=True)

    t.patch_function(
        criterion, "build_holonomy_loop", "criterion.build_holonomy_loop", note=traced_loop
    )
    for attr in ("parse_config", "build_system"):
        t.patch_function(config, attr, "config." + attr, span=True)
    t.patch_function(cli, "write_csv", "cli.write_csv", span=True)
    for cmd in list(cli._DISPATCH):
        t.patch_item(cli._DISPATCH, cmd, "cli." + cmd, span=True)


def layer_metrics(stats, counts, rounds):
    """Per-round values of the per-layer metrics named in BENCHMARK.json."""

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / rounds

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[1] / rounds

    def incl_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    kinds = ["fiber_maps.apply." + k for k in FIBER_KINDS]
    steps = counts.get("skew.iterate_cocycle.steps", 0) / rounds
    loop_steps = calls("criterion.loop.H_at")
    out = {
        "rng.counter_uniform.calls": (calls("rng.counter_uniform"), "count"),
        "rng.counter_uniform.self_s": (self_s("rng.counter_uniform"), "s"),
        "base_shift.symbol.calls": (calls("base_shift.symbol"), "count"),
        "base_shift.symbol.self_s": (self_s("base_shift.symbol"), "s"),
        "base_shift.sample_sequence.calls": (calls("base_shift.sample_sequence"), "count"),
        "fiber_maps.apply.calls": (sum(calls(k) for k in kinds), "count"),
    }
    for k in FIBER_KINDS:
        out["fiber_maps.apply.%s.calls" % k] = (calls("fiber_maps.apply." + k), "count")
    out.update({
        "fiber_maps.apply.self_s": (sum(self_s(k) for k in kinds), "s"),
        "skew.fiber_map_at.calls": (calls("skew.fiber_map_at"), "count"),
        "skew.fiber_map_at.self_s": (self_s("skew.fiber_map_at"), "s"),
        "skew.inverse_fiber_map_at.calls": (calls("skew.inverse_fiber_map_at"), "count"),
        "skew.iterate_cocycle.steps": (steps, "count"),
        "skew.iterate_cocycle.us_per_step": (
            ratio(incl_s("skew.iterate_cocycle") * 1e6, steps), "us"),
        "skew.holder_parameter.calls": (calls("skew.holder_parameter"), "count"),
        "skew.holder_parameter.self_s": (self_s("skew.holder_parameter"), "s"),
        "holonomy.stable_holonomy_point.calls": (
            calls("holonomy.stable_holonomy_point"), "count"),
        "holonomy.stable_holonomy_point.self_s": (
            self_s("holonomy.stable_holonomy_point"), "s"),
        "holonomy.linear_stable_holonomy.calls": (
            calls("holonomy.linear_stable_holonomy"), "count"),
        "holonomy.linear_stable_holonomy.self_s": (
            self_s("holonomy.linear_stable_holonomy"), "s"),
        "holonomy.truncation_depth_mean": (
            ratio(counts.get("holonomy.depth_sum", 0), counts.get("holonomy.depth_n", 0)),
            "steps"),
        "holonomy.fiber_bunching_margin.s": (incl_s("holonomy.fiber_bunching_margin"), "s"),
        "lyapunov.oseledets_frame.calls": (calls("lyapunov.oseledets_frame"), "count"),
        "lyapunov.oseledets_frame.self_s": (self_s("lyapunov.oseledets_frame"), "s"),
        "lyapunov.frames_converged_ratio": (
            ratio(counts.get("lyapunov.frames_converged", 0),
                  counts.get("lyapunov.frames_tried", 0)), "ratio"),
        "lyapunov.return_map_exponent_grid.s": (
            incl_s("lyapunov.return_map_exponent_grid"), "s"),
        "lyapunov.integrated_exponent.s": (incl_s("lyapunov.integrated_exponent"), "s"),
        "lyapunov.transfer_operator.s": (incl_s("lyapunov.transfer_operator"), "s"),
        "criterion.check_pinching.s": (incl_s("criterion.check_pinching"), "s"),
        "criterion.check_twisting.s": (incl_s("criterion.check_twisting"), "s"),
        "criterion.su_state_probe.s": (incl_s("criterion.su_state_probe"), "s"),
        "criterion.loop_steps": (loop_steps, "count"),
        "criterion.holonomy_calls_per_loop_step": (
            ratio(counts.get("criterion.loop_holonomy_calls", 0) / rounds, loop_steps),
            "ratio"),
        "config.build_system.s": (incl_s("config.build_system"), "s"),
        "cli.write_csv.s": (incl_s("cli.write_csv"), "s"),
    })
    return out
