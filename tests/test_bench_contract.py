"""The benchmark reaches skewlab by name; renaming or deleting one breaks it.

``bench/tracing.install`` patches the layers the benchmark reports on, and
the workloads call module attributes such as ``holonomy.unstable_holonomy_point``.
These tests only read ``bench/``: they load its tracer and parse its sources.
"""

import ast
import importlib
import importlib.util
import pathlib

import skewlab as sl
from skewlab import config, criterion
from skewlab.base_shift import _MarkovTape

from _common import loop_inputs, twisted_cat_system

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location("_bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_patches_live_names():
    # install raises AttributeError or KeyError on a patched name that is gone,
    # and the loop's h and H_at are wrapped when build_holonomy_loop returns
    tracing = _load_bench("tracing")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        system = twisted_cat_system()
        loop = criterion.build_holonomy_loop(system, *loop_inputs(system))
        loop.h((0.3, 0.7))
        loop.H_at((0.3, 0.7))
        stats, _ = tracer.collect()
    finally:
        tracer.uninstall()
    for name in ("criterion.build_holonomy_loop", "criterion.loop.h", "criterion.loop.H_at"):
        assert stats[name][0] == 1, name
    assert not hasattr(sl.build_holonomy_loop, "__wrapped__")


def test_bench_module_attributes_exist():
    modules = {
        name: importlib.import_module("skewlab." + name)
        for name in ("base_shift", "cli", "config", "criterion", "fiber_maps",
                     "holonomy", "lyapunov", "rng", "skew")
    }
    used = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                used.add((node.value.id, node.attr))
    assert ("holonomy", "unstable_holonomy_point") in used
    missing = sorted("%s.%s" % u for u in used if not hasattr(modules[u[0]], u[1]))
    assert not missing


def test_markov_exponent_steps_its_rows_together(monkeypatch):
    # the golden-mean exponent operation reads its orbits' symbols through
    # symbol_rows, which steps the rows together and walks no tape alone
    workloads = _load_bench("workloads")
    text = workloads.MARKOV + "\n" + workloads.SHEAR_FIBER + "\n" + workloads.run_section(seed=5)
    system = config.build_system(config.parse_config(text))
    alone = []
    steps = _MarkovTape._steps

    def counted(*args):
        alone.append(args)
        return steps(*args)

    monkeypatch.setattr(_MarkovTape, "_steps", staticmethod(counted))
    assert sl.integrated_exponent(system, 32, 1000, seed=5).mean > 0.0
    assert not alone
