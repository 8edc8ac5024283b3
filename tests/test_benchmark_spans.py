"""The benchmark's span names and positional reads still hold in the library.

perfbench/spans.py resolves every public function of its MODULES and every
EXTRA attribute path by name when a benchmark run starts, so deleting or
renaming one of them fails every run.  Its layer_metrics reads spans by the
names given to _is(...), and a name that no longer resolves reads 0 rather
than failing.  Its _counts reads step counts from arguments and results by
position, so a moved argument miscounts silently.  The module is read and
executed here without importing it, so nothing is written under perfbench/.
"""

import ast
import pathlib
import types

import numpy as np

from hlqr import _kernels, adp, sim

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_every_wrapped_name_resolves():
    spans = load_spans()
    found = spans._targets()
    for short, path in spans.EXTRA:
        assert f"{short}.{path}" in found
    for name in (*spans.SEARCHES, *spans.FILE_WRITERS):
        assert name in found
    assert {name.split(".", 1)[0] for name in found} == set(spans.MODULES)


def test_every_metric_span_resolves():
    spans = load_spans()
    found = spans._targets()
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    layer_metrics = next(node for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "layer_metrics")
    names = {arg.value for node in ast.walk(layer_metrics)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_is"
             for arg in node.args if isinstance(arg, ast.Constant)}
    assert "matops.solve_lyapunov" in names
    assert names <= set(found), sorted(names - set(found))


def test_counts_read_real_calls(monkeypatch):
    # _counts reads steps (and the rollout kernel's operation count) from the
    # arguments and results by position; record them as integrate and
    # adp.collect pass them, through the plant methods into the kernels.
    # sim.tabulate_signal_s times the signal rows, read through the sim
    # namespace once per kernel chunk and signal
    calls = {}
    tabulated = []
    tabulate = sim.tabulate_signal

    def tabulate_spy(*args, **kwargs):
        tabulated.append(args[1:3])
        return tabulate(*args, **kwargs)

    monkeypatch.setattr(sim, "tabulate_signal", tabulate_spy)

    def spy(owner, attr, name):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            calls[name] = (args, out)
            return out

        monkeypatch.setattr(owner, attr, wrapper)

    spy(sim.BlackBoxPlant, "rollout", "sim.BlackBoxPlant.rollout")
    spy(sim.BlackBoxPlant, "collect", "sim.BlackBoxPlant.collect")
    spy(_kernels, "rollout_kernel", "_kernels.rollout_kernel")
    spy(_kernels, "collect_kernel", "_kernels.collect_kernel")

    mas, spec = sim.clique_path_scenario(1, 2)
    n, m = 8, 4
    mas = sim.MasSystem(mas.agents, sim._CosDecayDisturbance(np.ones(m)))
    n_steps = 300
    sim.integrate(mas, np.zeros((m, n)), np.ones(n), n_steps * 1e-2, 1e-2,
                  cost=spec)
    # the disturbance's half-grid rows of the rollout's two chunks
    chunk = _kernels.CHUNK
    assert tabulated == [(0, 2 * chunk + 1), (2 * chunk, 2 * n_steps + 1)]
    windows, spw = 60, 20
    adp.collect(mas.black_box(), None, adp.Excitation.make(3, m),
                windows * spw * 1e-3, 1e-3, spw * 1e-3)
    # then the excitation's and the disturbance's of each collect chunk
    collect_chunks = -(-windows // (_kernels.COLLECT_CHUNK // spw))
    assert collect_chunks == 2 and len(tabulated) == 2 + 2 * collect_chunks
    assert len(calls) == 4

    spans = load_spans()
    for name, steps in (("sim.BlackBoxPlant.rollout", n_steps),
                        ("_kernels.rollout_kernel", n_steps),
                        ("sim.BlackBoxPlant.collect", windows * spw),
                        ("_kernels.collect_kernel", windows * spw)):
        assert spans._counts(name, *calls[name])["steps"] == steps, name
    counts = spans._counts("_kernels.rollout_kernel",
                           *calls["_kernels.rollout_kernel"])
    assert counts["ops"] == n_steps * spans.rollout_ops_per_step(n, m)
