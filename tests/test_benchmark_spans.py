"""The benchmark's span names still resolve in the library.

perfbench/spans.py resolves every public function of its MODULES and every
EXTRA attribute path by name when a benchmark run starts, so deleting or
renaming one of them fails every run.  Its layer_metrics reads spans by the
names given to _is(...), and a name that no longer resolves reads 0 rather
than failing.  The module is read and executed here without importing it,
so nothing is written under perfbench/.
"""

import ast
import pathlib
import types

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
