"""The benchmark's span names still resolve in the library.

perfbench/spans.py resolves every public function of its MODULES and every
EXTRA attribute path by name when a benchmark run starts, so deleting or
renaming one of them fails every run.  The module is read and executed here
without importing it, so nothing is written under perfbench/.
"""

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
