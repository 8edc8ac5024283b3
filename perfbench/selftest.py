"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs the cheapest (first) command of each workload once untraced and once
traced.  Then checks that BENCHMARK.json and the runner agree on every metric
name and unit, that every metric is reported as a finite number with its
unit, that the record carries the environment block, and that every output
check and the determinism check pass.  Prints each problem and exits 1 if there is any.
"""

import json
import math
import sys

import run
from workloads import WORKLOADS

ENV_KEYS = {"blas", "numpy", "scipy", "python", "hlqr_using_numba",
            "HLQR_PURE_NUMPY", "HLQR_WORKERS", "thread_env", "nproc", "git_sha",
            "src_sha256"}


def _reported(metrics, units, where):
    problems = []
    for name, unit in units.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{where}: {name} missing")
        elif got["unit"] != unit:
            problems.append(f"{where}: {name} in {got['unit']}, expected {unit}")
        elif not (isinstance(got["value"], (int, float))
                  and math.isfinite(got["value"])):
            problems.append(f"{where}: {name} = {got['value']!r}")
    return problems


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e_units != run.END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    if layer_units != run.PER_LAYER_UNITS:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER_UNITS")

    for workload in WORKLOADS:
        record, result = run.run(workload, seed=0, seconds=0, trace=True, only=0)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload}: result keys {sorted(result)}")
        for p in record["passes"]:
            for command in p["commands"]:
                problems += [f"{workload}: {command['argv']}: {f}"
                             for f in command["failures"]]
        if not result["correct"] or result["attempted"] != 2:
            problems.append(f"{workload}: {result['failed']} of "
                            f"{result['attempted']} commands failed")
        problems += _reported(result["metrics"], layer_units, workload)
        problems += _reported(record["end_to_end"], e2e_units, workload)
        missing = ENV_KEYS - set(record["env"] or {})
        if missing:
            problems.append(f"{workload}: environment block lacks {sorted(missing)}")
        print(f"{workload}: {result['attempted']} commands, "
              f"{result['failed']} failed", flush=True)

    for problem in problems:
        print(problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
