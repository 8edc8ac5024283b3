"""hlqr benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass is a fresh process (worker.py)
with one BLAS/OpenMP thread and HLQR_WORKERS=1 that runs the workload's
command list once, in a closed loop with one client.  With ``--trace 0``
passes repeat until ``--seconds`` have gone by (at least one pass); with
``--trace 1`` one untraced pass is followed by one traced pass, and their
difference is the tracing overhead.  Set-up time is measured separately,
``SETUP_PROBES`` times per run, as the time from starting an interpreter
until ``import hlqr`` returns.

The speed of a shared host's CPU drifts by tens of percent within minutes,
for every kind of code alike.  A run therefore pins itself and its children
to one CPU and, while a child runs, times a fixed loop on that CPU every
``PROBE_EVERY_S`` (``speed_probe``).  ``wall_s`` and ``setup_s`` are the
measured times rescaled to the probe's reference duration
``PROBE_REF_S``: seconds at a fixed CPU speed.  The raw times and the
measured speeds are in the record.

Output checks that fail, commands that fail, and outputs whose digest differs
from an earlier pass or run of the same code, seed and command all count as
failed commands.  The full record (environment, every pass, every check, and
with ``--trace 1`` the per-layer metrics) is printed as one JSON line and
written under perfbench/out/; the last line of stdout is the result object.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5

#: iterations of the speed probe's loop, its CPU seconds at the reference
#: speed (the median on the 2.1 GHz Xeon vCPU the benchmark was tuned on),
#: and the probing interval: about 2% of the CPU
PROBE_LOOP = 10_000
PROBE_REF_S = 0.00085
PROBE_EVERY_S = 0.05

#: a run stops starting passes, and kills a running one, after this long
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "partition.search_s": "s",
    "partition.nodes": "count",
    "partition.nodes_per_s": "1/s",
    "partition.certified_ratio": "ratio",
    "graphcost.s": "s",
    "matops.solve_care_s": "s",
    "matops.solve_care_calls": "count",
    "matops.solve_lyapunov_s": "s",
    "matops.solve_lyapunov_calls": "count",
    "matops.bartels_stewart_calls": "count",
    "hierctrl.solve_clusters_s": "s",
    "hierctrl.compute_rtilde_s": "s",
    "hierctrl.assemble_gain_s": "s",
    "hierctrl.gap_report_self_s": "s",
    "adp.collect_self_s": "s",
    "adp.collect_calls": "count",
    "adp.collect_useful_ratio": "ratio",
    "adp.policy_iteration_s": "s",
    "adp.policy_iteration_iters": "count",
    "adp.policy_iteration_s_per_iter": "s",
    "adp.collect_peak_mb": "MB",
    "sim.rollout_s": "s",
    "sim.rollout_calls": "count",
    "sim.rollout_steps_per_s": "1/s",
    "sim.collect_s": "s",
    "sim.collect_steps_per_s": "1/s",
    "sim.tabulate_signal_s": "s",
    "kernels.rollout_s": "s",
    "kernels.collect_s": "s",
    "kernels.rollout_gflops": "GFLOP/s",
    "fileio.s": "s",
    "fileio.mb_written": "MB",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def speed_probe():
    """CPU seconds of a fixed loop on this process's CPU.

    CPU time, not wall time, so that a child preempting the probe on the
    shared CPU does not count.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    return time.thread_time() - t0


def watch(proc, deadline):
    """Probe the CPU's speed until proc exits; kill it at the deadline.

    Returns ([(monotonic time, probe seconds)], True if it was killed).
    """
    samples = []
    try:
        while True:
            samples.append((time.monotonic(), speed_probe()))
            if proc.poll() is not None:
                return samples, False
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                return samples, True
            time.sleep(PROBE_EVERY_S)
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise


def at_reference(seconds, samples, t0, t1):
    """(seconds rescaled to the reference speed, slowness factor) from the
    probes taken between t0 and t1 (all probes when none fall inside)."""
    inside = [d for t, d in samples if t0 <= t <= t1] or [d for _, d in samples]
    slowness = statistics.fmean(inside) / PROBE_REF_S
    return seconds / slowness, slowness


def probe_setup(env, deadline):
    """Seconds from starting an interpreter until ``import hlqr`` returns,
    raw and at the reference speed."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", "import time, hlqr; print(time.monotonic())"],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    samples, killed = watch(proc, deadline)
    out = proc.stdout.read()
    proc.stdout.close()
    if killed or proc.returncode != 0:
        raise RuntimeError(f"import hlqr failed with exit code {proc.returncode}")
    t1 = float(out.split()[-1])
    return at_reference(t1 - t0, samples, t0, t1)[0], t1 - t0


def run_pass(workload, seed, trace, env, work, deadline, only=None):
    """One worker process; returns its result, or a crash record."""
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    if only is not None:
        cmd += ["--only", str(only)]
    t0 = time.monotonic()
    with open(work / "stderr.txt", "w+", encoding="utf-8") as err_file:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err_file)
        samples, killed = watch(proc, deadline)
        err_file.seek(0)
        err = err_file.read()
    if killed:
        err = f"pass killed after {time.monotonic() - t0:.1f} s\n{err}"
    elapsed = time.monotonic() - t0
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        t_start, t_end = result["t_start"], result["t_end"]
    else:
        t_start, t_end = t0, t0 + elapsed
        commands = WORKLOADS[workload]
        indices = range(len(commands)) if only is None else [only]
        result = {
            "wall_s": elapsed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "commands": [{"index": i, "argv": " ".join(commands[i].argv),
                          "failures": [f"pass crashed: {err[-2000:]}"],
                          "digest": None} for i in indices],
        }
    result["trace"] = trace
    result["elapsed_s"] = elapsed
    result["wall_ref_s"], result["slowness"] = at_reference(
        result["wall_s"], samples, t_start, t_end)
    return result


class DigestStore:
    """Output digests of earlier runs of the same sources, kept in the checkout."""

    def __init__(self, path, src_sha256):
        self.path = path
        self.src = src_sha256
        self.digests = {}
        if path.is_file():
            saved = json.loads(path.read_text(encoding="utf-8"))
            if saved.get("src_sha256") == src_sha256:
                self.digests = saved["digests"]

    def check(self, passes, workload, seed):
        """Mark each command whose digest differs from the first one seen."""
        for result in passes:
            for command in result["commands"]:
                if command["digest"] is None:
                    continue
                key = f"{workload}/{seed}/{command['index']}"
                expected = self.digests.setdefault(key, command["digest"])
                if command["digest"] != expected:
                    command["failures"].append(
                        f"output digest {command['digest'][:12]} differs from "
                        f"{expected[:12]} of an earlier pass or run")

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"src_sha256": self.src, "digests": self.digests},
                                  indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)


def _metric(value, unit, samples=None):
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def run(workload, seed, seconds, trace, only=None):
    """One benchmark run; returns (full record, result object)."""
    env = envinfo.pinned_env(SRC)
    deadline = time.monotonic() + RUN_BUDGET_S
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    work_root = HERE / ".work" / str(os.getpid())
    setup = [probe_setup(env, deadline) for _ in range(SETUP_PROBES)]
    passes = []
    try:
        t_measure = time.monotonic()
        while True:
            passes.append(run_pass(workload, seed, False, env,
                                   work_root / f"p{len(passes)}", deadline, only))
            if trace:
                passes.append(run_pass(workload, seed, True, env,
                                       work_root / "traced", deadline, only))
                break
            now = time.monotonic()
            if now - t_measure >= seconds or now + passes[-1]["elapsed_s"] > deadline:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work_root.parent.rmdir()

    env_block = next((p["env"] for p in passes if "env" in p), None)
    store = DigestStore(HERE / ".state" / "digests.json",
                        env_block["src_sha256"] if env_block else "unknown")
    store.check(passes, workload, seed)
    store.save()

    attempted = sum(len(p["commands"]) for p in passes)
    failed = sum(1 for p in passes for c in p["commands"] if c["failures"])
    untraced = [p for p in passes if not p["trace"]]
    wall = statistics.median(p["wall_ref_s"] for p in untraced)
    e2e = {
        "wall_s": _metric(wall, "s", len(untraced)),
        "setup_s": _metric(statistics.median(ref for ref, _ in setup), "s", len(setup)),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in untraced),
                               "MB", len(untraced)),
        "ok_frac": _metric(1.0 - failed / attempted, "ratio", attempted),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env_block,
        "end_to_end": e2e,
        "failed_frac": failed / attempted,
        "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "raw_setup_s": statistics.median(raw for _, raw in setup),
        "setup_samples_s": [{"ref": ref, "raw": raw} for ref, raw in setup],
        "passes": [{k: v for k, v in p.items() if k not in ("env", "spans")}
                   for p in passes],
    }
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in e2e.items()}
    if trace:
        traced = passes[-1]
        if "layers" in traced:
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["wall_ref_s"] - wall
            layers["trace.coverage"] = traced["coverage"]
        else:
            layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        record["per_layer"] = metrics
        record["spans"] = traced.get("spans", [])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="hlqr benchmark run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "hlqr" / "__init__.py").is_file():
        print(f"no hlqr sources under {SRC}", file=sys.stderr)
        return 2

    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
