"""One pass of a workload in a fresh process; run.py starts it.

Calls ``hlqr.cli.main(argv)`` in-process for each command of the workload,
back to back, timing each call; then, outside the timed region, checks each
command's outputs and digests them.  With ``--trace`` every public hlqr
function runs inside a span and the pass also reports per-layer metrics.
The pass result is written as JSON to ``--result``.

The BLAS/OpenMP thread variables must already be set in the environment,
since numpy reads them when it is first imported.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import envinfo
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_commands(cli_main, commands, seed, work, searches):
    """Run the commands back to back.

    Returns (wall seconds, per-command runs, captured console output).
    """
    runs = []
    sink = io.StringIO()
    t_pass = time.perf_counter()
    for i, command in commands:
        out = work / f"c{i}"
        argv = [*command.argv, "--seed", str(seed), "--out", str(out)]
        n_seen = len(searches)
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli_main(argv)
        except Exception:  # a crash is a failed command, not a failed pass
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        runs.append((i, command, out, rc, error, seconds, searches[n_seen:]))
    return time.perf_counter() - t_pass, runs, sink.getvalue()


def judge(runs, log):
    """Output checks and digests of each command, outside the timed region."""
    out = []
    for i, command, out_dir, rc, error, seconds, searches in runs:
        failures, facts = [], {}
        if error is not None:
            failures.append(error)
        elif rc != 0:
            failures.append(f"exit code {rc}: {log[-2000:]}")
        else:
            try:
                failures, facts = checks.check_command(command, out_dir, searches)
            except Exception:  # a broken output must not stop the other checks
                failures.append("check raised:\n" + traceback.format_exc())
        digest = checks.digest(out_dir) if out_dir.is_dir() else None
        out.append({"index": i, "argv": " ".join(command.argv),
                    "seconds": seconds, "failures": failures,
                    "digest": digest, **facts})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--only", type=int, help="run one command by index")
    args = parser.parse_args(argv)

    import hlqr.cli

    src = (ROOT / "src").resolve()
    if src not in Path(hlqr.__file__).resolve().parents:
        sys.exit(f"hlqr imported from {hlqr.__file__}, not from {src}")

    recorder = spans.Recorder() if args.trace else None
    searches = spans.instrument(recorder)
    commands = list(enumerate(WORKLOADS[args.workload]))
    if args.only is not None:
        commands = [commands[args.only]]

    t_start = time.monotonic()
    wall, runs, log = run_commands(hlqr.cli.main, commands, args.seed,
                                   args.work, searches)
    t_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"wall_s": wall, "t_start": t_start, "t_end": t_end,
              "peak_rss_mb": peak_rss_mb}
    if recorder is not None:
        recorder.enabled = False
        found = recorder.spans
        roots = spans.root_spans(found)
        layers = spans.layer_metrics(found)
        covered = sum(found[r][3] - found[r][2] for r in roots) - layers["cli.self_s"]
        result.update({
            "layers": layers,
            "coverage": covered / wall,
            "command_layers": [spans.layer_metrics(found, r) for r in roots],
            "spans": found,
        })
    result["commands"] = judge(runs, log)
    result["env"] = envinfo.environment(ROOT)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
