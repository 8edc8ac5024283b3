"""Output checks and determinism digests for one command's ``--out`` directory.

Every check is an invariant of the program that holds for any seed, so a
failed check is a failed command.  The digest covers every output file except
the columns that hold wall-clock readings and the echoed output directory.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

#: columns holding machine-dependent wall-clock readings, left out of digests
MACHINE_COLUMNS = {"report.csv": {"learn_time"}, "learn_summary.csv": {"wall_time"}}

#: config_echo.json keys that differ between runs only by the output directory
RUN_KEYS = {"config_echo.json": {"out_dir"}}

#: relative distance allowed between a learned and the model-based gain
LEARN_RTOL = 1e-6

#: 30 s at dt = 1e-3 written with stride 10, plus the initial state
TRAJECTORY_ROWS = 3001

EXPECTED_FILES = {
    "solve": {"gain.npz", "gap_report.json", "report.csv"},
    "learn": {"gain.npz", "gap_report.json", "report.csv", "config_echo.json",
              "learn_summary.csv"},
    "run": {"gain.npz", "gap_report.json", "report.csv", "config_echo.json"},
}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def digest(out_dir):
    """SHA-256 over the deterministic content of every output file."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0")
        if path.suffix == ".csv":
            header, rows = _read_csv(path)
            drop = MACHINE_COLUMNS.get(path.name, set())
            keep = [i for i, col in enumerate(header) if col not in drop]
            for row in [header, *rows]:
                h.update(",".join(row[i] for i in keep).encode() + b"\n")
        elif path.suffix == ".npz":
            # the zip container embeds timestamps, so hash the arrays
            with np.load(path) as data:
                for key in sorted(data.files):
                    arr = data[key]
                    h.update(f"{key}:{arr.dtype}:{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
        elif path.suffix == ".json":
            obj = json.loads(path.read_text(encoding="utf-8"))
            for key in RUN_KEYS.get(path.name, ()):
                obj.pop(key, None)
            h.update(json.dumps(obj, sort_keys=True).encode())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def _scenario(argv):
    """(mas, spec) of the scenario a command ran on, rebuilt from its argv."""
    from hlqr.cli import ExperimentConfig, build_scenario

    flags = dict(zip(argv[2::2], argv[3::2]))
    cfg = ExperimentConfig(scenario=argv[1], s=int(flags.get("--s", 3)),
                           c=int(flags.get("--c", 3)))
    scenario = build_scenario(cfg)
    return scenario.mas, scenario.spec


def _cluster_adjacency(laplacian, assignment, s):
    adj = np.zeros((s, s), dtype=bool)
    coupled = np.abs(laplacian) > 0.0
    for u, a in enumerate(assignment):
        for v, b in enumerate(assignment):
            if a != b and coupled[u, v]:
                adj[a, b] = True
    return adj


def check_command(command, out_dir, searches):
    """Failed invariants of one command's outputs, plus measured facts.

    searches holds the PartitionResult of every decomposition search the
    command ran.  Returns (list of failure messages, dict of facts).
    """
    from hlqr.graphcost import Decomposition
    from hlqr.hierctrl import hierarchical_gain

    argv = command.argv
    kind = argv[0]
    out = Path(out_dir)
    facts = {}
    expected = set(EXPECTED_FILES[kind])
    if "--x0-scheme" in argv:
        expected.add("trajectory.csv")
    missing = sorted(name for name in expected if not (out / name).is_file())
    if missing:
        return [f"missing outputs {missing}"], facts

    failures = []
    mas, spec = _scenario(argv)
    gap = json.loads((out / "gap_report.json").read_text(encoding="utf-8"))
    header, rows = _read_csv(out / "report.csv")
    report = dict(zip(header, rows[0]))
    with np.load(out / "gain.npz") as data:
        k_h = data["k_h"]
        assignment = [int(a) for a in data["assignment"]]

    # j_approx <= j_opt <= j_h holds exactly for exact cluster Riccati
    # solutions; a learned P carries the learner's own relative error.
    tol = LEARN_RTOL * abs(gap["j_opt"]) if kind == "learn" else 0.0
    if not (gap["j_approx"] <= gap["j_opt"] + tol and gap["j_opt"] <= gap["j_h"] + tol):
        failures.append(
            f"cost sandwich violated: j_approx={gap['j_approx']!r} "
            f"j_opt={gap['j_opt']!r} j_h={gap['j_h']!r}")

    n, m = spec.n, spec.m
    n_agents = len(assignment)
    s = max(assignment) + 1
    adj = _cluster_adjacency(spec.graph.laplacian, assignment, s)
    members = [[u for u in range(n_agents) if assignment[u] == j] for j in range(s)]
    kappa = 0
    for a in range(s):
        for b in range(s):
            if a == b or adj[a, b]:
                continue
            if a < b:
                kappa += len(members[a]) * len(members[b])
            rows_a = [m * u + i for u in members[a] for i in range(m)]
            cols_b = [n * v + i for v in members[b] for i in range(n)]
            if np.any(k_h[np.ix_(rows_a, cols_b)] != 0.0):
                failures.append(f"k_h block ({a},{b}) between non-adjacent "
                                f"clusters is not exactly zero")
    if float(report["kappa"]) != kappa:
        failures.append(f"report kappa {report['kappa']} != {kappa} recounted")
    n_c = int(report["n_c"])
    if n_c > n_agents * (n_agents - 1) // 2 - kappa:
        failures.append(f"n_c={n_c} exceeds N(N-1)/2 - kappa")

    if command.kappa_ref is not None:
        if len(searches) != 1:
            failures.append(f"expected one partition search, saw {len(searches)}")
        elif not searches[0].optimal:
            failures.append("partition search not certified optimal")
        if float(report["kappa"]) != command.kappa_ref:
            failures.append(f"kappa {report['kappa']} != reference {command.kappa_ref}")

    if kind == "learn":
        dec = Decomposition.from_assignment(assignment)
        k_model = hierarchical_gain(mas, spec, dec).k_h
        rel = float(np.linalg.norm(k_h - k_model) / np.linalg.norm(k_model))
        facts["learned_gain_rel_err"] = rel
        l_header, l_rows = _read_csv(out / "learn_summary.csv")
        col = l_header.index("iterations")
        facts["pi_iterations"] = [int(row[col]) for row in l_rows]
        if not rel <= LEARN_RTOL:
            failures.append(f"learned k_h off the model-based gain by {rel:.3g}")

    if "trajectory.csv" in expected:
        t_header, t_rows = _read_csv(out / "trajectory.csv")
        if len(t_rows) != TRAJECTORY_ROWS:
            failures.append(f"trajectory.csv has {len(t_rows)} rows")
        last_cost = float(t_rows[-1][t_header.index("running_cost")])
        if last_cost != float(report["j_mean"]):
            failures.append(f"trajectory running_cost {last_cost!r} != "
                            f"j_mean {report['j_mean']}")
    return failures, facts
