"""Deterministic JSON/CSV/NPZ input-output helpers.

All text outputs are reproducible byte-for-byte for identical inputs: floats
are rendered with repr (shortest round-trip form), JSON keys are sorted, and
no timestamps are embedded in text files.
"""

import csv
import json
import zipfile
from pathlib import Path

import numpy as np

from .errors import InvalidConfig

__all__ = [
    "load_json",
    "save_json",
    "write_csv",
    "save_gain",
    "load_gain",
    "write_trajectory_csv",
]


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def load_json(path):
    """Parsed JSON of a file; InvalidConfig when it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"{path} is not valid JSON: {exc}") from None


def save_json(path, obj):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    """Write rows (sequences) under a header with repr-rendered floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def save_gain(path, gain):
    """Persist a HierarchicalGain (and its decomposition) as NPZ."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "k_h": gain.k_h,
        "k_local": gain.k_local,
        "k_global": gain.k_global,
        "r_tilde": gain.r_tilde,
        "bt_p": gain.bt_p,
        "assignment": np.asarray(gain.dec.assignment, dtype=int),
        "agent_m": np.asarray([gain.agent_m], dtype=int),
    }
    for j, p_j in enumerate(gain.p_blocks):
        payload[f"p_block_{j}"] = p_j
    np.savez(path, **payload)
    return path


def load_gain(path):
    """Load a saved gain file back into a dict of arrays.

    Returns keys k_h, k_local, k_global, r_tilde, bt_p, assignment, agent_m,
    p_blocks (list).  InvalidConfig unless path is an NPZ with k_h and agent_m.
    """
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile):  # not a NumPy file
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):  # an .npy array is no archive
        raise InvalidConfig(f"{path} is not a gain file")
    with data:
        out = {k: data[k] for k in data.files if not k.startswith("p_block_")}
        n_blocks = sum(1 for k in data.files if k.startswith("p_block_"))
        out["p_blocks"] = [data[f"p_block_{j}"] for j in range(n_blocks)]
    if "k_h" not in out or "agent_m" not in out:
        raise InvalidConfig(f"{path} is not a gain file: no k_h or agent_m")
    out["agent_m"] = int(out["agent_m"][0])
    return out


def write_trajectory_csv(path, traj, stride=1):
    """Trajectory as CSV: t, x_0.., u_0.., running_cost, running_ju.

    The same bytes as write_csv on these rows, built as one float array: no
    cell needs quoting, so each row is its repr cells joined by commas.
    """
    n = traj.states.shape[1]
    m = traj.inputs.shape[1]
    header = (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"u_{i}" for i in range(m)]
        + ["running_cost", "running_ju"]
    )
    table = np.column_stack(
        [col[::stride] for col in (traj.times, traj.states, traj.inputs,
                                   traj.running_cost, traj.running_ju)]
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # one row of Python floats at a time: a whole-table tolist() holds
        # every cell as a Python object at once
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in table)
    return path
