"""Deterministic JSON/CSV/NPZ round-trips."""

import csv

import numpy as np
import pytest

from hlqr import fileio, hierctrl, sim
from hlqr.errors import InvalidConfig
from hlqr.graphcost import Decomposition


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestJson:
    def test_roundtrip_with_numpy_values(self, tmp_path):
        obj = {
            "alpha": np.float64(0.1),
            "count": np.int64(7),
            "vec": np.arange(3.0),
            "nested": {"flag": True, "items": [np.float32(2.0), None]},
        }
        path = fileio.save_json(tmp_path / "o.json", obj)
        back = fileio.load_json(path)
        assert back["alpha"] == 0.1
        assert back["count"] == 7
        assert back["vec"] == [0.0, 1.0, 2.0]
        assert back["nested"] == {"flag": True, "items": [2.0, None]}

    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = fileio.save_json(tmp_path / "o.json", {"b": 1, "a": 2})
        text = read_text(path)
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_byte_identical_reruns(self, tmp_path):
        obj = {"x": 0.1 + 0.2, "y": [1, 2, 3]}
        p1 = fileio.save_json(tmp_path / "a.json", obj)
        p2 = fileio.save_json(tmp_path / "b.json", obj)
        assert read_text(p1) == read_text(p2)

    def test_creates_parent_dirs(self, tmp_path):
        path = fileio.save_json(tmp_path / "deep" / "er" / "o.json", {})
        assert path.exists()


class TestCsv:
    def test_float_cells_roundtrip_exactly(self, tmp_path):
        values = [0.1, 1.0 / 3.0, 2.0 ** -52, 1e300, float("nan")]
        path = fileio.write_csv(tmp_path / "t.csv", ["v"],
                                [[v] for v in values])
        rows = read_csv(path)
        assert rows[0] == ["v"]
        parsed = [float(r[0]) for r in rows[1:]]
        assert parsed[:4] == values[:4]
        assert np.isnan(parsed[4])

    def test_mixed_cell_types(self, tmp_path):
        path = fileio.write_csv(tmp_path / "t.csv", ["a", "b", "c"],
                                [[np.int64(3), np.float64(0.5), "tag"]])
        rows = read_csv(path)
        assert rows[1] == ["3", "0.5", "tag"]

    def test_byte_identical_reruns(self, tmp_path):
        rows = [[i, i * 0.1] for i in range(10)]
        p1 = fileio.write_csv(tmp_path / "a.csv", ["i", "v"], rows)
        p2 = fileio.write_csv(tmp_path / "b.csv", ["i", "v"], rows)
        assert read_text(p1) == read_text(p2)


class TestGainFiles:
    def make_gain(self):
        mas, spec = sim.clique_path_scenario(2, 2)
        dec = sim.clique_decomposition(2, 2)
        return hierctrl.hierarchical_gain(mas, spec, dec), dec

    def test_roundtrip(self, tmp_path):
        gain, dec = self.make_gain()
        path = fileio.save_gain(tmp_path / "gain.npz", gain)
        back = fileio.load_gain(path)
        assert np.array_equal(back["k_h"], gain.k_h)
        assert np.array_equal(back["k_local"], gain.k_local)
        assert np.array_equal(back["k_global"], gain.k_global)
        assert np.array_equal(back["r_tilde"], gain.r_tilde)
        assert np.array_equal(back["bt_p"], gain.bt_p)
        assert list(back["assignment"]) == list(dec.assignment)
        assert back["agent_m"] == 2
        assert len(back["p_blocks"]) == 2
        for j in range(2):
            assert np.array_equal(back["p_blocks"][j], gain.p_blocks[j])

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.eye(2))
        with pytest.raises(InvalidConfig):
            fileio.load_gain(path)

    @pytest.mark.parametrize("name", ["README.md", "k_h.npy", "broken.npz"])
    def test_rejects_non_npz_file(self, name, tmp_path):
        # text, which numpy declines to unpickle, a bare .npy array, and a
        # file with a zip signature but no archive behind it
        path = tmp_path / name
        if name.endswith(".npy"):
            np.save(path, np.eye(2))
        else:
            path.write_bytes(b"PK\x03\x04" if name.endswith(".npz") else b"# hlqr\n")
        with pytest.raises(InvalidConfig, match=f"{name} is not a gain file"):
            fileio.load_gain(path)

    def test_rejects_npz_without_agent_m(self, tmp_path):
        gain, _ = self.make_gain()
        path = tmp_path / "k_h.npz"
        np.savez(path, k_h=gain.k_h)
        with pytest.raises(InvalidConfig, match="k_h.npz is not a gain file"):
            fileio.load_gain(path)


class TestTrajectoryCsv:
    def make_traj(self):
        mas = sim.MasSystem([(np.array([[-1.0]]), np.array([[1.0]]))])
        return sim.integrate(mas, np.array([[0.5]]), np.ones(1), 1.0, 0.01)

    def test_header_and_values(self, tmp_path):
        traj = self.make_traj()
        path = fileio.write_trajectory_csv(tmp_path / "t.csv", traj)
        rows = read_csv(path)
        assert rows[0] == ["t", "x_0", "u_0", "running_cost", "running_ju"]
        assert len(rows) - 1 == len(traj.times)
        k = 37
        assert float(rows[1 + k][0]) == traj.times[k]
        assert float(rows[1 + k][1]) == traj.states[k, 0]
        assert float(rows[1 + k][2]) == traj.inputs[k, 0]
        assert float(rows[1 + k][4]) == traj.running_ju[k]

    @pytest.mark.parametrize("stride", [1, 3])
    def test_bytes_match_write_csv(self, tmp_path, stride):
        rng = np.random.default_rng(7)
        steps = 11
        traj = sim.Trajectory(
            times=np.arange(steps) * 0.1,
            states=rng.normal(size=(steps, 3)),
            inputs=rng.normal(size=(steps, 2)),
            running_cost=np.cumsum(rng.random(steps)),
            running_ju=np.cumsum(rng.random(steps)),
        )
        traj.states[2] = [np.nan, np.inf, -np.inf]
        traj.inputs[3] = [-0.0, 5e-324]
        traj.running_cost[4] = 1e300
        header = ["t", "x_0", "x_1", "x_2", "u_0", "u_1",
                  "running_cost", "running_ju"]
        rows = [[traj.times[k], *traj.states[k], *traj.inputs[k],
                 traj.running_cost[k], traj.running_ju[k]]
                for k in range(0, steps, stride)]
        fast = fileio.write_trajectory_csv(tmp_path / "fast.csv", traj, stride)
        ref = fileio.write_csv(tmp_path / "ref.csv", header, rows)
        with open(fast, "rb") as fh_fast, open(ref, "rb") as fh_ref:
            assert fh_fast.read() == fh_ref.read()

    def test_stride_subsampling(self, tmp_path):
        traj = self.make_traj()
        path = fileio.write_trajectory_csv(tmp_path / "t.csv", traj, stride=10)
        rows = read_csv(path)
        assert len(rows) - 1 == len(range(0, len(traj.times), 10))
        assert float(rows[2][0]) == traj.times[10]
