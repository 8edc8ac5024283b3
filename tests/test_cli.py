"""Command-line pipeline: configs, subcommands, report files, determinism."""

import csv
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hlqr import _kernels, adp, cli, fileio, hierctrl, matops, sim
from hlqr.cli import ExperimentConfig, ReportRow, REPORT_COLUMNS, main
from hlqr.errors import InvalidConfig
from hlqr.graphcost import assemble_q
from oracles import evaluate_cost


def read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def read_report(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.scenario == "example1"
        assert cfg.learn_config() == adp.LearnConfig(seed=cfg.seed)

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(scenario="nope")
        for bad in ({"sigma": 0.0}, {"sigma": float("nan")},
                    {"sigma": 1e300}, {"sigma": 10**400},
                    {"tol_pi": -1.0}, {"tol_pi": float("nan")},
                    {"tol_pi": float("inf")}, {"max_iter": 0},
                    {"n_draws": 0}, {"n_draws": cli.MAX_DRAWS + 1}):
            with pytest.raises(InvalidConfig):
                ExperimentConfig(**bad)
        # the largest accepted values: sigma ** 2 is finite
        cfg = ExperimentConfig(sigma=cli.SIGMA_MAX, n_draws=cli.MAX_DRAWS)
        assert np.isfinite(cfg.sigma ** 2)
        with pytest.raises(InvalidConfig):
            ExperimentConfig(x0_scheme="cauchy")
        with pytest.raises(InvalidConfig):
            ExperimentConfig(objective="random")

    def test_dict_roundtrip(self):
        cfg = ExperimentConfig(scenario="five_node",
                               assignment=(0, 0, 1, 2, 2),
                               objective="assignment", seed=4)
        back = ExperimentConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert isinstance(back.assignment, tuple)

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig.from_dict({"scenari0": "example1"})

    @pytest.mark.parametrize("key, good", [
        ("assignment", [0, 0, 1, 1, 2]),
        ("dec_sizes", [6, 3, 3]),
    ])
    def test_non_integral_entries_rejected(self, key, good):
        # a config file's entries are taken as integers only, never truncated
        base = {"scenario": "five_node", "objective": "assignment"}
        cfg = ExperimentConfig.from_dict({**base, key: good})
        assert getattr(cfg, key) == tuple(good)
        for bad in (0.5, 6.7, "1", True):
            with pytest.raises(InvalidConfig, match=key):
                ExperimentConfig.from_dict({**base, key: [bad, *good[1:]]})

    def test_report_row_cells_follow_schema(self):
        row = ReportRow(label="x", kappa=1, trace_g2=2.0, cond_p=3.0,
                        j_mean=4.0, j_u=5.0, n_c=6, learn_time=7.0, sop=8.0)
        assert row.cells() == [
            "x", 1, 2.0, 3.0, 4.0, 5.0, 6, 7.0, 8.0]
        assert REPORT_COLUMNS[0] == "label" and REPORT_COLUMNS[-1] == "sop"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_rejects_unknown_objective(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["run", "example1", "--objective", "bogus"])

    def test_bench_requires_table_name(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["bench"])

    def test_bench_rejects_config(self, tmp_path):
        # bench builds its tables from fixed settings; a config file it would
        # not read is refused, not ignored
        config = tmp_path / "c.json"
        config.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--which", "rl-compare", "--config", str(config),
                  "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_module_entry_point_without_warning(self):
        # runpy warns when the package has already imported hlqr.cli
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hlqr.cli",
             "--help"],
            env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr


class TestStartUp:
    def test_commands_never_import_scipy_linalg(self, tmp_path):
        # hlqr loads scipy's LAPACK wrappers on their own (hlqr._lapack);
        # importing scipy.linalg would add about 0.25 s to every command
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])])
        script = (
            "import sys\n"
            "from hlqr.cli import main\n"
            "assert 'scipy.linalg' not in sys.modules, 'import'\n"
            "for i, argv in enumerate(sys.argv[1:]):\n"
            "    out = ['--out', f'{i}']\n"
            "    assert main(argv.split() + out) == 0, argv\n"
            "    assert 'scipy.linalg' not in sys.modules, argv\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script,
             "solve example1 --s 2 --c 1 --clusters cliques",
             "learn example1 --s 2 --c 1 --clusters cliques --seed 0",
             "run formation --dec 6,3,3 --t-final 2"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            check=False)
        assert proc.returncode == 0, proc.stderr


class TestDecompose:
    def test_kappa_search(self, tmp_path, capsys):
        rc = main(["decompose", "example1", "--s", "3", "--c", "3",
                   "--objective", "kappa", "--out", str(tmp_path)])
        assert rc == 0
        info = fileio.load_json(tmp_path / "decomposition.json")
        assert info["kappa"] == 15
        assert info["optimal"] is True
        assert info["objective"] == "kappa"
        assert info["n_c_upper"] == 36 - 15
        assert "kappa=15" in capsys.readouterr().out

    def test_default_objective_is_kappa(self, tmp_path):
        rc = main(["decompose", "example1", "--s", "3", "--c", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        info = fileio.load_json(tmp_path / "decomposition.json")
        assert info["objective"] == "kappa"
        assert info["kappa"] == 15

    def test_config_file_objective_kept(self, tmp_path):
        # the kappa default applies only when neither the flags nor the
        # config file choose an objective: here the file chooses cliques
        config = tmp_path / "c.json"
        config.write_text('{"objective": "cliques", "s": 2, "c": 2}')
        rc = main(["decompose", "example1", "--config", str(config),
                   "--out", str(tmp_path)])
        assert rc == 0
        info = fileio.load_json(tmp_path / "decomposition.json")
        assert info["objective"] == "cliques"
        assert info["label"] == "1,2|3,4"

    @pytest.mark.parametrize("choice", [{"assignment": [0, 0, 1, 1]},
                                        {"dec_sizes": [2, 2]}])
    def test_config_file_decomposition_recorded(self, tmp_path, choice):
        # a file's assignment or cluster sizes pick the decomposition, so the
        # records name objective "assignment", as the matching flags do
        config = fileio.save_json(tmp_path / "c.json", choice)
        flags = ["example1", "--s", "2", "--c", "2", "--config", str(config)]
        assert main(["decompose", *flags,
                     "--out", str(tmp_path / "decompose")]) == 0
        assert main(["run", *flags, "--n-draws", "5",
                     "--out", str(tmp_path / "run")]) == 0
        info = fileio.load_json(tmp_path / "decompose" / "decomposition.json")
        assert info["objective"] == "assignment"
        assert info["label"] == "1,2|3,4"
        echo = fileio.load_json(tmp_path / "run" / "config_echo.json")
        assert echo["objective"] == "assignment"

    def test_scut_search(self, tmp_path):
        rc = main(["decompose", "five_node", "--s", "2",
                   "--objective", "scut", "--out", str(tmp_path)])
        assert rc == 0
        info = fileio.load_json(tmp_path / "decomposition.json")
        assert info["optimal"] is True
        assert info["trace_g2"] >= 0.0
        assert len(info["assignment"]) == 5


class TestSolve:
    def test_uncertified_search_reported(self, tmp_path, capsys, monkeypatch):
        argv = ["solve", "example1", "--objective", "kappa", "--s", "3",
                "--c", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        search = cli.max_kappa
        monkeypatch.setattr(cli, "max_kappa", lambda problem: replace(
            search(problem), optimal=False, nodes=77))
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "77 nodes" in err[0]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_five_node_assignment(self, tmp_path, capsys):
        rc = main(["solve", "five_node", "--assignment", "0,0,1,2,2",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path / "report.csv")
        assert len(rows) == 1
        assert int(rows[0]["kappa"]) == 2
        assert (tmp_path / "gain.npz").exists()
        gap = fileio.load_json(tmp_path / "gap_report.json")
        assert gap["trace_v"] >= 0.0
        assert "kappa=2" in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        args = ["solve", "five_node", "--assignment", "0,0,1,2,2",
                "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("report.csv", "gap_report.json"):
            assert read_text(tmp_path / "a" / name) == read_text(
                tmp_path / "b" / name)
        ga = fileio.load_gain(tmp_path / "a" / "gain.npz")
        gb = fileio.load_gain(tmp_path / "b" / "gain.npz")
        assert np.array_equal(ga["k_h"], gb["k_h"])

    def test_same_outputs_as_model_based_run(self, tmp_path):
        flags = ["example1", "--s", "3", "--c", "3", "--clusters", "cliques",
                 "--seed", "2"]
        solve, run = tmp_path / "solve", tmp_path / "run"
        assert main(["solve", *flags, "--out", str(solve)]) == 0
        assert main(["run", *flags, "--out", str(run)]) == 0
        for name in ("report.csv", "gap_report.json"):
            assert read_text(solve / name) == read_text(run / name)
        with np.load(solve / "gain.npz") as gs, np.load(run / "gain.npz") as gr:
            assert gs.files == gr.files
            assert all(np.array_equal(gs[k], gr[k]) for k in gs.files)
        assert fileio.load_json(solve / "config_echo.json")["learn"] is False


class TestReportRow:
    @pytest.mark.parametrize("scheme", ["uniform_pm1", "normal05"])
    def test_monte_carlo_costs_match_per_draw_costs(self, scheme):
        cfg = ExperimentConfig(scenario="five_node", assignment=(0, 0, 1, 2, 2),
                               objective="assignment", x0_scheme=scheme,
                               seed=5, n_draws=100)
        scenario = cli.build_scenario(cfg)
        mas, spec = scenario.mas, scenario.spec
        dec, _ = cli.choose_decomposition(cfg, scenario)
        gain = hierctrl.hierarchical_gain(mas, spec, dec)
        row, *_ = cli.make_report_row(cfg, scenario, dec, gain)

        x0s = cli.draw_x0(scheme, np.random.default_rng(cfg.seed + 1),
                          mas.a_full.shape[0], cfg.n_draws)
        costs = np.array([evaluate_cost(mas, spec, gain.k_h, x0)
                          for x0 in x0s])
        p_opt = matops.solve_care(mas.a_full, mas.b_full, assemble_q(spec),
                                  spec.r)
        j_opt = np.mean([x0 @ p_opt @ x0 for x0 in x0s])
        j_mean, j_u = costs.mean(axis=0)
        assert row.j_mean == pytest.approx(j_mean, rel=1e-12)
        assert row.j_u == pytest.approx(j_u, rel=1e-12)
        assert row.sop == pytest.approx((j_mean - j_opt) / j_opt, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["uniform_pm1", "normal05"])
    @pytest.mark.parametrize("scenario, assignment", [
        ("five_node", (0, 0, 1, 2, 2)),
        ("example1", (0, 0, 0, 1, 1, 1, 2, 2, 2)),
    ])
    def test_sample_means_match_per_draw_forms(self, scheme, scenario,
                                               assignment):
        # the mean of x0' M x0 from the moment matrix S = x0s' x0s, for the
        # report's U, X_u and P_opt, against the per-draw forms' mean
        cfg = ExperimentConfig(scenario=scenario, assignment=assignment,
                               objective="assignment", x0_scheme=scheme)
        scn = cli.build_scenario(cfg)
        mas, spec = scn.mas, scn.spec
        dec, _ = cli.choose_decomposition(cfg, scn)
        gain = hierctrl.hierarchical_gain(mas, spec, dec)
        _, p_opt, u = hierctrl.gap_report(mas, spec, dec, gain)
        k_h = gain.k_h
        x_u = matops.solve_lyapunov(mas.a_full - mas.b_full @ k_h,
                                    matops.symmetrize(k_h.T @ k_h))
        x0s = cli.draw_x0(scheme, np.random.default_rng(cfg.seed + 1),
                          mas.a_full.shape[0], cfg.n_draws)
        means = cli._sample_means(x0s, u, x_u, p_opt)
        for got, mat in zip(means, (u, x_u, p_opt)):
            assert got == pytest.approx(cli._quad_forms(x0s, mat).mean(),
                                        rel=1e-13)

    @pytest.mark.parametrize("dim", [5, 36, 400])
    def test_moment_matrix_integer_exact(self, dim):
        # uniform_pm1 draws are integers, so S is formed exactly and the mean
        # for an integer M is the correctly rounded <M, S> / N
        rng = np.random.default_rng(dim)
        x0s = cli.draw_x0("uniform_pm1", rng, dim, 1000)
        m = rng.integers(-5, 6, (dim, dim))
        x0i = x0s.astype(np.int64)
        exact = int(((x0i.T @ x0i) * m).sum())
        assert cli._sample_means(x0s, m.astype(float)) == [exact / len(x0s)]

    def test_solve_runs_centralized_care_once(self, tmp_path, monkeypatch):
        original = matops.solve_care
        sizes = []

        def counting(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return original(a, *args, **kwargs)

        for mod in (adp, cli, hierctrl, matops, sim):
            if getattr(mod, "solve_care", None) is original:
                monkeypatch.setattr(mod, "solve_care", counting)
        rc = main(["solve", "five_node", "--assignment", "0,0,1,2,2",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert sizes.count(20) == 1

    def test_reference_care_takes_no_schur_form(self, tmp_path, monkeypatch):
        # the 100-state example1 system is two decoupled 50-state blocks: the
        # cluster and centralized CAREs double, and U and X_u are squared
        # Smith solves, so the command makes no Schur form at all
        calls = []
        monkeypatch.setattr(matops, "_schur", lambda *args: calls.append(args))
        rc = main(["solve", "example1", "--clusters", "cliques", "--s", "5",
                   "--c", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert not calls

    def test_x_u_matches_oracle(self):
        cfg = ExperimentConfig(scenario="example1", s=3, c=3,
                               objective="cliques", seed=3, n_draws=50)
        scenario = cli.build_scenario(cfg)
        mas, spec = scenario.mas, scenario.spec
        dec, _ = cli.choose_decomposition(cfg, scenario)
        gain = hierctrl.hierarchical_gain(mas, spec, dec)
        row, *_ = cli.make_report_row(cfg, scenario, dec, gain)
        x0s = cli.draw_x0(cfg.x0_scheme, np.random.default_rng(cfg.seed + 1),
                          mas.a_full.shape[0], cfg.n_draws)
        j_u = np.mean([evaluate_cost(mas, spec, gain.k_h, x0)[1] for x0 in x0s])
        assert row.j_u == pytest.approx(j_u, rel=1e-12)


class TestRun:
    def test_clique_cluster_row(self, tmp_path, capsys):
        rc = main(["run", "example1", "--s", "3", "--c", "3",
                   "--clusters", "cliques", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(REPORT_COLUMNS)
        rows = read_report(tmp_path / "report.csv")
        assert int(rows[0]["kappa"]) == 9
        assert float(rows[0]["trace_g2"]) == 4.0
        assert int(rows[0]["n_c"]) == 27
        assert (tmp_path / "config_echo.json").exists()

    def test_max_kappa_row(self, tmp_path):
        rc = main(["run", "example1", "--s", "3", "--c", "3",
                   "--objective", "kappa", "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path / "report.csv")
        assert int(rows[0]["kappa"]) == 15
        assert int(rows[0]["n_c"]) <= 36 - 15

    def test_formation_sizes_row(self, tmp_path):
        rc = main(["run", "formation", "--dec", "6,3,3",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_report(tmp_path / "report.csv")
        assert float(rows[0]["sop"]) >= -1e-12
        assert rows[0]["label"].count("|") == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = fileio.save_json(
            tmp_path / "cfg.json",
            {"scenario": "five_node", "objective": "assignment",
             "assignment": [0, 0, 1, 2, 2], "seed": 5},
        )
        rc = main(["run", "--config", str(cfg_path), "--seed", "9",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        echo = fileio.load_json(tmp_path / "o" / "config_echo.json")
        assert echo["seed"] == 9
        assert echo["scenario"] == "five_node"
        assert echo["assignment"] == [0, 0, 1, 2, 2]

    def test_every_flag_reaches_the_config(self, tmp_path):
        cfg_path = fileio.save_json(tmp_path / "cfg.json", {"amplitude": 0.4})
        out = tmp_path / "o"
        rc = main(["run", "example1", "--config", str(cfg_path),
                   "--s", "2", "--c", "1", "--n", "4", "--m", "2",
                   "--objective", "scut", "--clusters", "cliques",
                   "--assignment", "0,1", "--dec", "1,1", "--seed", "4",
                   "--sigma", "0.5", "--n-draws", "20",
                   "--x0-scheme", "normal05", "--learn", "--dt", "0.002",
                   "--window", "0.1", "--horizon", "8", "--tol-pi", "1e-7",
                   "--max-iter", "25", "--t-final", "5", "--out", str(out)])
        assert rc == 0
        echo = fileio.load_json(out / "config_echo.json")
        assert echo == {
            "scenario": "example1", "s": 2, "c": 1, "n": 4, "m": 2,
            "objective": "assignment", "assignment": [0, 1],
            "dec_sizes": [1, 1], "seed": 4, "sigma": 0.5, "n_draws": 20,
            "x0_scheme": "normal05", "learn": True, "dt": 0.002,
            "window": 0.1, "horizon": 8.0, "tol_pi": 1e-7, "max_iter": 25,
            "amplitude": 0.4, "t_final": 5.0, "out_dir": str(out),
        }

    def test_bad_config_key_fails_cleanly(self, tmp_path, capsys):
        cfg_path = fileio.save_json(tmp_path / "cfg.json", {"tipo": 1})
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_sizes_must_sum(self, tmp_path, capsys):
        rc = main(["run", "formation", "--dec", "6,3,4",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestLeaderlessCluster:
    """A formation cluster without a leader leaves its Riccati equation
    outside the detectability assumption: solve and learn exit 1 naming
    it."""

    @pytest.mark.parametrize("assignment, name", [
        ("0,1,1,0,0,0,0,0,0,0,0,0", "cluster 1 (agents 2,3)"),
        ("0,0,0,0,0,0,0,0,0,0,1,0", "cluster 1 (agent 11)"),
    ], ids=["agents-2-3", "agent-11"])
    def test_solve_names_cluster(self, assignment, name, tmp_path, capsys):
        rc = main(["solve", "formation", "--assignment", assignment,
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: ")
        assert "stabilizable holds, detectable fails" in err
        assert not (tmp_path / "gap_report.json").exists()

    def test_learn_refuses_before_collecting(self, tmp_path, capsys, monkeypatch):
        # learn checks the assumptions on the model before any data
        def collect(*args, **kwargs):
            raise AssertionError("data collected for a leaderless cluster")

        monkeypatch.setattr(adp, "collect", collect)
        rc = main(["learn", "formation", "--assignment", "0,1,1,0,0,0,0,0,0,0,0,0",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cluster 1 (agents 2,3): ")
        assert err.rstrip().endswith("; stabilizable holds, detectable fails")
        assert not (tmp_path / "learn_summary.csv").exists()


class TestLearnCommand:
    def test_two_singleton_cliques(self, tmp_path, capsys):
        rc = main(["learn", "example1", "--s", "2", "--c", "1",
                   "--clusters", "cliques", "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        summary = read_report(tmp_path / "learn_summary.csv")
        assert len(summary) == 2
        assert list(summary[0]) == ["cluster", "iterations", "wall_time"]
        assert all(int(r["iterations"]) <= 30 for r in summary)
        rows = read_report(tmp_path / "report.csv")
        assert float(rows[0]["learn_time"]) > 0.0
        assert "learned gain" in capsys.readouterr().out


class TestNonPositiveStep:
    @pytest.mark.parametrize("args", [
        ["learn", "example1", "--s", "1", "--c", "2", "--dt", "0"],
        ["learn", "example1", "--s", "1", "--c", "2", "--dt", "-0.001"],
        ["learn", "example1", "--s", "1", "--c", "2", "--window", "0"],
        ["simulate", "five_node", "--assignment", "0,0,1,2,2", "--dt", "0"],
        ["simulate", "five_node", "--assignment", "0,0,1,2,2",
         "--dt", "-0.001"],
        ["simulate", "five_node", "--assignment", "0,0,1,2,2",
         "--t-final", "nan"],
        ["learn", "example1", "--s", "1", "--c", "2", "--horizon", "nan"],
    ])
    def test_fails_cleanly(self, args, tmp_path, capsys):
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_steps_checked_before_the_model(self, tmp_path, capsys, monkeypatch):
        # a bad step size ends the run before the model is checked or the
        # initial gains are solved
        calls = []

        def spy(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        spy("check_assumptions")
        spy("initial_gains")
        rc = main(["learn", "example1", "--s", "10", "--c", "10", "--dt", "0",
                   "--out", str(tmp_path)])
        assert rc == 1 and calls == []
        assert capsys.readouterr().err == (
            "error: dt=0.0 and window=0.1 must be positive and finite\n")

    @pytest.mark.parametrize("args, message", [
        (["--dt", "0"], "dt=0.0 and window=0.1 must be positive and finite"),
        (["--window", "0.0001", "--dt", "0.001"], "dt=0.001 does not divide window=0.0001"),
        (["--horizon", "0"], "horizon=0.0 must be positive and finite"),
    ], ids=["dt", "window", "horizon"])
    def test_learning_steps_name_no_cluster(self, args, message, tmp_path, capsys,
                                            monkeypatch):
        # the learning times are the run's, not a cluster's: they are checked
        # once, before any data are collected
        monkeypatch.setattr(adp, "collect", None)
        rc = main(["learn", "five_node", "--assignment", "0,0,1,2,2", *args,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestInvalidNumbers:
    """Numbers numpy would reject or overflow on end in error: ..., exit 1."""

    @pytest.mark.parametrize("args", [
        ["decompose", "example1"],
        ["solve", "five_node", "--assignment", "0,0,1,2,2"],
        ["learn", "example1", "--s", "1", "--c", "2"],
        ["run", "five_node", "--assignment", "0,0,1,2,2"],
        ["simulate", "five_node", "--assignment", "0,0,1,2,2"],
        ["bench", "--which", "rl-compare"],
    ], ids=lambda args: args[0])
    def test_negative_seed(self, args, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(adp, "collect", None)
        monkeypatch.setattr(cli, "hierarchical_gain", None)
        rc = main(args + ["--seed", "-5", "--out", str(tmp_path)])
        assert rc == 1
        assert "seed=-5 must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["simulate", "five_node", "--assignment", "0,0,1,2,2",
         "--t-final", "inf"],
        ["learn", "example1", "--s", "1", "--c", "2", "--horizon", "inf"],
        ["learn", "example1", "--s", "1", "--c", "2", "--window", "inf"],
    ], ids=["t-final", "horizon", "window"])
    def test_infinite_time(self, args, tmp_path, capsys):
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        assert "=inf must be positive and finite" in capsys.readouterr().err

    def test_infinite_sigma(self, tmp_path, capsys):
        rc = main(["solve", "five_node", "--assignment", "0,0,1,2,2",
                   "--sigma", "inf", "--out", str(tmp_path)])
        assert rc == 1
        assert "sigma=inf must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "gap_report.json").exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "five_node", "--assignment", "0,0,1,2,2",
         "--t-final", "1e300"],
        ["simulate", "five_node", "--assignment", "0,0,1,2,2", "--dt", "1e-300"],
        ["simulate", "five_node", "--assignment", "0,0,1,2,2",
         "--t-final", "1e300", "--dt", "1e-300"],
        ["learn", "example1", "--s", "1", "--c", "2", "--horizon", "1e300"],
        ["learn", "example1", "--s", "1", "--c", "2", "--dt", "1e-300",
         "--window", "1e300"],
    ], ids=["t-final", "dt", "both", "horizon", "window-over-dt"])
    def test_unallocatable_step_count(self, args, tmp_path, capsys):
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        assert "steps need arrays larger than numpy can allocate" in (
            capsys.readouterr().err)

    def test_memory_error_reported(self, tmp_path, capsys, monkeypatch):
        # --dt 1e-9 makes each collect chunk one window of 1e8 steps, whose
        # buffer alone is 15 GiB; the stand-in raises numpy's MemoryError for
        # any chunk buffer past 100 MB before the kernel allocates anything
        kernel = _kernels.collect_kernel

        def capped(a, b, k0, exo_cmd, exo_dist, x0, dt, steps_per_window,
                   n_windows, guard):
            n, m = b.shape
            per_chunk = max(1, _kernels.COLLECT_CHUNK // steps_per_window)
            rows = min(per_chunk, n_windows) * steps_per_window + 1
            if rows * (n + 3 * m) * 8 > 100e6:
                raise MemoryError(f"Unable to allocate "
                                  f"{rows * (n + 3 * m) * 8 / 2**30:.0f} GiB")
            return kernel(a, b, k0, exo_cmd, exo_dist, x0, dt, steps_per_window,
                          n_windows, guard)

        monkeypatch.setattr(_kernels, "collect_kernel", capped)
        rc = main(["learn", "example1", "--s", "1", "--c", "2", "--dt", "1e-9",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")


class TestOverflowingValues:
    """Values that pass a positivity check but overflow later are rejected
    where the config takes them: one error line, exit 1."""

    @pytest.mark.parametrize("args", [
        ["solve", "five_node", "--assignment", "0,0,1,2,2", "--sigma", "1e300"],
        ["run", "five_node", "--assignment", "0,0,1,2,2",
         "--n-draws", "1000000000000000000000000"],
    ], ids=["sigma", "n-draws"])
    def test_flags(self, args, tmp_path, capsys):
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"sigma": 1e300}',
        '{"sigma": 1' + "0" * 400 + '}',
        '{"n_draws": 1000000000000000000000000}',
    ], ids=["sigma", "sigma-int", "n-draws"])
    def test_config_files(self, text, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(text, encoding="utf-8")
        rc = main(["run", "five_node", "--assignment", "0,0,1,2,2",
                   "--config", str(config), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDefaultObjective:
    @pytest.mark.parametrize("args", [
        ["solve", "formation"],
        ["learn", "five_node"],
        ["simulate", "formation"],
    ], ids=lambda args: args[0])
    def test_names_the_choosing_flags(self, args, tmp_path, capsys):
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: objective 'cliques', the default, needs "
                              "the example1 scenario")
        assert "--objective kappa|scut, --assignment or --dec" in err


class TestBadInput:
    @pytest.mark.parametrize("args", [
        ["learn", "example1", "--s", "1", "--c", "2", "--assignment", "0,0,1"],
        ["solve", "example1", "--s", "2", "--c", "2", "--dec", "2,0,2"],
        ["solve", "five_node", "--assignment", "0,x,1,2,2"],
        ["run", "--config", "missing.json"],
        ["simulate", "five_node", "--assignment", "0,0,1,2,2",
         "--gain", "missing.npz"],
    ])
    def test_fails_cleanly(self, args, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"assignment": ["x", 1]}',
        '{"assignment": 3}',
        '{"sigma": "x"}',
        '{"seed": "abc"}',
        "scenario: five_node",
        "null",
    ])
    def test_malformed_config_fails_cleanly(self, text, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(text, encoding="utf-8")
        rc = main(["run", "five_node", "--config", str(config),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestMeaninglessSettings:
    @pytest.mark.parametrize("args", [
        ["learn", "example1", "--s", "1", "--c", "2", "--tol-pi", "-1"],
        ["learn", "example1", "--s", "1", "--c", "2", "--tol-pi", "0"],
        ["learn", "example1", "--s", "1", "--c", "2", "--tol-pi", "nan"],
        ["learn", "example1", "--s", "1", "--c", "2", "--tol-pi", "inf"],
        ["learn", "example1", "--s", "1", "--c", "2", "--max-iter", "0"],
        ["solve", "five_node", "--assignment", "0,0,1,2,2", "--sigma", "nan"],
        ["run", "five_node", "--assignment", "0,0,1,2,2", "--sigma", "-1"],
    ])
    def test_rejected_before_any_data(self, args, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.setattr(adp, "collect", None)
        monkeypatch.setattr(cli, "hierarchical_gain", None)
        rc = main(args + ["--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSimulate:
    def test_model_based_default(self, tmp_path, capsys):
        rc = main(["simulate", "five_node", "--assignment", "0,0,1,2,2",
                   "--t-final", "10", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hierarchical controller" in out
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert rows[0][1] == "x_0"
        assert len(rows) == 1 + 1001

    def test_saved_gain_path(self, tmp_path, capsys):
        assert main(["solve", "five_node", "--assignment", "0,0,1,2,2",
                     "--out", str(tmp_path)]) == 0
        rc = main(["simulate", "five_node",
                   "--gain", str(tmp_path / "gain.npz"),
                   "--t-final", "5", "--out", str(tmp_path / "s")])
        assert rc == 0
        assert "loaded controller" in capsys.readouterr().out

    def test_saved_gain_wrong_scenario(self, tmp_path, capsys):
        assert main(["solve", "example1", "--s", "2", "--c", "2",
                     "--objective", "cliques", "--out", str(tmp_path)]) == 0
        rc = main(["simulate", "five_node",
                   "--gain", str(tmp_path / "gain.npz"),
                   "--out", str(tmp_path / "s")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "does not match scenario" in err

    def test_formation_baseline(self, tmp_path, capsys):
        rc = main(["simulate", "formation", "--baseline",
                   "--t-final", "10", "--out", str(tmp_path)])
        assert rc == 0
        assert "baseline controller" in capsys.readouterr().out

    def test_baseline_needs_formation(self, tmp_path, capsys):
        rc = main(["simulate", "five_node", "--baseline",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="class")
def formation_table(tmp_path_factory):
    """Rows of one `bench --which formation` table, shared by the tests that
    read it: three learns and three 30,000-step rollouts."""
    out = tmp_path_factory.mktemp("bench")
    return read_report(cli.bench_tables("formation", out_dir=str(out), seed=0))


class TestBench:
    def test_decomposition_compare_table(self, tmp_path):
        path = cli.bench_tables("decomposition-compare",
                                out_dir=str(tmp_path), seed=0)
        rows = read_report(path)
        assert [r["decomposition"] for r in rows] == [
            "{1,2}|{3..7}|{8,9}",
            "{1,2,3}|{4,5,6}|{7,8,9}",
            "{1,2,3}|{4}|{5..9}",
            "undecomposed",
        ]
        # the undecomposed row is the one-cluster decomposition, whose
        # centralized gain is dense and gap-free
        assert [r["kappa"] for r in rows] == ["4", "9", "15", "0"]
        assert [r["trace_g2"] for r in rows] == ["8.0", "4.0", "6.0", "0.0"]
        assert [r["n_c"] for r in rows] == ["32", "27", "21", "36"]
        assert rows[3]["sop"] == "0.0"
        # coarser clustering along the cliques costs less than the
        # unbalanced split, mirroring the reference comparison
        assert float(rows[1]["sop"]) < float(rows[0]["sop"])
        notes = fileio.load_json(
            tmp_path / "decomposition_compare_annotations.json")
        assert "learn_time" in notes["machine_dependent"]

    def test_formation_table(self, formation_table):
        rows = [dict(row) for row in formation_table]
        assert len(rows) == 3
        for row in rows:
            assert float(row["sop"]) >= -1e-12
            assert row["note"] == ""
            assert float(row["learn_time"]) > 0.0

    def test_formation_row_matches_run(self, formation_table, tmp_path):
        bench = {row["label"]: dict(row) for row in formation_table}
        rc = main(["run", "formation", "--dec", "6,3,3", "--learn",
                   "--x0-scheme", "scenario", "--seed", "0",
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        run_row = read_report(tmp_path / "run" / "report.csv")[0]
        bench_row = bench[run_row["label"]]
        assert bench_row.pop("note") == ""
        for row in (bench_row, run_row):
            assert float(row.pop("learn_time")) > 0.0
        assert bench_row == run_row

    def test_rl_compare_table(self, tmp_path):
        path = cli.bench_tables("rl-compare", out_dir=str(tmp_path), seed=0)
        rows = read_report(path)
        assert [(int(r["s"]), int(r["c"])) for r in rows] == [
            (3, 2), (3, 3), (3, 4)]
        sops = [float(r["sop_mean"]) for r in rows]
        assert sops[0] > sops[1] > sops[2] > 0.0
        for row in rows:
            n_j, m_j = 4 * int(row["c"]), 2 * int(row["c"])
            assert int(row["unknowns_hier"]) == n_j * (n_j + 1) // 2 + m_j * n_j
            assert int(row["unknowns_central"]) > int(row["unknowns_hier"])
            # the cluster problems are an order of magnitude smaller, so
            # the wall-clock ordering is structural, not a timing accident
            assert row["note"] == ""
            assert float(row["learn_time_hier"]) < float(
                row["learn_time_central"])
        notes = fileio.load_json(tmp_path / "rl_compare_annotations.json")
        assert "learn_time_hier" in notes["machine_dependent"]

    def test_unknown_table_rejected(self):
        with pytest.raises(InvalidConfig):
            cli.bench_tables("nope")
