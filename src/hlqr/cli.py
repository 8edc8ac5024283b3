"""Command-line experiment orchestration.

Subcommands:
  decompose  choose a clustering (max coupling savings or min cut)
  solve      model-based hierarchical synthesis + suboptimality report
  learn      model-free hierarchical learning + the same report
  simulate   closed-loop trajectory under a saved or freshly built gain
  run        full decompose -> (learn|solve) -> evaluate pipeline
  bench      regenerate the comparison tables at desk scale

All randomness flows from --seed; identical config and seed give byte-identical
CSV output (wall-clock columns vary by machine and are documented as such).
"""

import argparse
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import get_args

import numpy as np

from . import fileio
from .adp import LearnConfig, learn_hierarchical, unknown_count, window_steps
from .errors import HlqrError, InvalidConfig, NonStabilizable
from .graphcost import Decomposition, check_assumptions, comm_links, kappa, split_graph
from .hierctrl import gap_report, hierarchical_gain
from .matops import solve_lyapunov
from .partition import ConstraintSet, PartitionProblem, max_kappa, min_scut
from .sim import (
    build_formation,
    clique_decomposition,
    clique_path_scenario,
    cluster_plants,
    default_formation,
    five_node_scenario,
    initial_gains,
    integrate,
)

__all__ = ["ExperimentConfig", "ReportRow", "run_experiment", "bench_tables", "main"]

#: Largest sigma whose square, the scale of gap_report's expected gap, is a
#: finite float.
SIGMA_MAX = math.sqrt(sys.float_info.max)

#: Most initial states drawn for the cost means.  The draws are one
#: (n_draws, states) float array: 32 GiB per state at this cap, and below
#: 2**28 states a size numpy reports as a MemoryError, not an overflow.
MAX_DRAWS = 2**32


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one end-to-end experiment."""

    scenario: str = "example1"
    s: int = 3
    c: int = 3
    n: int = 4
    m: int = 2
    objective: str = "cliques"
    assignment: tuple | None = None
    dec_sizes: tuple | None = None
    seed: int = 0
    sigma: float = 1.0
    n_draws: int = 1000
    x0_scheme: str = "uniform_pm1"
    learn: bool = False
    dt: float = LearnConfig.dt
    window: float = LearnConfig.window
    horizon: float | None = LearnConfig.horizon
    tol_pi: float = LearnConfig.tol_pi
    max_iter: int = LearnConfig.max_iter
    amplitude: float = LearnConfig.amplitude
    t_final: float = 30.0
    out_dir: str = "out"

    def __post_init__(self):
        if self.scenario not in ("example1", "five_node", "formation"):
            raise InvalidConfig(f"unknown scenario {self.scenario!r}")
        if not 0 < self.sigma < np.inf:
            raise InvalidConfig(f"sigma={self.sigma} must be positive and finite")
        if self.sigma > SIGMA_MAX:
            raise InvalidConfig(f"sigma={self.sigma} must be at most {SIGMA_MAX:.6g}, "
                                f"where its square overflows")
        if not 1 <= self.n_draws <= MAX_DRAWS:
            raise InvalidConfig(f"n_draws={self.n_draws} must be from 1 to {MAX_DRAWS}")
        if self.x0_scheme not in ("uniform_pm1", "normal05", "scenario"):
            raise InvalidConfig(f"unknown x0 scheme {self.x0_scheme!r}")
        if self.objective not in ("cliques", "kappa", "scut", "assignment"):
            raise InvalidConfig(f"unknown objective {self.objective!r}")
        own = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)
               if f.name in ("c", "n", "m") and getattr(self, f.name) != f.default]
        if own and self.scenario != "example1":  # no other scenario reads them
            raise InvalidConfig(f"c, n and m apply only to example1, not to "
                                f"{self.scenario}: got {', '.join(own)}")
        self.learn_config()  # LearnConfig rejects meaningless learning knobs

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise InvalidConfig(f"config must be a JSON object, not "
                                f"{type(d).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        d = dict(d)
        for f in fields(cls):
            if f.name not in d or f.name in ("assignment", "dec_sizes"):
                continue
            value = d[f.name]
            # a field's JSON types: its own, and an integer where it takes a float
            kinds = get_args(f.type) or (f.type,)
            if float in kinds:
                kinds += (int,)
            if not isinstance(value, kinds) or (
                    isinstance(value, bool) and bool not in kinds):
                raise InvalidConfig(f"config {f.name} {value!r} is not of "
                                    f"type {kinds[0].__name__}")
            if float in kinds and type(value) is int:
                try:
                    d[f.name] = float(value)
                except OverflowError:
                    raise InvalidConfig(f"config {f.name} is an integer too "
                                        f"large for a float") from None
        for key in ("assignment", "dec_sizes"):
            value = d.get(key)
            if value is not None:
                if not (isinstance(value, (list, tuple))
                        and all(type(v) is int for v in value)):
                    raise InvalidConfig(f"config {key} {value!r} is not a list "
                                        f"of integers")
                d[key] = tuple(value)
        return cls(**d)

    def to_dict(self):
        d = asdict(self)
        for key in ("assignment", "dec_sizes"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d

    def learn_config(self):
        return LearnConfig(
            seed=self.seed, dt=self.dt, window=self.window,
            horizon=self.horizon, tol_pi=self.tol_pi,
            max_iter=self.max_iter, amplitude=self.amplitude,
        )


@dataclass(frozen=True)
class ReportRow:
    """One comparison-table row; the column set is fixed and documented."""

    label: str
    kappa: float
    trace_g2: float
    cond_p: float
    j_mean: float
    j_u: float
    n_c: int
    learn_time: float
    sop: float

    def cells(self):
        return [getattr(self, c) for c in REPORT_COLUMNS]


REPORT_COLUMNS = [f.name for f in fields(ReportRow)]


@dataclass(frozen=True)
class Scenario:
    """Realized scenario bundle."""

    mas: object
    spec: object
    formation: object = None
    baseline_k: np.ndarray | None = None
    x0: np.ndarray | None = None


def build_scenario(cfg):
    if cfg.scenario == "example1":
        mas, spec = clique_path_scenario(cfg.s, cfg.c, cfg.n, cfg.m)
        return Scenario(mas=mas, spec=spec)
    if cfg.scenario == "five_node":
        mas, spec = five_node_scenario()
        return Scenario(mas=mas, spec=spec)
    scn = default_formation()
    mas, spec, baseline_k, x0 = build_formation(scn)
    return Scenario(mas=mas, spec=spec, formation=scn, baseline_k=baseline_k,
                    x0=x0)


def _sizes_to_assignment(sizes, n_agents):
    if any(size < 1 for size in sizes):
        raise InvalidConfig(f"cluster sizes {sizes} must all be at least 1")
    if sum(sizes) != n_agents:
        raise InvalidConfig(f"cluster sizes {sizes} do not sum to {n_agents}")
    assignment = []
    for j, size in enumerate(sizes):
        assignment.extend([j] * size)
    return assignment


def choose_decomposition(cfg, scenario):
    """Decomposition per config: explicit assignment/sizes, clique blocks,
    or an exact search for the requested objective.  Returns
    (Decomposition, PartitionResult or None)."""
    spec = scenario.spec
    n_agents = spec.graph.n_agents
    if cfg.assignment is not None:
        if len(cfg.assignment) != n_agents:
            raise InvalidConfig(f"assignment of {len(cfg.assignment)} agents "
                                f"for a scenario of {n_agents}")
        return Decomposition.from_assignment(cfg.assignment), None
    if cfg.dec_sizes is not None:
        return (
            Decomposition.from_assignment(
                _sizes_to_assignment(cfg.dec_sizes, n_agents)
            ),
            None,
        )
    if cfg.objective == "cliques":
        if cfg.scenario != "example1":
            raise InvalidConfig(
                "objective 'cliques', the default, needs the example1 scenario; "
                "choose a decomposition with --objective kappa|scut, "
                "--assignment or --dec")
        return clique_decomposition(cfg.s, cfg.c), None
    if cfg.objective == "assignment":
        raise InvalidConfig("objective 'assignment' needs an explicit "
                            "assignment or cluster sizes")
    constraints = (ConstraintSet() if scenario.formation is None
                   else scenario.formation.constraints)
    problem = PartitionProblem(graph=spec.graph, s=cfg.s, constraints=constraints)
    result = max_kappa(problem) if cfg.objective == "kappa" else min_scut(problem)
    if not result.optimal:
        print(f"warning: the {cfg.objective} search stopped at its node budget "
              f"after {result.nodes} nodes; the decomposition is not certified "
              f"optimal", file=sys.stderr)
    return result.dec, result


def draw_x0(scheme, rng, dim, n_draws):
    if scheme == "uniform_pm1":
        return rng.choice(np.array([1.0, -1.0, 0.0]), size=(n_draws, dim))
    if scheme == "normal05":
        return rng.normal(0.0, math.sqrt(0.5), size=(n_draws, dim))
    raise InvalidConfig(f"x0 scheme {scheme!r} needs explicit draws")


def _quad_forms(x0s, mat):
    """x0' mat x0 for each row x0 of x0s."""
    return ((x0s @ mat) * x0s).sum(axis=1)


def _sample_means(x0s, *mats):
    """Mean of x0' M x0 over the rows x0 of x0s, for each M: <M, S>/N with
    the moment matrix S = x0s' x0s formed once for all of them."""
    s = x0s.T @ x0s
    return [float(np.vdot(mat, s)) / len(x0s) for mat in mats]


def make_report_row(cfg, scenario, dec, gain, learn_time=float("nan")):
    """Evaluate a gain into (ReportRow, GapReport, trajectory).

    Under the scenario x0 scheme the costs are those of the closed-loop
    trajectory from the scenario's initial state, which is returned;
    otherwise the trajectory is None.
    """
    mas, spec = scenario.mas, scenario.spec
    report, p_opt, u = gap_report(mas, spec, dec, gain, sigma=cfg.sigma)
    _, n_c = comm_links(gain.k_h, spec.n, spec.m)

    traj = None
    if cfg.x0_scheme == "scenario":
        if scenario.x0 is None:
            raise InvalidConfig("scenario x0 scheme needs a scenario initial "
                                "state")
        traj = integrate(mas, gain.k_h, scenario.x0, cfg.t_final, cfg.dt,
                         cost=spec)
        j_mean, j_u = traj.cost, traj.ju
        sop = report.sop
    else:
        rng = np.random.default_rng(cfg.seed + 1)
        x0s = draw_x0(cfg.x0_scheme, rng, spec.n * mas.n_agents, cfg.n_draws)
        x_u = solve_lyapunov(mas.a_full - mas.b_full @ gain.k_h,
                             gain.k_h.T @ gain.k_h)
        j_mean, j_u, j_opt_mean = _sample_means(x0s, u, x_u, p_opt)
        sop = (j_mean - j_opt_mean) / j_opt_mean if j_opt_mean > 0 else 0.0

    row = ReportRow(
        label=dec.label(),
        kappa=kappa(spec.graph, dec),
        trace_g2=report.trace_g2,
        cond_p=report.cond_p,
        j_mean=j_mean,
        j_u=j_u,
        n_c=n_c,
        learn_time=learn_time,
        sop=sop,
    )
    return row, report, traj


def _learn(mas, spec, dec, learn_cfg):
    """Learn dec's clusters from black-box plants, each started at its
    initial_gains gain.  Returns (gain, LearnResults, learning wall time).

    The step sizes are checked first.  check_assumptions runs next, on the
    model that initial_gains reads, so a cluster whose Riccati equation has
    no stabilizing solution raises NonStabilizable, named as solve_clusters
    names it, before any data are collected."""
    window_steps(learn_cfg.dt, learn_cfg.window, learn_cfg.horizon)
    check = check_assumptions(mas, spec, dec)
    for j, held in enumerate(zip(check.stabilizable, check.detectable)):
        if not all(held):
            raise NonStabilizable(check.explain(
                dec, j, "no stabilizing cluster Riccati solution to learn"))
    plants = cluster_plants(mas, dec)
    k0_list = initial_gains(mas, dec)
    t0 = time.perf_counter()
    gain, results = learn_hierarchical(plants, spec, dec, learn_cfg,
                                       k0_list=k0_list)
    return gain, results, time.perf_counter() - t0


def run_experiment(cfg):
    """Execute the configured pipeline and write all report files.

    Returns (row, paths) where row is the ReportRow written to report.csv.
    """
    scenario = build_scenario(cfg)
    dec, _ = choose_decomposition(cfg, scenario)
    mas, spec = scenario.mas, scenario.spec

    results = None
    if cfg.learn:
        gain, results, learn_time = _learn(mas, spec, dec, cfg.learn_config())
    else:
        gain, learn_time = hierarchical_gain(mas, spec, dec), float("nan")
    row, report, traj = make_report_row(cfg, scenario, dec, gain, learn_time)

    out = cfg.out_dir
    paths = {
        "report": fileio.write_csv(
            f"{out}/report.csv", REPORT_COLUMNS, [row.cells()]
        ),
        "gain": fileio.save_gain(f"{out}/gain.npz", gain),
        "config": fileio.save_json(f"{out}/config_echo.json", cfg.to_dict()),
        "gap": fileio.save_json(f"{out}/gap_report.json", asdict(report)),
    }
    if results is not None:
        paths["learn"] = fileio.write_csv(
            f"{out}/learn_summary.csv",
            ["cluster", "iterations", "wall_time"],
            [[j, r.iterations, r.wall_time] for j, r in enumerate(results)],
        )
    if traj is not None:
        paths["trajectory"] = fileio.write_trajectory_csv(
            f"{out}/trajectory.csv", traj, stride=10,
        )
    return row, paths


# ---------------------------------------------------------------------------
# benchmark tables
# ---------------------------------------------------------------------------


def _bench_rl_compare(out_dir, seed):
    header = [
        "s", "c", "n_states", "unknowns_hier", "unknowns_central",
        "learn_time_hier", "learn_time_central", "iters_hier", "iters_central",
        "sop_mean", "note",
    ]
    rows = []
    for s, c in ((3, 2), (3, 3), (3, 4)):
        mas, spec = clique_path_scenario(s, c)
        dec = clique_decomposition(s, c)
        n_states = spec.n * mas.n_agents
        unknowns_h = unknown_count(spec.n * c, spec.m * c)
        unknowns_c = unknown_count(n_states, spec.m * mas.n_agents)
        cfg = LearnConfig(seed=seed)
        note = ""

        gain, results, t_h = _learn(mas, spec, dec, cfg)
        iters_h = max(r.iterations for r in results)

        dec_all = Decomposition.from_assignment([0] * mas.n_agents)
        try:
            _, res_c, t_c = _learn(mas, spec, dec_all, cfg)
            iters_c = res_c[0].iterations
        except HlqrError as exc:
            t_c, iters_c = float("nan"), 0
            note = f"centralized learning failed: {type(exc).__name__}"

        rng = np.random.default_rng(seed + 1)
        x0s = draw_x0("uniform_pm1", rng, n_states, 200)
        _, p_opt, u = gap_report(mas, spec, dec, gain)
        js = _quad_forms(x0s, u)
        jo = _quad_forms(x0s, p_opt)
        keep = jo > 0
        sop_mean = float(((js[keep] - jo[keep]) / jo[keep]).mean())

        rows.append([s, c, n_states, unknowns_h, unknowns_c, t_h, t_c,
                     iters_h, iters_c, sop_mean, note])
    path = fileio.write_csv(f"{out_dir}/rl_compare.csv", header, rows)
    fileio.save_json(
        f"{out_dir}/rl_compare_annotations.json",
        {
            "machine_dependent": ["learn_time_hier", "learn_time_central"],
            "distribution_dependent": ["sop_mean"],
        },
    )
    return path


def _bench_decomposition_compare(out_dir, seed):
    cfg = ExperimentConfig(scenario="example1", s=3, c=3, seed=seed,
                           x0_scheme="normal05", n_draws=1000)
    scenario = build_scenario(cfg)
    mas, spec = scenario.mas, scenario.spec
    # one cluster is the centralized controller: G2 = 0, so Rtilde = 0
    named = [
        ("{1,2}|{3..7}|{8,9}", [0, 0, 1, 1, 1, 1, 1, 2, 2]),
        ("{1,2,3}|{4,5,6}|{7,8,9}", [0, 0, 0, 1, 1, 1, 2, 2, 2]),
        ("{1,2,3}|{4}|{5..9}", [0, 0, 0, 1, 2, 2, 2, 2, 2]),
        ("undecomposed", [0] * mas.n_agents),
    ]
    rows = []
    for label, assignment in named:
        dec = Decomposition.from_assignment(assignment)
        gain = hierarchical_gain(mas, spec, dec)
        row, *_ = make_report_row(cfg, scenario, dec, gain)
        rows.append([label, *row.cells()[1:]])
    path = fileio.write_csv(
        f"{out_dir}/decomposition_compare.csv",
        ["decomposition", *REPORT_COLUMNS[1:]], rows,
    )
    fileio.save_json(
        f"{out_dir}/decomposition_compare_annotations.json",
        {
            "machine_dependent": ["learn_time"],
            "distribution_dependent": ["j_mean", "j_u", "sop"],
        },
    )
    return path


def _bench_formation(out_dir, seed):
    cfg = ExperimentConfig(scenario="formation", seed=seed,
                           x0_scheme="scenario", learn=True)
    scenario = build_scenario(cfg)
    mas, spec, scn = scenario.mas, scenario.spec, scenario.formation
    rows = []
    for sizes in ((6, 3, 3), (1, 10, 1), (7, 2, 3)):
        dec = Decomposition.from_assignment(
            _sizes_to_assignment(sizes, mas.n_agents)
        )
        if not scn.constraints.admits(scn.formation_graph, dec.assignment):
            continue
        note = ""
        try:
            gain, _, learn_time = _learn(mas, spec, dec, cfg.learn_config())
        except HlqrError as exc:
            gain, learn_time = hierarchical_gain(mas, spec, dec), float("nan")
            note = f"learning failed ({type(exc).__name__}); model-based gain"
        row, *_ = make_report_row(cfg, scenario, dec, gain, learn_time)
        rows.append([*row.cells(), note])
    path = fileio.write_csv(
        f"{out_dir}/formation.csv", [*REPORT_COLUMNS, "note"], rows,
    )
    fileio.save_json(
        f"{out_dir}/formation_annotations.json",
        {
            "machine_dependent": ["learn_time"],
            "distribution_dependent": [],
            "feasibility": "rows limited to leader-per-cluster connected decompositions",
        },
    )
    return path


def bench_tables(which, out_dir="out", seed=0):
    """Regenerate one of the comparison tables; returns the CSV path."""
    if which == "rl-compare":
        return _bench_rl_compare(out_dir, seed)
    if which == "decomposition-compare":
        return _bench_decomposition_compare(out_dir, seed)
    if which == "formation":
        return _bench_formation(out_dir, seed)
    raise InvalidConfig(f"unknown bench table {which!r}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _looks_negative(word):
    """Whether word starts like a negative number: -1, -.5, -1,0,0, -inf."""
    return word[:1] == "-" and (word[1:].lstrip(".")[:1].isdigit()
                                or word[1:4].lower() in ("inf", "nan"))


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a word that looks like a negative
    number (-1, -inf, -1,0,0) after a value-taking option is read as that
    option's value, as --dt=-inf is, so that it reaches hlqr's own checks.
    argparse alone takes -inf or -1,0,0 there for an unknown option and
    exits with a usage message."""

    def __init__(self, *args, **kwargs):
        self._value_options = set()  # super().__init__ adds --help
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self._value_options.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's parser gets the words after the subcommand
        words = []
        for word in sys.argv[1:] if args is None else args:
            if words and words[-1] in self._value_options and _looks_negative(word):
                words[-1] += "=" + word
            else:
                words.append(word)
        return super().parse_known_args(words, namespace)


def _add_common(p):
    p.add_argument("--seed", type=int, help="master RNG seed")
    p.add_argument("--out", help="output directory")


def _add_scenario_flags(p):
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("scenario", nargs="?", help="example1 | five_node | formation")
    p.add_argument("--s", type=int, help="number of clusters / cliques")
    p.add_argument("--c", type=int, help="clique size (example1)")
    p.add_argument("--n", type=int, help="agent state dimension (example1)")
    p.add_argument("--m", type=int, help="agent input dimension (example1)")
    p.add_argument("--objective", choices=["cliques", "kappa", "scut"],
                   help="decomposition objective")
    p.add_argument("--clusters", choices=["cliques"],
                   help="alias: --clusters cliques")
    p.add_argument("--assignment",
                   help="explicit 0-based assignment, e.g. 0,0,1,1,2")
    p.add_argument("--dec", help="cluster sizes over consecutive agents, e.g. 6,3,3")


def _add_learn_flags(p):
    p.add_argument("--horizon", type=float, help="collection horizon (s)")
    p.add_argument("--dt", type=float, help="integration step (s)")
    p.add_argument("--window", type=float, help="integral window length (s)")
    p.add_argument("--tol-pi", type=float, dest="tol_pi",
                   help="policy-iteration stop tolerance")
    p.add_argument("--max-iter", type=int, dest="max_iter",
                   help="policy-iteration pass limit")


def build_parser():
    parser = _Parser(
        prog="hlqr",
        description="Hierarchical LQR for multi-agent systems: decompose, "
                    "learn cluster controllers model-free, assemble, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="search for a decomposition")
    _add_scenario_flags(p)
    _add_common(p)

    p = sub.add_parser("solve", help="model-based hierarchical synthesis")
    _add_scenario_flags(p)
    _add_common(p)
    p.add_argument("--sigma", type=float, help="initial-state std for the gap report")

    p = sub.add_parser("learn", help="model-free hierarchical learning")
    _add_scenario_flags(p)
    _add_learn_flags(p)
    _add_common(p)

    p = sub.add_parser("simulate", help="closed-loop trajectory")
    _add_scenario_flags(p)
    _add_common(p)
    p.add_argument("--gain", help="saved gain file (default: model-based synthesis)")
    p.add_argument("--baseline", action="store_true",
                   help="use the formation baseline law")
    p.add_argument("--t-final", type=float, dest="t_final", help="horizon (s)")
    p.add_argument("--dt", type=float, help="integration step (s)")

    p = sub.add_parser("run", help="full pipeline from config")
    _add_scenario_flags(p)
    _add_learn_flags(p)
    _add_common(p)
    p.add_argument("--learn", action="store_true", default=None,
                   help="learn cluster gains model-free")
    p.add_argument("--sigma", type=float)
    p.add_argument("--n-draws", type=int, dest="n_draws")
    p.add_argument("--x0-scheme", dest="x0_scheme",
                   choices=["uniform_pm1", "normal05", "scenario"],
                   help="initial states of the cost means: uniform_pm1 draws "
                        "each coordinate from {-1, 0, 1}, normal05 from a "
                        "normal with variance 0.5; scenario runs one "
                        "trajectory from the formation's own initial state")
    p.add_argument("--t-final", type=float, dest="t_final")

    p = sub.add_parser("bench", help="regenerate comparison tables")
    p.add_argument("--which", required=True,
                   choices=["rl-compare", "decomposition-compare", "formation"])
    _add_common(p)

    return parser


def _config_from_args(args, objective="cliques"):
    """The --config file's settings with the flags over them; objective
    applies when neither names one.  An explicit assignment or cluster sizes,
    from either, choose the decomposition and record objective 'assignment'."""
    base = {}
    if getattr(args, "config", None):
        base = fileio.load_json(args.config)
    cfg = ExperimentConfig.from_dict(base)

    updates = {}
    if "objective" not in base:
        updates["objective"] = objective
    # a flag has its field's name, except --out; --assignment is parsed below
    for f in fields(ExperimentConfig):
        if f.name == "assignment":
            continue
        value = getattr(args, "out" if f.name == "out_dir" else f.name, None)
        if value is not None:
            updates[f.name] = value
    if getattr(args, "clusters", None):
        updates["objective"] = "cliques"
    if getattr(args, "assignment", None):
        updates["assignment"] = _int_list("--assignment", args.assignment)
    if getattr(args, "dec", None):
        updates["dec_sizes"] = _int_list("--dec", args.dec)
    cfg = replace(cfg, **updates)
    if cfg.assignment is not None or cfg.dec_sizes is not None:
        cfg = replace(cfg, objective="assignment")
    return cfg


def _int_list(flag, text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InvalidConfig(f"{flag} {text!r} is not a comma-separated list "
                            f"of integers") from None


def cmd_decompose(args):
    cfg = _config_from_args(args, objective="kappa")
    scenario = build_scenario(cfg)
    dec, result = choose_decomposition(cfg, scenario)
    split = split_graph(scenario.spec.graph, dec)
    kap = kappa(scenario.spec.graph, dec)
    n_agents = scenario.spec.graph.n_agents
    info = {
        "assignment": list(dec.assignment),
        "label": dec.label(),
        "kappa": kap,
        "trace_g2": float(np.trace(split.g2)),
        "n_c_upper": n_agents * (n_agents - 1) // 2 - kap,
        "objective": cfg.objective,
        "optimal": None if result is None else result.optimal,
        "nodes_explored": None if result is None else result.nodes,
    }
    fileio.save_json(f"{cfg.out_dir}/decomposition.json", info)
    print(f"decomposition {info['label']}")
    print(f"kappa={info['kappa']} trace_g2={info['trace_g2']} "
          f"n_c_upper={info['n_c_upper']} optimal={info['optimal']}")
    return 0


def cmd_solve(args):
    row, _ = run_experiment(replace(_config_from_args(args), learn=False))
    print(f"decomposition {row.label}")
    print(f"kappa={row.kappa} trace_g2={row.trace_g2} n_c={row.n_c} "
          f"cond_p={row.cond_p:.4g} sop={row.sop:.4%}")
    return 0


def cmd_learn(args):
    cfg = _config_from_args(args)
    cfg = replace(cfg, learn=True)
    row, paths = run_experiment(cfg)
    print(f"decomposition {row.label}")
    print(f"learned gain in {row.learn_time:.3f}s; sop={row.sop:.4%} "
          f"n_c={row.n_c}")
    print(f"report: {paths['report']}")
    return 0


def cmd_simulate(args):
    cfg = _config_from_args(args)
    scenario = build_scenario(cfg)
    if getattr(args, "baseline", False):
        if scenario.baseline_k is None:
            raise InvalidConfig("baseline law exists only for the formation scenario")
        k = scenario.baseline_k
        label = "baseline"
    elif getattr(args, "gain", None):
        k = fileio.load_gain(args.gain)["k_h"]
        n_total = scenario.spec.n * scenario.mas.n_agents
        m_total = scenario.spec.m * scenario.mas.n_agents
        if k.shape != (m_total, n_total):
            raise InvalidConfig(
                f"gain shape {k.shape} does not match scenario "
                f"({m_total}, {n_total})")
        label = "loaded"
    else:
        dec, _ = choose_decomposition(cfg, scenario)
        k = hierarchical_gain(scenario.mas, scenario.spec, dec).k_h
        label = "hierarchical"
    x0 = scenario.x0
    if x0 is None:
        rng = np.random.default_rng(cfg.seed + 1)
        x0 = draw_x0("uniform_pm1", rng, scenario.spec.n * scenario.mas.n_agents, 1)[0]
    traj = integrate(scenario.mas, k, x0, cfg.t_final, cfg.dt,
                     cost=scenario.spec)
    path = fileio.write_trajectory_csv(f"{cfg.out_dir}/trajectory.csv", traj,
                                       stride=10)
    print(f"{label} controller: J={traj.cost:.6g} J_u={traj.ju:.6g} "
          f"over {cfg.t_final}s")
    print(f"trajectory: {path}")
    return 0


def cmd_run(args):
    cfg = _config_from_args(args)
    row, paths = run_experiment(cfg)
    print(",".join(REPORT_COLUMNS))
    print(",".join(str(v) for v in row.cells()))
    print(f"report: {paths['report']}")
    return 0


def cmd_bench(args):
    out_dir = args.out or "out"
    seed = args.seed if args.seed is not None else 0
    path = bench_tables(args.which, out_dir=out_dir, seed=seed)
    print(f"table: {path}")
    return 0


_COMMANDS = {
    "decompose": cmd_decompose,
    "solve": cmd_solve,
    "learn": cmd_learn,
    "simulate": cmd_simulate,
    "run": cmd_run,
    "bench": cmd_bench,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (HlqrError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
