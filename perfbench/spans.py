"""Spans around hlqr's public functions, installed from outside the package.

``instrument`` replaces every public function of each ``hlqr`` module (and a
few methods) in all ``hlqr`` namespaces that bind it, so calls made through
``from .x import f`` are seen too.  A span is a list
``[name, parent index, start, end, counts]`` kept in memory until the run
ends.  Counts (nodes, iterations, steps, bytes) are read from the arguments
and return values at the same call boundary.  ``layer_metrics`` turns spans
into the benchmark's per-layer metrics; self time is a span's duration minus
the durations of its child spans.

Without a recorder only the partition searches are captured, so the output
checks can see whether a search was certified; nothing is timed.
"""

import functools
import importlib
import inspect
import os
import time
import tracemalloc

import numpy as np

MODULES = ("cli", "partition", "graphcost", "matops", "hierctrl", "adp", "sim",
           "_kernels", "fileio")

#: (module, attribute path) of the callables wrapped besides module functions;
#: matops' solve_continuous_lyapunov is scipy's Bartels-Stewart solver
EXTRA = (
    ("sim", "BlackBoxPlant.rollout"),
    ("sim", "BlackBoxPlant.collect"),
    ("adp", "Excitation.table"),
    ("matops", "solve_continuous_lyapunov"),
    ("_kernels", "rollout_kernel"),
    ("_kernels", "collect_kernel"),
)

SEARCHES = ("partition.max_kappa", "partition.min_scut")
FILE_WRITERS = ("fileio.save_json", "fileio.write_csv", "fileio.save_gain",
                "fileio.write_trajectory_csv")


def rollout_ops_per_step(n, m):
    """Computed multiply-add operation count of one RK4 rollout step.

    Per stage: K x, B u (2nm each), A x and x'Qx (2n^2 each), u'Ru (2m^2);
    four stages.  Lower-order vector terms are left out.
    """
    return 4 * (4 * n * n + 4 * n * m + 2 * m * m)


def _counts(name, args, out):
    """Counts read at the call boundary of span `name`."""
    if name in SEARCHES:
        return {"nodes": out.nodes, "certified": int(out.optimal)}
    if name == "adp.policy_iteration":
        return {"iters": out.iterations}
    if name == "sim.BlackBoxPlant.rollout":
        return {"steps": int(out[5])}
    if name == "sim.BlackBoxPlant.collect":
        return {"steps": int(args[5]) * int(out[6])}
    if name == "_kernels.rollout_kernel":
        n, m = args[0].shape[0], args[1].shape[1]
        return {"steps": int(out[5]), "ops": int(out[5]) * rollout_ops_per_step(n, m)}
    if name == "_kernels.collect_kernel":
        return {"steps": int(args[7]) * int(out[6])}
    if name in FILE_WRITERS:
        return {"bytes": os.path.getsize(out)}
    return None


class _CollectMemory:
    """tracemalloc peak of one adp.collect call.

    tracemalloc slows the per-step loop of the collect kernel about 14-fold,
    so tracing pauses for the kernel call and the kernel interval is
    accounted as the bytes of the arrays it returns.  Bytes freed while
    tracing is paused are not seen, so the figure errs high.
    """

    def __init__(self):
        self.base = 0
        self.peak = 0

    def start(self):
        self.base = self.peak = 0
        tracemalloc.start()

    def pause(self):
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.peak = max(self.peak, self.base + peak)
        self.base += current

    def resume(self, out):
        self.base += sum(a.nbytes for a in out if isinstance(a, np.ndarray))
        self.peak = max(self.peak, self.base)
        tracemalloc.start()

    def stop(self):
        self.pause()
        return self.peak / 2**20


class Recorder:
    """In-memory span list for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.enabled = True
        self.memory = _CollectMemory()

    def wrap(self, name, fn):
        spans, stack, memory = self.spans, self.stack, self.memory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            paused = False
            if name == "adp.collect":
                memory.start()
            elif name == "_kernels.collect_kernel" and tracemalloc.is_tracing():
                memory.pause()
                paused = True
            out = None
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if name == "adp.collect":
                    span[4] = {"peak_mb": memory.stop()}
                elif paused:
                    memory.resume(out or ())
            counts = _counts(name, args, out)
            if counts:
                span[4] = counts
            return out

        return wrapper


def _targets():
    """{span name: (owner, attribute, original)} of every wrapped callable."""
    found = {}
    for short in MODULES:
        mod = importlib.import_module(f"hlqr.{short}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[f"{short}.{attr}"] = (mod, attr, obj)
    for short, path in EXTRA:
        owner = importlib.import_module(f"hlqr.{short}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        found[f"{short}.{path}"] = (owner, attr, getattr(owner, attr))
    return found


def instrument(recorder=None):
    """Install spans (or, without a recorder, the search capture only).

    Returns the list that collects every PartitionResult as searches finish.
    """
    searches = []
    namespaces = [importlib.import_module(f"hlqr.{short}") for short in MODULES]
    for name, (owner, attr, original) in _targets().items():
        if recorder is not None:
            wrapped = recorder.wrap(name, original)
        elif name in SEARCHES:
            wrapped = original
        else:
            continue
        if name in SEARCHES:
            wrapped = _capture(wrapped, searches)
        if inspect.isclass(owner):
            setattr(owner, attr, wrapped)
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
    return searches


def _capture(fn, sink):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append(out)
        return out

    return wrapper


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _layer(name):
    return name.split(".", 1)[0]


class _Spans:
    """Queries over the spans below one root span, or over all spans."""

    def __init__(self, spans, root=None):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        roots = []
        for i, (_, parent, start, end, _) in enumerate(spans):
            if parent is not None:
                self.child_time[parent] += end - start
            roots.append(i if parent is None else roots[parent])
        self.keep = [root is None or r == root for r in roots]

    def _under(self, i, pred):
        parent = self.spans[i][1]
        while parent is not None:
            if pred(self.spans[parent][0]):
                return True
            parent = self.spans[parent][1]
        return False

    def select(self, pred, outermost=False):
        return [i for i, span in enumerate(self.spans)
                if self.keep[i] and pred(span[0])
                and not (outermost and self._under(i, pred))]

    def total(self, pred):
        """Inclusive time of the outermost spans matching pred."""
        return sum(self.spans[i][3] - self.spans[i][2]
                   for i in self.select(pred, outermost=True))

    def self_time(self, pred):
        return sum(self.spans[i][3] - self.spans[i][2] - self.child_time[i]
                   for i in self.select(pred))

    def count(self, pred):
        return len(self.select(pred))

    def sum_count(self, pred, key, reduce=sum, outermost=False):
        values = [(self.spans[i][4] or {}).get(key, 0)
                  for i in self.select(pred, outermost)]
        return reduce(values) if values else 0


def _is(*names):
    return lambda name: name in names


def _ratio(num, den):
    return num / den if den else 0.0


def root_spans(spans):
    """Indices of the spans without a parent: one cli.main per command."""
    return [i for i, span in enumerate(spans) if span[1] is None]


def layer_metrics(spans, root=None):
    """Per-layer metrics of all spans, or of the spans below one root."""
    sp = _Spans(spans, root)
    search = _is(*SEARCHES)
    search_s = sp.total(search)
    nodes = sp.sum_count(search, "nodes")
    collects = sp.count(_is("adp.collect"))
    pi = _is("adp.policy_iteration")
    pi_s = sp.total(pi)
    pi_iters = sp.sum_count(pi, "iters")
    rollout = _is("sim.BlackBoxPlant.rollout")
    rollout_s = sp.total(rollout)
    collect = _is("sim.BlackBoxPlant.collect")
    collect_s = sp.total(collect)
    k_rollout = _is("_kernels.rollout_kernel")
    k_rollout_s = sp.total(k_rollout)
    fileio = lambda name: _layer(name) == "fileio"  # noqa: E731
    writers = _is(*FILE_WRITERS)
    return {
        "partition.search_s": search_s,
        "partition.nodes": nodes,
        "partition.nodes_per_s": _ratio(nodes, search_s),
        "partition.certified_ratio": _ratio(sp.sum_count(search, "certified"),
                                            sp.count(search)),
        "graphcost.s": sp.self_time(lambda name: _layer(name) == "graphcost"),
        "matops.solve_care_s": sp.total(_is("matops.solve_care")),
        "matops.solve_care_calls": sp.count(_is("matops.solve_care")),
        "matops.solve_lyapunov_s": sp.total(_is("matops.solve_lyapunov")),
        "matops.solve_lyapunov_calls": sp.count(_is("matops.solve_lyapunov")),
        "matops.bartels_stewart_calls":
            sp.count(_is("matops.solve_continuous_lyapunov")),
        "hierctrl.solve_clusters_s": sp.total(_is("hierctrl.solve_clusters")),
        "hierctrl.compute_rtilde_s": sp.total(_is("hierctrl.compute_rtilde")),
        "hierctrl.assemble_gain_s": sp.total(_is("hierctrl.assemble_gain")),
        "hierctrl.gap_report_self_s": sp.self_time(_is("hierctrl.gap_report")),
        "adp.collect_self_s": sp.self_time(_is("adp.collect")),
        "adp.collect_calls": collects,
        "adp.collect_useful_ratio":
            _ratio(sp.count(_is("adp.learn_cluster")), collects),
        "adp.policy_iteration_s": pi_s,
        "adp.policy_iteration_iters": pi_iters,
        "adp.policy_iteration_s_per_iter": _ratio(pi_s, pi_iters),
        "adp.collect_peak_mb": sp.sum_count(_is("adp.collect"), "peak_mb", max),
        "sim.rollout_s": rollout_s,
        "sim.rollout_calls": sp.count(rollout),
        "sim.rollout_steps_per_s": _ratio(sp.sum_count(rollout, "steps"), rollout_s),
        "sim.collect_s": collect_s,
        "sim.collect_steps_per_s": _ratio(sp.sum_count(collect, "steps"), collect_s),
        "sim.tabulate_signal_s": sp.total(_is("sim.tabulate_signal")),
        "kernels.rollout_s": k_rollout_s,
        "kernels.collect_s": sp.total(_is("_kernels.collect_kernel")),
        "kernels.rollout_gflops":
            _ratio(sp.sum_count(k_rollout, "ops"), k_rollout_s) / 1e9,
        "fileio.s": sp.total(fileio),
        "fileio.mb_written":
            sp.sum_count(writers, "bytes", outermost=True) / 2**20,
        "cli.self_s": sp.self_time(lambda name: _layer(name) == "cli"),
    }
