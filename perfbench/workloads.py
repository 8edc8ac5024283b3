"""The benchmark's workloads: one closed loop of ``hlqr`` CLI commands each.

Every command is an argv without ``--seed`` and ``--out``; the runner
appends both.  Each workload lists its cheapest command first, which is the
one the self-test runs.  ``kappa_ref`` is the certified optimum of a fixed
branch-and-bound instance, which does not depend on the seed.  The reasons
for each workload are recorded in BENCHMARK.json.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    argv: tuple
    kappa_ref: int | None = None


def _cmd(line, kappa_ref=None):
    return Command(tuple(line.split()), kappa_ref)


WORKLOADS = {
    "solve-ladder": (
        _cmd("solve example1 --objective kappa --s 3 --c 3", 15),
        _cmd("solve example1 --objective kappa --s 4 --c 4", 64),
        _cmd("solve example1 --objective kappa --s 3 --c 6", 66),
        _cmd("solve formation --s 3 --objective kappa", 18),
        _cmd("solve example1 --clusters cliques --s 5 --c 5"),
        _cmd("solve example1 --clusters cliques --s 8 --c 8"),
        _cmd("solve example1 --clusters cliques --s 10 --c 10"),
    ),
    "learn-cliques": (
        _cmd("learn example1 --s 3 --c 3 --clusters cliques"),
        _cmd("learn example1 --s 3 --c 3 --assignment 0,0,0,0,0,0,0,0,0"),
    ),
    "formation-run": (
        _cmd("run formation --dec 6,3,3 --x0-scheme scenario"),
    ),
}
