"""The four workloads: the bqem CLI commands that make up one pass of each.

Only the standard library is used here, because the parent process of the
benchmark imports this module and must stay light while it times others.
All inputs come from the seed: it draws the dipole moment direction of the
two ``scatter`` workloads, the lattice points at which ``green_refine``
checks the Green function, and it is passed as ``--seed`` to ``check all``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ELLIPSOID = {"a": 5, "b": 3, "c": 2}
ALPHA = [1.0, 0.3]

# The refinement table's finest level: a 33^3 cube of side 0.4 centred at
# (0.8, 0.8, 0.8), times 0.5 + k * 1.5/32 for k = 0..32.
GREEN_N = 33
GREEN_POINTS = 3


@dataclass(frozen=True)
class Workload:
    """How one run of a workload is laid out.

    ``procs`` fresh processes run one after another; each makes a cold first
    pass and then warm passes until its share of the run time is used, but
    never fewer than ``min_warm``.
    """

    procs: int
    min_warm: int


WORKLOADS = {
    "scatter_sweep": Workload(procs=5, min_warm=5),
    "mfs_large": Workload(procs=3, min_warm=2),
    "green_refine": Workload(procs=3, min_warm=2),
    "check_all": Workload(procs=3, min_warm=3),
}


def unit_moment(seed: int) -> list[float]:
    rng = random.Random(seed)
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(c * c for c in v))
    return [c / norm for c in v]


def green_points(seed: int) -> list[tuple[float, list[float]]]:
    """(t, x) at seeded nodes of the finest refinement lattice."""
    rng = random.Random(seed)
    h = 0.4 / (GREEN_N - 1)
    dt = 1.5 / (GREEN_N - 1)
    return [
        (0.5 + dt * rng.randrange(GREEN_N), [0.6 + h * rng.randrange(GREEN_N) for _ in range(3)])
        for _ in range(GREEN_POINTS)
    ]


def build(name: str, seed: int, work: Path) -> tuple[list[dict], dict[Path, str]]:
    """The commands of one pass, and the config files they read.

    Each command is a dict with ``argv`` for ``bqem.cli.main`` and ``check``
    naming how its output is checked, plus the parameters of that check.
    """
    if name == "scatter_sweep":
        moment = unit_moment(seed)
        cfg = {"ellipsoid": ELLIPSOID, "alpha": ALPHA, "moment": moment}
        path = work / "scatter_sweep.json"
        cmd = {"argv": ["scatter", "--config", str(path)], "check": "scatter", "moment": moment,
               "sweep": True, "err_ceiling": 1e-7}
        return [cmd], {path: json.dumps(cfg)}
    if name == "mfs_large":
        moment = unit_moment(seed)
        square = {"ellipsoid": ELLIPSOID, "alpha": ALPHA, "moment": moment,
                  "source_scale": 0.5, "n_values": [200]}
        least_squares = {"ellipsoid": ELLIPSOID, "alpha": ALPHA, "moment": moment,
                         "source_scale": 0.2, "n_values": [100], "oversample": 1.5}
        p1, p2 = work / "mfs_square.json", work / "mfs_lstsq.json"
        cmds = [
            {"argv": ["scatter", "--config", str(p1)], "check": "scatter", "moment": moment,
             "sweep": False, "err_ceiling": 1e-6},
            {"argv": ["scatter", "--config", str(p2)], "check": "scatter", "moment": moment,
             "sweep": False, "err_ceiling": 1e-10},
        ]
        return cmds, {p1: json.dumps(square), p2: json.dumps(least_squares)}
    if name == "green_refine":
        cmds = [{"argv": ["green-eval", "--refine", "--beta", "1"], "check": "green_refine"}]
        for t, x in green_points(seed):
            cmds.append({"argv": ["green-eval", "--t", repr(t), "--x", ",".join(map(repr, x)), "--beta", "1"],
                         "check": "green_point", "t": t, "x": x})
        return cmds, {}
    if name == "check_all":
        return [{"argv": ["check", "all", "--seed", str(seed)], "check": "check"}], {}
    raise KeyError(name)
