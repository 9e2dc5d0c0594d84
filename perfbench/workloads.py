"""The four benchmark workloads and the inputs a seed selects for them.

Every workload is a closed loop of ``zenoprop`` CLI invocations made
in-process, one after another: the next invocation starts when the previous
one has returned.  The seed only picks the particle mass ``m`` and the
projection spacing ``eps``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Each pair keeps eps/m a power of four, so sqrt(eps/m) is a power of two and
# every rescaling inside the program is exact: the slice grid, the
# crossing-term size and the walk size are the same for every seed, and the
# dimensionless columns reproduce the m = eps = 1 tables.
SEED_PAIRS = (
    (1.0, 1.0),
    (4.0, 1.0),
    (1.0, 4.0),
    (4.0, 0.25),
    (0.25, 1.0),
    (16.0, 4.0),
)

REFERENCE_PAIR = (1.0, 1.0)

WALK_TAU_OVER_EPS = 8
WALK_LEVELS = 6


@dataclass(frozen=True)
class Invocation:
    """One CLI call: the subcommand and its options, without ``--out``."""

    command: str
    options: tuple[tuple[str, float | int], ...]

    def option(self, name: str) -> float | int:
        return dict(self.options)[name]

    def argv(self, out: str) -> list[str]:
        args = [self.command]
        for name, value in self.options:
            args += [f"--{name}", repr(value)]
        return args + ["--out", out]


def seed_pair(seed: int) -> tuple[float, float]:
    """The (m, eps) pair that ``seed`` selects."""
    return random.Random(seed).choice(SEED_PAIRS)


def _fp(m: float, eps: float, n_max: int, samples: int) -> Invocation:
    return Invocation(
        "fp", (("m", m), ("eps", eps), ("n-max", n_max), ("samples-per-interval", samples))
    )


def invocations(workload: str, m: float, eps: float) -> list[Invocation]:
    """The CLI calls that make one pass of ``workload``."""
    if workload == "fp20":
        return [_fp(m, eps, 20, 16)]
    if workload == "fp3_dense":
        return [_fp(m, eps, 3, 4096)]
    if workload == "pdx_scan":
        # pdx accepts --eps but scans its own eps values, so only m varies
        return [Invocation("pdx", (("m", m),))]
    if workload == "walks":
        common = (("m", m), ("eps", eps))
        return [
            Invocation(
                "lattice", common + (("tau", WALK_TAU_OVER_EPS * eps), ("levels", WALK_LEVELS))
            ),
            Invocation("exact", common),
            Invocation("fv", common),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


WORKLOADS = ("fp20", "fp3_dense", "pdx_scan", "walks")
