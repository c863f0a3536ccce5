"""The three benchmark workloads: their input files and the CLI commands of one pass.

A pass runs every command of a workload once, in order, each through
``upsetkit.cli.main(argv)`` with caches cleared first. The workload seed only
changes the 160 random antichains of ``battery`` and the Monte Carlo seed of
``wide-ground``; the other inputs are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20240
WORKLOADS = ("battery", "graph-ladder", "wide-ground")
# The reference work each workload's times are rescaled by (calibrate.py):
# battery and graph-ladder run interpreted Python; wide-ground spends most of
# its time in numpy, on arrays of up to 2^20 rows.
REFERENCE = {"battery": "interpreter", "graph-ladder": "interpreter", "wide-ground": "arrays"}

# The random half of `verify --battery builtin`: seed + i replaces the
# battery's base seed, so DEFAULT_SEED reproduces the builtin battery.
RANDOM_COUNT = 160

GRAPH_SWEEPS = (
    ("connectivity", 3, 5),
    ("triangle", 3, 7),
    ("hamilton", 4, 6),
    ("star3", 4, 7),
    ("path2", 3, 8),
    ("matching2", 4, 7),
)
GRAPH_COMPUTES = (("connectivity", 4), ("hamilton", 6))
WIDE_SWEEP = ("principal", 1, 20)
WIDE_INSTANCE = ("triangle", 6)
MC_SAMPLES = 2_000_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its checks need to know about it."""

    label: str
    argv: tuple[str, ...]
    kind: str  # "verify", "sweep" or "compute"
    family: str = ""
    first: int = 0  # sweep range start, or the compute instance's n
    last: int = 0
    path: str = ""  # instance file, for verify and compute


def battery_instances(seed: int) -> list[tuple[str, object]]:
    """The 43 named builtin instances plus 160 random antichains from the
    builtin recipe with seeds ``seed + i``."""
    from upsetkit.families import builtin_battery, random_upper_set

    out = [(name, f) for name, f in builtin_battery() if not name.startswith("random-")]
    for i in range(RANDOM_COUNT):
        n = 4 + i % 9
        max_size = 2 + i % min(4, n - 2)
        count = 2 + (i * 7) % 9
        s = seed + i
        out.append((f"random-n{n}-c{count}-m{max_size}-s{s}", random_upper_set(n, count, max_size, s)))
    return out


def _instance_file(workdir: Path, family: str, n: int) -> Path:
    return workdir / f"{family}-{n}.json"


def setup(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's instance files into ``workdir``."""
    from upsetkit.families import make_family_instance

    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "battery":
        for name, upper in battery_instances(seed):
            (workdir / f"{name}.json").write_text(upper.to_instance_json())
    elif workload == "graph-ladder":
        for family, n in GRAPH_COMPUTES:
            _instance_file(workdir, family, n).write_text(make_family_instance(family, n).to_instance_json())
    elif workload == "wide-ground":
        family, n = WIDE_INSTANCE
        _instance_file(workdir, family, n).write_text(make_family_instance(family, n).to_instance_json())
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _sweep(family: str, a: int, b: int) -> Command:
    return Command(
        f"sweep {family} {a}..{b}",
        ("sweep", "--family", family, "--range", f"{a}..{b}"),
        "sweep", family, a, b,
    )


def commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The commands of one pass, in the order they run."""
    if workload == "battery":
        out = []
        for name, _ in battery_instances(seed):
            path = str(workdir / f"{name}.json")
            out.append(Command(name, ("verify", "--instance", path), "verify", path=path))
        return out
    if workload == "graph-ladder":
        out = [_sweep(*spec) for spec in GRAPH_SWEEPS]
        for family, n in GRAPH_COMPUTES:
            path = str(_instance_file(workdir, family, n))
            out.append(Command(f"compute {family}-{n}", ("compute", "--instance", path),
                               "compute", family, n, n, path))
        return out
    if workload == "wide-ground":
        family, n = WIDE_INSTANCE
        path = str(_instance_file(workdir, family, n))
        return [
            _sweep(*WIDE_SWEEP),
            Command(f"compute ie {family}-{n}", ("compute", "--method", "ie", "--instance", path),
                    "compute", family, n, n, path),
            Command(f"compute mc {family}-{n}",
                    ("compute", "--method", "mc", "--samples", str(MC_SAMPLES),
                     "--seed", str(seed), "--instance", path),
                    "compute", family, n, n, path),
        ]
    raise ValueError(f"unknown workload {workload!r}")
