"""Write perfbench/reference.json from the current program's outputs.

    python3 perfbench/make_reference.py

Runs every workload's commands once at the default seed and stores what
they print: the check rows of the 43 named battery instances (the random
ones change with the seed and are checked by definition), and stdout and
stderr of every sweep and compute command. Run it only on a commit whose
outputs are known to be right; the benchmark compares later outputs to it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import workloads  # noqa: E402
from child import run_pass  # noqa: E402
from checks import REFERENCE_PATH  # noqa: E402


def main() -> None:
    reference = {}
    workdir = HERE / "out" / "reference"
    try:
        for workload in workloads.WORKLOADS:
            workloads.setup(workload, workloads.DEFAULT_SEED, workdir)
            cmds = workloads.commands(workload, workloads.DEFAULT_SEED, workdir)
            _, outputs = run_pass(cmds)
            entries = {}
            for cmd, (rc, out, err) in zip(cmds, outputs):
                if rc != 0:
                    raise SystemExit(f"{cmd.label}: exit code {rc}\n{err}")
                if cmd.kind == "verify":
                    if not cmd.label.startswith("random-"):
                        rows = [line.split(",")[1:] for line in out.splitlines()[1:]]
                        entries[cmd.label] = [
                            [check, holds == "true", float(slack) if slack else None]
                            for check, holds, slack in rows
                        ]
                else:
                    entries[cmd.label] = {"stdout": out, "stderr": err}
            reference[workload] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = []
    for workload, entries in reference.items():
        body = ",\n".join(f"  {json.dumps(label)}: {json.dumps(entry)}" for label, entry in entries.items())
        lines.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one line per command


if __name__ == "__main__":
    main()
