"""One workload in a fresh process: its set-up, or its measured passes.

    python3 perfbench/child.py setup --workload W --seed S --workdir DIR
    python3 perfbench/child.py measure --workload W --seed S --workdir DIR \
        --seconds T --trace 0|1 --trace-file FILE

``setup`` writes the workload's instance files and exits; run.py times the
whole process, interpreter start included. ``measure`` runs passes over the
workload's commands until ``--seconds`` have passed (at least MIN_PASSES),
checks the outputs and prints one JSON line with the results. Every command
is timed between two runs of its workload's reference work (calibrate.py),
and its time is rescaled to the reference speed. With ``--trace 1`` even passes are traced
and odd passes are not, so the same run also gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import upsetkit  # noqa: E402
from upsetkit import cli  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


def percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with pct% of the samples at or below it."""
    return sorted_values[-(-len(sorted_values) * pct // 100) - 1]


def run_pass(cmds, reference: str, tracer=None) -> tuple[list[float], list[tuple[int, str, str]], list[float]]:
    """Run every command once, each with cold caches; returns each command's
    latency in seconds at the reference speed, its (exit code, stdout,
    stderr), and its factor to the reference speed. The reference work runs
    between commands, so each command is timed between the two runs next
    to it."""
    latencies, outputs, factors = [], [], []
    before = calibrate.time_reference(reference)
    for i, cmd in enumerate(cmds):
        upsetkit.clear_caches()
        if tracer is not None:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(cmd.argv))
            except Exception:  # a crash is a failed command, not a failed benchmark
                rc = -1
                traceback.print_exc()
        seconds = time.perf_counter() - t0
        after = calibrate.time_reference(reference)
        factors.append(calibrate.factor(before, after))
        latencies.append(seconds * factors[-1])
        before = after
        outputs.append((rc, out.getvalue(), err.getvalue()))
    return latencies, outputs, factors


def measure(args) -> dict:
    import checks

    workdir = Path(args.workdir)
    cmds = workloads.commands(args.workload, args.seed, workdir)
    reference = workloads.REFERENCE[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        before = calibrate.time_reference(reference)
        tracer.begin_pass()
        workloads.setup(args.workload, args.seed, workdir)
        setup_layers = tracer.end_pass("setup", {-1: calibrate.factor(before, calibrate.time_reference(reference))})

    first = None
    mismatches = [0] * len(cmds)
    # Each command's latencies over the run's passes, for untraced and traced
    # passes. A command's latency is the median of its own.
    samples = {False: [[] for _ in cmds], True: [[] for _ in cmds]}
    layer_passes = []
    deadline = time.perf_counter() + args.seconds
    n = 0
    while n < MIN_PASSES or time.perf_counter() < deadline:
        traced = tracer is not None and n % 2 == 0
        if traced:
            tracer.begin_pass()
        latencies, outputs, factors = run_pass(cmds, reference, tracer if traced else None)
        if traced:
            layer_passes.append(tracer.end_pass(f"pass {n}", dict(enumerate(factors))))
        for own, latency in zip(samples[traced], latencies):
            own.append(latency)
        if first is None:
            first = outputs
        else:
            for i, (a, b) in enumerate(zip(first, outputs)):
                mismatches[i] += a != b
        n += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = checks.check_pass(args.workload, args.seed, cmds, first)
    # An output equal to the first pass's has its verdict; any other output failed.
    failed = sum(bool(f) * (n - m) + m for f, m in zip(failures, mismatches))
    for i, m in enumerate(mismatches):
        if m:
            failures[i].append(f"output differs from the first pass in {m} passes")
    result = {
        "attempted": n * len(cmds),
        "failed": failed,
        "failures": {c.label: f[:5] for c, f in zip(cmds, failures) if f},
        "passes": n,
        "commands": len(cmds),
    }
    per_command = {traced: sorted(map(statistics.median, s)) for traced, s in samples.items() if s[0]}
    if tracer is None:
        per_command = per_command[False]
        result["metrics"] = {
            "wall_s": sum(per_command),
            "instance_ms.p50": 1e3 * percentile(per_command, 50),
            "instance_ms.p95": 1e3 * percentile(per_command, 95),
            "peak_rss_mb": peak_rss_mb,
            "exact_fields": sum(checks.exact_fields(c, rc, out) for c, (rc, out, _) in zip(cmds, first)),
        }
    else:
        layers = tracing.combine(setup_layers, layer_passes)
        layers["trace.wall_s"] = sum(per_command[True])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - sum(per_command[False])
        result["metrics"] = layers
        tracer.write(Path(args.trace_file))
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    if args.mode == "measure" and args.seconds is None:
        parser.error("measure needs --seconds")
    if args.mode == "setup":
        workloads.setup(args.workload, args.seed, Path(args.workdir))
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
