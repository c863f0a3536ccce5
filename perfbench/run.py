"""Benchmark of the upsetkit CLI: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload battery|graph-ladder|wide-ground|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh single-threaded child process that drives
``upsetkit.cli.main(argv)`` in-process, clearing the library's caches before
every command. Times are rescaled to a fixed machine speed (calibrate.py).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; one line per metric, then one JSON object
as the last line of stdout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS  # noqa: E402

# Set-ups per run, half before and half after the measured passes, so the
# median samples the machine at two moments 30 s apart.
SETUP_REPEATS = 10
TIME_LIMIT_S = 170  # per workload; the whole run must end within 180 s
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "instance_ms.p50": "ms", "instance_ms.p95": "ms",
    "peak_rss_mb": "MB", "exact_fields": "count",
}
# One thread for numpy's backends, so a workload uses one core as the CLI does.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child(mode: str, workload: str, seed: int, workdir: Path, *extra: str, timeout: float):
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *extra]
    return subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True,
                          text=True, timeout=timeout, check=False)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    out_dir = HERE / "out"
    workdir = out_dir / f"{workload}-s{seed}-{os.getpid()}"
    trace_file = out_dir / f"trace-{workload}-s{seed}.json"
    deadline = time.monotonic() + TIME_LIMIT_S
    setup_times = []
    reference = REFERENCE[workload]

    def set_up(times: int) -> None:
        for _ in range(times):
            before = calibrate.time_reference(reference)
            t0 = time.perf_counter()
            proc = _child("setup", workload, seed, workdir, timeout=deadline - time.monotonic())
            seconds = time.perf_counter() - t0
            setup_times.append(seconds * calibrate.factor(before, calibrate.time_reference(reference)))
            if proc.returncode != 0:
                raise RuntimeError(f"{workload} set-up failed:\n{proc.stderr}")

    try:
        # Set-up runs several times in fresh processes; every one writes the
        # same files, the inputs. The traced child sets up in-process, under
        # its tracer.
        set_up(0 if trace else SETUP_REPEATS // 2)
        proc = _child("measure", workload, seed, workdir, "--seconds", str(seconds),
                      "--trace", str(int(trace)), "--trace-file", str(trace_file),
                      timeout=deadline - time.monotonic())
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"{workload} measurement failed with exit code {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        set_up(0 if trace else SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        result["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        result["metrics"]["setup_s"] = statistics.median(setup_times)
    return result


def report(workload: str, result: dict, trace: bool) -> dict[str, dict]:
    """Print one line per metric; returns the metrics with their units."""
    print(f"{workload}: {result['passes']} passes of {result['commands']} commands")
    printed_only = ()
    if trace:
        import tracing

        units, printed_only = tracing.UNITS, tracing.PRINTED_ONLY
        notes = {name: "printed only: 0 on workloads that skip this layer" for name in printed_only}
        notes["trace.overhead_s"] = "printed only: traced minus untraced wall_s, machine drift included"
        notes["trace.wall_s"] = f"median traced latencies, summed; spans in {result['trace_file']}"
    else:
        units = END_TO_END_UNITS
        count = result["commands"]
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} set-ups, half before and half after the passes",
            "wall_s": f"sum over {count} commands, each at its median of {result['passes']} passes",
            "instance_ms.p50": f"over {count} commands, each at its median",
            "instance_ms.p95": f"{count} samples, {count - -(-count * 95 // 100)} beyond",
        }
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"][name]
        if name not in printed_only:
            metrics[name] = {"value": value, "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_ratio':<40} {ratio:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} commands failed)")
    for label, reasons in result["failures"].items():
        print(f"  FAILED {label}: {'; '.join(reasons)}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measuring time per workload (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/upsetkit/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an upsetkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        for name, value in report(workload, result, bool(args.trace)).items():
            metrics[name if len(names) == 1 else f"{workload}:{name}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
