"""Command-line interface.

Commands:
  compute  full bound report for one instance (JSON on stdout)
  sweep    family sweep as CSV on stdout plus a JSON summary line
  verify   per-check table for instances or the builtin battery
  family   emit a generated instance in the JSON instance format

Exit codes: 0 success (verify: all checks hold), 1 verify found a violated
inequality, 2 parse or validation error, 3 exact-computation cap exceeded.
All numeric output is formatted to 12 significant digits; identical
invocations produce byte-identical output.

The parser is built on the first ``main`` call and reused by every later
call in the process. Besides the memo caches that
``upsetkit.clear_caches()`` resets, it and the enumeration profile's slice
mask tables (``measure._slice_masks``) are the state kept across calls.
Neither holds instance data or results: each call parses into a fresh
namespace, and help text is laid out when it is printed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from typing import Sequence

from . import bounds, fmt
from .bounds import BoundVariant, verify_instance
from .core import Cover, UpperSet, parse_instance
from .errors import MissingMcParams, SizeLimitExceeded, TooFewRecords, UpsetError
from .families import FAMILIES, builtin_battery, make_family_instance
from .measure import auto_exact_method, mu
from .sweep import (
    information_classification,
    necessary_conditions_report,
    records_to_csv,
    sweep,
)
from .structure import minimal_sigma_sequence

PARSE_ERROR, CAP_ERROR = 2, 3


def _parse_range(text: str) -> tuple[int, int]:
    try:
        a, b = (int(end) for end in text.split(".."))
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like A..B, got {text!r}")
    if a > b:
        raise argparse.ArgumentTypeError(f"range A..B needs A <= B, got {text!r}")
    return a, b


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upsetkit",
        description="Threshold bounds for monotone properties of small ground sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_variant_flags(p):
        p.add_argument("--K", type=float, default=8.0, help="bound constant (default 8)")
        p.add_argument("--log-base", choices=bounds.LOG_BASES, default="2")
        p.add_argument("--arg", choices=("ell", "2ell0"), default="2ell0",
                       help="logarithm argument: ell or 2*ell0")

    def add_source_flags(p, battery=False):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--instance", help="path to a JSON instance file")
        source.add_argument("--family", choices=sorted(FAMILIES))
        p.add_argument("--range", type=_parse_range, metavar="A..B")
        if battery:
            source.add_argument("--battery", choices=("builtin",))
            p.add_argument("--limit", type=int,
                           help="verify only the first N battery instances (0 = all)")

    p_compute = sub.add_parser("compute", help="bound report for one instance")
    add_source_flags(p_compute)
    add_variant_flags(p_compute)
    p_compute.add_argument("--method", choices=("enum", "ie", "mc", "auto"), default="auto")
    p_compute.add_argument("--samples", type=int)
    p_compute.add_argument("--seed", type=int)

    p_sweep = sub.add_parser("sweep", help="family sweep as CSV")
    p_sweep.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_sweep.add_argument("--range", type=_parse_range, required=True, metavar="A..B")
    add_variant_flags(p_sweep)
    p_sweep.add_argument("--t-max", type=int, default=2)
    p_sweep.add_argument("--summary", help="write the JSON summary line here instead of stderr")

    p_verify = sub.add_parser("verify", help="check all inequalities")
    add_source_flags(p_verify, battery=True)
    add_variant_flags(p_verify)
    p_verify.add_argument("--format", choices=("csv", "json"), default="csv")

    p_family = sub.add_parser("family", help="emit a generated instance as JSON")
    p_family.add_argument("name", choices=sorted(FAMILIES))
    p_family.add_argument("--n", type=int, required=True)

    return parser


def _variant(args) -> BoundVariant:
    argument = "ell" if args.arg == "ell" else "two_ell0"
    return BoundVariant(K=args.K, log_base=args.log_base, argument=argument)


def _load_instances(args) -> list[tuple[str, UpperSet]]:
    """The instances named by exactly one of --instance, --family and
    --battery (the parser's required group)."""
    if args.range and not args.family:
        raise ValueError("--range needs --family")
    battery = getattr(args, "battery", None)
    if getattr(args, "limit", None) is not None and not battery:
        raise ValueError("--limit needs --battery")
    if battery:
        if args.limit is not None and args.limit < 0:
            raise ValueError(f"--limit must be >= 0, got {args.limit}")
        return builtin_battery()[: args.limit or None]
    if args.instance:
        with open(args.instance, "r", encoding="utf-8") as fh:
            return [(args.instance, parse_instance(fh.read()))]
    if not args.range:
        raise ValueError("--family needs --range A..B")
    a, b = args.range
    return [
        (f"{args.family}-n{n}", make_family_instance(args.family, n))
        for n in range(a, b + 1)
    ]


def cmd_compute(args) -> int:
    mc_check = args.method == "mc"
    if not mc_check and (args.samples is not None or args.seed is not None):
        raise ValueError("--samples and --seed need --method mc")
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    instances = _load_instances(args)
    variant = _variant(args)
    method = {"enum": "enumeration", "ie": "inclusion_exclusion", "auto": None}.get(
        args.method
    )
    if mc_check and (args.samples is None or args.seed is None):
        raise MissingMcParams("--method mc needs --samples and --seed")
    for _, upper in instances:
        report = verify_instance(upper, variant, method)
        if report.absent:
            raise SizeLimitExceeded(report.absent)
        doc = report.to_json_dict()
        if mc_check:
            est = mu(upper, report.p_c, "monte_carlo", samples=args.samples, seed=args.seed)
            doc["mu_monte_carlo_at_p_c"] = {
                "value": est.value,
                "std_error": est.std_error,
                "samples": args.samples,
                "seed": args.seed,
            }
        print(fmt.dumps(doc))
    return 0


def cmd_sweep(args) -> int:
    a, b = args.range
    variant = _variant(args)
    records = sweep(args.family, range(a, b + 1), variant, args.t_max)
    sys.stdout.write(records_to_csv(records, args.t_max))
    summary: dict = {"family": args.family, "range": [a, b]}
    try:
        summary["classification"] = asdict(information_classification(records))
    except TooFewRecords as exc:
        summary["classification"] = None
        summary["classification_error"] = str(exc)
    try:
        summary["necessary_conditions"] = asdict(necessary_conditions_report(records, variant))
    except UpsetError as exc:
        summary["necessary_conditions"] = None
        summary["necessary_conditions_error"] = str(exc)
    line = fmt.dumps(summary)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    else:
        print(line, file=sys.stderr)
    return 0


def _instance_checks(name: str, upper: UpperSet, variant: BoundVariant):
    """Report rows plus cheap module-invariant re-checks for one instance."""
    rows = []
    report = verify_instance(upper, variant)
    if report.absent:
        raise SizeLimitExceeded(report.absent)
    for check in report.inequality_checks:
        rows.append((name, check.name, check.holds, check.slack))

    witness = report.threshold.witness_cover
    witness_cost = witness.cost(report.threshold.q)
    rows.append((name, "q_witness_covers", witness.covers(upper), None))
    rows.append((name, "q_witness_cost_le_half", witness_cost <= 0.5, 0.5 - witness_cost))

    residual, tol = report.critical.residual, bounds.CHECK_TOL
    rows.append((name, "pc_residual_le_tol", residual <= tol, tol - residual))

    method = auto_exact_method(upper)
    lo = mu(upper, 0.0, method).value
    hi = mu(upper, 1.0, method).value
    rows.append((name, "mu_boundaries", lo == 0.0 and hi == 1.0, None))

    if upper.ground_size <= 12 and len(upper.minimal_bits) <= 10:
        gap = abs(
            mu(upper, 0.3, "enumeration").value
            - mu(upper, 0.3, "inclusion_exclusion").value
        )
        rows.append((name, "mu_method_agreement", gap <= 1e-12, 1e-12 - gap))

    dim = report.dimension
    if dim is not None:
        ok = dim.witness.covers(upper) and len(dim.witness) == dim.dim
        rows.append((name, "dim_witness_unrestricted", ok, None))
    # restricted to members of F, the witnesses are the minimal elements
    witness = Cover.from_masks(upper.ground_size, upper.minimal_bits)
    ok = witness.covers(upper) and len(witness) == report.dim_within_family
    rows.append((name, "dim_witness_within_family", ok, None))

    sigmas = minimal_sigma_sequence(upper)
    monotone = all(b & a == b for a, b in zip(sigmas, sigmas[1:]))
    rows.append((name, "sigma_monotone", monotone, None))
    return rows


def cmd_verify(args) -> int:
    instances = _load_instances(args)
    variant = _variant(args)
    rows = []
    for name, upper in instances:
        rows.extend(_instance_checks(name, upper, variant))
    if args.format == "json":
        print(fmt.dumps([
            {"instance": i, "check": c, "holds": h, "slack": s} for i, c, h, s in rows
        ]))
    else:
        print("instance,check,holds,slack")
        for i, c, h, s in rows:
            print(f"{i},{c},{fmt.csv_cell(h)},{fmt.csv_cell(s)}")
    failed = [r for r in rows if not r[2]]
    print(
        f"checks: {len(rows)}  failed: {len(failed)}",
        file=sys.stderr,
    )
    return 1 if failed else 0


def cmd_family(args) -> int:
    upper = make_family_instance(args.name, args.n)
    print(upper.to_instance_json())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "compute": cmd_compute,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "family": cmd_family,
    }[args.command]
    try:
        return handler(args)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CAP_ERROR
    except (UpsetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
