"""Family sweeps and finite-n trend diagnostics.

Asymptotic statements cannot be verified at finite n. Everything here is
framed as "holds from N on over the observed range" or "consistent with
the trend": an explicit finite-sample diagnostic, never a limit claim.
Each row projects the instance's ``bounds.verify_instance`` report, so a
field is absent (None) when its exact computation is past a cap, and the
row's error is the report's reason; nothing is extrapolated or fabricated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import fmt
from .bounds import BoundVariant, verify_instance
from .core import UpperSet
from .errors import EmptyInput, TooFewRecords, UpsetError
from .families import make_family_instance

CSV_BASE_HEADER = (
    "n,min_count,ell0,ell,dim_u,dim_f,q,p_c,bound,width,nontrivial,ratio"
)
# the trailing share of usable rows a perfect-information trend must fall over
TREND_WINDOW_FRACTION = 0.5


@dataclass(frozen=True)
class SweepRecord:
    n: int
    min_count: int | None
    ell0: int | None
    ell: int | None
    dim_unrestricted: int | None
    dim_within_family: int | None
    q: float | None
    p_c: float | None
    bound_value: float | None
    width: float | None
    nontrivial_info: bool | None
    ratio_perfect: float | None
    sigma_empty_at: tuple[bool | None, ...]
    error: str | None = None


def _instance_record(
    n: int, upper: UpperSet, variant: BoundVariant, t_max: int, tol: float
) -> SweepRecord:
    report = verify_instance(upper, variant, tol)
    m = report.min_count
    # The flag for t is the profile's entry for sigma_{|F0|-t}; for
    # t >= |F0| the index leaves the valid range and the flag is absent.
    empty = dict(report.sigma_profile)
    sigma_flags = tuple(empty.get(m - t) for t in range(t_max + 1))
    ratio = None
    if report.q is not None:
        log_ell = math.log2(upper.ell) if variant.log_base == "2" else math.log(upper.ell)
        ratio = report.q * log_ell
    return SweepRecord(
        n=n,
        min_count=m,
        ell0=report.ell0,
        ell=report.ell,
        dim_unrestricted=report.dim_unrestricted,
        dim_within_family=report.dim_within_family,
        q=report.q,
        p_c=report.p_c,
        bound_value=report.bound_value,
        width=report.width,
        nontrivial_info=report.nontrivial_info,
        ratio_perfect=ratio,
        sigma_empty_at=sigma_flags,
        error=report.absent,
    )


def sweep(
    family: str | Callable[[int], UpperSet],
    ns: Sequence[int],
    variant: BoundVariant,
    t_max: int = 2,
    tol: float = 1e-9,
) -> list[SweepRecord]:
    """One record per n, computed independently; per-instance failures are
    recorded in the row and the sweep continues."""
    gen = family if callable(family) else (lambda n: make_family_instance(family, n))
    records = []
    for n in ns:
        try:
            upper = gen(n)
        except UpsetError as exc:
            records.append(
                SweepRecord(n, None, None, None, None, None, None, None, None,
                            None, None, None, tuple([None] * (t_max + 1)), str(exc))
            )
            continue
        records.append(_instance_record(n, upper, variant, t_max, tol))
    return records


def records_to_csv(records: Sequence[SweepRecord], t_max: int) -> str:
    header = CSV_BASE_HEADER + "".join(f",sigma_empty_t{t}" for t in range(t_max + 1))
    lines = [header]
    for r in records:
        cells = [
            fmt.csv_cell(v)
            for v in (
                r.n, r.min_count, r.ell0, r.ell, r.dim_unrestricted,
                r.dim_within_family, r.q, r.p_c, r.bound_value, r.width,
                r.nontrivial_info, r.ratio_perfect,
            )
        ]
        flags = list(r.sigma_empty_at) + [None] * (t_max + 1 - len(r.sigma_empty_at))
        cells.extend(fmt.csv_cell(v) for v in flags[: t_max + 1])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NecessaryConditionsReport:
    sigma_empty_from: tuple[int | None, ...]
    min_count_strictly_increasing: bool | None
    dim_strictly_increasing: bool | None
    contradiction_rows: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "sigma_empty_from": list(self.sigma_empty_from),
            "min_count_strictly_increasing": self.min_count_strictly_increasing,
            "dim_strictly_increasing": self.dim_strictly_increasing,
            "contradiction_rows": list(self.contradiction_rows),
        }


def necessary_conditions_report(
    records: Sequence[SweepRecord],
    variant: BoundVariant | None = None,
    dim_convention: str = "unrestricted",
) -> NecessaryConditionsReport:
    """Observed-range form of the necessary conditions for the bound to
    keep informing.

    For each t, reports the smallest observed N past which sigma_{|F0|-t}
    is empty on every later row (None when the range never settles). Also
    reports whether |F0| and dim (under ``dim_convention``) grow strictly,
    and flags rows claiming nontrivial information while the minimals
    still share a common element with K >= 2, which would contradict the
    theory and indicates a bug. A row with an absent q or p_c still counts:
    none of these needs them. Only rows whose instance was never built are
    left out.
    """
    rows = [r for r in records if r.min_count is not None]
    if not rows:
        raise EmptyInput("no usable records")
    if any(b.n <= a.n for a, b in zip(rows, rows[1:])):
        raise ValueError("records must be sorted by strictly increasing n")
    t_max = min(len(r.sigma_empty_at) for r in rows) - 1

    sigma_from: list[int | None] = []
    for t in range(t_max + 1):
        threshold_n: int | None = None
        for r in rows:
            flag = r.sigma_empty_at[t]
            if flag is None or not flag:
                threshold_n = None
            elif threshold_n is None:
                threshold_n = r.n
        sigma_from.append(threshold_n)

    def strictly_increasing(values: list[int]) -> bool | None:
        if len(values) < 2:
            return None
        return all(b > a for a, b in zip(values, values[1:]))

    min_counts = [r.min_count for r in rows]
    pick = (
        (lambda r: r.dim_unrestricted)
        if dim_convention == "unrestricted"
        else (lambda r: r.dim_within_family)
    )
    dims = [pick(r) for r in rows if pick(r) is not None]

    check_k = variant is None or variant.K >= 2.0
    contradictions = tuple(
        r.n
        for r in rows
        if check_k and r.nontrivial_info and r.sigma_empty_at[0] is False
    )
    return NecessaryConditionsReport(
        sigma_empty_from=tuple(sigma_from),
        min_count_strictly_increasing=strictly_increasing(min_counts),
        dim_strictly_increasing=strictly_increasing(dims),
        contradiction_rows=contradictions,
    )


DIAGNOSTIC_NOTE = "finite-sample diagnostic over the observed range, not an asymptotic proof"


@dataclass(frozen=True)
class Classification:
    kind: str  # "nontrivial_from_N" | "perfect_trend" | "inconclusive"
    N: int | None
    never_nontrivial: bool
    note: str = DIAGNOSTIC_NOTE

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "N": self.N,
            "never_nontrivial": self.never_nontrivial,
            "note": self.note,
        }


def information_classification(records: Sequence[SweepRecord]) -> Classification:
    """Classify a sweep: bound informative from some observed N on, with a
    perfect-information trend when q*log(ell) also keeps falling over the
    trailing window."""
    rows = [r for r in records if r.bound_value is not None]
    if len(rows) < 3:
        raise TooFewRecords(f"need >= 3 usable records, got {len(rows)}")
    flags = [r.nontrivial_info for r in rows]
    never = not any(flags)
    start: int | None = None
    for r, flag in zip(rows, flags):
        if flag:
            if start is None:
                start = r.n
        else:
            start = None
    if start is None:
        return Classification("inconclusive", None, never)
    window = max(2, math.ceil(len(rows) * TREND_WINDOW_FRACTION))
    tail = [r.ratio_perfect for r in rows[-window:]]
    if all(b < a for a, b in zip(tail, tail[1:])):
        return Classification("perfect_trend", start, never)
    return Classification("nontrivial_from_N", start, never)
