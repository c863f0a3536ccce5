"""Family sweeps and finite-n trend diagnostics.

Asymptotic statements cannot be verified at finite n. Everything here is
framed as "holds from N on over the observed range" or "consistent with
the trend": an explicit finite-sample diagnostic, never a limit claim.
Each row projects the instance's ``bounds.verify_instance`` report: the
fields named in ``REPORT_FIELDS`` are copied from it, so a field is absent
(None) when its exact computation is past a cap, and the row's error is
the report's reason; nothing is extrapolated or fabricated. The row adds
q * log(ell), in the variant's log base (``BoundVariant.log``), and one
sigma flag per t, read from the report's ``sigma_top``. A row whose
instance cannot be built holds only n and the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
# the fields a row copies from its instance's report, in CSV order
REPORT_FIELDS = ("min_count", "ell0", "ell", "dim_unrestricted", "dim_within_family",
                 "q", "p_c", "bound_value", "width", "nontrivial_info")


@dataclass(frozen=True)
class SweepRecord:
    n: int
    min_count: int | None = None
    ell0: int | None = None
    ell: int | None = None
    dim_unrestricted: int | None = None
    dim_within_family: int | None = None
    q: float | None = None
    p_c: float | None = None
    bound_value: float | None = None
    width: float | None = None
    nontrivial_info: bool | None = None
    ratio_perfect: float | None = None
    sigma_empty_at: tuple[bool | None, ...] = ()
    error: str | None = None


def _instance_record(
    n: int, upper: UpperSet, variant: BoundVariant, t_max: int
) -> SweepRecord:
    report = verify_instance(upper, variant)
    m = report.min_count
    # The flag for t says whether sigma_{|F0|-t} is empty; for t >= |F0|
    # the index leaves the valid range and the flag is absent.
    sigma_flags = tuple(m - t > report.sigma_top if t < m else None for t in range(t_max + 1))
    return SweepRecord(
        n,
        **{f: getattr(report, f) for f in REPORT_FIELDS},
        ratio_perfect=None if report.q is None else report.q * variant.log(upper.ell),
        sigma_empty_at=sigma_flags,
        error=report.absent,
    )


def sweep(
    family: str,
    ns: Sequence[int],
    variant: BoundVariant,
    t_max: int = 2,
) -> list[SweepRecord]:
    """One record per n, computed independently; per-instance failures are
    recorded in the row and the sweep continues."""
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    records = []
    for n in ns:
        try:
            upper = make_family_instance(family, n)
        except UpsetError as exc:
            records.append(SweepRecord(n, error=str(exc)))
            continue
        records.append(_instance_record(n, upper, variant, t_max))
    return records


def records_to_csv(records: Sequence[SweepRecord], t_max: int) -> str:
    header = CSV_BASE_HEADER + "".join(f",sigma_empty_t{t}" for t in range(t_max + 1))
    lines = [header]
    for r in records:
        values = (r.n, *(getattr(r, f) for f in REPORT_FIELDS), r.ratio_perfect)
        cells = [fmt.csv_cell(v) for v in values]
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


def necessary_conditions_report(
    records: Sequence[SweepRecord],
    variant: BoundVariant,
) -> NecessaryConditionsReport:
    """Observed-range form of the necessary conditions for the bound to
    keep informing.

    For each t, reports the smallest observed N past which sigma_{|F0|-t}
    is empty on every later row (None when the range never settles). Also
    reports whether |F0| and the size of the smallest cover of any kind
    (the unrestricted dimension, over the rows that have it) grow strictly;
    the within-family dimension is |F0| itself, so the |F0| flag covers it.
    It flags rows claiming nontrivial information while the minimals still
    share a common element with K >= 2, which would contradict the theory
    and indicates a bug. A row with an absent q or p_c still counts: none
    of these needs them. Only rows whose instance was never built are left
    out.
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
    dims = [r.dim_unrestricted for r in rows if r.dim_unrestricted is not None]

    contradictions = tuple(
        r.n
        for r in rows
        if variant.K >= 2.0 and r.nontrivial_info and r.sigma_empty_at[0] is False
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
