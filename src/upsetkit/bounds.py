"""Threshold bound evaluation and single-instance inequality verification.

The central quantity is the bound K * q(F) * log(argument), where the
argument is either ell(F) or 2*ell0(F) depending on the variant, and the
logarithm base is configuration (base 2 by default; the universal constant
absorbs the base, and base 2 makes the ell = 2 floor contribute exactly 1).
``BoundVariant.log`` is the one log-base rule: the bound and the sweep's
q * log(ell) both take it. The bound "provides nontrivial information" when
its value is below 1, since the critical probability is below 1 for free.

The lattice symmetric polynomials enter through one number, t* (the
report's ``sigma_top``): the largest number of minimals through a single
element. sigma_k is empty exactly when k > t*, so the printed
``sigma_profile`` and the sweep's flags are both read from it.

verify_instance is the one per-instance pipeline: compute, verify and
sweep all read its report. It evaluates every inequality the quantities
must satisfy and reports each as (name, holds, slack) with slack =
rhs - lhs, so violations are directly diagnosable. Checks whose premise
fails carry slack None and hold vacuously.

A quantity past its exact cap is absent (None), never fabricated. q and
p_c are absent past their caps, and with q go the bound, its width and
the nontrivial flag; the report's ``absent`` holds the first of their cap
messages. The covering dimension is absent past its cap. A check that
needs an absent value is left out of the report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import measure, structure
from .core import UpperSet
from .errors import SizeLimitExceeded
from .expectation import ExpectationThreshold, expectation_threshold
from .measure import auto_exact_method
from .structure import DimensionResult, max_nonempty_sigma_index

ARGUMENTS = ("ell", "two_ell0")
LOG_BASES = ("2", "e")
# the checks' float allowance, and the largest |mu(p_c) - 1/2| accepted
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class BoundVariant:
    """One parameterization of the threshold upper bound."""

    K: float
    log_base: str = "2"
    argument: str = "two_ell0"

    def __post_init__(self):
        if not 0 < self.K < math.inf:
            raise ValueError(f"K must be positive and finite, got {self.K}")
        if self.log_base not in LOG_BASES:
            raise ValueError(f"log_base must be one of {LOG_BASES}, got {self.log_base!r}")
        if self.argument not in ARGUMENTS:
            raise ValueError(f"argument must be one of {ARGUMENTS}, got {self.argument!r}")

    @property
    def name(self) -> str:
        if self.argument == "ell":
            return "kk_log_ell"
        if self.K == 8.0 and self.log_base == "2":
            return "bell_8_log_2ell0"
        if self.K == 4.5 and self.log_base == "2":
            return "park_vondrak_4p5"
        return "custom"

    def log(self, x: float) -> float:
        return math.log2(x) if self.log_base == "2" else math.log(x)

    def log_argument(self, upper: UpperSet) -> float:
        return self.log(upper.ell if self.argument == "ell" else 2 * upper.ell0)


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    holds: bool
    slack: float | None


@dataclass(frozen=True)
class BoundReport:
    variant: BoundVariant
    ground_size: int
    min_count: int
    q: float | None
    p_c: float | None
    ell0: int
    ell: int
    dim_unrestricted: int | None
    dim_within_family: int
    bound_value: float | None
    width: float | None
    nontrivial_info: bool | None
    sigma_top: int
    inequality_checks: tuple[InequalityCheck, ...]
    # Not printed: what the numbers above came from, and why any is absent.
    threshold: ExpectationThreshold | None
    critical: measure.CriticalProbability | None
    dimension: DimensionResult | None
    absent: str | None

    def to_json_dict(self) -> dict:
        return {
            "variant": {"name": self.variant.name, **asdict(self.variant)},
            "ground_size": self.ground_size,
            "min_count": self.min_count,
            "q": self.q,
            "p_c": self.p_c,
            "ell0": self.ell0,
            "ell": self.ell,
            "dim_unrestricted": self.dim_unrestricted,
            "dim_within_family": self.dim_within_family,
            "bound_value": self.bound_value,
            "width": self.width,
            "nontrivial_info": self.nontrivial_info,
            "sigma_profile": [[k, k > self.sigma_top] for k in range(1, self.min_count + 1)],
            "inequality_checks": [asdict(c) for c in self.inequality_checks],
        }


def verify_instance(
    upper: UpperSet,
    variant: BoundVariant,
    method: str | None = None,
) -> BoundReport:
    """Compute every report quantity and check every applicable inequality.

    A cap met by q or p_c leaves that value, and every value and check
    built on it, as None or out of the report; the first such cap's message
    is the report's ``absent``. Past the dimension cap (a ground set past
    ``measure.AUTO_ENUMERATION_CAP`` with more minimals than the cover
    search takes) the unrestricted dimension is None and its checks are left
    out; the within_family dimension, |F0|, has no cap. Nothing is
    fabricated. Every check allows ``CHECK_TOL`` (scaled as below) for
    float rounding.
    """
    absent = None
    threshold = q = None
    try:
        threshold = expectation_threshold(upper)
        q = threshold.q
    except SizeLimitExceeded as exc:
        absent = str(exc)
    critical = p_c = None
    try:
        critical = measure.critical_probability(upper, CHECK_TOL, method or auto_exact_method(upper))
        p_c = critical.p_c
    except SizeLimitExceeded as exc:
        absent = absent or str(exc)
    dimension = dim_u = None
    try:
        dimension = structure.covering_dimension(upper)
        dim_u = dimension.dim
    except SizeLimitExceeded:
        pass

    m = len(upper.minimal_bits)
    t = max_nonempty_sigma_index(upper)
    log_arg = variant.log_argument(upper)
    bound_value = width = nontrivial = None
    if q is not None:
        bound_value = variant.K * q * log_arg
        width = bound_value - q
        nontrivial = bound_value < 1.0

    checks: list[InequalityCheck] = []

    def add(name: str, lhs: float | None, rhs: float | None, atol: float,
            premise: bool = True) -> None:
        if lhs is None or rhs is None:
            return
        slack = rhs - lhs if premise else None
        checks.append(InequalityCheck(name, not premise or slack >= -atol, slack))

    # Sandwich: q <= p_c <= bound. p_c is the root of mu = 1/2 to float
    # resolution and q is certified, so 2 * CHECK_TOL only absorbs rounding.
    add("sandwich_left_q_le_pc", q, p_c, 2 * CHECK_TOL)
    add("sandwich_right_pc_le_bound", p_c, bound_value, 2 * CHECK_TOL * max(1.0, variant.K * log_arg))

    if dim_u is not None:
        lo, hi = (2.0 * dim_u) ** -1.0, (2.0 * dim_u) ** (-1.0 / upper.ell)
        add("q_ge_inverse_2dim", lo, q, CHECK_TOL)
        add("q_le_inverse_2dim_root_ell", q, hi, CHECK_TOL)
        add("dim_le_min_count_plus_1_minus_t", float(dim_u), float(m + 1 - t), 0.0)
        # For every k with sigma_k nonempty, dim <= |F0| - k + 1; the
        # tightest case is k = t, so one slack covers all of them.
        add("dim_vs_sigma_all_k", float(dim_u), float(m + 1 - t), 0.0)

    intersection_nonempty = t == m  # some element lies in every minimal
    add("nonempty_intersection_forces_bound_ge_1", 1.0, bound_value, 2 * CHECK_TOL * variant.K,
        premise=intersection_nonempty and variant.K >= 2.0)
    if dim_u is not None:
        premise = dim_u > 0.5 * (variant.K * log_arg) ** upper.ell
        add("large_dim_forces_nontrivial_info", bound_value, 1.0, 0.0, premise)

    return BoundReport(
        variant=variant,
        ground_size=upper.ground_size,
        min_count=m,
        q=q,
        p_c=p_c,
        ell0=upper.ell0,
        ell=upper.ell,
        dim_unrestricted=dim_u,
        dim_within_family=m,
        bound_value=bound_value,
        width=width,
        nontrivial_info=nontrivial,
        sigma_top=t,
        inequality_checks=tuple(checks),
        threshold=threshold,
        critical=critical,
        dimension=dimension,
        absent=absent,
    )
