"""Threshold bound evaluation and single-instance inequality verification.

The central quantity is the bound K * q(F) * log(argument), where the
argument is either ell(F) or 2*ell0(F) depending on the variant, and the
logarithm base is configuration (base 2 by default; the universal constant
absorbs the base, and base 2 makes the ell = 2 floor contribute exactly 1).
The bound "provides nontrivial information" when its value is below 1,
since the critical probability is below 1 for free.

verify_instance is the one per-instance pipeline: compute, verify and
sweep all read its report. It evaluates every inequality the quantities
must satisfy and reports each as (name, holds, slack) with slack =
rhs - lhs, so violations are directly diagnosable. Checks whose premise
fails carry slack None and hold vacuously.

A quantity past its exact cap is absent (None), never fabricated. q and
p_c are absent past their caps, and with q go the bound, its width and
the nontrivial flag; the report's ``absent`` holds the first of their cap
messages. The unrestricted dimension is absent past its cap. A check
that needs an absent value is left out of the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fmt, measure, structure
from .core import UpperSet
from .errors import SizeLimitExceeded
from .expectation import ExpectationThreshold, cached_q, expectation_threshold
from .measure import AUTO_ENUMERATION_CAP
from .structure import CONVENTIONS, DimensionResult, cached_dim, max_nonempty_sigma_index

AUTO_INCLUSION_EXCLUSION_CAP = 20

ARGUMENTS = ("ell", "two_ell0")
LOG_BASES = ("2", "e")


@dataclass(frozen=True)
class BoundVariant:
    """One parameterization of the threshold upper bound."""

    K: float
    log_base: str = "2"
    argument: str = "two_ell0"

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if self.log_base not in LOG_BASES:
            raise ValueError(f"log_base must be one of {LOG_BASES}, got {self.log_base!r}")
        if self.argument not in ARGUMENTS:
            raise ValueError(f"argument must be one of {ARGUMENTS}, got {self.argument!r}")

    @classmethod
    def bell(cls) -> "BoundVariant":
        return cls(K=8.0, log_base="2", argument="two_ell0")

    @classmethod
    def park_vondrak(cls) -> "BoundVariant":
        return cls(K=4.5, log_base="2", argument="two_ell0")

    @classmethod
    def kk(cls, K: float, log_base: str = "2") -> "BoundVariant":
        return cls(K=K, log_base=log_base, argument="ell")

    @property
    def name(self) -> str:
        if self.argument == "ell":
            return "kk_log_ell"
        if self.K == 8.0 and self.log_base == "2":
            return "bell_8_log_2ell0"
        if self.K == 4.5 and self.log_base == "2":
            return "park_vondrak_4p5"
        return "custom"

    def log_argument(self, upper: UpperSet) -> float:
        arg = upper.ell if self.argument == "ell" else 2 * upper.ell0
        return math.log2(arg) if self.log_base == "2" else math.log(arg)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "K": self.K,
            "log_base": self.log_base,
            "argument": self.argument,
        }


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    holds: bool
    slack: float | None

    def to_dict(self) -> dict:
        return {"name": self.name, "holds": self.holds, "slack": self.slack}


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
    dim_within_family: int | None
    bound_value: float | None
    width: float | None
    nontrivial_info: bool | None
    sigma_profile: tuple[tuple[int, bool], ...]
    inequality_checks: tuple[InequalityCheck, ...]
    # Not printed: what the numbers above came from, and why any is absent.
    threshold: ExpectationThreshold | None
    critical: measure.CriticalProbability | None
    dimensions: tuple[DimensionResult, ...]
    absent: str | None

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.inequality_checks)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant.to_dict(),
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
            "sigma_profile": [[k, empty] for k, empty in self.sigma_profile],
            "inequality_checks": [c.to_dict() for c in self.inequality_checks],
        }

    def to_json(self) -> str:
        return fmt.dumps(self.to_json_dict())


def auto_exact_method(upper: UpperSet) -> str:
    """Pick the exact measure engine: enumerate small grounds, otherwise
    inclusion-exclusion over few minimals."""
    if upper.ground_size <= AUTO_ENUMERATION_CAP:
        return "enumeration"
    if len(upper.minimals) <= AUTO_INCLUSION_EXCLUSION_CAP:
        return "inclusion_exclusion"
    raise SizeLimitExceeded(
        f"no exact method: ground_size {upper.ground_size} > {AUTO_ENUMERATION_CAP} "
        f"and |F0| {len(upper.minimals)} > {AUTO_INCLUSION_EXCLUSION_CAP}"
    )


def kk_bound(upper: UpperSet, variant: BoundVariant, tol: float = 1e-9) -> float:
    """K * q(F) * log(argument) for the given variant."""
    return variant.K * cached_q(upper, tol) * variant.log_argument(upper)


def provides_nontrivial_info(upper: UpperSet, variant: BoundVariant, tol: float = 1e-9) -> bool:
    """True when the bound value improves on the trivial bound p_c < 1."""
    return kk_bound(upper, variant, tol) < 1.0


def q_estimate_interval(upper: UpperSet) -> tuple[float, float]:
    """((2 dim)^-1, (2 dim)^(-1/ell)), the dimension-based sandwich for q."""
    dim = cached_dim(upper, "unrestricted")
    return ((2.0 * dim) ** -1.0, (2.0 * dim) ** (-1.0 / upper.ell))


def verify_instance(
    upper: UpperSet,
    variant: BoundVariant,
    tol: float = 1e-9,
    method: str | None = None,
) -> BoundReport:
    """Compute every report quantity and check every applicable inequality.

    A cap met by q or p_c leaves that value, and every value and check
    built on it, as None or out of the report; the first such cap's message
    is the report's ``absent``. Past the dimension cap (a ground set past
    ``measure.AUTO_ENUMERATION_CAP`` with more minimals than the cover
    search takes) the unrestricted dimension is None and its checks are left
    out; the within_family dimension, |F0|, has no cap. Nothing is
    fabricated.
    """
    absent = None
    threshold = q = None
    try:
        threshold = expectation_threshold(upper, tol)
        q = threshold.q
    except SizeLimitExceeded as exc:
        absent = str(exc)
    critical = p_c = None
    try:
        critical = measure.critical_probability(upper, tol, method or auto_exact_method(upper))
        p_c = critical.p_c
    except SizeLimitExceeded as exc:
        absent = absent or str(exc)
    dimensions: list[DimensionResult] = []
    for convention in CONVENTIONS:
        try:
            dimensions.append(structure.covering_dimension(upper, convention))
        except SizeLimitExceeded:
            pass
    dim = {d.convention: d.dim for d in dimensions}
    dim_u, dim_f = dim.get("unrestricted"), dim.get("within_family")

    m = len(upper.minimals)
    t = max_nonempty_sigma_index(upper)
    sigma_profile = tuple((k, k > t) for k in range(1, m + 1))
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

    # Sandwich: q <= p_c <= bound. p_c carries bisection error ~tol; q is
    # certified to a few 1e-12.
    add("sandwich_left_q_le_pc", q, p_c, 2 * tol)
    add("sandwich_right_pc_le_bound", p_c, bound_value, 2 * tol * max(1.0, variant.K * log_arg))

    if dim_u is not None:
        lo, hi = (2.0 * dim_u) ** -1.0, (2.0 * dim_u) ** (-1.0 / upper.ell)
        add("q_ge_inverse_2dim", lo, q, tol)
        add("q_le_inverse_2dim_root_ell", q, hi, tol)
        add("dim_le_min_count_plus_1_minus_t", float(dim_u), float(m + 1 - t), 0.0)
        # For every k with sigma_k nonempty, dim <= |F0| - k + 1; the
        # tightest case is k = t, so one slack covers all of them.
        add("dim_vs_sigma_all_k", float(dim_u), float(m + 1 - t), 0.0)

    intersection_nonempty = not upper.minimals_intersection().is_empty
    add("nonempty_intersection_forces_bound_ge_1", 1.0, bound_value, 2 * tol * variant.K,
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
        dim_within_family=dim_f,
        bound_value=bound_value,
        width=width,
        nontrivial_info=nontrivial,
        sigma_profile=sigma_profile,
        inequality_checks=tuple(checks),
        threshold=threshold,
        critical=critical,
        dimensions=tuple(dimensions),
        absent=absent,
    )
