"""p-smallness and the expectation threshold via exact weighted set cover.

A cover of F is a family of nonempty masks such that every minimal element
of F contains one of them; its weight at p is sum p^{|S|}. F is p-small
when some cover has weight <= 1/2, and q(F) is the largest such p.

The search space is the intersection closure of the minimal elements:
every nonempty intersection of a subfamily of F0. An element S covers a
minimal M exactly when S is a subset of M. If S covers the minimals C,
their intersection I(C) contains S and covers exactly C, so it serves the
same minimals at no greater weight; and the empty mask already costs
1 > 1/2. So any cover can be rewritten over intersections alone.
Among intersections, covering a superset of minimals means being a subset,
so no candidate is dominated by a cheaper one that covers more, and the
closure needs no dominance filter. The test suite checks it against an
oracle that takes every nonempty subset of every minimal, keeps the
largest per coverage, and drops strictly dominated ones.

The exact minimum is found by depth-first branch and bound over the
uncovered minimal elements. Pruning uses two admissible lower bounds:

* packing: pairwise-disjoint uncovered minimals cannot share a cover
  element, and covering M costs at least p^{|M|};
* counting: every cover pays at least (uncovered count) * min over
  candidates of cost/covered-count, by distributing each element's cost
  over the minimals it covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import Cover, SubsetMask, UpperSet, canonical_key
from .errors import SizeLimitExceeded

CANDIDATE_GENERATION_CAP = 1 << 20
SOLVER_MINIMALS_CAP = 64
SOLVER_CANDIDATES_CAP = 4096
NODE_BUDGET = 2_000_000

_TIE_EPS = 1e-14


@dataclass(frozen=True)
class CoverSolution:
    cover: Cover
    cost: float
    p: float


@dataclass(frozen=True)
class ExpectationThreshold:
    q: float
    witness_cover: Cover
    tolerance: float


def _submasks(mask: int):
    """Nonempty submasks of ``mask``, in no particular order."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def candidate_cover_elements(
    upper: UpperSet, cap: int = CANDIDATE_GENERATION_CAP
) -> tuple[SubsetMask, ...]:
    """All nonempty subsets of minimal elements, deduplicated, canonical order."""
    total = sum(1 << m.popcount for m in upper.minimals)
    if total > cap:
        raise SizeLimitExceeded(
            f"candidate generation would touch {total} masks, above cap {cap}"
        )
    bits = {sub for m in upper.minimal_bits for sub in _submasks(m)}
    n = upper.ground_size
    return tuple(SubsetMask(n, b) for b in sorted(bits, key=canonical_key))


class _CoverProblem:
    """Preprocessed search data for one upper set (p-independent)."""

    __slots__ = ("min_bits", "min_sizes", "cand_bits", "cand_sizes", "cand_cov", "per_min", "full")

    def __init__(self, upper: UpperSet):
        self.min_bits = upper.minimal_bits
        m = len(self.min_bits)
        if m > SOLVER_MINIMALS_CAP:
            raise SizeLimitExceeded(
                f"exact cover search needs |F0| <= {SOLVER_MINIMALS_CAP}, got {m}"
            )
        self.min_sizes = tuple(b.bit_count() for b in self.min_bits)
        self.cand_bits = tuple(sorted(_intersection_closure(self.min_bits), key=canonical_key))
        self.cand_sizes = tuple(b.bit_count() for b in self.cand_bits)
        self.cand_cov = tuple(
            sum(1 << i for i, mb in enumerate(self.min_bits) if s & mb == s)
            for s in self.cand_bits
        )
        self.per_min = tuple(
            tuple(j for j, c in enumerate(self.cand_cov) if c >> i & 1)
            for i in range(m)
        )
        self.full = (1 << m) - 1


def _intersection_closure(min_bits: tuple[int, ...]) -> set[int]:
    """Nonempty intersections of subfamilies of the minimal elements.

    Grows the set from the minimals by intersecting each new member with
    every minimal; raises as soon as it passes SOLVER_CANDIDATES_CAP, so a
    refused instance costs at most ~cap * |F0| mask operations.
    """
    closure = set(min_bits)
    pending = list(closure)
    while pending:
        s = pending.pop()
        for mb in min_bits:
            t = s & mb
            if t and t not in closure:
                if len(closure) >= SOLVER_CANDIDATES_CAP:
                    raise SizeLimitExceeded(
                        f"exact cover search needs <= {SOLVER_CANDIDATES_CAP} candidates "
                        "(intersections of minimal elements), got more"
                    )
                closure.add(t)
                pending.append(t)
    return closure


@lru_cache(maxsize=256)
def _problem(upper: UpperSet) -> _CoverProblem:
    return _CoverProblem(upper)


class _Search:
    """One branch-and-bound run at a fixed p."""

    def __init__(self, prob: _CoverProblem, p: float, node_budget: int = NODE_BUDGET):
        self.prob = prob
        self.p = p
        self.cost = tuple(p**k for k in prob.cand_sizes)
        self.min_cost = tuple(p**k for k in prob.min_sizes)
        self.nodes = 0
        self.node_budget = node_budget
        # Candidate order within a branch: cost per newly covered minimal
        # (recomputed coarsely from full coverage), then canonical.
        self.branch_order = tuple(
            tuple(
                sorted(
                    cands,
                    key=lambda j: (self.cost[j] / prob.cand_cov[j].bit_count(), j),
                )
            )
            for cands in prob.per_min
        )

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise SizeLimitExceeded(
                f"cover search exceeded node budget {self.node_budget}"
            )

    def lower_bound(self, uncovered: int) -> float:
        if uncovered == 0:
            return 0.0
        prob, cost = self.prob, self.cost
        u = uncovered.bit_count()
        ratio = min(
            cost[j] / (c & uncovered).bit_count()
            for j, c in enumerate(prob.cand_cov)
            if c & uncovered
        )
        counting = u * ratio
        blocked = 0
        packing = 0.0
        for i, mb in enumerate(prob.min_bits):
            if uncovered >> i & 1 and not (mb & blocked):
                packing += self.min_cost[i]
                blocked |= mb
        return counting if counting > packing else packing

    def _pick_branch(self, uncovered: int) -> int:
        prob = self.prob
        best_i, best_len = -1, 1 << 30
        for i in range(len(prob.min_bits)):
            if uncovered >> i & 1:
                live = sum(1 for j in prob.per_min[i] if prob.cand_cov[j] & uncovered)
                if live < best_len:
                    best_i, best_len = i, live
        return best_i

    def greedy_cover(self) -> tuple[list[int], float]:
        """Cheapest-per-new-minimal greedy cover; upper bound, not optimal."""
        prob, cost = self.prob, self.cost
        uncovered = prob.full
        chosen: list[int] = []
        while uncovered:
            best_j, best_ratio = -1, math.inf
            for j, c in enumerate(prob.cand_cov):
                new = (c & uncovered).bit_count()
                if new:
                    r = cost[j] / new
                    if r < best_ratio - 1e-18:
                        best_j, best_ratio = j, r
            chosen.append(best_j)
            uncovered &= ~prob.cand_cov[best_j]
        return chosen, math.fsum(cost[j] for j in chosen)

    def decide(self, threshold: float) -> list[int] | None:
        """A cover with cost <= threshold, or None if none exists. Exact."""
        prob = self.prob
        all_minimals = math.fsum(self.min_cost)
        if all_minimals <= threshold:
            return [j for i in range(len(prob.min_bits)) for j in prob.per_min[i] if prob.cand_bits[j] == prob.min_bits[i]]
        chosen, greedy_cost = self.greedy_cover()
        if greedy_cost <= threshold:
            return chosen
        if self.lower_bound(prob.full) > threshold + 1e-12:
            return None
        seen: dict[int, float] = {}

        def dfs(uncovered: int, acc: float) -> list[int] | None:
            self._tick()
            if uncovered == 0:
                return [] if acc <= threshold else None
            prev = seen.get(uncovered)
            if prev is not None and acc >= prev:
                return None
            seen[uncovered] = acc
            if acc + self.lower_bound(uncovered) > threshold + 1e-12:
                return None
            bi = self._pick_branch(uncovered)
            for j in self.branch_order[bi]:
                rest = dfs(uncovered & ~prob.cand_cov[j], acc + self.cost[j])
                if rest is not None:
                    return [j] + rest
            return None

        return dfs(prob.full, 0.0)

    def optimize(self) -> tuple[float, list[int]]:
        """Exact minimum cover cost with canonical tie-break."""
        prob = self.prob
        best_chosen, best_cost = self.greedy_cover()
        best_key = self._cover_key(best_chosen)
        best = [best_cost, best_key, best_chosen]
        seen: dict[int, float] = {}

        def dfs(uncovered: int, acc: float, chosen: list[int]) -> None:
            self._tick()
            if uncovered == 0:
                key = self._cover_key(chosen)
                if acc < best[0] - _TIE_EPS or (
                    acc <= best[0] + _TIE_EPS and key < best[1]
                ):
                    best[0], best[1], best[2] = acc, key, list(chosen)
                return
            prev = seen.get(uncovered)
            if prev is not None and acc > prev + _TIE_EPS:
                return
            if prev is None or acc < prev:
                seen[uncovered] = acc
            if acc + self.lower_bound(uncovered) > best[0] + _TIE_EPS:
                return
            bi = self._pick_branch(uncovered)
            for j in self.branch_order[bi]:
                chosen.append(j)
                dfs(uncovered & ~prob.cand_cov[j], acc + self.cost[j], chosen)
                chosen.pop()

        dfs(prob.full, 0.0, [])
        return best[0], best[2]

    def _cover_key(self, chosen: list[int]) -> tuple:
        return tuple(sorted(canonical_key(self.prob.cand_bits[j]) for j in chosen))


def _to_cover(upper: UpperSet, prob: _CoverProblem, chosen: list[int]) -> Cover:
    n = upper.ground_size
    return Cover.from_masks(SubsetMask(n, prob.cand_bits[j]) for j in set(chosen))


def min_cover_cost(upper: UpperSet, p: float) -> CoverSolution:
    """Exact minimum of sum p^{|S|} over covers of F, with an optimal witness."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    prob = _problem(upper)
    _, chosen = _Search(prob, p).optimize()
    cover = _to_cover(upper, prob, chosen)
    return CoverSolution(cover, cover.cost(p), p)


def is_p_small(upper: UpperSet, p: float) -> bool:
    """True iff some cover of F has weight <= 1/2 at p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return True
    if p == 1.0:
        return False
    return _Search(_problem(upper), p).decide(0.5) is not None


def expectation_threshold(upper: UpperSet, tol: float = 1e-9) -> ExpectationThreshold:
    """The largest p at which F is p-small, by bisection on the decision.

    p-smallness is monotone (a cover's weight increases with p), so the
    feasible set is an interval [0, q]. The returned witness cover has
    weight <= 1/2 at q - tol.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    prob = _problem(upper)
    lo, hi = 0.0, 1.0
    witness: list[int] = [
        j
        for i in range(len(prob.min_bits))
        for j in prob.per_min[i]
        if prob.cand_bits[j] == prob.min_bits[i]
    ]
    for _ in range(64):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        found = _Search(prob, mid).decide(0.5)
        if found is not None:
            lo, witness = mid, found
        else:
            hi = mid
    return ExpectationThreshold(0.5 * (lo + hi), _to_cover(upper, prob, witness), tol)


@lru_cache(maxsize=1024)
def cached_threshold(upper: UpperSet, tol: float = 1e-9) -> ExpectationThreshold:
    """Memoized expectation_threshold; q and its witness are computed once."""
    return expectation_threshold(upper, tol)


def cached_q(upper: UpperSet, tol: float = 1e-9) -> float:
    """Memoized q(F); the bounds and sweep modules call this repeatedly."""
    return cached_threshold(upper, tol).q


def clear_caches() -> None:
    _problem.cache_clear()
    cached_threshold.cache_clear()
