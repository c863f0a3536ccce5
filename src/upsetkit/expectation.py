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

A decide call is the tree search alone: its root node applies the root
bound, so a decide the bound settles costs one node. It weighs a cover
exactly. Every p^k is a dyadic rational, so each cost is an integer
number of units of 1/scale, scale being the largest denominator among the
powers, and a branch carries its cost as an int. A leaf accepts iff
acc / scale <= threshold; int/int division is correctly rounded, so that
is the exact sum rounded once, the number ``Cover.cost`` gives with
``math.fsum``. The bounds stay float and prune only past the threshold by
a slack far above their rounding error. The p-independent tables
(coverages, their counts, the coverages grouped by candidate size) are
built once per problem, and the candidates under a minimal the first time
any search branches on it, so a decide that the root bound settles builds
none of them. A search builds only its costs, from one table of powers of
p. The counting bound's ratio is the smallest cost/|cov & uncovered| over
the candidates that meet the uncovered minimals. Candidates of one size
cost the same, so it is the smallest p^k / (largest |cov & uncovered| among
the candidates of size k); at the root every coverage is whole, so those
counts are the p-independent largest |cov|. A node branches on the
lowest uncovered minimal (by its index in F0) and tries its candidates by
cost/|cov|, then in canonical order.

The minimum cost (``optimize``) is a descent over decide: from the greedy
cover, each decide asks for a cover cheaper by twice the prune slack, and
the first None ends it. A problem is built from the minimal elements and a
candidate list, so the covering dimension (``structure.covering_dimension``)
runs ``optimize`` over its own candidates at p = 1 on ground sets too wide
to enumerate. There every candidate costs 1, so the cheapest cover is a
smallest one, and its size is exact.

q is read off a climb over covers (see ``_bracket``): from the cover by
all the minimals, each decide runs just above the root of the current
cover's weight polynomial sum c_k p^k = 1/2, a cover it returns has a
larger root, and the first None ends the climb. q is the largest float at
which the last cover weighs <= 1/2, found from its root, and the cover is
the witness. decide weighs covers as ``Cover.cost`` does, so F is p-small
at q, and a decide returns None a few 1e-12 above it, at the p that ended
the climb.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .core import Cover, SubsetMask, UpperSet, canonical_key
from .errors import SizeLimitExceeded

CANDIDATE_GENERATION_CAP = 1 << 20
SOLVER_MINIMALS_CAP = 64
SOLVER_CANDIDATES_CAP = 4096
NODE_BUDGET = 2_000_000

# a bound prunes a decide only when it passes the threshold by this much
_PRUNE_SLACK = 1e-12


@dataclass(frozen=True)
class CoverSolution:
    cover: Cover
    cost: float


@dataclass(frozen=True)
class ExpectationThreshold:
    q: float
    witness_cover: Cover


def _submasks(mask: int):
    """Nonempty submasks of ``mask``, in no particular order."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def candidate_cover_elements(
    upper: UpperSet, cap: int = CANDIDATE_GENERATION_CAP
) -> tuple[SubsetMask, ...]:
    """All nonempty subsets of minimal elements, deduplicated, canonical order.

    No library path calls it since the cover search took the intersection
    closure; it stays while the benchmark's tracing wraps it by name."""
    total = sum(1 << m.bit_count() for m in upper.minimal_bits)
    if total > cap:
        raise SizeLimitExceeded(
            f"candidate generation would touch {total} masks, above cap {cap}"
        )
    bits = {sub for m in upper.minimal_bits for sub in _submasks(m)}
    n = upper.ground_size
    return tuple(SubsetMask(n, b) for b in sorted(bits, key=canonical_key))


class _CoverProblem:
    """Preprocessed search data for minimal elements and cover candidates
    (p-independent). The candidates under each minimal are built the first
    time a search branches on it (``under``)."""

    __slots__ = ("min_bits", "min_sizes", "max_size", "cand_bits", "cand_sizes", "cand_cov",
                 "cand_count", "size_groups", "per_min", "full")

    def __init__(self, min_bits: tuple[int, ...], cand_bits: tuple[int, ...]):
        self.min_bits = min_bits
        m = len(min_bits)
        self.min_sizes = tuple(map(int.bit_count, min_bits))
        self.max_size = max(self.min_sizes)
        self.cand_bits = cand_bits
        self.cand_sizes = tuple(map(int.bit_count, cand_bits))
        # A candidate lies under exactly the minimals through all its elements.
        through = [0] * max(min_bits).bit_length()
        for i, mb in enumerate(min_bits):
            bit = 1 << i
            while mb:
                low = mb & -mb
                through[low.bit_length() - 1] |= bit
                mb ^= low
        self.full = (1 << m) - 1
        cand_cov = []
        for s in cand_bits:
            c = self.full
            while s:
                low = s & -s
                c &= through[low.bit_length() - 1]
                s ^= low
            cand_cov.append(c)
        self.cand_cov = tuple(cand_cov)
        self.cand_count = tuple(map(int.bit_count, cand_cov))
        # per candidate size: its coverages and the largest of their counts
        by_size: dict[int, list[int]] = {}
        for k, c in zip(self.cand_sizes, cand_cov):
            by_size.setdefault(k, []).append(c)
        self.size_groups = tuple(
            (k, tuple(covs), max(map(int.bit_count, covs))) for k, covs in sorted(by_size.items())
        )
        self.per_min: list[tuple[int, ...] | None] = [None] * m

    def under(self, i: int) -> tuple[int, ...]:
        """The candidates under minimal i, ascending."""
        got = self.per_min[i]
        if got is None:
            got = self.per_min[i] = tuple(
                compress(range(len(self.cand_cov)), map((1 << i).__and__, self.cand_cov))
            )
        return got


def _intersection_closure(min_bits: tuple[int, ...]) -> set[int]:
    """Nonempty intersections of subfamilies of the minimal elements.

    Grows the set one minimal at a time: the closure of M_1..M_k is that of
    M_1..M_{k-1}, plus M_k, plus M_k intersected with each of its members.
    The closure only grows with k, so it raises as soon as it passes
    SOLVER_CANDIDATES_CAP, after the minimal that takes it there. Each step
    intersects at most cap members, so a refused instance costs at most
    cap * |F0| mask operations, and the set never holds more than
    2 * cap + 1 masks.
    """
    closure: set[int] = set()
    for mb in min_bits:
        closure |= {s & mb for s in closure}
        closure.add(mb)
        closure.discard(0)
        if len(closure) > SOLVER_CANDIDATES_CAP:
            raise SizeLimitExceeded(
                f"exact cover search needs <= {SOLVER_CANDIDATES_CAP} candidates "
                "(intersections of minimal elements), got more"
            )
    return closure


@lru_cache(maxsize=256)
def _problem(upper: UpperSet) -> _CoverProblem:
    """The cover problem of q and p-smallness, over the intersection closure."""
    min_bits = upper.minimal_bits
    if len(min_bits) > SOLVER_MINIMALS_CAP:
        raise SizeLimitExceeded(
            f"exact cover search needs |F0| <= {SOLVER_MINIMALS_CAP}, got {len(min_bits)}"
        )
    # canonical order: by popcount, then by value (a stable sort)
    closure = tuple(sorted(sorted(_intersection_closure(min_bits)), key=int.bit_count))
    return _CoverProblem(min_bits, closure)


class _Search:
    """One branch-and-bound run at a fixed p.

    It builds the candidates' costs and reads everything else from the
    problem. Each power p^k is a dyadic rational, so ``units[k]`` holds it
    exactly as an integer multiple of 1 / ``scale``.
    """

    def __init__(self, prob: _CoverProblem, p: float):
        self.prob = prob
        self.p = p
        self.powers = powers = [p**k for k in range(prob.max_size + 1)]
        self.cost = tuple(map(powers.__getitem__, prob.cand_sizes))
        self.min_cost = tuple(map(powers.__getitem__, prob.min_sizes))
        ratios = [c.as_integer_ratio() for c in powers]
        self.scale = max(d for _, d in ratios)
        self.units = [n * (self.scale // d) for n, d in ratios]
        self.nodes = 0

    def _tick(self):
        self.nodes += 1
        if self.nodes > NODE_BUDGET:
            raise SizeLimitExceeded(f"cover search exceeded node budget {NODE_BUDGET}")

    def lower_bound(self, uncovered: int) -> float:
        if uncovered == 0:
            return 0.0
        prob, powers = self.prob, self.powers
        # candidates of one size cost the same: a size's smallest ratio is
        # at its largest count
        if uncovered == prob.full:
            # every coverage is whole here, so |cov & uncovered| = |cov|
            ratio = min(powers[k] / most for k, _, most in prob.size_groups)
        else:
            ratio = min(
                powers[k] / most
                for k, covs, _ in prob.size_groups
                if (most := max([(c & uncovered).bit_count() for c in covs]))
            )
        counting = uncovered.bit_count() * ratio
        blocked = 0
        packing = 0.0
        for i, mb in enumerate(prob.min_bits):
            if uncovered >> i & 1 and not (mb & blocked):
                packing += self.min_cost[i]
                blocked |= mb
        return counting if counting > packing else packing

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
        """A cover with cost <= threshold, or None if none exists. Exact: a
        cover's cost is its exact sum rounded once, as in ``Cover.cost``."""
        prob, units, scale, cost = self.prob, self.units, self.scale, self.cost
        sizes, count = prob.cand_sizes, prob.cand_count
        seen: dict[int, int] = {}

        def dfs(uncovered: int, acc: int) -> list[int] | None:
            self._tick()
            if uncovered == 0:
                return [] if acc / scale <= threshold else None
            prev = seen.get(uncovered)
            if prev is not None and acc >= prev:
                return None
            seen[uncovered] = acc
            if acc / scale + self.lower_bound(uncovered) > threshold + _PRUNE_SLACK:
                return None
            bi = (uncovered & -uncovered).bit_length() - 1
            # by cost per covered minimal (full coverage, a coarse stand-in
            # for new coverage), then canonical
            for j in sorted(prob.under(bi), key=lambda j: (cost[j] / count[j], j)):
                rest = dfs(uncovered & ~prob.cand_cov[j], acc + units[sizes[j]])
                if rest is not None:
                    return [j] + rest
            return None

        return dfs(prob.full, 0)

    def optimize(self) -> tuple[float, list[int]]:
        """Minimum cover cost, accurate to 2 * _PRUNE_SLACK, with an optimal
        cover chosen deterministically: a descent over ``decide`` from the
        greedy cover."""
        chosen, cost = self.greedy_cover()
        while (found := self.decide(cost - 2 * _PRUNE_SLACK)) is not None:
            chosen, cost = found, math.fsum(self.cost[j] for j in found)
        return cost, chosen


def _to_cover(upper: UpperSet, prob: _CoverProblem, chosen: list[int]) -> Cover:
    n = upper.ground_size
    return Cover.from_masks(SubsetMask(n, prob.cand_bits[j]) for j in set(chosen))


def min_cover_cost(upper: UpperSet, p: float) -> CoverSolution:
    """Minimum of sum p^{|S|} over covers of F, accurate to 2 * _PRUNE_SLACK,
    with a cover of that cost as the witness."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    prob = _problem(upper)
    _, chosen = _Search(prob, p).optimize()
    cover = _to_cover(upper, prob, chosen)
    return CoverSolution(cover, cover.cost(p))


def is_p_small(upper: UpperSet, p: float) -> bool:
    """True iff some cover of F has weight <= 1/2 at p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return True
    if p == 1.0:
        return False
    return _Search(_problem(upper), p).decide(0.5) is not None


def _weight_terms(prob: _CoverProblem, chosen: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """A cover's weight polynomial as (size, count) pairs, ascending size."""
    counts: dict[int, int] = {}
    for j in set(chosen):
        k = prob.cand_sizes[j]
        counts[k] = counts.get(k, 0) + 1
    return tuple(sorted(counts.items()))


def _weight(terms: tuple[tuple[int, int], ...], p: float) -> float:
    """The weight at p, summed as ``Cover.cost`` sums it (each power once
    per element), so the two agree to the last bit."""
    return math.fsum(x for k, c in terms for x in [p**k] * c)


def _weight_root(terms: tuple[tuple[int, int], ...], level: float = 0.5) -> float:
    """The p in (0, 1) where sum c_k p^k = level (< 1), by Newton's method
    from above.

    The weight is increasing and convex on (0, 1), so Newton steps from a
    point above the root decrease monotonically towards it. The start
    (level / c_k)^(1/k), the smallest over k, is such a point because each
    term alone is at most the whole weight. Stops at the first step that
    does not decrease, i.e. within float error of the root.
    """
    p = min((level / c) ** (1.0 / k) for k, c in terms)
    while True:
        slope = math.fsum(k * c * p ** (k - 1) for k, c in terms)
        step = p - (_weight(terms, p) - level) / slope
        if not step < p:
            return p
        p = step


def _bracket(prob: _CoverProblem) -> tuple[list[int], float]:
    """The last cover the climb finds, and the p at which ``decide`` returned
    None.

    Climbs from the cover by all the minimals: each ``decide`` runs just
    above the current cover's root, where the cover weighs 1/2 plus twice
    the prune slack; the first None ends the climb. At the root itself no
    bound could prune within the slack, and that last decide would search
    every near-optimal cover. A cover that decide returns weighs at most
    1/2 at p, rounded once, so it weighs 1/2 plus twice the slack only at a
    larger p, and p rises strictly.
    """
    index = {b: j for j, b in enumerate(prob.cand_bits)}
    chosen = [index[b] for b in prob.min_bits]
    while True:
        p = _weight_root(_weight_terms(prob, chosen), 0.5 + 2 * _PRUNE_SLACK)
        found = _Search(prob, p).decide(0.5)
        if found is None:
            return chosen, p
        chosen = found


def expectation_threshold(upper: UpperSet, tol: float = 1e-9) -> ExpectationThreshold:
    """The largest p at which F is p-small, with a cover of weight <= 1/2
    there as the witness.

    p-smallness is monotone (a cover's weight increases with p), so the
    feasible set is an interval [0, q]. q is the root of the weight
    polynomial of the last cover ``_bracket`` climbs to, stepped with
    ``nextafter`` to the largest float at which that cover weighs at most
    1/2; the cover is the witness. The weight is the exact sum rounded
    once, as in ``Cover.cost`` and in ``decide``, so at q ``decide`` finds
    a cover and ``is_p_small`` holds. ``decide`` returned None at the p that ended the climb, a few
    1e-12 above q, so q is exact to about that.

    ``tol`` does not set the accuracy of q, and the result does not report
    it; ``bounds.verify_instance`` does not pass it. It is kept, and must
    be positive and finite, because perfbench/checks.py passes it.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    prob = _problem(upper)
    chosen, _ = _bracket(prob)
    terms = _weight_terms(prob, chosen)
    q = _weight_root(terms)
    while _weight(terms, q) > 0.5:
        q = math.nextafter(q, 0.0)
    # Newton can stop a float short of the largest such p
    while _weight(terms, up := math.nextafter(q, 1.0)) <= 0.5:
        q = up
    return ExpectationThreshold(q, _to_cover(upper, prob, chosen))


@lru_cache(maxsize=1024)
def cached_q(upper: UpperSet, tol: float = 1e-9) -> float:
    """Memoized q(F). No library path calls it; it stays, with its ignored
    ``tol``, while the benchmark's tracing wraps it by name."""
    return expectation_threshold(upper).q


def clear_caches() -> None:
    _problem.cache_clear()
    cached_q.cache_clear()
