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

The closure is built from the element side, as in the Galois connection
of formal concept analysis (Ganter-Wille, 1999). A ground element's
extent is the mask of the minimals through it (``core.element_extents``,
computed once per instance). The coverage of an intersection I is the
AND of the extents of I's elements, and I is the AND of the minimals in
its coverage (its intent). So the coverages are exactly the nonzero ANDs
of the n element extents, one per candidate. Closing those n masks under
AND, one element at a time, takes O(n * |closure|) mask operations and
yields every coverage with no further pass; closing the minimals would
take O(|F0| * |closure|), and on graph families |F0| is several times n.
The same pass builds each candidate: a new member's intent is the OR of
its generators' intents plus the element that made it (the incremental
lattice construction of Godin, Missaoui and Alaoui, 1995), so no intent
is recomputed from the minimals.

The exact minimum is found by depth-first branch and bound over the
uncovered minimal elements. Pruning uses two admissible lower bounds:

* packing: pairwise-disjoint uncovered minimals cannot share a cover
  element, and covering M costs at least p^{|M|};
* counting: every cover pays at least (uncovered count) * min over
  candidates of cost/covered-count, by distributing each element's cost
  over the minimals it covers.

A decide call is the tree search alone: its root node applies the root
bound, so a decide the bound settles costs one node. It weighs a cover
by the definition, the real sum of p^{|S|}: a float p = a/d is dyadic, so
each p^k is an integer number of units of 1/d^top (``_dyadic_units``),
top being the largest size weighed, and a branch carries its weight as
an int. A leaf compares that int with the threshold in integers. The
bounds stay float and prune only past the threshold by a slack far above
their rounding error. The p-independent tables
(coverage counts, the coverages grouped by candidate size) are built
once per problem, and the candidates under a minimal the first time
any search branches on it, so a decide that the root bound settles builds
none of them. A search builds only its costs, from one table of powers of
p. The counting bound's ratio is the smallest cost/|cov & uncovered| over
the candidates that meet the uncovered minimals. Candidates of one size
cost the same, so it is the smallest p^k / (largest |cov & uncovered| among
the candidates of size k). The scan stops early, with the same result:
each size's coverages are kept by descending |cov|, a size is skipped
when p^k / min(largest |cov|, uncovered count) is already no smaller than
the best ratio found (a smaller divisor never gives a smaller float
quotient), and within a size the scan ends at the first |cov| that is no
larger than the best overlap so far, or once that overlap is every
uncovered minimal. Sizes are tried by their ratio at the root, the
smallest first; at the root every coverage is whole, so the first size's
largest coverage settles the ratio and every later size is skipped. A
node branches on the lowest uncovered minimal (by its index in F0) and
tries its candidates by cost/|cov|, then in canonical order, an order each
search sorts once per minimal.

The minimum cost (``optimize``) is a descent over decide: from the greedy
cover, each decide asks for a cover cheaper by twice the prune slack, and
the first None ends it. A problem is built from the minimal elements and a
candidate list, so the covering dimension (``structure.covering_dimension``)
runs ``optimize`` over its own candidates at p = 1 on ground sets too wide
to enumerate. There every candidate costs 1, so the cheapest cover is a
smallest one, and its size is exact.

q is first tried without a search, by the spread certificate (see
``_spread_threshold``): at the float just above the root of the cover by
all the minimals, one integer pass over the closure checks that weights
p^{|M|} on the minimals are a feasible dual of the fractional cover LP.
Where they are, no cover weighs at most 1/2 there, so q is that root and
the minimals are the witness. The pass needs the closure and no cover
problem, so it answers under SOLVER_CANDIDATES_CAP alone, past
SOLVER_MINIMALS_CAP. The closure is built once per instance (``_closure``)
for the certificate and for the search after it.

Otherwise q is read off a climb over covers (see ``_bracket``): from the
cover by all the minimals, each decide runs just above the root of the
current cover's weight polynomial sum c_k p^k = 1/2, a cover it returns
has a larger root, and the first None ends the climb. q is the largest
float at which the last cover weighs <= 1/2, found from its root, and the
cover is the witness. Every comparison with 1/2 is exact (``_is_small``),
so F is p-small at q by the definition, and a decide returns None a few
1e-12 above it, at the p that ended the climb. Where the certificate
holds, the climb would end at its first decide, with the same q and
witness.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

from .core import Cover, SubsetMask, UpperSet, canonical_key, element_extents
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

    def __init__(self, min_bits: tuple[int, ...], candidates: dict[int, int]):
        """``candidates`` maps each coverage, a nonzero closed mask of
        minimals, to its candidate: its intent, which exactly those
        minimals contain."""
        self.min_bits = min_bits
        m = len(min_bits)
        self.min_sizes = tuple(map(int.bit_count, min_bits))
        self.max_size = max(self.min_sizes)
        cov_of = {s: c for c, s in candidates.items()}
        # canonical order: by popcount, then by value (a stable sort)
        self.cand_bits = tuple(sorted(sorted(cov_of), key=int.bit_count))
        self.cand_sizes = tuple(map(int.bit_count, self.cand_bits))
        self.full = (1 << m) - 1
        self.cand_cov = cand_cov = tuple(map(cov_of.__getitem__, self.cand_bits))
        self.cand_count = tuple(map(int.bit_count, cand_cov))
        # per candidate size: its coverages, largest count first
        by_size: dict[int, list[int]] = {}
        for k, c in zip(self.cand_sizes, cand_cov):
            by_size.setdefault(k, []).append(c)
        for covs in by_size.values():
            covs.sort(key=int.bit_count, reverse=True)
        self.size_groups = tuple((k, tuple(covs)) for k, covs in by_size.items())
        self.per_min: list[tuple[int, ...] | None] = [None] * m

    def under(self, i: int) -> tuple[int, ...]:
        """The candidates under minimal i, ascending."""
        got = self.per_min[i]
        if got is None:
            got = self.per_min[i] = tuple(
                compress(range(len(self.cand_cov)), map((1 << i).__and__, self.cand_cov))
            )
        return got


def _intersection_closure(incidence: Iterable[int]) -> dict[int, int]:
    """The nonempty intersections of minimal elements, as ``{coverage:
    candidate}``: the coverages are the nonzero ANDs of the element extents
    (the masks of minimals through each ground element), and each
    candidate is its coverage's intent, the elements whose extent holds it.

    Grows the closure one distinct nonzero extent e at a time, with the
    elements E that have it (repeats add no member; elements in no minimal
    add nothing): the closure of the first k extents is that of the first
    k - 1, plus e, plus e ANDed with each of its members. Over the elements
    seen so far, a member d's intent is E plus the intents of the members
    c with c & e == d. An earlier element through every minimal of d is in
    the intent of the AND of the earlier extents that hold d, and that AND
    is such a c.

    The closure only grows with k, so it raises as soon as it passes
    SOLVER_CANDIDATES_CAP, after the extent that takes it there, exactly
    when the whole closure would. Each step ANDs at most cap members, so a
    refused instance costs at most cap * n mask operations, and the
    closure never holds more than 2 * cap + 1 masks.
    """
    having: dict[int, int] = {}
    for x, e in enumerate(incidence):
        if e:
            having[e] = having.get(e, 0) | 1 << x
    closure: dict[int, int] = {}
    for e, elems in having.items():
        grown = {e: elems}
        for c, s in closure.items():
            if d := c & e:
                grown[d] = grown.get(d, elems) | s
        closure.update(grown)
        if len(closure) > SOLVER_CANDIDATES_CAP:
            raise _too_many_candidates()
    return closure


def _too_many_candidates() -> SizeLimitExceeded:
    return SizeLimitExceeded(
        f"exact cover search needs <= {SOLVER_CANDIDATES_CAP} candidates "
        "(intersections of minimal elements), got more"
    )


def _searchable_minimals(upper: UpperSet) -> tuple[int, ...]:
    """F0, refused past SOLVER_MINIMALS_CAP before a cover problem is built:
    q's (``_problem``) or the dimension's (``structure._block_problem``)."""
    min_bits = upper.minimal_bits
    if len(min_bits) > SOLVER_MINIMALS_CAP:
        raise SizeLimitExceeded(
            f"exact cover search needs |F0| <= {SOLVER_MINIMALS_CAP}, got {len(min_bits)}"
        )
    return min_bits


@lru_cache(maxsize=256)
def _closure(upper: UpperSet) -> dict[int, int]:
    """``_intersection_closure`` of F0, built once per instance for both the
    spread certificate and the cover problem; read it, never mutate it.
    Each minimal is its own member, so past SOLVER_CANDIDATES_CAP minimals
    it is refused before the incidence is built."""
    if len(upper.minimal_bits) > SOLVER_CANDIDATES_CAP:
        raise _too_many_candidates()
    return _intersection_closure(element_extents(upper))


@lru_cache(maxsize=256)
def _problem(upper: UpperSet) -> _CoverProblem:
    """The cover problem of q and p-smallness, over the intersection closure."""
    min_bits = _searchable_minimals(upper)
    return _CoverProblem(min_bits, _closure(upper))


def _dyadic_units(p: float, top: int) -> tuple[int, list[int]]:
    """(scale, units): the real powers p^k, k = 0..top, as exact integer
    multiples of 1 / scale. A float p = a / d is dyadic, so
    p^k = a^k d^(top - k) / d^top."""
    a, d = p.as_integer_ratio()
    return d**top, [a**k * d ** (top - k) for k in range(top + 1)]


class _Search:
    """One branch-and-bound run at a fixed p.

    It builds the candidates' costs and reads everything else from the
    problem. ``units[k]`` holds the real power p^k exactly, as an integer
    multiple of 1 / ``scale`` (``_dyadic_units``).
    """

    def __init__(self, prob: _CoverProblem, p: float):
        self.prob = prob
        self.p = p
        self.powers = powers = [p**k for k in range(prob.max_size + 1)]
        self.cost = tuple(map(powers.__getitem__, prob.cand_sizes))
        self.min_cost = tuple(map(powers.__getitem__, prob.min_sizes))
        self.scale, self.units = _dyadic_units(p, prob.max_size)
        # size groups by their ratio at the root, the smallest first
        self.groups = sorted(prob.size_groups, key=lambda g: powers[g[0]] / g[1][0].bit_count())
        self.order: list[list[int] | None] = [None] * len(prob.min_bits)
        self.nodes = 0

    def _tick(self):
        self.nodes += 1
        if self.nodes > NODE_BUDGET:
            raise SizeLimitExceeded(f"cover search exceeded node budget {NODE_BUDGET}")

    def lower_bound(self, uncovered: int) -> float:
        prob, powers = self.prob, self.powers
        u = uncovered.bit_count()
        # candidates of one size cost the same: a size's smallest ratio is
        # at its largest |cov & uncovered|
        ratio = math.inf
        for k, group in self.groups:
            # |cov & uncovered| <= min(|cov|, u), and a smaller divisor
            # never gives a smaller float quotient
            if powers[k] / min(group[0].bit_count(), u) >= ratio:
                continue
            most = 0
            for c in group:
                if c.bit_count() <= most:
                    break
                if (got := (c & uncovered).bit_count()) > most:
                    most = got
                    if most == u:
                        break
            if most and powers[k] / most < ratio:
                ratio = powers[k] / most
        counting = u * ratio
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
                    if r < best_ratio:
                        best_j, best_ratio = j, r
            chosen.append(best_j)
            uncovered &= ~prob.cand_cov[best_j]
        return chosen, math.fsum(cost[j] for j in chosen)

    def decide(self, threshold: float) -> list[int] | None:
        """A cover with cost <= threshold, or None if none exists. Exact: a
        leaf compares the cover's real weight with the threshold in integers."""
        prob, units, scale, cost = self.prob, self.units, self.scale, self.cost
        num, den = threshold.as_integer_ratio()
        sizes, count, orders = prob.cand_sizes, prob.cand_count, self.order
        seen: dict[int, int] = {}

        def dfs(uncovered: int, acc: int) -> list[int] | None:
            self._tick()
            if uncovered == 0:
                return [] if acc * den <= num * scale else None
            prev = seen.get(uncovered)
            if prev is not None and acc >= prev:
                return None
            seen[uncovered] = acc
            if acc / scale + self.lower_bound(uncovered) > threshold + _PRUNE_SLACK:
                return None
            bi = (uncovered & -uncovered).bit_length() - 1
            order = orders[bi]
            if order is None:
                # by cost per covered minimal (full coverage, a coarse
                # stand-in for new coverage), then canonical; once per search
                order = orders[bi] = sorted(prob.under(bi), key=lambda j: (cost[j] / count[j], j))
            for j in order:
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


def min_cover_cost(upper: UpperSet, p: float) -> CoverSolution:
    """Minimum of sum p^{|S|} over covers of F, accurate to 2 * _PRUNE_SLACK,
    with a cover of that cost as the witness."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    prob = _problem(upper)
    _, chosen = _Search(prob, p).optimize()
    cover = Cover.from_masks(upper.ground_size, (prob.cand_bits[j] for j in chosen))
    return CoverSolution(cover, cover.cost(p))


def is_p_small(upper: UpperSet, p: float) -> bool:
    """True iff some cover of F has weight <= 1/2 at p.

    The cover by the minimals is weighed first, with no cover problem, so
    p = 0 and every q that ``expectation_threshold`` reports are p-small
    here, past the search's caps too; any other p below 1 goes to the
    search and its caps."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 1.0:
        return False
    return (_is_small(_size_terms(map(int.bit_count, upper.minimal_bits)), p)
            or _Search(_problem(upper), p).decide(0.5) is not None)


def _size_terms(sizes: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The weight polynomial of distinct sets of these sizes, as (size,
    count) pairs, ascending size."""
    return tuple(sorted(Counter(sizes).items()))


def _weight_terms(prob: _CoverProblem, chosen: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """A cover's weight polynomial as (size, count) pairs, ascending size."""
    return _size_terms(prob.cand_sizes[j] for j in set(chosen))


def _weight(terms: tuple[tuple[int, int], ...], p: float) -> float:
    """The weight at p in floats, for Newton's steps; ``_is_small`` decides."""
    return math.fsum(c * p**k for k, c in terms)


def _is_small(terms: tuple[tuple[int, int], ...], p: float) -> bool:
    """True iff the real weight sum c_k p^k is at most 1/2, compared in
    integers."""
    scale, units = _dyadic_units(p, terms[-1][0])
    return 2 * sum(c * units[k] for k, c in terms) <= scale


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
    1/2 at p, so it weighs 1/2 plus twice the slack only at a larger p, and
    p rises strictly.
    """
    index = {b: j for j, b in enumerate(prob.cand_bits)}
    chosen = [index[b] for b in prob.min_bits]
    while True:
        p = _weight_root(_weight_terms(prob, chosen), 0.5 + 2 * _PRUNE_SLACK)
        found = _Search(prob, p).decide(0.5)
        if found is None:
            return chosen, p
        chosen = found


def _largest_small(terms: tuple[tuple[int, int], ...]) -> float:
    """The largest float at which a cover with the weight polynomial
    ``terms`` weighs at most 1/2: its root, stepped with ``nextafter``."""
    q = _weight_root(terms)
    while not _is_small(terms, q):
        q = math.nextafter(q, 0.0)
    # Newton can stop a float short of the largest such p
    while _is_small(terms, up := math.nextafter(q, 1.0)):
        q = up
    return q


def _spread_threshold(upper: UpperSet) -> ExpectationThreshold | None:
    """q with the minimals as the witness where the spread certificate
    proves it, else None. Raises as ``_closure`` does.

    Let q0 be the largest float at which the cover by the minimals weighs at
    most 1/2, and p = nextafter(q0, 1). If every candidate S of the
    intersection closure has sum over the minimals M containing S of p^{|M|}
    at most p^{|S|}, then y_M = p^{|M|} is a feasible point of the dual of
    the fractional cover LP (the "spread" condition of Frankston, Kahn,
    Narayanan and Park, 2021, read as a certificate). By weak duality every
    cover weighs at least the minimals' sum, which is above 1/2, so q = q0.
    A set outside the closure needs no check: its closure member serves the
    same minimals and is no smaller.

    The check runs in the exact integer units of ``_dyadic_units``. A
    candidate over one minimal is that minimal and passes by equality; for
    the others the minimals are grouped by size, one popcount per size.
    """
    closure = _closure(upper)
    min_bits = upper.minimal_bits
    terms = _size_terms(map(int.bit_count, min_bits))
    q0 = _largest_small(terms)
    p = math.nextafter(q0, 1.0)
    _, units = _dyadic_units(p, terms[-1][0])
    by_size: dict[int, int] = {}
    for i, m in enumerate(min_bits):
        k = m.bit_count()
        by_size[k] = by_size.get(k, 0) | 1 << i
    groups = [(units[k], g) for k, g in by_size.items()]
    for cov, s in closure.items():
        if cov & (cov - 1) and sum(u * (cov & g).bit_count() for u, g in groups) > units[s.bit_count()]:
            return None
    return ExpectationThreshold(q0, Cover.from_masks(upper.ground_size, min_bits))


def expectation_threshold(upper: UpperSet, tol: float = 1e-9) -> ExpectationThreshold:
    """The largest p at which F is p-small, with a cover of weight <= 1/2
    there as the witness.

    p-smallness is monotone (a cover's weight increases with p), so the
    feasible set is an interval [0, q]. The spread certificate
    (``_spread_threshold``) gives q and its witness, the minimals, with no
    search wherever it holds; it needs only the intersection closure, so it
    answers past SOLVER_MINIMALS_CAP. Otherwise q is the root of the weight
    polynomial of the last cover ``_bracket`` climbs to, stepped with
    ``nextafter`` to the largest float at which that cover weighs at most
    1/2; the cover is the witness. That weight is the real sum, compared
    with 1/2 in integers as ``decide`` compares it, so at q ``decide`` finds
    a cover and ``is_p_small`` holds. ``decide`` returned None at the p that
    ended the climb, a few 1e-12 above q, so q is exact to about that. Where
    both paths answer, they give the same q and witness: a certificate
    rules out every cover from nextafter(q, 1) on, so the climb's first
    decide, above that, finds none.

    Refusals come as from ``_problem``: past SOLVER_MINIMALS_CAP minimals
    (where the certificate fails or the closure is too large) that cap's
    message, else the closure's.

    ``tol`` does not set the accuracy of q, and the result does not report
    it; ``bounds.verify_instance`` does not pass it. It is kept, and must
    be positive and finite, because perfbench/checks.py passes it.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    try:
        certified = _spread_threshold(upper)
    except SizeLimitExceeded:
        # past both caps the minimals cap speaks first, as in _problem
        _searchable_minimals(upper)
        raise
    if certified is not None:
        return certified
    prob = _problem(upper)
    chosen, _ = _bracket(prob)
    q = _largest_small(_weight_terms(prob, chosen))
    witness = Cover.from_masks(upper.ground_size, (prob.cand_bits[j] for j in chosen))
    return ExpectationThreshold(q, witness)


@lru_cache(maxsize=1024)
def cached_q(upper: UpperSet, tol: float = 1e-9) -> float:
    """Memoized q(F). No library path calls it; it stays, with its ignored
    ``tol``, while the benchmark's tracing wraps it by name."""
    return expectation_threshold(upper).q


def clear_caches() -> None:
    _closure.cache_clear()
    _problem.cache_clear()
    cached_q.cache_clear()
