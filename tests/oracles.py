"""Independent reference implementations used to check the library.

Everything here is deliberately naive: direct sums over all subsets,
exhaustive enumerations over combinations, and per-minimal assignment
search for covers. None of it shares code with the package paths it
checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction


def brute_mu(min_bits: list[int], n: int, p: float) -> float:
    """Sum of p^|S| (1-p)^(n-|S|) over all S containing some minimal."""
    total = 0.0
    for s in range(1 << n):
        if any(m & s == m for m in min_bits):
            k = bin(s).count("1")
            total += p**k * (1 - p) ** (n - k)
    return total


def brute_pc(min_bits: list[int], n: int, iters: int = 80) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if brute_mu(min_bits, n, mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def signed_union_counts(min_bits: list[int], n: int) -> tuple[int, ...]:
    """c_j = sum over nonempty subsets T of the minimals whose union has j
    elements of (-1)^(|T|+1), term by term from the inclusion-exclusion
    formula mu(p) = sum_T (-1)^(|T|+1) p^|union T|."""
    coeffs = [0] * (n + 1)
    for r in range(1, len(min_bits) + 1):
        sign = 1 if r % 2 else -1
        for combo in itertools.combinations(min_bits, r):
            coeffs[bin(functools.reduce(operator.or_, combo)).count("1")] += sign
    return tuple(coeffs)


def naive_sigma(sets_bits: list[int], k: int, n: int) -> int:
    """Union over all k-subsets of the intersections, straight from the
    definition."""
    out = 0
    full = (1 << n) - 1
    for combo in itertools.combinations(sets_bits, k):
        inter = full
        for b in combo:
            inter &= b
        out |= inter
    return out


def _candidates(min_bits: list[int]) -> list[int]:
    cands = set()
    for m in min_bits:
        sub = m
        while sub:
            cands.add(sub)
            sub = (sub - 1) & m
    return sorted(cands)


def subset_pipeline_candidates(min_bits: list[int]) -> list[int]:
    """Cover candidates the long way, in canonical (popcount, value) order.

    Takes every nonempty subset of every minimal, keeps the largest subset
    per coverage (the set of minimals containing it), then drops any kept
    subset for which a strictly larger kept subset covers a superset of its
    minimals.
    """
    by_cov: dict[frozenset[int], int] = {}
    for s in _candidates(min_bits):
        cov = frozenset(i for i, m in enumerate(min_bits) if s & m == s)
        best = by_cov.get(cov)
        if best is None or bin(s).count("1") > bin(best).count("1"):
            by_cov[cov] = s
    kept = [
        s
        for cov, s in by_cov.items()
        if not any(
            bin(t).count("1") > bin(s).count("1") and cov <= other
            for other, t in by_cov.items()
        )
    ]
    return sorted(kept, key=lambda b: (bin(b).count("1"), b))


def naive_min_cover_cost(min_bits: list[int], p: float) -> float:
    """Exact minimum cover weight by exhausting per-minimal assignments.

    Every cover contains, for each minimal element, at least one element
    beneath it; the union of one such choice per minimal is again a cover
    of no greater weight, so the minimum over all assignments equals the
    minimum over all covers. Branches are abandoned once their partial
    weight already matches the best complete cover.
    """
    per_min = []
    for m in min_bits:
        subs = []
        sub = m
        while sub:
            subs.append(sub)
            sub = (sub - 1) & m
        per_min.append(subs)
    best = [math.fsum(p ** bin(m).count("1") for m in min_bits)]

    def rec(i: int, chosen: frozenset[int], acc: float) -> None:
        if acc >= best[0]:
            return
        if i == len(per_min):
            best[0] = acc
            return
        if any(c & min_bits[i] == c for c in chosen):
            rec(i + 1, chosen, acc)
            return
        for s in per_min[i]:
            rec(i + 1, chosen | {s}, acc + p ** bin(s).count("1"))

    rec(0, frozenset(), 0.0)
    return best[0]


def subset_enumeration_min_cover_cost(min_bits: list[int], p: float) -> float | None:
    """Literal minimum over all subsets of the candidate pool; None when the
    pool is too large to exhaust."""
    cands = _candidates(min_bits)
    if len(cands) > 16:
        return None
    best = None
    for r in range(1, len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            if all(any(c & m == c for c in combo) for m in min_bits):
                cost = math.fsum(p ** bin(c).count("1") for c in combo)
                if best is None or cost < best:
                    best = cost
    return best


def naive_q(min_bits: list[int], iters: int = 60) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if naive_min_cover_cost(min_bits, mid) <= 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exhaustive_p_small(min_bits: list[int], p: float) -> bool:
    """True iff some cover by intersections of the minimals weighs <= 1/2
    at p, summed by ``math.fsum``.

    Every cover of at most |F0| elements of the intersection closure is
    tried. That suffices: any cover holds a subcover of one element per
    minimal, which weighs no more.
    """
    closure = {
        functools.reduce(operator.and_, combo)
        for r in range(1, len(min_bits) + 1)
        for combo in itertools.combinations(min_bits, r)
    } - {0}
    full = (1 << len(min_bits)) - 1
    coverage = {
        c: sum(1 << i for i, m in enumerate(min_bits) if c & m == c) for c in closure
    }
    for r in range(1, len(min_bits) + 1):
        for combo in itertools.combinations(sorted(closure), r):
            if functools.reduce(operator.or_, map(coverage.get, combo)) == full:
                if math.fsum(p ** bin(c).count("1") for c in combo) <= 0.5:
                    return True
    return False


def naive_dim(min_bits: list[int], n: int, candidate_bits: list[int] | None = None) -> int:
    """Smallest cover cardinality by exhausting combinations of candidate
    elements (all nonempty masks by default) in increasing size."""
    if candidate_bits is None:
        candidate_bits = list(range(1, 1 << n))
    for r in range(1, len(min_bits) + 1):
        for combo in itertools.combinations(candidate_bits, r):
            if all(any(c & m == c for c in combo) for m in min_bits):
                return r
    raise AssertionError("no cover found; inputs are not a valid antichain")


def block_cover_dimension(min_bits: list[int], n: int, convention: str) -> int:
    """The covering dimension by a memoized DP over the uncovered minimals.

    A copy of the dimension solver as it stood before the dimension moved
    onto the q cover search, less its witness reconstruction: within_family
    offers each minimal as its own block; unrestricted offers, per ground
    element x, the intersection of the minimals through x, deduplicated by
    the block of minimals it covers.
    """
    m = len(min_bits)
    if convention == "within_family":
        candidates = [(mb, 1 << i) for i, mb in enumerate(min_bits)]
    else:
        seen_blocks: dict[int, int] = {}
        for x in range(n):
            block = 0
            for i, mb in enumerate(min_bits):
                if mb >> x & 1:
                    block |= 1 << i
            if block:
                seen_blocks.setdefault(block, 0)
        candidates = []
        for block in seen_blocks:
            inter = (1 << n) - 1
            for i, mb in enumerate(min_bits):
                if block >> i & 1:
                    inter &= mb
            candidates.append((inter, block))

    per_min: list[list[int]] = [[] for _ in range(m)]
    for j, (_, cov) in enumerate(candidates):
        for i in range(m):
            if cov >> i & 1:
                per_min[i].append(j)

    @functools.lru_cache(maxsize=None)
    def best(uncovered: int) -> int:
        if uncovered == 0:
            return 0
        bi, blen = -1, 1 << 30
        for i in range(m):
            if uncovered >> i & 1 and len(per_min[i]) < blen:
                bi, blen = i, len(per_min[i])
        return 1 + min(best(uncovered & ~candidates[j][1]) for j in per_min[bi])

    return best((1 << m) - 1)


def connectivity_profile(n: int) -> list[int]:
    """Count spanning connected edge subsets of K_n by size via union-find."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(edges)
    counts = [0] * (m + 1)
    for bits in range(1 << m):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        k = 0
        for i, (a, b) in enumerate(edges):
            if bits >> i & 1:
                k += 1
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        if len({find(v) for v in range(n)}) == 1:
            counts[k] += 1
    return counts


class EagerSearch:
    """The cover search with every table built up front.

    The decision search of ``expectation._Search`` written out plainly,
    less the node budget: every branch order is sorted at construction, the
    counting bound scans every candidate at every node, the root included,
    and costs are summed exactly, as fractions over the common denominator
    of the powers of p. It reads the preprocessed problem (minimal and
    candidate masks, coverages, per-minimal candidate lists) and nothing
    else, so the search can be checked against it for the same answers and
    the same node counts.
    """

    def __init__(self, prob, p: float):
        self.prob = prob
        self.p = p
        self.cost = tuple(p**k for k in prob.cand_sizes)
        self.min_cost = tuple(p**k for k in prob.min_sizes)
        exact = [Fraction(c) for c in self.cost]
        self.scale = max((c.denominator for c in exact), default=1)
        self.units = tuple(int(c * self.scale) for c in exact)
        self.nodes = 0
        self.branch_order = tuple(
            tuple(
                sorted(
                    cands,
                    key=lambda j: (self.cost[j] / prob.cand_cov[j].bit_count(), j),
                )
            )
            for cands in prob.per_min
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

    def decide(self, threshold: float) -> list[int] | None:
        prob = self.prob
        seen: dict[int, int] = {}

        def dfs(uncovered: int, acc: int) -> list[int] | None:
            self.nodes += 1
            if uncovered == 0:
                return [] if acc / self.scale <= threshold else None
            prev = seen.get(uncovered)
            if prev is not None and acc >= prev:
                return None
            seen[uncovered] = acc
            if acc / self.scale + self.lower_bound(uncovered) > threshold + 1e-12:
                return None
            bi = self._pick_branch(uncovered)
            for j in self.branch_order[bi]:
                rest = dfs(uncovered & ~prob.cand_cov[j], acc + self.units[j])
                if rest is not None:
                    return [j] + rest
            return None

        return dfs(prob.full, 0)


def bisection_threshold(upper, tol: float = 1e-9) -> tuple[float, float]:
    """The final bracket [lo, hi] of a plain bisection for q(F) that runs an
    exact ``decide`` at every midpoint.

    A copy of the expectation threshold loop from before q was read off the
    climbed cover. ``decide`` found a cover at lo (or lo = 0) and returned
    None at hi (or hi = 1). It calls the package's cover search for each
    decision, so it checks where q lands, not the search itself.
    """
    from upsetkit.expectation import _problem, _Search

    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    prob = _problem(upper)
    lo, hi = 0.0, 1.0
    for _ in range(64):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if _Search(prob, mid).decide(0.5) is not None:
            lo = mid
        else:
            hi = mid
    return lo, hi
