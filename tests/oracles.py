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
import struct
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


def member_counts(min_bits: list[int], n: int) -> list[int]:
    """N_k, the number of subsets of size k that contain some minimal,
    counted over all 2^n subsets."""
    counts = [0] * (n + 1)
    for s in range(1 << n):
        if any(m & s == m for m in min_bits):
            counts[bin(s).count("1")] += 1
    return counts


def per_minimal_profile(min_bits: list[int], n: int) -> tuple[tuple[int, ...], int]:
    """(N_k for k = 0..n, the numerically smallest largest non-member), from
    one numpy pass over all 2^n subsets per minimal, with no closure and no
    slices."""
    import numpy as np

    subs = np.arange(1 << n, dtype=np.uint32)
    member = np.zeros(1 << n, dtype=bool)
    for m in min_bits:
        mm = np.uint32(m)
        member |= (subs & mm) == mm
    sizes = np.bitwise_count(subs)
    counts = np.bincount(sizes[member], minlength=n + 1)
    # Members are nonempty, so zeroing their sizes ties them with the empty
    # set at index 0, a non-member; argmax then takes the first, i.e. the
    # numerically and so canonically smallest, among the largest non-members.
    sizes[member] = 0
    return tuple(int(c) for c in counts), int(np.argmax(sizes))


def coeffs_from_profile(counts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The coefficients c_j of mu(p) = sum_j c_j p^j from the profile N_k of
    mu(p) = sum_k N_k p^k (1-p)^(n-k): expanding (1-p)^(n-k) gives
    c_j = sum_{k <= j} N_k (-1)^(j-k) C(n-k, j-k), exactly in integers."""
    return tuple(
        sum(counts[k] * (-1) ** (j - k) * math.comb(n - k, j - k) for k in range(j + 1))
        for j in range(n + 1)
    )


def profile_sign(counts: list[int], n: int):
    """p -> the sign of mu(p) - 1/2 for mu(p) = sum_k N_k p^k (1-p)^(n-k),
    exactly: for a float p = a / 2^e in (0, 1), the big-int sum
    sum_k N_k a^k (2^e - a)^(n-k) against 2^(e n - 1)."""

    def sign(p: float) -> int:
        a, d = p.as_integer_ratio()  # d = 2^e
        total = sum(c * a**k * (d - a) ** (n - k) for k, c in enumerate(counts))
        half = d**n // 2
        return (total > half) - (total < half)

    return sign


def coeffs_sign(coeffs: tuple[int, ...]):
    """p -> the sign of mu(p) - 1/2 for mu(p) = sum_j c_j p^j, exactly: for
    a float p = a / 2^e in (0, 1), the big-int sum sum_j c_j a^j 2^(e(J-j))
    against 2^(e J - 1), J the top degree."""
    top = len(coeffs) - 1

    def sign(p: float) -> int:
        a, d = p.as_integer_ratio()
        total = sum(c * a**j * d ** (top - j) for j, c in enumerate(coeffs))
        half = d**top // 2
        return (total > half) - (total < half)

    return sign


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(b: int) -> float:
    return struct.unpack("<d", struct.pack("<q", b))[0]


def exact_root_bracket(sign) -> tuple[float, float]:
    """The adjacent floats lo < hi between which the exact mu - 1/2 changes
    sign, or (p, p) when mu(p) = 1/2 exactly at a float p.

    Bisects over the bit patterns of the floats in [0, 1], which order like
    the floats, taking each sign from ``sign`` (``profile_sign`` or
    ``coeffs_sign``); mu - 1/2 is -1/2 at 0 and +1/2 at 1.
    """
    lo, hi = _float_bits(0.0), _float_bits(1.0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = sign(_bits_float(mid))
        if s == 0:
            return _bits_float(mid), _bits_float(mid)
        if s < 0:
            lo = mid
        else:
            hi = mid
    return _bits_float(lo), _bits_float(hi)


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


def minimal_closure(min_bits: list[int]) -> set[int]:
    """Nonempty intersections of subfamilies of the minimals, grown one
    minimal at a time: the closure of M_1..M_k is that of M_1..M_{k-1},
    plus M_k, plus M_k intersected with each of its members. The cover
    search's candidate builder as it stood before it closed the element
    extents, less its cap."""
    closure: set[int] = set()
    for mb in min_bits:
        closure |= {s & mb for s in closure}
        closure.add(mb)
        closure.discard(0)
    return closure


def element_blocks(min_bits: list[int], n: int) -> set[int]:
    """The intersection of the minimals through x, for each ground element
    x that lies in some minimal."""
    out = set()
    for x in range(n):
        through = [mb for mb in min_bits if mb >> x & 1]
        if through:
            out.add(functools.reduce(operator.and_, through))
    return out


def naive_min_cover_cost(min_bits: list[int], p):
    """Minimum cover weight by exhausting per-minimal assignments, summed in
    p's type: a ``Fraction`` p gives the exact weight.

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
    best = [sum(p ** bin(m).count("1") for m in min_bits)]

    def rec(i: int, chosen: frozenset[int], acc) -> None:
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

    rec(0, frozenset(), 0)
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


def exact_weight(masks, p: float) -> Fraction:
    """The real weight sum p^{|S|} of a family of masks, in ``Fraction``s."""
    return sum((Fraction(p) ** bin(s).count("1") for s in masks), Fraction(0))


def naive_q(min_bits: list[int], iters: int = 60) -> float:
    """Bisection for q, weighing each midpoint's cheapest cover exactly."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if naive_min_cover_cost(min_bits, Fraction(mid)) <= Fraction(1, 2):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exhaustive_p_small(min_bits: list[int], p: float) -> bool:
    """True iff some cover by intersections of the minimals weighs <= 1/2
    at p, weighed exactly: ``Fraction`` weights over their common denominator.

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
    # each weight as an integer over the weights' common denominator
    weight = {c: exact_weight([c], p) for c in closure}
    den = math.lcm(*(w.denominator for w in weight.values()))
    units = {c: int(w * den) for c, w in weight.items()}
    for r in range(1, len(min_bits) + 1):
        for combo in itertools.combinations(sorted(closure), r):
            if functools.reduce(operator.or_, map(coverage.get, combo)) == full:
                if 2 * sum(map(units.get, combo)) <= den:
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


def naive_antichain(bits: list[int]) -> tuple[int, ...]:
    """The distinct masks with no other input mask as a proper subset,
    sorted by (popcount, value)."""
    distinct = set(bits)
    kept = [b for b in distinct if not any(o != b and o & b == o for o in distinct)]
    return tuple(sorted(kept, key=lambda b: (bin(b).count("1"), b)))


def k_n_edges(n: int) -> list[tuple[int, int]]:
    """The edges of K_n in ground-index order: pairs (a, b), a < b, lexicographically."""
    return list(itertools.combinations(range(n), 2))


def _mask(edge_ids) -> int:
    return sum(1 << i for i in edge_ids)


def spanning_tree_masks(n: int) -> set[int]:
    """Masks of the (n-1)-edge subsets of K_n that connect all n vertices."""
    edges = k_n_edges(n)
    out = set()
    for ids in itertools.combinations(range(len(edges)), n - 1):
        reached, grew = {0}, True
        while grew:
            grew = False
            for i in ids:
                a, b = edges[i]
                if (a in reached) != (b in reached):
                    reached |= {a, b}
                    grew = True
        if len(reached) == n:
            out.add(_mask(ids))
    return out


def copy_masks(n: int, h_edges: list[tuple[int, int]]) -> set[int]:
    """Masks of the edge subsets of K_n that form a graph isomorphic to H
    (H without isolated vertices), found by trying every vertex bijection."""
    edges = k_n_edges(n)
    h = {frozenset(e) for e in h_edges}
    h_verts = sorted({v for e in h_edges for v in e})
    out = set()
    for ids in itertools.combinations(range(len(edges)), len(h)):
        verts = sorted({v for i in ids for v in edges[i]})
        if len(verts) != len(h_verts):
            continue
        for image in itertools.permutations(h_verts):
            to_h = dict(zip(verts, image))
            if {frozenset(to_h[v] for v in edges[i]) for i in ids} == h:
                out.add(_mask(ids))
                break
    return out


def injective_images(n: int, h_edges: list[tuple[int, int]]) -> set[int]:
    """Masks of H's images in K_n under every injective map of its vertices
    into {0..n-1}, in one pass over all k-permutations of n: the generator
    as it stood before it carried H's images on 0..k-1 onto the other
    k-subsets."""
    index = {e: i for i, e in enumerate(k_n_edges(n))}
    verts = sorted({v for e in h_edges for v in e})
    out = set()
    for target in itertools.permutations(range(n), len(verts)):
        to = dict(zip(verts, target))
        out.add(_mask({index[tuple(sorted((to[u], to[v])))] for u, v in h_edges}))
    return out


class EagerSearch:
    """The cover search with every table built up front.

    The decision search of ``expectation._Search`` written out plainly,
    less the node budget: each node branches on the lowest uncovered
    minimal, every branch order is sorted at construction, the counting
    bound's ratio is the least cost / |cov| over every candidate, taken
    once at construction, and weights are summed exactly, as fractions
    over the common denominator of the real powers of p, and compared
    exactly at a leaf. It reads the preprocessed problem (minimal and
    candidate masks and coverages) and nothing else, and builds its own
    per-minimal candidate lists from the coverages, so the search can be
    checked against it for the same answers and the same node counts.
    """

    def __init__(self, prob, p: float):
        self.prob = prob
        self.p = p
        self.cost = tuple(p**k for k in prob.cand_sizes)
        self.min_cost = tuple(p**k for k in prob.min_sizes)
        exact = [Fraction(p) ** k for k in prob.cand_sizes]
        self.scale = max((c.denominator for c in exact), default=1)
        self.units = tuple(int(c * self.scale) for c in exact)
        self.ratio = min(self.cost[j] / c.bit_count() for j, c in enumerate(prob.cand_cov))
        self.nodes = 0
        self.branch_order = tuple(
            tuple(
                sorted(
                    cands,
                    key=lambda j: (self.cost[j] / prob.cand_cov[j].bit_count(), j),
                )
            )
            for cands in (
                [j for j, c in enumerate(prob.cand_cov) if c >> i & 1]
                for i in range(len(prob.min_bits))
            )
        )

    def lower_bound(self, uncovered: int) -> float:
        return max(uncovered.bit_count() * self.ratio, self.packing(uncovered))

    def packing(self, uncovered: int) -> float:
        """The packing bound: the costs of the uncovered minimals taken in
        F0's order, each disjoint from those taken before it."""
        blocked = 0
        packing = 0.0
        for i, mb in enumerate(self.prob.min_bits):
            if uncovered >> i & 1 and not (mb & blocked):
                packing += self.min_cost[i]
                blocked |= mb
        return packing

    def decide(self, threshold: float) -> list[int] | None:
        prob = self.prob
        seen: dict[int, int] = {}

        def dfs(uncovered: int, acc: int) -> list[int] | None:
            self.nodes += 1
            if uncovered == 0:
                return [] if Fraction(acc, self.scale) <= Fraction(threshold) else None
            prev = seen.get(uncovered)
            if prev is not None and acc >= prev:
                return None
            seen[uncovered] = acc
            if acc / self.scale + self.lower_bound(uncovered) > threshold + 1e-12:
                return None
            bi = (uncovered & -uncovered).bit_length() - 1
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


def tribes(w: int, m: int) -> tuple[int, list[int], dict[str, float]]:
    """m disjoint blocks of w elements, and F is "some block is full".

    Returns the ground size, the minimals (the blocks) and the closed forms
    of q, p_c and dim. mu = 1 - (1 - p^w)^m gives p_c; every cover element
    lies inside one block and costs at least p^w, so the blocks are a
    cheapest cover and q = (2m)^(-1/w); a hitting set needs one element per
    block, so dim = m.
    """
    blocks = [((1 << w) - 1) << (w * j) for j in range(m)]
    forms = {"q": (2 * m) ** (-1 / w), "p_c": (1 - 2 ** (-1 / m)) ** (1 / w), "dim": m}
    return w * m, blocks, forms


def cnf(w: int, m: int) -> tuple[int, list[int], dict[str, float]]:
    """m disjoint clauses of w elements, and F is "the set meets every
    clause": the dual of ``tribes``.

    Returns the ground size, the minimals (the w^m transversals) and the
    closed forms of q, p_c and dim. mu = (1 - (1 - p)^w)^m gives p_c. An
    element S covers a w^(-|S|) share of the transversals, so a cover has
    sum w^(-|S|) >= 1, and with pw < 1 it weighs at least (pw)^m, which the
    transversals attain: q = 2^(-1/m) / w. A set hits every transversal iff
    it holds a whole clause, so dim = w.
    """
    clauses = [[1 << (w * j + i) for i in range(w)] for j in range(m)]
    transversals = [functools.reduce(operator.or_, pick) for pick in itertools.product(*clauses)]
    forms = {"q": 2 ** (-1 / m) / w, "p_c": 1 - (1 - 2 ** (-1 / m)) ** (1 / w), "dim": w}
    return w * m, transversals, forms
