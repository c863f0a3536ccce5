"""Covering dimension and lattice elementary symmetric polynomials.

sigma_k of masks S_1..S_m is the union of all k-wise intersections, which
equals the set of ground elements lying in at least k of the S_i; the
counting form is O(m*n) and the combinatorial definition stays available
as a test oracle.

The covering dimension of F is the minimum size of a nontrivial cover.
Under the unrestricted convention a cover element S serves exactly the
minimals containing S, so an optimal cover groups the minimal elements
into blocks with nonempty common intersection; equivalently dim(F) is the
minimum number of ground elements hitting every minimal element, and each
chosen element x is witnessed by the intersection of all minimals through
x. Under the within_family convention every witness must itself belong to
F, which for an antichain forces the witness set to be the minimals
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import Cover, SubsetMask, UpperSet, canonical_key
from .errors import KOutOfRange, SizeLimitExceeded, WidthMismatch

DIMENSION_MINIMALS_CAP = 16

CONVENTIONS = ("unrestricted", "within_family")


@dataclass(frozen=True)
class SigmaResult:
    k: int
    value: SubsetMask


@dataclass(frozen=True)
class DimensionResult:
    dim: int
    witness: Cover
    convention: str


def sigma_k(sets: Sequence[SubsetMask], k: int) -> SigmaResult:
    """Union of all k-wise intersections of ``sets`` (elements in >= k of them)."""
    if not sets or not 1 <= k <= len(sets):
        raise KOutOfRange(f"k must satisfy 1 <= k <= {len(sets)}, got {k}")
    width = sets[0].width
    for s in sets[1:]:
        if s.width != width:
            raise WidthMismatch("sigma_k inputs must share one ground set")
    counts = [0] * width
    for s in sets:
        b = s.bits
        while b:
            low = b & -b
            counts[low.bit_length() - 1] += 1
            b ^= low
    bits = 0
    for i, c in enumerate(counts):
        if c >= k:
            bits |= 1 << i
    return SigmaResult(k, SubsetMask(width, bits))


def max_nonempty_sigma_index(upper: UpperSet) -> int:
    """Largest m with sigma_m over the minimal elements nonempty.

    sigma_1 is the union of the minimals, hence nonempty, and emptiness is
    monotone in k, so the answer is found by binary search.
    """
    sets = list(upper.minimals)
    lo, hi = 1, len(sets)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sigma_k(sets, mid).value.is_empty:
            hi = mid - 1
        else:
            lo = mid
    return lo


def dim_upper_bound_via_sigma(upper: UpperSet) -> int:
    """|F0| + 1 - max{m : sigma_m nonempty}, an upper bound for dim(F)."""
    return len(upper.minimals) + 1 - max_nonempty_sigma_index(upper)


def _min_block_cover(
    min_bits: tuple[int, ...], candidates: list[tuple[int, int]]
) -> tuple[int, list[int]]:
    """Minimum number of candidate blocks covering every minimal element.

    ``candidates`` holds (witness_bits, coverage) pairs; coverage is a
    bitmask over minimal indices. Exact DP memoized on the uncovered set,
    branching on the uncovered minimal with the fewest live candidates;
    reconstruction picks the canonically smallest witness at each step.
    """
    m = len(min_bits)
    full = (1 << m) - 1
    per_min: list[list[int]] = [[] for _ in range(m)]
    for j, (_, cov) in enumerate(candidates):
        for i in range(m):
            if cov >> i & 1:
                per_min[i].append(j)
    order = sorted(range(len(candidates)), key=lambda j: canonical_key(candidates[j][0]))
    rank = {j: r for r, j in enumerate(order)}
    for i in range(m):
        per_min[i].sort(key=lambda j: rank[j])

    from functools import lru_cache as _memo

    @_memo(maxsize=None)
    def best(uncovered: int) -> int:
        if uncovered == 0:
            return 0
        bi, blen = -1, 1 << 30
        for i in range(m):
            if uncovered >> i & 1 and len(per_min[i]) < blen:
                bi, blen = i, len(per_min[i])
        return 1 + min(best(uncovered & ~candidates[j][1]) for j in per_min[bi])

    total = best(full)
    chosen: list[int] = []
    uncovered = full
    while uncovered:
        target = best(uncovered)
        bi, blen = -1, 1 << 30
        for i in range(m):
            if uncovered >> i & 1 and len(per_min[i]) < blen:
                bi, blen = i, len(per_min[i])
        for j in per_min[bi]:
            if 1 + best(uncovered & ~candidates[j][1]) == target:
                chosen.append(j)
                uncovered &= ~candidates[j][1]
                break
    best.cache_clear()
    return total, chosen


def covering_dimension(upper: UpperSet, convention: str = "unrestricted") -> DimensionResult:
    """Minimum cardinality of a nontrivial cover, with a witness of that size."""
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    min_bits = upper.minimal_bits
    if len(min_bits) > DIMENSION_MINIMALS_CAP:
        raise SizeLimitExceeded(
            f"exact dimension search needs |F0| <= {DIMENSION_MINIMALS_CAP}, "
            f"got {len(min_bits)}"
        )
    n = upper.ground_size

    if convention == "within_family":
        # A member of F that fits under a minimal element must equal it, so
        # the only candidate witnesses are the minimals, each covering itself.
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

    dim, chosen = _min_block_cover(min_bits, candidates)
    witness = Cover.from_masks(SubsetMask(n, candidates[j][0]) for j in chosen)
    return DimensionResult(dim, witness, convention)


@lru_cache(maxsize=1024)
def cached_dimension(upper: UpperSet, convention: str = "unrestricted") -> DimensionResult:
    """Memoized covering_dimension; the size and its witness are computed once."""
    return covering_dimension(upper, convention)


def cached_dim(upper: UpperSet, convention: str = "unrestricted") -> int:
    return cached_dimension(upper, convention).dim


def clear_caches() -> None:
    cached_dimension.cache_clear()
