"""Covering dimension and lattice elementary symmetric polynomials.

sigma_k of masks S_1..S_m is the union of all k-wise intersections, which
equals the set of ground elements lying in at least k of the S_i; the
counting form is O(m*n) and the combinatorial definition stays available
as a test oracle.

The covering dimension of F is the minimum size of a nontrivial cover.
Any nonempty set may be a cover element; an element S serves exactly the
minimals containing S, so an optimal cover groups the minimal elements
into blocks with nonempty common intersection; equivalently dim(F) is the
minimum number of ground elements hitting every minimal element, and each
chosen element x is witnessed by the intersection of all minimals through
x. A set H hits every minimal iff its complement is not in F, so
dim(F) = n - (size of a largest non-member of F). The enumeration profile
(``measure``) finds a largest non-member S in its pass over all 2^n
subsets, and the elements outside S give the witness; for ground sets up
to ``measure.AUTO_ENUMERATION_CAP`` this is how dim is read, at no cost
beyond a profile p_c already uses. Past that, dim comes from the cover
search that gives q (``expectation``), run at p = 1 over the same
intersections: there every candidate costs 1, so the cheapest cover is a
smallest one, and the search's descent ends on one such cover, chosen
deterministically, as the witness. Restricting the witnesses to members
of F would force them to be the minimals themselves, so that dimension
is |F0|, which the reports print beside dim(F) with no search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

from . import measure
from .core import Cover, SubsetMask, UpperSet, canonical_key
from .errors import KOutOfRange, SizeLimitExceeded, WidthMismatch
from .expectation import _CoverProblem, _Search, _to_cover

# the cover search's limit, which applies only past measure.AUTO_ENUMERATION_CAP
DIMENSION_MINIMALS_CAP = 16


@dataclass(frozen=True)
class SigmaResult:
    k: int
    value: SubsetMask


@dataclass(frozen=True)
class DimensionResult:
    dim: int
    witness: Cover


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
    """Largest k with sigma_k over the minimal elements nonempty.

    sigma_k is the set of elements in at least k minimals, so this is the
    largest number of minimals through a single element.
    """
    mins = upper.minimal_bits
    return max(sum(b >> x & 1 for b in mins) for x in range(upper.ground_size))


def dim_upper_bound_via_sigma(upper: UpperSet) -> int:
    """|F0| + 1 - max{m : sigma_m nonempty}, an upper bound for dim(F)."""
    return len(upper.minimal_bits) + 1 - max_nonempty_sigma_index(upper)


def _block(min_bits: tuple[int, ...], x: int) -> int:
    """The intersection of the minimals through ground element x (0 if none):
    the cover element that serves x best, covering exactly those minimals."""
    through = [mb for mb in min_bits if mb >> x & 1]
    return reduce(operator.and_, through) if through else 0


def _block_problem(upper: UpperSet) -> _CoverProblem:
    """The p = 1 cover problem of the dimension: one candidate per distinct
    nonempty block."""
    min_bits = upper.minimal_bits
    blocks = {_block(min_bits, x) for x in range(upper.ground_size)} - {0}
    return _CoverProblem(min_bits, tuple(sorted(blocks, key=canonical_key)))


def covering_dimension(upper: UpperSet) -> DimensionResult:
    """Minimum cardinality of a nontrivial cover, with a witness of that size."""
    min_bits = upper.minimal_bits
    n = upper.ground_size
    if n <= measure.AUTO_ENUMERATION_CAP:
        # The complement of a largest non-member is a smallest hitting set; its
        # elements' blocks are distinct (two equal ones would make one of
        # the elements redundant), so they form a cover of that size.
        hitting = ((1 << n) - 1) & ~measure._enumeration_profile(upper).largest_non_member
        blocks = [_block(min_bits, x) for x in range(n) if hitting >> x & 1]
        return DimensionResult(len(blocks), Cover.from_masks(SubsetMask(n, b) for b in blocks))
    if len(min_bits) > DIMENSION_MINIMALS_CAP:
        raise SizeLimitExceeded(
            f"exact dimension needs ground_size <= {measure.AUTO_ENUMERATION_CAP} "
            f"(enumeration) or |F0| <= {DIMENSION_MINIMALS_CAP} (cover search), "
            f"got ground_size {n} and |F0| {len(min_bits)}"
        )
    prob = _block_problem(upper)
    _, chosen = _Search(prob, 1.0).optimize()
    return DimensionResult(len(chosen), _to_cover(upper, prob, chosen))


@lru_cache(maxsize=1024)
def cached_dim(upper: UpperSet) -> int:
    """Memoized covering dimension."""
    return covering_dimension(upper).dim


def clear_caches() -> None:
    cached_dim.cache_clear()
