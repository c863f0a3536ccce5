"""Covering dimension and lattice elementary symmetric polynomials.

sigma_k of int masks S_1..S_m is the union of all k-wise intersections,
which equals the set of ground elements lying in at least k of the S_i.
The counting form reads each element's count off its extent, the mask of
the S_i through it (``core.extents``), in one pass over the S_i's bits;
over the minimal elements, ``minimal_sigma_sequence`` reads every sigma_k
from that one pass, and ``max_nonempty_sigma_index`` the largest count.
``sigma_k`` stays as the definition, and the combinatorial one stays
available as a test oracle.

The incidence of an instance's minimal elements is shared: the cover
problem of q, the covering dimension (its blocks and its enumeration
witness), ``max_nonempty_sigma_index`` and ``minimal_sigma_sequence`` all
read ``core.element_extents``, which computes it once per instance.
``Cover.covers``, which rechecks the witnesses, does not read it.

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
search that gives q (``expectation``), run at p = 1 over the blocks: the
intents of the single-element extents, one per distinct nonzero extent,
each covering exactly the minimals of its extent. There every candidate
costs 1, so the cheapest cover is a smallest one, and the search's descent
ends on one such cover, chosen deterministically, as the witness.
Restricting the witnesses to members of F would force them to be the
minimals themselves, so that dimension is |F0|, which the reports print
beside dim(F) with no search.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from . import measure
from .core import Cover, UpperSet, bit_indices, element_extents, extents, intent
from .errors import KOutOfRange, SizeLimitExceeded
from .expectation import _CoverProblem, _Search

# the cover search's limit, which applies only past measure.AUTO_ENUMERATION_CAP
DIMENSION_MINIMALS_CAP = 16


@dataclass(frozen=True)
class DimensionResult:
    dim: int
    witness: Cover


def sigma_k(masks: Sequence[int], k: int) -> int:
    """Union of all k-wise intersections of ``masks`` (elements in >= k of them)."""
    if not masks or not 1 <= k <= len(masks):
        raise KOutOfRange(f"k must satisfy 1 <= k <= {len(masks)}, got {k}")
    bits = 0
    for x, e in enumerate(extents(masks)):
        if e.bit_count() >= k:
            bits |= 1 << x
    return bits


def minimal_sigma_sequence(upper: UpperSet) -> list[int]:
    """[sigma_1, ..., sigma_m] of the m minimal elements, read off the
    instance's memoized incidence: sigma_k is the union of the elements in
    exactly j minimals over j >= k."""
    by_count = [0] * (len(upper.minimal_bits) + 1)
    for x, e in enumerate(element_extents(upper)):
        by_count[e.bit_count()] |= 1 << x
    return list(accumulate(reversed(by_count[1:]), operator.or_))[::-1]


def max_nonempty_sigma_index(upper: UpperSet) -> int:
    """Largest k with sigma_k over the minimal elements nonempty.

    sigma_k is the set of elements in at least k minimals, so this is the
    largest number of minimals through a single element.
    """
    return max(map(int.bit_count, element_extents(upper)))


def dim_upper_bound_via_sigma(upper: UpperSet) -> int:
    """|F0| + 1 - max{m : sigma_m nonempty}, an upper bound for dim(F).

    It stays while the benchmark's tracing wraps it by name."""
    return len(upper.minimal_bits) + 1 - max_nonempty_sigma_index(upper)


def _block_problem(upper: UpperSet) -> _CoverProblem:
    """The p = 1 cover problem of the dimension: one candidate per distinct
    nonempty block, the intersection of the minimals through a ground
    element, which covers exactly those minimals (the element's extent)."""
    min_bits = upper.minimal_bits
    return _CoverProblem(min_bits, {e: intent(min_bits, e) for e in element_extents(upper) if e})


def covering_dimension(upper: UpperSet) -> DimensionResult:
    """Minimum cardinality of a nontrivial cover, with a witness of that size."""
    min_bits = upper.minimal_bits
    n = upper.ground_size
    if n <= measure.AUTO_ENUMERATION_CAP:
        # The complement of a largest non-member is a smallest hitting set; its
        # elements' blocks are distinct (two equal ones would make one of
        # the elements redundant), so they form a cover of that size.
        hitting = ((1 << n) - 1) & ~measure._enumeration_profile(upper).largest_non_member
        through = element_extents(upper)
        blocks = [intent(min_bits, through[x]) for x in bit_indices(hitting)]
        return DimensionResult(len(blocks), Cover.from_masks(n, blocks))
    if len(min_bits) > DIMENSION_MINIMALS_CAP:
        raise SizeLimitExceeded(
            f"exact dimension needs ground_size <= {measure.AUTO_ENUMERATION_CAP} "
            f"(enumeration) or |F0| <= {DIMENSION_MINIMALS_CAP} (cover search), "
            f"got ground_size {n} and |F0| {len(min_bits)}"
        )
    prob = _block_problem(upper)
    _, chosen = _Search(prob, 1.0).optimize()
    return DimensionResult(len(chosen), Cover.from_masks(n, (prob.cand_bits[j] for j in chosen)))


@lru_cache(maxsize=1024)
def cached_dim(upper: UpperSet) -> int:
    """Memoized covering dimension. No library path calls it; it stays
    while the benchmark's tracing wraps it by name."""
    return covering_dimension(upper).dim


def clear_caches() -> None:
    cached_dim.cache_clear()
