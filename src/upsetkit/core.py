"""Ground sets, subset masks, upper sets, and covers.

The ground set is always {0, ..., n-1}. A subset is a plain int bitmask
(bit i set = i present); ``bit_indices`` lists its elements. An upper set
(nontrivial monotone property) is stored as the int masks of its canonical
minimal antichain, which its one constructor reduces from any generating
list. ``SubsetMask`` is only the witness view: the type in which a
``Cover`` hands out its elements. All types are immutable values, so they
hash, compare, and share across workers safely.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import EmptyGenerators, SizeLimitExceeded, TrivialUpperSet

# Exact enumeration over 2^n stays feasible only for small n; construction
# refuses larger ground sets unless the caller opts into sampling-only use.
GROUND_SIZE_CAP = 30


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def extents(masks: Sequence[int]) -> list[int]:
    """The element-to-mask incidence: entry x has bit i set iff ``masks[i]``
    contains ground element x (x's extent), up to the highest element any
    of them holds."""
    out = [0] * max(masks, default=0).bit_length()
    for i, mb in enumerate(masks):
        bit = 1 << i
        while mb:
            low = mb & -mb
            out[low.bit_length() - 1] |= bit
            mb ^= low
    return out


def intent(masks: Sequence[int], extent: int) -> int:
    """The intersection of the ``masks`` whose indices ``extent`` holds
    (all ones when it holds none)."""
    acc = -1
    while extent:
        low = extent & -extent
        acc &= masks[low.bit_length() - 1]
        extent ^= low
    return acc


@dataclass(frozen=True)
class SubsetMask:
    """A subset of {0, ..., width-1} as a bit vector (bit i set = i present).

    The witness view: ``Cover`` hands out its elements in this type, and
    ``UpperSet.minimals`` lists the minimal elements in it, until the
    benchmark's checks read int masks; everything else works on ints.
    """

    width: int
    bits: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.bits < 0 or self.bits.bit_length() > self.width:
            raise ValueError(f"bits 0x{self.bits:x} out of range for width {self.width}")

    def indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.bits))

    def __repr__(self) -> str:
        return f"SubsetMask({self.width}, {{{', '.join(map(str, self.indices()))}}})"


def canonical_key(bits: int) -> tuple[int, int]:
    """Sort key for raw masks: (popcount, numeric value)."""
    return (bits.bit_count(), bits)


def _reduce_to_antichain(bits_list: Sequence[int]) -> tuple[int, ...]:
    """Keep the inclusion-minimal masks, canonically ordered.

    One scan in canonical order: distinct masks of equal popcount are never
    nested, so a mask is tested only against the kept masks of the popcount
    layers before its own.
    """
    kept: list[int] = []
    lower: tuple[int, ...] = ()  # kept masks of smaller popcount than b
    size = 0
    for b in sorted(set(bits_list), key=canonical_key):
        if b.bit_count() != size:
            size, lower = b.bit_count(), tuple(kept)
        for m in lower:
            if m & b == m:
                break
        else:
            kept.append(b)
    return tuple(kept)


def check_ground_cap(ground_size: int) -> None:
    """Raise ``ValueError`` below 1 and ``SizeLimitExceeded`` past ``GROUND_SIZE_CAP``."""
    if ground_size < 1:
        raise ValueError(f"ground_size must be positive, got {ground_size}")
    if ground_size > GROUND_SIZE_CAP:
        raise SizeLimitExceeded(
            f"ground_size {ground_size} exceeds exact-operation cap {GROUND_SIZE_CAP}"
        )


@dataclass(frozen=True)
class UpperSet:
    """A nontrivial monotone property, stored as its minimal antichain.

    ``UpperSet(ground_size, bits)`` is the one constructor. It takes any
    nonempty list of nonempty integer masks inside the ground set and keeps
    their inclusion-minimal masks as ``minimal_bits``, canonically ordered
    (popcount, then numeric value); duplicates and absorbed supersets are
    dropped. The property contains exactly the supersets of its minimal
    elements.

    ``minimals``, the same masks as ``SubsetMask`` values, is computed on
    first use and kept in the instance ``__dict__``; the fields stay frozen.
    It stays until the benchmark reads ``minimal_bits`` instead.
    """

    ground_size: int
    minimal_bits: tuple[int, ...]

    def __post_init__(self):
        n = self.ground_size
        check_ground_cap(n)
        bits = self.minimal_bits
        if not bits:
            raise EmptyGenerators("at least one generator is required")
        lo, hi = min(bits), max(bits)
        if lo < 0 or hi >> n:
            raise ValueError(f"minimal masks must lie inside the ground set of size {n}")
        if lo == 0:
            raise TrivialUpperSet("empty generator would make the property all of 2^X")
        object.__setattr__(self, "minimal_bits", _reduce_to_antichain(bits))

    @functools.cached_property
    def minimals(self) -> tuple[SubsetMask, ...]:
        return tuple(SubsetMask(self.ground_size, b) for b in self.minimal_bits)

    @property
    def ell0(self) -> int:
        """Size of the largest minimal element, the last in canonical order."""
        return self.minimal_bits[-1].bit_count()

    @property
    def ell(self) -> int:
        """ell0 floored at 2, the argument of the logarithm in the bounds."""
        return max(self.ell0, 2)

    def to_instance_dict(self) -> dict:
        return {
            "ground_size": self.ground_size,
            "minimal_elements": [list(bit_indices(m)) for m in self.minimal_bits],
        }

    def to_instance_json(self) -> str:
        return json.dumps(self.to_instance_dict())


@dataclass(frozen=True)
class Cover:
    """A witness family of nonempty masks; covers F when every minimal
    element of F contains some cover element. Its elements stay
    ``SubsetMask`` values until the benchmark's checks read int masks."""

    elements: tuple[SubsetMask, ...]

    def __post_init__(self):
        if any(not e.bits for e in self.elements):
            raise TrivialUpperSet("cover elements must be nonempty")

    @classmethod
    def from_masks(cls, width: int, masks: Iterable[int]) -> "Cover":
        """The cover by the distinct int ``masks``, in canonical order."""
        return cls(tuple(SubsetMask(width, b) for b in sorted(set(masks), key=canonical_key)))

    def covers(self, upper: UpperSet) -> bool:
        """Whether every minimal element contains some cover element: the
        OR of the elements' coverages (each the AND of its members'
        extents) is every minimal. An element with a member in no minimal
        covers nothing.

        It reads the same memoized incidence (``element_extents``) that
        the cover search builds its candidates from, so ``verify``'s
        witness rows are not independent of that incidence; the
        benchmark's own ``_covers`` check and the tests against the
        definition are."""
        ext = element_extents(upper)
        width = len(ext)
        covered = 0
        for e in self.elements:
            if not e.bits >> width:
                covered |= intent(ext, e.bits)
        return covered == (1 << len(upper.minimal_bits)) - 1

    def cost(self, p: float) -> float:
        """Sum of p^{|S|} over the elements, in canonical order."""
        return math.fsum(p ** e.bits.bit_count() for e in self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@functools.lru_cache(maxsize=256)
def element_extents(upper: UpperSet) -> tuple[int, ...]:
    """``extents`` of the minimal elements, computed once per instance: entry
    x is the mask of the minimals through ground element x."""
    return tuple(extents(upper.minimal_bits))


def clear_caches() -> None:
    element_extents.cache_clear()


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def parse_instance(data: str | dict) -> UpperSet:
    """Parse the JSON instance format.

    Expected shape: ``{"ground_size": n, "minimal_elements": [[i, ...], ...]}``.
    Input that is not an antichain (duplicates, nesting, empty sets) is
    rejected unless the document sets ``"normalize": true``, in which case
    it is antichain-reduced first.
    """
    if isinstance(data, str):
        try:
            doc = json.loads(data)
        except RecursionError:
            raise ValueError("instance document is nested too deeply") from None
    else:
        doc = data
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    try:
        ground_size = doc["ground_size"]
        elements = doc["minimal_elements"]
    except KeyError as missing:
        raise ValueError(f"instance document missing key {missing}") from None
    if not _is_int(ground_size):
        raise ValueError("ground_size must be an integer")
    if not isinstance(elements, list) or not all(isinstance(e, list) for e in elements):
        raise ValueError("minimal_elements must be a list of index lists")
    if not all(_is_int(i) for e in elements for i in e):
        raise ValueError("minimal_elements indices must be integers")
    normalize = doc.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ValueError('"normalize" must be true or false')
    if not elements:
        raise EmptyGenerators("minimal_elements is empty")
    # before any mask is built: an in-range index past the cap would need an
    # integer of that many bits
    check_ground_cap(ground_size)
    masks = []
    for e in elements:
        bits = 0
        for i in e:  # checked before its bit is set: the first bad index in document order
            if not 0 <= i < ground_size:
                raise ValueError(f"element {i} outside ground set of size {ground_size}")
            bits |= 1 << i
        masks.append(bits)
    upper = UpperSet(ground_size, masks)
    if not normalize and len(upper.minimal_bits) != len(elements):
        raise ValueError(
            "minimal_elements is not an antichain; set \"normalize\": true to reduce it"
        )
    return upper
