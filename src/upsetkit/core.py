"""Ground sets, subset masks, upper sets, and covers.

The ground set is always {0, ..., n-1}. A subset is stored as an integer
bitmask of fixed width n; an upper set (nontrivial monotone property) is
stored as its canonical minimal antichain. All types are immutable values,
so they hash, compare, and share across workers safely.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyGenerators, SizeLimitExceeded, TrivialUpperSet, WidthMismatch

# Exact enumeration over 2^n stays feasible only for small n; construction
# refuses larger ground sets unless the caller opts into sampling-only use.
GROUND_SIZE_CAP = 30


@dataclass(frozen=True)
class SubsetMask:
    """A subset of {0, ..., width-1} as a bit vector (bit i set = i present)."""

    width: int
    bits: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(f"bits 0x{self.bits:x} out of range for width {self.width}")

    @classmethod
    def from_indices(cls, width: int, indices: Iterable[int]) -> "SubsetMask":
        bits = 0
        for i in indices:
            if not 0 <= i < width:
                raise ValueError(f"element {i} outside ground set of size {width}")
            bits |= 1 << i
        return cls(width, bits)

    @classmethod
    def empty(cls, width: int) -> "SubsetMask":
        return cls(width, 0)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if self.bits >> i & 1)

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def issubset(self, other: "SubsetMask") -> bool:
        self._check_width(other)
        return self.bits & other.bits == self.bits

    def _check_width(self, other: "SubsetMask") -> None:
        if self.width != other.width:
            raise WidthMismatch(f"mask widths differ: {self.width} vs {other.width}")

    def __repr__(self) -> str:
        return f"SubsetMask({self.width}, {{{', '.join(map(str, self.indices()))}}})"


def canonical_key(bits: int) -> tuple[int, int]:
    """Sort key for raw masks: (popcount, numeric value)."""
    return (bits.bit_count(), bits)


def _reduce_to_antichain(bits_list: Sequence[int]) -> tuple[int, ...]:
    """Keep the inclusion-minimal masks, canonically ordered.

    Masks are scanned in canonical order; a mask of popcount k can only be
    absorbed by a kept mask of strictly smaller popcount (or a duplicate),
    so same-size groups need no pairwise subset tests.
    """
    ordered = sorted(set(bits_list), key=canonical_key)
    kept: list[int] = []
    kept_by_size: list[list[int]] = []
    sizes: list[int] = []
    for b in ordered:
        k = b.bit_count()
        absorbed = False
        for sz, group in zip(sizes, kept_by_size):
            if sz >= k:
                break
            if any(m & b == m for m in group):
                absorbed = True
                break
        if absorbed:
            continue
        if sizes and sizes[-1] == k:
            kept_by_size[-1].append(b)
        else:
            sizes.append(k)
            kept_by_size.append([b])
        kept.append(b)
    return tuple(kept)


@dataclass(frozen=True)
class UpperSet:
    """A nontrivial monotone property, stored as its minimal antichain.

    ``minimals`` is canonically ordered (popcount, then numeric value); the
    property contains exactly the supersets of its minimal elements.
    Construct through :func:`normalize_to_antichain` or a families generator
    so the antichain and nontriviality invariants always hold.

    ``minimal_bits`` and ``ell0`` are computed on first use and kept in the
    instance ``__dict__``; the fields stay frozen.
    """

    ground_size: int
    minimals: tuple[SubsetMask, ...]

    def __post_init__(self):
        if not self.minimals:
            raise TrivialUpperSet("an upper set needs at least one minimal element")
        for m in self.minimals:
            if m.width != self.ground_size:
                raise WidthMismatch(
                    f"minimal width {m.width} != ground_size {self.ground_size}"
                )
            if m.is_empty:
                raise TrivialUpperSet("the empty set cannot be a minimal element")
        # The reducer's fixed points are exactly the strictly canonically
        # ordered antichains.
        if _reduce_to_antichain(self.minimal_bits) != self.minimal_bits:
            raise ValueError("minimals must be an antichain in strict canonical order")

    @functools.cached_property
    def minimal_bits(self) -> tuple[int, ...]:
        return tuple(m.bits for m in self.minimals)

    def __hash__(self) -> int:
        # equal instances have equal minimal_bits; ints hash faster than masks
        return hash((self.ground_size, self.minimal_bits))

    def contains(self, s: SubsetMask) -> bool:
        """True iff s is a superset of some minimal element."""
        if s.width != self.ground_size:
            raise WidthMismatch(
                f"mask width {s.width} does not match ground size {self.ground_size}"
            )
        b = s.bits
        return any(m & b == m for m in self.minimal_bits)

    @functools.cached_property
    def ell0(self) -> int:
        """Size of the largest minimal element."""
        return max(m.popcount for m in self.minimals)

    @property
    def ell(self) -> int:
        """ell0 floored at 2, the argument of the logarithm in the bounds."""
        return max(self.ell0, 2)

    def minimals_intersection(self) -> SubsetMask:
        bits = (1 << self.ground_size) - 1
        for m in self.minimal_bits:
            bits &= m
        return SubsetMask(self.ground_size, bits)

    def to_instance_dict(self) -> dict:
        return {
            "ground_size": self.ground_size,
            "minimal_elements": [list(m.indices()) for m in self.minimals],
        }

    def to_instance_json(self) -> str:
        return json.dumps(self.to_instance_dict())


def normalize_to_antichain(ground_size: int, generators: Sequence[SubsetMask]) -> UpperSet:
    """Build the upper set generated by ``generators``.

    The result's minimal elements are exactly the inclusion-minimal
    generators, canonically ordered; duplicates and absorbed supersets are
    dropped.
    """
    if ground_size < 1:
        raise ValueError(f"ground_size must be positive, got {ground_size}")
    if ground_size > GROUND_SIZE_CAP:
        raise SizeLimitExceeded(
            f"ground_size {ground_size} exceeds exact-operation cap {GROUND_SIZE_CAP}"
        )
    if not generators:
        raise EmptyGenerators("at least one generator is required")
    for g in generators:
        if g.width != ground_size:
            raise WidthMismatch(f"generator width {g.width} != ground_size {ground_size}")
        if g.is_empty:
            raise TrivialUpperSet("empty generator would make the property all of 2^X")
    reduced = _reduce_to_antichain([g.bits for g in generators])
    return UpperSet(ground_size, tuple(SubsetMask(ground_size, b) for b in reduced))


def from_minimal_bits(ground_size: int, bits_list: Sequence[int]) -> UpperSet:
    """Internal-ish fast path: build from raw integer masks."""
    return normalize_to_antichain(ground_size, [SubsetMask(ground_size, b) for b in bits_list])


@dataclass(frozen=True)
class Cover:
    """A witness family of nonempty masks; covers F when every minimal
    element of F contains some cover element."""

    elements: tuple[SubsetMask, ...]

    def __post_init__(self):
        if any(e.is_empty for e in self.elements):
            raise TrivialUpperSet("cover elements must be nonempty")

    @classmethod
    def from_masks(cls, masks: Iterable[SubsetMask]) -> "Cover":
        return cls(tuple(sorted(set(masks), key=lambda m: canonical_key(m.bits))))

    def covers(self, upper: UpperSet) -> bool:
        elems = [e.bits for e in self.elements]
        return all(any(e & m == e for e in elems) for m in upper.minimal_bits)

    def cost(self, p: float) -> float:
        """Sum of p^{|S|} over the elements, in canonical order."""
        import math

        return math.fsum(p ** e.popcount for e in self.elements)

    def __len__(self) -> int:
        return len(self.elements)


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
    masks = [SubsetMask.from_indices(ground_size, e) for e in elements]
    if not masks:
        raise EmptyGenerators("minimal_elements is empty")
    upper = normalize_to_antichain(ground_size, masks)
    if not normalize and len(upper.minimals) != len(masks):
        raise ValueError(
            "minimal_elements is not an antichain; set \"normalize\": true to reduce it"
        )
    return upper
