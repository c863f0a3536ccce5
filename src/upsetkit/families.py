"""Instance generators: principal sets, graph properties on K_n, seeded
random antichains, and the builtin verification battery.

Graph-backed instances map the edges of the complete graph K_n to ground
indices lexicographically by (min endpoint, max endpoint), so instance
files are portable across runs and platforms.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import SubsetMask, UpperSet, from_minimal_bits, normalize_to_antichain
from .errors import OutOfRange, SizeLimitExceeded, TrivialUpperSet, WidthMismatch

EMBEDDING_CAP = 1_000_000


@dataclass(frozen=True)
class GraphGround:
    """Edge-indexed ground set for properties of subgraphs of K_n."""

    n: int

    @property
    def num_edges(self) -> int:
        return self.n * (self.n - 1) // 2

    def edge_to_index(self, u: int, v: int) -> int:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"not an edge of K_{self.n}: ({u}, {v})")
        a, b = (u, v) if u < v else (v, u)
        # Lexicographic rank of (a, b) among all pairs a < b.
        return a * self.n - a * (a + 1) // 2 + (b - a - 1)

    def index_to_edge(self, idx: int) -> tuple[int, int]:
        if not 0 <= idx < self.num_edges:
            raise ValueError(f"edge index {idx} out of range")
        a = 0
        while idx >= self.n - a - 1:
            idx -= self.n - a - 1
            a += 1
        return (a, a + 1 + idx)

    def edges_mask(self, edges: Iterable[tuple[int, int]]) -> SubsetMask:
        return SubsetMask.from_indices(
            self.num_edges, (self.edge_to_index(u, v) for u, v in edges)
        )


def principal(ground_size: int, s: SubsetMask) -> UpperSet:
    """The upper set generated by a single element S, with S != empty, X."""
    if s.width != ground_size:
        raise WidthMismatch(f"mask width {s.width} != ground_size {ground_size}")
    if s.is_empty or s.popcount == ground_size:
        raise TrivialUpperSet("principal generator must be neither empty nor the full set")
    return normalize_to_antichain(ground_size, [s])


def _prufer_decode(seq: Sequence[int], n: int, ground: GraphGround) -> int:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    bits = 0
    for v in seq:
        leaf = heapq.heappop(leaves)
        bits |= 1 << ground.edge_to_index(leaf, v)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    bits |= 1 << ground.edge_to_index(u, w)
    return bits


def graph_connectivity(n: int) -> UpperSet:
    """Edge sets of K_n whose subgraph is connected (spans all n vertices).

    Minimal elements are the labelled spanning trees, enumerated by decoding
    every Prufer sequence in lexicographic order; Cayley's formula n^(n-2)
    is asserted as a self-check.
    """
    if not 3 <= n <= 7:
        raise OutOfRange(f"graph_connectivity supports 3 <= n <= 7, got {n}")
    ground = GraphGround(n)
    trees = [
        _prufer_decode(seq, n, ground)
        for seq in itertools.product(range(n), repeat=n - 2)
    ]
    upper = from_minimal_bits(ground.num_edges, trees)
    assert len(upper.minimals) == n ** (n - 2), "spanning tree count disagrees with Cayley"
    return upper


def subgraph_containment(n: int, h_edges: Sequence[tuple[int, int]]) -> UpperSet:
    """Edge sets of K_n containing a (labelled) copy of the graph H.

    Minimal elements are the inclusion-minimal images of H under all
    injective maps of its vertices into {0..n-1}.
    """
    if not h_edges:
        raise OutOfRange("H must have at least one edge")
    verts = sorted({v for e in h_edges for v in e})
    k = len(verts)
    if k > n:
        raise OutOfRange(f"H has {k} vertices, more than n = {n}")
    count = 1
    for i in range(k):
        count *= n - i
    if count > EMBEDDING_CAP:
        raise SizeLimitExceeded(f"{count} embeddings exceed cap {EMBEDDING_CAP}")
    pos = {v: i for i, v in enumerate(verts)}
    ground = GraphGround(n)
    images = set()
    for target in itertools.permutations(range(n), k):
        bits = 0
        for u, v in h_edges:
            bits |= 1 << ground.edge_to_index(target[pos[u]], target[pos[v]])
        images.add(bits)
    return from_minimal_bits(ground.num_edges, sorted(images))


def hamiltonian_cycle(n: int) -> UpperSet:
    """Edge sets of K_n containing a Hamiltonian cycle."""
    if n < 3:
        raise OutOfRange(f"hamiltonian_cycle needs n >= 3, got {n}")
    cycle = [(i, (i + 1) % n) for i in range(n)]
    return subgraph_containment(n, cycle)


def random_upper_set(ground_size: int, count: int, max_size: int, seed: int) -> UpperSet:
    """Antichain reduction of ``count`` seeded random nonempty masks.

    Each draw picks a popcount uniformly in 1..max_size, then that many
    distinct elements. PCG64 with the given seed; identical arguments give
    identical instances everywhere.
    """
    if count < 1:
        raise OutOfRange(f"count must be >= 1, got {count}")
    if not 1 <= max_size < ground_size:
        raise OutOfRange(f"need 1 <= max_size < ground_size, got {max_size}, {ground_size}")
    rng = np.random.Generator(np.random.PCG64(seed))
    masks = []
    for _ in range(count):
        size = int(rng.integers(1, max_size + 1))
        elems = rng.choice(ground_size, size=size, replace=False)
        masks.append(sum(1 << int(i) for i in elems))
    return from_minimal_bits(ground_size, masks)


def _family_principal(n: int) -> UpperSet:
    # Parameter n is the size of the single minimal element.
    return principal(n + 1, SubsetMask.from_indices(n + 1, range(n)))


def _family_triangle(n: int) -> UpperSet:
    return subgraph_containment(n, [(0, 1), (1, 2), (0, 2)])


def _family_star3(n: int) -> UpperSet:
    return subgraph_containment(n, [(0, 1), (0, 2), (0, 3)])


def _family_matching2(n: int) -> UpperSet:
    return subgraph_containment(n, [(0, 1), (2, 3)])


def _family_path2(n: int) -> UpperSet:
    return subgraph_containment(n, [(0, 1), (1, 2)])


def _family_singletons(n: int) -> UpperSet:
    # n disjoint singleton minimals on a ground set one element larger.
    if n < 1:
        raise OutOfRange("singletons family needs n >= 1")
    return from_minimal_bits(n + 1, [1 << i for i in range(n)])


FAMILIES: dict[str, Callable[[int], UpperSet]] = {
    "connectivity": graph_connectivity,
    "principal": _family_principal,
    "triangle": _family_triangle,
    "star3": _family_star3,
    "matching2": _family_matching2,
    "path2": _family_path2,
    "hamilton": hamiltonian_cycle,
    "singletons": _family_singletons,
}


def make_family_instance(name: str, n: int) -> UpperSet:
    try:
        gen = FAMILIES[name]
    except KeyError:
        raise OutOfRange(f"unknown family {name!r}; known: {sorted(FAMILIES)}") from None
    return gen(n)


RANDOM_BATTERY_COUNT = 160
RANDOM_BATTERY_BASE_SEED = 20240

def builtin_battery() -> list[tuple[str, UpperSet]]:
    """The named instance battery used by `verify --battery builtin` and the
    acceptance suite: every family at every size where the exact solvers
    run comfortably, plus seeded random antichains (n <= 12, |F0| <= 10).
    """
    out: list[tuple[str, UpperSet]] = []
    for k in range(1, 7):
        for n in (k + 1, k + 2, min(k + 4, 13)):
            out.append((f"principal-k{k}-n{n}", principal(n, SubsetMask.from_indices(n, range(k)))))
    for m, n in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 5)):
        out.append((f"singletons-m{m}-n{n}", from_minimal_bits(n, [1 << i for i in range(m)])))
    for n in (3, 4):
        out.append((f"connectivity-n{n}", graph_connectivity(n)))
    for n in (3, 4, 5, 6):
        out.append((f"triangle-n{n}", _family_triangle(n)))
    for n in (4, 5, 6):
        out.append((f"star3-n{n}", _family_star3(n)))
    for n in (3, 4, 5):
        out.append((f"path2-n{n}", _family_path2(n)))
    for n in (4, 5):
        out.append((f"matching2-n{n}", _family_matching2(n)))
    for n in (4, 5):
        out.append((f"hamilton-n{n}", hamiltonian_cycle(n)))
    out.append(("mixed-single-pair", from_minimal_bits(3, [0b001, 0b110])))
    out.append(("mixed-single-triple", from_minimal_bits(4, [0b0001, 0b1110])))
    out.append(("mixed-chain-pairs", from_minimal_bits(3, [0b011, 0b110])))
    out.append(("mixed-disjoint-pairs", from_minimal_bits(4, [0b0011, 0b1100])))
    for i in range(RANDOM_BATTERY_COUNT):
        n = 4 + i % 9
        max_size = 2 + i % min(4, n - 2)
        count = 2 + (i * 7) % 9
        seed = RANDOM_BATTERY_BASE_SEED + i
        out.append(
            (
                f"random-n{n}-c{count}-m{max_size}-s{seed}",
                random_upper_set(n, count, max_size, seed),
            )
        )
    return out
