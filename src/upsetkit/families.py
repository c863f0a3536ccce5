"""Instance generators: principal sets, graph properties on K_n, seeded
random antichains, and the builtin verification battery.

Graph-backed instances number the edges of the complete graph K_n
lexicographically by (min endpoint, max endpoint), so instance files are
portable across runs and platforms. One edge table, ``_edge_bits(n)``, holds
that numbering: entry [u][v] is the mask of edge {u, v}, and a subgraph's
mask is the OR of its edges' entries. The ``FAMILIES`` generators
check their ground size against ``GROUND_SIZE_CAP`` before enumerating.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Callable, Sequence

import numpy as np

from .core import UpperSet, check_ground_cap
from .errors import OutOfRange, TrivialUpperSet


def _edge_bits(n: int) -> list[list[int]]:
    """The edge table of K_n: ``bits[u][v]`` is the mask of edge {u, v}
    (0 on the diagonal), numbered by lexicographic rank of (min, max)."""
    bits = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(itertools.combinations(range(n), 2)):
        bits[u][v] = bits[v][u] = 1 << i
    return bits


def principal(ground_size: int, bits: int) -> UpperSet:
    """The upper set generated by the single int mask S, with S != empty, X.

    ``UpperSet`` rejects the empty mask and masks outside the ground set."""
    upper = UpperSet(ground_size, [bits])
    if bits.bit_count() == ground_size:
        raise TrivialUpperSet("principal generator must be neither empty nor the full set")
    return upper


def _prufer_decode(seq: Sequence[int], edge: list[list[int]]) -> int:
    n = len(edge)
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    bits = 0
    for v in seq:
        leaf = heapq.heappop(leaves)
        bits |= edge[leaf][v]
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    return bits | edge[heapq.heappop(leaves)][heapq.heappop(leaves)]


def graph_connectivity(n: int) -> UpperSet:
    """Edge sets of K_n whose subgraph is connected (spans all n vertices).

    Minimal elements are the labelled spanning trees, enumerated by decoding
    every Prufer sequence in lexicographic order; Cayley's formula n^(n-2)
    is asserted as a self-check.
    """
    if not 3 <= n <= 7:
        raise OutOfRange(f"graph_connectivity supports 3 <= n <= 7, got {n}")
    edge = _edge_bits(n)
    trees = [_prufer_decode(seq, edge) for seq in itertools.product(range(n), repeat=n - 2)]
    upper = UpperSet(n * (n - 1) // 2, trees)
    assert len(upper.minimal_bits) == n ** (n - 2), "spanning tree count disagrees with Cayley"
    return upper


def subgraph_containment(n: int, h_edges: Sequence[tuple[int, int]]) -> UpperSet:
    """Edge sets of K_n containing a (labelled) copy of the graph H.

    Minimal elements are the inclusion-minimal images of H under all
    injective maps of its vertices into {0..n-1}.
    """
    if not h_edges:
        raise OutOfRange("H must have at least one edge")
    for u, v in h_edges:
        if u == v:
            raise ValueError(f"H has a loop at vertex {u}")
    verts = sorted({v for e in h_edges for v in e})
    k = len(verts)
    if k > n:
        raise OutOfRange(f"H has {k} vertices, more than n = {n}")
    check_ground_cap(n * (n - 1) // 2)
    edge = _edge_bits(n)
    pos = {v: i for i, v in enumerate(verts)}
    pairs = [(pos[u], pos[v]) for u, v in h_edges]
    images = set()
    for target in itertools.permutations(range(n), k):
        bits = 0
        for a, b in pairs:
            bits |= edge[target[a]][target[b]]
        images.add(bits)
    return UpperSet(n * (n - 1) // 2, images)


def hamiltonian_cycle(n: int) -> UpperSet:
    """Edge sets of K_n containing a Hamiltonian cycle."""
    if n < 3:
        raise OutOfRange(f"hamiltonian_cycle needs n >= 3, got {n}")
    check_ground_cap(n * (n - 1) // 2)  # before H, which has n edges
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
    return UpperSet(ground_size, masks)


def _family_principal(n: int) -> UpperSet:
    # Parameter n is the size of the single minimal element.
    if n < 1:
        raise OutOfRange("principal family needs n >= 1")
    check_ground_cap(n + 1)
    return principal(n + 1, (1 << n) - 1)


def _family_singletons(n: int) -> UpperSet:
    # n disjoint singleton minimals on a ground set one element larger.
    if n < 1:
        raise OutOfRange("singletons family needs n >= 1")
    check_ground_cap(n + 1)
    return UpperSet(n + 1, [1 << i for i in range(n)])


# The fixed graphs H whose copies in K_n the subgraph-containment families ask for.
PATTERNS: dict[str, tuple[tuple[int, int], ...]] = {
    "triangle": ((0, 1), (1, 2), (0, 2)),
    "star3": ((0, 1), (0, 2), (0, 3)),
    "matching2": ((0, 1), (2, 3)),
    "path2": ((0, 1), (1, 2)),
}

FAMILIES: dict[str, Callable[[int], UpperSet]] = {
    "connectivity": graph_connectivity,
    "principal": _family_principal,
    **{name: functools.partial(subgraph_containment, h_edges=h) for name, h in PATTERNS.items()},
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
            out.append((f"principal-k{k}-n{n}", principal(n, (1 << k) - 1)))
    for m, n in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 5)):
        out.append((f"singletons-m{m}-n{n}", UpperSet(n, [1 << i for i in range(m)])))
    for family, sizes in (("connectivity", (3, 4)), ("triangle", (3, 4, 5, 6)),
                          ("star3", (4, 5, 6)), ("path2", (3, 4, 5)),
                          ("matching2", (4, 5)), ("hamilton", (4, 5))):
        out += [(f"{family}-n{n}", make_family_instance(family, n)) for n in sizes]
    out.append(("mixed-single-pair", UpperSet(3, [0b001, 0b110])))
    out.append(("mixed-single-triple", UpperSet(4, [0b0001, 0b1110])))
    out.append(("mixed-chain-pairs", UpperSet(3, [0b011, 0b110])))
    out.append(("mixed-disjoint-pairs", UpperSet(4, [0b0011, 0b1100])))
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
