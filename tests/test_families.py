import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import copy_masks, injective_images, k_n_edges, spanning_tree_masks

from upsetkit import (
    graph_connectivity,
    hamiltonian_cycle,
    principal,
    random_upper_set,
    subgraph_containment,
)
from upsetkit.core import UpperSet, bit_indices
from upsetkit.errors import OutOfRange, TrivialUpperSet
from upsetkit.families import (
    PATTERNS,
    RANDOM_BATTERY_COUNT,
    _edge_bits,
    make_family_instance,
)

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def edges_of(mask, n):
    return [e for i, e in enumerate(k_n_edges(n)) if mask >> i & 1]


class TestEdgeTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8])
    def test_edge_index_bijection(self, n):
        table = _edge_bits(n)
        for i, (u, v) in enumerate(k_n_edges(n)):
            assert table[u][v] == table[v][u] == 1 << i
        assert all(table[u][u] == 0 for u in range(n))
        assert sum(map(sum, table)) == 2 * ((1 << n * (n - 1) // 2) - 1)

    def test_lexicographic_layout(self):
        table = _edge_bits(4)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert [table[u][v] for u, v in pairs] == [1 << i for i in range(6)]


class TestPrincipal:
    def test_basic(self):
        up = principal(4, 0b0011)
        assert up.minimal_bits == (0b0011,)

    def test_full_set_rejected(self):
        with pytest.raises(TrivialUpperSet):
            principal(3, 0b111)

    def test_empty_rejected(self):
        with pytest.raises(TrivialUpperSet):
            principal(3, 0)

    @pytest.mark.parametrize("bits", [0b1000, 0b1011, -1])
    def test_mask_outside_ground_rejected(self, bits):
        with pytest.raises(ValueError, match="inside the ground set of size 3"):
            principal(3, bits)


class TestConnectivity:
    @pytest.mark.parametrize("n,count", [(3, 3), (4, 16), (5, 125)])
    def test_cayley_counts(self, n, count):
        up = graph_connectivity(n)
        assert len(up.minimal_bits) == count == n ** (n - 2)
        assert all(m.bit_count() == n - 1 for m in up.minimal_bits)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            graph_connectivity(2)
        with pytest.raises(OutOfRange):
            graph_connectivity(8)

    def test_trees_are_spanning(self):
        for tree in graph_connectivity(4).minimal_bits:
            touched = {v for e in edges_of(tree, 4) for v in e}
            assert touched == set(range(4))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_minimals_are_the_spanning_trees(self, n):
        assert set(graph_connectivity(n).minimal_bits) == spanning_tree_masks(n)


class TestSubgraphContainment:
    def test_triangle_in_k3(self):
        up = subgraph_containment(3, TRIANGLE)
        assert [tuple(bit_indices(m)) for m in up.minimal_bits] == [(0, 1, 2)]

    def test_triangle_in_k4(self):
        up = subgraph_containment(4, TRIANGLE)
        assert len(up.minimal_bits) == 4
        assert all(m.bit_count() == 3 for m in up.minimal_bits)

    def test_star3_in_k4(self):
        up = subgraph_containment(4, [(0, 1), (0, 2), (0, 3)])
        assert len(up.minimal_bits) == 4
        assert all(m.bit_count() == 3 for m in up.minimal_bits)

    def test_images_are_embeddings(self):
        up = subgraph_containment(5, TRIANGLE)
        assert len(up.minimal_bits) == 10  # C(5,3) triangles
        for m in up.minimal_bits:
            edges = edges_of(m, 5)
            verts = {v for e in edges for v in e}
            assert len(verts) == 3  # three mutually adjacent vertices
            assert sorted(edges) == list(itertools.combinations(sorted(verts), 2))

    @pytest.mark.parametrize("family, n", [
        *((name, n) for name in PATTERNS for n in (4, 5, 6)),
        ("hamilton", 3), ("hamilton", 4), ("hamilton", 5),
    ])
    def test_minimals_are_the_copies_of_h(self, family, n):
        h = PATTERNS.get(family) or [(i, (i + 1) % n) for i in range(n)]
        assert set(make_family_instance(family, n).minimal_bits) == copy_masks(n, h)

    @pytest.mark.parametrize("family, n", [
        *((name, n) for name, h in PATTERNS.items()
          for n in range(len({v for e in h for v in e}), 9)),
        *(("hamilton", n) for n in range(3, 9)),
    ])
    def test_images_match_injective_maps(self, family, n):
        # the images taken on 0..k-1 once and carried onto the other k-subsets
        # equal those of every injective map into K_n
        h = PATTERNS.get(family) or [(i, (i + 1) % n) for i in range(n)]
        up = make_family_instance(family, n)
        assert up.minimal_bits == UpperSet(n * (n - 1) // 2, injective_images(n, h)).minimal_bits

    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] != e[1]),
                 min_size=1, max_size=7),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_drawn_h_images_match_injective_maps(self, h, data):
        k = len({v for e in h for v in e})
        assume(k <= 5)
        n = data.draw(st.integers(k, 7))
        up = subgraph_containment(n, h)
        assert up.minimal_bits == UpperSet(n * (n - 1) // 2, injective_images(n, h)).minimal_bits

    @pytest.mark.parametrize("h", [[(0, 0)], [(0, 1), (2, 2)]])
    def test_rejects_loops(self, h):
        with pytest.raises(ValueError, match="loop"):
            subgraph_containment(4, h)

    def test_hamilton(self):
        up = hamiltonian_cycle(4)
        assert len(up.minimal_bits) == 3  # (4-1)!/2 cycles
        assert all(m.bit_count() == 4 for m in up.minimal_bits)

    def test_too_many_vertices(self):
        with pytest.raises(OutOfRange):
            subgraph_containment(3, [(0, 1), (2, 3)])

    def test_empty_h(self):
        with pytest.raises(OutOfRange):
            subgraph_containment(4, [])


class TestRandomUpperSet:
    def test_deterministic(self):
        a = random_upper_set(6, 4, 3, seed=1)
        b = random_upper_set(6, 4, 3, seed=1)
        assert a == b

    def test_single_draw_is_principal(self):
        up = random_upper_set(6, 1, 2, seed=7)
        assert len(up.minimal_bits) == 1

    def test_count_upper_bounds_minimals(self):
        up = random_upper_set(8, 20, 4, seed=42)
        assert 1 <= len(up.minimal_bits) <= 20

    def test_validation(self):
        with pytest.raises(OutOfRange):
            random_upper_set(6, 0, 3, seed=1)
        with pytest.raises(OutOfRange):
            random_upper_set(6, 4, 6, seed=1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_always_valid_instance(self, seed):
        up = random_upper_set(9, 6, 4, seed=seed)
        # construction re-validates antichain and nontriviality invariants
        assert 1 <= len(up.minimal_bits) <= 6
        assert all(1 <= m.bit_count() <= 4 for m in up.minimal_bits)


class TestBattery:
    def test_size_and_uniqueness(self, battery):
        names = [name for name, _ in battery]
        assert len(battery) >= 200
        assert len(set(names)) == len(names)

    def test_random_instances_within_bounds(self, battery):
        randoms = [(n, f) for n, f in battery if n.startswith("random-")]
        assert len(randoms) == RANDOM_BATTERY_COUNT >= 150
        for _, f in randoms:
            assert f.ground_size <= 12
            assert len(f.minimal_bits) <= 10

    def test_family_registry(self):
        up = make_family_instance("principal", 3)
        assert up.ell0 == 3
        with pytest.raises(OutOfRange):
            make_family_instance("nonesuch", 3)
