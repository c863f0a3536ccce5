import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_cover_dimension, naive_dim, naive_sigma
from test_core import upper_sets
from upsetkit import (
    builtin_battery,
    covering_dimension,
    dim_upper_bound_via_sigma,
    graph_connectivity,
    max_nonempty_sigma_index,
    sigma_k,
)
from upsetkit.core import SubsetMask, from_minimal_bits
from upsetkit.errors import KOutOfRange, SizeLimitExceeded
from upsetkit.structure import CONVENTIONS, DIMENSION_MINIMALS_CAP

TRIANGLE_SETS = [SubsetMask(3, b) for b in (0b011, 0b110, 0b101)]


def mask_lists(max_n=16, max_m=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(1, max_m))
        return n, [SubsetMask(n, draw(st.integers(0, (1 << n) - 1))) for _ in range(m)]

    return build()


class TestSigma:
    def test_union(self):
        assert sigma_k(TRIANGLE_SETS, 1).value.indices() == (0, 1, 2)

    def test_pairwise(self):
        assert sigma_k(TRIANGLE_SETS, 2).value.indices() == (0, 1, 2)

    def test_triple_empty(self):
        assert sigma_k(TRIANGLE_SETS, 3).value.is_empty

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            sigma_k(TRIANGLE_SETS, 0)
        with pytest.raises(KOutOfRange):
            sigma_k(TRIANGLE_SETS, 4)
        with pytest.raises(KOutOfRange):
            sigma_k([], 1)

    @given(mask_lists())
    @settings(max_examples=150)
    def test_counting_equals_naive(self, case):
        n, sets = case
        for k in range(1, len(sets) + 1):
            expected = naive_sigma([s.bits for s in sets], k, n)
            assert sigma_k(sets, k).value.bits == expected

    @given(mask_lists())
    @settings(max_examples=100)
    def test_monotone_in_k(self, case):
        _, sets = case
        for k in range(1, len(sets)):
            assert sigma_k(sets, k + 1).value.issubset(sigma_k(sets, k).value)


class TestMaxNonemptyIndex:
    def test_triangle(self):
        assert max_nonempty_sigma_index(graph_connectivity(3)) == 2

    def test_single_minimal(self):
        assert max_nonempty_sigma_index(from_minimal_bits(3, [0b011])) == 1

    def test_disjoint_singletons(self):
        assert max_nonempty_sigma_index(from_minimal_bits(3, [1, 2, 4])) == 1

    @given(upper_sets(max_ground=10))
    @settings(max_examples=80)
    def test_matches_definition(self, up):
        t = max_nonempty_sigma_index(up)
        sets = list(up.minimals)
        assert not sigma_k(sets, t).value.is_empty
        if t < len(sets):
            assert sigma_k(sets, t + 1).value.is_empty


class TestCoveringDimension:
    def test_k3_unrestricted(self):
        res = covering_dimension(graph_connectivity(3), "unrestricted")
        assert res.dim == 2
        assert res.witness.covers(graph_connectivity(3))
        assert len(res.witness) == 2

    def test_k3_within_family(self):
        up = graph_connectivity(3)
        res = covering_dimension(up, "within_family")
        assert res.dim == 3 == 3 ** (3 - 2)
        for elem in res.witness.elements:
            assert up.contains(elem)

    def test_principal_both_conventions(self):
        up = from_minimal_bits(5, [0b00111])
        for convention in ("unrestricted", "within_family"):
            assert covering_dimension(up, convention).dim == 1

    def test_disjoint_singletons(self):
        up = from_minimal_bits(4, [1, 2, 4])
        assert covering_dimension(up).dim == 3

    def test_cap(self):
        seventeen = from_minimal_bits(18, [1 << i for i in range(17)])
        with pytest.raises(SizeLimitExceeded):
            covering_dimension(seventeen)

    def test_k4_at_cap_boundary(self):
        # 16 minimal elements sits exactly at the cap
        res = covering_dimension(graph_connectivity(4))
        assert res.dim == 3  # min edge set meeting every spanning tree

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            covering_dimension(from_minimal_bits(3, [1]), "informal")

    @given(upper_sets(max_ground=4, max_gens=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_all_covers(self, up):
        got = covering_dimension(up, "unrestricted").dim
        assert got == naive_dim(list(up.minimal_bits), up.ground_size)

    @given(upper_sets(max_ground=9, max_gens=8))
    @settings(max_examples=80, deadline=None)
    def test_witness_and_ordering(self, up):
        res_u = covering_dimension(up, "unrestricted")
        res_f = covering_dimension(up, "within_family")
        assert res_u.witness.covers(up) and len(res_u.witness) == res_u.dim
        assert res_f.witness.covers(up) and len(res_f.witness) == res_f.dim
        assert res_u.dim <= res_f.dim <= len(up.minimals)
        assert res_f.dim == len(up.minimals)


def wide_upper_sets(max_ground=12, max_minimals=16):
    """Upper sets generated by up to ``max_minimals`` sets from two adjacent
    size layers, so that most generators stay minimal."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_ground))
        k = draw(st.integers(1, n - 1))
        layers = [b for b in range(1, 1 << n) if b.bit_count() in (k, k + 1)]
        count = draw(st.integers(1, min(max_minimals, len(layers))))
        return from_minimal_bits(n, draw(st.permutations(layers))[:count])

    return build()


class TestDimensionMatchesBlockDP:
    """The dimension from the shared cover search equals the memoized DP's."""

    @staticmethod
    def assert_same(up):
        for convention in CONVENTIONS:
            want = block_cover_dimension(list(up.minimal_bits), up.ground_size, convention)
            res = covering_dimension(up, convention)
            assert res.dim == want
            assert res.witness.covers(up) and len(res.witness) == res.dim
            if convention == "within_family":
                assert res.witness.elements == up.minimals

    @given(wide_upper_sets())
    @settings(max_examples=150, deadline=None)
    def test_random(self, up):
        self.assert_same(up)

    def test_builtin_battery(self):
        checked = 0
        for _, up in builtin_battery():
            if len(up.minimals) <= DIMENSION_MINIMALS_CAP:
                self.assert_same(up)
                checked += 1
        assert checked > 100


class TestDimSigmaBound:
    def test_k3(self):
        assert dim_upper_bound_via_sigma(graph_connectivity(3)) == 2

    def test_principal(self):
        assert dim_upper_bound_via_sigma(from_minimal_bits(3, [0b011])) == 1

    def test_disjoint_singletons(self):
        assert dim_upper_bound_via_sigma(from_minimal_bits(4, [1, 2, 4])) == 3

    @given(upper_sets(max_ground=9, max_gens=8))
    @settings(max_examples=80, deadline=None)
    def test_bounds_exact_dim(self, up):
        assert covering_dimension(up).dim <= dim_upper_bound_via_sigma(up)
