import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import block_cover_dimension, element_blocks, naive_dim, naive_sigma
from test_core import upper_sets
from test_expectation import CACHED_NAMES, GRAPH_INSTANCES, coverage
from upsetkit import (
    BoundVariant,
    builtin_battery,
    covering_dimension,
    dim_upper_bound_via_sigma,
    graph_connectivity,
    max_nonempty_sigma_index,
    sigma_k,
    verify_instance,
)
from upsetkit import structure
from upsetkit.core import Cover, UpperSet, bit_indices
from upsetkit.errors import KOutOfRange, SizeLimitExceeded
from upsetkit.expectation import _Search
from upsetkit.families import make_family_instance
from upsetkit.measure import AUTO_ENUMERATION_CAP, _enumeration_profile
from upsetkit.structure import (
    DIMENSION_MINIMALS_CAP,
    _block_problem,
    minimal_sigma_sequence,
)

TRIANGLE_SETS = [0b011, 0b110, 0b101]


def mask_lists(max_n=16, max_m=12):
    """(n, masks): int masks of width n, the all-zero mask included."""
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        m = draw(st.integers(1, max_m))
        return n, [draw(st.integers(0, (1 << n) - 1)) for _ in range(m)]

    return build()


class TestSigma:
    def test_union(self):
        assert tuple(bit_indices(sigma_k(TRIANGLE_SETS, 1))) == (0, 1, 2)

    def test_pairwise(self):
        assert tuple(bit_indices(sigma_k(TRIANGLE_SETS, 2))) == (0, 1, 2)

    def test_triple_empty(self):
        assert sigma_k(TRIANGLE_SETS, 3) == 0

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
            assert sigma_k(sets, k) == naive_sigma(sets, k, n)

    @given(upper_sets(max_ground=16, max_gens=12))
    @settings(max_examples=150)
    def test_sequence_equals_sigma_k(self, up):
        sets = up.minimal_bits
        assert minimal_sigma_sequence(up) == [sigma_k(sets, k) for k in range(1, len(sets) + 1)]

    def test_sequence_on_battery(self):
        for _, up in builtin_battery():
            sets = up.minimal_bits
            want = [sigma_k(sets, k) for k in range(1, len(sets) + 1)]
            assert minimal_sigma_sequence(up) == want

    @given(mask_lists())
    @settings(max_examples=100)
    def test_monotone_in_k(self, case):
        _, sets = case
        for k in range(1, len(sets)):
            smaller = sigma_k(sets, k + 1)
            assert smaller & sigma_k(sets, k) == smaller


class TestMaxNonemptyIndex:
    def test_triangle(self):
        assert max_nonempty_sigma_index(graph_connectivity(3)) == 2

    def test_single_minimal(self):
        assert max_nonempty_sigma_index(UpperSet(3, [0b011])) == 1

    def test_disjoint_singletons(self):
        assert max_nonempty_sigma_index(UpperSet(3, [1, 2, 4])) == 1

    @given(upper_sets(max_ground=10))
    @settings(max_examples=80)
    def test_matches_definition(self, up):
        t = max_nonempty_sigma_index(up)
        sets = up.minimal_bits
        assert sigma_k(sets, t) != 0
        if t < len(sets):
            assert sigma_k(sets, t + 1) == 0

    @given(upper_sets(max_ground=8))
    @settings(max_examples=100)
    def test_matches_naive_sigma(self, up):
        bits, n = list(up.minimal_bits), up.ground_size
        top = max(k for k in range(1, len(bits) + 1) if naive_sigma(bits, k, n))
        assert max_nonempty_sigma_index(up) == top

    @given(upper_sets(max_ground=10))
    @settings(max_examples=100)
    def test_top_is_count_iff_minimals_intersect(self, up):
        t = max_nonempty_sigma_index(up)
        common = functools.reduce(operator.and_, up.minimal_bits)
        assert (t == len(up.minimal_bits)) == (common != 0)


class TestCoveringDimension:
    def test_k3_unrestricted(self):
        res = covering_dimension(graph_connectivity(3))
        assert res.dim == 2
        assert res.witness.covers(graph_connectivity(3))
        assert len(res.witness) == 2

    def test_k3_within_family(self):
        # with witnesses restricted to members of F, the minimals are the
        # only ones: dim is |F0|, here the spanning-tree count
        up = graph_connectivity(3)
        assert verify_instance(up, BoundVariant(8.0)).dim_within_family == 3 == 3 ** (3 - 2)
        assert block_cover_dimension(list(up.minimal_bits), 3, "within_family") == 3

    def test_principal_both_conventions(self):
        up = UpperSet(5, [0b00111])
        report = verify_instance(up, BoundVariant(8.0))
        assert covering_dimension(up).dim == report.dim_unrestricted == 1
        assert report.dim_within_family == 1

    def test_disjoint_singletons(self):
        up = UpperSet(4, [1, 2, 4])
        assert covering_dimension(up).dim == 3

    def test_cap(self, monkeypatch):
        # past the enumeration cap the cover search's minimals cap applies,
        # and it refuses before any search is built
        def refuse(*args):
            raise AssertionError("a cover search was built")

        monkeypatch.setattr(structure, "_CoverProblem", refuse)
        monkeypatch.setattr(structure, "_Search", refuse)
        n = AUTO_ENUMERATION_CAP + 1
        seventeen = UpperSet(n, [1 << i for i in range(DIMENSION_MINIMALS_CAP + 1)])
        with pytest.raises(SizeLimitExceeded) as exc:
            covering_dimension(seventeen)
        assert str(exc.value) == (
            f"exact dimension needs ground_size <= {AUTO_ENUMERATION_CAP} (enumeration) "
            f"or |F0| <= {DIMENSION_MINIMALS_CAP} (cover search), got ground_size {n} and |F0| 17"
        )
        # up to the enumeration cap the profile gives dim with no search
        under = UpperSet(n - 1, [1 << i for i in range(DIMENSION_MINIMALS_CAP + 1)])
        assert covering_dimension(under).dim == 17

    def test_k4_at_cap_boundary(self):
        # 16 minimal elements, the cover search's cap
        res = covering_dimension(graph_connectivity(4))
        assert res.dim == 3  # min edge set meeting every spanning tree

    @pytest.mark.parametrize("family, n, most", [
        ("matching2", 5, 40), ("hamilton", 5, 40), ("triangle", 5, 20),
    ])
    def test_search_nodes(self, family, n, most):
        # each decide of the descent asks for a strictly cheaper cover, so
        # covers that tie the best one so far are pruned, not explored
        search = _Search(_block_problem(make_family_instance(family, n)), 1.0)
        search.optimize()
        assert search.nodes <= most

    @given(upper_sets(max_ground=4, max_gens=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_all_covers(self, up):
        got = covering_dimension(up).dim
        assert got == naive_dim(list(up.minimal_bits), up.ground_size)

    @given(upper_sets(max_ground=9, max_gens=8))
    @settings(max_examples=80, deadline=None)
    def test_witness_and_ordering(self, up):
        # the minimals cover F, so the smallest cover has at most |F0| elements
        res = covering_dimension(up)
        assert res.witness.covers(up) and len(res.witness) == res.dim
        assert Cover(up.minimals).covers(up)
        assert res.dim <= len(up.minimals)


def wide_upper_sets(max_ground=12, max_minimals=16):
    """Upper sets generated by up to ``max_minimals`` sets from two adjacent
    size layers, so that most generators stay minimal."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_ground))
        k = draw(st.integers(1, n - 1))
        layers = [b for b in range(1, 1 << n) if b.bit_count() in (k, k + 1)]
        count = draw(st.integers(1, min(max_minimals, len(layers))))
        return UpperSet(n, draw(st.permutations(layers))[:count])

    return build()


@st.composite
def many_minimals(draw):
    """Upper sets on 7 to 10 elements with 17 to 40 minimals, all of one size
    (so all minimal): more than the cover search takes past the enumeration
    cap."""
    n = draw(st.integers(7, 10))
    k = draw(st.integers(2, n - 2))
    layer = [b for b in range(1 << n) if b.bit_count() == k]
    count = draw(st.integers(DIMENSION_MINIMALS_CAP + 1, min(40, len(layer))))
    return UpperSet(n, draw(st.permutations(layer))[:count])


class TestBlockProblem:
    """The dimension's candidates are the blocks, the intersections of the
    minimals through each element, and each covers what it should."""

    @staticmethod
    def assert_blocks(up):
        prob = _block_problem(up)
        min_bits = list(up.minimal_bits)
        want = element_blocks(min_bits, up.ground_size)
        assert list(prob.cand_bits) == sorted(want, key=lambda b: (b.bit_count(), b))
        assert list(prob.cand_cov) == [coverage(min_bits, s) for s in prob.cand_bits]

    @pytest.mark.parametrize("family, n", GRAPH_INSTANCES)
    def test_graph_instances(self, family, n):
        self.assert_blocks(make_family_instance(family, n))

    @given(upper_sets(max_ground=10, max_gens=10))
    @settings(max_examples=150, deadline=None)
    def test_random(self, up):
        self.assert_blocks(up)


class TestDimensionMatchesBlockDP:
    """The dimension, from the enumeration profile and from the cover search
    at p = 1, equals the memoized DP's."""

    @staticmethod
    def assert_same(up):
        min_bits, n = list(up.minimal_bits), up.ground_size
        res = covering_dimension(up)
        assert res.dim == block_cover_dimension(min_bits, n, "unrestricted")
        assert res.witness.covers(up) and len(res.witness) == res.dim
        # the within-family dimension the reports print is |F0|
        assert block_cover_dimension(min_bits, n, "within_family") == len(min_bits)

    @given(wide_upper_sets())
    @settings(max_examples=150, deadline=None)
    def test_random(self, up):
        self.assert_same(up)

    @given(many_minimals())
    @settings(max_examples=100, deadline=None)
    def test_random_many_minimals(self, up):
        self.assert_same(up)

    @given(wide_upper_sets())
    @settings(max_examples=100, deadline=None)
    def test_search(self, up):
        # the engine past the enumeration cap, run here on small grounds
        prob = _block_problem(up)
        _, chosen = _Search(prob, 1.0).optimize()
        want = block_cover_dimension(list(up.minimal_bits), up.ground_size, "unrestricted")
        assert len(chosen) == want
        assert Cover.from_masks(up.ground_size, (prob.cand_bits[j] for j in chosen)).covers(up)

    def test_builtin_battery(self):
        battery = builtin_battery()
        for _, up in battery:
            self.assert_same(up)
        # four of them are past the cover search's minimals cap
        assert sum(len(up.minimals) > DIMENSION_MINIMALS_CAP for _, up in battery) == 4

    def test_builtin_battery_profile_equals_search(self):
        checked = 0
        for _, up in builtin_battery():
            if len(up.minimals) <= DIMENSION_MINIMALS_CAP:
                _, chosen = _Search(_block_problem(up), 1.0).optimize()
                assert covering_dimension(up).dim == len(chosen)
                checked += 1
        assert checked == 199


class TestDimSigmaBound:
    def test_k3(self):
        assert dim_upper_bound_via_sigma(graph_connectivity(3)) == 2

    def test_principal(self):
        assert dim_upper_bound_via_sigma(UpperSet(3, [0b011])) == 1

    def test_disjoint_singletons(self):
        assert dim_upper_bound_via_sigma(UpperSet(4, [1, 2, 4])) == 3

    @given(upper_sets(max_ground=9, max_gens=8))
    @settings(max_examples=80, deadline=None)
    def test_bounds_exact_dim(self, up):
        assert covering_dimension(up).dim <= dim_upper_bound_via_sigma(up)


@st.composite
def antichains_past_cap(draw):
    """Upper sets on ground sets one or two elements past the enumeration
    cap, with at most as many minimals as the cover search takes."""
    n = draw(st.integers(AUTO_ENUMERATION_CAP + 1, AUTO_ENUMERATION_CAP + 2))
    sets = st.sets(st.integers(0, n - 1), min_size=1)
    gens = draw(st.lists(sets, min_size=1, max_size=DIMENSION_MINIMALS_CAP))
    return UpperSet(n, [sum(1 << i for i in g) for g in gens])


class TestDimensionPastEnumerationCap:
    """Past the enumeration cap dim comes from the cover search alone; the
    enumeration profile, an independent engine that still runs at these
    sizes, gives it as n minus the size of a largest non-member."""

    @given(antichains_past_cap())
    @settings(max_examples=40, deadline=None)
    def test_search_equals_profile(self, up):
        res = covering_dimension(up)
        largest = _enumeration_profile(up).largest_non_member
        assert res.dim == up.ground_size - largest.bit_count()
        assert res.witness.covers(up) and len(res.witness) == res.dim


class TestCachedDim:
    """No library path calls ``cached_dim``; the benchmark's tracing wraps
    it by name, so it is held to ``covering_dimension`` here."""

    def test_equals_covering_dimension(self):
        battery = dict(builtin_battery())
        for name in CACHED_NAMES:
            up = battery[name]
            assert structure.cached_dim(up) == covering_dimension(up).dim

    def test_refuses_where_covering_dimension_does(self):
        n = AUTO_ENUMERATION_CAP + 2
        seventeen = UpperSet(n, [1 << i for i in range(DIMENSION_MINIMALS_CAP + 1)])
        with pytest.raises(SizeLimitExceeded):
            structure.cached_dim(seventeen)
