import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upsetkit import SubsetMask, UpperSet, normalize_to_antichain, parse_instance
from upsetkit.core import _reduce_to_antichain, from_minimal_bits
from upsetkit.errors import (
    EmptyGenerators,
    SizeLimitExceeded,
    TrivialUpperSet,
    WidthMismatch,
)
from upsetkit.measure import _enumeration_profile


def masks(width, *index_sets):
    return [SubsetMask.from_indices(width, ixs) for ixs in index_sets]


def upper_sets(max_ground=10, max_gens=8):
    """Hypothesis strategy for valid nontrivial upper sets."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_ground))
        gens = draw(
            st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_gens)
        )
        return from_minimal_bits(n, gens)

    return build()


class TestNormalize:
    def test_absorbs_supersets(self):
        up = normalize_to_antichain(3, masks(3, {0, 1}, {0, 1, 2}, {1, 2}))
        assert [m.indices() for m in up.minimals] == [(0, 1), (1, 2)]

    def test_singleton_generator(self):
        up = normalize_to_antichain(3, masks(3, {0}))
        assert [m.indices() for m in up.minimals] == [(0,)]

    def test_incomparable_generators_all_kept(self):
        gens = masks(3, {0, 1}, {1, 2}, {0, 2})
        up = normalize_to_antichain(3, gens)
        assert len(up.minimals) == 3
        # brute-force pairwise incomparability
        for a in gens:
            for b in gens:
                if a != b:
                    assert not a.issubset(b)

    def test_empty_generator_list(self):
        with pytest.raises(EmptyGenerators):
            normalize_to_antichain(3, [])

    def test_empty_mask_rejected(self):
        with pytest.raises(TrivialUpperSet):
            normalize_to_antichain(3, [SubsetMask.empty(3)])

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            normalize_to_antichain(3, masks(4, {0, 1}))

    def test_ground_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            normalize_to_antichain(31, [SubsetMask.from_indices(31, {0})])

    @given(upper_sets())
    @settings(max_examples=100)
    def test_idempotent(self, up):
        again = normalize_to_antichain(up.ground_size, list(up.minimals))
        assert again.minimals == up.minimals

    @given(upper_sets())
    @settings(max_examples=100)
    def test_antichain_and_canonical_order(self, up):
        ms = up.minimals
        for i, a in enumerate(ms):
            for j, b in enumerate(ms):
                if i != j:
                    assert not a.issubset(b)
        keys = [(m.popcount, m.bits) for m in ms]
        assert keys == sorted(keys)


class TestContains:
    def test_superset_of_generator(self):
        up = from_minimal_bits(3, [0b011])
        assert up.contains(SubsetMask.from_indices(3, {0, 1, 2}))

    def test_proper_subset(self):
        up = from_minimal_bits(3, [0b011])
        assert not up.contains(SubsetMask.from_indices(3, {0}))

    def test_equal_to_minimal(self):
        up = from_minimal_bits(3, [0b011, 0b110, 0b101])
        assert up.contains(SubsetMask.from_indices(3, {1, 2}))

    def test_width_mismatch(self):
        up = from_minimal_bits(3, [0b011])
        with pytest.raises(WidthMismatch):
            up.contains(SubsetMask.from_indices(4, {0, 1}))

    @given(upper_sets(max_ground=8), st.data())
    @settings(max_examples=100)
    def test_monotone(self, up, data):
        n = up.ground_size
        s = data.draw(st.integers(0, (1 << n) - 1))
        extra = data.draw(st.integers(0, (1 << n) - 1))
        small = SubsetMask(n, s)
        big = SubsetMask(n, s | extra)
        if up.contains(small):
            assert up.contains(big)


class TestEll:
    def test_floor_at_two(self):
        up = from_minimal_bits(3, [0b001])
        assert (up.ell0, up.ell) == (1, 2)

    def test_all_pairs(self):
        up = from_minimal_bits(3, [0b011, 0b110, 0b101])
        assert (up.ell0, up.ell) == (2, 2)

    def test_mixed_sizes(self):
        up = from_minimal_bits(4, [0b0001, 0b1110])
        assert (up.ell0, up.ell) == (3, 3)


class TestSerialization:
    def test_round_trip_fixed(self):
        up = from_minimal_bits(4, [0b0011, 0b1100, 0b0101])
        assert parse_instance(up.to_instance_json()) == up

    @given(upper_sets())
    @settings(max_examples=100)
    def test_round_trip(self, up):
        assert parse_instance(up.to_instance_json()) == up

    def test_canonical_element_order_in_json(self):
        up = from_minimal_bits(4, [0b1100, 0b0011])
        doc = json.loads(up.to_instance_json())
        assert doc["minimal_elements"] == [[0, 1], [2, 3]]

    def test_rejects_non_antichain(self):
        doc = {"ground_size": 3, "minimal_elements": [[0], [0, 1]]}
        with pytest.raises(ValueError):
            parse_instance(doc)

    def test_normalize_flag(self):
        doc = {"ground_size": 3, "minimal_elements": [[0], [0, 1]], "normalize": True}
        up = parse_instance(doc)
        assert [m.indices() for m in up.minimals] == [(0,)]

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            parse_instance({"ground_size": 3})

    def test_rejects_empty_minimal(self):
        with pytest.raises(TrivialUpperSet):
            parse_instance({"ground_size": 3, "minimal_elements": [[]]})


class TestInvariantEnforcement:
    def test_direct_construction_rejects_nesting(self):
        with pytest.raises(ValueError):
            UpperSet(3, (SubsetMask(3, 0b001), SubsetMask(3, 0b011)))

    def test_direct_construction_rejects_bad_order(self):
        with pytest.raises(ValueError):
            UpperSet(3, (SubsetMask(3, 0b110), SubsetMask(3, 0b011)))

    def test_direct_construction_rejects_empty(self):
        with pytest.raises(TrivialUpperSet):
            UpperSet(3, ())

    def test_direct_construction_rejects_duplicate(self):
        with pytest.raises(ValueError):
            UpperSet(3, (SubsetMask(3, 0b011), SubsetMask(3, 0b011)))

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))))
    @settings(max_examples=200)
    def test_accepts_exactly_the_reducer_fixed_points(self, case):
        # the raw masks are built in the order drawn, so unsorted, duplicated
        # and nested lists all reach the constructor
        n, bits = case
        minimals = tuple(SubsetMask(n, b) for b in bits)
        if _reduce_to_antichain(bits) == tuple(bits):
            assert UpperSet(n, minimals).minimal_bits == tuple(bits)
        else:
            with pytest.raises(ValueError):
                UpperSet(n, minimals)


class TestDerivedFieldCache:
    def test_minimal_bits_computed_once(self):
        up = from_minimal_bits(4, [0b0011, 0b1100])
        assert up.minimal_bits is up.minimal_bits
        assert up.minimal_bits == (0b0011, 0b1100)

    @given(upper_sets(), upper_sets())
    @settings(max_examples=100)
    def test_separate_builds_agree(self, up, other):
        again = parse_instance(up.to_instance_json())
        assert again is not up
        assert again == up and hash(again) == hash(up)
        if other == up:
            assert hash(other) == hash(up)
        assert (other == up) == (
            (other.ground_size, other.minimal_bits) == (up.ground_size, up.minimal_bits)
        )
        assert again.ell0 == up.ell0 == max(m.popcount for m in up.minimals)
        _enumeration_profile(up)
        hits = _enumeration_profile.cache_info().hits
        _enumeration_profile(again)
        assert _enumeration_profile.cache_info().hits == hits + 1

    def test_pickle_round_trip(self):
        up = from_minimal_bits(5, [0b00011, 0b01100, 0b10101])
        up.minimal_bits, up.ell0  # pickle the cached values too
        copy = pickle.loads(pickle.dumps(up))
        assert copy == up and hash(copy) == hash(up)
        assert copy.minimal_bits == up.minimal_bits and copy.ell0 == up.ell0

    @pytest.mark.parametrize("name", ["ground_size", "minimals", "minimal_bits", "ell0"])
    def test_fields_stay_frozen(self, name):
        up = from_minimal_bits(3, [0b011])
        up.minimal_bits, up.ell0  # cached values sit in __dict__ from here on
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(up, name, 1)
