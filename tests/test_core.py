import dataclasses
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import naive_antichain

from upsetkit import Cover, SubsetMask, UpperSet, clear_caches, core, parse_instance
from upsetkit.core import _reduce_to_antichain, bit_indices, canonical_key
from upsetkit.errors import EmptyGenerators, SizeLimitExceeded, TrivialUpperSet
from upsetkit.measure import _enumeration_profile


def masks(width, *index_sets):
    assert all(0 <= i < width for ixs in index_sets for i in ixs)
    return [sum(1 << i for i in set(ixs)) for ixs in index_sets]


def upper_sets(max_ground=10, max_gens=8):
    """Hypothesis strategy for valid nontrivial upper sets."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_ground))
        gens = draw(
            st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_gens)
        )
        return UpperSet(n, gens)

    return build()


class TestNormalize:
    def test_absorbs_supersets(self):
        up = UpperSet(3, masks(3, {0, 1}, {0, 1, 2}, {1, 2}))
        assert [m.indices() for m in up.minimals] == [(0, 1), (1, 2)]

    def test_singleton_generator(self):
        up = UpperSet(3, masks(3, {0}))
        assert [m.indices() for m in up.minimals] == [(0,)]

    def test_incomparable_generators_all_kept(self):
        gens = masks(3, {0, 1}, {1, 2}, {0, 2})
        up = UpperSet(3, gens)
        assert len(up.minimals) == 3
        # brute-force pairwise incomparability
        for a in gens:
            for b in gens:
                if a != b:
                    assert a & b != a

    def test_empty_generator_list(self):
        with pytest.raises(EmptyGenerators):
            UpperSet(3, [])

    def test_empty_mask_rejected(self):
        with pytest.raises(TrivialUpperSet):
            UpperSet(3, [0])

    def test_width_mismatch(self):
        # a mask of a wider ground set reaches past this one
        with pytest.raises(ValueError, match="inside the ground set of size 3"):
            UpperSet(3, masks(4, {0, 3}))

    def test_ground_size_cap(self):
        with pytest.raises(SizeLimitExceeded):
            UpperSet(31, masks(31, {0}))

    @given(upper_sets())
    @settings(max_examples=100)
    def test_idempotent(self, up):
        again = UpperSet(up.ground_size, up.minimal_bits)
        assert again.minimals == up.minimals

    @given(upper_sets())
    @settings(max_examples=100)
    def test_antichain_and_canonical_order(self, up):
        ms = up.minimal_bits
        for i, a in enumerate(ms):
            for j, b in enumerate(ms):
                if i != j:
                    assert a & b != a
        keys = [canonical_key(m) for m in ms]
        assert keys == sorted(keys)


class TestEll:
    def test_floor_at_two(self):
        up = UpperSet(3, [0b001])
        assert (up.ell0, up.ell) == (1, 2)

    def test_all_pairs(self):
        up = UpperSet(3, [0b011, 0b110, 0b101])
        assert (up.ell0, up.ell) == (2, 2)

    def test_mixed_sizes(self):
        up = UpperSet(4, [0b0001, 0b1110])
        assert (up.ell0, up.ell) == (3, 3)


class TestSerialization:
    def test_round_trip_fixed(self):
        up = UpperSet(4, [0b0011, 0b1100, 0b0101])
        assert parse_instance(up.to_instance_json()) == up

    @given(upper_sets())
    @settings(max_examples=100)
    def test_round_trip(self, up):
        assert parse_instance(up.to_instance_json()) == up

    def test_canonical_element_order_in_json(self):
        up = UpperSet(4, [0b1100, 0b0011])
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

    @pytest.mark.parametrize("ground, elements, bad", [
        (3, [[0, 3]], 3),
        (3, [[-1]], -1),
        (3, [[0], [1, 5, 7]], 5),  # the first bad index in document order
    ], ids=["past_end", "negative", "first_in_document_order"])
    def test_rejects_index_outside_ground(self, ground, elements, bad):
        doc = {"ground_size": ground, "minimal_elements": elements}
        with pytest.raises(ValueError, match=rf"^element {bad} outside ground set of size {ground}$"):
            parse_instance(doc)


def bit_lists(max_ground=6, max_gens=6):
    """Hypothesis strategy for (n, bits): raw nonempty masks in the order
    drawn, so unsorted, duplicated and nested lists all occur."""
    return st.integers(1, max_ground).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_gens),
    ))


@st.composite
def nested_bit_lists(draw, max_ground=8):
    """(n, bits): random masks plus supersets of some of them (a superset
    drawn with no new element is a duplicate), shuffled."""
    n = draw(st.integers(1, max_ground))
    full = (1 << n) - 1
    base = draw(st.lists(st.integers(1, full), min_size=1, max_size=8))
    grown = draw(st.lists(st.tuples(st.sampled_from(base), st.integers(0, full)), max_size=8))
    return n, draw(st.permutations(base + [b | extra for b, extra in grown]))


def _front_doors(n, bits):
    """The same generators through both public ways of building an instance:
    the constructor, and the instance format that calls it."""
    doc = {
        "ground_size": n,
        "minimal_elements": [list(bit_indices(b)) for b in bits],
        "normalize": True,
    }
    return {
        "UpperSet": lambda: UpperSet(n, bits),
        "parse_instance": lambda: parse_instance(doc),
    }


class TestInvariantEnforcement:
    @pytest.mark.parametrize("bits, kept", [
        ((0b001, 0b011), (0b001,)),
        ((0b110, 0b011), (0b011, 0b110)),
        ((0b011, 0b011), (0b011,)),
    ], ids=["nesting", "bad_order", "duplicate"])
    def test_direct_construction_reduces(self, bits, kept):
        assert UpperSet(3, bits).minimal_bits == kept

    def test_direct_construction_rejects_empty(self):
        with pytest.raises(EmptyGenerators):
            UpperSet(3, ())

    def test_direct_construction_rejects_empty_mask(self):
        with pytest.raises(TrivialUpperSet):
            UpperSet(3, (0b011, 0))

    @pytest.mark.parametrize("bad", [0b1000, -1])
    def test_direct_construction_rejects_mask_outside_ground(self, bad):
        with pytest.raises(ValueError, match="inside the ground set of size 3"):
            UpperSet(3, (0b011, bad))

    @given(bit_lists())
    @settings(max_examples=200)
    def test_stores_the_reduced_bits(self, case):
        n, bits = case
        assert UpperSet(n, bits).minimal_bits == _reduce_to_antichain(bits)

    @given(bit_lists(), st.data())
    @settings(max_examples=100)
    def test_front_doors_agree(self, case, data):
        n, bits = case
        shuffled = data.draw(st.permutations(bits))
        built = [door() for door in _front_doors(n, bits).values()]
        built += [door() for door in _front_doors(n, shuffled).values()]
        assert all(up == built[0] and hash(up) == hash(built[0]) for up in built)

    @pytest.mark.parametrize("door", list(_front_doors(4, [0b1100, 0b0011, 0b0111])))
    def test_each_front_door_reduces_once(self, monkeypatch, door):
        real, calls = _reduce_to_antichain, []

        def counted(bits_list):
            calls.append(bits_list)
            return real(bits_list)

        monkeypatch.setattr(core, "_reduce_to_antichain", counted)
        up = _front_doors(4, [0b1100, 0b0011, 0b0111])[door]()
        assert up.minimal_bits == (0b0011, 0b1100)
        assert len(calls) == 1


class TestReductionOracle:
    @given(nested_bit_lists())
    @settings(max_examples=150)
    def test_keeps_exactly_the_minimal_inputs(self, case):
        n, bits = case
        assert _reduce_to_antichain(bits) == naive_antichain(bits)
        assert UpperSet(n, bits).minimal_bits == naive_antichain(bits)


class TestDerivedFieldCache:
    def test_minimals_computed_once(self):
        up = UpperSet(4, [0b1100, 0b0011])
        assert up.minimals is up.minimals
        assert up.minimals == (SubsetMask(4, 0b0011), SubsetMask(4, 0b1100))

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
        assert again.ell0 == up.ell0 == max(b.bit_count() for b in up.minimal_bits)
        _enumeration_profile(up)
        hits = _enumeration_profile.cache_info().hits
        _enumeration_profile(again)
        assert _enumeration_profile.cache_info().hits == hits + 1

    def test_pickle_round_trip(self):
        up = UpperSet(5, [0b00011, 0b01100, 0b10101])
        up.minimals  # pickle the cached value too
        copy = pickle.loads(pickle.dumps(up))
        assert copy == up and hash(copy) == hash(up)
        assert copy.minimals == up.minimals and copy.ell0 == up.ell0

    @pytest.mark.parametrize("name", ["ground_size", "minimals", "minimal_bits", "ell0"])
    def test_fields_stay_frozen(self, name):
        up = UpperSet(3, [0b011])
        up.minimals  # the cached value sits in __dict__ from here on
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(up, name, 1)


class TestIncidence:
    @given(st.lists(st.integers(0, 255), max_size=10), st.data())
    @settings(max_examples=150)
    def test_extents_and_intents_match_definition(self, masks, data):
        ext = core.extents(masks)
        assert len(ext) == max(masks, default=0).bit_length()
        for x, e in enumerate(ext):
            assert e == sum(1 << i for i, m in enumerate(masks) if m >> x & 1)
        extent = data.draw(st.integers(0, (1 << len(masks)) - 1))
        want = -1
        for i, m in enumerate(masks):
            if extent >> i & 1:
                want &= m
        assert core.intent(masks, extent) == want

    @given(upper_sets(max_ground=10, max_gens=8))
    @settings(max_examples=60)
    def test_element_extents_are_the_minimals_incidence(self, up):
        clear_caches()
        got = core.element_extents(up)
        assert got == tuple(core.extents(up.minimal_bits))
        # computed once per instance, and an equal instance shares it
        assert core.element_extents(UpperSet(up.ground_size, up.minimal_bits)) is got
        assert core.element_extents.cache_info().misses == 1
        clear_caches()
        assert core.element_extents.cache_info().currsize == 0


def cover_draws():
    """An upper set and a cover of nonempty masks on its ground set, some
    with elements in no minimal (the ground set reaches past them)."""

    @st.composite
    def build(draw):
        up = draw(upper_sets(max_ground=10, max_gens=6))
        full = (1 << up.ground_size) - 1
        if draw(st.booleans()):
            # a sub-mask of each of some minimals: often a cover, not always
            picks = draw(st.lists(st.sampled_from(up.minimal_bits), min_size=1))
            elems = [m & draw(st.integers(1, full)) or m for m in picks]
        else:
            elems = draw(st.lists(st.integers(1, full), min_size=1, max_size=6))
        return up, Cover.from_masks(up.ground_size, elems)

    return build()


class TestCover:
    @given(cover_draws())
    @settings(max_examples=300)
    # the minimals themselves; one short; an element past every minimal
    @example((UpperSet(4, [0b0011, 0b0110]), Cover.from_masks(4, [0b0011, 0b0110])))
    @example((UpperSet(4, [0b0011, 0b0110]), Cover.from_masks(4, [0b0001])))
    @example((UpperSet(4, [0b0011, 0b0110]), Cover.from_masks(4, [0b1000, 0b0010])))
    @example((UpperSet(4, [0b0011, 0b0110]), Cover.from_masks(4, [0b1010, 0b0001])))
    def test_covers_matches_definition(self, case):
        up, cover = case
        want = all(any(e.bits & m == e.bits for e in cover.elements) for m in up.minimal_bits)
        assert cover.covers(up) == want

    def test_covers_both_ways(self):
        up = UpperSet(5, [0b00011, 0b00110, 0b11000])
        assert Cover.from_masks(5, [0b00010, 0b01000]).covers(up)
        assert not Cover.from_masks(5, [0b00010, 0b00100]).covers(up)
        # {2, 3} lies in no minimal, so {1, 2} is left uncovered
        assert not Cover.from_masks(5, [0b00011, 0b01100]).covers(up)

    @given(st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, (1 << n) - 1), min_size=1))))
    def test_from_masks_is_canonical(self, case):
        n, masks = case
        cover = Cover.from_masks(n, masks)
        assert [e.bits for e in cover.elements] == sorted(set(masks), key=canonical_key)
        assert all(e.width == n for e in cover.elements)
