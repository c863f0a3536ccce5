import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    EagerSearch,
    bisection_threshold,
    exact_weight,
    exhaustive_p_small,
    minimal_closure,
    naive_min_cover_cost,
    naive_q,
    subset_enumeration_min_cover_cost,
    subset_pipeline_candidates,
)
from test_core import upper_sets
from upsetkit import (
    builtin_battery,
    candidate_cover_elements,
    clear_caches,
    critical_probability,
    expectation_threshold,
    graph_connectivity,
    is_p_small,
    min_cover_cost,
)
from upsetkit import core, expectation
from upsetkit.core import Cover, UpperSet, canonical_key
from upsetkit.errors import SizeLimitExceeded
from upsetkit.expectation import (
    SOLVER_CANDIDATES_CAP,
    SOLVER_MINIMALS_CAP,
    ExpectationThreshold,
    _bracket,
    _intersection_closure,
    _largest_small,
    _problem,
    _Search,
    _spread_threshold,
    _weight_terms,
)
from upsetkit.families import make_family_instance


class TestCandidates:
    def test_single_pair(self):
        up = UpperSet(4, [0b0011])
        got = {c.indices() for c in candidate_cover_elements(up)}
        assert got == {(0,), (1,), (0, 1)}

    def test_triangle_cover_pool(self):
        up = graph_connectivity(3)
        got = {c.indices() for c in candidate_cover_elements(up)}
        assert got == {(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)}

    def test_disjoint_singletons(self):
        up = UpperSet(3, [0b001, 0b010])
        got = {c.indices() for c in candidate_cover_elements(up)}
        assert got == {(0,), (1,)}

    def test_cap(self):
        up = UpperSet(8, [0b11111111 >> 1])
        with pytest.raises(SizeLimitExceeded):
            candidate_cover_elements(up, cap=32)


def co_singletons(n: int):
    """The n sets of size n - 1 on an n-element ground set; their
    intersection closure is every nonempty proper subset, 2^n - 2 masks."""
    full = (1 << n) - 1
    return UpperSet(n, [full ^ (1 << i) for i in range(n)])


# the graph-ladder sweeps' instances within the solver's minimals cap,
# up to hamilton-6 (60 minimals, 645 candidates) and star3-6 (60, 135)
GRAPH_INSTANCES = (
    [("connectivity", n) for n in (3, 4)]
    + [("triangle", n) for n in range(3, 8)]
    + [("hamilton", n) for n in range(4, 7)]
    + [("star3", n) for n in range(4, 7)]
    + [("path2", n) for n in range(3, 7)]
    + [("matching2", n) for n in range(4, 7)]
)


def with_graph_examples(test):
    """Run a hypothesis test on every graph instance as well as its draws."""
    for family, n in GRAPH_INSTANCES:
        test = example(make_family_instance(family, n))(test)
    return test


def coverage(min_bits, s: int) -> int:
    """The mask of the minimals that contain s, by definition."""
    return sum(1 << i for i, m in enumerate(min_bits) if s & m == s)


@st.composite
def closure_shapes(draw):
    """Upper sets with more minimals than elements (a slice of one size
    layer), or more elements than minimals with the top two in none of
    them; either can have a closure past a small cap."""
    if draw(st.booleans()):
        n = draw(st.integers(4, 8))
        k = draw(st.integers(2, n - 2))
        layer = [b for b in range(1 << n) if b.bit_count() == k]
        count = draw(st.integers(n + 1, min(len(layer), 30)))
        return UpperSet(n, draw(st.permutations(layer))[:count])
    n = draw(st.integers(5, 12))
    low = (1 << (n - 2)) - 1
    if draw(st.booleans()):
        gens = draw(st.lists(st.integers(1, low), min_size=1, max_size=min(8, n - 1)))
    else:
        # the low elements less d of them each: long intersection chains
        d = draw(st.integers(1, 2))
        drops = st.sets(st.integers(0, n - 3), min_size=d, max_size=d)
        gens = [low & ~sum(1 << x for x in drop)
                for drop in draw(st.lists(drops, min_size=1, max_size=min(8, n - 1)))]
    return UpperSet(n, gens)


class TestCoverProblem:
    @given(closure_shapes())
    @settings(max_examples=200, deadline=None)
    @example(co_singletons(6))
    @example(UpperSet(10, [0xFF ^ (1 << i) for i in range(8)]))  # 254 members, 2 idle elements
    @with_graph_examples
    def test_refusals_and_tables_match_minimal_closure(self, up):
        # with the cap lowered, the element-side closure refuses exactly
        # when the minimal-by-minimal one has more members than the cap
        cap = 40
        want = minimal_closure(list(up.minimal_bits))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expectation, "SOLVER_CANDIDATES_CAP", cap)
            # a closure cached under the full cap would not refuse
            expectation._closure.cache_clear()
            if len(want) > cap:
                with pytest.raises(SizeLimitExceeded):
                    _problem.__wrapped__(up)
                return
            prob = _problem.__wrapped__(up)
        assert list(prob.cand_bits) == sorted(want, key=canonical_key)
        assert list(prob.cand_cov) == [coverage(up.minimal_bits, s) for s in prob.cand_bits]

    @given(closure_shapes())
    @settings(max_examples=150, deadline=None)
    @example(co_singletons(12))  # 4094 members, at the cap
    # elements 0 and 1 share an extent, 5..7 are in no minimal
    @example(UpperSet(8, [0b00000111, 0b00011011]))
    @with_graph_examples
    def test_closure_candidates_are_intents(self, up):
        min_bits = up.minimal_bits
        closure = _intersection_closure(core.extents(min_bits))
        assert set(closure) == {coverage(min_bits, s) for s in minimal_closure(list(min_bits))}
        for cov, cand in closure.items():
            assert cand == core.intent(min_bits, cov)

    def test_closure_of_repeated_and_idle_extents(self):
        # elements 0, 2, 3 and 4 have extents 01, 11, 01, 10; element 1 none
        closure = _intersection_closure([0b01, 0, 0b11, 0b01, 0b10])
        assert closure == {0b01: 0b01101, 0b11: 0b00100, 0b10: 0b10100}

    @given(upper_sets(max_ground=8, max_gens=7), st.booleans())
    @settings(max_examples=150, deadline=None)
    @example(co_singletons(5), False)
    def test_candidates_match_subset_pipeline(self, up, dense):
        if dense:
            # complemented minimals: large sets with long intersection chains
            full = (1 << up.ground_size) - 1
            assume(full not in up.minimal_bits)
            up = UpperSet(up.ground_size, [full ^ b for b in up.minimal_bits])
        prob = _problem(up)
        assert list(prob.cand_bits) == subset_pipeline_candidates(list(up.minimal_bits))
        for s, cov in zip(prob.cand_bits, prob.cand_cov):
            assert cov == sum(1 << i for i, m in enumerate(up.minimal_bits) if s & m == s)

    @pytest.mark.parametrize("family,n", GRAPH_INSTANCES)
    def test_graph_candidates_match_subset_pipeline(self, family, n):
        # the closure at graph scale, past the draws' 8 elements and 7 minimals
        up = make_family_instance(family, n)
        prob = _problem(up)
        assert list(prob.cand_bits) == subset_pipeline_candidates(list(up.minimal_bits))
        for s, cov in zip(prob.cand_bits, prob.cand_cov):
            assert cov == sum(1 << i for i, m in enumerate(up.minimal_bits) if s & m == s)

    @given(upper_sets(max_ground=8, max_gens=7))
    @settings(max_examples=100, deadline=None)
    @with_graph_examples
    def test_per_minimal_lists_match_definition(self, up):
        prob = _problem(up)
        for i, m in enumerate(prob.min_bits):
            want = [j for j, s in enumerate(prob.cand_bits) if s & m == s]
            assert list(prob.under(i)) == want
            # built once, then reused
            assert prob.under(i) is prob.under(i)

    def test_principal_k20_is_exact(self):
        # 2^20 subsets of the generator, but a one-element closure
        up = UpperSet(21, [(1 << 20) - 1])
        assert _problem(up).cand_bits == ((1 << 20) - 1,)
        assert expectation_threshold(up).q == pytest.approx(2 ** (-1 / 20), abs=1e-9)

    def test_closure_at_cap(self):
        assert 2**12 - 2 <= SOLVER_CANDIDATES_CAP < 2**13 - 2
        assert len(_problem(co_singletons(12)).cand_bits) == 2**12 - 2

    def test_closure_past_cap(self):
        with pytest.raises(SizeLimitExceeded):
            _problem(co_singletons(13))


class TestSearch:
    @given(upper_sets(max_ground=8, max_gens=7))
    @settings(max_examples=120, deadline=None)
    @example(graph_connectivity(4))
    def test_decide_matches_eager_search(self, up):
        # every midpoint of the q bisection, ending at p within 1e-6 of q,
        # where the root bound no longer prunes and the tree search runs
        prob = _problem(up)
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-6:
            p = 0.5 * (lo + hi)
            lazy, eager = _Search(prob, p), EagerSearch(prob, p)
            found = lazy.decide(0.5)
            assert found == eager.decide(0.5)
            assert lazy.nodes == eager.nodes
            lo, hi = (p, hi) if found is not None else (lo, p)

    @given(upper_sets(max_ground=8, max_gens=7), st.floats(0.05, 0.95), st.data())
    @settings(max_examples=120, deadline=None)
    def test_counting_bound_matches_full_scan(self, up, p, data):
        prob = _problem(up)
        uncovered = data.draw(st.integers(1, prob.full))
        search = _Search(prob, p)
        for mask in (uncovered, prob.full):
            assert search.lower_bound(mask) == EagerSearch(prob, p).lower_bound(mask)


    @pytest.mark.parametrize("family,n", [("connectivity", 4), ("hamilton", 5), ("star3", 5)])
    def test_counting_bound_matches_full_scan_deep(self, family, n):
        # every mask the search bounds at q and where the climb ended,
        # down to single uncovered minimals
        up = make_family_instance(family, n)
        prob = _problem(up)
        reached = []

        class Recording(_Search):
            def lower_bound(self, uncovered):
                reached.append((self, uncovered))
                return super().lower_bound(uncovered)

        for p in (expectation_threshold(up).q, _bracket(prob)[1]):
            Recording(prob, p).decide(0.5)
        assert min(mask.bit_count() for _, mask in reached) == 1
        for search, mask in reached:
            want = EagerSearch(prob, search.p).lower_bound(mask)
            assert _Search.lower_bound(search, mask) == want


class TestMinCoverCost:
    def test_k3_at_q(self):
        up = graph_connectivity(3)
        p = 6 ** -0.5
        sol = min_cover_cost(up, p)
        assert sol.cost == pytest.approx(0.5, abs=1e-12)
        assert {c.bits.bit_count() for c in sol.cover.elements} == {2}
        assert len(sol.cover) == 3

    def test_principal_uses_generator(self):
        up = UpperSet(5, [0b00111])
        sol = min_cover_cost(up, 0.7)
        assert sol.cost == pytest.approx(0.343, abs=1e-12)
        assert [c.indices() for c in sol.cover.elements] == [(0, 1, 2)]

    def test_disjoint_singletons(self):
        up = UpperSet(3, [0b001, 0b010])
        sol = min_cover_cost(up, 0.2)
        assert sol.cost == pytest.approx(0.4, abs=1e-12)
        assert [c.indices() for c in sol.cover.elements] == [(0,), (1,)]

    def test_cover_actually_covers(self):
        up = graph_connectivity(4)
        sol = min_cover_cost(up, 0.3)
        assert sol.cover.covers(up)
        assert sol.cost == pytest.approx(sol.cover.cost(0.3), abs=1e-12)

    def test_p_range(self):
        up = UpperSet(3, [1])
        with pytest.raises(ValueError):
            min_cover_cost(up, 0.0)
        with pytest.raises(ValueError):
            min_cover_cost(up, 1.0)

    @given(upper_sets(max_ground=8, max_gens=5), st.sampled_from([0.1, 0.3, 0.5, 0.7]))
    @settings(max_examples=80, deadline=None)
    def test_matches_assignment_oracle(self, up, p):
        sol = min_cover_cost(up, p)
        oracle = naive_min_cover_cost(list(up.minimal_bits), p)
        assert sol.cost == pytest.approx(oracle, abs=1e-10)
        assert sol.cover.covers(up)

    @given(upper_sets(max_ground=6, max_gens=3), st.sampled_from([0.2, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_matches_subset_enumeration(self, up, p):
        literal = subset_enumeration_min_cover_cost(list(up.minimal_bits), p)
        if literal is not None:
            assert min_cover_cost(up, p).cost == pytest.approx(literal, abs=1e-10)


class TestIsPSmall:
    def test_k3_examples(self):
        up = graph_connectivity(3)
        assert is_p_small(up, 0.3)
        assert not is_p_small(up, 0.45)
        # min over cover shapes: min(3*0.2025, 0.45 + 0.2025, 0.9) = 0.6075
        assert min_cover_cost(up, 0.45).cost == pytest.approx(0.6075, abs=1e-12)

    def test_endpoints(self):
        up = UpperSet(4, [0b0011, 0b1100])
        assert is_p_small(up, 0.0)
        assert not is_p_small(up, 1.0)

    @given(upper_sets(max_ground=8, max_gens=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_feasibility(self, up, data):
        p = data.draw(st.floats(0.01, 0.99))
        smaller = data.draw(st.floats(0.0, p))
        if is_p_small(up, p):
            assert is_p_small(up, smaller)

    @given(upper_sets(max_ground=8, max_gens=5), st.sampled_from([0.15, 0.4, 0.6]))
    @settings(max_examples=60, deadline=None)
    def test_decision_consistent_with_optimum(self, up, p):
        # the early-exit decision path must agree with the full optimization
        assert is_p_small(up, p) == (min_cover_cost(up, p).cost <= 0.5)

    @staticmethod
    def assert_exact_near_q(up):
        q = expectation_threshold(up).q
        below = above = q
        points = [q]
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            points += [below, above]
        for p in points:
            assert is_p_small(up, p) == exhaustive_p_small(list(up.minimal_bits), p)

    @given(upper_sets(max_ground=8, max_gens=6))
    @settings(max_examples=150, deadline=None)
    # at the float above q the witness weighs 0.5000000000000001 by fsum
    @example(UpperSet(8, [34, 140, 23, 219]))
    @example(UpperSet(6, [17, 18, 11, 28, 44]))
    @example(UpperSet(8, [68, 72, 182]))
    def test_exact_near_q(self, up):
        assume(len(_problem(up).cand_bits) <= 11)
        self.assert_exact_near_q(up)

    def test_exact_at_witness_fsum_root(self):
        # one float above q its witness weighs exactly 1/2 by fsum, and more
        # than 1/2 exactly; 22 candidates, past the draws' bound
        self.assert_exact_near_q(UpperSet(8, [162, 51, 103, 107, 217, 189]))

    @pytest.mark.parametrize("p", [1e-30, 1e-200, 5e-324])
    def test_tiny_p(self, p):
        # the powers of p underflow to subnormals and to 0
        assert is_p_small(graph_connectivity(4), p)


def assert_witness_last_float(res: ExpectationThreshold):
    """q is the largest float at which the witness weighs at most 1/2, its
    weight summed exactly."""
    masks = [e.bits for e in res.witness_cover.elements]
    assert exact_weight(masks, res.q) <= Fraction(1, 2) < exact_weight(masks, math.nextafter(res.q, 1.0))


class TestExpectationThreshold:
    def test_principal_size_three(self):
        up = UpperSet(5, [0b00111])
        res = expectation_threshold(up)
        assert res.q == pytest.approx(2 ** (-1 / 3), abs=1e-9)

    def test_k3_connectivity(self):
        res = expectation_threshold(graph_connectivity(3))
        assert res.q == pytest.approx(6 ** -0.5, abs=1e-9)

    def test_disjoint_singletons(self):
        res = expectation_threshold(UpperSet(3, [0b001, 0b010]))
        assert res.q == pytest.approx(0.25, abs=1e-9)

    def test_witness_validity(self):
        up = graph_connectivity(4)
        res = expectation_threshold(up)
        assert res.witness_cover.covers(up)
        assert res.witness_cover.cost(res.q - 1e-9) <= 0.5

    @pytest.mark.parametrize("k", range(1, 7))
    def test_principal_exactness(self, k):
        up = UpperSet(k + 1, [(1 << k) - 1])
        res = expectation_threshold(up)
        assert res.q == pytest.approx(2 ** (-1 / k), abs=1e-9)

    @given(upper_sets(max_ground=8, max_gens=5))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_q_and_brackets(self, up):
        res = expectation_threshold(up, tol=1e-6)
        assert res.q == pytest.approx(naive_q(list(up.minimal_bits), iters=40), abs=1e-5)
        assert is_p_small(up, res.q - 1e-6)
        assert not is_p_small(up, res.q + 1e-6)

    @given(upper_sets(max_ground=10, max_gens=8))
    @settings(max_examples=100, deadline=None)
    @with_graph_examples
    def test_q_is_the_witness_last_float(self, up):
        assert_witness_last_float(expectation_threshold(up))

    def test_battery_and_graph_witnesses_meet_the_definition(self):
        # every battery instance, and every graph rung whose q is answered,
        # past the search's minimals cap too
        rungs = {"connectivity": (3, 4), "triangle": range(3, 9), "hamilton": range(4, 7),
                 "star3": range(4, 8), "path2": range(3, 9), "matching2": range(4, 8)}
        instances = [up for _, up in builtin_battery()]
        instances += [make_family_instance(f, n) for f, ns in rungs.items() for n in ns]
        assert len(instances) == 228
        for up in instances:
            assert_witness_last_float(expectation_threshold(up))

    @given(upper_sets(max_ground=8, max_gens=5))
    @settings(max_examples=30, deadline=None)
    def test_sandwich_left(self, up):
        q = expectation_threshold(up).q
        p_c = critical_probability(up).p_c
        assert q <= p_c + 2e-9

    def test_solver_caps(self):
        with pytest.raises(SizeLimitExceeded):
            expectation_threshold(graph_connectivity(5))  # 125 minimal elements

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            expectation_threshold(graph_connectivity(3), tol)


# builtin battery instances, one or two per family
CACHED_NAMES = ("principal-k3-n5", "singletons-m3-n4", "connectivity-n4",
                "triangle-n5", "matching2-n5", "mixed-chain-pairs")


class TestCachedQ:
    """No library path calls ``cached_q``; the benchmark's tracing wraps it
    by name, so it is held to ``expectation_threshold`` here."""

    def test_equals_expectation_threshold(self):
        battery = dict(builtin_battery())
        for name in CACHED_NAMES:
            up = battery[name]
            assert expectation.cached_q(up) == expectation_threshold(up).q

    def test_refuses_where_the_solver_does(self):
        with pytest.raises(SizeLimitExceeded):
            expectation.cached_q(graph_connectivity(5))  # 125 minimal elements


# tol does not reach q; 1e-15 and below run the oracle's
# bisection down to adjacent floats
TOLS = (1.0, 0.3, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-17, 1e-300)


class TestBracketedBisection:
    """q is the certified root of the climbed cover: F is p-small at q, and
    a decide returns None just above it."""

    @staticmethod
    def assert_certified(up, tol):
        got = expectation_threshold(up, tol)
        q = got.q
        assert q == expectation_threshold(up, TOLS[0]).q
        assert got.witness_cover.covers(up)
        assert got.witness_cover.cost(q) <= 0.5
        assert is_p_small(up, q)
        prob = _problem(up)
        _, no_from = _bracket(prob)
        assert _Search(prob, no_from).decide(0.5) is None
        assert q < no_from <= q + 1e-11
        lo, hi = bisection_threshold(up, tol)
        assert lo <= q < hi

    @given(upper_sets(max_ground=10, max_gens=8), st.booleans(), st.sampled_from(TOLS))
    @settings(max_examples=150, deadline=None)
    # its witness weighs exactly 1/2 by fsum at its root, yet more when
    # summed one by one, so a q stepped down only that far is not p-small
    @example(UpperSet(8, [162, 51, 103, 107, 217, 189]), False, 1e-9)
    def test_random_and_complements(self, up, dense, tol):
        if dense:
            full = (1 << up.ground_size) - 1
            assume(full not in up.minimal_bits)
            up = UpperSet(up.ground_size, [full ^ b for b in up.minimal_bits])
        self.assert_certified(up, tol)

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize(
        "family,n",
        [("connectivity", n) for n in (3, 4)]
        + [("triangle", n) for n in range(3, 8)]
        + [("hamilton", n) for n in range(4, 7)],
    )
    def test_graph_families(self, family, n, tol):
        self.assert_certified(make_family_instance(family, n), tol)

    @pytest.mark.parametrize("tol", TOLS)
    def test_principal(self, tol):
        for k in range(1, 21):
            self.assert_certified(make_family_instance("principal", k), tol)

    def test_q_is_not_a_float_short(self):
        # Newton's descent stops a float below the last p at which the
        # witness p + 2 p^2 weighs <= 1/2; q is stepped up to it
        up = UpperSet(5, [0b00001, 0b00110, 0b11000])
        q = expectation_threshold(up).q
        assert bisection_threshold(up, 1e-300) == (q, math.nextafter(q, 1.0))

    def test_few_decide_calls(self, monkeypatch):
        calls = []
        decide = _Search.decide

        def spy(self, threshold):
            calls.append(self.p)
            return decide(self, threshold)

        monkeypatch.setattr(_Search, "decide", spy)
        clear_caches()
        expectation_threshold(graph_connectivity(4))
        # a decide at every midpoint of the bisection makes 30
        assert 1 <= len(calls) <= 6

    def test_battery_climbs_within_budget(self, monkeypatch):
        calls, nodes = [], []
        decide = _Search.decide

        def spy(self, threshold):
            before = self.nodes
            found = decide(self, threshold)
            calls.append(self.p)
            nodes.append(self.nodes - before)
            return found

        monkeypatch.setattr(_Search, "decide", spy)
        clear_caches()
        for _, up in builtin_battery():
            expectation_threshold(up)
        # the counts of the certified climb over the 203 battery instances
        assert len(calls) <= 210
        assert sum(nodes) <= 717

    def test_no_decide_calls_below_float_spacing(self, monkeypatch):
        calls = []
        decide = _Search.decide

        def spy(self, threshold):
            calls.append(self.p)
            return decide(self, threshold)

        monkeypatch.setattr(_Search, "decide", spy)
        counts = {}
        for tol in (1e-16, 1e-17):
            clear_caches()
            calls.clear()
            expectation_threshold(graph_connectivity(3), tol)
            counts[tol] = len(calls)
        # tol does not reach the climb, so it cannot add searches
        assert counts[1e-17] == counts[1e-16]


def climbed(up) -> ExpectationThreshold:
    """q and its witness from the climb alone, as ``expectation_threshold``
    finds them where the spread certificate does not hold."""
    prob = _problem(up)
    chosen, _ = _bracket(prob)
    witness = Cover.from_masks(up.ground_size, (prob.cand_bits[j] for j in chosen))
    return ExpectationThreshold(_largest_small(_weight_terms(prob, chosen)), witness)


# the builtin battery's instances where the minimals are not spread at q
UNCERTIFIED_BATTERY = {
    "connectivity-n4", "mixed-chain-pairs", "random-n8-c3-m3-s20253", "random-n4-c2-m2-s20258",
    "random-n12-c4-m4-s20266", "random-n4-c2-m2-s20294", "random-n12-c4-m4-s20302",
    "random-n8-c3-m4-s20334", "random-n4-c2-m3-s20339", "random-n9-c10-m4-s20362",
    "random-n4-c2-m2-s20384", "random-n11-c6-m5-s20391",
}


class TestSpreadCertificate:
    """The certificate gives q with the minimals as the witness, and no
    search, wherever the minimals are spread at the float above q."""

    @given(upper_sets(max_ground=8, max_gens=6))
    @settings(max_examples=100, deadline=None)
    @example(graph_connectivity(3))
    def test_matches_naive_q(self, up):
        certified = _spread_threshold(up)
        res = expectation_threshold(up)
        assert res.q == pytest.approx(naive_q(list(up.minimal_bits)), abs=1e-12)
        if certified is not None:
            assert res == certified
            assert res.witness_cover == Cover.from_masks(up.ground_size, up.minimal_bits)
            if len(_problem(up).cand_bits) <= 11:
                assert exhaustive_p_small(list(up.minimal_bits), res.q)
                assert not exhaustive_p_small(list(up.minimal_bits), math.nextafter(res.q, 1.0))

    def test_same_q_and_witness_as_the_search(self):
        # every battery instance and graph rung the search answers
        instances = list(builtin_battery())
        instances += [(f"{family}-{n}", make_family_instance(family, n)) for family, n in GRAPH_INSTANCES]
        uncertified = set()
        for name, up in instances:
            certified = _spread_threshold(up)
            if certified is None:
                uncertified.add(name)
            else:
                assert certified == climbed(up), name
        assert uncertified == UNCERTIFIED_BATTERY | {"connectivity-4"}

    def test_connectivity_4_comes_from_the_search(self, monkeypatch):
        calls = []
        decide = _Search.decide

        def spy(self, threshold):
            calls.append(self.p)
            return decide(self, threshold)

        monkeypatch.setattr(_Search, "decide", spy)
        clear_caches()
        up = graph_connectivity(4)
        assert _spread_threshold(up) is None
        assert expectation_threshold(up) == climbed(up)
        assert calls
        # the failed certificate and the search share one closure
        assert expectation._closure.cache_info().misses == 1

    def test_answers_past_the_minimals_cap(self):
        # star3-7's 140 minimals, with no search; p-small at q, by the
        # minimals, and the search's cap refuses just above it
        up = make_family_instance("star3", 7)
        assert len(up.minimal_bits) > SOLVER_MINIMALS_CAP
        res = expectation_threshold(up)
        assert res.witness_cover == Cover.from_masks(up.ground_size, up.minimal_bits)
        assert_witness_last_float(res)
        assert is_p_small(up, res.q)
        with pytest.raises(SizeLimitExceeded, match=r"\|F0\| <= 64, got 140"):
            is_p_small(up, math.nextafter(res.q, 1.0))

    @pytest.mark.parametrize("family,n,count", [("connectivity", 5, 125), ("hamilton", 7, 360)])
    def test_refusals_keep_the_minimals_cap_message(self, family, n, count):
        # connectivity-5's minimals are not spread; hamilton-7's closure
        # passes the candidates cap
        with pytest.raises(SizeLimitExceeded) as exc:
            expectation_threshold(make_family_instance(family, n))
        assert str(exc.value) == f"exact cover search needs |F0| <= 64, got {count}"

    def test_too_many_minimals_refused_before_the_incidence(self, monkeypatch):
        # each minimal is its own closure member, so 6,435 minimals (the
        # 7-sets of 15) pass the candidates cap with no incidence built
        def unexpected(upper):
            raise AssertionError("element_extents called")

        monkeypatch.setattr(expectation, "element_extents", unexpected)
        up = UpperSet(15, [sum(1 << x for x in c) for c in itertools.combinations(range(15), 7)])
        assert len(up.minimal_bits) > SOLVER_CANDIDATES_CAP
        clear_caches()
        with pytest.raises(SizeLimitExceeded, match=r"\|F0\| <= 64, got 6435"):
            expectation_threshold(up)
