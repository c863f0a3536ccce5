import itertools
import json
import math

import pytest

import upsetkit
from test_core import upper_sets
from hypothesis import given, settings
from upsetkit import (
    BoundVariant,
    InequalityCheck,
    fmt,
    graph_connectivity,
    verify_instance,
)
from upsetkit.core import UpperSet
from upsetkit.families import make_family_instance

PRINCIPAL3 = UpperSet(5, [0b00111])
SINGLETONS2 = UpperSet(3, [0b001, 0b010])


class TestVariant:
    def test_preset_names(self):
        assert BoundVariant(8.0).name == "bell_8_log_2ell0"
        assert BoundVariant(4.5).name == "park_vondrak_4p5"
        assert BoundVariant(2.0, argument="ell").name == "kk_log_ell"
        assert BoundVariant(K=5.0, argument="two_ell0").name == "custom"

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundVariant(K=0.0)
        for K in (math.nan, math.inf):
            with pytest.raises(ValueError, match="K must be positive and finite"):
                BoundVariant(K=K)
        with pytest.raises(ValueError):
            BoundVariant(K=2.0, log_base="10")
        with pytest.raises(ValueError):
            BoundVariant(K=2.0, argument="ell0")

    def test_K_times_largest_log_finite(self):
        # log2(60) > ln(60), so a K can be too large in base 2 only
        with pytest.raises(ValueError, match=r"K \* log\(2 \* 30\) must be finite"):
            BoundVariant(K=3.1e307)
        assert BoundVariant(K=3.1e307, log_base="e").K == 3.1e307

    def test_largest_K_keeps_every_field_finite(self):
        K = math.nextafter(math.inf, 0.0) / math.log2(60)
        while True:
            try:
                variant = BoundVariant(K=K)
                break
            except ValueError:
                K = math.nextafter(K, 0.0)
        with pytest.raises(ValueError):
            BoundVariant(K=math.nextafter(K, math.inf))
        # ell0 = 30 gives the largest log argument, 2 * ell0 = 60
        report = verify_instance(UpperSet(30, [(1 << 30) - 1]), variant)
        doc = json.loads(fmt.dumps(report.to_json_dict()), parse_constant=pytest.fail)
        assert doc["bound_value"] > 1e307
        assert all(c["slack"] is None or math.isfinite(c["slack"])
                   for c in doc["inequality_checks"])


def _check(report, name):
    return next(c for c in report.inequality_checks if c.name == name)


def _all_hold(report):
    return all(c.holds for c in report.inequality_checks)


class TestKkBound:
    def test_principal_park_vondrak(self):
        got = verify_instance(PRINCIPAL3, BoundVariant(4.5)).bound_value
        assert got == pytest.approx(4.5 * 2 ** (-1 / 3) * math.log2(6), abs=1e-3)
        assert got == pytest.approx(9.233, abs=2e-3)

    def test_k3_bell(self):
        got = verify_instance(graph_connectivity(3), BoundVariant(8.0)).bound_value
        assert got == pytest.approx(8 * 6**-0.5 * 2, abs=1e-6)
        assert got == pytest.approx(6.532, abs=1e-3)

    def test_natural_log_variant(self):
        # five disjoint singletons: q is exactly 1/10 and ell floors to 2
        up = UpperSet(6, [1 << i for i in range(5)])
        got = verify_instance(up, BoundVariant(4.5, "e", "ell")).bound_value
        assert got == pytest.approx(4.5 * 0.1 * math.log(2), abs=1e-6)
        assert got == pytest.approx(0.3119, abs=1e-3)


class TestNontrivialInfo:
    def test_k3_bell_no_info(self):
        assert verify_instance(graph_connectivity(3), BoundVariant(8.0)).nontrivial_info is False

    def test_small_q_gives_info(self):
        up = UpperSet(6, [1 << i for i in range(5)])
        assert verify_instance(up, BoundVariant(4.5, "e", "ell")).nontrivial_info is True

    @pytest.mark.parametrize("variant", [
        BoundVariant(8.0),
        BoundVariant(4.5),
        BoundVariant(2.0, argument="ell"),
        BoundVariant(8.0, argument="ell"),
    ])
    def test_principal_never_informative_for_k_ge_2(self, variant):
        for k in range(1, 6):
            up = UpperSet(k + 2, [(1 << k) - 1])
            assert verify_instance(up, variant).nontrivial_info is False


class TestQEstimateInterval:
    # q sits in ((2 dim)^-1, (2 dim)^(-1/ell)); the report's two q-vs-dim
    # checks carry q - lo and hi - q as their slacks
    def _interval(self, up):
        report = verify_instance(up, BoundVariant(8.0))
        dim = report.dim_unrestricted
        lo, hi = (2.0 * dim) ** -1.0, (2.0 * dim) ** (-1.0 / up.ell)
        assert _check(report, "q_ge_inverse_2dim").slack == pytest.approx(report.q - lo, abs=1e-15)
        assert _check(report, "q_le_inverse_2dim_root_ell").slack == pytest.approx(
            hi - report.q, abs=1e-15)
        return dim, lo, hi, report

    def test_k3(self):
        dim, lo, hi, report = self._interval(graph_connectivity(3))
        assert (dim, lo, hi) == (2, 0.25, 0.5)
        assert lo <= report.q <= hi
        assert report.q == upsetkit.expectation_threshold(graph_connectivity(3)).q

    def test_principal_upper_boundary(self):
        dim, lo, hi, report = self._interval(PRINCIPAL3)
        assert (dim, lo, hi) == (1, 0.5, 2 ** (-1 / 3))
        assert report.q == pytest.approx(hi, abs=1e-9)
        assert _check(report, "q_le_inverse_2dim_root_ell").slack == pytest.approx(0.0, abs=1e-9)

    def test_singletons_lower_boundary(self):
        dim, lo, hi, report = self._interval(SINGLETONS2)
        assert (dim, lo, hi) == (2, 0.25, 0.5)
        assert report.q == pytest.approx(lo, abs=1e-9)
        assert _check(report, "q_ge_inverse_2dim").slack == pytest.approx(0.0, abs=1e-9)


class TestVerifyInstance:
    def test_k3_all_hold(self):
        report = verify_instance(graph_connectivity(3), BoundVariant(8.0))
        assert _all_hold(report)
        assert not report.nontrivial_info
        assert report.dim_unrestricted == 2
        assert report.dim_within_family == 3

    def test_principal_sandwich_tight(self):
        report = verify_instance(PRINCIPAL3, BoundVariant(8.0))
        left = next(c for c in report.inequality_checks if c.name == "sandwich_left_q_le_pc")
        assert left.holds
        assert abs(left.slack) <= 2e-9

    def test_singletons_vacuous_intersection_check(self):
        report = verify_instance(SINGLETONS2, BoundVariant(8.0))
        assert report.dim_unrestricted == 2
        check = next(
            c for c in report.inequality_checks
            if c.name == "nonempty_intersection_forces_bound_ge_1"
        )
        assert check.holds and check.slack is None

    def test_intersecting_minimals_bound_at_least_one(self):
        up = UpperSet(4, [0b0011, 0b0101])  # share element 0
        report = verify_instance(up, BoundVariant(8.0))
        check = next(
            c for c in report.inequality_checks
            if c.name == "nonempty_intersection_forces_bound_ge_1"
        )
        assert check.holds and check.slack is not None
        assert report.bound_value >= 1.0

    def test_width_consistency(self):
        report = verify_instance(graph_connectivity(3), BoundVariant(8.0))
        assert report.width == pytest.approx(report.bound_value - report.q, abs=1e-12)

    def test_sigma_profile(self):
        report = verify_instance(graph_connectivity(3), BoundVariant(8.0))
        # one element lies in two of the three spanning trees, none in all
        assert report.sigma_top == 2
        assert report.to_json_dict()["sigma_profile"] == [[1, False], [2, False], [3, True]]

    def test_q_past_cap_absent_with_reason(self):
        report = verify_instance(make_family_instance("connectivity", 5), BoundVariant(8.0))
        assert report.q is None and report.threshold is None
        assert report.bound_value is None and report.width is None
        assert report.nontrivial_info is None
        assert report.p_c is not None and report.critical.p_c == report.p_c
        assert report.absent == "exact cover search needs |F0| <= 64, got 125"
        # the sandwich, the bound checks and the dim-q interval need q
        assert [c.name for c in report.inequality_checks] == [
            "dim_le_min_count_plus_1_minus_t", "dim_vs_sigma_all_k",
        ]

    def test_pc_past_cap_absent_with_reason(self):
        report = verify_instance(make_family_instance("triangle", 7), BoundVariant(8.0))
        assert report.q is not None and report.threshold.q == report.q
        assert report.p_c is None and report.critical is None
        assert report.absent == (
            "auto picks no exact method for ground_size 21 > 20 and |F0| 35 > 24"
        )
        # the dimension, 9 by Mantel's theorem, comes from the cover search
        assert report.dim_unrestricted == 9
        assert [c.name for c in report.inequality_checks] == [
            "q_ge_inverse_2dim", "q_le_inverse_2dim_root_ell",
            "dim_le_min_count_plus_1_minus_t", "dim_vs_sigma_all_k",
            "nonempty_intersection_forces_bound_ge_1", "large_dim_forces_nontrivial_info",
        ]

    def test_dimension_cap_is_not_a_reason(self):
        # past 20 elements the unrestricted dimension has the cover search's
        # minimals cap (here 21 elements and the 66 pairs of 12): it goes,
        # while q (the pairs are spread, so no search) and p_c by
        # enumeration stay, and the report names nothing absent
        pairs = [1 << i | 1 << j for i, j in itertools.combinations(range(12), 2)]
        report = verify_instance(UpperSet(21, pairs), BoundVariant(8.0), "enumeration")
        assert report.dim_unrestricted is None and report.dim_within_family == 66
        assert report.dimension is None
        # the 66 pairs weigh 66 q^2 = 1/2
        assert math.isclose(report.q, 132**-0.5, rel_tol=1e-12) and report.p_c is not None
        assert report.absent is None
        # only the checks that need the unrestricted dimension are left out
        assert [c.name for c in report.inequality_checks] == [
            "sandwich_left_q_le_pc", "sandwich_right_pc_le_bound",
            "nonempty_intersection_forces_bound_ge_1",
        ]

    def test_power_past_the_float_range_is_a_false_premise(self):
        # (K * log2(58)) ** 29 overflows at K = 1e11
        report = verify_instance(make_family_instance("principal", 29), BoundVariant(1e11))
        assert report.dim_unrestricted == 1
        assert _check(report, "large_dim_forces_nontrivial_info") == InequalityCheck(
            "large_dim_forces_nontrivial_info", True, None)

    def test_report_carries_its_sources(self):
        up = graph_connectivity(4)
        report = verify_instance(up, BoundVariant(8.0))
        assert report.absent is None
        assert report.threshold.witness_cover.covers(up)
        assert report.critical.residual <= 1e-9
        assert report.dimension.dim == report.dim_unrestricted == 3
        assert report.dimension.witness.covers(up)
        assert report.dim_within_family == len(up.minimals) == 16

    @given(upper_sets(max_ground=8, max_gens=5))
    @settings(max_examples=25, deadline=None)
    def test_all_checks_hold_on_random_instances(self, up):
        report = verify_instance(up, BoundVariant(8.0))
        assert _all_hold(report), [c for c in report.inequality_checks if not c.holds]


class TestReportSerialization:
    def test_fixed_field_order(self):
        report = verify_instance(graph_connectivity(3), BoundVariant(8.0))
        doc = json.loads(fmt.dumps(report.to_json_dict()))
        assert list(doc) == [
            "variant", "ground_size", "min_count", "q", "p_c", "ell0", "ell",
            "dim_unrestricted", "dim_within_family", "bound_value", "width",
            "nontrivial_info", "sigma_profile", "inequality_checks",
        ]

    def test_byte_determinism_across_cache_clear(self):
        first = fmt.dumps(verify_instance(graph_connectivity(3), BoundVariant(8.0)).to_json_dict())
        upsetkit.clear_caches()
        second = fmt.dumps(verify_instance(graph_connectivity(3), BoundVariant(8.0)).to_json_dict())
        assert first == second
