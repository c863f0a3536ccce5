import dataclasses
import math

import pytest

from upsetkit import (
    BoundVariant,
    SweepRecord,
    information_classification,
    necessary_conditions_report,
    records_to_csv,
    sweep,
    verify_instance,
)
from upsetkit.errors import EmptyInput, TooFewRecords
from upsetkit.families import make_family_instance

BELL = BoundVariant(8.0)


def synthetic_record(n, q, ell, bound):
    return SweepRecord(
        n=n, min_count=n, ell0=ell, ell=max(ell, 2), dim_unrestricted=None,
        dim_within_family=None, q=q, p_c=None, bound_value=bound,
        width=bound - q, nontrivial_info=bound < 1.0,
        ratio_perfect=q * math.log2(max(ell, 2)), sigma_empty_at=(True,),
    )


class TestSweep:
    def test_connectivity_3_to_5(self):
        records = sweep("connectivity", range(3, 6), BELL, t_max=2)
        assert [r.min_count for r in records] == [3, 16, 125]
        assert [r.ell0 for r in records] == [2, 3, 4]
        # q is past its exact cap at n = 5: absent, not fabricated; dim
        # comes from the enumeration profile, which p_c uses too
        assert records[2].q is None
        assert records[2].p_c is not None
        assert (records[2].dim_unrestricted, records[2].dim_within_family) == (4, 125)
        assert records[0].q is not None and records[1].q is not None

    def test_principal_closed_form(self):
        records = sweep("principal", range(2, 6), BELL)
        for r in records:
            assert r.q == pytest.approx(2 ** (-1 / r.n), abs=1e-8)
            assert r.p_c == pytest.approx(r.q, abs=2e-9)
            assert r.width == pytest.approx(r.bound_value - r.q, abs=1e-9)

    def test_empty_range(self):
        assert sweep("connectivity", range(3, 3), BELL) == []

    def test_generator_error_recorded_in_row(self):
        records = sweep("connectivity", [2, 3], BELL)
        assert records[0].error is not None and records[0].q is None
        assert records[1].error is None


class TestPipeline:
    # the graph-family sweeps of the benchmark's graph-ladder workload,
    # every cap included: q at connectivity-5, p_c at triangle-7, and q and
    # the dimension on every row past 20 elements with more than 64 minimals
    SWEEPS = (("connectivity", 3, 5), ("triangle", 3, 7), ("hamilton", 4, 6),
              ("star3", 4, 7), ("path2", 3, 8), ("matching2", 4, 7))
    SHARED = ("min_count", "ell0", "ell", "dim_unrestricted", "dim_within_family",
              "q", "p_c", "bound_value", "width", "nontrivial_info")

    @pytest.mark.parametrize("family,a,b", SWEEPS)
    def test_rows_project_the_report(self, family, a, b):
        t_max = 3
        for row in sweep(family, range(a, b + 1), BELL, t_max=t_max):
            report = verify_instance(make_family_instance(family, row.n), BELL)
            for name in self.SHARED:
                assert getattr(row, name) == getattr(report, name), (row.n, name)
            assert row.error == report.absent
            empty = dict(report.to_json_dict()["sigma_profile"])
            assert row.sigma_empty_at == tuple(
                empty.get(row.min_count - t) for t in range(t_max + 1))


class TestCsv:
    def test_header_and_shape(self):
        records = sweep("principal", range(2, 5), BELL, t_max=1)
        text = records_to_csv(records, t_max=1)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "n,min_count,ell0,ell,dim_u,dim_f,q,p_c,bound,width,nontrivial,"
            "ratio,sigma_empty_t0,sigma_empty_t1"
        )
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "1"
        assert first[12] == "false"  # sigma_{|F0|} = sigma_1 nonempty for principal
        assert first[13] == ""      # t = 1 exceeds |F0| = 1: absent

    def test_twelve_significant_digits(self):
        records = sweep("principal", range(3, 4), BELL)
        row = records_to_csv(records, 0).strip().split("\n")[1].split(",")
        assert row[6] == f"{records[0].q:.12g}"

    def test_absent_cells_empty(self):
        records = sweep("connectivity", range(5, 6), BELL)
        row = records_to_csv(records, 0).strip().split("\n")[1].split(",")
        assert row[6] == ""  # q over caps
        assert row[7] != ""  # p_c still computed


class TestNecessaryConditions:
    def test_connectivity_sigma_settles_immediately(self):
        records = sweep("connectivity", range(3, 5), BELL, t_max=1)
        report = necessary_conditions_report(records, BELL)
        # no edge lies in every spanning tree, from n = 3 on
        assert report.sigma_empty_from[0] == 3
        assert report.min_count_strictly_increasing is True
        assert report.contradiction_rows == ()

    def test_principal_never_settles(self):
        records = sweep("principal", range(2, 6), BELL, t_max=0)
        report = necessary_conditions_report(records, BELL)
        assert report.sigma_empty_from[0] is None  # sigma_1 = S_n is never empty

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            necessary_conditions_report([], BELL)

    def test_capped_row_keeps_its_sigma_flags(self):
        # a row missing only q and p_c keeps its sigma flags: sigma_{|F0|}
        # is nonempty on the last row, so t = 0 never settles
        rows = [synthetic_record(n, 0.01, 4, 0.5) for n in (2, 3)]
        capped = SweepRecord(
            n=4, min_count=4, ell0=4, ell=4, dim_unrestricted=2,
            dim_within_family=4, q=None, p_c=None, bound_value=None,
            width=None, nontrivial_info=None, ratio_perfect=None,
            sigma_empty_at=(False,), error="exact cover search needs |F0| <= 64, got 125",
        )
        assert necessary_conditions_report(rows, BELL).sigma_empty_from[0] == 2
        report = necessary_conditions_report(rows + [capped], BELL)
        assert report.sigma_empty_from[0] is None
        assert report.min_count_strictly_increasing is True

    def test_contradiction_flag_fires_on_corrupted_row(self):
        # a row claiming nontrivial info while all minimals intersect
        good = synthetic_record(2, 0.01, 4, 0.5)
        bad = SweepRecord(
            n=3, min_count=2, ell0=4, ell=4, dim_unrestricted=None,
            dim_within_family=None, q=0.01, p_c=None, bound_value=0.5,
            width=0.49, nontrivial_info=True, ratio_perfect=0.02,
            sigma_empty_at=(False,),
        )
        report = necessary_conditions_report([good, bad], BELL)
        assert report.contradiction_rows == (3,)


class TestClassification:
    def test_principal_never_nontrivial(self):
        records = sweep("principal", range(2, 7), BELL)
        result = information_classification(records)
        assert result.kind == "inconclusive"
        assert result.never_nontrivial
        assert "diagnostic" in result.note

    def test_synthetic_perfect_trend(self):
        # q(n) = 1/n^2, ell(n) = n: ratio log2(n)/n^2 strictly decreasing
        records = [
            synthetic_record(n, 1.0 / n**2, n, 8 * math.log2(2 * n) / n**2)
            for n in range(3, 10)
        ]
        result = information_classification(records)
        assert result.kind == "perfect_trend"
        # 8 log2(2n)/n^2 first dips under 1 at n = 6 and stays there
        assert result.N == 6
        assert not result.never_nontrivial

    def test_nontrivial_without_perfect_trend(self):
        # bound below 1 from some point on, but the ratio oscillates
        ratios = [0.30, 0.29, 0.31, 0.28, 0.32, 0.27]
        records = [
            dataclasses.replace(synthetic_record(i + 3, 0.05, 4, 0.9), ratio_perfect=r)
            for i, r in enumerate(ratios)
        ]
        result = information_classification(records)
        assert result.kind == "nontrivial_from_N"
        assert result.N == 3

    def test_too_few_records(self):
        records = sweep("principal", range(2, 4), BELL)
        with pytest.raises(TooFewRecords):
            information_classification(records)

    def test_stable_under_trend_continuation(self):
        records = [
            synthetic_record(n, 1.0 / n**2, n, 8 * math.log2(2 * n) / n**2)
            for n in range(3, 9)
        ]
        first = information_classification(records)
        extended = records + [synthetic_record(9, 1 / 81.0, 9, 8 * math.log2(18) / 81)]
        second = information_classification(extended)
        assert (first.kind, first.N) == (second.kind, second.N)
