import argparse
import dataclasses
import hashlib
import importlib
import inspect
import json
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

import upsetkit
from test_core import upper_sets
from upsetkit import cli, expectation_threshold, fmt, graph_connectivity
from upsetkit.bounds import BoundVariant
from upsetkit.core import UpperSet


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(graph_connectivity(3).to_instance_json())
    return str(path)


@pytest.fixture()
def principal3_file(tmp_path):
    path = tmp_path / "principal3.json"
    path.write_text(UpperSet(5, [0b00111]).to_instance_json())
    return str(path)


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_k3_report(self, capsys, k3_file):
        code, out, _ = run_main(capsys, ["compute", "--instance", k3_file])
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == pytest.approx(0.408248, abs=1e-6)
        assert doc["p_c"] == pytest.approx(0.5, abs=1e-6)
        assert doc["variant"]["name"] == "bell_8_log_2ell0"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_main(capsys, ["compute", "--instance", str(bad)])
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_main(capsys, ["compute", "--instance", "/nonexistent.json"])
        assert code == 2

    def test_non_antichain_rejected(self, capsys, tmp_path):
        doc = {"ground_size": 3, "minimal_elements": [[0], [0, 1]]}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_main(capsys, ["compute", "--instance", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"ground_size": 3, "minimal_elements": [[1.5]]},
            {"ground_size": 3, "minimal_elements": [[0], ["1"]]},
            # JSON booleans load as Python bools, which are ints
            {"ground_size": 3, "minimal_elements": [[True]]},
            {"ground_size": True, "minimal_elements": [[0]]},
            {"ground_size": 3.0, "minimal_elements": [[0]]},
            {"ground_size": 3, "minimal_elements": [[0], [0, 1]], "normalize": "false"},
            {"ground_size": 3, "minimal_elements": [[0]], "normalize": 1},
        ],
    )
    def test_mistyped_fields_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, ["compute", "--instance", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_deeply_nested_exits_2(self, capsys, tmp_path):
        # json.loads raises RecursionError, not a ValueError, at this depth
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run_main(capsys, ["compute", "--instance", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_normalize_true_reduces(self, capsys, tmp_path):
        doc = {"ground_size": 3, "minimal_elements": [[0], [0, 1]], "normalize": True}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_main(capsys, ["compute", "--instance", str(path)])
        assert code == 0
        assert json.loads(out)["min_count"] == 1

    def test_mc_without_samples(self, capsys, k3_file):
        code, _, err = run_main(
            capsys, ["compute", "--instance", k3_file, "--method", "mc"]
        )
        assert code == 2
        assert "samples" in err

    def test_mc_attaches_estimate(self, capsys, k3_file):
        code, out, _ = run_main(
            capsys,
            ["compute", "--instance", k3_file, "--method", "mc",
             "--samples", "20000", "--seed", "5"],
        )
        assert code == 0
        doc = json.loads(out)
        extra = doc["mu_monte_carlo_at_p_c"]
        assert abs(extra["value"] - 0.5) <= 5 * (0.25 / 20000) ** 0.5

    def test_cap_exceeded_exit_3(self, capsys, tmp_path):
        # connectivity at n = 5 has 125 minimal elements: q is past the cap
        path = tmp_path / "k5.json"
        path.write_text(graph_connectivity(5).to_instance_json())
        code, _, _ = run_main(capsys, ["compute", "--instance", str(path)])
        assert code == 3

    def test_variant_flags(self, capsys, k3_file):
        code, out, _ = run_main(
            capsys,
            ["compute", "--instance", k3_file, "--K", "4.5", "--arg", "2ell0"],
        )
        assert code == 0
        assert json.loads(out)["variant"]["name"] == "park_vondrak_4p5"


class TestSweep:
    def test_connectivity_csv(self, capsys):
        code, out, err = run_main(
            capsys, ["sweep", "--family", "connectivity", "--range", "3..5"]
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert [line.split(",")[1] for line in lines[1:]] == ["3", "16", "125"]
        summary = json.loads(err.strip().split("\n")[-1])
        assert summary["necessary_conditions"]["sigma_empty_from"][0] == 3

    def test_principal_q_column(self, capsys):
        code, out, _ = run_main(
            capsys, ["sweep", "--family", "principal", "--range", "2..5"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row in rows:
            n = int(row[0])
            assert float(row[6]) == pytest.approx(2 ** (-1 / n), abs=1e-8)

    def test_summary_to_file(self, capsys, tmp_path):
        dest = tmp_path / "summary.json"
        code, _, err = run_main(
            capsys,
            ["sweep", "--family", "principal", "--range", "2..5",
             "--summary", str(dest)],
        )
        assert code == 0
        assert err == ""
        summary = json.loads(dest.read_text())
        assert summary["classification"]["never_nontrivial"] is True

    def test_each_quantity_computed_once_per_row(self, capsys, monkeypatch):
        import upsetkit.measure
        import upsetkit.structure

        calls = []
        for module, name in ((upsetkit.measure, "critical_probability"),
                             (upsetkit.structure, "covering_dimension")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                result = _original(*args)
                calls.append(_name)
                return result

            monkeypatch.setattr(module, name, counted)
        upsetkit.clear_caches()
        code, _, _ = run_main(capsys, ["sweep", "--family", "connectivity", "--range", "3..5"])
        assert code == 0
        # one p_c search and one dimension search per row
        assert sorted(calls) == ["covering_dimension"] * 3 + ["critical_probability"] * 3

    def test_bad_range_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--family", "principal", "--range", "35"])
        assert exc.value.code == 2


class TestVerify:
    def test_instance_all_hold(self, capsys, principal3_file):
        code, out, _ = run_main(capsys, ["verify", "--instance", principal3_file])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "instance,check,holds,slack"
        sandwich = next(l for l in lines if "sandwich_left_q_le_pc" in l)
        assert ",true," in sandwich
        # q = p_c for a principal instance: slack is 0 up to float rounding
        assert abs(float(sandwich.split(",")[3])) <= 2e-9

    def test_battery_subset(self, capsys):
        code, out, _ = run_main(
            capsys, ["verify", "--battery", "builtin", "--limit", "12"]
        )
        assert code == 0
        assert all(",true," in l or l.startswith("instance,") for l in out.strip().split("\n"))

    def test_battery_q_le_pc_at_float_resolution(self, capsys):
        # p_c is the root of mu = 1/2 to float resolution, so q <= p_c needs
        # no tol allowance: q sits at most an ulp above that root
        code, out, _ = run_main(capsys, ["verify", "--battery", "builtin"])
        assert code == 0
        slacks = [float(l.rsplit(",", 1)[1]) for l in out.splitlines() if ",sandwich_left_q_le_pc," in l]
        assert len(slacks) == 203
        assert min(slacks) >= -1e-15

    def test_corrupted_q_fails_with_exit_1(self, capsys, principal3_file, monkeypatch):
        import upsetkit.bounds

        real = upsetkit.bounds.expectation_threshold
        monkeypatch.setattr(
            upsetkit.bounds,
            "expectation_threshold",
            lambda up, tol=1e-9: dataclasses.replace(real(up, tol), q=0.99),
        )
        code, out, _ = run_main(capsys, ["verify", "--instance", principal3_file])
        assert code == 1
        bad = [l for l in out.strip().split("\n") if ",false," in l]
        assert any("sandwich_left_q_le_pc" in l for l in bad)

    @pytest.mark.parametrize("flag", [["--t-max", "3"]])
    def test_sweep_only_flags_rejected(self, capsys, principal3_file, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--instance", principal3_file, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        code, _, _ = run_main(capsys, ["sweep", "--family", "principal", "--range", "2..3", *flag])
        assert code == 0

    def test_each_quantity_computed_once(self, capsys, tmp_path, monkeypatch):
        import upsetkit.measure
        import upsetkit.structure

        calls = []
        for module, name in ((upsetkit.measure, "critical_probability"),
                             (upsetkit.structure, "covering_dimension")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        path = tmp_path / "k4.json"
        path.write_text(graph_connectivity(4).to_instance_json())
        upsetkit.clear_caches()
        code, _, _ = run_main(capsys, ["verify", "--instance", str(path)])
        assert code == 0
        # one p_c search and one dimension search
        assert sorted(calls) == ["covering_dimension", "critical_probability"]

    def test_witness_cost_checked_at_reported_q(self, capsys, k3_file):
        # the recheck costs the witness at q itself, with no allowance
        code, out, _ = run_main(capsys, ["verify", "--instance", k3_file])
        assert code == 0
        row = next(l for l in out.split("\n") if ",q_witness_cost_le_half," in l)
        threshold = expectation_threshold(graph_connectivity(3))
        slack = 0.5 - threshold.witness_cover.cost(threshold.q)
        assert row.split(",")[3] == fmt.csv_cell(slack)

    @given(upper_sets(max_ground=8, max_gens=6))
    @settings(max_examples=100, deadline=None)
    def test_witness_cost_row_holds_at_exact_q(self, up):
        # the witness's real weight at q is at most 1/2, so its float weight,
        # rounded monotonically, is too: the row holds with no allowance
        rows = {check: (holds, slack)
                for _, check, holds, slack in cli._instance_checks("x", up, BoundVariant(8.0))}
        holds, slack = rows["q_witness_cost_le_half"]
        assert holds and slack >= 0.0

    def test_witness_rows_independent_of_the_incidence(self, capsys, tmp_path, monkeypatch):
        # the solvers hold their own reference to core.element_extents, so an
        # all-zero incidence put in its place reaches only the rechecks, which
        # must test the witnesses against the minimals themselves
        import upsetkit.core

        monkeypatch.setattr(upsetkit.core, "element_extents", lambda up: (0,) * up.ground_size)
        path = tmp_path / "k4.json"
        path.write_text(graph_connectivity(4).to_instance_json())
        code, out, _ = run_main(capsys, ["verify", "--instance", str(path)])
        assert code == 0
        rows = {l.split(",")[1]: l.split(",")[2] for l in out.strip().split("\n")[1:]}
        for check in ("q_witness_covers", "dim_witness_unrestricted", "dim_witness_within_family"):
            assert rows[check] == "true"

    def test_battery_holds_at_check_tol_1e_15(self, capsys, monkeypatch):
        # q and p_c are found to float resolution, so every check, p_c's
        # residual row included, holds at an allowance far below the default
        import upsetkit.bounds

        monkeypatch.setattr(upsetkit.bounds, "CHECK_TOL", 1e-15)
        code, out, err = run_main(capsys, ["verify", "--battery", "builtin"])
        assert code == 0
        assert err.endswith("  failed: 0\n")
        slacks = [float(l.rsplit(",", 1)[1]) for l in out.splitlines() if ",pc_residual_le_tol," in l]
        assert len(slacks) == 203 and max(slacks) <= 1e-15

    def test_json_format(self, capsys, principal3_file):
        code, out, _ = run_main(
            capsys, ["verify", "--instance", principal3_file, "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert all(row["holds"] for row in rows)

    @pytest.mark.parametrize("ground, elements", [(0, [[]]), (-3, [[0]]), (-3, [[]])])
    def test_nonpositive_ground_size_named(self, capsys, tmp_path, ground, elements):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ground_size": ground, "minimal_elements": elements}))
        code, out, err = run_main(capsys, ["verify", "--instance", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: ground_size must be positive, got {ground}\n"

    def test_index_outside_ground_named(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ground_size": 3, "minimal_elements": [[0], [1, 5, 7]]}))
        code, out, err = run_main(capsys, ["verify", "--instance", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: element 5 outside ground set of size 3\n"

    def test_format_is_verify_only(self, capsys, principal3_file):
        # compute prints only JSON and sweep only CSV: neither takes --format
        for argv in (["compute", "--instance", principal3_file, "--format", "json"],
                     ["sweep", "--family", "principal", "--range", "2..3", "--format", "csv"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --format" in capsys.readouterr().err
        code, out, _ = run_main(capsys, ["verify", "--instance", principal3_file, "--format", "csv"])
        assert code == 0
        assert out.startswith("instance,check,holds,slack\n")


REVERSED_RANGE = "argument --range: range A..B needs A <= B, got '5..3'"


class TestRejectedFlags:
    # a flag the command would not use is an error, not silently dropped
    @pytest.mark.parametrize("argv,message", [
        (["compute", "--samples", "100"], "--samples and --seed need --method mc"),
        (["compute", "--seed", "1"], "--samples and --seed need --method mc"),
        (["compute", "--method", "enum", "--samples", "100", "--seed", "1"],
         "--samples and --seed need --method mc"),
        (["compute", "--range", "2..3"], "--range needs --family"),
        (["verify", "--range", "2..3"], "--range needs --family"),
        (["verify", "--limit", "1"], "--limit needs --battery"),
    ])
    def test_unused_flag_exit_2(self, capsys, principal3_file, argv, message):
        code, out, err = run_main(capsys, [*argv, "--instance", principal3_file])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--battery", "builtin", "--instance", "x.json"],
         "argument --instance: not allowed with argument --battery"),
        (["compute", "--instance", "x.json", "--family", "principal", "--range", "2..3"],
         "argument --family: not allowed with argument --instance"),
        (["compute"], "one of the arguments --instance --family is required"),
        (["verify"], "one of the arguments --instance --family --battery is required"),
    ])
    def test_one_source_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    # a value that would make the command check nothing or crash
    @pytest.mark.parametrize("argv,message", [
        (["verify", "--battery", "builtin", "--limit", "-200"], "--limit must be >= 0, got -200"),
        (["sweep", "--family", "path2", "--range", "3..6", "--K", "2", "--t-max", "-1"],
         "t_max must be >= 0, got -1"),
        (["sweep", "--family", "path2", "--range", "3..6", "--K", "1", "--t-max", "-1"],
         "t_max must be >= 0, got -1"),
        # checked before the report, which on connectivity-5 exits 3 on a cap
        (["compute", "--method", "mc", "--samples", "0", "--seed", "1",
          "--family", "connectivity", "--range", "5..5"], "--samples must be >= 1, got 0"),
        (["compute", "--method", "mc", "--samples", "100", "--seed", "-1",
          "--family", "connectivity", "--range", "5..5"], "--seed must be >= 0, got -1"),
    ])
    def test_negative_count_exit_2(self, capsys, argv, message):
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    # rejected by the parser: a reversed range, and --dim-convention, which
    # is gone because the within-family dimension is |F0|, whose growth the
    # sweep summary reports already
    @pytest.mark.parametrize("argv,message", [
        (["verify", "--family", "path2", "--range", "5..3"], REVERSED_RANGE),
        (["compute", "--family", "path2", "--range", "5..3"], REVERSED_RANGE),
        (["sweep", "--family", "path2", "--range", "5..3"], REVERSED_RANGE),
        (["sweep", "--family", "principal", "--range", "2..3", "--dim-convention", "within-family"],
         "unrecognized arguments: --dim-convention"),
    ], ids=["verify-reversed-range", "compute-reversed-range", "sweep-reversed-range",
            "sweep-dim-convention"])
    def test_parser_rejects_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_tol_flag_gone(self, capsys):
        # the checks' allowance is the fixed bounds.CHECK_TOL
        for argv in (["compute", "--family", "principal", "--range", "2..2"],
                     ["sweep", "--family", "principal", "--range", "2..3"],
                     ["verify", "--family", "principal", "--range", "2..2"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--tol", "1e-9"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --tol" in captured.err

    @pytest.mark.parametrize("K", ["nan", "inf", "-inf", "0"])
    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "principal", "--range", "2..2"],
        ["sweep", "--family", "principal", "--range", "2..3"],
        ["verify", "--family", "principal", "--range", "2..2"],
    ])
    def test_K_positive_and_finite(self, capsys, argv, K):
        code, out, err = run_main(capsys, [*argv, f"--K={K}"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: K must be positive and finite, got ")

    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "principal", "--range", "8..8", "--K", "1.7e308"],
        ["sweep", "--family", "principal", "--range", "2..3", "--K", "1.7e308"],
        ["verify", "--family", "principal", "--range", "2..2", "--K", "1.7e308"],
    ])
    def test_K_times_largest_log_finite(self, capsys, argv):
        # K * log2(60) is not finite, so the bound could print Infinity
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: K * log(2 * 30) must be finite, got K = 1.7e+308\n"

    # (K * log(2 * ell0)) ** ell passes the float range: the premise of
    # large_dim_forces_nontrivial_info is false, and nothing overflows
    @pytest.mark.parametrize("argv", [
        ["compute", "--K", "1e11", "--family", "principal", "--range", "29..29"],
        ["sweep", "--K", "1e11", "--family", "principal", "--range", "27..29"],
        ["verify", "--K", "1e200", "--battery", "builtin", "--limit", "1"],
        ["verify", "--K", "1e200", "--battery", "builtin", "--limit", "1", "--format", "json"],
    ], ids=["compute", "sweep", "verify-csv", "verify-json"])
    def test_large_K_answers(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == 0, err
        assert "Infinity" not in out + err and "NaN" not in out + err


class TestFamily:
    def test_emits_instance_json(self, capsys):
        code, out, _ = run_main(capsys, ["family", "connectivity", "--n", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["ground_size"] == 3
        assert doc["minimal_elements"] == [[0, 1], [0, 2], [1, 2]]

    def test_round_trips_through_compute(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, ["family", "triangle", "--n", "4"])
        path = tmp_path / "triangle4.json"
        path.write_text(out)
        code, out2, _ = run_main(capsys, ["compute", "--instance", str(path)])
        assert code == 0
        assert json.loads(out2)["min_count"] == 4

    @pytest.mark.parametrize("name", ["principal", "singletons"])
    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_n_below_one_rejected(self, capsys, name, n):
        code, out, err = run_main(capsys, ["family", name, "--n", n])
        assert (code, out) == (2, "")
        assert err == f"error: {name} family needs n >= 1\n"


class TestOutOfRangeSizes:
    @pytest.mark.parametrize("argv, ground", [
        (["verify", "--instance", "HUGE"], 100_000_000_000),
        (["family", "singletons", "--n", "3000000"], 3_000_001),
        (["family", "principal", "--n", "100000000"], 100_000_001),
        (["family", "path2", "--n", "100"], 4950),
        (["family", "hamilton", "--n", "100000"], 4_999_950_000),
        (["sweep", "--family", "path2", "--range", "98..100"], None),
        # the mask of an in-range index this large would take 2.5 GB
        (["verify", "--instance", "HUGE_INDEX"], 100_000_000_000),
        # a cycle of this length would take 0.6 GB before the cap check
        (["family", "hamilton", "--n", "3000000"], 4_499_998_500_000),
    ])
    def test_fails_fast_on_the_ground_cap(self, capsys, tmp_path, argv, ground):
        files = {"HUGE": [[0]], "HUGE_INDEX": [[20_000_000_000]]}
        for tag, elements in files.items():
            doc = {"ground_size": 100_000_000_000, "minimal_elements": elements}
            (tmp_path / f"{tag}.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / f"{a}.json") if a in files else a for a in argv]
        t0 = time.perf_counter()
        code, out, err = run_main(capsys, argv)
        assert time.perf_counter() - t0 < 1.0
        if ground is None:  # a sweep goes on, leaving each row past the cap empty
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert [r[0] for r in rows] == ["98", "99", "100"]
            assert all(set(r[1:]) == {""} for r in rows)
        else:
            assert (code, out) == (3, "")
            assert err == f"error: ground_size {ground} exceeds exact-operation cap 30\n"


class TestDeterminism:
    # sha256 of stdout; any change to a printed number or row changes it
    PINNED = {
        ("verify", "--battery", "builtin"):
            "26174a5d169e3c9fea6bcf5cb8abf9f84e11363adf01c27b5c8d1cad06d6ea36",
        ("sweep", "--family", "hamilton", "--range", "4..6"):
            "f00f969bd9b2491c41dbe9bff6b7b8482130eac1fb69c59156586f214cf5900e",
        ("compute", "--family", "connectivity", "--range", "4..4"):
            "37634c02aa7d06a496923ea6928ec88c10602489f7629e4e6c3e6dc0d321d285",
        ("compute", "--family", "hamilton", "--range", "6..6"):
            "7dcb895fcd2aa7c09f5d2ec7894751400d721dfb14d8e0a2b3c02b7ebac79a18",
        ("sweep", "--family", "principal", "--range", "1..20"):
            "3d62ff13e5313e693b66dc9f0ab8773b277b9a32f702f837a5d8d935e73168c7",
        # the q and dim cells of the largest cover searches
        ("sweep", "--family", "triangle", "--range", "3..7"):
            "ab52eb71b347c8114ae0c979720aac7e8cffa3b07ff52ed7e13d92299b943a90",
        ("sweep", "--family", "star3", "--range", "4..7"):
            "9796033ba885e4155aa98a0536b22d9c287d5c41f00f3159a2b5d5822a8c6207",
        ("sweep", "--family", "path2", "--range", "3..8"):
            "ba0a58f0cef74a50ae58a452d080082a719cf857642a37c200b17cf4e1776828",
        ("sweep", "--family", "matching2", "--range", "4..7"):
            "6fa1b5425533e419e7ba20e462492a48ea77b12b4d03e0b373e5d217023a908c",
        ("sweep", "--family", "connectivity", "--range", "3..5"):
            "cabff192467288eeec20b03bd12054122edf98d88681a390a6b1691d710e7b28",
        ("verify", "--battery", "builtin", "--format", "json"):
            "0d3e8dd01c6e892ab195c391de7520c8de903bb6e7b178ccff9e1dc603387464",
        # the instance files, whose edge numbering the sweep cells above
        # cannot see
        ("family", "connectivity", "--n", "5"):
            "8c0dddbc0b9a7104e8c603354b57a6a2a68c237c7882131c74b62be8f205c02d",
        ("family", "hamilton", "--n", "6"):
            "a153b40e1c462a01569ed9db4affada4fdc7178f82ed17ae41824f8b81986006",
        ("family", "triangle", "--n", "6"):
            "b62d60c780db209cad4fc0bda2dc4c6a1488563fe4cca643a3a49b72c169bf58",
        ("family", "star3", "--n", "6"):
            "b5ed61b138c74bf3f07dc17ef7cf8915a51f48160b3388e29a3cad851d288954",
        ("family", "path2", "--n", "6"):
            "0ff530b339eb362e39378fbb06124e67817416854c149761614d5b757e9ba2b5",
        ("family", "matching2", "--n", "6"):
            "8781e0956c3e25265deb79fa8d0abc52476c869fb1cd71bbce1afc2da8100448",
        ("family", "principal", "--n", "5"):
            "b282a1d52f5a49719ad6a4d55a54890bd8d8606e62c421de4dd338a5fda9b7dc",
        ("family", "singletons", "--n", "5"):
            "8bf54b7dab0ff3792ed9ffff388d9f749092682b368086e6effcc7df710ae593",
    }

    @pytest.mark.parametrize("argv", list(PINNED))
    def test_stdout_pinned(self, capsys, argv):
        upsetkit.clear_caches()
        code, out, _ = run_main(capsys, list(argv))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[argv]

    @staticmethod
    def _run(args):
        return subprocess.run(
            [sys.executable, "-m", "upsetkit.cli", *args],
            capture_output=True,
            timeout=300,
        )

    def test_sweep_bytes_identical(self):
        a = self._run(["sweep", "--family", "connectivity", "--range", "3..4"])
        b = self._run(["sweep", "--family", "connectivity", "--range", "3..4"])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stderr == b.stderr

    def test_compute_bytes_identical(self, tmp_path):
        path = tmp_path / "k3.json"
        path.write_text(graph_connectivity(3).to_instance_json())
        a = self._run(["compute", "--instance", str(path)])
        b = self._run(["compute", "--instance", str(path)])
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestParserReuse:
    # each in-process call must print what a fresh process prints for the
    # same argv, whatever ran before it on the shared parser
    SEQUENCE = [
        ["verify", "--family", "connectivity", "--range", "3..4", "--K", "4"],
        ["verify", "--family", "connectivity", "--range", "3..4"],
        ["sweep", "--family", "connectivity", "--range", "3..4"],
        ["compute", "--family", "connectivity", "--range", "3..3",
         "--method", "mc", "--samples", "100", "--seed", "1"],
        ["compute", "--family", "connectivity", "--range", "3..3"],
    ]

    def test_calls_match_fresh_processes(self, capsys):
        for argv in self.SEQUENCE:
            upsetkit.clear_caches()
            code, out, err = run_main(capsys, argv)
            fresh = TestDeterminism._run(argv)
            assert (code, out, err) == (
                fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()
            ), argv

    def test_parse_error_between_calls(self, capsys):
        argv = ["verify", "--family", "principal", "--range", "2..3"]
        first = run_main(capsys, argv)
        assert first[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--family", "principal", "--range", "35"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_main(capsys, argv) == first

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        for argv in (["family", "connectivity", "--n", "3"],
                     ["family", "principal", "--n", "2"],
                     ["verify", "--family", "principal", "--range", "2..2"]):
            assert run_main(capsys, argv)[0] == 0
        # the main parser and its compute, sweep, verify and family subparsers
        assert len(built) == 5

    def test_battery_pinned_in_fresh_process(self):
        argv = ("verify", "--battery", "builtin")
        fresh = TestDeterminism._run(list(argv))
        assert fresh.returncode == 0
        assert hashlib.sha256(fresh.stdout).hexdigest() == TestDeterminism.PINNED[argv]


def lru_caches() -> dict:
    """Every lru cache in upsetkit's modules, at module level or on a class
    defined there, by qualified name."""
    out = {}
    for info in pkgutil.iter_modules(upsetkit.__path__):
        module = importlib.import_module(f"upsetkit.{info.name}")
        owners = [module] + [c for c in vars(module).values()
                             if inspect.isclass(c) and c.__module__ == module.__name__]
        for owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    out[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return out


class TestColdCaches:
    # tables that hold no instance data or result, kept across commands on
    # purpose (see the README): the argument parser and the enumeration's
    # slice masks
    FIXED_TABLES = {"upsetkit.cli.build_parser", "upsetkit.measure._slice_masks"}

    def test_clear_caches_empties_every_memo(self, capsys, tmp_path):
        # a memo that clear_caches() missed would warm the next "cold" command
        path = tmp_path / "k4.json"
        path.write_text(graph_connectivity(4).to_instance_json())
        for argv in (["compute", "--instance", str(path)],
                     ["compute", "--method", "ie", "--instance", str(path)],
                     ["verify", "--instance", str(path)],
                     ["sweep", "--family", "triangle", "--range", "3..4"]):
            assert run_main(capsys, argv)[0] == 0
        caches = lru_caches()
        assert self.FIXED_TABLES <= set(caches)
        filled = {name for name, fn in caches.items() if fn.cache_info().currsize}
        assert {"upsetkit.core.element_extents", "upsetkit.expectation._problem",
                "upsetkit.measure._enumeration_profile"} <= filled
        upsetkit.clear_caches()
        left = {name for name, fn in caches.items() if fn.cache_info().currsize}
        assert left <= self.FIXED_TABLES


class TestReadme:
    def test_cli_section_names_every_parser_flag(self):
        # a flag the parser drops or gains must leave or enter the README too
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"--[A-Za-z][A-Za-z0-9-]*", section))
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {o for p in sub.choices.values() for a in p._actions for o in a.option_strings}
        assert documented == flags - {"-h", "--help"}
