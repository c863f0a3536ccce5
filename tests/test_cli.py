import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

import upsetkit
from upsetkit import cli, expectation_threshold, fmt, graph_connectivity
from upsetkit.core import from_minimal_bits


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(graph_connectivity(3).to_instance_json())
    return str(path)


@pytest.fixture()
def principal3_file(tmp_path):
    path = tmp_path / "principal3.json"
    path.write_text(from_minimal_bits(5, [0b00111]).to_instance_json())
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

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run_main(
            capsys, ["sweep", "--family", "connectivity", "--range", "3..2"]
        )
        assert code == 0
        assert out.strip().split("\n") == [out.strip()]
        assert out.startswith("n,min_count,")

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
        # one p_c bisection and both dimensions per row
        assert sorted(calls) == ["covering_dimension"] * 6 + ["critical_probability"] * 3

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
        # q = p_c for a principal instance: slack is 0 up to bisection error
        assert abs(float(sandwich.split(",")[3])) <= 2e-9

    def test_battery_subset(self, capsys):
        code, out, _ = run_main(
            capsys, ["verify", "--battery", "builtin", "--limit", "12"]
        )
        assert code == 0
        assert all(",true," in l or l.startswith("instance,") for l in out.strip().split("\n"))

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

    @pytest.mark.parametrize("flag", [["--t-max", "3"], ["--dim-convention", "unrestricted"]])
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
        # one p_c bisection, one dimension search per convention
        assert sorted(calls) == ["covering_dimension"] * 2 + ["critical_probability"]

    def test_witness_cost_checked_at_reported_q(self, capsys, k3_file):
        # the recheck costs the witness at q itself, whatever --tol is
        code, out, _ = run_main(capsys, ["verify", "--instance", k3_file, "--tol", "1e-3"])
        assert code == 0
        row = next(l for l in out.split("\n") if ",q_witness_cost_le_half," in l)
        threshold = expectation_threshold(graph_connectivity(3))
        slack = 0.5 - threshold.witness_cover.cost(threshold.q)
        assert row.split(",")[3] == fmt.csv_cell(slack)

    def test_json_format(self, capsys, principal3_file):
        code, out, _ = run_main(
            capsys, ["verify", "--instance", principal3_file, "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert all(row["holds"] for row in rows)

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


class TestTolerance:
    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "principal", "--range", "2..2"],
        ["sweep", "--family", "principal", "--range", "2..3"],
        ["verify", "--family", "principal", "--range", "2..2"],
    ])
    def test_non_finite_tol_rejected(self, capsys, argv, tol):
        code, out, err = run_main(capsys, [*argv, f"--tol={tol}"])
        assert code == 2
        assert out == ""
        assert "tol must be positive and finite" in err

    @pytest.mark.parametrize("argv", [
        ["compute", "--family", "principal", "--range", "2..2"],
        # principal-1 has p_c = 1/2 exactly and meets any tol; principal-2 cannot
        ["sweep", "--family", "principal", "--range", "1..3"],
    ])
    def test_tol_below_float_resolution_exit_2(self, capsys, argv):
        code, out, err = run_main(capsys, [*argv, "--tol", "1e-17"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol 1e-17 is finer than floats resolve: ")
        assert "adjacent floats" in err and "residual 1.110e-16" in err

    def test_battery_holds_at_tol_1e_15(self, capsys):
        code, _, err = run_main(capsys, ["verify", "--battery", "builtin", "--tol", "1e-15"])
        assert code == 0
        assert err.endswith("  failed: 0\n")


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


class TestDeterminism:
    # sha256 of stdout; any change to a printed number or row changes it
    PINNED = {
        ("verify", "--battery", "builtin"):
            "65f67c6ad326e3d28df43fc7557e9448d788f5e4161221f066c8af101d3daf9f",
        ("sweep", "--family", "hamilton", "--range", "4..6"):
            "e63dc2a7e2ddf218fd143262a02a6d67e57efc461f2f49a5aa3f2b99ac33bcca",
        ("compute", "--family", "connectivity", "--range", "4..4"):
            "c253cebb931e4ba691cbfffa70f642d816b4d3dd17fc339bf9aec06b2d841f00",
        ("compute", "--family", "hamilton", "--range", "6..6"):
            "c7eb2b42132380b9e3380dbeb3e41a08c3ff9f68e7719a06fce900c1b5ee9168",
        ("sweep", "--family", "principal", "--range", "1..20"):
            "bc4441537e5dbc4d5ff49bef841888dea4a81916d9d6bf53a7c0829d08a2052d",
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
        ["verify", "--family", "connectivity", "--range", "3..4", "--tol", "1e-6"],
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
