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
        # one p_c bisection per row; both dimensions on the two rows under
        # the dimension cap (|F0| = 3, 16), none returned for |F0| = 125
        assert sorted(calls) == ["covering_dimension"] * 4 + ["critical_probability"] * 3

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

        real = upsetkit.bounds.cached_threshold
        monkeypatch.setattr(
            upsetkit.bounds,
            "cached_threshold",
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
            "b09be9fb8c2a9ebfbf6508546c2af690689c51a5a47179e4603e337a36191d8c",
        ("sweep", "--family", "hamilton", "--range", "4..6"):
            "324104f7646195683aebbe7e7fb2ec0994adb944cc0a9f2c64654ecd7d041b5e",
        ("compute", "--family", "connectivity", "--range", "4..4"):
            "c253cebb931e4ba691cbfffa70f642d816b4d3dd17fc339bf9aec06b2d841f00",
        ("compute", "--family", "hamilton", "--range", "6..6"):
            "146950fb960eedb55680e23d2d24c16ca3ce930723bc7723008ae3ebe2eecf1e",
        ("sweep", "--family", "principal", "--range", "1..20"):
            "bc4441537e5dbc4d5ff49bef841888dea4a81916d9d6bf53a7c0829d08a2052d",
    }

    @pytest.mark.parametrize("argv", list(PINNED))
    def test_stdout_pinned(self, capsys, argv):
        upsetkit.clear_caches()
        code, out, _ = run_main(capsys, list(argv))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[argv]

    def _run(self, args):
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
