import json

import pytest

from becc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestStateCommands:
    def test_validate_passes(self, capsys):
        code, out = run(capsys, "state", "validate", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pt_invariance_deviation"] <= 1e-6
        assert doc["permutation_symmetry_deviation"] <= 1e-5

    def test_dump_parses(self, capsys):
        code, out = run(capsys, "state", "dump")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 8 and len(doc["entries"]) == 64


class TestBellCommands:
    def test_bounds_original(self, capsys):
        code, out = run(capsys, "bell", "bounds", "--original", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["min"] == -13 and doc["max"] == 3
        assert doc["strategies_enumerated"] == 64

    def test_bounds_homogenized(self, capsys):
        code, out = run(capsys, "bell", "bounds", "--homogenized", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["max"] == 8 and doc["strategies_enumerated"] == 512

    def test_quantum_value(self, capsys):
        code, out = run(capsys, "bell", "quantum-value", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["quantum_value"] - 8.00685) <= 2e-4
        assert len(doc["correlations"]) == 18  # 17 orbit terms + the shift tuple

    def test_coefficients_roundtrip(self, capsys):
        code, out = run(capsys, "bell", "coefficients")
        assert code == 0
        doc = json.loads(out)
        assert doc["g"][0][0][0] == 5 and doc["bound"] == 8


class TestGameCommands:
    def test_exact(self, capsys):
        code, out = run(capsys, "game", "exact", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["p_c_exact"] == "15/22"
        assert doc["p_c"] == pytest.approx(0.6818181818, abs=1e-9)
        assert doc["p_q"] > doc["p_c"]

    def test_simulate(self, capsys):
        code, out = run(capsys, "game", "simulate", "--protocol", "quantum",
                        "--shots", "1000", "--seed", "0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["shots"] == 1000 and doc["successes"] <= 1000

    def test_simulate_deterministic(self, capsys):
        _, out1 = run(capsys, "game", "simulate", "--protocol", "classical",
                      "--shots", "5000", "--seed", "3", "--format", "json")
        _, out2 = run(capsys, "game", "simulate", "--protocol", "classical",
                      "--shots", "5000", "--seed", "3", "--format", "json")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("wall_time"), d2.pop("wall_time")
        assert d1 == d2

    def test_gap(self, capsys):
        code, out = run(capsys, "game", "gap", "--shots", "10000",
                        "--seed", "0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["underpowered"] is True


class TestReproduce:
    def test_all_headlines_pass(self, capsys):
        code, out = run(capsys, "reproduce-paper", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert all(doc[k]["pass"] for k in
                   ("B_orig_min", "B_orig_max", "B_hom", "S", "P_C", "P_Q"))


class TestOutputContract:
    def test_json_reserialization_idempotent(self, capsys):
        _, out = run(capsys, "game", "exact", "--format", "json")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_csv_format(self, capsys):
        code, out = run(capsys, "game", "exact", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("p_c_exact,") for line in lines)

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["game", "exact", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("game", "simulate", "--protocol", "quantum", "--shots", "0"),
        ("game", "simulate", "--protocol", "quantum", "--shots", "many"),
        ("game", "simulate", "--protocol", "quantum", "--seed", "-1"),
        ("game", "simulate", "--protocol", "quantum", "--shards", "0"),
        ("game", "simulate", "--protocol", "quantum", "--shards", "1025"),
        ("game", "simulate", "--protocol", "classical", "--shots", "10", "--shards", "11"),
        ("game", "gap", "--shots", "-5"),
        ("game", "gap", "--shots", "1000", "--seed", "-1"),
        ("game", "gap", "--shots", "1000", "--shards", "0"),
    ])
    def test_bad_run_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
