import json
import math

import pytest

from becc import bell
from becc.cli import emit, main


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

    @pytest.mark.parametrize("form,n_terms", [
        ("--original", 17), ("--original", 3), ("--homogenized", 17)])
    def test_bounds_count_is_measured(self, capsys, monkeypatch, form, n_terms):
        # the first 3 terms (A1, B1, C1) leave 3 free slots: a count that is
        # not measured would still print 64
        ineq = bell.GeneralInequality(bell.sliwa5().terms[:n_terms], -13.0, 3.0)
        monkeypatch.setattr(bell, "sliwa5", lambda: ineq)
        # free slots counted from the inequality: every (party, setting) a
        # term uses, or every non-identity setting of the homogenized form
        if form == "--original":
            n_free = len({(p, s) for t in ineq.terms
                          for p, s in enumerate(t.settings) if s is not None})
        else:
            n_free = 3 * (4 - 1)
        # small blocks, so the count and the tie-break cross block edges
        monkeypatch.setattr(bell, "STRATEGY_BLOCK", 5)
        code, out = run(capsys, "bell", "bounds", form, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["strategies_enumerated"] == 2 ** n_free
        assert all(v == 1 for row in doc["argmax_strategy"] for v in row)

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gap_single_shot_is_strict_json(self, capsys, seed):
        # one shot gives p_hat 0 or 1: z is finite and has the sign of
        # p_hat - P_C (the old plug-in z printed Infinity at p_hat 0)
        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")
        code, out = run(capsys, "game", "gap", "--shots", "1",
                        "--seed", str(seed), "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        assert math.copysign(1, doc["z_vs_classical"]) == \
            math.copysign(1, doc["p_hat"] - doc["p_classical_exact"])


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_json_is_an_error(self, fmt):
        # main turns the ValueError into exit 1 instead of printing Infinity
        with pytest.raises(ValueError):
            emit({"z": [float("inf")]}, fmt)

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
        # counts are int64: shot counts beyond 2^63 - 1 are usage errors
        ("game", "simulate", "--protocol", "quantum", "--shots", str(2**63)),
        ("game", "simulate", "--protocol", "quantum", "--shots", str(2**64),
         "--shards", "4"),
        ("game", "simulate", "--protocol", "classical", "--shots", str(2**65),
         "--shards", "8"),
    ])
    def test_bad_run_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
