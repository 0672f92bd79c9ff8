import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from becc import bell, ccp, state, tolerances
from becc.cli import emit, main

# each certificate's bound in StateReport.certified: an upper bound when
# positive, a lower bound when negative (for pt_min_eigenvalues, on each cut)
CERTIFICATE_GATES = {
    "trace_deviation": tolerances.FLOAT,
    "min_eigenvalue": -tolerances.FLOAT,
    "pt_invariance_deviation": tolerances.TRANSCRIPTION,
    "permutation_symmetry_deviation": tolerances.TRANSCRIPTION,
    "pt_min_eigenvalues": -tolerances.TRANSCRIPTION,
}


def beyond(bound):
    """The next float past a gate's bound, away from zero."""
    return math.nextafter(bound, math.copysign(math.inf, bound))


def moved_certificates(report, values):
    """report with the named certificates set to values; a pt_min_eigenvalues
    value replaces the last cut's minimum only."""
    if "pt_min_eigenvalues" in values:
        values = {**values, "pt_min_eigenvalues":
                  report.pt_min_eigenvalues[:-1] + (values["pt_min_eigenvalues"],)}
    return report._replace(**values)


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

    @pytest.mark.parametrize("values, certified", [
        *[pytest.param({name: beyond(bound)}, False, id=f"{name}-past")
          for name, bound in CERTIFICATE_GATES.items()],
        *[pytest.param({name: math.nan}, False, id=f"{name}-nan") for name in CERTIFICATE_GATES],
        pytest.param(CERTIFICATE_GATES, True, id="all-at-gate"),
    ])
    def test_validate_exits_on_each_gate(self, capsys, monkeypatch, values, certified):
        # one certificate one float past its gate, or NaN, exits 1; all five
        # exactly at their gates exit 0.  A NaN report also breaks the output
        # contract and exits 1 anyway, so the verdict itself is asserted too
        report = moved_certificates(state.validate_state(state.build_vb_state()), values)
        assert report.certified is certified
        monkeypatch.setattr(state, "validate_state", lambda rho: report)
        code, _ = run(capsys, "state", "validate", "--format", "json")
        assert code == (0 if certified else 1)

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
        # the 3 terms A1 + B1 + C1 on a 2x2x2 table leave 3 free slots: a
        # count that is not measured would still print 64
        if n_terms == 3:
            g = np.zeros((2, 2, 2))
            g[1, 0, 0] = g[0, 1, 0] = g[0, 0, 1] = 1
            ineq, expected = bell.Inequality(g, -3, 3), 8
        else:
            ineq, expected = bell.sliwa5(), 64
        monkeypatch.setattr(bell, "sliwa5", lambda: ineq)
        if form == "--homogenized":
            expected = 512  # every non-identity setting of the 4-setting form
        # a 5-entry budget gives one strategy per block, so the count and
        # the tie-break cross block edges
        monkeypatch.setattr(bell, "STRATEGY_BLOCK", 5)
        code, out = run(capsys, "bell", "bounds", form, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["strategies_enumerated"] == expected
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

    def test_simulate_defaults(self, capsys):
        _, out = run(capsys, "game", "simulate", "--protocol", "quantum", "--format", "json")
        doc = json.loads(out)
        assert (doc["shots"], doc["seed"], doc["shards"]) == (1_000_000, 0, 1)

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

    @pytest.mark.parametrize("shots,warned", [(10_000, True), (400_000_000, False)])
    def test_gap_warns_on_stderr_only_when_underpowered(self, capsys, shots, warned):
        # stdout stays one JSON document either way
        assert main(["game", "gap", "--shots", str(shots), "--seed", "0", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["underpowered"] is warned
        warning = "warning: shot count too low to resolve the quantum-classical gap\n"
        assert captured.err == (warning if warned else "")

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


class TestVerdicts:
    # |000><000| gives S = 7.2558 < 8 and P_Q = 0.6649 < P_C = 15/22: every
    # quantum contract breaks, while the bounds and P_C, which do not read
    # the state, still hold
    @pytest.fixture(autouse=True)
    def product_state(self, monkeypatch):
        rho = np.zeros((8, 8))
        rho[0, 0] = 1
        tables = ccp.GameTables(rho=rho)
        assert tables.quantum_value == pytest.approx(7.2558, abs=1e-4)
        assert tables.p_quantum_exact == pytest.approx(0.6649, abs=1e-4)
        monkeypatch.setattr(ccp, "default_tables", lambda: tables)

    @pytest.mark.parametrize("argv,golden", [
        (("bell", "quantum-value"), "bell_quantum_value.json"),
        (("game", "exact"), "game_exact.json"),
        (("reproduce-paper",), "reproduce_paper.json"),
    ], ids=["bell quantum-value", "game exact", "reproduce-paper"])
    def test_broken_contract_exits_1_with_whole_report(self, capsys, argv, golden):
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 1
        assert list(json.loads(out)) == list(json.loads((GOLDEN / golden).read_text()))

    def test_game_runs_read_the_same_tables(self, capsys):
        # game gap and game simulate read ccp.default_tables(), as the other commands do
        _, out = run(capsys, "game", "gap", "--shots", "400000000", "--seed", "1",
                     "--format", "json")
        assert json.loads(out)["p_quantum_exact"] == 0.664904672498
        _, out = run(capsys, "game", "simulate", "--protocol", "quantum",
                     "--shots", "400000000", "--seed", "1", "--format", "json")
        doc = json.loads(out)
        assert abs(doc["p_hat"] - ccp.default_tables().p_quantum_exact) <= 5 * doc["stderr"]

    def test_reproduce_fails_only_the_quantum_checks(self, capsys):
        _, out = run(capsys, "reproduce-paper", "--format", "json")
        doc = json.loads(out)
        assert doc["all_pass"] is False
        assert [k for k, v in doc.items() if k != "all_pass" and not v["pass"]] == ["S", "P_Q"]


@pytest.mark.parametrize("row,attribute", [("S", "quantum_value"), ("P_Q", "p_quantum_exact")])
@pytest.mark.parametrize("scale,passed", [(0.5, True), (1.5, False)])
def test_reproduce_verdict_reads_its_printed_gate(capsys, monkeypatch, row, attribute, scale,
                                                  passed):
    # the row passes within the tolerance it prints of the value it expects
    printed = json.loads(run(capsys, "reproduce-paper", "--format", "json")[1])[row]
    moved = {**vars(ccp.default_tables()),
             attribute: printed["expected"] + scale * printed["tolerance"]}
    monkeypatch.setattr(ccp, "default_tables", lambda: SimpleNamespace(**moved))
    code, out = run(capsys, "reproduce-paper", "--format", "json")
    assert json.loads(out)[row]["pass"] is passed and code == (0 if passed else 1)


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

    @pytest.mark.parametrize("argv", [
        ("state", "validate"),
        ("bell", "bounds", "--original"),
        ("bell", "bounds", "--homogenized"),
        ("bell", "quantum-value"),
        ("game", "exact"),
        ("game", "simulate", "--protocol", "quantum", "--shots", "1000"),
        ("game", "gap", "--shots", "1000"),
        ("reproduce-paper",),
    ], ids=" ".join)
    def test_csv_rows_are_key_value_pairs(self, capsys, argv):
        # a list or dict value is one quoted JSON cell; a scalar row is
        # printed as key,value
        _, out = run(capsys, *argv, "--format", "csv")
        _, doc = run(capsys, *argv, "--format", "json")
        doc = json.loads(doc)
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        assert [k for k, _ in rows[1:]] == list(doc)
        for line, (k, cell) in zip(out.splitlines()[1:], rows[1:]):
            if k == "wall_time":  # timing differs between the two runs
                continue
            if isinstance(doc[k], (list, dict)):
                assert json.loads(cell) == doc[k]
            else:
                assert line == f"{k},{doc[k]}"

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    def test_non_finite_json_is_an_error(self, capsys, fmt):
        # main turns the ValueError into exit 1 instead of printing Infinity;
        # nothing is printed first, not even the CSV header
        for data in ({"z": [float("inf")]}, {"ok": 1.0, "z": float("nan")}):
            with pytest.raises(ValueError):
                emit(data, fmt)
            assert capsys.readouterr().out == ""

    def test_command_value_error_exits_1(self, capsys, monkeypatch):
        # 27 supported non-identity slots: the search refuses 2^27 strategies
        g = np.zeros((10, 10, 10))
        for s in range(1, 10):
            g[s, 0, 0] = g[0, s, 0] = g[0, 0, s] = 1
        monkeypatch.setattr(bell, "sliwa5", lambda: bell.Inequality(g, -27, 27))
        code = main(["bell", "bounds", "--original"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: 27 live slots: 2^27 strategies too large to enumerate\n"

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        # each subcommand takes its own options and no other: the raw-JSON
        # commands have no --format, and only simulate takes --protocol
        for argv in (["game", "exact", "--bogus"],
                     ["state", "dump", "--format", "json"],
                     ["bell", "coefficients", "--format", "json"],
                     ["bell", "bounds", "--original", "--homogenized"],
                     ["game", "exact", "--protocol", "quantum"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

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
        # --protocol is required by simulate, --shots by gap
        ("game", "simulate", "--shots", "1000"),
        ("game", "gap", "--seed", "0"),
    ])
    def test_bad_run_arguments_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


def test_console_script_is_main():
    # the `becc` command that pip installs runs cli.main
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["scripts"]["becc"] == "becc.cli:main"


EXACT_COMMANDS = {"reproduce-paper": ["reproduce-paper", "--format", "json"],
                  "game-exact": ["game", "exact"], "bell-quantum-value": ["bell", "quantum-value"],
                  "state-validate": ["state", "validate"]}


@pytest.mark.parametrize("module,argv", [
    ("numpy.random", []), ("csv", []), ("becc.linalg", []),
    ("becc.linalg", EXACT_COMMANDS["reproduce-paper"]),
    ("becc.linalg", EXACT_COMMANDS["state-validate"]),
    *[(module, argv) for module in ("becc.simulate", "numpy.random")
      for argv in EXACT_COMMANDS.values()],
], ids=["numpy.random", "csv", "becc.linalg", "becc.linalg-reproduce-paper",
        "becc.linalg-state-validate",
        *[f"{module}-{name}" for module in ("becc.simulate", "numpy.random")
          for name in EXACT_COMMANDS]])
def test_cold_import_leaves_module_unloaded(module, argv):
    # numpy.random: _shard_rng's return annotation would import it on every
    # cold start if it were evaluated; `from __future__ import annotations`
    # keeps it a string.  csv: emit imports it only for --format csv.
    # becc.linalg: references for the tests and the benchmark only; a
    # command's certificates go through state's own Hermiticity gate.
    # becc.simulate (and with it numpy.random): the sampler, which cli
    # imports only where a run is built; the exact commands read ccp's game
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (f"import sys, becc.cli; code = becc.cli.main({argv!r}) if {argv!r} else 0; "
            f"sys.exit(code or 2 * ({module!r} in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True)
    assert result.returncode == 0, result.stderr


GOLDEN = Path(__file__).parent / "golden"
# outputs with no timing and no LAPACK-dependent digits; regenerate a file
# with `becc <argv> > tests/golden/<name>` only when a change of output is meant
GOLDEN_OUTPUTS = {
    "bell_bounds_original.json": ("bell", "bounds", "--original", "--format", "json"),
    "bell_bounds_original.txt": ("bell", "bounds", "--original"),
    "bell_bounds_homogenized.json": ("bell", "bounds", "--homogenized", "--format", "json"),
    "bell_quantum_value.json": ("bell", "quantum-value", "--format", "json"),
    "bell_coefficients.json": ("bell", "coefficients"),
    "game_exact.json": ("game", "exact", "--format", "json"),
    "game_exact.txt": ("game", "exact"),
    "reproduce_paper.json": ("reproduce-paper", "--format", "json"),
    "reproduce_paper.txt": ("reproduce-paper",),
    "state_dump.json": ("state", "dump"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_output_matches_golden_file(capsys, name):
    code, out = run(capsys, *GOLDEN_OUTPUTS[name])
    assert code == 0
    assert out == (GOLDEN / name).read_text()
