"""Command-line front end: every headline number behind one subcommand.

Exit codes: 0 success, 1 a computed value violates its contract,
2 usage error (argparse default).
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bell, simulate, state, tolerances

SIG_DIGITS = 12


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{SIG_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit(data: dict, fmt: str) -> None:
    """Print a report; a non-finite value in JSON raises ValueError (exit 1)."""
    if fmt == "json":
        print(json.dumps(_round_floats(data), allow_nan=False))
    elif fmt == "csv":
        print("key,value")
        for k, v in data.items():
            if isinstance(v, (list, tuple, dict)):
                v = json.dumps(_round_floats(v), allow_nan=False)
            print(f"{k},{_round_floats(v)}")
    else:
        for k, v in data.items():
            print(f"{k}: {_round_floats(v)}")


def _add_run_args(p: argparse.ArgumentParser, **shots_kwargs) -> None:
    """Run arguments; main checks their limits through SimulationConfig."""
    p.add_argument("--shots", type=int, **shots_kwargs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")


def cmd_state_validate(args) -> int:
    report = state.validate_state(state.build_vb_state())
    emit(report.to_dict(), args.format)
    ok = (
        report.trace_deviation <= tolerances.FLOAT
        and report.min_eigenvalue >= -tolerances.PRINT_DIGIT
        and report.pt_invariance_deviation <= tolerances.TRANSCRIPTION
        and report.permutation_symmetry_deviation <= tolerances.TRANSCRIPTION
        and all(e >= -tolerances.TRANSCRIPTION for e in report.pt_min_eigenvalues)
    )
    return 0 if ok else 1


def cmd_state_dump(args) -> int:
    print(state.state_to_json(state.build_vb_state()))
    return 0


def cmd_bell_bounds(args) -> int:
    ineq = bell.sliwa5() if args.original else bell.homogenize(bell.sliwa5())
    lo, hi, argmax, enumerated = bell.search_strategies(*bell.strategy_space(ineq))
    emit({
        "form": "original" if args.original else "homogenized",
        "min": lo,
        "max": hi,
        "strategies_enumerated": enumerated,
        "argmax_strategy": [list(row) for row in argmax.a],
    }, args.format)
    return 0


def cmd_bell_quantum_value(args) -> int:
    corr = bell.correlations(bell.born_table(state.build_vb_state(),
                                             bell.measurement_observables()))
    hom = bell.homogenize(bell.sliwa5())
    support, e = bell.on_support(corr, hom.g)
    s = bell.expression_value(hom.g, corr)
    emit({
        "quantum_value": s,
        "classical_bound": hom.bound,
        "violation": s - hom.bound,
        "original_expression_value": bell.expression_value(
            bell.coefficient_table(bell.sliwa5()), corr),
        "correlations": {f"E{x}": float(v) for x, v in zip(support, e)},
    }, args.format)
    return 0 if s > hom.bound else 1


def cmd_bell_coefficients(args) -> int:
    hom = bell.homogenize(bell.sliwa5())
    print(hom.to_json())
    return 0


def cmd_game_exact(args) -> int:
    tables = simulate.default_tables()
    p_c = tables.p_classical_exact
    p_q = tables.p_quantum_exact
    emit({
        "sum_abs_g": tables.ineq.sum_abs(),
        "classical_bound": tables.ineq.bound,
        "quantum_value": tables.quantum_value,
        "p_c": float(p_c),
        "p_c_exact": f"{p_c.numerator}/{p_c.denominator}" if isinstance(p_c, Fraction) else p_c,
        "p_q": p_q,
        "gap": p_q - float(p_c),
    }, args.format)
    return 0 if p_q > p_c else 1


def cmd_game_simulate(args) -> int:
    report = simulate.run_protocol(args.config)
    emit(report.to_dict(), args.format)
    return 0


def cmd_game_gap(args) -> int:
    c = args.config
    report = simulate.gap_experiment(c.shots, seed=c.seed, shards=c.shards)
    if report.underpowered:
        print("warning: shot count too low to resolve the quantum-classical gap",
              file=sys.stderr)
    emit(report.to_dict(), args.format)
    return 0


def cmd_reproduce_paper(args) -> int:
    tables = simulate.default_tables()
    orig_lo, orig_hi, _ = bell.classical_extrema(bell.sliwa5())
    hom_lo, hom_hi, _ = bell.classical_extrema(tables.ineq)
    s = tables.quantum_value
    p_c = tables.p_classical_exact
    p_q = tables.p_quantum_exact

    checks = {
        "B_orig_min": {"value": orig_lo, "expected": -13, "pass": orig_lo == -13},
        "B_orig_max": {"value": orig_hi, "expected": 3, "pass": orig_hi == 3},
        "B_hom": {"value": hom_hi, "expected": 8, "pass": hom_hi == 8},
        "S": {"value": s, "expected": 8.00685, "tolerance": 2e-4,
              "pass": abs(s - 8.00685) <= 2e-4},
        "P_C": {"value": float(p_c), "expected": "15/22",
                "pass": p_c == Fraction(15, 22)},
        "P_Q": {"value": p_q, "expected": 0.681974, "tolerance": 1e-4,
                "pass": abs(p_q - 0.681974) <= 1e-4},
    }
    all_pass = all(c["pass"] for c in checks.values())
    emit({**checks, "all_pass": all_pass}, args.format)
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becc",
        description="Bound-entanglement communication complexity: exact values, "
                    "Bell bounds and Monte Carlo simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="build and certify the shared state")
    state_sub = p_state.add_subparsers(dest="subcommand", required=True)
    p = state_sub.add_parser("validate", help="certificate report for the built-in state")
    _add_format(p)
    p.set_defaults(func=cmd_state_validate)
    p = state_sub.add_parser("dump", help="density matrix as JSON [re, im] pairs")
    p.set_defaults(func=cmd_state_dump)

    p_bell = sub.add_parser("bell", help="Bell inequality bounds and quantum value")
    bell_sub = p_bell.add_subparsers(dest="subcommand", required=True)
    p = bell_sub.add_parser("bounds", help="classical extrema by enumeration")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--original", action="store_true")
    group.add_argument("--homogenized", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_bell_bounds)
    p = bell_sub.add_parser("quantum-value", help="Bell expression value on the state")
    _add_format(p)
    p.set_defaults(func=cmd_bell_quantum_value)
    p = bell_sub.add_parser("coefficients", help="the 4x4x4 coefficient table as JSON")
    p.set_defaults(func=cmd_bell_coefficients)

    p_game = sub.add_parser("game", help="the communication complexity game")
    game_sub = p_game.add_subparsers(dest="subcommand", required=True)
    p = game_sub.add_parser("exact", help="exact success probabilities")
    _add_format(p)
    p.set_defaults(func=cmd_game_exact)
    p = game_sub.add_parser("simulate", help="Monte Carlo protocol run")
    p.add_argument("--protocol", choices=("classical", "quantum"), required=True)
    _add_run_args(p, default=1_000_000)
    _add_format(p)
    p.set_defaults(func=cmd_game_simulate)
    p = game_sub.add_parser("gap", help="quantum simulation vs exact classical optimum")
    _add_run_args(p, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_game_gap)

    p = sub.add_parser("reproduce-paper",
                       help="all headline numbers with pass/fail flags")
    _add_format(p)
    p.set_defaults(func=cmd_reproduce_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "shots"):
        # a run's limits live in SimulationConfig; breaking one is a usage error
        try:
            args.config = simulate.SimulationConfig(
                shots=args.shots, seed=args.seed, shards=args.shards,
                protocol=getattr(args, "protocol", "quantum"))
        except ValueError as exc:
            parser.error(str(exc))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
