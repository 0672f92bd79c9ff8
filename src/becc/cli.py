"""Command-line front end: every headline number behind one subcommand, one
row of COMMANDS.  A handler returns (report, ok); main, the one exit path,
prints the report in --format and exits 0 if ok, 1 if not or on a
ValueError, and 2 on a usage error (argparse default).
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bell, ccp, state, tolerances

SIG_DIGITS = 12


def emit(data: dict, fmt: str) -> None:
    """Print a report with floats rounded to SIG_DIGITS; a non-finite value
    raises ValueError (exit 1) in every format, before anything is printed.
    In CSV a list or dict value is one quoted JSON cell."""
    data = json.loads(json.dumps(data, allow_nan=False),
                      parse_float=lambda s: float(f"{float(s):.{SIG_DIGITS}g}"))
    if fmt == "json":
        print(json.dumps(data))
    elif fmt == "csv":
        import csv  # lazily: a cold start in the other formats skips it
        rows = [(k, json.dumps(v) if isinstance(v, (list, dict)) else v) for k, v in data.items()]
        csv.writer(sys.stdout, lineterminator="\n").writerows([("key", "value"), *rows])
    else:
        for k, v in data.items():
            print(f"{k}: {v}")


def cmd_state_validate(args) -> tuple[dict, bool]:
    report = state.validate_state(state.build_vb_state())
    return report.to_dict(), report.certified


# the raw-JSON commands print their own full-precision JSON and return None:
# no --format and no rounding (the state_dump.json golden pins the digits)
def cmd_state_dump(args) -> None:
    print(state.state_to_json(state.build_vb_state()))


def cmd_bell_coefficients(args) -> None:
    hom = bell.homogenize(bell.sliwa5())
    print(json.dumps({"n": hom.g.ndim, "settings": hom.g.shape[0], "g": hom.g.tolist(),
                      "bound": hom.upper_bound}))


def cmd_bell_bounds(args) -> tuple[dict, bool]:
    ineq = bell.sliwa5() if args.original else bell.homogenize(bell.sliwa5())
    lo, hi, argmax, enumerated = bell.search_strategies(ineq.g)
    return {
        "form": "original" if args.original else "homogenized",
        "min": lo,
        "max": hi,
        "strategies_enumerated": enumerated,
        "argmax_strategy": [list(row) for row in argmax.a],
    }, True


def cmd_bell_quantum_value(args) -> tuple[dict, bool]:
    tables = ccp.default_tables()
    s, bound, corr = tables.quantum_value, tables.ineq.upper_bound, tables.correlations
    return {
        "quantum_value": s,
        "classical_bound": bound,
        "violation": s - bound,
        "original_expression_value": bell.expression_value(bell.sliwa5().g, corr),
        "correlations": {f"E{x}": float(corr[x]) for x in tables.support},
    }, s > bound


def cmd_game_exact(args) -> tuple[dict, bool]:
    tables = ccp.default_tables()
    p_c, p_q = tables.p_classical_exact, tables.p_quantum_exact
    return {
        "sum_abs_g": float(tables.ineq.sum_abs()),
        "classical_bound": tables.ineq.upper_bound,
        "quantum_value": tables.quantum_value,
        "p_c": float(p_c),
        "p_c_exact": str(p_c),
        "p_q": p_q,
        "gap": p_q - float(p_c),
    }, p_q > p_c


# the sampler and numpy.random load only where a run is built
def cmd_game_simulate(args) -> tuple[dict, bool]:
    from . import simulate
    return simulate.run_protocol(args.config, ccp.default_tables()).to_dict(), True


def cmd_game_gap(args) -> tuple[dict, bool]:
    from . import simulate
    c, tables = args.config, ccp.default_tables()
    report = simulate.gap_experiment(c.shots, seed=c.seed, shards=c.shards, tables=tables)
    if report.underpowered:
        print("warning: shot count too low to resolve the quantum-classical gap",
              file=sys.stderr)
    return report.to_dict(), True


def check(value, expected, tolerance=None) -> dict:
    """One reproduce-paper row, whose pass reads the expected value and tolerance it prints."""
    ok = value == expected if tolerance is None else abs(value - expected) <= tolerance
    gate = {} if tolerance is None else {"tolerance": tolerance}
    shown = str(expected) if isinstance(expected, Fraction) else expected
    return {"value": float(value), "expected": shown, **gate, "pass": ok}


def cmd_reproduce_paper(args) -> tuple[dict, bool]:
    tables = ccp.default_tables()
    orig_lo, orig_hi, _ = bell.classical_extrema(bell.sliwa5())
    checks = {
        "B_orig_min": check(orig_lo, -13),
        "B_orig_max": check(orig_hi, 3),
        "B_hom": check(bell.classical_extrema(tables.ineq)[1], 8),
        "S": check(tables.quantum_value, 8.00685, tolerances.S_GATE),
        "P_C": check(tables.p_classical_exact, Fraction(15, 22)),
        "P_Q": check(tables.p_quantum_exact, 0.681974, tolerances.P_Q_GATE),
    }
    all_pass = all(c["pass"] for c in checks.values())
    return {**checks, "all_pass": all_pass}, all_pass


GROUPS = {"state": "build and certify the shared state",
          "bell": "Bell inequality bounds and quantum value",
          "game": "the communication complexity game"}
# (group, name, help, handler); group None is a top-level command
COMMANDS = (
    ("state", "validate", "certificate report for the built-in state", cmd_state_validate),
    ("state", "dump", "density matrix as JSON [re, im] pairs", cmd_state_dump),
    ("bell", "bounds", "classical extrema by enumeration", cmd_bell_bounds),
    ("bell", "quantum-value", "Bell expression value on the state", cmd_bell_quantum_value),
    ("bell", "coefficients", "the 4x4x4 coefficient table as JSON", cmd_bell_coefficients),
    ("game", "exact", "exact success probabilities", cmd_game_exact),
    ("game", "simulate", "Monte Carlo protocol run", cmd_game_simulate),
    ("game", "gap", "quantum simulation vs exact classical optimum", cmd_game_gap),
    (None, "reproduce-paper", "all headline numbers with pass/fail flags", cmd_reproduce_paper),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becc",
        description="Bound-entanglement communication complexity: exact values, "
                    "Bell bounds and Monte Carlo simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    parents = {None: sub, **{
        group: sub.add_parser(group, help=text).add_subparsers(dest="subcommand", required=True)
        for group, text in GROUPS.items()}}
    leaves = {}
    for group, name, text, func in COMMANDS:
        p = leaves[name] = parents[group].add_parser(name, help=text)
        p.set_defaults(func=func)
        if func not in (cmd_state_dump, cmd_bell_coefficients):  # the raw-JSON commands
            p.add_argument("--format", choices=("human", "json", "csv"), default="human")

    exclusive = leaves["bounds"].add_mutually_exclusive_group()
    exclusive.add_argument("--original", action="store_true")
    exclusive.add_argument("--homogenized", action="store_true")
    leaves["simulate"].add_argument("--protocol", choices=("classical", "quantum"), required=True)
    # run arguments; main checks their limits through SimulationConfig
    for name, shots in (("simulate", {"default": 1_000_000}), ("gap", {"required": True})):
        leaves[name].add_argument("--shots", type=int, **shots)
        leaves[name].add_argument("--seed", type=int, default=0)
        leaves[name].add_argument("--shards", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "shots"):
        # a run's limits live in SimulationConfig; breaking one is a usage error
        from . import simulate
        try:
            args.config = simulate.SimulationConfig(
                shots=args.shots, seed=args.seed, shards=args.shards,
                protocol=getattr(args, "protocol", "quantum"))
        except ValueError as exc:
            parser.error(str(exc))
    try:
        result = args.func(args)
        if result is None:  # a raw-JSON command has printed its output
            return 0
        report, ok = result
        emit(report, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
