"""Benchmark of the becc reproduction: exact-chain latency and Monte Carlo
shot throughput, with an optional traced run that times each layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_quantum --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

The package is imported from ``src/`` of the checkout and driven only
through its public functions; nothing under ``src/`` is changed.  Load comes
from this one process (closed loop, one client).  Child processes are only
the cold starts being timed, one at a time.

A run is a sequence of rounds.  Every round of every workload does the same:

1. set-up: a fresh interpreter that imports becc and builds ``GameTables``;
2. exact passes: ``build_vb_state`` + ``validate_state``, ``classical_extrema``
   on both forms and a fresh ``GameTables()``, in process;
3. cold ``becc reproduce-paper --format json`` processes;
4. one ``run_protocol`` call with the workload's protocol.

Step 4 is what tells the workloads apart.  Each exact pass is timed next
to a fixed reference loop and each round's cold runs next to a cold
``import numpy``; the gated exact-pass and CLI figures are ratios to these,
which keeps them steady through the host's slow spells.

Every operation checks its output; a failed check, an exception, a non-zero
exit or a determinism mismatch counts as a failed operation.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One BLAS thread, so the benchmark never runs more than nproc threads; the
# linear algebra here is on 8x8 matrices, where BLAS threads do not help.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 60

# workload -> protocol of its run_protocol calls (one shard each)
WORKLOADS = {"mc_quantum": "quantum", "mc_classical": "classical"}

# Values the paper states and `reproduce-paper` asserts, with the same
# tolerances; the state certificate thresholds are those of `becc state validate`.
EXPECTED = {
    "B_orig": (-13, 3),
    "B_hom": 8,
    "S": 8.00685,
    "S_tol": 2e-4,
    "P_C": Fraction(15, 22),
    "P_Q": 0.681974,
    "P_Q_tol": 1e-4,
}
# A deliberately wrong table, used by the smoke test to show that a wrong
# expected value is counted as a failure.
WRONG_EXPECTED = dict(EXPECTED, B_orig=(-12, 3), B_hom=9, S=7.0,
                      P_C=Fraction(1, 2), P_Q=0.5)
CERT_MAX = {"trace_deviation": 1e-9, "pt_invariance_deviation": 1e-5,
            "permutation_symmetry_deviation": 1e-5}
CERT_MIN_EIG = -1e-6
CERT_MIN_PT_EIG = -1e-5
# A Monte Carlo call passes when |p_hat - p_exact| <= MC_Z_MAX standard errors.
MC_Z_MAX = 5.0
# Monte Carlo paper-scale run used for the report-only extrapolation.
GAP_RUN_SEEDS, GAP_RUN_SHOTS = 10, 4e8

# Gated end-to-end metrics.  Slow spells on a shared machine stretch the
# wall time of Python-bound work by up to 1.6x for minutes at a time, so the
# exact pass and the cold CLI run are gated as ratios to a reference timed
# next to them (see reference_loop and cold_floor); their wall times are
# printed and recorded as well.
END_TO_END = {
    "setup_s": "s",
    "reproduce_rel.p50": "ratio",
    "reproduce_rel.tail": "ratio",
    "exact_pipeline_rel.p50": "ratio",
    "exact_pipeline_rel.tail": "ratio",
    "shots_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Per-layer metric -> (unit, the end-to-end metric it should move).
PER_LAYER = {
    "state.build_vb_state_s": ("s", "exact_pipeline"),
    "state.validate_state_s": ("s", "exact_pipeline"),
    "linalg.partial_transpose_s": ("s", "exact_pipeline"),
    "linalg.hermitian_eigenvalues_s": ("s", "exact_pipeline"),
    "bell.classical_extrema.original_s": ("s", "exact_pipeline, reproduce"),
    "bell.classical_extrema.homogenized_s": ("s", "exact_pipeline, reproduce"),
    "bell.quantum_value_s": ("s", "exact_pipeline, reproduce"),
    "ccp.optimal_classical_strategy_s": ("s", "exact_pipeline, setup_s"),
    "simulate.born_distribution_s": ("s", "setup_s, exact_pipeline"),
    "simulate.GameTables_s": ("s", "setup_s, exact_pipeline"),
    "numpy.import_s": ("s", "floor of cli.import_s"),
    "cli.import_s": ("s", "reproduce, setup_s"),
    "cli.main_s": ("s", "reproduce"),
    "simulate.run_protocol_s.p50": ("s", "shots_per_s"),
    "simulate.run_protocol_s.tail": ("s", "shots_per_s"),
    "simulate.cpu_util": ("ratio", "shots_per_s"),
    "simulate.tracemalloc_peak_mb": ("MB", "peak_rss_mb"),
    "bell.strategies_enumerated": ("count", "exact_pipeline"),
    "ccp.strategies_enumerated": ("count", "exact_pipeline, setup_s"),
    "simulate.support_tuples": ("count", "setup_s"),
    "simulate.shots_attempted": ("count", "shots_per_s"),
}
# Components GameTables() computes, each also timed as its own call; what
# GameTables_s spends beyond them is reported as derived "unattributed" time.
GAME_TABLES_PARTS = (
    "state.build_vb_state", "bell.measurement_observables", "bell.sliwa5",
    "bell.homogenize", "ccp.input_distribution", "simulate.born_distribution",
    "ccp.optimal_classical_strategy", "bell.quantum_value",
    "ccp.exact_success_quantum",
)


@dataclass(frozen=True)
class Plan:
    """How much work one run does.  The phases are interleaved in rounds, so
    every metric samples the whole run and a slow spell on a shared machine
    touches all of them alike.  A round of mc_quantum takes about 1.6 s on a
    2-core x86 machine, so a run makes 0.6 rounds per second asked for."""
    rounds: int
    shots: int
    passes_per_round: int = 5
    cli_per_round: int = 2

    @classmethod
    def make(cls, seconds: float, tiny: bool) -> "Plan":
        if tiny:
            return cls(rounds=2, shots=20_000, passes_per_round=2, cli_per_round=1)
        return cls(rounds=max(10, round(0.6 * seconds)), shots=2_000_000)


class Tracer:
    """Spans (name, start, end, parent) kept in memory and written at the end."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def per_parent(self, name: str) -> dict:
        """Summed duration of the `name` spans under each parent span, so a
        call made k times per pass is counted per pass."""
        sums: dict = {}
        for s in self.spans:
            if s["name"] == name:
                sums[s["parent"]] = sums.get(s["parent"], 0.0) + s["end"] - s["start"]
        return sums

    def per_parent_median(self, name: str) -> float:
        return median(list(self.per_parent(name).values()))

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def reference_loop() -> int:
    """Fixed work independent of becc, of the exact chain's kind (Python
    arithmetic and 8x8 numpy calls), about 8 ms; its time tracks how fast
    the host runs such work at the moment."""
    import numpy as np
    m = np.eye(8) + 0.1
    acc = 0
    for i in range(20_000):
        acc += (i * 7) % 13
    for _ in range(200):
        np.linalg.eigvalsh(m)
        np.kron(m[:2, :2], m[:2, :2])
    return acc


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else math.nan


def tail(xs: list[float]) -> tuple[float, int]:
    """Value at the highest whole percentile with at least 10 samples beyond
    it (linear interpolation), and that percentile.  Fewer than 20 samples
    fall back to the maximum."""
    n = len(xs)
    if n < 20:
        return (max(xs) if xs else math.nan), 100
    p = 100 * (n - 10) // n
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1], p


class Bench:
    def __init__(self, workload: str, seed: int, plan: Plan, trace: bool,
                 expected: dict):
        self.workload, self.seed, self.plan, self.trace = workload, seed, plan, trace
        self.protocol = WORKLOADS[workload]
        self.expected = expected
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        # shots of every run_protocol call made, as its reports give them
        self.shots_run = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)

    # -- bookkeeping ---------------------------------------------------------

    def op(self, what: str, fn, *args):
        """Run one operation; an exception or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # every failure is counted and reported, never raised
            self.failed += 1
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def child(self, code: str, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", code, *argv], env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT)

    # -- operations ----------------------------------------------------------

    def fresh_setup(self) -> float:
        """Fresh interpreter to ready: import becc and build GameTables (the
        lazy default_tables() cost every CLI call pays).  CLOCK_MONOTONIC is
        system-wide, so the child's ready time and ours share one clock."""
        t0 = time.monotonic()
        proc = self.child("import time, becc.simulate as s\n"
                          "t = s.GameTables()\n"
                          "print(len(t.support), time.monotonic())\n")
        check(proc.returncode == 0, f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        support, ready = proc.stdout.split()
        check(support == "18", f"set-up built {support} support tuples")
        return float(ready) - t0

    def check_certificates(self, report) -> None:
        for field, limit in CERT_MAX.items():
            check(getattr(report, field) <= limit, f"{field} = {getattr(report, field)}")
        check(report.min_eigenvalue >= CERT_MIN_EIG, f"min eigenvalue {report.min_eigenvalue}")
        check(all(e >= CERT_MIN_PT_EIG for e in report.pt_min_eigenvalues),
              f"PT eigenvalues {report.pt_min_eigenvalues}")

    def check_headline(self, orig, hom_hi, s, p_c, p_q) -> None:
        e = self.expected
        check(tuple(orig) == e["B_orig"], f"B_orig {orig}")
        check(hom_hi == e["B_hom"], f"B_hom {hom_hi}")
        check(abs(s - e["S"]) <= e["S_tol"], f"S {s}")
        check(p_c == e["P_C"], f"P_C {p_c}")
        check(abs(p_q - e["P_Q"]) <= e["P_Q_tol"], f"P_Q {p_q}")

    def exact_pass(self) -> tuple:
        from becc import bell, simulate, state
        t = self.tracer
        rho = t.call("state.build_vb_state", state.build_vb_state)
        report = t.call("state.validate_state", state.validate_state, rho)
        orig_lo, orig_hi, _ = t.call("bell.classical_extrema.original",
                                     bell.classical_extrema, bell.sliwa5())
        hom = bell.homogenize(bell.sliwa5())
        _, hom_hi, _ = t.call("bell.classical_extrema.homogenized",
                              bell.classical_extrema, hom)
        tables = t.call("simulate.GameTables", simulate.GameTables)
        self.check_certificates(report)
        self.check_headline((orig_lo, orig_hi), hom_hi, tables.quantum_value,
                            tables.p_classical_exact, tables.p_quantum_exact)
        return (rho.tobytes(), report, orig_lo, orig_hi, hom_hi,
                tables.quantum_value, tables.p_classical_exact, tables.p_quantum_exact)

    def cold_floor(self) -> float:
        """Wall time of a fresh interpreter importing numpy: the floor under
        every cold becc process, which no change to becc can move."""
        t0 = time.perf_counter()
        proc = self.child("import numpy")
        elapsed = time.perf_counter() - t0
        check(proc.returncode == 0, f"import numpy exited {proc.returncode}")
        return elapsed

    def cold_reproduce(self) -> None:
        # the same call the `becc` console script makes
        proc = self.child("import sys; from becc.cli import main; sys.exit(main())",
                          "reproduce-paper", "--format", "json")
        check(proc.returncode == 0, f"reproduce-paper exited {proc.returncode}")
        self.check_reproduce_json(proc.stdout)

    def check_reproduce_json(self, text: str) -> None:
        doc = json.loads(text)
        check(doc["all_pass"] is True, "all_pass is not true")
        e = self.expected
        check(doc["P_C"]["pass"] is True
              and abs(doc["P_C"]["value"] - float(e["P_C"])) <= 1e-12, "P_C")
        self.check_headline((doc["B_orig_min"]["value"], doc["B_orig_max"]["value"]),
                            doc["B_hom"]["value"], doc["S"]["value"], e["P_C"],
                            doc["P_Q"]["value"])

    def call_seed(self, i: int) -> int:
        import numpy as np
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def mc_call(self, i: int, tables) -> int:
        from becc import simulate
        config = simulate.SimulationConfig(shots=self.plan.shots, seed=self.call_seed(i),
                                           protocol=self.protocol, shards=1)
        report = self.tracer.call("simulate.run_protocol", simulate.run_protocol,
                                  config, tables)
        self.shots_run += report.shots
        self.check_mc(report)
        return report.successes

    def check_mc(self, report) -> None:
        p_exact = float(self.expected["P_Q" if self.protocol == "quantum" else "P_C"])
        n = self.plan.shots
        check(report.shots == n and 0 <= report.successes <= n,
              f"report shots {report.shots}, successes {report.successes}")
        z = abs(report.successes / n - p_exact) / math.sqrt(p_exact * (1 - p_exact) / n)
        check(z <= MC_Z_MAX, f"p_hat {report.successes / n} is {z:.1f} sd from {p_exact}")

    # -- phases --------------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        from becc import simulate
        plan, t = self.plan, self.tracer
        # the tables every warm call (run_protocol, cli.main) shares
        tables = simulate.default_tables()
        first_pass = self.op("warm-up exact pass", self.exact_pass)

        setups, cli_times, cli_rel, ex_rel = [], [], [], []
        pass_times = {True: [], False: []}
        imports = {"numpy": [], "becc.cli": []}
        successes: dict[int, int] = {}
        call_walls = []
        mc_cpu = 0.0

        def exact_pass(traced, round_passes):
            t.enabled = traced
            t0 = time.perf_counter()
            with t.span("exact_pass"):
                out = self.exact_pass()
            dt = time.perf_counter() - t0
            t.enabled = False
            check(out == first_pass, "exact pass differs from the run's first pass")
            pass_times[traced].append(dt)
            if not traced:
                round_passes.append(dt)

        def cold_reproduce(round_runs):
            t0 = time.perf_counter()
            self.cold_reproduce()
            round_runs.append(time.perf_counter() - t0)

        for r in range(plan.rounds):
            self.op("set-up", lambda: setups.append(self.fresh_setup()))
            # Each reference is the median (or mean) of samples taken around
            # the round's own samples, so one noisy reference sample does
            # not skew a whole round.
            refs, round_passes = [], []
            for k in range(plan.passes_per_round):
                t0 = time.perf_counter()
                reference_loop()
                refs.append(time.perf_counter() - t0)
                # traced runs alternate tracing on and off to measure its overhead
                self.op("exact pass", exact_pass, self.trace and k % 2 == 0, round_passes)
            ex_rel += [dt / median(refs) for dt in round_passes]

            round_runs = []
            floors = [self.op("numpy-import floor", self.cold_floor)]
            for _ in range(plan.cli_per_round):
                self.op("cold reproduce-paper", cold_reproduce, round_runs)
            floors.append(self.op("numpy-import floor", self.cold_floor))
            cli_times += round_runs
            if None not in floors:
                cli_rel += [dt / statistics.mean(floors) for dt in round_runs]
            t.enabled = self.trace
            c0, t0 = time.process_time(), time.perf_counter()
            s = self.op(f"run_protocol call {r}", self.mc_call, r, tables)
            call_walls.append(time.perf_counter() - t0)
            mc_cpu += time.process_time() - c0
            if s is not None:
                successes[r] = s
            if self.trace and r % 2 == 0:
                with t.span("layer_pass"):
                    self.op("layer pass", self.layer_pass, tables)
            t.enabled = False
            if self.trace and r % 4 == 0:
                for module, samples in imports.items():
                    self.op(f"cold import {module}",
                            lambda: samples.append(self.cold_import(module)))

        def rerun(i):
            check(self.mc_call(i, tables) == successes.get(i),
                  f"call {i} repeated gave another success count")

        # Determinism: repeat a few calls with the same config after timing.
        for i in sorted({0, plan.rounds // 2, plan.rounds - 1}):
            self.op(f"determinism rerun of call {i}", rerun, i)

        record = self.record()
        record["mc_successes"] = [successes.get(i) for i in range(plan.rounds)]
        record["mc_digest"] = hashlib.sha256(
            json.dumps(record["mc_successes"]).encode()).hexdigest()[:16]

        if self.trace:
            peak_mb = self.op("tracemalloc run_protocol", self.tracemalloc_call, tables)
            metrics, derived = self.layer_metrics(tables, imports, peak_mb,
                                                  mc_cpu / sum(call_walls))
            on, off = median(pass_times[True]), median(pass_times[False])
            derived["tracing_overhead_s"] = on - off
            derived["tracing_overhead_share"] = (on - off) / off
            record["derived"] = derived
            return metrics, record

        ex = pass_times[False]
        metrics = {
            "setup_s": median(setups),
            "reproduce_rel.p50": median(cli_rel),
            "reproduce_rel.tail": tail(cli_rel)[0],
            "exact_pipeline_rel.p50": median(ex_rel),
            "exact_pipeline_rel.tail": tail(ex_rel)[0],
            "shots_per_s": plan.shots * len(successes) / sum(call_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["wall_time"] = {
            "reproduce_s.p50": median(cli_times),
            "reproduce_s.tail": tail(cli_times)[0],
            "exact_pipeline_s.p50": median(ex),
            "exact_pipeline_s.tail": tail(ex)[0],
        }
        record.update({
            "setup_s.samples": len(setups), "setup_s.all": setups, "call_wall_s.all": call_walls,
            "reproduce.tail_percentile": tail(cli_times)[1], "reproduce.samples": len(cli_times),
            "exact_pipeline.tail_percentile": tail(ex)[1], "exact_pipeline.samples": len(ex),
        })
        if self.workload == "mc_quantum" and successes:
            record["gap_run_s.extrapolated"] = (
                GAP_RUN_SEEDS * GAP_RUN_SHOTS / metrics["shots_per_s"])
        return metrics, record

    def layer_pass(self, tables) -> None:
        """Each public call of the exact chain timed on its own, mirroring what
        validate_state and GameTables do inside."""
        import numpy as np
        from becc import bell, ccp, cli, linalg, simulate, state
        t = self.tracer
        rho = t.call("state.build_vb_state", state.build_vb_state)
        report = t.call("state.validate_state", state.validate_state, rho)
        self.check_certificates(report)
        pts = [t.call("linalg.partial_transpose", linalg.partial_transpose, rho, party,
                      [2, 2, 2]) for party in (1, 2, 3)]
        eigs = [t.call("linalg.hermitian_eigenvalues", linalg.hermitian_eigenvalues, m)
                for m in (rho, *pts)]
        check(float(eigs[0][0]) == report.min_eigenvalue, "eigenvalues differ from validate_state")

        obs = t.call("bell.measurement_observables", bell.measurement_observables)
        original = t.call("bell.sliwa5", bell.sliwa5)
        hom = t.call("bell.homogenize", bell.homogenize, original)
        orig_lo, orig_hi, _ = t.call("bell.classical_extrema.original",
                                     bell.classical_extrema, original)
        _, hom_hi, _ = t.call("bell.classical_extrema.homogenized",
                              bell.classical_extrema, hom)
        s = t.call("bell.quantum_value", bell.quantum_value, hom, rho, obs)

        t.call("ccp.input_distribution", ccp.input_distribution, hom.g)
        _, p_c = t.call("ccp.optimal_classical_strategy", ccp.optimal_classical_strategy,
                        hom.g)
        p_q = t.call("ccp.exact_success_quantum", ccp.exact_success_quantum, s,
                     hom.sum_abs())
        self.check_headline((orig_lo, orig_hi), hom_hi, s, p_c, p_q)

        for idx in np.argwhere(hom.g != 0):
            pmf = t.call("simulate.born_distribution", simulate.born_distribution, rho, obs,
                         tuple(int(i) for i in idx))
            check(abs(pmf.sum() - 1.0) <= 1e-9, "Born distribution does not sum to 1")
        fresh = t.call("simulate.GameTables", simulate.GameTables)
        check(fresh.p_quantum_exact == tables.p_quantum_exact, "GameTables differ")

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = t.call("cli.main", cli.main, ["reproduce-paper", "--format", "json"])
        check(rc == 0, f"cli.main returned {rc}")
        self.check_reproduce_json(buf.getvalue())

    def cold_import(self, module: str) -> float:
        proc = self.child("import time; t = time.perf_counter(); import " + module
                          + "; print(time.perf_counter() - t)")
        check(proc.returncode == 0, f"import {module} exited {proc.returncode}")
        return float(proc.stdout)

    def tracemalloc_call(self, tables) -> float:
        from becc import simulate
        config = simulate.SimulationConfig(shots=self.plan.shots, seed=self.call_seed(0),
                                           protocol=self.protocol, shards=1)
        tracemalloc.start()
        try:
            report = simulate.run_protocol(config, tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.shots_run += report.shots
        self.check_mc(report)
        return peak / 2 ** 20

    def layer_metrics(self, tables, imports, peak_mb, cpu_util) -> tuple[dict, dict]:
        import numpy as np
        from becc import bell
        plan, t = self.plan, self.tracer
        g = bell.homogenize(bell.sliwa5()).g
        support = np.argwhere(g != 0)
        parties, settings = g.ndim, g.shape[0]
        # sizes of the deterministic-strategy spaces the code enumerates, worked
        # out from g rather than counted while it runs
        original_slots = {(p, int(x[p])) for x in support for p in range(parties) if x[p]}
        live_slots = {(p, int(x[p])) for x in support for p in range(parties)}
        calls = t.durations("simulate.run_protocol")
        call_tail, call_p = tail(calls)
        layer = t.per_parent_median
        metrics = {
            "state.build_vb_state_s": layer("state.build_vb_state"),
            "state.validate_state_s": layer("state.validate_state"),
            "linalg.partial_transpose_s": layer("linalg.partial_transpose"),
            "linalg.hermitian_eigenvalues_s": layer("linalg.hermitian_eigenvalues"),
            "bell.classical_extrema.original_s": layer("bell.classical_extrema.original"),
            "bell.classical_extrema.homogenized_s": layer("bell.classical_extrema.homogenized"),
            "bell.quantum_value_s": layer("bell.quantum_value"),
            "ccp.optimal_classical_strategy_s": layer("ccp.optimal_classical_strategy"),
            "simulate.born_distribution_s": layer("simulate.born_distribution"),
            "simulate.GameTables_s": layer("simulate.GameTables"),
            "numpy.import_s": median(imports["numpy"]),
            "cli.import_s": median(imports["becc.cli"]),
            "cli.main_s": layer("cli.main"),
            "simulate.run_protocol_s.p50": median(calls),
            "simulate.run_protocol_s.tail": call_tail,
            "simulate.cpu_util": cpu_util,
            "simulate.tracemalloc_peak_mb": math.nan if peak_mb is None else peak_mb,
            "bell.strategies_enumerated": 2 ** len(original_slots)
                                          + 2 ** (parties * (settings - 1)),
            "ccp.strategies_enumerated": 2 ** len(live_slots),
            "simulate.support_tuples": len(tables.support),
            "simulate.shots_attempted": self.shots_run,
        }
        # within each layer pass: GameTables() minus its parts timed on their own
        tables_s = t.per_parent("simulate.GameTables")
        parts = [t.per_parent(name) for name in GAME_TABLES_PARTS]
        unattributed = [tables_s[p] - sum(part.get(p, 0.0) for part in parts)
                        for p, name in enumerate(s["name"] for s in t.spans)
                        if name == "layer_pass" and p in tables_s]
        derived = {
            "GameTables_unattributed_s (derived)": median(unattributed),
            "run_protocol_s.tail_percentile": call_p,
            "run_protocol_s.samples": len(calls),
        }
        return metrics, derived

    def record(self) -> dict:
        import numpy as np
        src_files = sorted(SRC.rglob("*.py"))
        digest = hashlib.sha256()
        for f in src_files:
            digest.update(f.read_bytes())
        commit = "unknown (not a git checkout)"
        if (ROOT / ".git").exists():
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip()
        return {
            "workload": self.workload, "seed": self.seed, "trace": int(self.trace),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_lines": sum(len(f.read_text().splitlines()) for f in src_files),
            "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
            "protocol": self.protocol, "shards": 1,
            "shots_per_call": self.plan.shots, "plan": asdict(self.plan),
        }


def run_workload(args) -> int:
    if not (SRC / "becc" / "__init__.py").is_file():
        print(f"error: no becc package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    bench = Bench(args.workload, args.seed, Plan.make(args.seconds, args.tiny),
                  bool(args.trace), WRONG_EXPECTED if args.inject_wrong_expected else EXPECTED)
    metrics, record = bench.run()
    record["attempted"], record["failed"] = bench.attempted, bench.failed
    record["failed_ops_ratio"] = bench.failed / bench.attempted

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps({"spans": bench.tracer.spans}))

    units = {k: PER_LAYER[k][0] for k in PER_LAYER} if args.trace else END_TO_END
    for name, value in metrics.items():
        moves = f"  (moves {PER_LAYER[name][1]})" if args.trace else ""
        print(f"{name} = {value:.6g} {units[name]}{moves}")
    for name, value in record.get("wall_time", {}).items():
        print(f"{name} = {value:.6g} s  (wall time, not gated)")
    print(f"failed_ops_ratio = {record['failed_ops_ratio']:.6g} ratio "
          f"({bench.failed} of {bench.attempted})")
    for name, value in record.get("derived", {}).items():
        print(f"{name} = {value:.6g}")
    if "gap_run_s.extrapolated" in record:
        print(f"gap_run_s.extrapolated = {record['gap_run_s.extrapolated']:.6g} s "
              f"(report only: {GAP_RUN_SEEDS} x {GAP_RUN_SHOTS:.0e} shots / shots_per_s)")
    print("record: " + json.dumps({k: v for k, v in record.items() if not isinstance(v, list)}))

    correct = bench.failed == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Each workload at tiny size, both modes: every metric named in
    BENCHMARK.json is emitted with its unit, two runs with one seed agree, and
    an injected wrong expected value is counted as a failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def bench(workload, trace, *extra):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(int(trace)), "--tiny", *extra],
            capture_output=True, text=True, timeout=300, cwd=ROOT)
        if proc.returncode != 0:
            problems.append(f"{workload} trace={trace} {extra}: exit {proc.returncode}\n"
                            + proc.stderr)
            return None, None
        lines = proc.stdout.strip().splitlines()
        record = next(json.loads(line[len("record: "):]) for line in lines
                      if line.startswith("record: "))
        return json.loads(lines[-1]), record

    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the harness's")
    for workload in WORKLOADS:
        digests = []
        for trace in (False, True, False):
            result, record = bench(workload, trace)
            if result is None:
                continue
            digests.append(record["mc_digest"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want[trace]}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed")
        if len(set(digests)) != 1:
            problems.append(f"{workload}: success counts differ between runs: {digests}")
        result, _ = bench(workload, False, "--inject-wrong-expected")
        if result is not None and (result["correct"] or result["failed"] == 0):
            problems.append(f"{workload}: wrong expected values were not counted as failures")
        print(f"smoke {workload}: done", flush=True)

    for p in problems:
        print("SMOKE FAILURE: " + p, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's own test at tiny size")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-wrong-expected", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
