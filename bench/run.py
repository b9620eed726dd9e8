"""Benchmark of tdesrec: one workload per process, fixed seeded input lists.

    python3 bench/run.py --workload solve --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

A run sets up several times and reports the median as ``setup_s``: one
set-up imports the program afresh (the start-up cost of every command-line
call) and builds the workload's input list.  It then runs the whole list in
order, round after round, until at least ``--seconds`` of operation time has
been measured.  The outputs of the
first round are checked by ``checks.py``; every later output must equal the
checked one.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run alternates an untraced and a traced round and
reports the per-layer metrics of the traced rounds, plus the tracing
overhead; it also writes them to ``.bench_results/``.  ``--smoke`` runs every
workload on a tiny input list, one untraced and one traced round each.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("factory-session", "synthesize", "project", "solve")
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 41
SETUP_MIN_SECONDS = 0.5

CLI_COMMANDS = ("synth-tcrs", "solve", "verify-commutativity", "project", "localize",
                "verify-decentralized", "compose", "timed-graph", "export-dot")
SELF_MS = ("modelfile.parse_model", "modelfile.render_model", "timed.timed_graph",
           "synthesis.supcon", "automata.project_detail", "automata.sync_product",
           "automata.language_equal", "automata.Generator.out_edges",
           "automata.Generator.eligible", "solver.trs", "solver.build_bft",
           "solver.prune_to_pbft", "solver.select_optimal",
           "solver.verify_projection_commutativity", "localization.timed_localize",
           "localization.verify_localization", "localization.verify_solution_equivalence")
CALLS = ("timed.timed_graph", "synthesis.mode_timed_graph", "synthesis.supcon",
         "automata.sync_product", "automata.Generator.out_edges", "automata.Generator.eligible",
         "localization.timed_localize", "localization.verify_localization")
# (metric, tracer counter, unit)
COUNTS = (
    ("timed.timed_graph.states", "timed.timed_graph.states", "states"),
    ("synthesis.supcon.states", "synthesis.supcon.states", "states"),
    ("automata.project_detail.states_in", "automata.project_detail.states_in", "states"),
    ("automata.project_detail.states_out", "automata.project_detail.states_out", "states"),
    ("solver.build_bft.nodes", "solver.build_bft.nodes", "count"),
    ("solver.trs.paths", "solver.trs.paths", "count"),
    ("localization.controller_states", "localization.timed_localize.controller_states", "states"),
    ("localization.fallbacks", "localization.timed_localize.fallbacks", "count"),
)


class Measurement:
    """Operation times, failures and check results of the rounds run so far."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.checked = [None] * len(inputs)
        self.times: list[float] = []
        self.timed = 0.0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.errors: list[str] = []

    def round(self) -> None:
        """Run the whole input list once."""
        w, clock = self.workload, time.perf_counter
        for i, inp in enumerate(self.inputs):
            self.attempted += 1
            start = clock()
            try:
                out = w.run(inp)
            except ValueError as exc:
                self.timed += clock() - start
                self.failed += 1
                if not w.expected_failure(inp):
                    self.errors.append(f"input {i}: {exc}")
                continue
            took = clock() - start
            self.timed += took
            self.times.append(took)
            if self.checked[i] is None:
                self.errors += [f"input {i}: {e}" for e in w.check(inp, out)]
                self.checked[i] = w.fingerprint(out)
            elif w.fingerprint(out) != self.checked[i]:
                self.errors.append(f"input {i}: output differs from the checked one")
        self.rounds += 1


def import_program() -> None:
    """Import ``tdesrec.cli`` afresh, as every command-line call does, then put
    the modules the benchmark already holds back in place."""
    def ours():
        return [k for k in sys.modules if k == "tdesrec" or k.startswith("tdesrec.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("tdesrec.cli")
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def set_up(workload, seed: int, smoke: bool):
    times = []
    while True:
        start = time.perf_counter()
        import_program()
        inputs = workload.setup(seed, smoke)
        times.append(time.perf_counter() - start)
        if len(times) >= SETUP_MIN_REPEATS and (
                sum(times) >= SETUP_MIN_SECONDS or len(times) >= SETUP_MAX_REPEATS):
            return inputs, statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(m: Measurement, setup_s: float) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(m.times) / m.timed, "1/s"),
        "op_p50_ms": metric(statistics.median(m.times) * 1000, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(summary: dict, counts: dict, ops: int, rounds: int, overhead: float) -> dict:
    """Per-operation layer figures from a tracer summary."""
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "raised": 0}

    def row(name):
        return summary.get(name, zero)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.ms"] = metric(row(f"cli.cmd_{cmd.replace('-', '_')}")["total"] * 1000 / ops,
                                      "ms")
    for name in SELF_MS:
        out[f"{name}.self_ms"] = metric(row(name)["self"] * 1000 / ops, "ms")
    for name in CALLS:
        out[f"{name}.calls"] = metric(row(name)["calls"] / ops, "count")
    for name, key, unit in COUNTS:
        out[name] = metric(counts.get(key, 0) / ops, unit)
    out["automata.project_detail.growth"] = metric(
        ratio(counts.get("automata.project_detail.states_out", 0),
              counts.get("automata.project_detail.states_in", 0)), "ratio")
    out["solver.paths_per_node"] = metric(
        ratio(counts.get("solver.trs.paths", 0), counts.get("solver.build_bft.nodes", 0)), "ratio")
    out["solver.guard_trips"] = metric(row("solver.build_bft")["raised"] / rounds, "count")
    out["trace.overhead_pct"] = metric(overhead * 100, "%")
    return out


def run_traced(workload, inputs, seconds: float, name: str, seed: int):
    import workloads
    from tracing import Tracer

    plain, traced = Measurement(workload, inputs), Measurement(workload, inputs)
    traced.checked = plain.checked
    tracer = Tracer()
    while traced.rounds == 0 or plain.timed + traced.timed < seconds:
        plain.round()
        tracer.install(callers=[workloads])
        try:
            traced.round()
        finally:
            tracer.uninstall()
    overhead = traced.timed / plain.timed - 1
    summary = tracer.summary()
    metrics = per_layer(summary, tracer.counts, traced.attempted, traced.rounds, overhead)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{name}-{seed}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "rounds": traced.rounds,
         "ops_per_round": len(inputs), "untraced_s": plain.timed,
         "traced_s": traced.timed, "spans": len(tracer.spans),
         "layers": summary, "metrics": metrics}, indent=1, sort_keys=True) + "\n")
    return plain, traced, metrics


def smoke() -> int:
    import workloads

    ok = True
    for name in WORKLOADS:
        w = workloads.make(name, WORK)
        inputs = w.setup(1, True)
        plain, traced, _ = run_traced(w, inputs, 0, name, 0)
        errors = plain.errors + traced.errors
        ok = ok and not errors
        print(f"smoke {name}: {plain.attempted} operations, {plain.failed} failed, "
              f"{'ok' if not errors else 'FAILED'}")
        for e in errors[:10]:
            print(f"  {e}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a tiny input list and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tdesrec" / "__init__.py").is_file():
        print(f"error: no tdesrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    WORK.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        import workloads

        workload = workloads.make(args.workload, WORK)
        inputs, setup_s = set_up(workload, args.seed, False)
        if args.trace:
            plain, traced, metrics = run_traced(workload, inputs, args.seconds,
                                                args.workload, args.seed)
            m = traced
            m.errors = plain.errors + traced.errors
        else:
            m = Measurement(workload, inputs)
            while m.rounds == 0 or m.timed < args.seconds:
                m.round()
            metrics = end_to_end(m, setup_s)
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for e in m.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": not m.errors, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
