"""Batch command-line front end.

Every subcommand reads a model file, runs one pipeline step, and writes
deterministic output: exit code 0 on success, 2 when a reconfiguration
problem is unsolvable, 1 on any error.  Synthesized supervisors and other
timed generators are written back as spec blocks, so later commands can pick
them up from the produced file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .automata import Generator, is_nonblocking, project, sync_product, to_dot
from .events import TICK, event_name
from .localization import (
    DecentralizationPackage,
    default_event_list,
    timed_localize,
    verify_solution_equivalence,
)
from .modelfile import ModelError, ModelFile, parse_model, render_model
from .solver import (
    ForciblePathSet,
    ReconfigProblem,
    select_optimal,
    trs,
    verify_projection_commutativity,
)
from .synthesis import Supervisor, _synthesize_with_plant, supcon
from .timed import DEFAULT_STATE_CAP, TimedGenerator, timed_graph

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSOLVABLE = 2

# Backtracking-tree nodes ``solve`` and ``verify-commutativity`` search before
# they stop with an error; the acceptance criteria solve under the same budget.
_MAX_NODES = 200_000


class CliError(Exception):
    pass


def _load(path: str) -> ModelFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_model(text)
    except ModelError as exc:
        lines = "\n".join(f"  {d}" for d in exc.diagnostics)
        raise CliError(f"{path} has {len(exc.diagnostics)} problem(s):\n{lines}") from exc


def _block(model: ModelFile, name: str) -> Generator:
    try:
        return model.block(name)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from exc


def _atg(model: ModelFile, name: str) -> Generator:
    if name not in model.atgs:
        raise CliError(f"no ATG block named {name!r}")
    return model.atgs[name]


def _spec(model: ModelFile, name: str) -> Generator:
    if name not in model.specs:
        raise CliError(f"no spec block named {name!r}")
    return model.specs[name]


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_output(model: ModelFile, out: str | None, kind: str, name: str,
                  gen: Generator) -> None:
    result = ModelFile(model.events,
                       {name: gen} if kind == "atg" else {},
                       {name: gen} if kind == "spec" else {})
    text = render_model(result)
    if out:
        _write_text(out, text)
        print(f"wrote {kind} {name!r} ({gen.n_states} states, "
              f"{len(gen.transitions)} transitions) to {out}")
    else:
        sys.stdout.write(text)


def _synthesize(model: ModelFile, args) -> tuple[TimedGenerator, Supervisor]:
    """The mode timed graph (the plant) and the supervisor synthesized for it."""
    components = [_atg(model, n) for n in args.components]
    reconfig = _atg(model, args.reconfig)
    behavioral = _spec(model, args.spec)
    return _synthesize_with_plant(components, reconfig, behavioral, model.events,
                                  args.reconfig_event or (), args.max_states)


def _supervisor_from_block(model: ModelFile, name: str) -> Supervisor:
    gen = _block(model, name)
    return Supervisor.from_generator(gen, model.events)


def _print_paths(paths: ForciblePathSet, optimal: str | None) -> None:
    ordered = list(paths.paths)
    if optimal:
        criterion = "min_ticks" if optimal == "ticks" else "min_length"
        best = select_optimal(paths, criterion)
        ordered.remove(best)
        ordered.insert(0, best)
    for p in ordered:
        print(",".join(event_name(e) for e in p))


def cmd_compose(args) -> int:
    model = _load(args.model)
    parts = [_atg(model, n) for n in args.names]
    result = sync_product(parts)
    _write_output(model, args.output, "atg", args.name, result)
    return EXIT_OK


def cmd_timed_graph(args) -> int:
    model = _load(args.model)
    atg = _atg(model, args.atg)
    ttg = timed_graph(atg, model.events, max_states=args.max_states)
    if args.dot:
        labels = {
            i: f"{ts.activity}|" + ",".join(f"{e}:{t}" for e, t in ts.timers)
            for i, ts in enumerate(ttg.timed_states)
        }
        _write_text(args.dot, to_dot(ttg.generator, args.name, labels) + "\n")
        print(f"wrote timer-annotated graph to {args.dot}")
    _write_output(model, args.output, "spec", args.name, ttg.generator)
    return EXIT_OK


def cmd_supcon(args) -> int:
    model = _load(args.model)
    atg = sync_product([_atg(model, n) for n in args.plant])
    plant = timed_graph(atg, model.events, max_states=args.max_states)
    spec = _spec(model, args.spec)
    sup = supcon(plant, spec, model.events)
    print(f"supervisor: {sup.n_states} states, "
          f"{len(sup.automaton.transitions)} transitions, "
          f"nonblocking={is_nonblocking(sup.automaton)}")
    _write_output(model, args.output, "spec", args.name, sup.automaton)
    return EXIT_OK


def cmd_synth_tcrs(args) -> int:
    model = _load(args.model)
    _, sup = _synthesize(model, args)
    if sup.is_empty:
        print("warning: no admissible behavior", file=sys.stderr)
    print(f"TCRS: {sup.n_states} states, {len(sup.automaton.transitions)} transitions")
    _write_output(model, args.output, "spec", args.name, sup.automaton)
    return EXIT_OK


def cmd_solve(args) -> int:
    model = _load(args.model)
    sup = _supervisor_from_block(model, args.supervisor)
    problem = ReconfigProblem(sup, args.source, args.target, args.event)
    paths = trs(problem, _MAX_NODES)
    if not paths.solvable:
        print("unsolvable")
        return EXIT_UNSOLVABLE
    _print_paths(paths, args.optimal)
    if args.json:
        _write_text(args.json, paths.to_json() + "\n")
    return EXIT_OK


def cmd_project(args) -> int:
    model = _load(args.model)
    gen = _block(model, args.block)
    erase = frozenset(TICK if t == "tick" else int(t) for t in args.erase)
    result = project(gen, erase & gen.alphabet)
    _write_output(model, args.output, "spec", args.name, result)
    return EXIT_OK


def cmd_localize(args) -> int:
    model = _load(args.model)
    plant, sup = _synthesize(model, args)
    if sup.is_empty:
        raise CliError("no admissible behavior; nothing to localize")
    ev = frozenset(args.ev) if args.ev else default_event_list(sup)
    pkg = DecentralizationPackage(plant, sup, ev)
    loc = timed_localize(pkg)
    print(f"localization {'fell back to the full supervisor' if loc.used_fallback else 'succeeded'}")
    for beta in sorted(loc.tick_controllers):
        ctrl = loc.tick_controllers[beta]
        print(f"tick controller {beta}: {ctrl.n_states} states, "
              f"alphabet {sorted(map(event_name, ctrl.alphabet))}")
    for alpha in sorted(loc.event_controllers):
        ctrl = loc.event_controllers[alpha]
        print(f"event controller {alpha}: {ctrl.n_states} states, "
              f"alphabet {sorted(map(event_name, ctrl.alphabet))}")
    # timed_localize returns only a localization whose closed loop is the
    # supervisor: the greedy one after verify_localization, or the fallback.
    print("defining identity verified: True")
    if args.output:
        specs = {f"LOCP_{b}": g for b, g in loc.tick_controllers.items()}
        specs.update({f"LOCC_{a}": g for a, g in loc.event_controllers.items()})
        specs["TDRS"] = loc.tdrs
        _write_text(args.output, render_model(ModelFile(model.events, {}, specs)))
        print(f"wrote {len(specs)} blocks to {args.output}")
    return EXIT_OK


def cmd_verify_commutativity(args) -> int:
    model = _load(args.model)
    sup = _supervisor_from_block(model, args.supervisor)
    problem = ReconfigProblem(sup, args.source, args.target, args.event)
    report = verify_projection_commutativity(problem, _MAX_NODES)
    for line in report.describe():
        print(line)
    return EXIT_OK


def cmd_verify_decentralized(args) -> int:
    model = _load(args.model)
    plant, sup = _synthesize(model, args)
    if sup.is_empty:
        raise CliError("no admissible behavior")
    ev = frozenset(args.ev) if args.ev else default_event_list(sup)
    pkg = DecentralizationPackage(plant, sup, ev)
    problem = ReconfigProblem(sup, args.source, args.target, args.event)
    loc = timed_localize(pkg)
    report = verify_solution_equivalence(pkg, loc, problem)
    for line in report.describe():
        print(line)
    print("-- tick-projection commutativity on the decentralized supervisor --")
    # The equivalence report has refused a closed loop that is not the
    # supervisor, so the centralized report is the decentralized one.
    commutativity = verify_projection_commutativity(problem)
    for line in commutativity.describe():
        print(line)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    model = _load(args.model)
    gen = _block(model, args.block)
    dot = to_dot(gen, name=args.block)
    if args.output:
        _write_text(args.output, dot + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot)
    return EXIT_OK


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--components", nargs="+", required=True,
                   metavar="ATG", help="component ATG block names")
    p.add_argument("--reconfig", required=True, metavar="ATG",
                   help="reconfiguration specification block")
    p.add_argument("--spec", required=True, metavar="SPEC",
                   help="behavioral specification block")
    p.add_argument("--reconfig-event", type=int, action="append",
                   metavar="E", help="declared reconfiguration event (repeatable)")
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="source", type=int, required=True, metavar="Q")
    p.add_argument("--to", dest="target", type=int, required=True, metavar="Q")
    p.add_argument("--event", type=int, required=True, metavar="E")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdesrec",
        description="Timed DES supervisor synthesis and reconfiguration solving")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="synchronous composition of ATG blocks")
    p.add_argument("model")
    p.add_argument("names", nargs="+", metavar="ATG")
    p.add_argument("--name", default="COMPOSED")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("timed-graph", help="timed transition graph of an ATG")
    p.add_argument("model")
    p.add_argument("atg")
    p.add_argument("--name", default="TTG")
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--dot", metavar="FILE",
                   help="also write a GraphViz rendering whose state labels "
                        "read activity|event:timer")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_timed_graph)

    p = sub.add_parser("supcon", help="supremal controllable supervisor")
    p.add_argument("model")
    p.add_argument("--plant", nargs="+", required=True, metavar="ATG",
                   help="plant ATG block(s); composed before timing")
    p.add_argument("--spec", required=True)
    p.add_argument("--name", default="SUP")
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_supcon)

    p = sub.add_parser("synth-tcrs", help="full reconfiguration supervisor pipeline")
    p.add_argument("model")
    _add_pipeline_args(p)
    p.add_argument("--name", default="TCRS")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_synth_tcrs)

    p = sub.add_parser("solve", help="timed forcible paths for a reconfiguration problem")
    p.add_argument("model")
    p.add_argument("--supervisor", required=True, metavar="SPEC",
                   help="supervisor block (spec block written by synth-tcrs/supcon)")
    _add_problem_args(p)
    p.add_argument("--optimal", choices=("ticks", "length"),
                   help="print the optimal path first")
    p.add_argument("--json", metavar="FILE", help="also write a structured report")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("project", help="natural projection of a block")
    p.add_argument("model")
    p.add_argument("--block", required=True)
    p.add_argument("--erase", nargs="+", default=["tick"], metavar="E")
    p.add_argument("--name", default="PROJECTED")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("localize", help="decentralize a synthesized supervisor")
    p.add_argument("model")
    _add_pipeline_args(p)
    p.add_argument("--ev", nargs="+", type=int, metavar="E",
                   help="events to localize on (default: prohibitible+forcible)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("verify-commutativity",
                       help="tick projection commutes with solving")
    p.add_argument("model")
    p.add_argument("--supervisor", required=True)
    _add_problem_args(p)
    p.set_defaults(func=cmd_verify_commutativity)

    p = sub.add_parser("verify-decentralized",
                       help="centralized and decentralized solutions coincide")
    p.add_argument("model")
    _add_pipeline_args(p)
    p.add_argument("--ev", nargs="+", type=int, metavar="E")
    _add_problem_args(p)
    p.set_defaults(func=cmd_verify_decentralized)

    p = sub.add_parser("export-dot", help="GraphViz rendering of a block")
    p.add_argument("model")
    p.add_argument("--block", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, RuntimeError) as exc:
        # RuntimeError covers RecursionError from the library on deep inputs.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        # A failed allocation usually carries no text of its own.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
