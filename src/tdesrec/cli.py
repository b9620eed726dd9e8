"""Batch command-line front end.

Every subcommand reads a model file, runs one pipeline step, and writes
deterministic output: exit code 0 on success, 2 when a reconfiguration
problem is unsolvable, 1 on any error, a usage error included.  Synthesized
supervisors and other timed generators are written back as spec blocks, so
later commands can pick them up from the produced file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, NoReturn

from .automata import Generator, is_nonblocking, project, sync_product, to_dot
from .events import TICK, event_name
from .localization import (
    DecentralizationPackage,
    default_event_list,
    timed_localize,
    verify_solution_equivalence,
)
from .modelfile import (ModelError, ModelFile, _check_block_name, _read_event_token,
                        parse_model, render_model)
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

# Backtracking-tree nodes ``solve``, ``verify-commutativity`` and
# ``verify-decentralized`` search before they stop with an error; the
# acceptance criteria solve under the same budget.
_MAX_NODES = 200_000


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's parser, exiting ``EXIT_ERROR`` on a usage error: 2 means unsolvable."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _event_type(allow_tick: bool) -> Callable[[str], int]:
    """An argparse type reading an event as a model file's block does: a
    positive label, or ``tick`` where ``allow_tick``."""
    expected = "an event label or 'tick'" if allow_tick else "an event label"

    def event(token: str) -> int:
        try:
            return _read_event_token(token, allow_tick)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {expected}: {token!r}") from None

    return event


def _block_name(name: str) -> str:
    """A ``--name`` the written model file reads back."""
    try:
        _check_block_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return name


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


def _model_text(model: ModelFile, kind: str, name: str, gen: Generator) -> str:
    """A model file with ``model``'s events and ``gen`` as its one block."""
    return render_model(ModelFile(model.events,
                                  {name: gen} if kind == "atg" else {},
                                  {name: gen} if kind == "spec" else {}))


def _report_output(out: str | None, kind: str, name: str, gen: Generator,
                   text: str) -> None:
    """Say that ``text`` was written to ``out``, or print it when there is none."""
    if out:
        print(f"wrote {kind} {name!r} ({gen.n_states} states, "
              f"{len(gen.transitions)} transitions) to {out}")
    else:
        sys.stdout.write(text)


def _write_output(model: ModelFile, out: str | None, kind: str, name: str,
                  gen: Generator) -> None:
    text = _model_text(model, kind, name, gen)
    if out:
        _write_text(out, text)
    _report_output(out, kind, name, gen, text)


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


def cmd_compose(model: ModelFile, args) -> int:
    parts = [_atg(model, n) for n in args.names]
    result = sync_product(parts)
    _write_output(model, args.output, "atg", args.name, result)
    return EXIT_OK


def cmd_timed_graph(model: ModelFile, args) -> int:
    atg = _atg(model, args.atg)
    ttg = timed_graph(atg, model.events, max_states=args.max_states)
    gen = ttg.generator
    text = _model_text(model, "spec", args.name, gen)
    if args.dot:
        # Each state reads activity|event:timer, timers in label order.
        events = sorted(gen.alphabet - {TICK})
        labels = {q: f"{activity}|" + ",".join(f"{e}:{t}" for e, t in zip(events, timers))
                  for q, (activity, timers) in enumerate(ttg.packed)}
        dot = to_dot(gen, args.name, labels) + "\n"
    # Both texts are rendered before either file is written, and the model
    # file is removed again if the DOT file cannot be written: a command that
    # fails leaves neither file.
    if args.output:
        _write_text(args.output, text)
    if args.dot:
        try:
            _write_text(args.dot, dot)
        except CliError:
            if args.output:
                Path(args.output).unlink()
            raise
        print(f"wrote timer-annotated graph to {args.dot}")
    _report_output(args.output, "spec", args.name, gen, text)
    return EXIT_OK


def cmd_supcon(model: ModelFile, args) -> int:
    atg = sync_product([_atg(model, n) for n in args.plant])
    plant = timed_graph(atg, model.events, max_states=args.max_states)
    spec = _spec(model, args.spec)
    sup = supcon(plant, spec, model.events)
    print(f"supervisor: {sup.n_states} states, "
          f"{len(sup.automaton.transitions)} transitions, "
          f"nonblocking={is_nonblocking(sup.automaton)}")
    _write_output(model, args.output, "spec", args.name, sup.automaton)
    return EXIT_OK


def cmd_synth_tcrs(model: ModelFile, args) -> int:
    _, sup = _synthesize(model, args)
    if sup.is_empty:
        print("warning: no admissible behavior", file=sys.stderr)
    print(f"TCRS: {sup.n_states} states, {len(sup.automaton.transitions)} transitions")
    _write_output(model, args.output, "spec", args.name, sup.automaton)
    return EXIT_OK


def cmd_solve(model: ModelFile, args) -> int:
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


def cmd_project(model: ModelFile, args) -> int:
    gen = _block(model, args.block)
    result = project(gen, frozenset(args.erase) & gen.alphabet)
    _write_output(model, args.output, "spec", args.name, result)
    return EXIT_OK


def cmd_localize(model: ModelFile, args) -> int:
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


def cmd_verify_commutativity(model: ModelFile, args) -> int:
    sup = _supervisor_from_block(model, args.supervisor)
    problem = ReconfigProblem(sup, args.source, args.target, args.event)
    report = verify_projection_commutativity(problem, _MAX_NODES)
    for line in report.describe():
        print(line)
    return EXIT_OK


def cmd_verify_decentralized(model: ModelFile, args) -> int:
    plant, sup = _synthesize(model, args)
    if sup.is_empty:
        raise CliError("no admissible behavior")
    ev = frozenset(args.ev) if args.ev else default_event_list(sup)
    pkg = DecentralizationPackage(plant, sup, ev)
    problem = ReconfigProblem(sup, args.source, args.target, args.event)
    loc = timed_localize(pkg)
    report = verify_solution_equivalence(pkg, loc, problem, _MAX_NODES)
    for line in report.describe():
        print(line)
    print("-- tick-projection commutativity on the decentralized supervisor --")
    # The equivalence report has refused a closed loop that is not the
    # supervisor, so the centralized report is the decentralized one.
    commutativity = verify_projection_commutativity(problem, _MAX_NODES)
    for line in commutativity.describe():
        print(line)
    return EXIT_OK


def cmd_export_dot(model: ModelFile, args) -> int:
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
    p.add_argument("--reconfig-event", type=_event_type(False), action="append",
                   metavar="E", help="declared reconfiguration event (repeatable)")
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="source", type=int, required=True, metavar="Q")
    p.add_argument("--to", dest="target", type=int, required=True, metavar="Q")
    p.add_argument("--event", type=_event_type(False), required=True, metavar="E")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tdesrec",
        description="Timed DES supervisor synthesis and reconfiguration solving")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="synchronous composition of ATG blocks")
    p.add_argument("model")
    p.add_argument("names", nargs="+", metavar="ATG")
    p.add_argument("--name", type=_block_name, default="COMPOSED")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("timed-graph", help="timed transition graph of an ATG")
    p.add_argument("model")
    p.add_argument("atg")
    p.add_argument("--name", type=_block_name, default="TTG")
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
    p.add_argument("--name", type=_block_name, default="SUP")
    p.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_supcon)

    p = sub.add_parser("synth-tcrs", help="full reconfiguration supervisor pipeline")
    p.add_argument("model")
    _add_pipeline_args(p)
    p.add_argument("--name", type=_block_name, default="TCRS")
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
    p.add_argument("--erase", nargs="+", type=_event_type(True), default=[TICK], metavar="E")
    p.add_argument("--name", type=_block_name, default="PROJECTED")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("localize", help="decentralize a synthesized supervisor")
    p.add_argument("model")
    _add_pipeline_args(p)
    p.add_argument("--ev", nargs="+", type=_event_type(False), metavar="E",
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
    p.add_argument("--ev", nargs="+", type=_event_type(False), metavar="E")
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
        return args.func(_load(args.model), args)
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
