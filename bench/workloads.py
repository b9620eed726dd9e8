"""The four workloads: how each builds its input list, runs and checks one operation.

A workload's ``setup(seed)`` returns the fixed, ordered input list of one
round.  ``run(input)`` is the timed operation.  ``check(input, output)``
returns the problems found by the checks of ``checks.py``, and
``fingerprint(output)`` is compared across rounds, so a repeated operation
must give the output that was checked the first time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

from tdesrec.automata import project_detail
from tdesrec.cli import main as cli_main
from tdesrec.events import TICK
from tdesrec.fixtures import (SMALL_FACTORY_EXPECTED_PATH, SMALL_FACTORY_RECONFIG_EVENT,
                              small_factory, small_factory_text)
from tdesrec.solver import ReconfigProblem, select_optimal, trs
from tdesrec.synthesis import Supervisor, mode_timed_graph, supcon, synthesize_tcrs
from tdesrec.timed import timed_graph

import family
from checks import (backtrackable_edges, backward_reach, check_paths, check_projection,
                    check_supervisor, predecessors, tick_subsets)

GUARD_NODES = 150_000
PINNED = Path(__file__).resolve().parent / "pinned.json"


def load_pinned() -> dict:
    return json.loads(PINNED.read_text())


def factory_supervisor() -> Supervisor:
    m = small_factory()
    return synthesize_tcrs([m.atgs["M1"], m.atgs["M2"]], m.atgs["R"], m.specs["SPEC"],
                           m.events, reconfig_events=[SMALL_FACTORY_RECONFIG_EVENT])


def build_supervisor(inst: family.Instance) -> Supervisor:
    ttg = timed_graph(inst.atg, inst.events, max_states=family.MAX_TTG_STATES)
    return supcon(ttg, inst.spec, inst.events)


# ---------------------------------------------------------------------------
# factory-session


PIPELINE = ["--components", "M1", "M2", "--reconfig", "R", "--spec", "SPEC",
            "--reconfig-event", "91"]
PROBLEM = ["--from", "83", "--to", "516", "--event", "91"]
SESSION = [
    ("synth-tcrs", ["synth-tcrs", "{d}/factory.tdes", *PIPELINE, "--name", "TSUP",
                    "-o", "{d}/tsup.tdes"]),
    ("solve-length", ["solve", "{d}/tsup.tdes", "--supervisor", "TSUP", *PROBLEM,
                      "--optimal", "length", "--json", "{d}/paths.json"]),
    ("solve-ticks", ["solve", "{d}/tsup.tdes", "--supervisor", "TSUP", *PROBLEM,
                     "--optimal", "ticks"]),
    ("verify-commutativity", ["verify-commutativity", "{d}/tsup.tdes",
                              "--supervisor", "TSUP", *PROBLEM]),
    ("project", ["project", "{d}/tsup.tdes", "--block", "TSUP", "--name", "PTSUP",
                 "-o", "{d}/ptsup.tdes"]),
    ("localize", ["localize", "{d}/factory.tdes", *PIPELINE, "-o", "{d}/controllers.tdes"]),
    ("verify-decentralized", ["verify-decentralized", "{d}/factory.tdes", *PIPELINE, *PROBLEM]),
    ("compose", ["compose", "{d}/factory.tdes", "M1", "M2", "R", "--name", "RMACH",
                 "-o", "{d}/rmach.tdes"]),
    ("timed-graph", ["timed-graph", "{d}/factory.tdes", "M1", "--name", "TM1",
                     "--dot", "{d}/tm1.dot", "-o", "{d}/tm1.tdes"]),
    ("export-dot", ["export-dot", "{d}/factory.tdes", "--block", "M1", "-o", "{d}/m1.dot"]),
]
SESSION_FILES = ("tsup.tdes", "paths.json", "ptsup.tdes", "controllers.tdes",
                 "rmach.tdes", "tm1.dot", "tm1.tdes", "m1.dot")
COMMUTATIVITY_LINES = ("project-after-solve: ", "solve-after-project: ", "sets equal: ",
                       "wall time solve-then-project: ", "wall time project-then-solve: ",
                       "wall time of the projection itself: ")
WALL_TIME = re.compile(r"(wall time [^:]*: )[0-9.]+ s")


@dataclass
class Session:
    """Exit code and standard output per command, and the files left behind."""

    codes: dict
    stdout: dict
    files: dict


class _Events:
    """Control attributes read from a model file's events block."""

    def __init__(self, rows):
        self.forcible = {label for label, _, forcible in rows if forcible}
        self.prohibitible = {label for label, control, _ in rows if control == "prohibitible"}

    def is_forcible(self, label):
        return label in self.forcible

    def is_prohibitible(self, label):
        return label in self.prohibitible


@dataclass
class _Block:
    n_states: int
    initial: int
    marked: frozenset
    alphabet: frozenset
    transitions: dict


def read_model(text: str) -> tuple[_Events, dict]:
    """A small reader of the model-file format, kept apart from ``tdesrec.modelfile``."""
    rows, blocks, current = [], {}, None
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        head = fields[0]
        if head == "events":
            current = None
        elif head in ("atg", "spec"):
            current = blocks[fields[1]] = {"states": 0, "initial": 0, "marked": set(),
                                           "alphabet": set(), "trans": {}}
        elif current is None:
            rows.append((int(head), fields[1], fields[2] == "forcible"))
        elif head == "states":
            current["states"] = int(fields[1])
        elif head == "initial":
            current["initial"] = int(fields[1])
        elif head == "marked":
            current["marked"] = {int(q) for q in fields[1:]}
        elif head == "alphabet":
            current["alphabet"] = {TICK if e == "tick" else int(e) for e in fields[1:]}
        elif head == "trans":
            ev = TICK if fields[2] == "tick" else int(fields[2])
            current["trans"][(int(fields[1]), ev)] = int(fields[3])
    gens = {name: _Block(b["states"], b["initial"], frozenset(b["marked"]),
                         frozenset(b["alphabet"] | {e for (_, e) in b["trans"]}), b["trans"])
            for name, b in blocks.items()}
    return _Events(rows), gens


def check_session(session: Session, plant) -> list[str]:
    """The factory session's outputs, checked against the scenario and ``checks.py``."""
    errors = [f"{cmd} exited with {code}" for cmd, code in session.codes.items() if code != 0]
    if errors:
        return errors
    out = session.stdout
    route = ",".join("tick" if e == TICK else str(e) for e in SMALL_FACTORY_EXPECTED_PATH)
    length_lines = out["solve-length"].splitlines()
    if not length_lines or length_lines[0] != route:
        errors.append(f"length-optimal path is {length_lines[:1]}, not the documented {route}")
    if "defining identity verified: True" not in out["localize"].splitlines():
        errors.append("localize does not report that the defining identity holds")
    if "solution sets identical: yes" not in out["verify-decentralized"].splitlines():
        errors.append("verify-decentralized does not report identical solution sets")
    report = out["verify-commutativity"].splitlines()
    if (len(report) != len(COMMUTATIVITY_LINES)
            or not all(line.startswith(p) for line, p in zip(report, COMMUTATIVITY_LINES))
            or report[2] not in ("sets equal: yes", "sets equal: no")):
        errors.append("verify-commutativity report is malformed")
    missing = [name for name in SESSION_FILES if not session.files.get(name)]
    if missing:
        return errors + [f"files not written: {missing}"]
    events, blocks = read_model(session.files["tsup.tdes"])
    sup = blocks["TSUP"]
    errors += check_supervisor(sup, plant, events)
    proj = read_model(session.files["ptsup.tdes"])[1]["PTSUP"]
    errors += check_projection(sup, proj, tick_subsets(sup, proj))
    if "TDRS" not in read_model(session.files["controllers.tdes"])[1]:
        errors.append("controllers file has no TDRS block")
    report = json.loads(session.files["paths.json"])
    paths = [_path(p["events"]) for p in report["paths"]]
    printed = [_path(line.split(",")) for line in length_lines]
    ticks_lines = out["solve-ticks"].splitlines()
    best_ticks = _path(ticks_lines[0].split(",")) if ticks_lines else None
    errors += check_paths(sup, events, 83, 516, 91, paths,
                          best_length=printed[0] if printed else None, best_ticks=best_ticks)
    if sorted(paths) != sorted(printed):
        errors.append("solve output and its JSON report list different paths")
    return errors


def _path(names) -> tuple[int, ...]:
    return tuple(TICK if e == "tick" else int(e) for e in names)


class FactorySession:
    """The README's CLI session on the bundled factory, one session per operation."""

    name = "factory-session"

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._plant = None

    def setup(self, seed: int, smoke: bool) -> list:
        return [small_factory_text()]

    def run(self, text: str) -> Session:
        codes, stdout, files = {}, {}, {}
        with tempfile.TemporaryDirectory(dir=self.workdir) as d:
            Path(d, "factory.tdes").write_text(text)
            for label, argv in SESSION:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    codes[label] = cli_main([a.format(d=d) for a in argv])
                stdout[label] = buf.getvalue().replace(d, "{d}")
            for name in SESSION_FILES:
                path = Path(d, name)
                files[name] = path.read_text() if path.exists() else ""
        return Session(codes, stdout, files)

    def check(self, text: str, session: Session) -> list[str]:
        if self._plant is None:
            m = small_factory()
            self._plant = mode_timed_graph([m.atgs["M1"], m.atgs["M2"]], m.atgs["R"],
                                           m.events).generator
        return check_session(session, self._plant)

    def fingerprint(self, session: Session):
        stdout = {k: WALL_TIME.sub(r"\1", v) for k, v in session.stdout.items()}
        return session.codes, stdout, session.files

    def expected_failure(self, inp) -> bool:
        return False


# ---------------------------------------------------------------------------
# synthesize and project


class Synthesize:
    """``timed_graph`` then ``supcon`` on each pinned family instance."""

    name = "synthesize"

    def setup(self, seed: int, smoke: bool) -> list:
        keys = load_pinned()["synthesize"]
        keys = keys[:3] if smoke else keys
        return [family.relabel(family.candidate(k), seed) for k in keys]

    def run(self, inst: family.Instance):
        ttg = timed_graph(inst.atg, inst.events, max_states=family.MAX_TTG_STATES)
        return ttg, supcon(ttg, inst.spec, inst.events)

    def check(self, inst, out) -> list[str]:
        ttg, sup = out
        errors = check_supervisor(sup.automaton, ttg.generator, inst.events, sup.plant_states)
        if ttg.n_states < family.MIN_TTG_STATES:
            errors.append(f"timed graph of instance {inst.key} has {ttg.n_states} states")
        return errors

    def fingerprint(self, out):
        ttg, sup = out
        return ttg.generator, sup.automaton, sup.plant_states

    def expected_failure(self, inp) -> bool:
        return False


class Project:
    """``project_detail(sup, {tick})`` on each pinned family supervisor."""

    name = "project"

    def setup(self, seed: int, smoke: bool) -> list:
        keys = load_pinned()["project"]
        keys = keys[:3] if smoke else keys
        return [build_supervisor(family.relabel(family.candidate(k), seed)).automaton
                for k in keys]

    def run(self, gen):
        return project_detail(gen, {TICK})

    def check(self, gen, out) -> list[str]:
        return check_projection(gen, out.generator, [set(s) for s in out.subsets])

    def fingerprint(self, out):
        return out.generator, out.subsets

    def expected_failure(self, inp) -> bool:
        return False


# ---------------------------------------------------------------------------
# solve

NEAR_PER_SUPERVISOR = 150
FAR_PER_SUPERVISOR = 50
FORWARD_CAP = 20_000


@dataclass(frozen=True)
class SolveInput:
    kind: str  # "near", "far" or "trip"
    problem: ReconfigProblem
    steps: list


def forward_prefixes(steps, source: int, target: int, region: set, cap: int) -> int:
    """Simple guaranteed paths from ``source`` inside ``region`` (capped count)."""
    count = 0
    stack = [(source, frozenset({source}))]
    while stack:
        q, seen = stack.pop()
        count += 1
        if count > cap:
            break
        if q == target:
            continue
        for dst in steps[q].values():
            if dst in region and dst not in seen:
                stack.append((dst, seen | {dst}))
    return count


class Solve:
    """``trs`` plus both optimal selections on near, far and pinned guard-tripping problems."""

    name = "solve"

    def setup(self, seed: int, smoke: bool) -> list:
        rng = random.Random(seed)
        entries = load_pinned()["solve"]
        near, far = NEAR_PER_SUPERVISOR, FAR_PER_SUPERVISOR
        if smoke:
            entries, near, far = [e for e in entries if e["key"] is None or e["trips"]], 2, 2
        inputs = []
        for entry in entries:
            if entry["key"] is None:
                sup = factory_supervisor()
            else:
                sup = build_supervisor(family.candidate(entry["key"]))
            gen = sup.automaton
            if (gen.n_states, len(gen.transitions)) != (entry["states"], entry["transitions"]):
                raise SystemExit(f"pinned supervisor {entry['supervisor']} changed size; "
                                 "regenerate bench/pinned.json with bench/pin.py")
            steps = backtrackable_edges(gen, sup.events)
            if entry["safe_targets"]:
                inputs += self._problems(rng, sup, steps, entry["safe_targets"], near, far)
            for source, target, event in entry["trips"]:
                inputs.append(SolveInput("trip", ReconfigProblem(sup, source, target, event), steps))
        return inputs

    @staticmethod
    def _problems(rng, sup, steps, targets, near: int, far: int) -> list:
        gen = sup.automaton
        back = predecessors(steps)
        regions: dict[int, set] = {}
        draws = iter(range(100 * (near + far)))

        def anchor():
            if next(draws, None) is None:
                raise SystemExit(f"cannot draw {near} near and {far} far problems")
            q_r = rng.choice(targets)
            event = rng.choice(sorted(e for (q, e) in gen.transitions if q == q_r and e != TICK))
            if q_r not in regions:
                regions[q_r] = backward_reach(steps, [q_r])
            return q_r, event, regions[q_r]

        out = []
        while len(out) < near:
            q_r, event, region = anchor()
            q_s = q_r
            for _ in range(rng.randint(3, 8)):
                preds = sorted(set(back[q_s]))
                if not preds:
                    break
                q_s = rng.choice(preds)
            if q_s == q_r or forward_prefixes(steps, q_s, q_r, region, FORWARD_CAP) > FORWARD_CAP:
                continue
            out.append(SolveInput("near", ReconfigProblem(sup, q_s, q_r, event), steps))
        while len(out) < near + far:
            q_r, event, region = anchor()
            outside = [q for q in range(gen.n_states) if q not in region]
            if outside:
                out.append(SolveInput("far", ReconfigProblem(sup, rng.choice(outside), q_r, event),
                                      steps))
        return out

    def run(self, inp: SolveInput):
        result = trs(inp.problem, max_nodes=GUARD_NODES)
        if not result.solvable:
            return result, None, None
        return result, select_optimal(result, "min_length"), select_optimal(result, "min_ticks")

    def check(self, inp: SolveInput, out) -> list[str]:
        result, best_length, best_ticks = out
        p = inp.problem
        errors = check_paths(p.supervisor.automaton, p.supervisor.events, p.source, p.target,
                             p.reconfig_event, result.paths, best_length, best_ticks, inp.steps)
        if result.solvable != bool(result.paths):
            errors.append("solvable flag disagrees with the returned paths")
        if inp.kind == "near" and not result.solvable:
            errors.append("near problem answered unsolvable")
        if inp.kind in ("far", "trip") and result.solvable:
            errors.append("far problem answered solvable")
        return errors

    def fingerprint(self, out):
        result, best_length, best_ticks = out
        return result.paths, result.solvable, best_length, best_ticks

    def expected_failure(self, inp: SolveInput) -> bool:
        return inp.kind == "trip"


def make(name: str, workdir: Path):
    if name == FactorySession.name:
        return FactorySession(workdir)
    return {w.name: w for w in (Synthesize, Project, Solve)}[name]()


WORKLOADS = (FactorySession.name, Synthesize.name, Project.name, Solve.name)
