"""The benchmark's checkers accept the program's answers and reject tampered ones.

    PYTHONPATH=src python3 -m pytest bench/test_bench_checks.py -q
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tdesrec.automata import Generator, project_detail  # noqa: E402
from tdesrec.events import PROHIBITIBLE, TICK, UNCONTROLLABLE, EventDef, EventTable  # noqa: E402
from tdesrec.fixtures import small_factory, small_factory_text  # noqa: E402
from tdesrec.solver import ReconfigProblem, trs  # noqa: E402
from tdesrec.synthesis import Supervisor, mode_timed_graph  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


@lru_cache(maxsize=None)
def factory():
    m = small_factory()
    plant = mode_timed_graph([m.atgs["M1"], m.atgs["M2"]], m.atgs["R"], m.events)
    return workloads.factory_supervisor(), plant.generator


def _choice(control: str):
    """0 -2-> 2 is the route; event 1 competes for state 0 with the given control."""
    events = EventTable([EventDef(1, control), EventDef(2, PROHIBITIBLE),
                         EventDef(3, PROHIBITIBLE, forcible=True)])
    gen = Generator(3, frozenset({1, 2, 3}), {(0, 1): 1, (0, 2): 2, (2, 3): 2}, 0,
                    frozenset({2}))
    return gen, events


def test_paths_accepts_solver_answer():
    gen, events = _choice(PROHIBITIBLE)
    result = trs(ReconfigProblem(Supervisor.from_generator(gen, events), 0, 2, 3))
    assert result.paths == ((2,),)
    assert checks.check_paths(gen, events, 0, 2, 3, result.paths, (2,), (2,)) == []


def test_paths_rejects_non_backtrackable_step():
    # With an uncontrollable competitor the step 0 -2-> 2 cannot be guaranteed.
    gen, events = _choice(UNCONTROLLABLE)
    assert not trs(ReconfigProblem(Supervisor.from_generator(gen, events), 0, 2, 3)).solvable
    assert checks.check_paths(gen, events, 0, 2, 3, []) == []
    assert checks.check_paths(gen, events, 0, 2, 3, [(2,)]) != []


def test_paths_rejects_a_longer_optimum():
    # Two forcible routes from 0 to the target 2: (1,) and (2, 1).
    events = EventTable([EventDef(1, PROHIBITIBLE, forcible=True),
                         EventDef(2, PROHIBITIBLE, forcible=True),
                         EventDef(3, PROHIBITIBLE, forcible=True)])
    gen = Generator(3, frozenset({1, 2, 3}), {(0, 1): 2, (0, 2): 1, (1, 1): 2, (2, 3): 2}, 0,
                    frozenset({2}))
    paths = trs(ReconfigProblem(Supervisor.from_generator(gen, events), 0, 2, 3)).paths
    assert paths == ((1,), (2, 1))
    assert checks.check_paths(gen, events, 0, 2, 3, paths, (1,), (1,)) == []
    assert checks.check_paths(gen, events, 0, 2, 3, paths, best_length=(2, 1)) != []
    assert checks.check_paths(gen, events, 0, 2, 3, paths[1:]) != []


def test_supervisor_rejects_withheld_uncontrollable_event():
    sup, plant = factory()
    gen = sup.automaton
    assert checks.check_supervisor(gen, plant, sup.events, sup.plant_states) == []
    x, e = next((x, e) for (x, e) in sorted(gen.transitions)
                if e != TICK and sup.events.is_uncontrollable(e))
    transitions = dict(gen.transitions)
    del transitions[(x, e)]
    tampered = replace(gen, transitions=transitions)
    errors = checks.check_supervisor(tampered, plant, sup.events)
    assert any(f"uncontrollable event {e} withheld" in err for err in errors)


def test_projection_rejects_flipped_marking():
    sup, _ = factory()
    gen = sup.automaton
    detail = project_detail(gen, {TICK})
    subsets = [set(s) for s in detail.subsets]
    assert checks.check_projection(gen, detail.generator, subsets) == []
    assert checks.tick_subsets(gen, detail.generator) == subsets
    flipped = replace(detail.generator, marked=detail.generator.marked ^ {1})
    assert any("marking" in err for err in checks.check_projection(gen, flipped, subsets))


def test_moore_blocks_counts_equivalent_states():
    loop = Generator(2, frozenset({1}), {(0, 1): 1, (1, 1): 0}, 0, frozenset({0, 1}))
    assert checks.moore_blocks(loop) == 1
    assert checks.moore_blocks(replace(loop, marked=frozenset({0}))) == 2


def test_session_rejects_wrong_path():
    _, plant = factory()
    with tempfile.TemporaryDirectory() as d:
        session = workloads.FactorySession(Path(d)).run(small_factory_text())
    assert workloads.check_session(session, plant) == []
    lines = session.stdout["solve-length"].splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    stdout = dict(session.stdout, **{"solve-length": "\n".join(lines) + "\n"})
    errors = workloads.check_session(replace(session, stdout=stdout), plant)
    assert any("documented" in err for err in errors)
