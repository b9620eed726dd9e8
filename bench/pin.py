"""Regenerate ``bench/pinned.json``, the fixed input lists of the benchmark.

    PYTHONPATH=src python3 bench/pin.py

The lists are taken from the family of ``family.py`` in key order:

* ``synthesize``: the first SYNTH_COUNT candidates whose timed graph has
  200 to 5000 states;
* ``project``: the first PROJECT_COUNT of those whose supervisor has 200 to
  2500 states and whose tick projection has at most PROJECT_MAX_OUT states
  (one family member projects 1275 states to 18 822 in about 9 s, longer
  than a whole run);
* ``solve``: the first SOLVE_COUNT supervisors of 200 to 1000 states, plus
  the bundled factory.  For each, the targets whose full backtracking tree
  has at most SAFE_TREE nodes (seeded problems use only these, so none can
  reach the solver's 150 000-node guard).  Problems that trip the guard are
  rare in this family: the scan goes on to the first supervisor that has a
  far problem whose tree exceeds the guard, adds it to the pool, and pins
  its first TRIP_COUNT such problems; they fail on every run.

State numbers are the program's BFS numbering; ``run.py`` refuses to start
when a pinned supervisor no longer has the recorded size.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tdesrec.automata import project_detail  # noqa: E402
from tdesrec.events import TICK  # noqa: E402
from tdesrec.solver import ReconfigProblem, trs  # noqa: E402
from tdesrec.synthesis import Supervisor, supcon  # noqa: E402
from tdesrec.timed import timed_graph  # noqa: E402

import family  # noqa: E402
from checks import backtrackable_edges, backward_reach, predecessors  # noqa: E402
from workloads import GUARD_NODES, factory_supervisor  # noqa: E402

SYNTH_COUNT = 30
PROJECT_COUNT = 16
PROJECT_MAX_SUP = 2500
PROJECT_MAX_OUT = 3000
SOLVE_COUNT = 8
SOLVE_MAX_SUP = 1000
SAFE_TREE = 2000
TRIP_COUNT = 2
SCAN_LIMIT = 2000


def tree_size(back: list[list[int]], target: int, cap: int) -> int:
    """Nodes of the backtracking tree rooted at ``target`` with no source, capped.

    ``back[q]`` holds one predecessor entry per guaranteed edge into ``q``,
    as the solver's tree has one node per (predecessor, event) pair.
    """
    nodes = 1
    stack = [(target, frozenset({target}))]
    while stack:
        state, on_branch = stack.pop()
        for pred in back[state]:
            if pred in on_branch:
                continue
            nodes += 1
            if nodes > cap:
                return nodes
            stack.append((pred, on_branch | {pred}))
    return nodes


def solve_entry(name, gen, events, trips: int) -> dict:
    steps = backtrackable_edges(gen, events)
    back = predecessors(steps)
    targets = sorted({q for (q, e) in gen.transitions if e != TICK})
    safe = [q for q in targets if tree_size(back, q, SAFE_TREE) <= SAFE_TREE]
    entry = {"supervisor": name, "states": gen.n_states,
             "transitions": len(gen.transitions), "safe_targets": safe, "trips": []}
    for q in targets:
        if len(entry["trips"]) >= trips:
            break
        if q in safe or tree_size(back, q, GUARD_NODES) <= GUARD_NODES:
            continue
        outside = sorted(set(range(gen.n_states)) - backward_reach(steps, [q]))
        if not outside:
            continue
        event = min(e for (s, e) in gen.transitions if s == q and e != TICK)
        problem = ReconfigProblem(Supervisor.from_generator(gen, events), outside[0], q, event)
        try:
            trs(problem, max_nodes=GUARD_NODES)
        except ValueError:
            entry["trips"].append([outside[0], q, event])
    return entry


def main() -> int:
    synth, project, solve = [], [], []
    tripping = False
    for key in range(SCAN_LIMIT):
        if (len(synth) >= SYNTH_COUNT and len(project) >= PROJECT_COUNT
                and len(solve) >= SOLVE_COUNT and tripping):
            break
        inst = family.candidate(key)
        try:
            ttg = timed_graph(inst.atg, inst.events, max_states=family.MAX_TTG_STATES)
        except ValueError:
            continue
        if ttg.n_states < family.MIN_TTG_STATES:
            continue
        if len(synth) < SYNTH_COUNT:
            synth.append(key)
        sup = supcon(ttg, inst.spec, inst.events)
        n = sup.n_states
        if len(project) < PROJECT_COUNT and 200 <= n <= PROJECT_MAX_SUP:
            out = project_detail(sup.automaton, {TICK}).generator.n_states
            if out <= PROJECT_MAX_OUT:
                project.append(key)
        if 200 <= n <= SOLVE_MAX_SUP and (len(solve) < SOLVE_COUNT or not tripping):
            entry = solve_entry(f"family-{key}", sup.automaton, inst.events,
                                0 if tripping else TRIP_COUNT)
            if len(solve) < SOLVE_COUNT or entry["trips"]:
                solve.append(dict(entry, key=key))
                tripping = tripping or bool(entry["trips"])
        print(f"key {key}: timed graph {ttg.n_states}, supervisor {n}", file=sys.stderr)
    sup = factory_supervisor()
    solve.append(dict(solve_entry("factory", sup.automaton, sup.events, 0), key=None))
    pinned = {"family_seed": family.FAMILY_SEED, "safe_tree": SAFE_TREE,
              "synthesize": synth, "project": project, "solve": solve}
    text = json.dumps(pinned, separators=(",", ":"))
    (HERE / "pinned.json").write_text(text + "\n")
    print(f"wrote {len(synth)} synthesize, {len(project)} project and "
          f"{len(solve)} solve entries", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
