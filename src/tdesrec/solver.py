"""Reconfiguration path solving by recursive backtracking forcibility.

Given a supervisor, a source state, and a target state at which a
reconfiguration event is defined, the solver backtracks from the target
through the timed eligibility set: a step into a state is backtrackable when
its event is forcible, or when every other event eligible at the predecessor
is prohibitible (so the supervisor can guarantee the step by disabling the
competition; an eligible tick with a different target rules the step out,
since tick is neither forcible nor prohibitible).

One depth-first search backtracks from the target and never lets a branch
repeat a state; a branch ends at the source.  The branches that end there,
reversed, are the solution paths: every simple path that starts at the
source, ends at the target and takes backtrackable steps only.  Their states
form the attraction field.  The branches make up the backtracking tree, whose
node count, dead branches included, is what ``trs``'s ``max_nodes`` guard
bounds.  The search never inspects timers, so it runs unchanged on tick-free
(projected) supervisors.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .automata import Generator, _bfs_parents, project_detail
from .events import TICK, event_name
from .synthesis import Supervisor

Path = tuple[int, ...]


@dataclass(frozen=True)
class ReconfigProblem:
    """A supervisor with current state, target state, and reconfiguration event."""

    supervisor: Supervisor
    source: int
    target: int
    reconfig_event: int

    def __post_init__(self) -> None:
        gen = self.supervisor.automaton
        for name, q in (("source", self.source), ("target", self.target)):
            if not (0 <= q < gen.n_states):
                raise ValueError(f"{name} state {q} is not a supervisor state")
        if gen.target(self.target, self.reconfig_event) is None:
            raise ValueError(
                f"reconfiguration event {event_name(self.reconfig_event)} "
                f"is not eligible at target state {self.target}")


@dataclass(frozen=True)
class ForciblePathSet:
    """Solution paths of one reconfiguration problem.

    ``paths`` is sorted by (length, events); each is a reversed branch of the
    backtracking search that ends at the source.  The attraction field is the
    set of states on those branches; every prefix of every path stays inside
    it.
    """

    source: int
    target: int
    reconfig_event: int
    paths: tuple[Path, ...]
    attraction_field: frozenset[int]
    solvable: bool

    def __iter__(self):
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    @staticmethod
    def tick_count(path: Path) -> int:
        return sum(1 for e in path if e == TICK)

    def to_json(self) -> str:
        payload = {
            "source": self.source,
            "target": self.target,
            "reconfig_event": self.reconfig_event,
            "solvable": self.solvable,
            "attraction_field": sorted(self.attraction_field),
            "paths": [
                {
                    "events": [event_name(e) for e in p],
                    "length": len(p),
                    "ticks": self.tick_count(p),
                }
                for p in self.paths
            ],
        }
        return json.dumps(payload, indent=2)


def _backtrackable_into(sup: Supervisor) -> Callable[[int], list[tuple[int, int]]]:
    """Sorted backtrackable (predecessor, event) pairs into an anchor state.

    A step from a predecessor into ``anchor`` is backtrackable when its event
    is forcible, or when every event eligible at the predecessor whose target
    differs from ``anchor`` is prohibitible.  The returned function computes
    each anchor's list once.
    """
    gen = sup.automaton
    incoming: dict[int, list[tuple[int, int]]] = {}
    for (pred, ev), dst in gen.transitions.items():
        incoming.setdefault(dst, []).append((pred, ev))
    cache: dict[int, list[tuple[int, int]]] = {}

    def backtrackable(pred: int, ev: int, anchor: int) -> bool:
        if sup.events.is_forcible(ev):
            return True
        # The rivals are looked up per alphabet event, so no adjacency list of
        # the whole supervisor is built for the few states a search visits.
        return all(sup.events.is_prohibitible(other) for other in gen.alphabet
                   if gen.transitions.get((pred, other), anchor) != anchor)

    def into(anchor: int) -> list[tuple[int, int]]:
        if anchor not in cache:
            cache[anchor] = sorted((p, e) for (p, e) in incoming.get(anchor, [])
                                   if backtrackable(p, e, anchor))
        return cache[anchor]

    return into


def trs(problem: ReconfigProblem, max_nodes: int | None = None) -> ForciblePathSet:
    """Timed reconfiguration solver: all simple forcible paths source-to-target.

    A backward search from the target runs first.  If it never meets the
    source, the problem is unsolvable and the empty, distinguished result is
    returned (no exception).  Otherwise one depth-first search backtracks from
    the target through the backtrackable steps: a branch ends at the source,
    or when no step is left onto a state absent from the branch, so no branch
    ever repeats a state.  Each branch that ends at the source, reversed, is a
    solution path, and its states join the attraction field.

    The branches form the backtracking tree, which can grow exponentially on
    dense supervisors.  ``max_nodes`` bounds its node count, the root
    included, with branches that never reach the source counted too; the
    count does not depend on the order of expansion.  It is checked only when
    a node beyond the root is added, and exceeding it raises ``ValueError``.
    """
    q_s, q_t = problem.source, problem.target
    if q_s == q_t:
        return ForciblePathSet(q_s, q_t, problem.reconfig_event, ((),),
                               frozenset({q_t}), True)
    backtrackable = _backtrackable_into(problem.supervisor)
    reached = {q_t}
    frontier = deque(reached)
    while frontier and q_s not in reached:
        for pred, _ in backtrackable(frontier.popleft()):
            if pred not in reached:
                reached.add(pred)
                frontier.append(pred)
    if q_s not in reached:
        return ForciblePathSet(q_s, q_t, problem.reconfig_event, (), frozenset(), False)

    paths: list[Path] = []
    field = {q_s}
    nodes = 1
    # The branch from the root down and the events between its states.
    branch, events = [q_t], []
    on_branch = {q_t}
    stack = [iter(backtrackable(q_t))]
    while stack:
        for pred, ev in stack[-1]:
            if pred in on_branch:
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                raise ValueError(f"backtracking tree exceeds {max_nodes} nodes")
            if pred == q_s:
                paths.append((ev, *reversed(events)))
                field.update(branch)
                continue
            branch.append(pred)
            events.append(ev)
            on_branch.add(pred)
            stack.append(iter(backtrackable(pred)))
            break
        else:
            stack.pop()
            on_branch.discard(branch.pop())
            if events:
                events.pop()
    paths.sort(key=lambda p: (len(p), p))
    return ForciblePathSet(q_s, q_t, problem.reconfig_event, tuple(paths),
                           frozenset(field), True)


def select_optimal(paths: ForciblePathSet, criterion: str) -> Path:
    """Best path under ``min_ticks`` or ``min_length``.

    Ties fall back to the other measure and then to lexicographic event
    order, so the choice is total and deterministic.
    """
    if not paths.paths:
        raise ValueError("no solution")
    if criterion == "min_ticks":
        key = lambda p: (ForciblePathSet.tick_count(p), len(p), p)
    elif criterion == "min_length":
        key = lambda p: (len(p), ForciblePathSet.tick_count(p), p)
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return min(paths.paths, key=key)


def erase_ticks(path: Path) -> Path:
    return tuple(e for e in path if e != TICK)


def state_witness(gen: Generator, state: int) -> Path:
    """A shortest string from the initial state to ``state`` (BFS order)."""
    return _witnesses(gen, [state])[0]


def _witnesses(gen: Generator, states: Sequence[int]) -> list[Path]:
    """The ``state_witness`` of each of ``states``, read off one BFS tree."""
    if gen.is_empty:
        raise ValueError("empty generator has no states")
    parents = _bfs_parents(gen.out_edges(), gen.initial)
    out = []
    for state in states:
        if state not in parents:
            raise ValueError(f"state {state} unreachable")
        rev = []
        step = parents[state]
        while step is not None:
            q, e = step
            rev.append(e)
            step = parents[q]
        out.append(tuple(reversed(rev)))
    return out


@dataclass(frozen=True)
class CommutativityReport:
    """Evidence for tick-projection commutativity of the solver.

    ``timed_projected`` holds the tick-erased images of the timed solutions;
    ``projected`` the solutions computed on the tick-projected supervisor.
    The timing fields record the wall time of each solver run, supporting the
    efficiency comparison between the two orders of composition.
    """

    timed_projected: frozenset[Path]
    projected: frozenset[Path]
    equal: bool
    projected_source: int
    projected_target: int
    seconds_trs_timed: float
    seconds_trs_projected: float
    seconds_projection: float

    def describe(self) -> list[str]:
        lines = [
            f"project-after-solve: {len(self.timed_projected)} tick-free path(s)",
            f"solve-after-project: {len(self.projected)} path(s)",
            f"sets equal: {'yes' if self.equal else 'no'}",
            f"wall time solve-then-project: {self.seconds_trs_timed:.6f} s",
            f"wall time project-then-solve: {self.seconds_trs_projected:.6f} s",
            f"wall time of the projection itself: {self.seconds_projection:.6f} s",
        ]
        return lines


def verify_projection_commutativity(problem: ReconfigProblem,
                                    max_nodes: int | None = None) -> CommutativityReport:
    """Compare solving before and after erasing ticks from the supervisor.

    The source and target are transported to the projected supervisor along
    the projection of their shortest witness strings; the two resulting path
    sets are compared as sets of tick-free strings.
    """
    sup = problem.supervisor
    gen = sup.automaton

    t0 = time.perf_counter()
    timed = trs(problem, max_nodes)
    t_timed = time.perf_counter() - t0
    if not timed.solvable:
        raise ValueError("problem is unsolvable on the timed side")

    t0 = time.perf_counter()
    if any(e == TICK for (_, e) in gen.transitions):
        pgen = project_detail(gen, {TICK}).generator
    else:
        # Nothing to erase: the supervisor is its own projection, so both
        # orders run on identical structure.
        pgen = gen
    t_project = time.perf_counter() - t0

    def image(q: int, witness: Path) -> int:
        img = pgen.run(erase_ticks(witness))
        if img is None:
            raise ValueError(f"state lost under projection: {q}")
        return img

    source_witness, target_witness = _witnesses(gen, [problem.source, problem.target])
    p_source = image(problem.source, source_witness)
    p_target = image(problem.target, target_witness)
    projected_problem = ReconfigProblem(
        Supervisor.from_generator(pgen, sup.events),
        p_source, p_target, problem.reconfig_event)

    t0 = time.perf_counter()
    projected = trs(projected_problem, max_nodes)
    t_projected = time.perf_counter() - t0

    left = frozenset(erase_ticks(p) for p in timed.paths)
    right = frozenset(projected.paths)
    return CommutativityReport(left, right, left == right, p_source, p_target,
                               t_timed, t_projected, t_project)
