"""Reconfiguration path solving by recursive backtracking forcibility.

Given a supervisor, a source state, and a target state at which a
reconfiguration event is defined, the solver backtracks from the target
through the timed eligibility set: a step into a state is backtrackable when
its event is forcible, or when every other event eligible at the predecessor
is prohibitible (so the supervisor can guarantee the step by disabling the
competition; an eligible tick with a different target rules the step out,
since tick is neither forcible nor prohibitible).

Backtracking builds a tree rooted at the target; pruning branches that never
reach the source leaves the proper tree, whose states form the attraction
field.  Its reversed branches are the solution paths: every simple path that
starts at the source, ends at the target and takes backtrackable steps only.
The machinery never inspects timers, so it runs unchanged on tick-free
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
class EligibilitySet:
    """Backtrackable (predecessor, event) pairs anchored at one state."""

    anchor: int
    entries: frozenset[tuple[int, int]]

    @property
    def predecessors(self) -> frozenset[int]:
        """The selector image: first components of all entries."""
        return frozenset(q for q, _ in self.entries)


@dataclass(frozen=True)
class BFTNode:
    """One tree node: a supervisor state linked to its parent by the backtracked event."""

    state: int
    parent: int
    event: int | None


@dataclass(frozen=True)
class BFT:
    """Backtracking forcibility tree; node 0 is the root (the target state)."""

    root: int
    nodes: tuple[BFTNode, ...]

    @property
    def is_empty(self) -> bool:
        return not self.nodes

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.nodes]
        for i, node in enumerate(self.nodes):
            if node.parent >= 0:
                kids[node.parent].append(i)
        return kids

    def branch_states(self, leaf: int) -> tuple[int, ...]:
        """States from the root down to ``leaf``."""
        rev = []
        i = leaf
        while i >= 0:
            rev.append(self.nodes[i].state)
            i = self.nodes[i].parent
        return tuple(reversed(rev))

    def branch_events(self, leaf: int) -> tuple[int, ...]:
        """Edge labels from the root down to ``leaf`` (backtracked events)."""
        rev = []
        i = leaf
        while self.nodes[i].parent >= 0:
            rev.append(self.nodes[i].event)
            i = self.nodes[i].parent
        return tuple(reversed(rev))

    def leaves(self) -> list[int]:
        kids = self.children()
        return [i for i in range(len(self.nodes)) if not kids[i]]


@dataclass(frozen=True)
class ForciblePathSet:
    """Solution paths of one reconfiguration problem.

    ``paths`` is sorted by (length, events); each is a reversed branch of the
    proper tree.  The attraction field is the state set of the proper tree;
    every prefix of every path stays inside it.
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

    def serialize(self) -> str:
        """One line per path: comma-separated labels, tick as the literal token."""
        return "\n".join(",".join(event_name(e) for e in p) for p in self.paths)

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


def eligibility_set(sup: Supervisor, state: int) -> EligibilitySet:
    """All backtrackable (predecessor, event) pairs leading into ``state``."""
    if not (0 <= state < sup.automaton.n_states):
        raise ValueError(f"unknown supervisor state {state}")
    return EligibilitySet(state, frozenset(_backtrackable_into(sup)(state)))


def build_bft(problem: ReconfigProblem, max_nodes: int | None = None) -> BFT:
    """Depth-first expansion of the backtracking forcibility tree.

    Each node expands through the eligibility set of its state; a branch ends
    at the source state, or when no candidate is left that is absent from the
    branch (so no branch ever repeats a state).  The tree enumerates simple
    backward paths and can grow exponentially on dense supervisors;
    ``max_nodes`` is a resource guard (exceeding it raises ``ValueError``).

    A backward search from the target runs first.  If it never meets the
    source, no branch can end there, and the tree is returned as the root
    alone: its proper tree is empty either way.  On a solvable problem the
    search only visits states that the tree holds anyway.
    """
    q_s = problem.source
    backtrackable = _backtrackable_into(problem.supervisor)
    root = BFTNode(problem.target, -1, None)

    reached = {problem.target}
    frontier = deque(reached)
    while frontier and q_s not in reached:
        for pred, _ in backtrackable(frontier.popleft()):
            if pred not in reached:
                reached.add(pred)
                frontier.append(pred)
    if q_s not in reached:
        return BFT(problem.target, (root,))

    nodes = [root]
    stack: list[tuple[int, frozenset[int]]] = [(0, frozenset({problem.target}))]
    while stack:
        i, on_branch = stack.pop()
        state = nodes[i].state
        if state == q_s:
            continue
        for pred, ev in backtrackable(state):
            if pred in on_branch:
                continue
            nodes.append(BFTNode(pred, i, ev))
            if max_nodes is not None and len(nodes) > max_nodes:
                raise ValueError(f"backtracking tree exceeds {max_nodes} nodes")
            stack.append((len(nodes) - 1, on_branch | {pred}))
    return BFT(problem.target, tuple(nodes))


def prune_to_pbft(tree: BFT, source: int) -> BFT:
    """Maximal subtree in which every leaf is the source state."""
    if tree.is_empty:
        return tree
    keep = [False] * len(tree.nodes)
    # Children appear after their parent, so one reverse pass suffices.
    for i in range(len(tree.nodes) - 1, -1, -1):
        if tree.nodes[i].state == source:
            keep[i] = True
        parent = tree.nodes[i].parent
        if keep[i] and parent >= 0:
            keep[parent] = True
    if not keep[0]:
        return BFT(tree.root, ())
    remap: dict[int, int] = {}
    new_nodes: list[BFTNode] = []
    for i, node in enumerate(tree.nodes):
        if not keep[i]:
            continue
        remap[i] = len(new_nodes)
        parent = remap[node.parent] if node.parent >= 0 else -1
        new_nodes.append(BFTNode(node.state, parent, node.event))
    return BFT(tree.root, tuple(new_nodes))


def attraction_field(pbft: BFT) -> frozenset[int]:
    """All states occurring in the proper tree."""
    return frozenset(node.state for node in pbft.nodes)


def trs(problem: ReconfigProblem, max_nodes: int | None = None) -> ForciblePathSet:
    """Timed reconfiguration solver: all simple forcible paths source-to-target.

    Computes the backtracking forcibility tree, prunes it to its proper part
    and reads the paths off the reversed branches.  An unsolvable problem
    yields an empty, distinguished result (no exception).  ``max_nodes``
    guards against combinatorial blowup on dense supervisors.
    """
    pbft = prune_to_pbft(build_bft(problem, max_nodes), problem.source)
    if pbft.is_empty:
        return ForciblePathSet(problem.source, problem.target,
                               problem.reconfig_event, (), frozenset(), False)
    # Proper-tree leaves are all the source; the reversed branch runs
    # source-to-target.
    paths = {tuple(reversed(pbft.branch_events(leaf))) for leaf in pbft.leaves()}
    ordered = tuple(sorted(paths, key=lambda p: (len(p), p)))
    return ForciblePathSet(problem.source, problem.target,
                           problem.reconfig_event, ordered, attraction_field(pbft),
                           True)


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
    parents = _bfs_parents(gen)
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
