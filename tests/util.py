"""Shared test helpers: random model generators and independent oracles.

The oracles here deliberately avoid the library's algorithms: languages are
compared by bounded enumeration, supremal synthesis by exhaustive subset
search, and path solving by exhaustive filtered path enumeration and by the
materialised backtracking tree.  Expected values frozen into tests were
produced by these oracles.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from tdesrec.automata import (Generator, ProjectionDetail, _bfs_renumber, _minimal, _product,
                              bounded_language, coreachable_states, reachable_states,
                              renumber_bfs)
from tdesrec.events import TICK, PROHIBITIBLE, UNCONTROLLABLE, EventDef, EventTable
from tdesrec.solver import ReconfigProblem, _backtrackable_into
from tdesrec.synthesis import Supervisor, _violation, supcon
from tdesrec.timed import (DEFAULT_STATE_CAP, TimedGenerator, TimedState,
                           timed_graph)


def random_generator(rng: random.Random, max_states: int = 5,
                     alphabet: tuple[int, ...] = (1, 2, 3),
                     density: float = 0.5, marked_p: float = 0.5) -> Generator:
    """A random trim-ish deterministic generator (not necessarily nonblocking)."""
    n = rng.randint(1, max_states)
    transitions = {}
    for s in range(n):
        for e in alphabet:
            if rng.random() < density:
                transitions[(s, e)] = rng.randrange(n)
    marked = frozenset(s for s in range(n) if rng.random() < marked_p)
    if not marked:
        marked = frozenset({rng.randrange(n)})
    g = Generator(n, frozenset(alphabet), transitions, 0, marked)
    return renumber_bfs(g)


def random_event_table(rng: random.Random, labels: tuple[int, ...],
                       max_bound: int = 4, forcible_p: float = 0.5,
                       uncontrollable_p: float = 0.4) -> EventTable:
    defs = []
    for label in labels:
        control = UNCONTROLLABLE if rng.random() < uncontrollable_p else PROHIBITIBLE
        forcible = rng.random() < forcible_p
        if rng.random() < 0.5:
            lower = rng.randint(0, max_bound)
            upper = None
        else:
            lower = rng.randint(0, max_bound)
            upper = rng.randint(lower, max_bound)
        defs.append(EventDef(label, control, forcible, lower, upper))
    return EventTable(defs)


def random_atg(rng: random.Random, max_activities: int = 8,
               max_events: int = 6, max_bound: int = 4,
               density: float = 0.5,
               forcible_p: float = 0.5) -> tuple[Generator, EventTable]:
    """A random activity transition graph with a matching event table."""
    n_events = rng.randint(1, max_events)
    labels = tuple(range(1, n_events + 1))
    events = random_event_table(rng, labels, max_bound, forcible_p=forcible_p)
    atg = random_generator(rng, max_activities, labels, density)
    return atg, events


def random_spec(rng: random.Random, alphabet: frozenset[int],
                max_states: int = 3, density: float = 0.7) -> Generator:
    """A random specification over a subset of the timed alphabet."""
    pool = sorted(alphabet)
    k = rng.randint(1, len(pool))
    sub = tuple(rng.sample(pool, k))
    return random_generator(rng, max_states, sub, density, marked_p=0.8)


def random_pipeline_supervisor(rng: random.Random, max_activities: int = 6,
                               max_events: int = 5, max_bound: int = 3,
                               spec_states: int = 3, density: float = 0.5,
                               forcible_p: float = 0.5,
                               full_alphabet_spec: bool = False
                               ) -> tuple[Supervisor, TimedGenerator] | None:
    """Random ATG through the timed graph and synthesis pipeline.

    Returns None when the instance degenerates (empty supervisor or a timed
    graph that never ticks into anything interesting).
    """
    atg, events = random_atg(rng, max_activities, max_events, max_bound,
                             density, forcible_p)
    try:
        ttg = timed_graph(atg, events, max_states=20_000)
    except ValueError:
        return None
    if full_alphabet_spec:
        alpha = tuple(sorted(ttg.generator.alphabet))
        spec = random_generator(rng, spec_states, alpha, density=0.85,
                                marked_p=0.8)
    else:
        spec = random_spec(rng, ttg.generator.alphabet, spec_states)
    sup = supcon(ttg, spec, events)
    if sup.is_empty or sup.n_states < 2:
        return None
    return sup, ttg


def solvable_problems(sup: Supervisor, limit: int = 50) -> list[tuple[int, int, int]]:
    """All (source, target, event) triples with the event defined at the target."""
    gen = sup.automaton
    triples = []
    for (q_r, e), _ in sorted(gen.transitions.items()):
        if e == TICK:
            continue
        for q_s in range(gen.n_states):
            triples.append((q_s, q_r, e))
            if len(triples) >= limit:
                return triples
    return triples


def sample_problems(rng: random.Random, sup: Supervisor,
                    count: int) -> list[tuple[int, int, int]]:
    """Random (source, target, event) triples with the event defined at target."""
    gen = sup.automaton
    anchors = sorted({(q_r, e) for (q_r, e) in gen.transitions if e != TICK})
    if not anchors:
        return []
    out = []
    for _ in range(count):
        q_r, e = rng.choice(anchors)
        out.append((rng.randrange(gen.n_states), q_r, e))
    return out


# ---------------------------------------------------------------------------
# Oracles


def oracle_language_equal(a: Generator, b: Generator, depth: int) -> bool:
    """Bounded-enumeration language comparison."""
    return bounded_language(a, depth) == bounded_language(b, depth)


def oracle_trim(g: Generator) -> Generator:
    """``automata.trim`` as first written: prune to a generator, then renumber it."""
    if g.is_empty:
        return g
    keep = reachable_states(g) & coreachable_states(g)
    if g.initial not in keep:
        return Generator(0, g.alphabet, {}, 0, frozenset())
    transitions = {
        (s, e): t for (s, e), t in g.transitions.items() if s in keep and t in keep
    }
    pruned = Generator(g.n_states, g.alphabet, transitions, g.initial,
                       g.marked & keep)
    return renumber_bfs(pruned)


def oracle_minimal_states(g: Generator) -> int:
    """Number of reachable states of ``g`` told apart by their futures.

    A state's future is its closed and marked language up to length
    ``g.n_states``, long enough to separate any two inequivalent states.
    """
    reachable = {g.run(s) for s in bounded_language(g, g.n_states)[0]}
    futures = set()
    for q in reachable:
        from_q = Generator(g.n_states, g.alphabet, g.transitions, q, g.marked)
        closed, marked = bounded_language(from_q, g.n_states)
        futures.add((frozenset(closed), frozenset(marked)))
    return len(futures)



def oracle_project_detail(g: Generator, erase: Iterable[int]) -> ProjectionDetail:
    """``automata.project_detail`` as first written, on ``frozenset`` subsets.

    The reference copy of the subset construction: every move's closure over
    erased events is a fresh BFS.  Minimization and pooling are the program's.
    """
    erased = frozenset(erase)
    if not erased <= g.alphabet:
        raise ValueError(f"erase set {sorted(erased)} not contained in alphabet")
    alphabet = g.alphabet - erased
    if g.is_empty:
        return ProjectionDetail(Generator(0, alphabet, {}, 0, frozenset()), ())
    adj = g.out_edges()

    def closure(states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        queue = deque(seen)
        while queue:
            q = queue.popleft()
            for e, dst in adj[q]:
                if e in erased and dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return frozenset(seen)

    start = closure([g.initial])
    index: dict[frozenset[int], int] = {start: 0}
    subsets: list[frozenset[int]] = [start]
    queue = deque([start])
    transitions: dict[tuple[int, int], int] = {}
    marked: set[int] = set()
    while queue:
        subset = queue.popleft()
        sid = index[subset]
        if subset & g.marked:
            marked.add(sid)
        moves: dict[int, set[int]] = {}
        for q in subset:
            for e, dst in adj[q]:
                if e not in erased:
                    moves.setdefault(e, set()).add(dst)
        for e in sorted(moves):
            key = closure(moves[e])
            if key not in index:
                index[key] = len(index)
                subsets.append(key)
                queue.append(key)
            transitions[(sid, e)] = index[key]
    gen = Generator(len(index), alphabet, transitions, 0, frozenset(marked))
    final, to_final = _minimal(gen)
    pooled: list[set[int]] = [set() for _ in range(final.n_states)]
    for subset, q in zip(subsets, to_final):
        pooled[q].update(subset)
    return ProjectionDetail(final, tuple(frozenset(p) for p in pooled))


def oracle_timed_graph(atg: Generator, events: EventTable,
                       max_states: int = DEFAULT_STATE_CAP) -> TimedGenerator:
    """``timed.timed_graph`` as first written, with a dict of timers per step.

    The reference copy of the forward exploration: every step builds a
    ``TimedState`` from a fresh dict of the source state's timers.

    Raises ``ValueError`` when an ATG event has no definition, when tick
    appears in the ATG alphabet, or when the state count exceeds
    ``max_states``.
    """
    if TICK in atg.alphabet:
        raise ValueError("tick must not appear in an activity transition graph")
    missing = sorted(atg.alphabet - events.labels)
    if missing:
        raise ValueError(f"no event definition for event {missing[0]}")
    if atg.is_empty:
        raise ValueError("cannot build a timed graph from an empty generator")

    labels = sorted(atg.alphabet)
    defs = {e: events[e] for e in labels}
    adj = atg.out_edges()
    enabled_at: list[frozenset[int]] = [
        frozenset(e for e, _ in adj[a]) for a in range(atg.n_states)
    ]

    def initial_state() -> TimedState:
        return TimedState(atg.initial,
                          tuple((e, defs[e].default_timer) for e in labels))

    def tick_allowed(state: TimedState) -> bool:
        timers = state.timers_dict
        return not any(
            defs[e].is_prospective and timers[e] == 0
            for e in enabled_at[state.activity]
        )

    def tick_step(state: TimedState) -> TimedState:
        timers = state.timers_dict
        enabled = enabled_at[state.activity]
        new = []
        for e in labels:
            if e in enabled:
                new.append((e, max(0, timers[e] - 1)))
            else:
                new.append((e, defs[e].default_timer))
        return TimedState(state.activity, tuple(new))

    def event_eligible(state: TimedState, e: int) -> bool:
        if e not in enabled_at[state.activity]:
            return False
        t = state.timer(e)
        d = defs[e]
        if d.is_prospective:
            return t <= d.upper - d.lower
        return t == 0

    def event_step(state: TimedState, e: int) -> TimedState:
        nxt_activity = atg.target(state.activity, e)
        assert nxt_activity is not None
        before = enabled_at[state.activity]
        after = enabled_at[nxt_activity]
        timers = state.timers_dict
        new = []
        for tau in labels:
            if tau == e or tau not in before or tau not in after:
                new.append((tau, defs[tau].default_timer))
            else:
                new.append((tau, timers[tau]))
        return TimedState(nxt_activity, tuple(new))

    start = initial_state()
    index: dict[TimedState, int] = {start: 0}
    states: list[TimedState] = [start]
    queue = deque([start])
    transitions: dict[tuple[int, int], int] = {}

    def visit(src: int, state: TimedState, event: int) -> None:
        if state not in index:
            if len(index) >= max_states:
                raise ValueError(f"timed graph exceeds {max_states} states")
            index[state] = len(index)
            states.append(state)
            queue.append(state)
        transitions[(src, event)] = index[state]

    while queue:
        state = queue.popleft()
        sid = index[state]
        if tick_allowed(state):
            visit(sid, tick_step(state), TICK)
        for e in labels:
            if event_eligible(state, e):
                visit(sid, event_step(state, e), e)

    marked = frozenset(i for i, ts in enumerate(states) if ts.activity in atg.marked)
    gen = Generator(len(states), frozenset(labels) | {TICK}, transitions, 0, marked)
    return TimedGenerator(gen, events, tuple(states))


def _eligible_sets(g: Generator) -> list[frozenset[int]]:
    """Per-state eligible events of ``g``, from one pass over its transitions."""
    elig: list[list[int]] = [[] for _ in range(g.n_states)]
    for src, e in g.transitions:
        elig[src].append(e)
    return [frozenset(events) for events in elig]


def oracle_supcon_rounds(plant: TimedGenerator, spec: Generator,
                         events: EventTable | None = None) -> Supervisor:
    """``synthesis.supcon`` as first written, in rounds of whole-product sweeps.

    The reference copy of the fixpoint: each round sweeps every surviving
    state for controllability, then rebuilds the restricted product and
    searches it for coreachability, until a round deletes nothing.

    Starts from the fully synchronized product of plant and spec and
    repeatedly deletes states that violate controllability or coreachability
    until nothing changes.  Within one iteration the controllability sweep
    runs before the coreachability sweep, which fixes the intermediate
    sequence but not the (supremal) result.  An empty supervisor is a legal
    outcome.

    A state violates controllability by the rule ``controllable`` checks: the
    plant's eligible events at its plant state against the events leading to
    surviving states, both read off adjacency lists built once per call.
    """
    events = events or plant.events
    extra = spec.alphabet - plant.alphabet - {TICK}
    if extra:
        raise ValueError(f"spec alphabet exceeds plant alphabet: {sorted(extra)}")
    plant_gen = plant.generator
    product, pairs = _product([plant_gen, spec],
                              dict.fromkeys(plant_gen.alphabet | spec.alphabet, (0, 1)))
    n = product.n_states
    alive = set(range(n))
    adj = product.out_edges()
    plant_elig = _eligible_sets(plant_gen)

    def survivor_eligible(q: int) -> dict[int, int]:
        return {e: t for e, t in adj[q] if t in alive}

    def restricted() -> Generator:
        """The product confined to the surviving states."""
        return Generator(
            n,
            product.alphabet,
            {(s, e): t for (s, e), t in product.transitions.items()
             if s in alive and t in alive},
            product.initial,
            product.marked & frozenset(alive),
        )

    changed = True
    while changed and alive:
        changed = False
        # Controllability sweep.
        for q in sorted(alive):
            if _violation(plant_elig[pairs[q][0]], survivor_eligible(q), events) is not None:
                alive.discard(q)
                changed = True
        # Coreachability sweep over the survivors.
        if alive:
            coreach = coreachable_states(restricted())
            dead = alive - coreach
            if dead:
                alive -= dead
                changed = True
        if product.initial not in alive:
            alive.clear()

    if not alive or product.initial not in alive:
        empty = Generator(0, product.alphabet, {}, 0, frozenset())
        return Supervisor(empty, events, (), (), ())

    survivors = restricted()
    gen, order = _bfs_renumber(survivors, survivors.out_edges())

    plant_states = [0] * len(order)
    disabled: list[frozenset[int]] = [frozenset()] * len(order)
    preempted = [False] * len(order)
    for old, new in order.items():
        p = pairs[old][0]
        plant_states[new] = p
        offered = survivor_eligible(old)
        pe = plant_elig[p]
        disabled[new] = frozenset(
            e for e in pe if e not in offered and events.is_prohibitible(e)
        )
        preempted[new] = TICK in pe and TICK not in offered
    return Supervisor(gen, events, tuple(plant_states), tuple(disabled),
                      tuple(preempted))


def oracle_subset_map(g: Generator, erase: frozenset[int],
                      proj: Generator) -> dict[int | None, set[int]]:
    """Per state of ``proj``, the states of ``g`` reached by the strings leading to it.

    A string of ``g`` leads to the state its erased image reaches in
    ``proj`` (None where the image is undefined there).  Strings are
    extended one event at a time, keeping one string per (source state,
    projected state) pair, until no longer string reaches a new pair.
    """
    reached: dict[int | None, set[int]] = {}
    if g.is_empty:
        return reached
    frontier = {(g.initial, proj.initial)}
    seen = set(frontier)
    while frontier:
        longer = set()
        for q, p in frontier:
            reached.setdefault(p, set()).add(q)
            if p is None:
                continue
            for (s, e), t in g.transitions.items():
                if s == q:
                    pair = (t, p if e in erase else proj.transitions.get((p, e)))
                    if pair not in seen:
                        seen.add(pair)
                        longer.add(pair)
        frontier = longer
    return reached


def random_projection_input(rng: random.Random, max_states: int = 7,
                            max_events: int = 4) -> tuple[Generator, frozenset[int]]:
    """A random generator, possibly empty, with unreachable states and any
    initial state, plus an erase set of 0 to 3 of its events."""
    alphabet = tuple(range(1, rng.randint(1, max_events) + 1))
    erase = frozenset(rng.sample(alphabet, rng.randint(0, min(3, len(alphabet)))))
    n = rng.randint(0, max_states)
    if n == 0:
        return Generator(0, frozenset(alphabet), {}, 0, frozenset()), erase
    density = rng.uniform(0.2, 0.8)
    transitions = {(s, e): rng.randrange(n) for s in range(n) for e in alphabet
                   if rng.random() < density}
    marked = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Generator(n, frozenset(alphabet), transitions, rng.randrange(n), marked), erase

class OraclePartition:
    """A block assignment over supervisor states, refined until stable.

    The reference copy of the rule ``automata._refine`` implements, as first
    written for supervisor localization: blocks are renumbered by first
    appearance after every event.
    """

    def __init__(self, labels: Sequence[tuple]):
        self.block = self._normalize({i: lbl for i, lbl in enumerate(labels)})

    @staticmethod
    def _normalize(raw: Mapping[int, object]) -> list[int]:
        ids: dict[object, int] = {}
        out = [0] * len(raw)
        for s in sorted(raw):
            key = raw[s]
            if key not in ids:
                ids[key] = len(ids)
            out[s] = ids[key]
        return out

    def n_blocks(self) -> int:
        return len(set(self.block))

    def refine(self, adj: Sequence[Mapping[int, int]], events: Sequence[int]) -> None:
        """Split blocks until defined successors agree blockwise per event.

        Members with the event undefined follow the largest defined group of
        their block (ties broken by smallest group id), which keeps blocks as
        coarse as the decisions allow.
        """
        while True:
            before = self.n_blocks()
            for e in events:
                members: dict[int, list[int]] = {}
                for s, b in enumerate(self.block):
                    members.setdefault(b, []).append(s)
                assign: dict[int, object] = {}
                for b, states in members.items():
                    groups: dict[int, list[int]] = {}
                    undefined: list[int] = []
                    for s in states:
                        t = adj[s].get(e)
                        if t is None:
                            undefined.append(s)
                        else:
                            groups.setdefault(self.block[t], []).append(s)
                    if len(groups) <= 1:
                        for s in states:
                            assign[s] = (b,)
                        continue
                    default = max(groups, key=lambda g: (len(groups[g]), -g))
                    for g, ss in groups.items():
                        for s in ss:
                            assign[s] = (b, g)
                    for s in undefined:
                        assign[s] = (b, default)
                self.block = self._normalize(assign)
            if self.n_blocks() == before:
                return

    def split_apart(self, states: Sequence[int]) -> None:
        """Force the given states into pairwise distinct blocks."""
        assign: dict[int, object] = {s: (b,) for s, b in enumerate(self.block)}
        for rank, s in enumerate(sorted(states)):
            assign[s] = (self.block[s], "split", rank)
        self.block = self._normalize(assign)


def oracle_product_membership(components: list[Generator],
                              string: tuple[int, ...]) -> tuple[bool, bool]:
    """Closed and marked membership of ``string`` in the synchronous product.

    The string is in the closed language exactly when every component runs
    the string's projection onto its own alphabet, and in the marked language
    exactly when every component also accepts that projection.
    """
    ends = [c.run(tuple(e for e in string if e in c.alphabet)) for c in components]
    closed = all(q is not None for q in ends)
    return closed, closed and all(q in c.marked for q, c in zip(ends, components))


def oracle_state_witness(gen: Generator, state: int) -> tuple[int, ...] | None:
    """The shortlex-least string that reaches ``state``, or None if none does.

    Strings are tried in shortlex order; a reachable state is reached by some
    string shorter than the state count.
    """
    events = sorted(gen.alphabet)
    for length in range(gen.n_states):
        for string in product(events, repeat=length):
            if gen.run(string) == state:
                return string
    return None


def _edge_ok_oracle(gen: Generator, events: EventTable, src: int, ev: int, dst: int) -> bool:
    if events.is_forcible(ev):
        return True
    for (s, other), t in gen.transitions.items():
        if s == src and t != dst and not events.is_prohibitible(other):
            return False
    return True


def oracle_paths(sup: Supervisor, source: int, target: int) -> set[tuple[int, ...]]:
    """Exhaustive enumeration of simple backtrackable paths source-to-target.

    A path qualifies when every step is forcible or faces only prohibitible
    competition, and when all of its states lie inside the region formed by
    such paths (the attraction field); since every enumerated path is built
    from qualifying steps only, the region constraint is the path set itself.
    """
    gen = sup.automaton
    events = sup.events
    # Whether a step qualifies depends on the step alone, so each transition
    # is judged once, before the walk.
    adj: dict[int, list[tuple[int, int]]] = {}
    for (s, e), t in gen.transitions.items():
        if _edge_ok_oracle(gen, events, s, e, t):
            adj.setdefault(s, []).append((e, t))
    for lst in adj.values():
        lst.sort()
    found: set[tuple[int, ...]] = set()
    path: list[int] = []
    visited = {source}

    def walk(state: int) -> None:
        if state == target:
            found.add(tuple(path))
        for ev, dst in adj.get(state, ()):
            if dst in visited:
                continue
            visited.add(dst)
            path.append(ev)
            walk(dst)
            path.pop()
            visited.discard(dst)

    walk(source)
    if source == target:
        found.add(())
    # Confinement to the attraction field is automatic: the field is the set
    # of states on qualifying paths, and each found path only visits states
    # of qualifying paths.
    return found


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


def oracle_bft(problem: ReconfigProblem, max_nodes: int | None = None) -> BFT:
    """Depth-first expansion of the backtracking forcibility tree.

    The reference copy of the tree ``solver.trs`` searches without building:
    each node expands through the backtrackable steps into its state; a
    branch ends at the source state, or when no candidate is left that is
    absent from the branch (so no branch ever repeats a state).
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


def oracle_prune(tree: BFT, source: int) -> BFT:
    """Maximal subtree in which every leaf is the source state (the proper tree)."""
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


def oracle_attraction_field(pbft: BFT) -> frozenset[int]:
    """All states occurring in the proper tree."""
    return frozenset(node.state for node in pbft.nodes)


def oracle_supremal(plant: TimedGenerator, spec: Generator,
                    events: EventTable) -> Generator:
    """Brute-force supremal controllable nonblocking sublanguage.

    Enumerates every state subset of the plant-spec product, restricts,
    trims, checks timed controllability directly against the plant, and
    keeps the candidate whose language contains all others.
    """
    from tdesrec.automata import language_subset

    product, pairs = _product([plant.generator, spec], dict.fromkeys(
        plant.generator.alphabet | spec.alphabet, (0, 1)))
    n = product.n_states
    plant_gen = plant.generator
    empty = Generator(0, product.alphabet, {}, 0, frozenset())
    if n == 0:
        return empty
    maximal: list[Generator] = [empty]
    all_states = list(range(n))
    for r in range(1, n + 1):
        for keep in combinations(all_states, r):
            keep_set = set(keep)
            if product.initial not in keep_set:
                continue
            transitions = {
                (s, e): t for (s, e), t in product.transitions.items()
                if s in keep_set and t in keep_set
            }
            cand = Generator(n, product.alphabet, transitions, product.initial,
                             product.marked & keep_set)
            reach = reachable_states(cand)
            if not reach <= coreachable_states(cand):
                continue
            if not _oracle_controllable(cand, reach, pairs, plant_gen, events):
                continue
            cand = renumber_bfs(cand)
            if any(language_subset(cand, m) for m in maximal):
                continue
            maximal = [m for m in maximal if not language_subset(m, cand)]
            maximal.append(cand)
    # Controllable nonblocking sublanguages are closed under union, so a
    # unique maximum must remain.
    assert len(maximal) == 1, "incomparable maximal candidates"
    return maximal[0]


def _oracle_violation(cand: Generator, x: int, plant_gen: Generator, p: int,
                      events: EventTable) -> int | None:
    """Least plant-eligible event at ``p`` whose absence at ``x`` breaks timed controllability."""
    offered = cand.eligible(x)
    for e in sorted(plant_gen.eligible(p)):
        if e in offered:
            continue
        if events.is_uncontrollable(e):
            return e
        if e == TICK and not any(events.is_forcible(f) for f in offered):
            return e
    return None


def _oracle_controllable(cand: Generator, reach: frozenset[int],
                         pairs, plant_gen: Generator, events: EventTable) -> bool:
    return all(_oracle_violation(cand, q, plant_gen, pairs[q][0], events) is None
               for q in reach)


def oracle_controllability_witness(cand: Generator, plant_gen: Generator,
                                   events: EventTable) -> tuple[int, int, int] | None:
    """First violation of timed controllability along strings in shortlex order.

    The strings in both L(cand) and L(plant) are enumerated length by
    length, each length in lexicographic order.  The first string whose state
    pair violates the condition gives ``(cand_state, plant_state, event)``
    with the least violating event.  Once a length reaches no state pair that
    shorter strings missed, no longer string can, and the enumeration stops.
    """
    if cand.is_empty or plant_gen.is_empty:
        return None
    alphabet = sorted(cand.alphabet | plant_gen.alphabet)
    level = [()]
    seen: set[tuple[int, int]] = set()
    while level:
        fresh = False
        for string in level:
            x, p = cand.run(string), plant_gen.run(string)
            e = _oracle_violation(cand, x, plant_gen, p, events)
            if e is not None:
                return x, p, e
            fresh |= (x, p) not in seen
            seen.add((x, p))
        if not fresh:
            return None
        level = [s + (e,) for s in level for e in alphabet
                 if cand.run(s + (e,)) is not None and plant_gen.run(s + (e,)) is not None]
    return None


def check_deadline_soundness(atg: Generator, ttg: TimedGenerator) -> None:
    """A state lacks an outgoing tick iff some enabled prospective timer is 0."""
    gen = ttg.generator
    for q in range(gen.n_states):
        ts = ttg.timed_states[q]
        enabled = atg.eligible(ts.activity)
        blocked = any(
            ttg.events[e].is_prospective and ts.timer(e) == 0
            for e in enabled
        )
        has_tick = (q, TICK) in gen.transitions
        assert has_tick != blocked, f"state {q}: tick={has_tick} blocked={blocked}"


def check_remote_liveness(atg: Generator, ttg: TimedGenerator) -> None:
    gen = ttg.generator
    for q in range(gen.n_states):
        ts = ttg.timed_states[q]
        enabled = atg.eligible(ts.activity)
        if enabled and all(ttg.events[e].is_remote for e in enabled):
            assert (q, TICK) in gen.transitions


def check_bound_soundness(atg: Generator, ttg: TimedGenerator,
                          max_paths: int = 3000, max_len: int = 12) -> None:
    """Walk bounded paths tracking per-event enablement age."""
    gen = ttg.generator
    adj = gen.out_edges()
    start_age = {e: 0 for e in atg.eligible(ttg.timed_states[0].activity)}
    stack = [(0, start_age, 0)]
    seen_paths = 0
    while stack and seen_paths < max_paths:
        q, age, depth = stack.pop()
        seen_paths += 1
        if depth >= max_len:
            continue
        activity = ttg.timed_states[q].activity
        for e, dst in adj[q]:
            if e == TICK:
                new_age = {ev: a + 1 for ev, a in age.items()}
            else:
                d = ttg.events[e]
                elapsed = age.get(e)
                assert elapsed is not None
                assert elapsed >= d.lower, f"{e} fired after {elapsed} < {d.lower} ticks"
                if d.is_prospective:
                    assert elapsed <= d.upper, f"{e} fired after {elapsed} > {d.upper} ticks"
                next_activity = ttg.timed_states[dst].activity
                before = atg.eligible(activity)
                after = atg.eligible(next_activity)
                new_age = {}
                for ev in after:
                    if ev != e and ev in before and ev in age:
                        new_age[ev] = age[ev]
                    else:
                        new_age[ev] = 0
            stack.append((dst, new_age, depth + 1))
