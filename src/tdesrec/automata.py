"""Finite deterministic generators and the language operations built on them.

States are dense integer indices.  Every operation numbers its result in
BFS order from the initial state, so equal inputs give structurally equal
outputs and published orderings are reproducible.

One partition refinement, ``_refine``, and one block quotient, ``_quotient``,
serve both minimization (seeded with each state's marking and eligible
events) and supervisor localization (seeded with each controller's decision
labels, in ``localization``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Sequence

from .events import event_name


@dataclass(frozen=True)
class Generator:
    """Deterministic partial transition structure over integer event labels.

    ``transitions`` maps ``(state, event) -> state``.  A generator with zero
    states denotes the empty language (no strings at all, not even the empty
    one); it appears as the result of synthesis over incompatible behaviors.
    """

    n_states: int
    alphabet: frozenset[int]
    transitions: Mapping[tuple[int, int], int]
    initial: int = 0
    marked: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n_states < 0:
            raise ValueError("negative state count")
        if self.n_states == 0:
            if self.transitions or self.marked:
                raise ValueError("empty generator cannot carry transitions or marked states")
            return
        if not (0 <= self.initial < self.n_states):
            raise ValueError(f"initial state {self.initial} out of range")
        if not all(0 <= q < self.n_states for q in self.marked):
            raise ValueError("marked state out of range")
        for (src, ev), dst in self.transitions.items():
            if not (0 <= src < self.n_states and 0 <= dst < self.n_states):
                raise ValueError(f"transition ({src},{ev})->{dst} out of range")
            if ev not in self.alphabet:
                raise ValueError(f"transition event {ev} not in alphabet")

    @property
    def is_empty(self) -> bool:
        return self.n_states == 0

    def target(self, state: int, event: int) -> int | None:
        return self.transitions.get((state, event))

    def eligible(self, state: int) -> frozenset[int]:
        """Events with a defined outgoing transition at ``state``."""
        return frozenset(e for (s, e) in self.transitions if s == state)

    def run(self, string: Iterable[int], start: int | None = None) -> int | None:
        """Follow ``string`` from ``start`` (default: initial); None if undefined."""
        if self.is_empty:
            return None
        q = self.initial if start is None else start
        for e in string:
            nxt = self.transitions.get((q, e))
            if nxt is None:
                return None
            q = nxt
        return q

    def out_edges(self) -> list[dict[int, int]]:
        """Per state, a map from each eligible event to its target, in ``transitions`` order.

        This is the one adjacency every consumer of a generator reads.
        """
        adj: list[dict[int, int]] = [{} for _ in range(self.n_states)]
        for (src, ev), dst in self.transitions.items():
            adj[src][ev] = dst
        return adj


def _bfs_parents(adj: Sequence[Mapping[int, int]], initial: int
                 ) -> dict[int, tuple[int, int] | None]:
    """BFS tree from ``initial`` over ``adj``, as a parent map in discovery order.

    ``adj`` is shaped like ``Generator.out_edges()``; each state's events are
    taken in increasing order, which fixes every BFS numbering here.  Each
    reached state maps to the ``(parent, event)`` step that discovered it,
    ``initial`` to None, so the branch to each state spells the
    shortlex-least string reaching it.
    """
    parents: dict[int, tuple[int, int] | None] = {initial: None}
    queue = deque([initial])
    while queue:
        q = queue.popleft()
        for e, dst in sorted(adj[q].items()):
            if dst not in parents:
                parents[dst] = (q, e)
                queue.append(dst)
    return parents


def _bfs_renumber(adj: Sequence[Mapping[int, int]], initial: int, marked: Iterable[int],
                  alphabet: frozenset[int]) -> tuple[Generator, dict[int, int]]:
    """The part of a generator that ``adj`` reaches from ``initial``, in BFS order, and its state map.

    The generator is given by its adjacency ``adj`` (shaped like
    ``Generator.out_edges()``, possibly confined to a set of states that holds
    ``initial``), its ``marked`` states and its ``alphabet``.  Transitions are
    listed in old-state order and, per state, in ``adj``'s event order, so the
    result is built from the adjacency the BFS walks, with no second pass over
    the generator's transitions.
    """
    order = {q: i for i, q in enumerate(_bfs_parents(adj, initial))}
    transitions = {(order[s], e): order[t]
                   for s, edges in enumerate(adj) if s in order
                   for e, t in edges.items()}
    marked = frozenset(order[q] for q in marked if q in order)
    return Generator(len(order), alphabet, transitions, 0, marked), order


def renumber_bfs(g: Generator) -> Generator:
    """Restrict to the reachable part and renumber states in BFS order."""
    if g.is_empty:
        return g
    return _bfs_renumber(g.out_edges(), g.initial, g.marked, g.alphabet)[0]


def reachable_states(g: Generator) -> frozenset[int]:
    if g.is_empty:
        return frozenset()
    return frozenset(_bfs_parents(g.out_edges(), g.initial))


def coreachable_states(g: Generator) -> frozenset[int]:
    """States from which some marked state is reachable."""
    back: list[list[int]] = [[] for _ in range(g.n_states)]
    for (src, _), dst in g.transitions.items():
        back[dst].append(src)
    seen = set(g.marked)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for src in back[q]:
            if src not in seen:
                seen.add(src)
                queue.append(src)
    return frozenset(seen)


def trim(g: Generator) -> Generator:
    """Keep states that are both reachable and coreachable, in BFS order.

    The BFS walks the adjacency confined to the coreachable states, which is
    exact: every path to a coreachable state runs through coreachable states.
    """
    if g.is_empty:
        return g
    keep = coreachable_states(g)
    if g.initial not in keep:
        return Generator(0, g.alphabet, {}, 0, frozenset())
    adj = [{e: t for e, t in edges.items() if t in keep} if q in keep else {}
           for q, edges in enumerate(g.out_edges())]
    return _bfs_renumber(adj, g.initial, g.marked, g.alphabet)[0]


def is_nonblocking(g: Generator) -> bool:
    """True iff every reachable state can reach a marked state."""
    if g.is_empty:
        return True
    return reachable_states(g) <= coreachable_states(g)


def _product(components: Sequence[Generator], succ: Sequence[Sequence[Mapping[int, int]]],
             movers: Mapping[int, Sequence[int]]
             ) -> tuple[list[dict[int, int]], list[tuple[int, ...]], list[int]]:
    """Reachable product where event ``e`` moves the components ``movers[e]`` (at least one).

    ``succ[i]`` is ``components[i].out_edges()``.  An event is eligible only
    when every component it moves can execute it; the others keep their
    state.  The product's alphabet is the set of ``movers`` keys.  Returns,
    per product state in BFS discovery order, its successors by event in
    increasing event order (shaped like ``Generator.out_edges()``) and its
    component-state tuple, plus the marked states (products of marked
    states), in increasing order.  All three are empty when some component
    is.  No product generator is built: a caller that needs one builds it
    from the adjacency.
    """
    if any(c.is_empty for c in components):
        return [], [], []
    # An event's first mover is tried before the state is copied, so an event
    # that cannot occur costs no copy.
    steps = [(e, movers[e][0], movers[e][1:]) for e in sorted(movers)]
    start = tuple(c.initial for c in components)
    index: dict[tuple[int, ...], int] = {start: 0}
    # ``states`` grows while it is walked, so it is the BFS queue.
    states = [start]
    markings = [c.marked for c in components]
    adj: list[dict[int, int]] = []
    marked: list[int] = []
    for sid, state in enumerate(states):
        for q, marking in zip(state, markings):
            if q not in marking:
                break
        else:
            marked.append(sid)
        edges: dict[int, int] = {}
        for e, first, rest in steps:
            dst = succ[first][state[first]].get(e)
            if dst is None:
                continue
            nxt = list(state)
            nxt[first] = dst
            for i in rest:
                dst = succ[i][state[i]].get(e)
                if dst is None:
                    break
                nxt[i] = dst
            else:
                key = tuple(nxt)
                target = index.get(key)
                if target is None:
                    target = index[key] = len(states)
                    states.append(key)
                edges[e] = target
        adj.append(edges)
    return adj, states, marked


def _composed(components: Sequence[Generator], movers: Mapping[int, Sequence[int]]
              ) -> Generator:
    """The product ``_product`` builds, as a generator over the ``movers`` keys."""
    adj, _, marked = _product(components, [c.out_edges() for c in components], movers)
    alphabet = frozenset(movers)
    if not adj:
        return Generator(0, alphabet, {}, 0, frozenset())
    transitions = {(q, e): t for q, edges in enumerate(adj) for e, t in edges.items()}
    return Generator(len(adj), alphabet, transitions, 0, frozenset(marked))


def sync_product(components: Sequence[Generator]) -> Generator:
    """Synchronous composition: shared events synchronize, private ones interleave.

    An event moves exactly the components carrying it in their alphabet and is
    eligible only when all of those components can execute it.  Marked states
    are products of marked states.  Only the reachable part is built.
    """
    if not components:
        raise ValueError("no components")
    alphabet = frozenset().union(*(c.alphabet for c in components))
    movers = {e: [i for i, c in enumerate(components) if e in c.alphabet]
              for e in alphabet}
    return _composed(components, movers)


def meet(a: Generator, b: Generator) -> Generator:
    """Reachable product synchronizing on every event of the union alphabet.

    When the alphabets agree this realizes the language intersection; an event
    private to one operand can never occur in the result.
    """
    return _composed([a, b], dict.fromkeys(a.alphabet | b.alphabet, (0, 1)))


def allevents(g: Generator) -> Generator:
    """One marked state with a self-loop per alphabet event; language Sigma*."""
    transitions = {(0, e): 0 for e in g.alphabet}
    return Generator(1, g.alphabet, transitions, 0, frozenset({0}))


@dataclass(frozen=True)
class ProjectionDetail:
    """A projected generator plus, per projected state, the source-state subset."""

    generator: Generator
    subsets: tuple[frozenset[int], ...]


def project_detail(g: Generator, erase: Iterable[int]) -> ProjectionDetail:
    """Natural projection erasing ``erase``, keeping the subset-state map.

    Erased transitions become silent moves; the result is determinized by
    subset construction (a subset is marked iff it contains a marked state)
    and reduced to its minimal form.  Both the closed and the marked language
    are preserved exactly, so blocking parts of the source survive.

    Subsets are integer bitsets over source states.  Each state's closure
    over erased events is computed once, so a subset's move on an event is
    the OR of its members' target closures.  Subsets are discovered in BFS
    order with events in sorted order, and merged states pool their subsets.
    """
    erased = frozenset(erase)
    if not erased <= g.alphabet:
        raise ValueError(f"erase set {sorted(erased)} not contained in alphabet")
    alphabet = g.alphabet - erased
    if g.is_empty:
        return ProjectionDetail(Generator(0, alphabet, {}, 0, frozenset()), ())
    silent: list[list[int]] = [[] for _ in range(g.n_states)]
    visible: list[list[tuple[int, int]]] = [[] for _ in range(g.n_states)]
    for (src, ev), dst in g.transitions.items():
        if ev in erased:
            silent[src].append(dst)
        else:
            visible[src].append((ev, dst))
    closure = _closures(silent)
    moves = [[(e, closure[dst]) for e, dst in edges] for edges in visible]
    marked_mask = sum(1 << q for q in g.marked)
    start = closure[g.initial]
    index: dict[int, int] = {start: 0}
    subsets: list[int] = [start]
    adj: list[dict[int, int]] = []
    marked: set[int] = set()
    # ``subsets`` grows while it is walked, so it is the BFS queue.
    for sid, subset in enumerate(subsets):
        if subset & marked_mask:
            marked.add(sid)
        targets: dict[int, int] = {}
        for q in _members(subset):
            for e, mask in moves[q]:
                targets[e] = targets.get(e, 0) | mask
        adj.append({})
        for e in sorted(targets):
            key = targets[e]
            if key not in index:
                index[key] = len(subsets)
                subsets.append(key)
            adj[sid][e] = index[key]
    # The construction is reachable and in BFS order by design, as _minimal
    # requires; the minimal form preserves the closed language too, so
    # blocking parts survive.  Merged states pool their source-state subsets.
    final, to_final = _minimal(adj, marked, alphabet)
    pooled = [0] * final.n_states
    for subset, q in zip(subsets, to_final):
        pooled[q] |= subset
    return ProjectionDetail(final, tuple(frozenset(_members(p)) for p in pooled))


def _closures(silent: Sequence[Sequence[int]]) -> list[int]:
    """Per state, the bitset of states reachable over ``silent`` edges, itself included.

    States are taken from the last down, so an edge to a later state meets a
    known closure, which the search takes whole without expanding.  A search
    never revisits a state, so it ends on cycles of silent edges.
    """
    closure = [0] * len(silent)
    for q in range(len(silent) - 1, -1, -1):
        mask = 1 << q
        stack = [q]
        while stack:
            for t in silent[stack.pop()]:
                if not mask >> t & 1:
                    if closure[t]:
                        mask |= closure[t]
                    else:
                        mask |= 1 << t
                        stack.append(t)
        closure[q] = mask
    return closure


def _members(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _numbered(keys: Iterable[Hashable]) -> list[int]:
    """Block ids for per-state ``keys``, numbered by first appearance."""
    ids: dict[Hashable, int] = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


def _refine(block: Iterable[Hashable], adj: Sequence[Mapping[int, int]],
            events: Sequence[int]) -> list[int]:
    """Split the blocks of ``block`` until defined successors agree blockwise per event.

    ``block`` labels each state; states with equal labels start in one block.
    Events are taken one at a time, in order, and each split is seen by the
    next event; passes repeat until one splits nothing.  A block splits on an
    event when its members' defined successors lie in several blocks.  Members
    with the event undefined then follow the largest defined group of their
    block (ties go to the group whose target block comes first in state
    order), which keeps blocks as coarse as the decisions allow.  Returns
    block ids numbered by first appearance in state order.
    """
    # A block is named by its least state, so names order blocks by first
    # appearance and a split renames only the states that move.
    first: dict[Hashable, int] = {}
    name = [first.setdefault(k, s) for s, k in enumerate(block)]
    if len(first) == 1:
        # One block is stable: every successor lies in it.
        return [0] * len(name)
    members: dict[int, list[int]] = {}
    for s, b in enumerate(name):
        members.setdefault(b, []).append(s)
    sources: dict[int, list[int]] = {e: [] for e in events}
    targets: dict[int, list[int]] = {e: [] for e in events}
    for s, succ in enumerate(adj):
        for e, t in succ.items():
            if e in sources:
                sources[e].append(s)
                targets[e].append(t)
    while True:
        before = len(members)
        for e in events:
            first_target: dict[int, int] = {}
            split: set[int] = set()
            for s, t in zip(sources[e], targets[e]):
                if first_target.setdefault(name[s], name[t]) != name[t]:
                    split.add(name[s])
            # Group every splitting block against the names before this
            # event, then rename.
            parts: list[list[int]] = []
            for b in split:
                groups: dict[int, list[int]] = {}
                undefined: list[int] = []
                for s in members.pop(b):
                    t = adj[s].get(e)
                    if t is None:
                        undefined.append(s)
                    else:
                        groups.setdefault(name[t], []).append(s)
                groups[max(groups, key=lambda g: (len(groups[g]), -g))] += undefined
                parts.extend(groups.values())
            for part in parts:
                least = min(part)
                members[least] = part
                for s in part:
                    name[s] = least
        if len(members) == before:
            return _numbered(name)


def _quotient(adj: Sequence[Mapping[int, int]], block: Sequence[int],
              marked: Iterable[int], alphabet: frozenset[int]) -> Generator:
    """Generator whose states are the blocks of a stable partition.

    The partitioned generator is given by its ``adj`` (shaped like
    ``Generator.out_edges()``), ``marked`` states and ``alphabet``, and starts
    at state 0.  ``block`` numbers the blocks densely from 0 by first
    appearance, so block 0 starts the quotient.  A block is marked when it
    contains a marked state.
    """
    transitions = {(block[s], e): block[t] for s, succ in enumerate(adj) for e, t in succ.items()}
    return Generator(max(block) + 1, alphabet, transitions, 0,
                     frozenset(block[s] for s in marked))


def _minimal(adj: Sequence[Mapping[int, int]], marked: Collection[int],
             alphabet: frozenset[int]) -> tuple[Generator, list[int]]:
    """Minimal form of a non-empty generator and the minimal state of each state.

    The generator is given as ``_quotient`` takes it, reachable and numbered
    in BFS order.  ``_refine`` starts from the labels (marked, eligible
    events), so members of a block share their eligible events and, once
    stable, their successor block on every event; the result is the coarsest
    partition by closed and marked futures.  A BFS of the quotient therefore
    meets the blocks in the order of their least members, the order
    ``_refine`` numbers them in, so the quotient is already in BFS order and
    equal languages (and alphabets) give equal minimal forms.
    """
    block = _refine(((s in marked, frozenset(succ)) for s, succ in enumerate(adj)),
                    adj, sorted(alphabet))
    return _quotient(adj, block, marked, alphabet), block


def minimize(g: Generator) -> Generator:
    """Smallest deterministic generator with the same closed and marked languages.

    It is the quotient of the reachable part of ``g`` under ``_refine``
    seeded with (marked, eligible events), numbered in BFS order.
    """
    if g.is_empty:
        return g
    reached = renumber_bfs(g)
    return _minimal(reached.out_edges(), reached.marked, reached.alphabet)[0]


def project(g: Generator, erase: Iterable[int]) -> Generator:
    """Deterministic generator of the projected closed and marked languages."""
    return project_detail(g, erase).generator


def language_equal(a: Generator, b: Generator) -> bool:
    """True iff closed and marked languages both coincide; alphabets must match.

    That is inclusion both ways, each decided by ``language_subset`` on the
    reachable state pairs of the product, with no minimization.
    """
    return language_subset(a, b) and language_subset(b, a)


def language_subset(a: Generator, b: Generator) -> bool:
    """True iff L(a) <= L(b) and Lm(a) <= Lm(b); alphabets must match.

    That is, at every reachable state pair of their product ``b`` marks
    where ``a`` does and offers every event ``a`` offers.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    if a.is_empty:
        return True
    if b.is_empty:
        return False
    a_succ = a.out_edges()
    b_succ = b.out_edges()
    _, pairs, _ = _product([a, b], [a_succ, b_succ], dict.fromkeys(a.alphabet, (0, 1)))
    return all((x not in a.marked or y in b.marked) and a_succ[x].keys() <= b_succ[y].keys()
               for x, y in pairs)


def to_dot(g: Generator, name: str = "G", state_labels: Mapping[int, str] | None = None) -> str:
    """GraphViz rendering: one node per state, double circle for marked states.

    The graph name is written bare when it is a plain identifier and not a
    DOT keyword, and quoted otherwise.
    """
    keywords = {"node", "edge", "graph", "digraph", "subgraph", "strict"}
    if not (name.isascii() and name.isidentifier()) or name.lower() in keywords:
        name = '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    if g.is_empty:
        lines.append("}")
        return "\n".join(lines)
    lines.append(f'  init [shape=point, label=""];')
    lines.append(f"  init -> s{g.initial};")
    for q in range(g.n_states):
        label = state_labels.get(q, str(q)) if state_labels else str(q)
        shape = "doublecircle" if q in g.marked else "circle"
        lines.append(f'  s{q} [shape={shape}, label="{label}"];')
    grouped: dict[tuple[int, int], list[int]] = {}
    for (src, ev), dst in sorted(g.transitions.items()):
        grouped.setdefault((src, dst), []).append(ev)
    for (src, dst), evs in sorted(grouped.items()):
        label = ",".join(event_name(e) for e in sorted(evs))
        lines.append(f'  s{src} -> s{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
