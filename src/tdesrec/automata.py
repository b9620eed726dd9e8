"""Finite deterministic generators and the language operations built on them.

States are dense integer indices.  Every operation renumbers its result in
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
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

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

    def out_edges(self) -> list[list[tuple[int, int]]]:
        """Per-state sorted list of (event, target) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_states)]
        for (src, ev), dst in self.transitions.items():
            adj[src].append((ev, dst))
        for lst in adj:
            lst.sort()
        return adj


def _bfs_parents(adj: Sequence[Iterable[tuple[int, int]]], initial: int
                 ) -> dict[int, tuple[int, int] | None]:
    """BFS tree from ``initial`` over ``adj``, as a parent map in discovery order.

    ``adj`` is shaped like ``Generator.out_edges()``: per state, its (event,
    target) steps in event order.  Each reached state maps to the ``(parent,
    event)`` step that discovered it, ``initial`` to None, so the branch to
    each state spells the shortlex-least string reaching it.
    """
    parents: dict[int, tuple[int, int] | None] = {initial: None}
    queue = deque([initial])
    while queue:
        q = queue.popleft()
        for e, dst in adj[q]:
            if dst not in parents:
                parents[dst] = (q, e)
                queue.append(dst)
    return parents


def _bfs_renumber(g: Generator, adj: Sequence[Iterable[tuple[int, int]]]
                  ) -> tuple[Generator, dict[int, int]]:
    """The part of non-empty ``g`` that ``adj`` reaches, in BFS order, and its state map.

    ``adj`` is ``g.out_edges()``, or its restriction to a set of states that
    holds ``g.initial`` (the edges between kept states).  Transitions keep
    their order in ``g``, so a restriction gives what renumbering the
    restricted generator would, without building that generator.
    """
    order = {q: i for i, q in enumerate(_bfs_parents(adj, g.initial))}
    del adj  # a caller's temporary adjacency is freed before the copy, to keep the peak down
    transitions = {
        (order[s], e): order[t]
        for (s, e), t in g.transitions.items()
        if s in order and t in order
    }
    marked = frozenset(order[q] for q in g.marked if q in order)
    return Generator(len(order), g.alphabet, transitions, 0, marked), order


def renumber_bfs(g: Generator) -> Generator:
    """Restrict to the reachable part and renumber states in BFS order."""
    if g.is_empty:
        return g
    return _bfs_renumber(g, g.out_edges())[0]


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
    adj = [[(e, t) for e, t in edges if t in keep] if q in keep else []
           for q, edges in enumerate(g.out_edges())]
    return _bfs_renumber(g, adj)[0]


def is_nonblocking(g: Generator) -> bool:
    """True iff every reachable state can reach a marked state."""
    if g.is_empty:
        return True
    return reachable_states(g) <= coreachable_states(g)


def _product(components: Sequence[Generator], movers: Mapping[int, Sequence[int]]
             ) -> tuple[Generator, list[tuple[int, ...]]]:
    """Reachable product where event ``e`` moves the components ``movers[e]`` (at least one).

    An event is eligible only when every component it moves can execute it;
    the others keep their state.  The alphabet is the set of ``movers`` keys,
    and marked states are products of marked states.  Returns the product and
    the component-state tuple of each product state.
    """
    alphabet = frozenset(movers)
    if any(c.is_empty for c in components):
        return Generator(0, alphabet, {}, 0, frozenset()), []
    trans = [c.transitions for c in components]
    # An event's first mover is tried before the state is copied, so an event
    # that cannot occur costs no copy.
    steps = [(e, movers[e][0], movers[e][1:]) for e in sorted(alphabet)]
    start = tuple(c.initial for c in components)
    index: dict[tuple[int, ...], int] = {start: 0}
    queue = deque([start])
    transitions: dict[tuple[int, int], int] = {}
    marked: set[int] = set()
    while queue:
        state = queue.popleft()
        sid = index[state]
        if all(state[i] in c.marked for i, c in enumerate(components)):
            marked.add(sid)
        for e, first, rest in steps:
            dst = trans[first].get((state[first], e))
            if dst is None:
                continue
            nxt = list(state)
            nxt[first] = dst
            for i in rest:
                dst = trans[i].get((state[i], e))
                if dst is None:
                    break
                nxt[i] = dst
            else:
                key = tuple(nxt)
                if key not in index:
                    index[key] = len(index)
                    queue.append(key)
                transitions[(sid, e)] = index[key]
    gen = Generator(len(index), alphabet, transitions, 0, frozenset(marked))
    return gen, list(index)


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
    return _product(components, movers)[0]


def meet(a: Generator, b: Generator) -> Generator:
    """Reachable product synchronizing on every event of the union alphabet.

    When the alphabets agree this realizes the language intersection; an event
    private to one operand can never occur in the result.
    """
    return _product([a, b], dict.fromkeys(a.alphabet | b.alphabet, (0, 1)))[0]


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
    transitions: dict[tuple[int, int], int] = {}
    marked: set[int] = set()
    # ``subsets`` grows while it is walked, so it is the BFS queue.
    for sid, subset in enumerate(subsets):
        if subset & marked_mask:
            marked.add(sid)
        targets: dict[int, int] = {}
        for q in _members(subset):
            for e, mask in moves[q]:
                targets[e] = targets.get(e, 0) | mask
        for e in sorted(targets):
            key = targets[e]
            if key not in index:
                index[key] = len(subsets)
                subsets.append(key)
            transitions[(sid, e)] = index[key]
    gen = Generator(len(subsets), alphabet, transitions, 0, frozenset(marked))
    # The construction is reachable by design, as _minimal requires; the
    # minimal form preserves the closed language too, so blocking parts
    # survive.  Merged states pool their source-state subsets.
    final, to_final = _minimal(gen)
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


def _successors(g: Generator) -> list[dict[int, int]]:
    """Per-state map from each eligible event to its target."""
    adj: list[dict[int, int]] = [{} for _ in range(g.n_states)]
    for (src, ev), dst in g.transitions.items():
        adj[src][ev] = dst
    return adj


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


def _quotient(gen: Generator, block: Sequence[int]) -> Generator:
    """Generator whose states are the blocks of a stable partition of ``gen``.

    ``block`` numbers the blocks densely from 0.  A block is marked when it
    contains a marked state.
    """
    transitions = {(block[s], e): block[t] for (s, e), t in gen.transitions.items()}
    marked = frozenset(block[s] for s in gen.marked)
    return Generator(max(block) + 1, gen.alphabet, transitions, block[gen.initial], marked)


def _minimal(gen: Generator) -> tuple[Generator, list[int]]:
    """Minimal form of a non-empty reachable ``gen`` and the minimal state of each state.

    ``_refine`` starts from the labels (marked, eligible events), so members
    of a block share their eligible events, the default group never applies,
    and the result is the coarsest partition by closed and marked futures.
    The minimal form is numbered in BFS order, so two generators with the same
    closed and marked languages (and alphabet) give equal minimal forms.
    """
    adj = _successors(gen)
    block = _refine(((s in gen.marked, frozenset(succ)) for s, succ in enumerate(adj)),
                    adj, sorted(gen.alphabet))
    quotient = _quotient(gen, block)
    final, order = _bfs_renumber(quotient, quotient.out_edges())
    return final, [order[b] for b in block]


def minimize(g: Generator) -> Generator:
    """Smallest deterministic generator with the same closed and marked languages.

    It is the quotient of the reachable part of ``g`` under ``_refine``
    seeded with (marked, eligible events), numbered in BFS order.
    """
    if g.is_empty:
        return g
    return _minimal(renumber_bfs(g))[0]


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
    _, pairs = _product([a, b], dict.fromkeys(a.alphabet, (0, 1)))
    a_succ = _successors(a)
    b_succ = _successors(b)
    return all((x not in a.marked or y in b.marked) and a_succ[x].keys() <= b_succ[y].keys()
               for x, y in pairs)


def bounded_language(g: Generator, max_len: int) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]]]:
    """All strings of the closed and marked languages up to ``max_len``."""
    closed: set[tuple[int, ...]] = set()
    marked: set[tuple[int, ...]] = set()
    if g.is_empty:
        return closed, marked
    adj = g.out_edges()
    frontier: list[tuple[tuple[int, ...], int]] = [((), g.initial)]
    for _ in range(max_len + 1):
        nxt: list[tuple[tuple[int, ...], int]] = []
        for string, q in frontier:
            closed.add(string)
            if q in g.marked:
                marked.add(string)
            for e, dst in adj[q]:
                nxt.append((string + (e,), dst))
        frontier = nxt
    return closed, marked


def to_dot(g: Generator, name: str = "G", state_labels: Mapping[int, str] | None = None) -> str:
    """GraphViz rendering: one node per state, double circle for marked states."""
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
