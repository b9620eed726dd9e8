"""Output checks written apart from the program.

Each checker re-derives what it needs from the raw transition tables with
its own loops and returns a list of problems (empty when the output is
right).  None of them calls into ``tdesrec``'s algorithms; they only read
``Generator`` fields and event attributes.
"""

from __future__ import annotations

from collections import deque

TICK = 0


def _adjacency(transitions, n: int) -> list[dict[int, int]]:
    adj: list[dict[int, int]] = [dict() for _ in range(n)]
    for (src, ev), dst in transitions.items():
        adj[src][ev] = dst
    return adj


def predecessors(steps: list[dict[int, int]]) -> list[list[int]]:
    """Per state, the source of each step into it (one entry per step)."""
    back: list[list[int]] = [[] for _ in steps]
    for src, moves in enumerate(steps):
        for dst in moves.values():
            back[dst].append(src)
    return back


def backward_reach(adj: list[dict[int, int]], seeds) -> set[int]:
    """States from which some state of ``seeds`` is reachable over ``adj``."""
    back = predecessors(adj)
    seen = set(seeds)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for p in back[q]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


# ---------------------------------------------------------------------------
# Synthesis


def check_supervisor(sup, plant, events, plant_states=None) -> list[str]:
    """Timed controllability, nonblocking and plant inclusion of a supervisor.

    ``sup`` and ``plant`` are generators.  The plant state of every
    supervisor state is tracked by walking both from their initial states;
    ``plant_states``, when given, must agree with the tracked states.
    """
    errors: list[str] = []
    if sup.n_states == 0:
        return errors
    sup_adj = _adjacency(sup.transitions, sup.n_states)
    plant_adj = _adjacency(plant.transitions, plant.n_states)
    tracked = {sup.initial: plant.initial}
    queue = deque([sup.initial])
    while queue and len(errors) < 5:
        x = queue.popleft()
        p = tracked[x]
        offered = sup_adj[x]
        for e, y in offered.items():
            p2 = plant_adj[p].get(e)
            if p2 is None:
                errors.append(f"supervisor edge {x} -{e}-> {y} is not a plant edge at plant state {p}")
                continue
            if y not in tracked:
                tracked[y] = p2
                queue.append(y)
            elif tracked[y] != p2:
                errors.append(f"supervisor state {y} tracks plant states {tracked[y]} and {p2}")
        for e in plant_adj[p]:
            if e in offered:
                continue
            if e == TICK:
                if not any(events.is_forcible(f) for f in offered):
                    errors.append(f"tick withheld at supervisor state {x} with no forcible event offered")
            elif not events.is_prohibitible(e):
                errors.append(f"uncontrollable event {e} withheld at supervisor state {x}")
    if len(tracked) != sup.n_states:
        errors.append(f"{sup.n_states - len(tracked)} supervisor states are unreachable")
    blocking = set(tracked) - backward_reach(sup_adj, sup.marked)
    if blocking:
        errors.append(f"{len(blocking)} reachable supervisor states cannot reach a marked state")
    if plant_states is not None and not errors:
        wrong = [x for x, p in tracked.items() if plant_states[x] != p]
        if wrong:
            errors.append(f"reported plant state differs from the tracked one at {len(wrong)} states")
    return errors


# ---------------------------------------------------------------------------
# Tick projection


def tick_subsets(sup, proj) -> list[set[int]]:
    """Per projected state, the supervisor states reached by the same strings.

    Walks pairs (supervisor state, projected state): tick moves the first
    alone, any other event moves both.  Used where only the projected
    generator is available, as with a projection read back from a file.
    """
    subsets: list[set[int]] = [set() for _ in range(proj.n_states)]
    if sup.n_states == 0 or proj.n_states == 0:
        return subsets
    sup_adj = _adjacency(sup.transitions, sup.n_states)
    start = (sup.initial, proj.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        q, b = queue.popleft()
        subsets[b].add(q)
        for e, q2 in sup_adj[q].items():
            b2 = b if e == TICK else proj.transitions.get((b, e))
            if b2 is None:
                continue
            if (q2, b2) not in seen:
                seen.add((q2, b2))
                queue.append((q2, b2))
    return subsets


def moore_blocks(gen) -> int:
    """Number of classes of states with equal closed and marked futures."""
    n = gen.n_states
    events = sorted(gen.alphabet)
    adj = _adjacency(gen.transitions, n)
    block = [1 if q in gen.marked else 0 for q in range(n)]
    count = len(set(block))
    while True:
        ids: dict[tuple, int] = {}
        new = []
        for q in range(n):
            sig = (block[q],) + tuple(block[adj[q][e]] if e in adj[q] else -1 for e in events)
            new.append(ids.setdefault(sig, len(ids)))
        block = new
        if len(ids) == count:
            return count
        count = len(ids)


def check_projection(sup, proj, subsets) -> list[str]:
    """Tick projection ``proj`` of ``sup`` with its per-state source subsets."""
    errors: list[str] = []
    if proj.alphabet != sup.alphabet - {TICK}:
        errors.append("projected alphabet is not the supervisor alphabet without tick")
    if len(subsets) != proj.n_states:
        return errors + [f"{len(subsets)} subsets for {proj.n_states} projected states"]
    if sup.n_states == 0:
        return errors
    if sup.initial not in subsets[proj.initial]:
        errors.append("initial supervisor state missing from the initial subset")
    sup_adj = _adjacency(sup.transitions, sup.n_states)
    for b, subset in enumerate(subsets):
        if not subset:
            errors.append(f"projected state {b} has an empty subset")
        for q in subset:
            for e, q2 in sup_adj[q].items():
                if e == TICK:
                    if q2 not in subset:
                        errors.append(f"tick edge {q} -> {q2} leaves the subset of {b}")
                    continue
                b2 = proj.transitions.get((b, e))
                if b2 is None:
                    errors.append(f"event {e} of state {q} undefined at projected state {b}")
                elif q2 not in subsets[b2]:
                    errors.append(f"edge {q} -{e}-> {q2} lands outside the subset of {b2}")
        if (b in proj.marked) != any(q in sup.marked for q in subset):
            errors.append(f"marking of projected state {b} disagrees with its subset")
        if len(errors) >= 5:
            return errors
    for (b, e), b2 in proj.transitions.items():
        if not any(sup_adj[q].get(e) in subsets[b2] for q in subsets[b]):
            errors.append(f"projected edge {b} -{e}-> {b2} has no supervisor edge behind it")
            break
    if not errors and moore_blocks(proj) != proj.n_states:
        errors.append("projection is not minimal: two projected states are equivalent")
    return errors


# ---------------------------------------------------------------------------
# Reconfiguration paths


def backtrackable_edges(gen, events) -> list[dict[int, int]]:
    """Per state, the (event -> target) steps a supervisor can guarantee.

    A step is guaranteed when its event is forcible, or when every other
    eligible event leading elsewhere is prohibitible (tick never is).
    """
    adj = _adjacency(gen.transitions, gen.n_states)
    out: list[dict[int, int]] = []
    for moves in adj:
        keep = {}
        for e, dst in moves.items():
            if events.is_forcible(e) or all(
                    events.is_prohibitible(o) for o, d in moves.items() if d != dst):
                keep[e] = dst
        out.append(keep)
    return out


def _distance(steps: list[dict[int, int]], source: int, target: int, weight) -> int | None:
    """0-1 BFS distance from source to target with per-event weight 0 or 1."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        q = queue.popleft()
        for e, dst in steps[q].items():
            d = dist[q] + weight(e)
            if d < dist.get(dst, d + 1):
                dist[dst] = d
                if weight(e):
                    queue.append(dst)
                else:
                    queue.appendleft(dst)
    return dist.get(target)


def check_paths(gen, events, source: int, target: int, reconfig_event: int,
                paths, best_length=None, best_ticks=None, steps=None) -> list[str]:
    """Solution paths of a reconfiguration problem, and the chosen optima.

    ``paths`` is the returned path list (empty for an unsolvable answer).
    ``steps`` may pass precomputed ``backtrackable_edges`` of ``gen``.
    """
    errors: list[str] = []
    steps = steps if steps is not None else backtrackable_edges(gen, events)
    if (target, reconfig_event) not in gen.transitions:
        errors.append(f"reconfiguration event {reconfig_event} not eligible at target {target}")
    shortest = _distance(steps, source, target, lambda e: 1)
    fewest_ticks = _distance(steps, source, target, lambda e: 1 if e == TICK else 0)
    if shortest is None:
        if paths:
            errors.append(f"{len(paths)} paths returned for a problem with no guaranteed route")
        return errors
    if not paths:
        return errors + [f"no path returned although a guaranteed route of length {shortest} exists"]
    if len(set(paths)) != len(paths):
        errors.append("duplicate paths returned")
    for path in paths:
        q = source
        visited = {q}
        for e in path:
            nxt = steps[q].get(e)
            if nxt is None:
                errors.append(f"path {path}: step {e} at state {q} is not guaranteed")
                break
            if nxt in visited:
                errors.append(f"path {path}: revisits state {nxt}")
                break
            visited.add(nxt)
            q = nxt
        else:
            if q != target:
                errors.append(f"path {path} ends at {q}, not at the target {target}")
        if len(errors) >= 5:
            return errors
    if min(len(p) for p in paths) != shortest:
        errors.append(f"shortest returned path is not of the shortest length {shortest}")
    if min(sum(1 for e in p if e == TICK) for p in paths) != fewest_ticks:
        errors.append(f"no returned path has the fewest ticks {fewest_ticks}")
    if best_length is not None and (best_length not in paths or len(best_length) != shortest):
        errors.append(f"length-optimal choice {best_length} is not a shortest path")
    if best_ticks is not None and (best_ticks not in paths
                                   or sum(1 for e in best_ticks if e == TICK) != fewest_ticks):
        errors.append(f"tick-optimal choice {best_ticks} does not have the fewest ticks")
    return errors
