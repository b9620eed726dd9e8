"""Supremal controllable sublanguage synthesis for timed DES.

Controllability here is the timed notion: a supervisor may never disable an
uncontrollable activity event that the plant can execute, and it may disable
tick only where some forcible event remains eligible under supervision (tick
is preempted, not prohibited).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .automata import (
    Generator,
    _bfs_renumber,
    _product,
    allevents,
    sync_product,
)
from .events import TICK, EventTable, event_name
from .timed import DEFAULT_STATE_CAP, TimedGenerator, timed_graph


@dataclass(frozen=True)
class ControllabilityWitness:
    """A state pair and event at which the controllability condition fails."""

    candidate_state: int
    plant_state: int
    event: int

    def describe(self) -> str:
        return (f"event {event_name(self.event)} uncontrollably eligible at plant state "
                f"{self.plant_state} but not offered at candidate state {self.candidate_state}")


@dataclass(frozen=True)
class Supervisor:
    """A synthesized supervisor: trimmed product automaton plus the plant states it tracks.

    ``plant_states[q]`` is the plant state tracked at supervisor state ``q``.
    The supervisor's control decisions are not stored: an event is disabled
    at ``q`` when the plant can execute it at ``plant_states[q]`` and ``q``
    does not offer it, and ``timed_localize`` reads them off the plant.
    """

    automaton: Generator
    events: EventTable
    plant_states: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return self.automaton.is_empty

    @property
    def n_states(self) -> int:
        return self.automaton.n_states

    @classmethod
    def from_generator(cls, gen: Generator, events: EventTable) -> "Supervisor":
        """Wrap a bare generator (e.g. a projected or localized supervisor).

        No plant is attached, so its plant states are its own states.  The
        reconfiguration solver reads no plant, so it runs on any
        supervisor-shaped automaton; ``timed_localize`` reads the plant at the
        plant states, so it needs a supervisor from ``supcon`` and refuses
        one whose plant states do not follow the plant.
        """
        return cls(gen, events, tuple(range(gen.n_states)))


def _violation(plant_elig: Iterable[int], offered: Collection[int],
               events: EventTable) -> int | None:
    """The least plant-eligible event whose absence from ``offered`` breaks timed controllability.

    That is an uncontrollable event, or tick with no forcible event offered.
    """
    for e in sorted(plant_elig):
        if e in offered:
            continue
        if events.is_uncontrollable(e):
            return e
        if e == TICK and not any(events.is_forcible(f) for f in offered):
            return e
    return None


def controllable(candidate: Generator, plant: TimedGenerator,
                 events: EventTable | None = None) -> tuple[bool, ControllabilityWitness | None]:
    """Check timed controllability of ``candidate`` against ``plant``.

    Checks the reachable pairs of the synchronized product of candidate and
    plant, in BFS discovery order: at each pair every uncontrollable
    plant-eligible event must be eligible in the candidate's own state, and a
    plant-eligible tick the candidate does not offer needs a forcible event
    the candidate offers there to justify the preemption.  On failure the
    first offending pair and its least offending event are the witness.
    """
    events = events or plant.events
    extra = candidate.alphabet - plant.alphabet - {TICK}
    if extra:
        raise ValueError(f"candidate alphabet exceeds plant alphabet: {sorted(extra)}")
    plant_gen = plant.generator
    cand_succ = candidate.out_edges()
    plant_succ = plant_gen.out_edges()
    _, pairs, _ = _product([candidate, plant_gen], [cand_succ, plant_succ],
                           dict.fromkeys(candidate.alphabet | plant_gen.alphabet, (0, 1)))
    for x, p in pairs:
        e = _violation(plant_succ[p], cand_succ[x], events)
        if e is not None:
            return False, ControllabilityWitness(x, p, e)
    return True, None


def supcon(plant: TimedGenerator, spec: Generator,
           events: EventTable | None = None) -> Supervisor:
    """Greatest-fixpoint synthesis of the supremal controllable nonblocking behavior.

    Starts from the fully synchronized product of plant and spec and deletes
    the states that violate controllability or coreachability until none
    does.  A worklist drives the deletions on one adjacency of the product:
    a state deleted for either reason puts its predecessors back on the
    controllability worklist, since only their offered events changed, and
    once the worklist runs dry one backward search from the surviving marked
    states deletes the survivors that cannot reach them.  Both conditions
    only get harder to meet as states go, so the survivors are the unique
    greatest set meeting both, whatever the deletion order.  An empty
    supervisor is a legal outcome.

    A state violates controllability by the rule ``controllable`` checks: the
    plant's eligible events at its plant state against the events leading to
    surviving states.

    The worklist runs on the product's adjacency as ``_product`` discovers
    it; no product generator is built.  Each deletion removes the deleted
    state from its live predecessors' adjacency, so a survivor's adjacency
    is always what it offers.  The result is read off that adjacency.
    """
    events = events or plant.events
    extra = spec.alphabet - plant.alphabet - {TICK}
    if extra:
        raise ValueError(f"spec alphabet exceeds plant alphabet: {sorted(extra)}")
    plant_gen = plant.generator
    alphabet = plant_gen.alphabet | spec.alphabet
    plant_succ = plant_gen.out_edges()
    adj, pairs, marked = _product([plant_gen, spec], [plant_succ, spec.out_edges()],
                                  dict.fromkeys(alphabet, (0, 1)))
    n = len(adj)
    preds: list[list[int]] = [[] for _ in range(n)]
    for q, edges in enumerate(adj):
        for t in edges.values():
            preds[t].append(q)
    alive = [True] * n

    def delete(q: int) -> None:
        alive[q] = False
        for p in preds[q]:
            if alive[p]:
                adj[p] = {e: t for e, t in adj[p].items() if t != q}
        pending.extend(preds[q])

    # The product starts at state 0.
    pending = list(range(n))
    while pending and alive[0]:
        while pending:
            q = pending.pop()
            if alive[q] and _violation(plant_succ[pairs[q][0]], adj[q], events) is not None:
                delete(q)
        coreachable = [False] * n
        stack = [q for q in marked if alive[q]]
        for q in stack:
            coreachable[q] = True
        while stack:
            for p in preds[stack.pop()]:
                if alive[p] and not coreachable[p]:
                    coreachable[p] = True
                    stack.append(p)
        for q in range(n):
            if alive[q] and not coreachable[q]:
                delete(q)

    del preds  # freed before the result is built, to keep the peak down
    if not n or not alive[0]:
        return Supervisor(Generator(0, alphabet, {}, 0, frozenset()), events, ())
    for q in range(n):  # the survivors' adjacency is confined already
        if not alive[q]:
            adj[q] = {}
    gen, order = _bfs_renumber(adj, 0, marked, alphabet)
    plant_states = tuple(pairs[q][0] for q in order)  # ``order`` runs in new-state order
    return Supervisor(gen, events, plant_states)


def mode_timed_graph(component_atgs: Sequence[Generator], reconfig_spec: Generator,
                     events: EventTable, max_states: int = DEFAULT_STATE_CAP) -> TimedGenerator:
    """Timed graph of the components composed with the reconfiguration spec."""
    mode_atg = sync_product(list(component_atgs) + [reconfig_spec])
    return timed_graph(mode_atg, events, max_states=max_states)


def synthesize_tcrs(component_atgs: Sequence[Generator], reconfig_spec: Generator,
                    behavioral_spec: Generator, events: EventTable,
                    reconfig_events: Sequence[int] = (),
                    max_states: int = DEFAULT_STATE_CAP) -> Supervisor:
    """Full synthesis pipeline for a timed centralized reconfiguration supervisor.

    Composes the component ATGs with the reconfiguration specification, builds
    the timed graph, lifts the behavioral specification to the full alphabet
    by composing it with an all-events loop, and synthesizes the supervisor.
    Declared reconfiguration events must appear in the reconfiguration spec
    and be prohibitible.
    """
    supervisor = _synthesize_with_plant(component_atgs, reconfig_spec, behavioral_spec,
                                        events, reconfig_events, max_states)[1]
    if supervisor.is_empty:
        warnings.warn("no admissible behavior", stacklevel=2)
    return supervisor


def _synthesize_with_plant(component_atgs: Sequence[Generator], reconfig_spec: Generator,
                           behavioral_spec: Generator, events: EventTable,
                           reconfig_events: Sequence[int],
                           max_states: int) -> tuple[TimedGenerator, Supervisor]:
    """The ``synthesize_tcrs`` pipeline, also returning its plant, the mode timed graph.

    It does not warn on an empty supervisor; the caller reports that itself.
    """
    for e in reconfig_events:
        if e not in reconfig_spec.alphabet:
            raise ValueError(f"reconfiguration event {e} missing from the reconfiguration spec")
        if e not in events:
            raise ValueError(f"reconfiguration event {e} has no event definition")
        if not events.is_prohibitible(e):
            raise ValueError(f"reconfiguration event {e} must be prohibitible")
    mode_ttg = mode_timed_graph(component_atgs, reconfig_spec, events, max_states)
    lifted = sync_product([allevents(mode_ttg.generator), behavioral_spec])
    return mode_ttg, supcon(mode_ttg, lifted, events)


__all__ = [
    "ControllabilityWitness",
    "Supervisor",
    "controllable",
    "supcon",
    "synthesize_tcrs",
]
