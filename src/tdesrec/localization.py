"""Decentralization of a centralized supervisor into per-event controllers.

Each prohibitible event gets a local event controller carrying exactly that
event's enable/disable decisions, and each forcible event a local tick
controller carrying exactly that event's tick-preemption decisions, both
read off the plant: a supervisor state withholds what the plant offers at its
plant state and it does not, an event is disabled where it is withheld, and
tick is preempted where it is withheld and the forcible event is offered.  A
controller is a quotient of the supervisor under the partition that
``automata._refine`` computes from the labels (owned decision, marked by the
plant but not by the supervisor): states are merged when they agree on those
labels and stay successor-consistent, a state with an event undefined joining
the largest group of its block.  Events whose quotient transitions are
self-loops everywhere are dropped from the controller's alphabet.

A final disambiguation pass keeps the joint state knowledge of plant plus all
controllers injective over supervisor states, so the decentralized closed
loop tracks the centralized supervisor state for state.  The defining
identity is that the closed loop (plant composed with the controllers) is
the supervisor itself, the same generator state for state; if the greedy
construction does not reach it, the trivial localization (every controller a
full supervisor copy) is used instead, which reaches it by construction.

``verify_solution_equivalence`` checks that identity once and solves once:
``trs`` depends only on the generator and the event table, so on a closed
loop equal to the supervisor the decentralized solutions are the centralized
ones, and what the report adds is read off the controllers' alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .automata import (Generator, _bfs_parents, _numbered, _quotient, _refine, renumber_bfs,
                       sync_product)
from .events import TICK, event_name
from .solver import Path, ReconfigProblem, trs
from .synthesis import Supervisor
from .timed import TimedGenerator


@dataclass(frozen=True)
class DecentralizationPackage:
    """Plant, centralized supervisor, and the events localization is based on."""

    plant: TimedGenerator
    supervisor: Supervisor
    event_list: frozenset[int]

    def __post_init__(self) -> None:
        if not self.event_list <= self.supervisor.automaton.alphabet:
            extra = sorted(self.event_list - self.supervisor.automaton.alphabet)
            raise ValueError(f"event list exceeds the supervisor alphabet: {extra}")


def default_event_list(supervisor: Supervisor) -> frozenset[int]:
    """All prohibitible and forcible events of the supervisor alphabet."""
    alpha = supervisor.automaton.alphabet
    ev = supervisor.events
    return frozenset(e for e in alpha
                     if ev.is_prohibitible(e) or ev.is_forcible(e))


@dataclass(frozen=True)
class LocalizedSupervisor:
    """Per-event local controllers and their composition.

    ``tdrs`` composes every tick and event controller: the decentralized
    supervisor.
    """

    tick_controllers: Mapping[int, Generator]
    event_controllers: Mapping[int, Generator]
    tdrs: Generator
    used_fallback: bool


def _split_apart(block: Sequence[int], states: Iterable[int]) -> list[int]:
    """``block`` with each of ``states`` moved into a block of its own."""
    alone = set(states)
    return _numbered((b, s if s in alone else -1) for s, b in enumerate(block))


def _controller(gen: Generator, adj: Sequence[Mapping[int, int]], block: Sequence[int],
                protected: frozenset[int], used: Mapping[int, None]) -> Generator:
    """Quotient of the supervisor under a stable partition, as a local controller.

    ``adj`` is the supervisor's adjacency; its BFS numbering starts it at 0.
    Events outside ``protected`` whose transitions are self-loops at every
    block are dropped from the alphabet.  ``used`` holds the events some
    transition of ``adj`` uses, in order of first use.  Under one block every
    used event is a self-loop, so that quotient is built from ``used`` alone:
    events no transition uses stay in the alphabet, as the quotient keeps them.
    """
    if not any(block):
        return Generator(1, gen.alphabet - (used.keys() - protected),
                         {(0, e): 0 for e in used if e in protected}, 0,
                         frozenset({0}) if gen.marked else frozenset())
    quotient = _quotient(adj, block, gen.marked, gen.alphabet)
    dropped = {e for e in gen.alphabet - protected
               if all(quotient.target(b, e) == b for b in range(quotient.n_states))}
    kept = {(b, e): t for (b, e), t in quotient.transitions.items() if e not in dropped}
    return renumber_bfs(Generator(quotient.n_states, gen.alphabet - dropped, kept,
                                  quotient.initial, quotient.marked))


def timed_localize(pkg: DecentralizationPackage) -> LocalizedSupervisor:
    """Build the decentralized supervisor for a package.

    The result always passes ``verify_localization``: it is the greedy
    localization when that verifies, and the trivial fallback otherwise.
    The supervisor must come from ``supcon``; its labels are what the plant
    offers at its plant states and it withholds.  Raises ``ValueError`` for an
    empty supervisor, an empty event list, or a supervisor outside the
    contract every ``supcon`` result meets: its alphabet is the plant's, its
    states are numbered in BFS order, and it tracks the plant (its initial
    state tracks the plant's, each of its transitions has a matching plant
    transition, and each marked state tracks a marked plant state).  The
    numbering check, the labels, the refinements and the controllers read
    one adjacency of the supervisor, the contract and the labels one of the
    plant.
    """
    sup = pkg.supervisor
    if sup.is_empty:
        raise ValueError("cannot localize an empty supervisor")
    if not pkg.event_list:
        raise ValueError("event list is empty; nothing to localize on")
    ev = sup.events
    gen = sup.automaton
    event_targets = sorted(e for e in pkg.event_list if ev.is_prohibitible(e))
    tick_targets = sorted(e for e in pkg.event_list if ev.is_forcible(e))
    if not event_targets and not tick_targets:
        raise ValueError("event list contains no prohibitible or forcible events")

    plant_gen = pkg.plant.generator
    plant_states = sup.plant_states
    if gen.alphabet != plant_gen.alphabet:
        raise ValueError("supervisor alphabet differs from the plant's")
    adj = gen.out_edges()
    if list(_bfs_parents(adj, gen.initial)) != list(range(gen.n_states)):
        raise ValueError("supervisor states are not numbered in BFS order")
    if plant_states[gen.initial] != plant_gen.initial:
        raise ValueError("supervisor initial state does not track the plant's initial state")
    plant_adj = plant_gen.out_edges()
    withheld = []
    demarked = []
    for x, p in enumerate(plant_states):
        if not (0 <= p < plant_gen.n_states):
            raise ValueError(f"supervisor state {x} tracks unknown plant state {p}")
        plant_edges = plant_adj[p]
        for e, t in adj[x].items():
            if plant_edges.get(e) != plant_states[t]:
                raise ValueError(f"supervisor transition {x} -{event_name(e)}-> {t} has no "
                                 f"plant transition {p} -{event_name(e)}-> {plant_states[t]}")
        if x in gen.marked and p not in plant_gen.marked:
            raise ValueError(f"marked supervisor state {x} tracks unmarked plant state {p}")
        withheld.append(plant_edges.keys() - adj[x].keys())
        demarked.append(p in plant_gen.marked and x not in gen.marked)
    events_sorted = sorted(gen.alphabet)

    partitions: list[tuple[str, int, list[int]]] = []
    for alpha in event_targets:
        labels = [(alpha in withheld[x], demarked[x]) for x in range(gen.n_states)]
        partitions.append(("event", alpha, _refine(labels, adj, events_sorted)))
    for beta in tick_targets:
        labels = [(TICK in withheld[x] and beta in adj[x], demarked[x])
                  for x in range(gen.n_states)]
        partitions.append(("tick", beta, _refine(labels, adj, events_sorted)))

    # Disambiguation: the plant state plus the controllers' joint knowledge
    # must identify the supervisor state, otherwise the decentralized closed
    # loop would conflate histories the centralized supervisor keeps apart.
    # The first partition absorbs whatever splits are needed, in one
    # refinement: ``_refine`` only splits blocks, so each clashing state keeps
    # a block of its own and no key clashes afterwards.
    joint: dict[tuple, list[int]] = {}
    for x in range(gen.n_states):
        key = (plant_states[x],) + tuple(block[x] for _, _, block in partitions)
        joint.setdefault(key, []).append(x)
    clashes = [x for xs in joint.values() if len(xs) > 1 for x in xs]
    if clashes:
        kind, label, anchor = partitions[0]
        partitions[0] = (kind, label, _refine(_split_apart(anchor, clashes), adj, events_sorted))

    used = dict.fromkeys(e for edges in adj for e in edges)
    tick_controllers = {}
    event_controllers = {}
    for kind, label, block in partitions:
        protected = frozenset({label}) if kind == "event" else frozenset({TICK, label})
        controller = _controller(gen, adj, block, protected, used)
        if kind == "event":
            event_controllers[label] = controller
        else:
            tick_controllers[label] = controller

    tdrs = sync_product([tick_controllers[b] for b in tick_targets]
                        + [event_controllers[a] for a in event_targets])
    loc = LocalizedSupervisor(tick_controllers, event_controllers, tdrs, used_fallback=False)
    if verify_localization(pkg, loc):
        return loc
    # Under the contract checked above, the trivial localization's closed loop
    # is the supervisor by construction, and so is its composition: copies of
    # a generator compose to its diagonal, numbered as the supervisor is
    # (DECISIONS.md, "The fallback is the supervisor by construction").
    return LocalizedSupervisor({beta: gen for beta in tick_targets},
                               {alpha: gen for alpha in event_targets}, gen, used_fallback=True)


def verify_localization(pkg: DecentralizationPackage, loc: LocalizedSupervisor) -> bool:
    """Defining identity: plant composed with the controllers is the supervisor.

    Events absent from the decentralized alphabet are unconstrained, so the
    composition is synchronous (an inverse-projection intersection).  The
    closed loop must equal the supervisor as a generator, state for state and
    numbered alike, not only in language: the solver works on states.
    """
    return decentralized_closed_loop(pkg, loc).automaton == pkg.supervisor.automaton


def decentralized_closed_loop(pkg: DecentralizationPackage,
                              loc: LocalizedSupervisor) -> Supervisor:
    """The plant running under the decentralized controllers, as a supervisor."""
    gen = sync_product([pkg.plant.generator, loc.tdrs])
    return Supervisor.from_generator(gen, pkg.supervisor.events)


@dataclass(frozen=True)
class SolutionEquivalenceReport:
    """Outcome of comparing centralized and decentralized solving.

    A report exists only for a closed loop equal to the supervisor, on which
    the decentralized solutions are the centralized ones.  The two flags say
    whether the reconfiguration event lies in some tick controller's and some
    event controller's alphabet.
    """

    centralized: frozenset[Path]
    sigma_r_in_tick_alphabet: bool
    sigma_r_in_event_alphabet: bool
    used_fallback: bool

    def describe(self) -> list[str]:
        # Under the identity a side replays every solution with the event
        # eligible exactly when the event is in its alphabet (DECISIONS.md,
        # "The closed loop is the supervisor").
        tick = 'yes' if self.sigma_r_in_tick_alphabet else 'no'
        event = 'yes' if self.sigma_r_in_event_alphabet else 'no'
        return [
            f"centralized solutions: {len(self.centralized)}",
            f"decentralized solutions: {len(self.centralized)}",
            "solution sets identical: yes",
            f"reconfiguration event in tick-controller alphabet: {tick}",
            f"reconfiguration event in event-controller alphabet: {event}",
            f"paths replayed in tick controllers with the event eligible: {tick}",
            f"paths replayed in event controllers with the event eligible: {event}",
            f"greedy localization used: {'no (fallback)' if self.used_fallback else 'yes'}",
        ]


def verify_solution_equivalence(pkg: DecentralizationPackage, loc: LocalizedSupervisor,
                                problem: ReconfigProblem,
                                max_nodes: int | None = None) -> SolutionEquivalenceReport:
    """Solve the problem once, and check that the closed loop under ``loc`` is the supervisor.

    ``trs`` depends only on the generator, its event table and the problem, so
    once the closed loop equals the supervisor (``ValueError`` otherwise) the
    decentralized solutions are the centralized ones, with no second solve.
    The problem must be posed on the package's own supervisor, on which that
    identity speaks (``ValueError`` otherwise).  ``max_nodes`` bounds the
    solve as it bounds ``trs``.
    """
    if problem.supervisor.automaton != pkg.supervisor.automaton:
        raise ValueError("problem is not posed on the package's supervisor")
    sigma_r = problem.reconfig_event
    ev = pkg.supervisor.events
    if not (ev.is_prohibitible(sigma_r) and ev.is_forcible(sigma_r)):
        raise ValueError(
            f"reconfiguration event {event_name(sigma_r)} must be declared both "
            "prohibitible and forcible for decentralized solving")
    central = trs(problem, max_nodes)
    if not central.solvable:
        raise ValueError("problem is unsolvable on the centralized supervisor")
    if not verify_localization(pkg, loc):
        raise ValueError("decentralized closed loop differs from the supervisor")
    return SolutionEquivalenceReport(
        frozenset(central.paths),
        any(sigma_r in g.alphabet for g in loc.tick_controllers.values()),
        any(sigma_r in g.alphabet for g in loc.event_controllers.values()),
        loc.used_fallback)
