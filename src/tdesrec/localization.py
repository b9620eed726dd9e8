"""Decentralization of a centralized supervisor into per-event controllers.

Each prohibitible event gets a local event controller carrying exactly that
event's enable/disable decisions, and each forcible event a local tick
controller carrying exactly that event's tick-preemption decisions: the
supervisor's disablement and preemption record, ``Supervisor.disabled`` and
``Supervisor.tick_preempted`` (where the forcible event is offered).  A
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
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .automata import (Generator, _bfs_parents, _numbered, _quotient, _refine, _successors,
                       renumber_bfs, sync_product)
from .events import TICK, event_name
from .solver import Path, ReconfigProblem, state_witness, trs
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
    """Per-event local controllers and their compositions.

    ``loc_p`` composes the tick controllers, ``loc_c`` the event controllers,
    and ``tdrs`` is their joint composition: the decentralized supervisor.
    """

    tick_controllers: Mapping[int, Generator]
    event_controllers: Mapping[int, Generator]
    loc_p: Generator
    loc_c: Generator
    tdrs: Generator
    used_fallback: bool


def _neutral_generator() -> Generator:
    """Identity element of synchronous composition: one marked state, no events."""
    return Generator(1, frozenset(), {}, 0, frozenset({0}))


def _split_apart(block: Sequence[int], states: Iterable[int]) -> list[int]:
    """``block`` with each of ``states`` moved into a block of its own."""
    alone = set(states)
    return _numbered((b, s if s in alone else -1) for s, b in enumerate(block))


def _controller(gen: Generator, block: Sequence[int], protected: frozenset[int]) -> Generator:
    """Quotient of the supervisor under a stable partition, as a local controller.

    Events outside ``protected`` whose transitions are self-loops at every
    block are dropped from the alphabet.
    """
    quotient = _quotient(gen, block)
    dropped = {e for e in gen.alphabet - protected
               if all(quotient.target(b, e) == b for b in range(quotient.n_states))}
    kept = {(b, e): t for (b, e), t in quotient.transitions.items() if e not in dropped}
    return renumber_bfs(Generator(quotient.n_states, gen.alphabet - dropped, kept,
                                  quotient.initial, quotient.marked))


def timed_localize(pkg: DecentralizationPackage) -> LocalizedSupervisor:
    """Build the decentralized supervisor for a package.

    The result always passes ``verify_localization``: it is the greedy
    localization when that verifies, and the trivial fallback otherwise.
    The supervisor must come from ``supcon``, whose record and plant states
    give the labels.  Raises ``ValueError`` for an empty supervisor, an empty
    event list, or a supervisor outside the contract every ``supcon`` result
    meets: its alphabet is the plant's, its states are numbered in BFS order,
    and it tracks the plant (its initial state tracks the plant's, each of its
    transitions has a matching plant transition, and each marked state tracks
    a marked plant state).
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
    if list(_bfs_parents(gen.out_edges(), gen.initial)) != list(range(gen.n_states)):
        raise ValueError("supervisor states are not numbered in BFS order")
    if plant_states[gen.initial] != plant_gen.initial:
        raise ValueError("supervisor initial state does not track the plant's initial state")
    adj = _successors(gen)
    demarked = []
    for x, p in enumerate(plant_states):
        if not (0 <= p < plant_gen.n_states):
            raise ValueError(f"supervisor state {x} tracks unknown plant state {p}")
        for e, t in adj[x].items():
            if plant_gen.transitions.get((p, e)) != plant_states[t]:
                raise ValueError(f"supervisor transition {x} -{event_name(e)}-> {t} has no "
                                 f"plant transition {p} -{event_name(e)}-> {plant_states[t]}")
        if x in gen.marked and p not in plant_gen.marked:
            raise ValueError(f"marked supervisor state {x} tracks unmarked plant state {p}")
        demarked.append(p in plant_gen.marked and x not in gen.marked)
    events_sorted = sorted(gen.alphabet)

    partitions: list[tuple[str, int, list[int]]] = []
    for alpha in event_targets:
        labels = [(alpha in sup.disabled[x], demarked[x]) for x in range(gen.n_states)]
        partitions.append(("event", alpha, _refine(labels, adj, events_sorted)))
    for beta in tick_targets:
        labels = [(sup.tick_preempted[x] and beta in adj[x], demarked[x])
                  for x in range(gen.n_states)]
        partitions.append(("tick", beta, _refine(labels, adj, events_sorted)))

    # Disambiguation: the plant state plus the controllers' joint knowledge
    # must identify the supervisor state, otherwise the decentralized closed
    # loop would conflate histories the centralized supervisor keeps apart.
    # The first partition absorbs whatever splits are needed.
    while True:
        joint: dict[tuple, list[int]] = {}
        for x in range(gen.n_states):
            key = (plant_states[x],) + tuple(block[x] for _, _, block in partitions)
            joint.setdefault(key, []).append(x)
        clashes = [x for xs in joint.values() if len(xs) > 1 for x in xs]
        if not clashes:
            break
        kind, label, anchor = partitions[0]
        partitions[0] = (kind, label, _refine(_split_apart(anchor, clashes), adj, events_sorted))

    tick_controllers = {}
    event_controllers = {}
    for kind, label, block in partitions:
        protected = frozenset({label}) if kind == "event" else frozenset({TICK, label})
        controller = _controller(gen, block, protected)
        if kind == "event":
            event_controllers[label] = controller
        else:
            tick_controllers[label] = controller

    loc = _compose(tick_controllers, event_controllers, used_fallback=False)
    if verify_localization(pkg, loc):
        return loc
    # Under the contract checked above, the trivial localization's closed loop
    # is the supervisor by construction (DECISIONS.md, "The closed loop is the
    # supervisor"), so it is not checked again.
    return _compose({beta: gen for beta in tick_targets},
                    {alpha: gen for alpha in event_targets}, used_fallback=True)


def _compose(tick_controllers: Mapping[int, Generator],
             event_controllers: Mapping[int, Generator],
             used_fallback: bool) -> LocalizedSupervisor:
    tick_list = [tick_controllers[b] for b in sorted(tick_controllers)]
    event_list = [event_controllers[a] for a in sorted(event_controllers)]
    loc_p = sync_product(tick_list) if tick_list else _neutral_generator()
    loc_c = sync_product(event_list) if event_list else _neutral_generator()
    tdrs = sync_product([loc_p, loc_c])
    return LocalizedSupervisor(dict(tick_controllers), dict(event_controllers),
                               loc_p, loc_c, tdrs, used_fallback)


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

    ``decentralized`` and ``equal`` follow from the defining identity: a
    report exists only for a closed loop equal to the supervisor, on which
    the decentralized solutions are the centralized ones.
    """

    centralized: frozenset[Path]
    decentralized: frozenset[Path]
    equal: bool
    sigma_r_in_tick_alphabet: bool
    sigma_r_in_event_alphabet: bool
    replay_ok_tick_side: bool
    replay_ok_event_side: bool
    used_fallback: bool

    def describe(self) -> list[str]:
        return [
            f"centralized solutions: {len(self.centralized)}",
            f"decentralized solutions: {len(self.decentralized)}",
            f"solution sets identical: {'yes' if self.equal else 'no'}",
            f"reconfiguration event in tick-controller alphabet: "
            f"{'yes' if self.sigma_r_in_tick_alphabet else 'no'}",
            f"reconfiguration event in event-controller alphabet: "
            f"{'yes' if self.sigma_r_in_event_alphabet else 'no'}",
            f"paths replayed in tick controllers with the event eligible: "
            f"{'yes' if self.replay_ok_tick_side else 'no'}",
            f"paths replayed in event controllers with the event eligible: "
            f"{'yes' if self.replay_ok_event_side else 'no'}",
            f"greedy localization used: {'no (fallback)' if self.used_fallback else 'yes'}",
        ]


def _replay_side(side: Generator, start_witness: Path, paths: frozenset[Path],
                 sigma_r: int) -> bool:
    """Replay each path's projection onto the side alphabet; the
    reconfiguration event must be eligible at every endpoint."""
    if sigma_r not in side.alphabet:
        return False
    restrict = lambda p: tuple(e for e in p if e in side.alphabet)
    origin = side.run(restrict(start_witness))
    if origin is None:
        return False
    for path in paths:
        end = side.run(restrict(path), start=origin)
        if end is None or side.target(end, sigma_r) is None:
            return False
    return True


def verify_solution_equivalence(pkg: DecentralizationPackage, loc: LocalizedSupervisor,
                                problem: ReconfigProblem) -> SolutionEquivalenceReport:
    """Solve the problem once, and check that the closed loop under ``loc`` is the supervisor.

    ``trs`` depends only on the generator, its event table and the problem, so
    once the closed loop equals the supervisor (``ValueError`` otherwise) the
    decentralized solutions are the centralized ones: ``decentralized`` and
    ``equal`` follow from that identity, with no second solve.  Each solution
    is additionally replayed inside the composed tick and event controllers
    through their projections, from the shortest string reaching the source,
    checking the reconfiguration event is eligible at both endpoints.
    """
    sigma_r = problem.reconfig_event
    ev = pkg.supervisor.events
    if not (ev.is_prohibitible(sigma_r) and ev.is_forcible(sigma_r)):
        raise ValueError(
            f"reconfiguration event {event_name(sigma_r)} must be declared both "
            "prohibitible and forcible for decentralized solving")
    central = trs(problem)
    if not central.solvable:
        raise ValueError("problem is unsolvable on the centralized supervisor")

    if not verify_localization(pkg, loc):
        raise ValueError("decentralized closed loop differs from the supervisor")
    source_witness = state_witness(pkg.supervisor.automaton, problem.source)

    central_set = frozenset(central.paths)
    replay_p = _replay_side(loc.loc_p, source_witness, central_set, sigma_r)
    replay_c = _replay_side(loc.loc_c, source_witness, central_set, sigma_r)
    return SolutionEquivalenceReport(
        central_set, central_set, True,
        sigma_r in loc.loc_p.alphabet, sigma_r in loc.loc_c.alphabet,
        replay_p, replay_c, loc.used_fallback)

