"""The criterion-6 family of large random timed models, rebuilt from seeds.

Instance ``k`` of family seed ``F`` draws from its own ``random.Random``, so
a pinned instance can be rebuilt without replaying the ones before it.  The
draws follow ``tests/util.py`` (``random_atg`` with up to 8 activities and 6
events, timer bounds up to 4, density 0.8, forcible share 0.35, then either
the all-events spec or a random 2-state spec over the timed alphabet), so the
instances come from the same distribution as criterion 6's.

A run seed does not pick other instances: it renames the events of each
pinned instance (a random injective relabelling into 1..60).  Renamed
instances are isomorphic, so every seed does the same work while the
program still sees new labels, a new exploration order and new state
numbers; drawing fresh instances per seed would make the heavy-tailed costs
of this family (milliseconds to seconds per instance) a function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tdesrec.automata import Generator, allevents, renumber_bfs
from tdesrec.events import PROHIBITIBLE, TICK, UNCONTROLLABLE, EventDef, EventTable

FAMILY_SEED = 106
MAX_ACTIVITIES = 8
MAX_EVENTS = 6
MAX_BOUND = 4
DENSITY = 0.8
FORCIBLE_P = 0.35
UNCONTROLLABLE_P = 0.4
MIN_TTG_STATES = 200
MAX_TTG_STATES = 5000
LABEL_RANGE = 60


@dataclass(frozen=True)
class Instance:
    """An activity graph, its event table and a spec over its timed alphabet."""

    key: int
    atg: Generator
    events: EventTable
    spec: Generator


def _random_generator(rng: random.Random, max_states: int, alphabet: tuple[int, ...],
                      density: float, marked_p: float) -> Generator:
    n = rng.randint(1, max_states)
    transitions = {}
    for s in range(n):
        for e in alphabet:
            if rng.random() < density:
                transitions[(s, e)] = rng.randrange(n)
    marked = frozenset(s for s in range(n) if rng.random() < marked_p)
    if not marked:
        marked = frozenset({rng.randrange(n)})
    return renumber_bfs(Generator(n, frozenset(alphabet), transitions, 0, marked))


def _random_events(rng: random.Random, labels: tuple[int, ...]) -> EventTable:
    defs = []
    for label in labels:
        control = UNCONTROLLABLE if rng.random() < UNCONTROLLABLE_P else PROHIBITIBLE
        forcible = rng.random() < FORCIBLE_P
        if rng.random() < 0.5:
            lower, upper = rng.randint(0, MAX_BOUND), None
        else:
            lower = rng.randint(0, MAX_BOUND)
            upper = rng.randint(lower, MAX_BOUND)
        defs.append(EventDef(label, control, forcible, lower, upper))
    return EventTable(defs)


def candidate(key: int, family_seed: int = FAMILY_SEED) -> Instance:
    """Candidate ``key`` of the family, before any size filter."""
    rng = random.Random(family_seed * 1_000_003 + key)
    labels = tuple(range(1, rng.randint(1, MAX_EVENTS) + 1))
    events = _random_events(rng, labels)
    atg = _random_generator(rng, MAX_ACTIVITIES, labels, DENSITY, 0.5)
    timed_alphabet = tuple(sorted(set(labels) | {TICK}))
    if rng.random() < 0.5:
        spec = allevents(Generator(1, frozenset(timed_alphabet), {}, 0, frozenset()))
    else:
        spec = _random_generator(rng, 2, timed_alphabet, 0.9, 0.9)
    return Instance(key, atg, events, spec)


def relabel(inst: Instance, seed: int) -> Instance:
    """An isomorphic copy of ``inst`` whose events carry seed-drawn labels."""
    rng = random.Random(seed * 7919 + inst.key)
    old = sorted(inst.events.labels)
    new = rng.sample(range(1, LABEL_RANGE + 1), len(old))
    rename = dict(zip(old, new))
    rename[TICK] = TICK

    def gen(g: Generator) -> Generator:
        return Generator(g.n_states, frozenset(rename[e] for e in g.alphabet),
                         {(s, rename[e]): t for (s, e), t in g.transitions.items()},
                         g.initial, g.marked)

    events = EventTable(EventDef(rename[d.label], d.control, d.forcible, d.lower, d.upper)
                        for d in inst.events)
    return Instance(inst.key, gen(inst.atg), events, gen(inst.spec))
