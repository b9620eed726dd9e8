"""Timed transition graph construction from an activity transition graph.

An activity transition graph (ATG) describes untimed moves between
activities.  Adjoining per-event timers and the global ``tick`` event yields
the explicit-state timed transition graph (TTG):

* tick is eligible unless some enabled prospective event sits at its deadline
  (timer 0); a tick decrements the timer of every enabled event (remote
  timers floor at 0) and resets timers of disabled events to their default;
* a prospective event is eligible when enabled and its timer has dropped to
  at most ``upper - lower``; a remote event when enabled and its timer is 0;
* on occurrence of an event, its own timer resets; any other event keeps its
  timer exactly when it stays enabled across the move, and resets otherwise.

Marked timed states are those whose activity is marked in the ATG, with no
restriction on the timer component.

While exploring, a timed state is packed as the pair (activity, tuple of
timer values aligned with the sorted ATG alphabet).  Per activity,
``operator.itemgetter`` pickers are tabulated once.  One picks the deadline
timers: tick is allowed exactly when none of them is 0.  One picks the
tick's successor and one per move picks that move's successor, each from the
timers followed by the default timers, so that index ``i`` keeps timer ``i``
and index ``n + i`` resets it; a tick first passes the timers through the
decrement table ``max(t - 1, 0)``.  So each successor tuple is built in C.
States are numbered in BFS discovery order, tick before the events in label
order.
The ``TimedGenerator`` keeps the states in this packed form only.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .automata import Generator
from .events import TICK, EventTable

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class TimedGenerator:
    """A generator over the activity alphabet plus tick, with its timed states.

    ``packed[q]`` is timed state ``q`` as the pair (activity, timer values),
    the values aligned with the sorted ATG alphabet,
    ``sorted(generator.alphabet - {TICK})``.  ``packed`` takes part in
    equality, so equal timed generators have equal timed states.
    """

    generator: Generator
    events: EventTable
    packed: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def n_states(self) -> int:
        return self.generator.n_states

    @property
    def alphabet(self) -> frozenset[int]:
        return self.generator.alphabet


def _picker(indices: list[int]) -> itemgetter:
    """The tuple of a tuple's items at ``indices``, picked in C.

    ``itemgetter`` returns a bare item for one index and refuses none, so
    those take a slice, which always gives a tuple.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def timed_graph(atg: Generator, events: EventTable,
                max_states: int = DEFAULT_STATE_CAP) -> TimedGenerator:
    """Forward exploration of the timed transition graph of ``atg``.

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
    n = len(labels)
    defs = [events[e] for e in labels]
    defaults = tuple(d.default_timer for d in defs)
    # An enabled event is eligible once its timer is at most its bound.
    bound = {e: 0 if d.is_remote else d.upper - d.lower for e, d in zip(labels, defs)}
    position = {e: i for i, e in enumerate(labels)}
    # No timer exceeds its default, so the table covers every timer value.
    decrement = tuple(max(t - 1, 0) for t in range(max(defaults, default=0) + 1)).__getitem__
    adj = atg.out_edges()
    enabled_at = [frozenset(edges) for edges in adj]
    # Per activity: the deadline timers, picked from the timers; the tick's
    # and each move's successor, picked from ``timers + defaults`` (timer
    # ``i`` kept from position ``i`` or reset from ``n + i``), the tick's
    # after the timers pass through the decrement table.
    deadline: list[itemgetter] = []
    tick: list[itemgetter] = []
    moves: list[list[tuple[int, int, int, int, itemgetter]]] = []
    for enabled, edges in zip(enabled_at, adj):
        deadline.append(_picker([i for i, e in enumerate(labels)
                                 if e in enabled and defs[i].is_prospective]))
        tick.append(_picker([i if e in enabled else n + i for i, e in enumerate(labels)]))
        moves.append([
            (e, position[e], bound[e], dst,
             _picker([i if f != e and f in enabled and f in enabled_at[dst] else n + i
                      for i, f in enumerate(labels)]))
            for e, dst in sorted(edges.items())
        ])

    start = (atg.initial, defaults)
    index: dict[tuple[int, tuple[int, ...]], int] = {start: 0}
    states: list[tuple[int, tuple[int, ...]]] = [start]
    transitions: dict[tuple[int, int], int] = {}
    sid = 0
    while sid < len(states):
        activity, timers = states[sid]
        steps = []
        if 0 not in deadline[activity](timers):
            steps.append((TICK, (activity, tick[activity](
                tuple(map(decrement, timers)) + defaults))))
        ext = timers + defaults
        for e, i, limit, dst, pick in moves[activity]:
            if timers[i] <= limit:
                steps.append((e, (dst, pick(ext))))
        for event, state in steps:
            target = index.get(state)
            if target is None:
                if len(index) >= max_states:
                    raise ValueError(f"timed graph exceeds {max_states} states")
                target = index[state] = len(states)
                states.append(state)
            transitions[(sid, event)] = target
        sid += 1
    del index

    marked = frozenset(i for i, (activity, _) in enumerate(states)
                       if activity in atg.marked)
    gen = Generator(len(states), frozenset(labels) | {TICK}, transitions, 0, marked)
    return TimedGenerator(gen, events, tuple(states))

