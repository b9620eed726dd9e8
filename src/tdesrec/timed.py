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
timer values aligned with the sorted ATG alphabet).  Per activity, the
events whose deadline blocks tick, the timers a tick counts down and each
move's target and kept timers are tabulated once, so a step is one tuple
built from the timers, these tables and the default timers.  States are
numbered in BFS discovery order, tick before the events in label order.
The ``TimedGenerator`` keeps the packed states, and builds the
``TimedState`` records only when ``timed_states`` is first read: synthesis,
localization and solving never read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automata import Generator
from .events import TICK, EventTable

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class TimedState:
    """An activity of the source ATG plus the current timer of each event."""

    activity: int
    timers: tuple[tuple[int, int], ...]

    def timer(self, label: int) -> int:
        for lbl, value in self.timers:
            if lbl == label:
                return value
        raise KeyError(label)


@dataclass(frozen=True)
class TimedGenerator:
    """A generator over the activity alphabet plus tick, with timed-state metadata.

    ``packed[q]`` is timed state ``q`` as the pair (activity, timer values),
    the values aligned with ``timer_labels``, the sorted ATG alphabet.  The
    packed fields take part in equality, so equal timed generators have equal
    timed states.
    """

    generator: Generator
    events: EventTable
    packed: tuple[tuple[int, tuple[int, ...]], ...]
    timer_labels: tuple[int, ...]

    @cached_property
    def timed_states(self) -> tuple[TimedState, ...]:
        """One ``TimedState`` per state, built from ``packed`` on first read."""
        labels = self.timer_labels
        # One shared (label, value) pair per timer value; no timer exceeds its default.
        pairs = [[(e, v) for v in range(self.events[e].default_timer + 1)] for e in labels]
        return tuple(TimedState(activity, tuple([p[t] for p, t in zip(pairs, timers)]))
                     for activity, timers in self.packed)

    @property
    def n_states(self) -> int:
        return self.generator.n_states

    @property
    def alphabet(self) -> frozenset[int]:
        return self.generator.alphabet


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
    defs = [events[e] for e in labels]
    defaults = tuple(d.default_timer for d in defs)
    # An enabled event is eligible once its timer is at most its bound.
    bound = {e: 0 if d.is_remote else d.upper - d.lower for e, d in zip(labels, defs)}
    position = {e: i for i, e in enumerate(labels)}
    adj = atg.out_edges()
    enabled_at = [frozenset(edges) for edges in adj]
    # Per activity: the timers whose 0 blocks tick, which timers a tick
    # counts down (the others reset), and the moves in event order.
    deadlines: list[tuple[int, ...]] = []
    tick_keep: list[tuple[bool, ...]] = []
    moves: list[list[tuple[int, int, int, int, tuple[bool, ...]]]] = []
    for enabled, edges in zip(enabled_at, adj):
        deadlines.append(tuple(i for i, e in enumerate(labels)
                               if e in enabled and defs[i].is_prospective))
        tick_keep.append(tuple(e in enabled for e in labels))
        moves.append([
            (e, position[e], bound[e], dst,
             tuple(f != e and f in enabled and f in enabled_at[dst] for f in labels))
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
        if all([timers[i] for i in deadlines[activity]]):
            steps.append((TICK, (activity, tuple([
                (t - 1 if t else 0) if keep else d
                for t, keep, d in zip(timers, tick_keep[activity], defaults)]))))
        for e, i, limit, dst, keep_vector in moves[activity]:
            if timers[i] <= limit:
                steps.append((e, (dst, tuple([
                    t if keep else d
                    for t, keep, d in zip(timers, keep_vector, defaults)]))))
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
    return TimedGenerator(gen, events, tuple(states), tuple(labels))

