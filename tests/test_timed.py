"""Timed transition graph construction against hand-simulated timer rules."""

import dataclasses
import random
import types

import pytest

from tdesrec.automata import Generator
from tdesrec.events import PROHIBITIBLE, TICK, UNCONTROLLABLE, EventDef, EventTable
from tdesrec.timed import TimedGenerator, timed_graph
from util import (bounded_language, check_bound_soundness, check_deadline_soundness,
                  check_remote_liveness, oracle_timed_graph, oracle_timed_states,
                  random_atg)


def one_loop_atg(label):
    return Generator(1, frozenset({label}), {(0, label): 0}, 0, frozenset({0}))


class TestTimedGraphSmall:
    def test_prospective_unit_window(self):
        # One activity, one self-loop event with bounds (1,1): the event needs
        # exactly one tick, and at its deadline it preempts the clock, so the
        # closed behavior is the prefix closure of (tick sigma)*.
        events = EventTable([EventDef(5, UNCONTROLLABLE, lower=1, upper=1)])
        ttg = timed_graph(one_loop_atg(5), events)
        assert ttg.n_states == 2
        closed, _ = bounded_language(ttg.generator, 4)
        assert closed == {(), (TICK,), (TICK, 5), (TICK, 5, TICK),
                          (TICK, 5, TICK, 5)}

    def test_remote_needs_lower_bound_ticks(self):
        # One remote self-loop with lower bound 2: tick is always possible,
        # the event fires only once two ticks have elapsed.
        events = EventTable([EventDef(5, UNCONTROLLABLE, lower=2, upper=None)])
        ttg = timed_graph(one_loop_atg(5), events)
        assert ttg.n_states == 3
        gen = ttg.generator
        closed, _ = bounded_language(gen, 3)
        assert (TICK, TICK, 5) in closed
        assert (5,) not in closed
        assert (TICK, 5) not in closed
        assert all((TICK,) * k in closed for k in range(4))

    def test_atg_without_events(self):
        atg = Generator(1, frozenset(), {}, 0, frozenset({0}))
        ttg = timed_graph(atg, EventTable([]))
        assert ttg.n_states == 1
        assert ttg.generator.transitions == {(0, TICK): 0}

    def test_zero_lower_bound_immediately_eligible(self):
        events = EventTable([EventDef(5, UNCONTROLLABLE, lower=0, upper=3)])
        ttg = timed_graph(one_loop_atg(5), events)
        assert 5 in ttg.generator.eligible(0)

    def test_missing_event_definition(self):
        with pytest.raises(ValueError, match="no event definition for event 5"):
            timed_graph(one_loop_atg(5), EventTable([]))

    def test_tick_in_atg_rejected(self):
        atg = Generator(1, frozenset({TICK}), {(0, TICK): 0}, 0, frozenset({0}))
        with pytest.raises(ValueError, match="tick"):
            timed_graph(atg, EventTable([]))

    def test_state_cap(self):
        events = EventTable([EventDef(5, UNCONTROLLABLE, lower=2, upper=None)])
        with pytest.raises(ValueError, match="exceeds"):
            timed_graph(one_loop_atg(5), events, max_states=2)

    def test_timer_kept_only_while_enabled(self):
        # Event 7 is enabled at both activities, event 5 moves between them;
        # 7's timer must persist across the 5-step.  Event 9 is enabled only
        # at the first activity and must reset when re-entering.
        atg = Generator(2, frozenset({5, 7, 9}),
                        {(0, 5): 1, (1, 5): 0, (0, 7): 0, (1, 7): 1, (0, 9): 0},
                        0, frozenset({0}))
        events = EventTable([
            EventDef(5, PROHIBITIBLE, lower=0, upper=2),
            EventDef(7, UNCONTROLLABLE, lower=2, upper=None),
            EventDef(9, UNCONTROLLABLE, lower=1, upper=None),
        ])
        ttg = timed_graph(atg, events)
        gen = ttg.generator
        # tick then 5: 7 was enabled before and after 5, so one elapsed tick
        # survives and one more tick suffices for 7.
        q = gen.run((TICK, 5, TICK))
        assert q is not None and 7 in gen.eligible(q)
        # 9 disabled at activity 1 resets: after returning, one old tick must
        # not count.
        q = gen.run((TICK, 5, TICK, 5))
        assert q is not None and 9 not in gen.eligible(q)


class TestTimedInvariants:
    def test_soundness_on_random_atgs(self):
        rng = random.Random(20)
        checked = 0
        while checked < 40:
            atg, events = random_atg(rng, max_activities=5, max_events=4,
                                     max_bound=3)
            try:
                ttg = timed_graph(atg, events, max_states=300)
            except ValueError:
                continue
            check_deadline_soundness(atg, ttg)
            check_remote_liveness(atg, ttg)
            if ttg.n_states <= 200:
                check_bound_soundness(atg, ttg)
            checked += 1

    def test_reproducible_construction(self):
        rng = random.Random(21)
        for _ in range(15):
            atg, events = random_atg(rng, max_activities=4, max_events=3)
            try:
                a = timed_graph(atg, events, max_states=500)
                b = timed_graph(atg, events, max_states=500)
            except ValueError:
                continue
            assert a.generator == b.generator
            assert a.packed == b.packed


class TestTimedGraphReference:
    @staticmethod
    def _cases(atg, ttg):
        """Which timer rules the event steps of ``ttg`` exercise, and which
        shapes of the per-activity tables its construction meets."""
        events, states = ttg.events, ttg.packed
        labels = sorted(atg.alphabet)
        enabled = [atg.eligible(a) for a in range(atg.n_states)]
        adj = ttg.generator.out_edges()
        seen = set()
        if len(labels) == 1:
            seen.add("one-event alphabet")  # a single timer: no bare item
        for activity in {activity for activity, _ in states}:
            if not any(events[e].is_prospective for e in enabled[activity]):
                seen.add("no prospective event")  # no timer blocks tick
            if any(events[e].default_timer == 0 for e in enabled[activity]):
                seen.add("default 0")  # a timer at 0 on enablement
        for q, edges in enumerate(adj):
            for e, dst in edges.items():
                if e == TICK:
                    continue
                d = events[e]
                seen.add("remote" if d.is_remote else
                         "lower == upper" if d.lower == d.upper else "window")
                if d.is_prospective and d.upper - d.lower >= 3:
                    seen.add("bound >= 3")
                if d.lower == 0:
                    seen.add("lower == 0")
                (before, timers), (after, _) = states[q], states[dst]
                for f in enabled[before] - {e}:
                    if f in enabled[after]:
                        if timers[labels.index(f)] < events[f].default_timer:
                            seen.add("kept across a move")
                    elif any(f in enabled[states[nxt][0]] for nxt in adj[dst].values()):
                        seen.add("disabled then re-enabled")
        return seen

    def test_packed_construction_matches_dict_oracle(self):
        # Exact equality with the reference construction: the generator, the
        # transitions in insertion order and every timed state (the packing
        # against the reference's own records), then both constructions at
        # the state guard's boundary.
        rng = random.Random(1101)
        cases = dict.fromkeys(("remote", "lower == upper", "lower == 0",
                               "kept across a move", "disabled then re-enabled"), 0)
        shapes = dict.fromkeys(("one-event alphabet", "no prospective event", "default 0",
                                "bound >= 3"), 0)
        checked = 0
        while checked < 1000:
            atg, events = random_atg(rng, max_activities=5, max_events=4,
                                     max_bound=3)
            try:
                gen, records = oracle_timed_states(atg, events, max_states=2000)
            except ValueError:
                with pytest.raises(ValueError, match="exceeds 2000 states"):
                    timed_graph(atg, events, max_states=2000)
                continue
            ttg = timed_graph(atg, events, max_states=2000)
            assert ttg.generator == gen
            assert list(ttg.generator.transitions.items()) == list(gen.transitions.items())
            labels = sorted(atg.alphabet)
            assert [(a, tuple(zip(labels, t))) for a, t in ttg.packed] == [
                (r.activity, r.timers) for r in records]
            n = ttg.n_states
            assert timed_graph(atg, events, max_states=n) == ttg
            assert oracle_timed_graph(atg, events, max_states=n) == ttg
            if n > 1:
                for build in (timed_graph, oracle_timed_graph):
                    with pytest.raises(ValueError, match=f"exceeds {n - 1} states"):
                        build(atg, events, max_states=n - 1)
            for case in self._cases(atg, ttg):
                for counter in (cases, shapes):
                    if case in counter:
                        counter[case] += 1
            checked += 1
        assert min(cases.values()) >= 50, cases
        assert min(shapes.values()) >= 1, shapes


class TestOneForm:
    # A timed state has one form, the packed (activity, timers) pair; a
    # second form re-added to the library changes these pins.
    def test_timed_generator_fields(self):
        assert [f.name for f in dataclasses.fields(TimedGenerator)] == [
            "generator", "events", "packed"]
        assert [n for n in dir(TimedGenerator) if not n.startswith("_")] == [
            "alphabet", "n_states"]

    def test_package_public_names(self):
        import tdesrec

        assert sorted(n for n, obj in vars(tdesrec).items()
                      if not n.startswith("_") and not isinstance(obj, types.ModuleType)) == [
            "CommutativityReport", "DecentralizationPackage", "EventDef", "EventTable",
            "ForciblePathSet", "Generator", "LocalizedSupervisor", "PROHIBITIBLE",
            "ReconfigProblem", "Supervisor", "TICK", "TimedGenerator", "UNCONTROLLABLE",
            "allevents", "controllable", "default_event_list", "erase_ticks", "event_name",
            "is_nonblocking", "language_equal", "language_subset", "meet", "minimize",
            "mode_timed_graph", "project", "project_detail", "select_optimal", "supcon",
            "sync_product", "synthesize_tcrs", "timed_graph", "timed_localize", "to_dot",
            "trim", "trs", "verify_localization", "verify_projection_commutativity",
            "verify_solution_equivalence"]
