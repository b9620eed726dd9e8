"""Supervisor synthesis against the subset-enumeration supremality oracle."""

import random
import warnings

import pytest

from tdesrec.automata import (
    Generator,
    allevents,
    coreachable_states,
    is_nonblocking,
    language_equal,
    language_subset,
    meet,
    reachable_states,
    renumber_bfs,
    sync_product,
    trim,
)
from tdesrec.events import PROHIBITIBLE, TICK, UNCONTROLLABLE, EventDef, EventTable
from tdesrec.synthesis import Supervisor, controllable, supcon, synthesize_tcrs
from tdesrec.timed import timed_graph
import util
from util import (
    _oracle_controllable,
    _oracle_violation,
    oracle_controllability_witness,
    oracle_product,
    oracle_supcon_rounds,
    oracle_supremal,
    oracle_timed_graph,
    random_atg,
    random_generator,
    random_spec,
)


def small_plant():
    """A two-activity plant: controllable 1 starts, uncontrollable 2 ends."""
    atg = Generator(2, frozenset({1, 2}), {(0, 1): 1, (1, 2): 0},
                    0, frozenset({0}))
    events = EventTable([
        EventDef(1, PROHIBITIBLE, forcible=True, lower=0, upper=None),
        EventDef(2, UNCONTROLLABLE, lower=0, upper=2),
    ])
    return timed_graph(atg, events), events


class TestControllable:
    def test_plant_controls_itself(self):
        plant, events = small_plant()
        ok, witness = controllable(plant.generator, plant)
        assert ok and witness is None

    def test_removed_uncontrollable_is_witnessed(self):
        plant, events = small_plant()
        gen = plant.generator
        pruned = {k: v for k, v in gen.transitions.items() if k[1] != 2}
        candidate = Generator(gen.n_states, gen.alphabet, pruned, 0, gen.marked)
        ok, witness = controllable(candidate, plant)
        assert not ok
        assert witness.event == 2

    def test_tick_disabled_without_forcible_is_witnessed(self):
        # Disabling tick at the initial state, where only remote event 1
        # (declared non-forcible here) competes, violates preemption.
        atg = Generator(2, frozenset({1}), {(0, 1): 1}, 0, frozenset({1}))
        events = EventTable([EventDef(1, PROHIBITIBLE, forcible=False,
                                      lower=1, upper=None)])
        plant = timed_graph(atg, events)
        gen = plant.generator
        pruned = {k: v for k, v in gen.transitions.items()
                  if not (k == (0, TICK))}
        candidate = Generator(gen.n_states, gen.alphabet, pruned, 0, gen.marked)
        ok, witness = controllable(candidate, plant)
        assert not ok and witness.event == TICK

    def test_forcible_justifies_preemption(self):
        # Same shape, but with event 1 forcible the tick removal is legal.
        atg = Generator(2, frozenset({1}), {(0, 1): 1}, 0, frozenset({1}))
        events = EventTable([EventDef(1, PROHIBITIBLE, forcible=True,
                                      lower=1, upper=None)])
        plant = timed_graph(atg, events)
        gen = plant.generator
        # 1 is eligible only after a tick, so cut the tick at state 1 instead
        # (there 1 is eligible and forcible).
        state_after_tick = gen.target(0, TICK)
        pruned = {k: v for k, v in gen.transitions.items()
                  if k != (state_after_tick, TICK)}
        candidate = Generator(gen.n_states, gen.alphabet, pruned, 0, gen.marked)
        ok, witness = controllable(candidate, plant)
        assert ok, witness

    def test_forcible_offered_outside_the_plant_justifies_preemption(self):
        # At the initial pair the candidate withholds tick and offers forcible
        # event 1, which the plant cannot execute before a tick.  The rule
        # reads the candidate's own eligible events, so 1 still backs the
        # preemption.
        atg = Generator(2, frozenset({1}), {(0, 1): 1}, 0, frozenset({1}))
        events = EventTable([EventDef(1, PROHIBITIBLE, forcible=True,
                                      lower=1, upper=None)])
        plant = timed_graph(atg, events)
        assert plant.generator.eligible(0) == {TICK}
        candidate = Generator(2, frozenset({1, TICK}), {(0, 1): 1}, 0, frozenset({1}))
        assert controllable(candidate, plant) == (True, None)

    def test_witness_matches_shortlex_oracle(self):
        # Candidates are random timed graphs with transitions deleted, as
        # they are, renumbered from the initial state, or met with a random
        # spec so that one plant state pairs with several candidate states.
        rng = random.Random(35)
        verdicts = []
        while len(verdicts) < 200:
            atg, events = random_atg(rng, max_activities=3, max_events=3,
                                     max_bound=2)
            try:
                plant = timed_graph(atg, events, max_states=12)
            except ValueError:
                continue
            gen = plant.generator
            kept = {k: t for k, t in gen.transitions.items() if rng.random() < 0.8}
            candidate = Generator(gen.n_states, gen.alphabet, kept, gen.initial,
                                  gen.marked)
            shape = rng.randrange(3)
            if shape == 1:
                candidate = renumber_bfs(candidate)
            elif shape == 2:
                candidate = meet(candidate, random_generator(
                    rng, 2, tuple(sorted(gen.alphabet)), density=0.8))
            ok, witness = controllable(candidate, plant, events)
            got = witness and (witness.candidate_state, witness.plant_state, witness.event)
            expected = oracle_controllability_witness(candidate, gen, events)
            assert (ok, got) == (expected is None, expected)
            # The witness is the first violating pair of the reference product.
            _, pairs = oracle_product([candidate, gen], dict.fromkeys(
                candidate.alphabet | gen.alphabet, (0, 1)))
            assert got == next(((x, p, e) for x, p in pairs
                                if (e := _oracle_violation(candidate, x, gen, p, events))
                                is not None), None)
            verdicts.append(ok)
        assert True in verdicts and False in verdicts


class TestSupcon:
    def test_allevents_spec_returns_plant(self):
        plant, events = small_plant()
        assert is_nonblocking(plant.generator)
        sup = supcon(plant, allevents(plant.generator))
        assert language_equal(sup.automaton, plant.generator)

    def test_empty_spec_gives_empty_supervisor(self):
        plant, events = small_plant()
        # A spec with no marked state, and one with no state at all (an empty
        # product, so no deletion round runs).
        for n in (1, 0):
            empty = Generator(n, plant.generator.alphabet, {}, 0, frozenset())
            sup = supcon(plant, empty)
            assert sup.is_empty
            assert sup.automaton == Generator(0, plant.generator.alphabet, {}, 0, frozenset())
            assert sup.plant_states == ()
            assert util.oracle_control_record(sup, plant) == ((), ())

    def test_controllable_predecessor_removed(self):
        # The plant can enter a trap through controllable 3; behind it an
        # uncontrollable 2 leads to a blocking state.  The supremal result
        # must cut at event 3 (oracle-confirmed on this instance).
        atg = Generator(
            4, frozenset({1, 2, 3}),
            {(0, 1): 0, (0, 3): 1, (1, 2): 2, (2, 1): 3},
            0, frozenset({0}))
        events = EventTable([
            EventDef(1, PROHIBITIBLE, forcible=True, lower=0, upper=None),
            EventDef(2, UNCONTROLLABLE, lower=0, upper=1),
            EventDef(3, PROHIBITIBLE, lower=0, upper=None),
        ])
        plant = timed_graph(atg, events)
        # Spec: forbid reaching the marked trap state 3's entry event 1 after 2.
        spec = Generator(2, frozenset({2}), {(0, 2): 1}, 0, frozenset({0}))
        lifted = sync_product([allevents(plant.generator), spec])
        sup = supcon(plant, lifted)
        expected = oracle_supremal(plant, lifted, events)
        if sup.is_empty:
            assert expected.is_empty
        else:
            assert language_equal(sup.automaton, expected)
        assert 3 not in {e for (_, e) in sup.automaton.transitions}

    def test_supremality_against_oracle(self):
        rng = random.Random(30)
        checked = 0
        while checked < 25:
            atg, events = random_atg(rng, max_activities=3, max_events=3,
                                     max_bound=2)
            try:
                plant = timed_graph(atg, events, max_states=8)
            except ValueError:
                continue
            if plant.n_states > 6:
                continue
            spec = random_spec(rng, plant.generator.alphabet, max_states=2)
            if meet(plant.generator, spec).n_states > 9:
                continue
            sup = supcon(plant, spec, events)
            expected = oracle_supremal(plant, spec, events)
            if sup.is_empty or expected.is_empty:
                assert sup.is_empty == expected.is_empty
            else:
                assert language_equal(sup.automaton, expected)
            checked += 1

    def test_worklist_matches_round_oracle(self, monkeypatch):
        # Every Supervisor field equals the round-based reference's, on
        # plants and specs drawn as random_pipeline_supervisor draws them.
        # The reference runs one coreachability search per round, so a run
        # with three or more searches had a cascade of deleting rounds.
        searches = []

        def counted(g):
            searches.append(g.n_states)
            return coreachable_states(g)

        monkeypatch.setattr(util, "coreachable_states", counted)
        rng = random.Random(1102)
        cases = dict.fromkeys(("empty", "coreachability only", "cascade"), 0)
        checked = 0
        while checked < 2000:
            atg, events = random_atg(rng, max_activities=5, max_events=4,
                                     max_bound=3, forcible_p=0.7)
            try:
                plant = timed_graph(atg, events, max_states=3000)
            except ValueError:
                continue
            if rng.random() < 0.9:
                spec = random_generator(rng, 3, tuple(sorted(plant.alphabet)),
                                        density=0.85, marked_p=0.8)
            else:
                spec = random_spec(rng, plant.alphabet, 3)
            sup = supcon(plant, spec, events)
            searches.clear()
            expected = oracle_supcon_rounds(plant, spec, events)
            assert sup == expected
            assert (list(sup.automaton.transitions.items())
                    == list(expected.automaton.transitions.items()))
            cases["empty"] += sup.is_empty
            cases["cascade"] += len(searches) >= 3
            product = meet(plant.generator, spec)
            if not sup.is_empty and controllable(product, plant, events)[0]:
                cases["coreachability only"] += (sup.automaton == trim(product)
                                                 and sup.automaton != renumber_bfs(product))
            checked += 1
        assert min(cases.values()) >= 50, cases

    def test_product_matches_oracle(self, monkeypatch):
        # supcon's product, before its worklist deletes anything, equals the
        # reference product state for state.
        from tdesrec import automata, synthesis

        built = []

        def recorded(components, succ, movers):
            adj, states, marked = automata._product(components, succ, movers)
            built.append(([list(edges.items()) for edges in adj], states, marked))
            return adj, states, marked

        monkeypatch.setattr(synthesis, "_product", recorded)
        rng = random.Random(2004)
        checked = 0
        while checked < 300:
            atg, events = random_atg(rng, max_activities=4, max_events=3, max_bound=2)
            try:
                plant = timed_graph(atg, events, max_states=300)
            except ValueError:
                continue
            spec = random_spec(rng, plant.alphabet, 3)
            supcon(plant, spec, events)
            want, pairs = oracle_product([plant.generator, spec], dict.fromkeys(
                plant.alphabet | spec.alphabet, (0, 1)))
            assert built.pop() == ([list(edges.items()) for edges in want.out_edges()],
                                   pairs, sorted(want.marked))
            checked += 1

    def test_builds_only_what_it_returns(self, monkeypatch, factory_model):
        # timed_graph builds its generator and supcon its result; neither
        # builds a product generator.  The plant is the reference's.
        built = {"Generator": 0}

        def counting(cls, name):
            original = getattr(cls, name)

            def counted(self, *args, **kwargs):
                built[cls.__name__] += 1
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        m = factory_model
        atg = sync_product([m.atgs["M1"], m.atgs["M2"], m.atgs["R"]])
        spec = sync_product([allevents(timed_graph(atg, m.events).generator),
                             m.specs["SPEC"]])
        counting(Generator, "__post_init__")
        plant = timed_graph(atg, m.events)
        sup = supcon(plant, spec, m.events)
        assert not sup.is_empty
        assert built == {"Generator": 2}
        assert plant == oracle_timed_graph(atg, m.events)

    def test_transition_subset_realization_crosscheck(self):
        # On tiny instances, allowing arbitrary transition removal (not just
        # state removal) must not beat the state-subset supremum.
        from itertools import combinations

        rng = random.Random(31)
        checked = 0
        while checked < 6:
            atg, events = random_atg(rng, max_activities=2, max_events=2,
                                     max_bound=1)
            try:
                plant = timed_graph(atg, events, max_states=5)
            except ValueError:
                continue
            spec = random_spec(rng, plant.generator.alphabet, max_states=2)
            product, pairs = oracle_product([plant.generator, spec], dict.fromkeys(
                plant.generator.alphabet | spec.alphabet, (0, 1)))
            if product.n_states == 0 or len(product.transitions) > 10:
                continue
            sup = supcon(plant, spec, events)
            items = sorted(product.transitions.items())
            best_lang = None
            for r in range(len(items) + 1):
                for keep in combinations(range(len(items)), r):
                    transitions = dict(items[i] for i in keep)
                    cand = Generator(product.n_states, product.alphabet,
                                     transitions, product.initial, product.marked)
                    reach = reachable_states(cand)
                    if not reach <= coreachable_states(cand):
                        continue
                    if not _oracle_controllable(cand, reach, pairs,
                                                plant.generator, events):
                        continue
                    cand = renumber_bfs(cand)
                    if best_lang is None or language_subset(best_lang, cand):
                        best_lang = cand
            checked += 1
            if best_lang is None or best_lang.is_empty:
                assert sup.is_empty
            elif not sup.is_empty:
                assert language_equal(sup.automaton, best_lang)

    def test_idempotence(self):
        rng = random.Random(32)
        checked = 0
        while checked < 10:
            atg, events = random_atg(rng, max_activities=3, max_events=3,
                                     max_bound=2)
            try:
                plant = timed_graph(atg, events, max_states=40)
            except ValueError:
                continue
            spec = random_spec(rng, plant.generator.alphabet, max_states=2)
            sup = supcon(plant, spec, events)
            if sup.is_empty:
                continue
            again = supcon(plant, sup.automaton, events)
            assert language_equal(again.automaton, sup.automaton)
            checked += 1

    def test_monotonicity(self):
        rng = random.Random(33)
        checked = 0
        while checked < 10:
            atg, events = random_atg(rng, max_activities=3, max_events=3,
                                     max_bound=2)
            try:
                plant = timed_graph(atg, events, max_states=40)
            except ValueError:
                continue
            small = random_spec(rng, plant.generator.alphabet, max_states=2)
            # Grow the small spec by composing with a fresh random spec over
            # the same alphabet, then take the union-shaped larger language:
            # meet(small, anything) is contained in small.
            from tdesrec.automata import meet

            larger = small
            smaller = meet(small, random_spec(rng, plant.generator.alphabet, 2))
            pad = lambda g: Generator(g.n_states, larger.alphabet | g.alphabet,
                                      dict(g.transitions), g.initial, g.marked) \
                if not g.is_empty else Generator(0, larger.alphabet | g.alphabet, {}, 0, frozenset())
            smaller = pad(smaller)
            sup_small = supcon(plant, smaller, events)
            sup_large = supcon(plant, larger, events)
            if sup_small.is_empty:
                checked += 1
                continue
            assert language_subset(sup_small.automaton, sup_large.automaton)
            checked += 1

    def test_supervisor_control_data(self):
        plant, events = small_plant()
        # Spec forbids starting (event 1) altogether.
        spec = Generator(1, frozenset({1}), {}, 0, frozenset({0}))
        lifted = sync_product([allevents(plant.generator), spec])
        sup = supcon(plant, lifted)
        assert not sup.is_empty
        disabled, preempted = util.oracle_control_record(sup, plant)
        assert any(1 in d for d in disabled)
        # The plant still ticks; tick is never preempted here.
        assert not any(preempted)


class TestSynthesizeTcrs:
    def test_single_component_allevents(self):
        atg = Generator(2, frozenset({1}), {(0, 1): 1, (1, 1): 0},
                        0, frozenset({0}))
        events = EventTable([EventDef(1, PROHIBITIBLE, forcible=True,
                                      lower=0, upper=None)])
        ttg = timed_graph(atg, events)
        ae_atg = allevents(atg)
        ae_full = allevents(ttg.generator)
        sup = synthesize_tcrs([atg], ae_atg, ae_full, events)
        assert language_equal(sup.automaton, ttg.generator)

    def test_reconfig_event_must_be_prohibitible(self):
        atg = Generator(1, frozenset({2}), {(0, 2): 0}, 0, frozenset({0}))
        events = EventTable([EventDef(2, UNCONTROLLABLE, lower=0, upper=None)])
        with pytest.raises(ValueError, match="prohibitible"):
            synthesize_tcrs([atg], atg, allevents(atg), events,
                            reconfig_events=[2])

    def test_empty_result_warns(self):
        atg = Generator(2, frozenset({1}), {(0, 1): 1}, 0, frozenset({1}))
        events = EventTable([EventDef(1, UNCONTROLLABLE, lower=0, upper=1)])
        ttg = timed_graph(atg, events)
        dead_spec = Generator(1, ttg.generator.alphabet, {}, 0, frozenset())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sup = synthesize_tcrs([atg], allevents(atg), dead_spec, events)
        assert sup.is_empty
        assert any("no admissible behavior" in str(w.message) for w in caught)

    def test_outputs_always_controllable_and_nonblocking(self):
        rng = random.Random(34)
        checked = 0
        while checked < 20:
            atg, events = random_atg(rng, max_activities=4, max_events=4,
                                     max_bound=2)
            try:
                ttg = timed_graph(atg, events, max_states=60)
            except ValueError:
                continue
            spec = random_spec(rng, ttg.generator.alphabet, max_states=3)
            sup = supcon(ttg, spec, events)
            if sup.is_empty:
                checked += 1
                continue
            ok, witness = controllable(sup.automaton, ttg, events)
            assert ok, witness
            assert is_nonblocking(sup.automaton)
            checked += 1
