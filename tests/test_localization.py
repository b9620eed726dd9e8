"""Decentralization: controller construction, the defining identity, transport."""

import dataclasses
import itertools
import random

import pytest

from tdesrec.automata import (
    Generator,
    _refine,
    allevents,
    language_equal,
    language_subset,
    sync_product,
)
from tdesrec.events import PROHIBITIBLE, TICK, UNCONTROLLABLE, EventDef, EventTable
from tdesrec.localization import (
    DecentralizationPackage,
    _split_apart,
    decentralized_closed_loop,
    default_event_list,
    timed_localize,
    verify_localization,
    verify_solution_equivalence,
)
from tdesrec.solver import ReconfigProblem, trs, verify_projection_commutativity
from tdesrec.synthesis import Supervisor, supcon
from tdesrec.timed import timed_graph
from util import OraclePartition, random_pipeline_supervisor, sample_problems


def single_loop_package():
    """One controllable forcible event looping on one activity."""
    atg = Generator(1, frozenset({5}), {(0, 5): 0}, 0, frozenset({0}))
    events = EventTable([EventDef(5, PROHIBITIBLE, forcible=True,
                                  lower=1, upper=None)])
    ttg = timed_graph(atg, events)
    sup = supcon(ttg, allevents(ttg.generator), events)
    return DecentralizationPackage(ttg, sup, frozenset({5}))


def random_package(rng, max_events=4, max_states=None):
    out = random_pipeline_supervisor(
        rng, max_activities=5, max_events=max_events, density=0.6, forcible_p=0.6,
        full_alphabet_spec=rng.random() < 0.5)
    if out is None or (max_states is not None and out[0].n_states > max_states):
        return None
    sup, ttg = out
    ev = default_event_list(sup)
    if not ev:
        return None
    return DecentralizationPackage(ttg, sup, ev)


class TestPackage:
    def test_event_list_validated(self):
        pkg = single_loop_package()
        with pytest.raises(ValueError, match="exceeds"):
            DecentralizationPackage(pkg.plant, pkg.supervisor, frozenset({99}))


class TestRefine:
    def test_refiner_and_split_match_partition_oracle(self):
        # Few states, few blocks and partial successors make ties between
        # equally large groups, and members with the event undefined, common.
        rng = random.Random(31)
        for _ in range(2500):
            n = rng.randint(1, 9)
            events = rng.sample(range(1, 5), rng.randint(1, 4))
            adj = [{e: rng.randrange(n) for e in events if rng.random() < 0.6}
                   for _ in range(n)]
            labels = [(rng.random() < 0.3, rng.randrange(2)) for _ in range(n)]
            oracle = OraclePartition(labels)
            oracle.refine(adj, events)
            block = _refine(labels, adj, events)
            assert block == oracle.block
            # Disjoint groups forced apart one after another, then refined
            # again, as localization's disambiguation does.
            states = rng.sample(range(n), rng.randint(0, n))
            cut = rng.randint(0, len(states))
            for group in (states[:cut], states[cut:]):
                oracle.split_apart(group)
            split = _split_apart(block, states)
            assert split == oracle.block
            oracle.refine(adj, events)
            assert _refine(split, adj, events) == oracle.block


class TestTimedLocalize:
    def test_single_event_package(self):
        pkg = single_loop_package()
        loc = timed_localize(pkg)
        assert set(loc.event_controllers) == {5}
        assert set(loc.tick_controllers) == {5}
        assert verify_localization(pkg, loc)

    def test_never_disabling_supervisor_collapses_controllers(self):
        # The supervisor equals the plant, so no controller has any decision
        # to make: every local controller is a one-state all-self-loop
        # generator.
        pkg = single_loop_package()
        loc = timed_localize(pkg)
        for ctrl in list(loc.event_controllers.values()) + list(loc.tick_controllers.values()):
            assert ctrl.n_states == 1
            assert all(src == dst for (src, _), dst in ctrl.transitions.items())

    def test_replacing_a_deciding_controller_breaks_identity(self):
        # Find a package where one controller exclusively enforces a
        # disablement, then blind it: the identity must fail.  (Controllers
        # may overlap in what they enforce, so keep searching until the
        # replacement actually matters.)
        from tdesrec.localization import _compose

        rng = random.Random(50)
        for _ in range(400):
            pkg = random_package(rng)
            if pkg is None:
                continue
            sup = pkg.supervisor
            deciders = sorted({e for d in sup.disabled for e in d})
            loc = timed_localize(pkg)
            if loc.used_fallback:
                continue
            broke = False
            for alpha in deciders:
                if alpha not in loc.event_controllers:
                    continue
                broken_ctrls = dict(loc.event_controllers)
                blind = Generator(1, broken_ctrls[alpha].alphabet,
                                  {(0, e): 0 for e in broken_ctrls[alpha].alphabet},
                                  0, frozenset({0}))
                broken_ctrls[alpha] = blind
                broken = _compose(loc.tick_controllers, broken_ctrls, False)
                if not verify_localization(pkg, broken):
                    broke = True
                    break
            if broke:
                return
        pytest.fail("never found a package where blinding a controller matters")

    def test_empty_event_list_rejected(self):
        pkg = single_loop_package()
        with pytest.raises(ValueError, match="event list"):
            timed_localize(DecentralizationPackage(pkg.plant, pkg.supervisor,
                                                   frozenset()))

    def test_identity_on_random_packages(self):
        rng = random.Random(51)
        done = fallbacks = 0
        while done < 25:
            pkg = random_package(rng)
            if pkg is None:
                continue
            loc = timed_localize(pkg)
            assert verify_localization(pkg, loc)
            # The structural identity: the closed loop is the supervisor.
            assert sync_product([pkg.plant.generator, loc.tdrs]) == pkg.supervisor.automaton
            fallbacks += loc.used_fallback
            done += 1
        # The greedy cover should essentially always verify on pipeline
        # supervisors; a pervasive fallback would point at a regression.
        assert fallbacks <= 2

    def test_trivial_fallback_on_the_factory(self, factory_ttg, factory_supervisor):
        # Localizing on 91 alone cannot reproduce the supervisor, so the
        # trivial localization is used: every controller is the supervisor.
        pkg = DecentralizationPackage(factory_ttg, factory_supervisor, frozenset({91}))
        loc = timed_localize(pkg)
        assert loc.used_fallback
        controllers = list(loc.tick_controllers.values()) + list(loc.event_controllers.values())
        assert controllers
        assert all(c == factory_supervisor.automaton for c in controllers)
        assert verify_localization(pkg, loc)
        assert sync_product([factory_ttg.generator, loc.tdrs]) == factory_supervisor.automaton

    @pytest.mark.parametrize("event_list", [None, {91}, {31, 91}, {13, 23}])
    def test_closed_loop_is_the_factory_supervisor(self, factory_ttg, factory_supervisor,
                                                   event_list):
        # Greedy (default list, {31, 91}) or fallback ({91}, {13, 23}), the
        # plant under the controllers is the supervisor itself, state for
        # state and numbered alike (DECISIONS.md, "The closed loop is the
        # supervisor").
        ev = frozenset(event_list) if event_list else default_event_list(factory_supervisor)
        loc = timed_localize(DecentralizationPackage(factory_ttg, factory_supervisor, ev))
        assert sync_product([factory_ttg.generator, loc.tdrs]) == factory_supervisor.automaton

    def test_supervisor_that_does_not_track_the_plant_rejected(self, factory_ttg,
                                                               factory_supervisor):
        # A wrapped generator carries no record: its plant states are its own
        # states, which the factory plant's transitions do not follow.
        wrapped = Supervisor.from_generator(factory_supervisor.automaton,
                                            factory_supervisor.events)
        pkg = DecentralizationPackage(factory_ttg, wrapped, default_event_list(wrapped))
        with pytest.raises(ValueError, match="has no plant transition"):
            timed_localize(pkg)

    def test_supervisor_starting_off_the_plant_initial_state_rejected(self):
        pkg = single_loop_package()
        swapped = dataclasses.replace(pkg.supervisor, plant_states=(1, 0))
        with pytest.raises(ValueError, match="initial state"):
            timed_localize(DecentralizationPackage(pkg.plant, swapped, pkg.event_list))

    def test_supervisor_alphabet_beyond_the_plant_rejected(self, factory_ttg,
                                                           factory_supervisor):
        gen = factory_supervisor.automaton
        wider = dataclasses.replace(gen, alphabet=gen.alphabet | {99})
        sup = dataclasses.replace(factory_supervisor, automaton=wider)
        pkg = DecentralizationPackage(factory_ttg, sup, default_event_list(factory_supervisor))
        with pytest.raises(ValueError, match="alphabet differs from the plant"):
            timed_localize(pkg)

    def test_supervisor_out_of_bfs_order_rejected(self, factory_ttg, factory_supervisor):
        # States and record permuted alike still track the plant; only the
        # numbering is off.
        sup = factory_supervisor
        gen = sup.automaton
        new = [0] + list(range(gen.n_states - 1, 0, -1))  # new[old]
        old = sorted(range(gen.n_states), key=new.__getitem__)  # old[new]
        permuted = Generator(gen.n_states, gen.alphabet,
                             {(new[s], e): new[t] for (s, e), t in gen.transitions.items()},
                             new[gen.initial], frozenset(new[q] for q in gen.marked))
        shuffled = Supervisor(permuted, sup.events,
                              tuple(sup.plant_states[q] for q in old),
                              tuple(sup.disabled[q] for q in old),
                              tuple(sup.tick_preempted[q] for q in old))
        pkg = DecentralizationPackage(factory_ttg, shuffled, default_event_list(sup))
        with pytest.raises(ValueError, match="not numbered in BFS order"):
            timed_localize(pkg)

    def test_marked_state_over_unmarked_plant_state_rejected(self, factory_ttg,
                                                             factory_supervisor):
        sup = factory_supervisor
        gen = sup.automaton
        x = next(x for x, p in enumerate(sup.plant_states)
                 if p not in factory_ttg.generator.marked)
        marked = dataclasses.replace(gen, marked=gen.marked | {x})
        pkg = DecentralizationPackage(factory_ttg, dataclasses.replace(sup, automaton=marked),
                                      default_event_list(sup))
        with pytest.raises(ValueError, match=f"marked supervisor state {x} tracks unmarked"):
            timed_localize(pkg)

    def test_alphabet_unions(self):
        rng = random.Random(52)
        while True:
            pkg = random_package(rng)
            if pkg is None:
                continue
            loc = timed_localize(pkg)
            assert loc.loc_p.alphabet == frozenset().union(
                *(g.alphabet for g in loc.tick_controllers.values()))
            assert loc.loc_c.alphabet == frozenset().union(
                *(g.alphabet for g in loc.event_controllers.values()))
            break


class TestTransport:
    def test_paths_transport_to_tdrs(self):
        # Every centralized solution is a string of the decentralized
        # supervisor's language (through its alphabet projection).
        rng = random.Random(53)
        done = 0
        while done < 10:
            pkg = random_package(rng)
            if pkg is None:
                continue
            sup = pkg.supervisor
            loc = timed_localize(pkg)
            from tdesrec.solver import state_witness

            found = False
            for (q_s, q_r, e) in sample_problems(rng, sup, 4):
                res = trs(ReconfigProblem(sup, q_s, q_r, e))
                if not res.solvable:
                    continue
                found = True
                witness = state_witness(sup.automaton, q_s)
                for path in res.paths:
                    string = witness + path
                    restricted = tuple(x for x in string
                                       if x in loc.tdrs.alphabet)
                    assert loc.tdrs.run(restricted) is not None
            done += found

    def test_sigma_r_in_both_alphabets(self):
        rng = random.Random(54)
        done = 0
        while done < 10:
            pkg = random_package(rng)
            if pkg is None:
                continue
            ev = pkg.supervisor.events
            both = sorted(e for e in pkg.event_list
                          if ev.is_prohibitible(e) and ev.is_forcible(e))
            if not both:
                continue
            loc = timed_localize(pkg)
            for e in both:
                assert e in loc.loc_p.alphabet
                assert e in loc.loc_c.alphabet
            done += 1


class TestSolutionEquivalence:
    def test_requires_prohibitible_forcible_event(self):
        pkg = single_loop_package()
        atg = Generator(2, frozenset({5, 6}), {(0, 5): 1, (1, 6): 0},
                        0, frozenset({0}))
        events = EventTable([
            EventDef(5, PROHIBITIBLE, forcible=True, lower=0, upper=None),
            EventDef(6, UNCONTROLLABLE, forcible=False, lower=0, upper=2),
        ])
        ttg = timed_graph(atg, events)
        sup = supcon(ttg, allevents(ttg.generator), events)
        package = DecentralizationPackage(ttg, sup, default_event_list(sup))
        q_r = next(q for (q, e) in sup.automaton.transitions if e == 6)
        with pytest.raises(ValueError, match="prohibitible and forcible"):
            verify_solution_equivalence(package, timed_localize(package),
                                        ReconfigProblem(sup, 0, q_r, 6))

    def test_equivalence_on_random_packages(self):
        rng = random.Random(55)
        done = 0
        while done < 15:
            pkg = random_package(rng)
            if pkg is None:
                continue
            sup = pkg.supervisor
            ev = sup.events
            candidates = [
                (q_s, q_r, e) for (q_s, q_r, e) in sample_problems(rng, sup, 6)
                if ev.is_prohibitible(e) and ev.is_forcible(e)
            ]
            for (q_s, q_r, e) in candidates:
                problem = ReconfigProblem(sup, q_s, q_r, e)
                if not trs(problem).solvable:
                    continue
                loc = timed_localize(pkg)
                report = verify_solution_equivalence(pkg, loc, problem)
                assert report.equal, report.describe()
                # The rerun the report derives from the identity, as a
                # differential check: solving on the closed loop itself.
                loop = decentralized_closed_loop(pkg, loc)
                rerun = trs(ReconfigProblem(loop, q_s, q_r, e))
                assert frozenset(rerun.paths) == report.centralized
                assert report.sigma_r_in_tick_alphabet
                assert report.sigma_r_in_event_alphabet
                assert report.replay_ok_tick_side
                assert report.replay_ok_event_side
                done += 1
                break

    def test_closed_loop_matches_supervisor(self):
        rng = random.Random(56)
        done = 0
        while done < 10:
            pkg = random_package(rng)
            if pkg is None:
                continue
            loc = timed_localize(pkg)
            loop = decentralized_closed_loop(pkg, loc)
            sup_gen = pkg.supervisor.automaton
            union = loop.automaton.alphabet | sup_gen.alphabet
            pad = lambda g: Generator(g.n_states, union, dict(g.transitions),
                                      g.initial, g.marked)
            assert language_equal(pad(loop.automaton), pad(sup_gen))
            done += 1


class TestGeneratorEquality:
    @pytest.fixture()
    def counting_ticks(self, factory_ttg, factory_supervisor):
        """The factory localization with a tick-parity counter composed in.

        The counter is all-marked and blocks nothing, so the closed loop keeps
        the supervisor's languages but holds more states.
        """
        pkg = DecentralizationPackage(factory_ttg, factory_supervisor,
                                      default_event_list(factory_supervisor))
        loc = timed_localize(pkg)
        gen = loc.tdrs
        assert TICK in gen.alphabet
        parity = Generator(2, gen.alphabet,
                           {(q, e): (1 - q if e == TICK else q)
                            for q in (0, 1) for e in gen.alphabet},
                           0, frozenset({0, 1}))
        return pkg, dataclasses.replace(loc, tdrs=sync_product([gen, parity]))

    def test_language_equal_is_not_enough(self, counting_ticks):
        pkg, loc = counting_ticks
        loop = decentralized_closed_loop(pkg, loc).automaton
        assert language_equal(loop, pkg.supervisor.automaton)
        assert loop.n_states > pkg.supervisor.n_states
        assert not verify_localization(pkg, loc)

    def test_decentralized_verifiers_refuse_it(self, counting_ticks, factory_problem):
        pkg, loc = counting_ticks
        with pytest.raises(ValueError, match="closed loop differs from the supervisor"):
            verify_solution_equivalence(pkg, loc, factory_problem)


class TestDecentralizedCommutativity:
    def test_report_produced_and_consistent_with_centralized(self):
        rng = random.Random(57)
        done = 0
        while done < 6:
            pkg = random_package(rng)
            if pkg is None:
                continue
            sup = pkg.supervisor
            for (q_s, q_r, e) in sample_problems(rng, sup, 6):
                problem = ReconfigProblem(sup, q_s, q_r, e)
                if not trs(problem).solvable:
                    continue
                central = verify_projection_commutativity(problem)
                loop = decentralized_closed_loop(pkg, timed_localize(pkg))
                dec = verify_projection_commutativity(ReconfigProblem(loop, q_s, q_r, e))
                # The closed loop is the supervisor, so the decentralized
                # report mirrors the centralized one in every field but the
                # wall times.
                untimed = lambda r: {f.name: getattr(r, f.name)
                                     for f in dataclasses.fields(r)
                                     if not f.name.startswith("seconds_")}
                assert untimed(dec) == untimed(central)
                done += 1
                break


class TestEveryDistribution:
    def test_identity_and_solutions_under_every_event_sub_list(self):
        # The solutions do not depend on how the decisions are distributed:
        # under every nonempty sub-list of the default event list (greedy or
        # fallback) the closed loop is the supervisor, and solving on it gives
        # the centralized solutions.  Criterion-7 package settings.
        rng = random.Random(2026)
        packages = localizations = fallbacks = compared = 0
        while packages < 150:
            pkg = random_package(rng, max_events=5, max_states=60)
            if pkg is None:
                continue
            sup = pkg.supervisor
            solved = None
            for (q_s, q_r, e) in sample_problems(rng, sup, 12):
                try:
                    central = trs(ReconfigProblem(sup, q_s, q_r, e), max_nodes=200_000)
                except ValueError:
                    continue
                if central.solvable:
                    solved = (q_s, q_r, e, central.paths)
                    break
            events = sorted(pkg.event_list)
            for size in range(1, len(events) + 1):
                for sub in itertools.combinations(events, size):
                    sub_pkg = DecentralizationPackage(pkg.plant, sup, frozenset(sub))
                    loc = timed_localize(sub_pkg)
                    assert verify_localization(sub_pkg, loc), sub
                    localizations += 1
                    fallbacks += loc.used_fallback
                    if solved is not None:
                        q_s, q_r, e, paths = solved
                        loop = decentralized_closed_loop(sub_pkg, loc)
                        assert trs(ReconfigProblem(loop, q_s, q_r, e)).paths == paths, sub
                        compared += 1
            packages += 1
        print(f"{packages} packages: {localizations} localizations, {fallbacks} fallbacks, "
              f"{compared} closed-loop solutions compared")
