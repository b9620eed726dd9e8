"""The manufacturing-cell scenario: synthesis, solving, projection, localization."""

import pytest

from tdesrec.automata import is_nonblocking, language_subset, project, sync_product
from tdesrec.events import TICK
from tdesrec.fixtures import (
    SMALL_FACTORY_EXPECTED_PATH,
    SMALL_FACTORY_RECONFIG_EVENT,
    SMALL_FACTORY_WARMUP,
)
from tdesrec.localization import (
    DecentralizationPackage,
    decentralized_closed_loop,
    default_event_list,
    timed_localize,
    verify_localization,
    verify_solution_equivalence,
)
from tdesrec.solver import (
    ReconfigProblem,
    erase_ticks,
    select_optimal,
    trs,
    verify_projection_commutativity,
)
from tdesrec.synthesis import controllable
from util import oracle_control_record, oracle_state_witness

OPERATIONAL = (23, 33, 12, 31)


class TestModel:
    def test_event_table_bounds(self, factory_model):
        events = factory_model.events
        expected = {
            11: (1, None), 12: (0, 3), 13: (1, None), 20: (1, 2), 22: (0, 4),
            23: (1, None), 30: (2, 4), 31: (2, None), 32: (2, 4),
            33: (2, None), 91: (2, None),
        }
        assert {d.label: (d.lower, d.upper) for d in events} == expected
        assert events.forcible >= {13, 23, 31, 33}
        # The reconfiguration event is deliberately both prohibitible and
        # forcible (flagged reconstruction choice).
        assert events.is_prohibitible(91) and events.is_forcible(91)

    def test_composed_plant_shape(self, factory_model, factory_ttg):
        m = factory_model
        rmach = sync_product([m.atgs["M1"], m.atgs["M2"], m.atgs["R"]])
        assert rmach.n_states <= 4 * 3 * 4
        assert TICK in factory_ttg.generator.alphabet
        assert factory_ttg.n_states > rmach.n_states


class TestSupervisor:
    def test_fully_controllable_and_nonblocking(self, factory_ttg, factory_supervisor):
        sup = factory_supervisor
        assert not sup.is_empty
        ok, witness = controllable(sup.automaton, factory_ttg)
        assert ok, witness
        assert is_nonblocking(sup.automaton)

    def test_supervisor_exercises_control(self, factory_ttg, factory_supervisor):
        # The behavioral specification forbids committing before the machine
        # shutdown, so event 31 must be disabled somewhere.
        disabled, _ = oracle_control_record(factory_supervisor, factory_ttg)
        assert any(31 in d for d in disabled)

    def test_problem_states_exist(self, factory_problem):
        sup = factory_problem.supervisor
        assert sup.automaton.target(factory_problem.target,
                                    SMALL_FACTORY_RECONFIG_EVENT) is not None


class TestSolving:
    def test_solvable_with_two_routes(self, factory_problem):
        result = trs(factory_problem)
        assert result.solvable
        assert set(result.paths) == {
            (23, 33, 12, TICK, TICK, 31, TICK, TICK),
            (33, 23, 12, TICK, TICK, 31, TICK, TICK),
        }

    def test_length_optimal_path_projects_to_operational_sequence(self, factory_problem):
        result = trs(factory_problem)
        best = select_optimal(result, "min_length")
        assert best == SMALL_FACTORY_EXPECTED_PATH
        assert erase_ticks(best) == OPERATIONAL

    def test_tick_optimal_agrees_here(self, factory_problem):
        result = trs(factory_problem)
        assert select_optimal(result, "min_ticks") == SMALL_FACTORY_EXPECTED_PATH

    def test_paths_replay_in_supervisor(self, factory_problem):
        sup = factory_problem.supervisor
        for path in trs(factory_problem).paths:
            end = sup.automaton.run(path, start=factory_problem.source)
            assert end == factory_problem.target


class TestProjection:
    def test_projected_supervisor_is_smaller(self, factory_supervisor):
        gen = factory_supervisor.automaton
        ptsup = project(gen, {TICK})
        assert ptsup.n_states < gen.n_states
        assert len(ptsup.transitions) < len(gen.transitions)

    def test_operational_sequence_replays_in_projection(self, factory_supervisor,
                                                        factory_problem):
        # The projected image of the solution reaches a state where the
        # reconfiguration event is defined, starting from the projected image
        # of the current state.
        gen = factory_supervisor.automaton
        ptsup = project(gen, {TICK})
        source_image = ptsup.run(erase_ticks(oracle_state_witness(gen, factory_problem.source)))
        assert source_image is not None
        end = ptsup.run(OPERATIONAL, start=source_image)
        assert end is not None
        assert ptsup.target(end, SMALL_FACTORY_RECONFIG_EVENT) is not None

    def test_commutativity_report_membership(self, factory_problem):
        # The operational sequence shows up among the tick-erased timed
        # solutions; the report records whether the full sets agree (they do
        # not on this timing-heavy scenario, which the report makes visible).
        report = verify_projection_commutativity(factory_problem)
        assert OPERATIONAL in report.timed_projected
        assert report.timed_projected == {OPERATIONAL, (33, 23, 12, 31)}
        assert isinstance(report.equal, bool)


class TestDecentralization:
    @pytest.fixture()
    def package(self, factory_ttg, factory_supervisor):
        return DecentralizationPackage(factory_ttg, factory_supervisor,
                                       default_event_list(factory_supervisor))

    def test_localization_identity(self, package):
        loc = timed_localize(package)
        assert not loc.used_fallback
        assert verify_localization(package, loc)

    def test_only_the_deciding_event_needs_state(self, package):
        loc = timed_localize(package)
        # 31 is the only event the supervisor ever disables, so every other
        # event controller collapses to a single state.
        sizes = {a: g.n_states for a, g in loc.event_controllers.items()}
        assert sizes[31] > 1
        assert all(n == 1 for a, n in sizes.items() if a != 31)
        # Tick is never preempted by supervision in this scenario.
        assert all(g.n_states == 1 for g in loc.tick_controllers.values())

    def test_solution_equivalence(self, package, factory_problem):
        loc = timed_localize(package)
        report = verify_solution_equivalence(package, loc, factory_problem)
        assert report.centralized == {
            (23, 33, 12, TICK, TICK, 31, TICK, TICK),
            (33, 23, 12, TICK, TICK, 31, TICK, TICK),
        }
        # Solving on the closed loop itself gives the same set.
        loop = decentralized_closed_loop(package, loc)
        p = factory_problem
        rerun = trs(ReconfigProblem(loop, p.source, p.target, p.reconfig_event))
        assert frozenset(rerun.paths) == report.centralized
        assert report.sigma_r_in_tick_alphabet
        assert report.sigma_r_in_event_alphabet

    def test_transport_into_tdrs(self, package, factory_problem):
        loc = timed_localize(package)
        sup = package.supervisor
        witness = oracle_state_witness(sup.automaton, factory_problem.source)
        for path in trs(factory_problem).paths:
            restricted = tuple(e for e in witness + path
                               if e in loc.tdrs.alphabet)
            assert loc.tdrs.run(restricted) is not None
