"""Backtracking forcibility machinery against the exhaustive path oracle."""

import json
import random

import pytest

from tdesrec.automata import Generator, project
from tdesrec.events import PROHIBITIBLE, TICK, UNCONTROLLABLE, EventDef, EventTable
from tdesrec.solver import (
    ForciblePathSet,
    ReconfigProblem,
    _backtrackable_into,
    erase_ticks,
    select_optimal,
    state_witness,
    trs,
    verify_projection_commutativity,
)
from tdesrec.synthesis import Supervisor
from util import (BFT, oracle_attraction_field, oracle_bft, oracle_paths, oracle_prune,
                  oracle_state_witness, random_pipeline_supervisor, sample_problems,
                  solvable_problems)

A, B, C, D = 5, 7, 9, 11


def table(**kinds):
    """Event table from label -> ('hib'|'unc', forcible) pairs."""
    defs = []
    for label, (control, forcible) in kinds.items():
        defs.append(EventDef(int(label), PROHIBITIBLE if control == "hib" else UNCONTROLLABLE,
                             forcible, 0, None))
    return EventTable(defs)


def wrap(n, transitions, events, marked=None):
    alphabet = frozenset(e for (_, e) in transitions) | events.labels | {TICK}
    gen = Generator(n, alphabet, transitions, 0,
                    frozenset(marked if marked is not None else range(n)))
    return Supervisor.from_generator(gen, events)


def ladder():
    """A ladder of 12 rungs below the target, and the target's state.

    From either state of a rung, forcible A and B lead to the two states of
    the next rung, so the backward tree from the target has 2**13 - 1 nodes.
    State 0's only way onto the ladder is an uncontrollable C racing a tick,
    which is not backtrackable, so problems from state 0 are unsolvable.
    """
    events = table(**{str(A): ("hib", True), str(B): ("hib", True),
                      str(C): ("unc", False), str(D): ("hib", False)})
    rungs = 12
    top = 2 * rungs + 1
    transitions = {(0, C): 1, (0, TICK): 0, (top, D): top}
    for i in range(rungs - 1):
        for s in (2 * i + 1, 2 * i + 2):
            transitions[(s, A)] = 2 * i + 3
            transitions[(s, B)] = 2 * i + 4
    transitions[(top - 2, A)] = transitions[(top - 1, A)] = top
    return wrap(top + 1, transitions, events), top


class TestReconfigProblem:
    @pytest.mark.parametrize("source, target, event, message", [
        (2, 1, A, "source state 2 is not a supervisor state"),
        (-1, 1, A, "source state -1 is not a supervisor state"),
        (0, 2, A, "target state 2 is not a supervisor state"),
        (0, 1, B, "reconfiguration event 7 is not eligible at target state 1"),
    ])
    def test_rejected(self, source, target, event, message):
        events = table(**{str(A): ("hib", True), str(B): ("hib", True)})
        sup = wrap(2, {(0, A): 1, (1, A): 1, (0, B): 0}, events)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ReconfigProblem(sup, source, target, event)


class TestEligibilitySet:
    def test_single_forcible_predecessor(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(2, {(0, A): 1}, events)
        assert _backtrackable_into(sup)(1) == [(0, A)]

    def test_tick_elsewhere_excludes_nonforcible(self):
        # 0 --A--> 1 with A not forcible, and 0 --tick--> 2: the tick leaves
        # toward a different state and tick is never prohibitible, so the
        # backtrack over A is rejected.
        events = table(**{str(A): ("hib", False)})
        sup = wrap(3, {(0, A): 1, (0, TICK): 2}, events)
        assert _backtrackable_into(sup)(1) == []

    def test_prohibitible_competition_admits_nonforcible(self):
        # Four states: 0 --A--> 1 (A uncontrollable, not forcible); the other
        # events at 0 are prohibitible B to 2 and a parallel uncontrollable C
        # straight into 1, which does not compete (same target).  Clause by
        # clause: A fails the forcible disjunct; B is eligible with a target
        # other than 1 and is prohibitible; C's target is 1 so it is skipped;
        # hence (0, A) qualifies.
        events = table(**{str(A): ("unc", False), str(B): ("hib", False),
                          str(C): ("unc", False)})
        sup = wrap(4, {(0, A): 1, (0, B): 2, (0, C): 1, (2, B): 3}, events)
        pairs = _backtrackable_into(sup)(1)
        assert (0, A) in pairs
        assert (0, C) in pairs

    def test_uncontrollable_competition_blocks(self):
        events = table(**{str(A): ("hib", False), str(B): ("unc", False)})
        sup = wrap(3, {(0, A): 1, (0, B): 2}, events)
        assert _backtrackable_into(sup)(1) == []


class TestBft:
    def test_source_equals_target(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(2, {(0, A): 1, (1, A): 1}, events)
        problem = ReconfigProblem(sup, 1, 1, A)
        bft = oracle_bft(problem)
        assert len(bft.nodes) == 1
        assert bft.nodes[0].state == 1

    def test_linear_two_nodes(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(2, {(0, A): 1, (1, A): 1}, events)
        problem = ReconfigProblem(sup, 0, 1, A)
        bft = oracle_bft(problem)
        assert [n.state for n in bft.nodes] == [1, 0]
        assert bft.branch_events(1) == (A,)

    def test_no_branch_repeats_state(self):
        rng = random.Random(41)
        found = 0
        while found < 15:
            out = random_pipeline_supervisor(rng)
            if out is None:
                continue
            sup, _ = out
            for (q_s, q_r, e) in solvable_problems(sup, limit=3):
                bft = oracle_bft(ReconfigProblem(sup, q_s, q_r, e))
                for leaf in bft.leaves():
                    states = bft.branch_states(leaf)
                    assert len(states) == len(set(states))
                    assert len(states) <= sup.n_states
            found += 1


class TestPrune:
    def _problem(self):
        # 3 --A--> 1 --B--> 0, plus a dead backtracking branch 2 --A--> 1.
        events = table(**{str(A): ("hib", True), str(B): ("hib", True)})
        sup = wrap(4, {(3, A): 1, (1, B): 0, (2, A): 1, (0, B): 0}, events)
        return ReconfigProblem(sup, 3, 0, B)

    def test_mixed_tree_pruned_to_source_branches(self):
        problem = self._problem()
        bft = oracle_bft(problem)
        pbft = oracle_prune(bft, problem.source)
        # Oracle: exactly the root-to-source branches of the full tree.
        expected = set()
        for leaf in bft.leaves():
            if bft.nodes[leaf].state == problem.source:
                expected.add(bft.branch_states(leaf))
        actual = {pbft.branch_states(leaf) for leaf in pbft.leaves()}
        assert actual == expected
        assert all(pbft.nodes[l].state == problem.source for l in pbft.leaves())

    def test_all_leaves_already_source(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(2, {(0, A): 1, (1, A): 1}, events)
        bft = oracle_bft(ReconfigProblem(sup, 0, 1, A))
        assert oracle_prune(bft, 0) == bft

    def test_unreachable_source_gives_empty_tree(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(3, {(0, A): 1, (2, A): 2, (1, A): 1}, events)
        bft = oracle_bft(ReconfigProblem(sup, 2, 1, A))
        assert oracle_prune(bft, 2).is_empty


class TestAttractionField:
    def test_single_node(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(2, {(1, A): 1, (0, A): 1}, events)
        problem = ReconfigProblem(sup, 1, 1, A)
        assert oracle_attraction_field(oracle_prune(oracle_bft(problem), 1)) == {1}
        assert trs(problem).attraction_field == {1}

    def test_two_node(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(2, {(0, A): 1, (1, A): 1}, events)
        problem = ReconfigProblem(sup, 0, 1, A)
        assert oracle_attraction_field(oracle_prune(oracle_bft(problem), 0)) == {0, 1}
        assert trs(problem).attraction_field == {0, 1}

    def test_empty_tree(self):
        assert oracle_attraction_field(BFT(0, ())) == frozenset()


class TestTrs:
    def test_source_equals_target_epsilon(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(2, {(0, A): 1, (1, A): 1}, events)
        result = trs(ReconfigProblem(sup, 1, 1, A))
        assert result.solvable and result.paths == ((),)

    def test_far_source_does_not_trip_the_guard(self):
        sup, top = ladder()
        result = trs(ReconfigProblem(sup, 0, top, D), max_nodes=1000)
        assert not result.solvable
        assert result.paths == ()
        with pytest.raises(ValueError, match="exceeds 1000 nodes"):
            trs(ReconfigProblem(sup, 1, top, D), max_nodes=1000)

    def test_deep_chain(self):
        # One path of 2999 steps, far deeper than the interpreter's default
        # recursion limit.
        events = table(**{str(A): ("hib", True), str(B): ("hib", False)})
        n = 3000
        transitions = {(i, A): i + 1 for i in range(n - 1)}
        transitions[(n - 1, B)] = n - 1
        sup = wrap(n, transitions, events)
        result = trs(ReconfigProblem(sup, 0, n - 1, B))
        assert result.paths == ((A,) * (n - 1),)

    def test_unsolvable_is_status_not_exception(self):
        events = table(**{str(A): ("unc", False), str(B): ("unc", False)})
        # Only an uncontrollable, unforced route leads to the target, and a
        # tick competes at the junction.
        sup = wrap(4, {(0, A): 1, (0, TICK): 2, (1, B): 1, (2, B): 2}, events)
        result = trs(ReconfigProblem(sup, 0, 1, B))
        assert not result.solvable
        assert result.paths == ()
        assert result.attraction_field == frozenset()
        with pytest.raises(ValueError, match="no solution"):
            select_optimal(result, "min_length")

    def test_oracle_equivalence_random(self):
        rng = random.Random(42)
        problems = 0
        while problems < 80:
            out = random_pipeline_supervisor(
                rng, max_activities=8, max_events=6, density=0.6,
                forcible_p=0.6, full_alphabet_spec=rng.random() < 0.5)
            if out is None or out[0].n_states > 50:
                continue
            sup, _ = out
            for (q_s, q_r, e) in sample_problems(rng, sup, 3):
                problem = ReconfigProblem(sup, q_s, q_r, e)
                got = set(trs(problem).paths)
                want = oracle_paths(sup, q_s, q_r)
                assert got == want
                problems += 1

    def test_path_soundness(self):
        rng = random.Random(44)
        checked = 0
        while checked < 25:
            out = random_pipeline_supervisor(rng)
            if out is None:
                continue
            sup, _ = out
            gen = sup.automaton
            adj = gen.out_edges()
            for (q_s, q_r, e) in solvable_problems(sup, limit=3):
                res = trs(ReconfigProblem(sup, q_s, q_r, e))
                if not res.solvable:
                    continue
                for path in res.paths:
                    q = q_s
                    assert q in res.attraction_field
                    for ev in path:
                        nxt = gen.target(q, ev)
                        assert nxt is not None
                        ok = sup.events.is_forcible(ev) or all(
                            t == nxt or sup.events.is_prohibitible(o)
                            for (o, t) in adj[q])
                        assert ok
                        q = nxt
                        assert q in res.attraction_field
                    assert q == q_r
                    assert gen.target(q, e) is not None
                checked += 1

    def test_tick_invariance_on_projected_supervisor(self):
        # The machinery runs unchanged on a tick-free automaton.
        rng = random.Random(45)
        while True:
            out = random_pipeline_supervisor(rng)
            if out is None:
                continue
            sup, _ = out
            pgen = project(sup.automaton, {TICK} & sup.automaton.alphabet)
            if pgen.is_empty or pgen.n_states < 2:
                continue
            psup = Supervisor.from_generator(pgen, sup.events)
            triples = solvable_problems(psup, limit=4)
            if not triples:
                continue
            q_s, q_r, e = triples[0]
            res = trs(ReconfigProblem(psup, q_s, q_r, e))
            assert set(res.paths) == oracle_paths(psup, q_s, q_r)
            assert all(TICK not in p for p in res.paths)
            break


def assert_matches_oracle(problem):
    """``trs`` reads the oracle tree's answer and raises at the same guard."""
    tree = oracle_bft(problem)
    pbft = oracle_prune(tree, problem.source)
    paths = {tuple(reversed(pbft.branch_events(leaf))) for leaf in pbft.leaves()}
    assert paths == oracle_paths(problem.supervisor, problem.source, problem.target)
    want = ForciblePathSet(problem.source, problem.target, problem.reconfig_event,
                           tuple(sorted(paths, key=lambda p: (len(p), p))),
                           oracle_attraction_field(pbft), not pbft.is_empty)
    assert trs(problem) == want
    size = len(tree.nodes)
    assert trs(problem, max_nodes=size) == want
    assert oracle_bft(problem, max_nodes=size) == tree
    if size > 1:
        for solve in (trs, oracle_bft):
            with pytest.raises(ValueError, match=f"exceeds {size - 1} nodes"):
                solve(problem, max_nodes=size - 1)


class TestTrsAgainstOracle:
    def test_random_problems(self):
        rng = random.Random(46)
        problems = 0
        while problems < 300:
            out = random_pipeline_supervisor(
                rng, max_activities=8, max_events=6, density=0.6,
                forcible_p=0.6, full_alphabet_spec=rng.random() < 0.5)
            if out is None or out[0].n_states > 50:
                continue
            sup, _ = out
            for (q_s, q_r, e) in sample_problems(rng, sup, 3):
                assert_matches_oracle(ReconfigProblem(sup, q_s, q_r, e))
                problems += 1

    def test_ladder(self):
        sup, top = ladder()
        for source in (0, 1, 2, top - 4, top):
            assert_matches_oracle(ReconfigProblem(sup, source, top, D))

    def test_factory(self, factory_problem):
        assert_matches_oracle(factory_problem)

    def test_root_only_trees_never_raise(self):
        # The guard is checked only when a node beyond the root is added.
        events = table(**{str(A): ("hib", True)})
        sup = wrap(2, {(0, A): 1, (1, A): 1}, events)
        assert trs(ReconfigProblem(sup, 1, 1, A), max_nodes=0).paths == ((),)
        sup, top = ladder()
        far = ReconfigProblem(sup, 0, top, D)
        assert len(oracle_bft(far, max_nodes=0).nodes) == 1
        assert not trs(far, max_nodes=0).solvable


class TestSelectOptimal:
    def _paths(self, *paths):
        return ForciblePathSet(0, 1, A, tuple(sorted(paths, key=lambda p: (len(p), p))),
                               frozenset({0, 1}), True)

    def test_singleton(self):
        ps = self._paths((A,))
        assert select_optimal(ps, "min_ticks") == (A,)
        assert select_optimal(ps, "min_length") == (A,)

    def test_min_ticks_prefers_tickless(self):
        ps = self._paths((TICK, A), (B, C, D))
        assert select_optimal(ps, "min_ticks") == (B, C, D)
        assert select_optimal(ps, "min_length") == (TICK, A)

    def test_lexicographic_tie_break(self):
        ps = self._paths((B, A), (A, B))
        assert select_optimal(ps, "min_length") == (A, B)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            select_optimal(self._paths((A,)), "fastest")


class TestSerialization:
    def test_json_export(self):
        ps = ForciblePathSet(0, 1, A, ((TICK, A),), frozenset({0, 1}), True)
        payload = json.loads(ps.to_json())
        assert payload["solvable"] is True
        assert payload["paths"][0]["events"] == ["tick", "5"]
        assert payload["paths"][0]["ticks"] == 1


class TestCommutativity:
    def test_tick_free_supervisor_trivially_equal(self):
        events = table(**{str(A): ("hib", True), str(B): ("hib", True)})
        gen = Generator(3, frozenset({A, B, TICK}),
                        {(0, A): 1, (1, B): 2, (2, B): 2}, 0, frozenset({2}))
        sup = Supervisor.from_generator(gen, events)
        report = verify_projection_commutativity(ReconfigProblem(sup, 0, 1, B))
        assert report.equal
        assert report.timed_projected == {(A,)}

    def test_unsolvable_precondition(self):
        events = table(**{str(A): ("unc", False), str(B): ("unc", False)})
        sup = wrap(4, {(0, A): 1, (0, TICK): 2, (1, B): 1, (2, B): 2}, events)
        with pytest.raises(ValueError, match="unsolvable"):
            verify_projection_commutativity(ReconfigProblem(sup, 0, 1, B))

    def test_state_witness(self):
        events = table(**{str(A): ("hib", True)})
        sup = wrap(3, {(0, A): 1, (1, TICK): 2, (2, A): 2}, events)
        assert state_witness(sup.automaton, 0) == ()
        assert state_witness(sup.automaton, 2) == (A, TICK)

    def test_state_witness_is_shortlex_least(self):
        # Raw generators, so some states are unreachable and the initial
        # state is not always 0.
        rng = random.Random(63)
        for _ in range(300):
            n = rng.randint(1, 5)
            transitions = {(s, e): rng.randrange(n) for s in range(n) for e in (A, B, TICK)
                           if rng.random() < 0.4}
            gen = Generator(n, frozenset({A, B, TICK}), transitions, rng.randrange(n))
            for q in range(n):
                expected = oracle_state_witness(gen, q)
                if expected is None:
                    with pytest.raises(ValueError, match="unreachable"):
                        state_witness(gen, q)
                else:
                    assert state_witness(gen, q) == expected

    def test_erase_ticks(self):
        assert erase_ticks((TICK, A, TICK, B)) == (A, B)
