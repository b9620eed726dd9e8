"""Core generator operations against small hand-checked cases and oracles."""

import random

import pytest

from tdesrec.automata import (
    Generator,
    _bfs_renumber,
    _product,
    allevents,
    is_nonblocking,
    language_equal,
    language_subset,
    meet,
    minimize,
    project,
    project_detail,
    reachable_states,
    renumber_bfs,
    sync_product,
    to_dot,
    trim,
)
from tdesrec.events import (
    PROHIBITIBLE,
    TICK,
    UNCONTROLLABLE,
    EventDef,
    EventTable,
    event_name,
)
from util import (
    bounded_language,
    oracle_language_equal,
    oracle_minimal_states,
    oracle_product,
    oracle_product_membership,
    oracle_project_detail,
    oracle_subset_map,
    oracle_trim,
    random_generator,
    random_projection_input,
)


def chain(events, marked_last=True):
    """Linear generator executing the given events in order."""
    n = len(events) + 1
    transitions = {(i, e): i + 1 for i, e in enumerate(events)}
    marked = frozenset({n - 1}) if marked_last else frozenset({0})
    return Generator(n, frozenset(events), transitions, 0, marked)


def permuted(g, rng):
    """``g`` with its states renamed by a random permutation."""
    perm = list(range(g.n_states))
    rng.shuffle(perm)
    return Generator(g.n_states, g.alphabet,
                     {(perm[s], e): perm[t] for (s, e), t in g.transitions.items()},
                     perm[g.initial], frozenset(perm[q] for q in g.marked))


def twinned(g, rng):
    """``g`` plus a twin of one state, taking some of that state's incoming transitions."""
    q = rng.randrange(g.n_states)
    twin = g.n_states
    transitions = {k: twin if t == q and rng.random() < 0.5 else t
                   for k, t in g.transitions.items()}
    transitions.update({(twin, e): t for (s, e), t in g.transitions.items() if s == q})
    marked = g.marked | {twin} if q in g.marked else g.marked
    return Generator(g.n_states + 1, g.alphabet, transitions, g.initial, marked)


def with_unreachable(g, rng):
    """``g`` plus a state no transition enters, with random moves and marking."""
    extra = g.n_states
    transitions = dict(g.transitions)
    transitions.update({(extra, e): rng.randrange(g.n_states + 1)
                        for e in g.alphabet if rng.random() < 0.7})
    marked = g.marked | {extra} if rng.random() < 0.5 else g.marked
    return Generator(g.n_states + 1, g.alphabet, transitions, g.initial, marked)


class TestEventDefs:
    def test_tick_label_reserved(self):
        with pytest.raises(ValueError):
            EventDef(TICK, PROHIBITIBLE)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            EventDef(5, PROHIBITIBLE, lower=3, upper=2)
        with pytest.raises(ValueError):
            EventDef(5, PROHIBITIBLE, lower=-1)

    def test_remote_and_prospective(self):
        remote = EventDef(5, UNCONTROLLABLE, lower=2, upper=None)
        prospective = EventDef(6, PROHIBITIBLE, lower=1, upper=3)
        assert remote.is_remote and not remote.is_prospective
        assert remote.default_timer == 2
        assert prospective.is_prospective and prospective.default_timer == 3

    def test_table_rejects_duplicates(self):
        with pytest.raises(ValueError):
            EventTable([EventDef(5, PROHIBITIBLE), EventDef(5, UNCONTROLLABLE)])

    def test_table_classification(self):
        table = EventTable([
            EventDef(1, PROHIBITIBLE, forcible=True),
            EventDef(2, UNCONTROLLABLE),
        ])
        assert table.forcible == {1}
        assert table.prohibitible == {1}
        assert table.uncontrollable == {2}
        for label, forcible, prohibitible, uncontrollable in [
                (1, True, True, False), (2, False, False, True),
                (TICK, False, False, False), (99, False, False, False)]:
            assert table.is_forcible(label) == forcible
            assert table.is_prohibitible(label) == prohibitible
            assert table.is_uncontrollable(label) == uncontrollable

    def test_event_name(self):
        assert event_name(TICK) == "tick"
        assert event_name(12) == "12"


class TestGeneratorBasics:
    def test_determinism_enforced_by_map(self):
        g = chain([1, 2])
        assert g.target(0, 1) == 1
        assert g.target(0, 2) is None
        assert g.eligible(1) == {2}

    def test_validation(self):
        with pytest.raises(ValueError):
            Generator(2, frozenset({1}), {(0, 2): 1}, 0, frozenset())
        with pytest.raises(ValueError):
            Generator(1, frozenset(), {}, 3, frozenset())

    def test_empty_generator(self):
        g = Generator(0, frozenset({1}), {}, 0, frozenset())
        assert g.is_empty
        assert g.run(()) is None


class TestSyncProduct:
    def test_no_components(self):
        with pytest.raises(ValueError, match="no components"):
            sync_product([])

    def test_identity_up_to_renumbering(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_generator(rng)
            assert language_equal(sync_product([g]), g)

    def test_disjoint_interleaving_counts_states(self):
        # Two 2-state generators over disjoint single-event alphabets must
        # interleave into a 4-state square (hand enumeration of the product).
        a = Generator(2, frozenset({1}), {(0, 1): 1}, 0, frozenset({1}))
        b = Generator(2, frozenset({2}), {(0, 2): 1}, 0, frozenset({1}))
        prod = sync_product([a, b])
        assert prod.n_states == 4
        closed, marked = bounded_language(prod, 3)
        assert closed == {(), (1,), (2,), (1, 2), (2, 1)}
        assert marked == {(1, 2), (2, 1)}

    def test_shared_events_synchronize(self):
        a = chain([1, 2])
        b = chain([2])
        prod = sync_product([a, b])
        closed, marked = bounded_language(prod, 4)
        assert closed == {(), (1,), (1, 2)}
        assert marked == {(1, 2)}

    def test_associative_up_to_language(self):
        rng = random.Random(2)
        for _ in range(15):
            comps = [random_generator(rng, 3, (1, 2)),
                     random_generator(rng, 3, (2, 3)),
                     random_generator(rng, 3, (1, 3))]
            base = sync_product(comps)
            for order in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
                other = sync_product([comps[i] for i in order])
                assert language_equal(base, other)


def _strings(alphabet, max_len):
    events = sorted(alphabet)
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [s + (e,) for s in frontier for e in events]
        out += frontier
    return out


def _random_components(rng, count):
    """Random generators over random sub-alphabets of (1, 2, 3, 4); some empty."""
    comps = []
    for _ in range(count):
        alphabet = tuple(sorted(rng.sample((1, 2, 3, 4), rng.randint(1, 3))))
        if rng.random() < 0.05:
            comps.append(Generator(0, frozenset(alphabet), {}, 0, frozenset()))
        else:
            comps.append(random_generator(rng, 4, alphabet, density=0.6))
    return comps


class TestProductOracle:
    def test_sync_product_matches_componentwise_runs(self):
        rng = random.Random(61)
        for _ in range(150):
            comps = _random_components(rng, rng.randint(1, 3))
            prod = sync_product(comps)
            closed, marked = bounded_language(prod, 4)
            for string in _strings(prod.alphabet, 4):
                in_closed, in_marked = oracle_product_membership(comps, string)
                assert (string in closed) == in_closed, string
                assert (string in marked) == in_marked, string

    def test_meet_matches_runs_over_the_union_alphabet(self):
        # meet moves both operands on every event, so each operand, widened
        # to the union alphabet, must run the whole string.
        rng = random.Random(62)
        for _ in range(150):
            a, b = _random_components(rng, 2)
            union = a.alphabet | b.alphabet
            widened = [Generator(g.n_states, union, g.transitions, g.initial, g.marked)
                       for g in (a, b)]
            closed, marked = bounded_language(meet(a, b), 4)
            for string in _strings(union, 4):
                in_closed, in_marked = oracle_product_membership(widened, string)
                assert (string in closed) == in_closed, string
                assert (string in marked) == in_marked, string


def assert_product_matches_oracle(components, movers):
    """``_product`` equals ``oracle_product`` state for state; returns its adjacency.

    The component tuples come in the same order, each state's transitions in
    the same order, and the marking is the same.
    """
    want, pairs = oracle_product(components, movers)
    adj, states, marked = _product(components, [c.out_edges() for c in components], movers)
    assert states == pairs
    assert [list(edges.items()) for edges in adj] == [
        list(edges.items()) for edges in want.out_edges()]
    assert marked == sorted(want.marked)
    return adj, states, marked


class TestProductStructure:
    # The product is built as an adjacency over the components' adjacencies;
    # the tuple-keyed construction it replaced is the reference.  Languages
    # alone (TestProductOracle) cannot see the numbering.
    def test_sync_product_matches_oracle(self):
        rng = random.Random(2001)
        moved_by_later = no_mark = all_marked = last_blocks = 0
        for _ in range(400):
            comps = _random_components(rng, rng.randint(2, 4))
            alphabet = frozenset().union(*(c.alphabet for c in comps))
            movers = {e: [i for i, c in enumerate(comps) if e in c.alphabet]
                      for e in alphabet}
            adj, states, marked = assert_product_matches_oracle(comps, movers)
            got, (want, _) = sync_product(comps), oracle_product(comps, movers)
            assert got == want
            assert list(got.transitions.items()) == list(want.transitions.items())
            # Events component 0 does not move, taken in the product.
            moved_by_later += any(e not in comps[0].alphabet for edges in adj for e in edges)
            # The marking test leaves at its first unmarked component, or
            # runs through every component.
            no_mark += bool(states) and not marked
            all_marked += bool(states) and len(marked) == len(states)
            last_blocks += len(comps) == 4 and any(
                all(q in c.marked for q, c in zip(state[:3], comps))
                and state[3] not in comps[3].marked for state in states)
        assert moved_by_later >= 100
        assert min(no_mark, all_marked, last_blocks) >= 1, (no_mark, all_marked, last_blocks)

    def test_meet_matches_oracle(self):
        rng = random.Random(2002)
        for _ in range(300):
            a, b = _random_components(rng, 2)
            movers = dict.fromkeys(a.alphabet | b.alphabet, (0, 1))
            assert_product_matches_oracle([a, b], movers)
            got, (want, _) = meet(a, b), oracle_product([a, b], movers)
            assert got == want
            assert list(got.transitions.items()) == list(want.transitions.items())

    def test_language_subset_reads_the_oracle_pairs(self):
        # The verdict at every state pair the oracle reaches, in its order.
        rng = random.Random(2003)
        verdicts = []
        for _ in range(400):
            a = random_generator(rng, 4, (1, 2, 3), density=0.6)
            b = random_generator(rng, 4, (1, 2, 3), density=0.8, marked_p=0.8)
            _, pairs = oracle_product([a, b], dict.fromkeys(a.alphabet, (0, 1)))
            want = all((x not in a.marked or y in b.marked) and a.eligible(x) <= b.eligible(y)
                       for x, y in pairs)
            assert language_subset(a, b) == want
            verdicts.append(want)
        assert 50 <= sum(verdicts) <= 350


class TestMeet:
    def test_meet_self(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_generator(rng)
            assert language_equal(meet(g, g), g)

    def test_meet_allevents_identity(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_generator(rng)
            assert language_equal(meet(g, allevents(g)), g)

    def test_shared_path_only(self):
        # Two 3-state chains sharing only event 2: meet keeps the shared path
        # (expected strings enumerated by hand over the 2-step horizon).
        a = chain([1, 2])
        b = chain([3, 2])
        result = meet(a, b)
        closed, _ = bounded_language(result, 4)
        assert closed == {()}


class TestProject:
    def test_empty_erase_is_identity(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_generator(rng)
            assert language_equal(project(g, frozenset()), g)

    def test_definitional_example(self):
        # tick . sigma . tick projects to {eps, sigma}.
        g = chain([TICK, 7, TICK])
        g = Generator(g.n_states, g.alphabet | {TICK}, dict(g.transitions),
                      0, g.marked)
        p = project(g, {TICK})
        closed, marked = bounded_language(p, 4)
        assert closed == {(), (7,)}
        assert marked == {(7,)}

    def test_erase_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            project(chain([1]), {9})

    def test_marking_of_subsets(self):
        # A state subset is marked iff it contains a marked state.
        g = Generator(3, frozenset({TICK, 5}), {(0, TICK): 1, (1, 5): 2},
                      0, frozenset({1}))
        p = project(g, {TICK})
        assert () in bounded_language(p, 2)[1]

    @staticmethod
    def _has_preimage(g, erase, string):
        # Search (source state, consumed length) pairs: erased events keep
        # the position, visible events must match the next symbol.
        seen = {(g.initial, 0)}
        frontier = [(g.initial, 0)]
        while frontier:
            nxt = []
            for q, i in frontier:
                if i == len(string):
                    return True
                for (s, e), t in g.transitions.items():
                    if s != q:
                        continue
                    if e in erase:
                        key = (t, i)
                    elif i < len(string) and e == string[i]:
                        key = (t, i + 1)
                    else:
                        continue
                    if key not in seen:
                        seen.add(key)
                        nxt.append(key)
            frontier = nxt
        return any(i == len(string) for (_, i) in seen)

    def test_bounded_enumeration_soundness(self):
        # Every short projected string is the erased image of a source string,
        # and conversely every erased image of a short source string is
        # accepted by the projection.
        rng = random.Random(6)
        for _ in range(25):
            g = random_generator(rng, 8, (1, 2, 3), density=0.4)
            erase = frozenset({2})
            p = project(g, erase)
            closed_p, _ = bounded_language(p, 5)
            for s in closed_p:
                assert self._has_preimage(g, erase, s)
            closed_g, _ = bounded_language(g, 6)
            for s in closed_g:
                image = tuple(e for e in s if e not in erase)
                assert p.run(image) is not None

    def test_subset_map_covers_states(self, ):
        g = chain([TICK, 4])
        g = Generator(g.n_states, g.alphabet | {TICK}, dict(g.transitions), 0, g.marked)
        detail = project_detail(g, {TICK})
        assert detail.generator.n_states == len(detail.subsets)
        assert all(isinstance(s, frozenset) for s in detail.subsets)
        # The initial subset is the tick closure of the initial state.
        assert 0 in detail.subsets[0] and 1 in detail.subsets[0]

    @staticmethod
    def _has_erased_cycle(g, erase):
        step: dict[int, set[int]] = {}
        for (s, e), t in g.transitions.items():
            if e in erase:
                step.setdefault(s, set()).add(t)
        for q in step:
            seen: set[int] = set()
            todo = list(step[q])
            while todo:
                s = todo.pop()
                if s == q:
                    return True
                if s not in seen:
                    seen.add(s)
                    todo.extend(step.get(s, ()))
        return False

    def test_bitset_construction_matches_frozenset_oracle(self):
        rng = random.Random(41)
        cases = dict.fromkeys(("empty", "nothing erased", "erased cycle", "three erased",
                               "unreachable", "initial not 0", "marked"), 0)
        # The oracle renumbers its minimal form in BFS order; the program's
        # is in that order as built.
        for _ in range(2500):
            g, erase = random_projection_input(rng)
            assert project_detail(g, erase) == oracle_project_detail(g, erase)
            cases["empty"] += g.is_empty
            cases["nothing erased"] += not erase
            cases["erased cycle"] += self._has_erased_cycle(g, erase)
            cases["three erased"] += len(erase) == 3
            cases["unreachable"] += len(reachable_states(g)) < g.n_states
            cases["initial not 0"] += g.initial != 0
            cases["marked"] += bool(g.marked)
        assert min(cases.values()) >= 100, cases

    def test_subsets_are_the_states_behind_each_projected_state(self):
        # Each pooled subset holds exactly the source states reached by the
        # strings whose erased image leads to its projected state.
        rng = random.Random(43)
        for _ in range(2000):
            g, erase = random_projection_input(rng, max_states=6, max_events=3)
            detail = project_detail(g, erase)
            proj = detail.generator
            assert oracle_subset_map(g, erase, proj) == {
                p: set(subset) for p, subset in enumerate(detail.subsets)}
            if not g.is_empty:
                assert proj.n_states == oracle_minimal_states(proj)


class TestAllEvents:
    def test_single_event(self):
        g = chain([4])
        ae = allevents(g)
        assert ae.n_states == 1
        assert ae.transitions == {(0, 4): 0}
        assert ae.marked == {0}

    def test_empty_alphabet(self):
        g = Generator(1, frozenset(), {}, 0, frozenset({0}))
        ae = allevents(g)
        assert ae.n_states == 1 and not ae.transitions and ae.marked == {0}


class TestTrimNonblocking:
    def test_single_marked_state(self):
        g = Generator(1, frozenset(), {}, 0, frozenset({0}))
        assert is_nonblocking(g)

    def test_dead_end_detected(self):
        g = Generator(2, frozenset({1}), {(0, 1): 1}, 0, frozenset({0}))
        assert not is_nonblocking(g)

    def test_trim_removes_unreachable(self):
        g = Generator(3, frozenset({1}), {(0, 1): 1}, 0, frozenset({1}))
        t = trim(g)
        assert t.n_states == 2

    def test_trim_already_trim(self):
        g = chain([1, 2])
        assert trim(g) == renumber_bfs(g)

    def test_trim_result_nonblocking(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_generator(rng, 6, (1, 2), density=0.4)
            t = trim(g)
            assert is_nonblocking(t)

    def test_matches_the_pruned_generator_oracle(self):
        # Raw generators, not BFS-renumbered: unreachable and non-coreachable
        # states, any initial state, and sometimes no marked state at all.
        rng = random.Random(15)
        empty = 0
        for _ in range(500):
            n = rng.randint(1, 8)
            transitions = {(s, e): rng.randrange(n)
                           for s in range(n) for e in (1, 2, 3) if rng.random() < 0.4}
            marked = frozenset(s for s in range(n) if rng.random() < 0.25)
            g = Generator(n, frozenset({1, 2, 3}), transitions, rng.randrange(n), marked)
            got, want = trim(g), oracle_trim(g)
            assert got == want
            assert list(got.transitions.items()) == list(want.transitions.items())
            empty += got.is_empty
        assert 50 <= empty <= 450

    def test_trim_preserves_marked_language(self):
        rng = random.Random(8)
        for _ in range(30):
            g = random_generator(rng, 6, (1, 2), density=0.4)
            t = trim(g)
            assert bounded_language(g, 6)[1] == bounded_language(t, 6)[1]


class TestBfsRenumber:
    def test_restricted_adjacency_matches_restricted_generator(self):
        # supcon renumbers its survivors by walking the product's adjacency
        # confined to them; that must give what renumbering a generator
        # confined to them gives: the generator, the state map and the
        # transitions' insertion order.
        rng = random.Random(1301)
        partial = 0
        for _ in range(500):
            g = random_generator(rng, 8, (1, 2, 3), density=0.6)
            keep = {q for q in range(g.n_states) if rng.random() < 0.7} | {g.initial}
            confined = Generator(
                g.n_states, g.alphabet,
                {(s, e): t for (s, e), t in g.transitions.items() if s in keep and t in keep},
                g.initial, g.marked & keep)
            adj = [{e: t for e, t in edges.items() if t in keep} if q in keep else {}
                   for q, edges in enumerate(g.out_edges())]
            got, got_order = _bfs_renumber(adj, g.initial, g.marked, g.alphabet)
            want, want_order = _bfs_renumber(confined.out_edges(), confined.initial,
                                             confined.marked, confined.alphabet)
            assert got == want
            assert got_order == want_order
            assert list(got.transitions.items()) == list(want.transitions.items())
            partial += len(want_order) < len(reachable_states(g))
        assert partial >= 100


class TestLanguageEqual:
    def test_reflexive(self):
        g = chain([1, 2, 1])
        assert language_equal(g, g)

    def test_detects_removed_transition(self):
        g = chain([1, 2])
        smaller = Generator(g.n_states, g.alphabet,
                            {(0, 1): 1}, 0, g.marked)
        assert not language_equal(g, smaller)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            language_equal(chain([1]), chain([2]))

    def test_projection_of_nothing_property(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_generator(rng, 6, (1, 2, 3), density=0.5)
            assert language_equal(g, project(g, frozenset()))

    def test_agrees_with_bounded_oracle(self):
        # Two generators with n and m states that differ in language differ
        # on a string no longer than n + m.  Beside random pairs, each round
        # adds pairs equal in language by construction: a permuted copy, a
        # copy with one state twinned and a copy with an unreachable state.
        rng = random.Random(10)
        pairs = [(Generator(0, frozenset({1, 2}), {}, 0, frozenset()),
                  Generator(0, frozenset({1, 2}), {}, 3, frozenset()))]
        for _ in range(60):
            a = random_generator(rng, 4, (1, 2), density=0.5)
            pairs.append((a, random_generator(rng, 4, (1, 2), density=0.5)))
            pairs += [(a, permuted(a, rng)), (a, twinned(a, rng)), (a, with_unreachable(a, rng))]
        verdicts = []
        for a, b in pairs:
            verdict = language_equal(a, b)
            assert verdict == oracle_language_equal(a, b, a.n_states + b.n_states)
            verdicts.append(verdict)
        assert verdicts.count(True) > len(pairs) * 3 // 4 and False in verdicts

    def test_minimal_form_ignores_state_numbering(self):
        # Two generators with the same languages share one minimal form, so
        # it must not depend on how the input numbers its states.  The
        # quotient is in BFS order as built, with no renumbering of its own.
        rng = random.Random(12)
        for _ in range(200):
            g = random_generator(rng, 7, (1, 2, 3), density=0.5)
            m = minimize(g)
            assert minimize(permuted(g, rng)) == m == renumber_bfs(m)

    def test_empty_generators_equal_whatever_initial(self):
        a = Generator(0, frozenset({1}), {}, 0, frozenset())
        b = Generator(0, frozenset({1}), {}, 4, frozenset())
        assert language_equal(a, b)
        assert not language_equal(a, chain([1]))
        assert not language_equal(chain([1]), b)

    def test_subset_check(self):
        g = chain([1, 2])
        smaller = Generator(g.n_states, g.alphabet, {(0, 1): 1}, 0, frozenset())
        assert language_subset(smaller, g)
        assert not language_subset(g, smaller)

    def test_subset_agrees_with_bounded_enumeration(self):
        # A string of L(a) missing from L(b), or of Lm(a) missing from Lm(b),
        # has a shortest example no longer than the number of state pairs.
        # Half the pairs take ``a`` as ``b`` with transitions and marks
        # dropped, so that inclusion often holds.
        rng = random.Random(14)
        verdicts = []
        for _ in range(300):
            b = random_generator(rng, 4, (1, 2), density=0.6)
            if rng.random() < 0.5:
                a = random_generator(rng, 4, (1, 2), density=0.5)
            else:
                a = Generator(b.n_states, b.alphabet,
                              {k: t for k, t in b.transitions.items() if rng.random() < 0.8},
                              b.initial, frozenset(q for q in b.marked if rng.random() < 0.8))
            depth = a.n_states * b.n_states
            closed_a, marked_a = bounded_language(a, depth)
            closed_b, marked_b = bounded_language(b, depth)
            expected = closed_a <= closed_b and marked_a <= marked_b
            assert language_subset(a, b) == expected
            verdicts.append(expected)
        assert True in verdicts and False in verdicts


class TestMinimize:
    def test_preserves_both_languages(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_generator(rng, 7, (1, 2), density=0.5)
            m = minimize(g)
            assert m.n_states <= max(g.n_states, 1)
            assert bounded_language(g, 7) == bounded_language(m, 7)

    def test_merges_duplicate_states(self):
        # Two interchangeable marked tails must fold together.
        g = Generator(
            4, frozenset({1, 2}),
            {(0, 1): 1, (0, 2): 2, (1, 1): 3, (2, 1): 3},
            0, frozenset({3}))
        assert minimize(g).n_states == 3

    def test_state_count_matches_future_oracle(self):
        rng = random.Random(29)
        merged = 0
        for i in range(300):
            n = rng.randint(1, 6)
            alphabet = tuple(range(1, rng.randint(1, 3) + 1))
            transitions = {(s, e): rng.randrange(n) for s in range(n) for e in alphabet
                           if rng.random() < 0.6}
            marked = frozenset(s for s in range(n) if rng.random() < 0.5)
            if i % 2:
                # Give every state a twin with the same futures.
                transitions = {(s + k * n, e): t + rng.randrange(2) * n
                               for (s, e), t in transitions.items() for k in (0, 1)}
                marked |= {s + n for s in marked}
                n *= 2
            g = Generator(n, frozenset(alphabet), transitions, rng.randrange(n), marked)
            expected = oracle_minimal_states(g)
            assert minimize(g).n_states == expected
            merged += expected < renumber_bfs(g).n_states
        assert merged > 50


class TestDot:
    def test_dot_contains_nodes_and_tick_label(self):
        g = Generator(2, frozenset({TICK, 5}), {(0, TICK): 1, (1, 5): 0},
                      0, frozenset({0}))
        dot = to_dot(g, "T")
        assert "digraph T" in dot
        assert "doublecircle" in dot
        assert '"tick"' in dot
