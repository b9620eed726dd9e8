"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
random families are the pipeline generators from ``util``; every expected
value is either produced by an independent oracle or pinned from the
published scenario data.
"""

import random
import statistics
import time

import pytest

from tdesrec.automata import language_equal, project, sync_product
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
from tdesrec.synthesis import supcon
from tdesrec.timed import timed_graph
from util import (
    check_bound_soundness,
    check_deadline_soundness,
    check_remote_liveness,
    oracle_paths,
    oracle_supremal,
    random_atg,
    random_generator,
    random_pipeline_supervisor,
    random_spec,
    sample_problems,
)

PAPER_TIMED_PATH = (23, 33, TICK, 12, 31)
PAPER_OPERATIONAL = (23, 33, 12, 31)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_ttg_soundness():
    rng = random.Random(101)
    t0 = time.perf_counter()
    built = 0
    while built < 500:
        atg, events = random_atg(rng, max_activities=8, max_events=6,
                                 max_bound=4)
        try:
            ttg = timed_graph(atg, events, max_states=3000)
        except ValueError:
            continue
        check_deadline_soundness(atg, ttg)
        check_remote_liveness(atg, ttg)
        if ttg.n_states <= 200:
            check_bound_soundness(atg, ttg, max_paths=1500, max_len=10)
        built += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    report(1, "TTG construction soundness", ok,
           f"500 random timed graphs sound in {elapsed:.1f}s")
    assert ok


def test_criterion_2_supcon_supremality():
    rng = random.Random(102)
    t0 = time.perf_counter()
    done = 0
    from tdesrec.automata import meet

    while done < 200:
        atg, events = random_atg(rng, max_activities=3, max_events=3,
                                 max_bound=2)
        try:
            plant = timed_graph(atg, events, max_states=8)
        except ValueError:
            continue
        if plant.n_states > 6:
            continue
        if rng.random() < 0.5:
            spec = random_spec(rng, plant.generator.alphabet, max_states=2)
        else:
            alpha = tuple(sorted(plant.generator.alphabet))
            spec = random_generator(rng, 2, alpha, density=0.8, marked_p=0.8)
        if meet(plant.generator, spec).n_states > 10:
            continue
        got = supcon(plant, spec, events)
        want = oracle_supremal(plant, spec, events)
        if got.is_empty or want.is_empty:
            assert got.is_empty == want.is_empty
        else:
            assert language_equal(got.automaton, want)
        done += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    report(2, "supcon supremality oracle", ok,
           f"200 instances matched brute force exactly in {elapsed:.1f}s")
    assert ok


def test_criterion_3_trs_oracle_equivalence():
    rng = random.Random(103)
    t0 = time.perf_counter()
    solved = 0
    while solved < 200:
        out = random_pipeline_supervisor(
            rng, max_activities=8, max_events=6, density=0.6, forcible_p=0.6,
            full_alphabet_spec=rng.random() < 0.5)
        if out is None or out[0].n_states > 50:
            continue
        sup, _ = out
        for (q_s, q_r, e) in sample_problems(rng, sup, 4):
            result = trs(ReconfigProblem(sup, q_s, q_r, e))
            if not result.solvable:
                continue
            assert set(result.paths) == oracle_paths(sup, q_s, q_r)
            solved += 1
            if solved >= 200:
                break
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    report(3, "TRS oracle equivalence", ok,
           f"200 solvable problems matched the exhaustive oracle in {elapsed:.1f}s")
    assert ok


def test_criterion_4_small_factory(factory_problem):
    result = trs(factory_problem)
    assert result.solvable and result.paths
    best = select_optimal(result, "min_length")
    operational = erase_ticks(best)
    ok = operational == PAPER_OPERATIONAL
    notes = [f"length-optimal path {best}"]
    if best != PAPER_TIMED_PATH:
        notes.append(
            "tick placement differs from the published timed path "
            f"{PAPER_TIMED_PATH} (timer-convention open question: under the "
            "constructed timers, event 12's deadline forbids any earlier tick); "
            "passing on the projected sequence as specified")
    report(4, "SMALL FACTORY reproduction", ok, "; ".join(notes))
    assert ok


def test_criterion_5_projection_commutativity_at_scale():
    rng = random.Random(105)
    t0 = time.perf_counter()
    total = equal = 0
    anchor_collapse = divergent = 0
    while total < 100:
        out = random_pipeline_supervisor(
            rng, max_activities=6, max_events=5,
            full_alphabet_spec=rng.random() < 0.5)
        if out is None or out[0].n_states > 80:
            continue
        sup, _ = out
        for (q_s, q_r, e) in sample_problems(rng, sup, 4):
            problem = ReconfigProblem(sup, q_s, q_r, e)
            try:
                if not trs(problem, max_nodes=200_000).solvable:
                    continue
                rep = verify_projection_commutativity(problem,
                                                      max_nodes=200_000)
            except ValueError:
                continue
            total += 1
            if rep.equal:
                equal += 1
            elif rep.projected_source == rep.projected_target and q_s != q_r:
                anchor_collapse += 1
            else:
                divergent += 1
            if total >= 100:
                break
    elapsed = time.perf_counter() - t0
    ok = equal == total and elapsed < 120
    report(5, "projection commutativity at scale", ok,
           f"{equal}/{total} equal in {elapsed:.1f}s "
           f"({anchor_collapse} problems with source/target merged by the "
           f"projection, {divergent} with genuinely diverging path sets; "
           "the published commutativity holds as replay/membership but not as "
           "set equality - see DECISIONS.md)")
    assert ok, (
        f"exact equality held on {equal} of {total} problems; the remaining "
        "instances diverge for structural reasons analyzed in DECISIONS.md "
        "(projection pools timer histories: it merges source and target, "
        "carries them to other projected states, or erases tick as a "
        "competitor)")


def _benchmark_problem(rng, sup):
    """A problem a few backward steps away from a reconfiguration anchor."""
    gen = sup.automaton
    anchors = sorted({(q, e) for (q, e) in gen.transitions if e != TICK})
    if not anchors:
        return None
    back: dict[int, list[int]] = {}
    for (s, _), t in gen.transitions.items():
        back.setdefault(t, []).append(s)
    for _ in range(30):
        q_r, e = rng.choice(anchors)
        q_s = q_r
        for _ in range(rng.randint(3, 8)):
            preds = back.get(q_s)
            if not preds:
                break
            q_s = rng.choice(sorted(preds))
        problem = ReconfigProblem(sup, q_s, q_r, e)
        try:
            if trs(problem, max_nodes=150_000).solvable:
                return problem
        except ValueError:
            continue
    return None


def _best_of(problem, repeats=3):
    """Noise-robust timing: per-order minimum over repeated runs."""
    reports = [verify_projection_commutativity(problem, max_nodes=150_000)
               for _ in range(repeats)]
    return (min(r.seconds_trs_timed for r in reports),
            min(r.seconds_trs_projected for r in reports))


def _large_supervisor(rng):
    """A supervisor of at least 200 states: dense timed dynamics, sparse forcing."""
    from tdesrec.automata import allevents

    atg, events = random_atg(rng, max_activities=8, max_events=6, max_bound=4,
                             density=0.8, forcible_p=0.35)
    try:
        ttg = timed_graph(atg, events, max_states=5000)
    except ValueError:
        return None
    if ttg.n_states < 200:
        return None
    if rng.random() < 0.5:
        spec = allevents(ttg.generator)
    else:
        alpha = tuple(sorted(ttg.generator.alphabet))
        spec = random_generator(rng, 2, alpha, density=0.9, marked_p=0.9)
    sup = supcon(ttg, spec, events)
    if sup.n_states < 200:
        return None
    return sup


def test_criterion_6_remark_efficiency(factory_problem):
    rng = random.Random(106)
    measurements = [_best_of(factory_problem)]
    # Bounded by candidate count, not wall time, so every machine measures
    # the same instances; seed 106 needs 170 candidates.
    candidates = 0
    while len(measurements) < 21 and candidates < 1000:
        candidates += 1
        sup = _large_supervisor(rng)
        if sup is None:
            continue
        problem = _benchmark_problem(rng, sup)
        if problem is None:
            continue
        try:
            measurements.append(_best_of(problem))
        except ValueError:
            continue
    med_timed = statistics.median(t for t, _ in measurements)
    med_projected = statistics.median(p for _, p in measurements)
    ok = len(measurements) >= 21 and med_projected <= med_timed
    report(6, "solve-after-project efficiency trend", ok,
           f"{len(measurements)} instances (fixture + {len(measurements)-1} "
           f"random >=200 states, {candidates} candidates): "
           f"median solve time {med_projected*1000:.2f}ms "
           f"on the projected supervisor vs {med_timed*1000:.2f}ms timed "
           "(soft criterion, measured trend)")
    assert ok


def _random_package(rng):
    out = random_pipeline_supervisor(
        rng, max_activities=5, max_events=5, density=0.6, forcible_p=0.6,
        full_alphabet_spec=rng.random() < 0.5)
    if out is None or out[0].n_states > 60:
        return None
    sup, ttg = out
    ev = default_event_list(sup)
    if not ev:
        return None
    return DecentralizationPackage(ttg, sup, ev)


def _package_problem(rng, pkg):
    sup = pkg.supervisor
    ev = sup.events
    for (q_s, q_r, e) in sample_problems(rng, sup, 12):
        if not (ev.is_prohibitible(e) and ev.is_forcible(e)):
            continue
        problem = ReconfigProblem(sup, q_s, q_r, e)
        try:
            if trs(problem, max_nodes=200_000).solvable:
                return problem
        except ValueError:
            continue
    return None


def test_criterion_7_decentralized_equivalence():
    rng = random.Random(107)
    t0 = time.perf_counter()
    done = 0
    while done < 50:
        pkg = _random_package(rng)
        if pkg is None:
            continue
        problem = _package_problem(rng, pkg)
        if problem is None:
            continue
        loc = timed_localize(pkg)
        composed = sync_product([pkg.plant.generator, loc.tdrs])
        sup_gen = pkg.supervisor.automaton
        union = composed.alphabet | sup_gen.alphabet
        from tdesrec.automata import Generator

        pad = lambda g: Generator(g.n_states, union, dict(g.transitions),
                                  g.initial, g.marked)
        assert language_equal(pad(composed), pad(sup_gen)), "defining identity"
        rep = verify_solution_equivalence(pkg, loc, problem)
        rerun = trs(ReconfigProblem(decentralized_closed_loop(pkg, loc), problem.source,
                                    problem.target, problem.reconfig_event))
        assert frozenset(rerun.paths) == rep.centralized, "solution sets differ"
        done += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    report(7, "decentralization equivalence at scale", ok,
           f"50 packages: identity exact and centralized/decentralized "
           f"solution sets identical in {elapsed:.1f}s")
    assert ok


def test_criterion_8_decentralized_commutativity():
    rng = random.Random(108)
    t0 = time.perf_counter()
    total = equal = 0
    while total < 50:
        pkg = _random_package(rng)
        if pkg is None:
            continue
        problem = _package_problem(rng, pkg)
        if problem is None:
            continue
        # The closed loop is the supervisor, so the decentralized report is
        # the centralized one (DECISIONS.md, "Criterion 8 adds nothing of its
        # own").
        assert verify_localization(pkg, timed_localize(pkg)), "defining identity"
        rep = verify_projection_commutativity(problem)
        total += 1
        if rep.equal:
            equal += 1
    elapsed = time.perf_counter() - t0
    ok = equal == total
    report(8, "decentralized projection commutativity", ok,
           f"{equal}/{total} packages equal in {elapsed:.1f}s (the same "
           "structural divergences as criterion 5 transport to the "
           "decentralized side - see DECISIONS.md)")
    assert ok, (
        f"exact equality held on {equal} of {total} packages; see criterion 5 "
        "and DECISIONS.md for the blocking analysis")
