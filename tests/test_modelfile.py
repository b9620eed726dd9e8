"""Model file parsing, diagnostics, and round-tripping."""

import random

import pytest

from tdesrec.automata import Generator
from tdesrec.events import PROHIBITIBLE, TICK
from tdesrec.fixtures import small_factory_text
from tdesrec.modelfile import ModelError, ModelFile, parse_model, render_model
from util import random_event_table

GOOD = """\
events
  11 prohibitible   -        1 inf
  12 uncontrollable -        0 3
  13 prohibitible   forcible 1 inf
atg M1
  states 2
  initial 0
  marked 0
  trans 0 11 1
  trans 1 12 0
spec S
  states 2
  initial 0
  marked 0 1
  trans 0 13 1
  trans 1 tick 1
"""


class TestParse:
    def test_empty_file(self):
        model = parse_model("")
        assert len(model.events) == 0
        assert not model.atgs and not model.specs

    def test_good_model(self):
        model = parse_model(GOOD)
        assert model.events[12].lower == 0
        assert model.events[12].upper == 3
        assert model.events[13].forcible
        assert model.events[11].control == PROHIBITIBLE
        assert model.atgs["M1"].n_states == 2
        assert (1, TICK) in model.specs["S"].transitions

    def test_comments_and_blank_lines(self):
        model = parse_model("# top\n\nevents\n  5 prohibitible - 0 inf # tail\n")
        assert 5 in model.events

    def test_negative_upper_bound_is_positioned(self):
        text = "events\n  5 prohibitible - 0 inf\n  6 prohibitible - 0 -1\n"
        with pytest.raises(ModelError) as exc:
            parse_model(text)
        diags = exc.value.diagnostics
        assert any(d.line == 3 and "upper bound" in d.message for d in diags)

    def test_duplicate_label(self):
        text = "events\n  5 prohibitible - 0 inf\n  5 uncontrollable - 0 1\n"
        with pytest.raises(ModelError, match="duplicate label 5"):
            parse_model(text)

    def test_unknown_event_in_transition(self):
        text = GOOD + "atg M2\n  states 1\n  initial 0\n  trans 0 99 0\n"
        with pytest.raises(ModelError, match="unknown event 99"):
            parse_model(text)

    def test_tick_rejected_in_atg(self):
        text = ("events\n  5 prohibitible - 0 inf\n"
                "atg A\n  states 1\n  initial 0\n  trans 0 tick 0\n")
        with pytest.raises(ModelError, match="tick is not allowed"):
            parse_model(text)

    def test_duplicate_block_name(self):
        text = ("atg A\n  states 1\n  initial 0\n"
                "atg A\n  states 1\n  initial 0\n")
        with pytest.raises(ModelError, match="duplicate block name"):
            parse_model(text)

    def test_nondeterministic_transition_rejected(self):
        text = ("events\n  5 prohibitible - 0 inf\n"
                "atg A\n  states 2\n  initial 0\n  trans 0 5 0\n  trans 0 5 1\n")
        with pytest.raises(ModelError, match="duplicate transition"):
            parse_model(text)

    @pytest.mark.parametrize("body, message", [
        ("  states \u00b2\n  initial 0\n", "states line needs one nonnegative count"),
        ("  states 1\n  initial \u00b2\n", "initial line needs one state index"),
        ("  states 1\n  initial 0\n  marked \u00b2\n", "malformed marked state '\u00b2'"),
        ("  states 1\n  initial 0\n  trans 0 5 \u00b2\n",
         "transition states must be nonnegative integers"),
    ], ids=["states", "initial", "marked", "trans"])
    def test_non_decimal_digit_is_positioned(self, body, message):
        # A superscript two is a digit to str.isdigit, but int() refuses it.
        text = "events\n  5 prohibitible - 0 inf\natg A\n" + body
        line = 4 + next(i for i, row in enumerate(body.splitlines()) if "\u00b2" in row)
        with pytest.raises(ModelError) as exc:
            parse_model(text)
        first = exc.value.diagnostics[0]
        assert (first.line, first.message) == (line, message)

    def test_out_of_range_states(self):
        text = ("events\n  5 prohibitible - 0 inf\n"
                "atg A\n  states 1\n  initial 3\n  trans 0 5 0\n")
        with pytest.raises(ModelError, match="initial state out of range"):
            parse_model(text)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["R MACH", "A#B", "", " A"])
    def test_unreadable_block_name_refused(self, name):
        gen = Generator(1, frozenset(), {}, 0, frozenset({0}))
        model = ModelFile(parse_model(GOOD).events, {name: gen})
        with pytest.raises(ValueError, match="cannot be read back"):
            render_model(model)

    def test_round_trip_good_model(self):
        model = parse_model(GOOD)
        again = parse_model(render_model(model))
        assert again.atgs == model.atgs
        assert again.specs == model.specs
        assert list(again.events) == list(model.events)

    def test_round_trip_small_factory(self):
        model = parse_model(small_factory_text())
        again = parse_model(render_model(model))
        assert again.atgs == model.atgs
        assert again.specs == model.specs
        assert list(again.events) == list(model.events)

    def test_alphabet_directive_round_trips(self):
        model = parse_model(GOOD)
        gen = Generator(1, frozenset({11, 12, TICK}), {(0, 11): 0}, 0,
                        frozenset({0}))
        out = ModelFile(model.events, {}, {"X": gen})
        again = parse_model(render_model(out))
        assert again.specs["X"].alphabet == gen.alphabet

    def test_random_models_round_trip(self):
        # Empty generators (any initial), events only in an alphabet, and
        # tick in specs are the corners render and parse must both cover.
        rng = random.Random(2026)

        def block(labels):
            n = rng.choice([0, 0, 1, 2, 3, 4])
            alphabet = frozenset(e for e in labels if rng.random() < 0.6)
            if n == 0:
                return Generator(0, alphabet, {}, rng.randrange(3))
            transitions = {(q, e): rng.randrange(n)
                           for q in range(n) for e in sorted(alphabet) if rng.random() < 0.4}
            marked = frozenset(q for q in range(n) if rng.random() < 0.5)
            return Generator(n, alphabet, transitions, rng.randrange(n), marked)

        for _ in range(3000):
            labels = tuple(sorted(rng.sample(range(1, 40), rng.randint(0, 5))))
            events = random_event_table(rng, labels)
            names = iter(f"B{i}" for i in range(10))
            atgs = {next(names): block(labels) for _ in range(rng.randint(0, 2))}
            specs = {next(names): block(labels + (TICK,)) for _ in range(rng.randint(0, 2))}
            model = ModelFile(events, atgs, specs)
            again = parse_model(render_model(model))
            assert again.atgs == model.atgs
            assert again.specs == model.specs
            assert list(again.events) == list(model.events)
