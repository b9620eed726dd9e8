"""Line-oriented model file format for events, ATG blocks and spec blocks.

A file holds one scenario::

    # comment
    events
      11 prohibitible   -        1 inf
      12 uncontrollable -        0 3
      13 prohibitible   forcible 1 inf
    atg M1
      states 3
      initial 0
      marked 0
      trans 0 11 1
      trans 1 12 0
    spec SPEC
      states 2
      initial 0
      marked 0 1
      trans 0 13 1
      trans 1 tick 1

Fields are whitespace separated; ``#`` starts a comment; ``inf`` is the
infinity token and is legal only as an upper bound.  The ``tick`` token may
appear in spec-block transitions (specifications and supervisors live over
the timed alphabet) but never in an ATG block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .automata import Generator
from .events import PROHIBITIBLE, TICK, UNCONTROLLABLE, EventDef, EventTable, event_name


@dataclass(frozen=True)
class Diagnostic:
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


class ModelError(Exception):
    """Parse failure carrying all positioned diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class ModelFile:
    """Parsed scenario: event table plus named ATG and spec generators."""

    events: EventTable
    atgs: dict[str, Generator] = field(default_factory=dict)
    specs: dict[str, Generator] = field(default_factory=dict)

    def block(self, name: str) -> Generator:
        if name in self.atgs:
            return self.atgs[name]
        if name in self.specs:
            return self.specs[name]
        raise KeyError(f"no block named {name!r}")


class _BlockBuilder:
    def __init__(self, kind: str, name: str, line: int):
        self.kind = kind
        self.name = name
        self.line = line
        self.n_states: int | None = None
        self.initial: int | None = None
        self.marked: list[int] = []
        self.alphabet: list[int] = []
        self.trans: list[tuple[int, int, int, int]] = []  # (line, src, event, dst)


def _read_event_token(token: str, allow_tick: bool) -> int:
    """The event ``token`` names in a block: a positive label, or ``tick``
    where ``allow_tick`` (a spec block's); ``ValueError`` says why not."""
    if token == "tick":
        if not allow_tick:
            raise ValueError("tick is not allowed in an ATG block")
        return TICK
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"malformed event label {token!r}") from None
    if value <= 0:
        raise ValueError(f"event label must be positive, got {token}")
    return value


def parse_model(text: str) -> ModelFile:
    """Parse a model file; raises ``ModelError`` with positioned diagnostics."""
    diagnostics: list[Diagnostic] = []
    event_defs: list[EventDef] = []
    seen_labels: set[int] = set()
    blocks: list[_BlockBuilder] = []
    section: str | None = None
    current: _BlockBuilder | None = None

    def err(line: int, message: str) -> None:
        diagnostics.append(Diagnostic(line, message))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split()
        head = fields[0]
        if head == "events":
            if len(fields) != 1:
                err(lineno, "the events header takes no arguments")
            section = "events"
            current = None
            continue
        if head in ("atg", "spec"):
            if len(fields) != 2:
                err(lineno, f"{head} header needs exactly one name")
                section = None
                current = None
                continue
            name = fields[1]
            if any(b.name == name for b in blocks):
                err(lineno, f"duplicate block name {name!r}")
            current = _BlockBuilder(head, name, lineno)
            blocks.append(current)
            section = head
            continue
        if section == "events":
            if len(fields) != 5:
                err(lineno, "event line needs: label control forcible lower upper")
                continue
            label_tok, control_tok, forcible_tok, lower_tok, upper_tok = fields
            try:
                label = int(label_tok)
            except ValueError:
                err(lineno, f"malformed event label {label_tok!r}")
                continue
            if label in seen_labels:
                err(lineno, f"duplicate label {label}")
                continue
            if control_tok not in (PROHIBITIBLE, UNCONTROLLABLE):
                err(lineno, f"unknown control attribute {control_tok!r}")
                continue
            if forcible_tok not in ("forcible", "-"):
                err(lineno, f"forcibility must be 'forcible' or '-', got {forcible_tok!r}")
                continue
            try:
                lower = int(lower_tok)
            except ValueError:
                err(lineno, f"malformed lower bound {lower_tok!r}")
                continue
            if upper_tok == "inf":
                upper: int | None = None
            else:
                try:
                    upper = int(upper_tok)
                except ValueError:
                    err(lineno, f"malformed upper bound {upper_tok!r}")
                    continue
            try:
                event_defs.append(EventDef(label, control_tok,
                                           forcible_tok == "forcible", lower, upper))
            except ValueError as exc:
                err(lineno, str(exc))
                continue
            seen_labels.add(label)
            continue
        if section in ("atg", "spec") and current is not None:
            allow_tick = section == "spec"
            if head == "states":
                if len(fields) != 2 or not fields[1].isdecimal():
                    err(lineno, "states line needs one nonnegative count")
                    continue
                current.n_states = int(fields[1])
            elif head == "initial":
                if len(fields) != 2 or not fields[1].isdecimal():
                    err(lineno, "initial line needs one state index")
                    continue
                current.initial = int(fields[1])
            elif head == "marked":
                values = []
                ok = True
                for tok in fields[1:]:
                    if not tok.isdecimal():
                        err(lineno, f"malformed marked state {tok!r}")
                        ok = False
                        break
                    values.append(int(tok))
                if ok:
                    current.marked.extend(values)
            elif head == "alphabet":
                for tok in fields[1:]:
                    try:
                        current.alphabet.append(_read_event_token(tok, allow_tick))
                    except ValueError as exc:
                        err(lineno, str(exc))
            elif head == "trans":
                if len(fields) != 4:
                    err(lineno, "trans line needs: source event target")
                    continue
                if not (fields[1].isdecimal() and fields[3].isdecimal()):
                    err(lineno, "transition states must be nonnegative integers")
                    continue
                try:
                    ev = _read_event_token(fields[2], allow_tick)
                except ValueError as exc:
                    err(lineno, str(exc))
                    continue
                current.trans.append((lineno, int(fields[1]), ev, int(fields[3])))
            else:
                err(lineno, f"unknown directive {head!r}")
            continue
        err(lineno, f"content outside any section: {stripped!r}")

    table = EventTable(event_defs)
    atgs: dict[str, Generator] = {}
    specs: dict[str, Generator] = {}
    for b in blocks:
        if b.n_states is None:
            err(b.line, f"block {b.name!r} is missing a states line")
            continue
        if b.initial is None:
            err(b.line, f"block {b.name!r} is missing an initial line")
            continue
        bad = False
        transitions: dict[tuple[int, int], int] = {}
        alphabet: set[int] = set()
        for evt in b.alphabet:
            if evt != TICK and evt not in table:
                err(b.line, f"unknown event {evt} in alphabet of block {b.name!r}")
                bad = True
            else:
                alphabet.add(evt)
        for line, src, evt, dst in b.trans:
            if evt != TICK and evt not in table:
                err(line, f"unknown event {evt} in transition")
                bad = True
                continue
            if not (0 <= src < b.n_states and 0 <= dst < b.n_states):
                err(line, f"transition state out of range for block {b.name!r}")
                bad = True
                continue
            if (src, evt) in transitions:
                err(line, f"duplicate transition on {event_name(evt)} from state {src}")
                bad = True
                continue
            transitions[(src, evt)] = dst
            alphabet.add(evt)
        if b.n_states and not (0 <= b.initial < b.n_states):
            err(b.line, f"initial state out of range for block {b.name!r}")
            bad = True
        for m in b.marked:
            if not (0 <= m < b.n_states):
                err(b.line, f"marked state {m} out of range for block {b.name!r}")
                bad = True
        if bad:
            continue
        gen = Generator(b.n_states, frozenset(alphabet), transitions,
                        b.initial, frozenset(b.marked))
        (atgs if b.kind == "atg" else specs)[b.name] = gen

    if diagnostics:
        raise ModelError(diagnostics)
    return ModelFile(table, atgs, specs)


def _check_block_name(name: str) -> None:
    """Raise ``ValueError`` unless a block header reads ``name`` back whole."""
    if name.split() != [name] or "#" in name:
        raise ValueError(f"block name {name!r} cannot be read back: "
                         "it must be nonempty, with no whitespace and no '#'")


def render_model(model: ModelFile) -> str:
    """Text form of a model; ``parse_model(render_model(m))`` reproduces ``m``.

    Raises ``ValueError`` for a block name the parser would not read back.
    """
    lines: list[str] = []
    if len(model.events):
        lines.append("events")
        for d in model.events:
            upper = "inf" if d.upper is None else str(d.upper)
            forcible = "forcible" if d.forcible else "-"
            lines.append(f"  {d.label} {d.control} {forcible} {d.lower} {upper}")

    def emit(kind: str, name: str, gen: Generator) -> None:
        _check_block_name(name)
        lines.append(f"{kind} {name}")
        lines.append(f"  states {gen.n_states}")
        lines.append(f"  initial {gen.initial}")
        if gen.marked:
            lines.append("  marked " + " ".join(str(q) for q in sorted(gen.marked)))
        used = {evt for (_, evt) in gen.transitions}
        if gen.alphabet - used:
            lines.append("  alphabet " + " ".join(event_name(e) for e in sorted(gen.alphabet)))
        for (src, evt), dst in sorted(gen.transitions.items()):
            lines.append(f"  trans {src} {event_name(evt)} {dst}")

    for name in sorted(model.atgs):
        emit("atg", name, model.atgs[name])
    for name in sorted(model.specs):
        emit("spec", name, model.specs[name])
    return "\n".join(lines) + "\n"
