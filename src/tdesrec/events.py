"""Event attribute definitions for timed discrete-event models.

Every activity event carries a control attribute (prohibitible events may be
disabled by a supervisor, uncontrollable ones may not), a forcibility flag
(forcible events can preempt the clock), and a timer interval.  The global
clock event ``tick`` is not an activity event and has no entry in the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

TICK = 0
"""Reserved label of the global clock event."""

PROHIBITIBLE = "prohibitible"
UNCONTROLLABLE = "uncontrollable"


def event_name(label: int) -> str:
    """Printable form of an event label; the clock renders as ``tick``."""
    return "tick" if label == TICK else str(label)


@dataclass(frozen=True)
class EventDef:
    """Control attribute, forcibility and timer bounds of one activity event.

    ``upper is None`` marks a remote event (infinite upper bound): it becomes
    eligible ``lower`` ticks after enablement and stays eligible.  A finite
    ``upper`` marks a prospective event: it is eligible between ``lower`` and
    ``upper`` ticks after enablement, and by ``upper`` ticks it must occur
    (or be disabled), which blocks further ticks at the deadline.
    """

    label: int
    control: str
    forcible: bool = False
    lower: int = 0
    upper: int | None = None

    def __post_init__(self) -> None:
        if self.label == TICK:
            raise ValueError("the tick label is reserved and cannot be declared")
        if self.label < 0:
            raise ValueError(f"event label must be nonnegative, got {self.label}")
        if self.control not in (PROHIBITIBLE, UNCONTROLLABLE):
            raise ValueError(f"event {self.label}: unknown control attribute {self.control!r}")
        if self.lower < 0:
            raise ValueError(f"event {self.label}: negative lower bound")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError(f"event {self.label}: upper bound {self.upper} below lower bound {self.lower}")

    @property
    def is_remote(self) -> bool:
        return self.upper is None

    @property
    def is_prospective(self) -> bool:
        return self.upper is not None

    @property
    def default_timer(self) -> int:
        """Timer value set on (re)enablement: upper bound if prospective, lower if remote."""
        return self.lower if self.upper is None else self.upper


class EventTable:
    """Immutable lookup of event definitions by label."""

    def __init__(self, defs: Iterable[EventDef]):
        by_label: dict[int, EventDef] = {}
        for d in defs:
            if d.label in by_label:
                raise ValueError(f"duplicate event label {d.label}")
            by_label[d.label] = d
        self._by_label = by_label
        self.forcible = frozenset(d.label for d in by_label.values() if d.forcible)
        self.prohibitible = frozenset(
            d.label for d in by_label.values() if d.control == PROHIBITIBLE
        )
        self.uncontrollable = frozenset(
            d.label for d in by_label.values() if d.control == UNCONTROLLABLE
        )

    def __getitem__(self, label: int) -> EventDef:
        return self._by_label[label]

    def __contains__(self, label: int) -> bool:
        return label in self._by_label

    def __iter__(self) -> Iterator[EventDef]:
        return iter(self._by_label[k] for k in sorted(self._by_label))

    def __len__(self) -> int:
        return len(self._by_label)

    @property
    def labels(self) -> frozenset[int]:
        return frozenset(self._by_label)

    def is_forcible(self, label: int) -> bool:
        """Forcibility of any label: tick and undeclared labels are not forcible."""
        return label in self.forcible

    def is_prohibitible(self, label: int) -> bool:
        """Tick is neither prohibitible nor forcible; it is preempted, not disabled."""
        return label in self.prohibitible

    def is_uncontrollable(self, label: int) -> bool:
        """True for declared uncontrollable activity events (tick is handled separately)."""
        return label in self.uncontrollable
