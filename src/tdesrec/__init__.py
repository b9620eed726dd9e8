"""Timed discrete-event supervisor synthesis and reconfiguration path solving."""

from .automata import (
    Generator,
    allevents,
    is_nonblocking,
    language_equal,
    language_subset,
    meet,
    minimize,
    project,
    project_detail,
    sync_product,
    to_dot,
    trim,
)
from .events import PROHIBITIBLE, TICK, UNCONTROLLABLE, EventDef, EventTable, event_name
from .localization import (
    DecentralizationPackage,
    LocalizedSupervisor,
    default_event_list,
    timed_localize,
    verify_localization,
    verify_solution_equivalence,
)
from .solver import (
    CommutativityReport,
    ForciblePathSet,
    ReconfigProblem,
    erase_ticks,
    select_optimal,
    trs,
    verify_projection_commutativity,
)
from .synthesis import (
    Supervisor,
    controllable,
    mode_timed_graph,
    supcon,
    synthesize_tcrs,
)
from .timed import TimedGenerator, timed_graph

__version__ = "0.1.0"
