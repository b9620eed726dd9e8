"""Spans around the program's public functions, installed from outside it.

``Tracer.install()`` wraps every public function of the traced modules and
the ``Generator.out_edges`` and ``Generator.eligible`` methods, and puts each
wrapper into every ``tdesrec`` module namespace that holds the original, so
calls made through ``from .automata import sync_product`` are seen too.  Each
call records a span (name, start, end, parent) in memory; nothing is written
until the run ends.  Self time is a span's duration minus that of the spans
directly inside it.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "modelfile", "timed", "synthesis", "automata", "solver",
                  "localization")


def _project_detail(args, result):
    return {"states_in": args[0].n_states, "states_out": result.generator.n_states}


def _localized(args, result):
    controllers = list(result.tick_controllers.values()) + list(result.event_controllers.values())
    return {"controller_states": sum(g.n_states for g in controllers),
            "fallbacks": int(result.used_fallback)}


# Counts read off a traced call's arguments and result.
COUNTERS = {
    "timed.timed_graph": lambda args, r: {"states": r.n_states},
    "synthesis.supcon": lambda args, r: {"states": r.n_states},
    "automata.project_detail": _project_detail,
    "solver.build_bft": lambda args, r: {"nodes": len(r.nodes)},
    "solver.trs": lambda args, r: {"paths": len(r.paths)},
    "localization.timed_localize": _localized,
}


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index, raised)
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._open, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                spans[index] = (name, start, clock(), parent, raised)
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self, callers=()) -> None:
        """Wrap the traced functions in ``tdesrec`` and in the ``callers`` modules."""
        from tdesrec.automata import Generator

        modules = {m: sys.modules[f"tdesrec.{m}"] for m in TRACED_MODULES}
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        namespaces = [m for name, m in sys.modules.items()
                      if name == "tdesrec" or name.startswith("tdesrec.")]
        for module in namespaces + list(callers):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for method in ("out_edges", "eligible"):
            original = Generator.__dict__[method]
            self._restore.append((Generator, method, original))
            setattr(Generator, method, self._wrap(f"automata.Generator.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, and raised calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0, "raised": 0})
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child[i]
            row["raised"] += raised
        return out
