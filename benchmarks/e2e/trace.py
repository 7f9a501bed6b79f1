"""Span tracing for the traced run, recorded from outside the program.

The traced run replaces each layer boundary listed in :data:`BOUNDARIES`
(a module function or class method of ``repro``) with a wrapper that
records a span — name, start, end, parent span, op id — while an op is
being measured, and restores the originals afterwards.  Nothing inside
``src/`` knows it is being traced.  A boundary that no longer exists
fails the traced run before anything is patched: a renamed stage must be
renamed here too, or its time would silently land in ``session.self``.

A span's *self time* is its duration minus the part of it that child
spans cover; summed per layer, the self times plus the op spans' own
self time (``session.self``) add up to the measured op time exactly.

The wrappers only time.  The layers' counters (survivors, cuts, search
calls, cliques) come from the stats objects the public query API fills
(``stats=``), see ``harness.tally``.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "Boundary",
    "BOUNDARIES",
    "LAYERS",
    "MissingBoundary",
    "Tracer",
    "check_boundaries",
    "installed",
    "self_times",
]


class MissingBoundary(RuntimeError):
    """A wrapped layer boundary is gone from the program."""


@dataclass(frozen=True)
class Boundary:
    """One wrapped layer boundary: ``module``'s attribute ``attr``
    (``"Class.method"`` for a method) timed as ``layer``.

    ``generator`` boundaries are timed across their whole iteration.
    """

    module: str
    attr: str
    layer: str
    generator: bool = False


_PIPELINE = "repro.core.pipeline"

BOUNDARIES: tuple[Boundary, ...] = (
    Boundary(_PIPELINE, "compile_stage", "compile.full"),
    Boundary("repro.core.prune_kernel", "CompiledGraph.apply_delta",
             "compile.delta"),
    Boundary(_PIPELINE, "prune_stage", "prune"),
    Boundary("repro.core.session", "topk_core", "prune.anchored"),
    Boundary(_PIPELINE, "cut_stage", "cut"),
    Boundary(_PIPELINE, "derive_component_view", "views"),
    Boundary(_PIPELINE, "greedy_coloring", "color"),
    *(
        Boundary(_PIPELINE, name, "search")
        for name in (
            "enum_root_prep",
            "pivot_root_plan",
            "enumerate_pivot_range",
            "enumerate_root_range",
            "maximum_compiled",
        )
    ),
    Boundary(_PIPELINE, "_muc", "search", generator=True),
    Boundary("repro.core.session", "PreparedGraph.store_core",
             "maintain.publish"),
    Boundary("repro.core.maintenance", "survival_peel", "maintain.repeel"),
    *(
        Boundary("repro.uncertain.graph", f"UncertainGraph.{name}",
                 "graph.mutate")
        for name in ("set_probability", "add_edge", "remove_edge")
    ),
)

#: Every layer a span can be attributed to, plus the session's own time.
LAYERS: tuple[str, ...] = (
    *dict.fromkeys(b.layer for b in BOUNDARIES),
    "session.self",
)


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent, op]`` lists; ``parent``
    is the index of the enclosing span (``None`` for an op span), ``op``
    the op id.  Wrapped boundaries record only inside :meth:`op`, so
    set-up and the correctness gate never reach the layer totals.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        # Also drops spans left open above this one (a generator its
        # consumer abandoned).
        while self._stack and self._stack.pop() != index:
            pass

    @contextmanager
    def op(self, op_id: int, kind: str) -> Iterator[list[Any]]:
        """Root span around one measured op; yields the span record."""
        self._op = op_id
        index = self._open(f"op.{kind}")
        try:
            yield self.spans[index]
        finally:
            self._close(index)
            self._op = None

    def wrap(
        self, fn: Callable[..., Any], boundary: Boundary
    ) -> Callable[..., Any]:
        """``fn`` recording a ``boundary.layer`` span per call inside ops."""
        tracer = self
        layer = boundary.layer

        if boundary.generator:
            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                if not tracer._stack:
                    yield from fn(*args, **kwargs)
                    return
                index = tracer._open(layer)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(index)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer._stack:
                return fn(*args, **kwargs)
            index = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: summed self seconds and span count.

        ``session.self`` is the op spans' own self time — op time minus
        the top-level layer spans; ``op`` holds the op spans' total.
        """
        totals: dict[str, dict[str, float]] = {
            name: {"self_s": 0.0, "calls": 0} for name in (*LAYERS, "op")
        }
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[3] is None:
                totals["op"]["self_s"] += span[2] - span[1]
                totals["op"]["calls"] += 1
                name = "session.self"
            else:
                name = span[0]
            totals[name]["self_s"] += own
            totals[name]["calls"] += 1
        return totals


def _resolve(boundary: Boundary) -> tuple[Any, str]:
    """The object owning ``boundary``'s attribute, and the attribute name."""
    path = f"{boundary.module}.{boundary.attr}"
    try:
        owner: Any = importlib.import_module(boundary.module)
        *owners, name = boundary.attr.split(".")
        for part in owners:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        raise MissingBoundary(
            f"traced boundary {path} no longer exists; update BOUNDARIES "
            f"in benchmarks/e2e/trace.py"
        ) from None
    if not callable(vars(owner).get(name)):
        raise MissingBoundary(
            f"traced boundary {path} no longer exists; update BOUNDARIES "
            f"in benchmarks/e2e/trace.py"
        )
    return owner, name


def check_boundaries(boundaries: Sequence[Boundary] = BOUNDARIES) -> None:
    """Raise :class:`MissingBoundary` if any boundary is gone."""
    for boundary in boundaries:
        _resolve(boundary)


@contextmanager
def installed(
    tracer: Tracer, boundaries: Sequence[Boundary] = BOUNDARIES
) -> Iterator[Tracer]:
    """Wrap every boundary for the duration of the block.

    All boundaries are resolved before any is patched, so a missing one
    raises :class:`MissingBoundary` with the program untouched.
    """
    resolved = [(b, *_resolve(b)) for b in boundaries]
    patched: list[tuple[Any, str, Any]] = []
    try:
        for boundary, owner, name in resolved:
            original = vars(owner)[name]
            setattr(owner, name, tracer.wrap(original, boundary))
            patched.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out
