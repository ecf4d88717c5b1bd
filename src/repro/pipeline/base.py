"""Pass and Pipeline: the composable compilation skeleton.

A *pass* is one stage of a compiler: it receives the
:class:`~repro.pipeline.context.CompileContext`, reads the fields earlier
passes produced, writes its own, and returns the context.  A *pipeline*
is an ordered pass list executed with per-pass wall-clock timing, so
every backend reports where its compile time goes
(``CompilationResult.stats["pass_timings"]``).

Passes are stateless with respect to any single compilation: all mutable
state lives in the context, so one :class:`Pipeline` instance can be
shared across compilations, threads and backends.
"""

from __future__ import annotations

import time
from typing import Iterator, Protocol, Sequence, runtime_checkable

from .context import CompileContext


@runtime_checkable
class Pass(Protocol):
    """One compilation stage: context in, context out.

    Implementations must expose a ``name`` (unique within a pipeline,
    used for timing/stats keys) and a ``run`` method.  ``run`` may
    mutate the context in place and return it; returning ``None`` is
    treated as "context mutated in place".
    """

    name: str

    def run(self, ctx: CompileContext) -> CompileContext | None:
        """Execute the pass against ``ctx``."""
        ...


class Pipeline:
    """An ordered pass list with per-pass timing.

    Args:
        passes: The passes, executed in order.
        name: Pipeline label (the backend name, in registry use).

    Example:
        >>> from repro.pipeline import get_backend
        >>> spec = get_backend("powermove")
        >>> [p.name for p in spec.pipeline][:2]
        ['transpile', 'block_partition']
    """

    def __init__(self, passes: Sequence[Pass], name: str = "") -> None:
        if not passes:
            raise ValueError("a pipeline needs at least one pass")
        seen: set[str] = set()
        for p in passes:
            if not getattr(p, "name", ""):
                raise ValueError(f"pass {p!r} has no name")
            if p.name in seen:
                raise ValueError(f"duplicate pass name {p.name!r}")
            seen.add(p.name)
        self._passes: tuple[Pass, ...] = tuple(passes)
        self.name = name

    def __iter__(self) -> Iterator[Pass]:
        return iter(self._passes)

    def __len__(self) -> int:
        return len(self._passes)

    @property
    def pass_names(self) -> tuple[str, ...]:
        """The pass names, in execution order."""
        return tuple(p.name for p in self._passes)

    def run(self, ctx: CompileContext) -> CompileContext:
        """Execute every pass in order, recording per-pass timings.

        Timings land in ``ctx.pass_timings`` (name -> seconds, in
        execution order).  Pass exceptions propagate unwrapped so the
        facades keep their historical error contracts (e.g. the
        ``ValueError`` on a missing storage zone).

        Alongside the duration map, each pass records a
        ``(name, start_s, end_s)`` offset pair (relative to this call)
        in ``ctx.pass_spans`` -- the bridge that turns pass timings
        into the per-pass child spans of a job trace.
        """
        run_start = time.perf_counter()
        for p in self._passes:
            start = time.perf_counter()
            result = p.run(ctx)
            if result is not None:
                ctx = result
            end = time.perf_counter()
            ctx.pass_timings[p.name] = end - start
            ctx.pass_spans.append(
                (p.name, start - run_start, end - run_start)
            )
        return ctx

    def __repr__(self) -> str:
        label = self.name or "pipeline"
        return f"Pipeline({label}: {' -> '.join(self.pass_names)})"


__all__ = ["Pass", "Pipeline"]
