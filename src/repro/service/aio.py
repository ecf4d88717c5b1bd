"""The protocol front door shared by the daemon and the coordinator.

:class:`AsyncServerCore` is the accept/readline/dispatch loop behind
both the compilation daemon (:class:`~repro.service.server.ServiceServer`)
and the fleet front door
(:class:`~repro.service.coordinator.Coordinator`).  One event-loop
thread owns the socket; every client connection is a coroutine on that
loop, so a daemon holds thousands of *idle* connections at the cost of
a file descriptor each -- not a thread each, which is what the
previous ``socketserver.ThreadingMixIn`` listener paid.

The split of responsibilities:

* this core accepts connections, frames NDJSON messages (with the
  line-length bound of :mod:`repro.service.protocol`), counts open
  connections, and tears everything down on shutdown;
* :meth:`AsyncServerCore.front_door` is the protocol both servers
  share: ``ping`` before auth, the tenancy check, id validation,
  ``unknown_op``, the admin-gated ``shutdown``, the ``submit``
  preamble, the ``results`` stream and the lifecycle flags;
* each server supplies only its ops and its storage: an op table
  (blocking ops are marked to run via :func:`asyncio.to_thread`), a
  :class:`ResultsView` per submission, whose :class:`ChangeFeed`
  wakes a followed stream through ``loop.call_soon_threadsafe``, and
  the submit hooks ``_admit`` / ``_enqueue``.

Compilation itself still runs on plain worker threads
(:class:`~repro.engine.CompilationEngine` is synchronous); asyncio is
confined to the I/O front end.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from ..engine.manifest import ManifestError, parse_manifest
from ..obs.metrics import MetricsRegistry
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    error_reply,
    format_address,
    parse_address,
    read_message_async,
    write_message_async,
)
from .tenancy import (
    AuthContext,
    TenantRegistry,
    authorize_request,
    resolve_registry,
)

#: How long shutdown waits for in-flight dispatches (e.g. a result
#: stream writing its final ``end`` event) after the listener closes.
SHUTDOWN_GRACE_S = 10.0

#: Idle-poll bounds for a followed result stream: the fallback timeout
#: starts snappy, doubles while nothing completes, and is capped so a
#: missed notification never stalls the stream for long.
RESULTS_POLL_MIN_S = 0.05
RESULTS_POLL_MAX_S = 2.0

#: Request fields that name a submission or a job; a non-string value
#: is answered with ``bad_request`` before any handler looks it up.
ID_FIELDS = ("submission", "job")

#: Writes one reply frame on the request's connection.
Send = Callable[[dict[str, Any]], Awaitable[None]]

#: An op handler: ``handler(request, ctx)`` returns the reply (``ctx``
#: is ``None`` for ``ping``, which runs before authentication).
Handler = Callable[[dict[str, Any], AuthContext | None], dict[str, Any]]


def _next_idle_timeout(current: float) -> float:
    """The idle-poll back-off ladder of a followed result stream.

    Changes wake the stream immediately through a feed listener; this
    timeout only bounds *missed* notifications, so it doubles from
    :data:`RESULTS_POLL_MIN_S` up to :data:`RESULTS_POLL_MAX_S` while
    the stream sits idle (progress resets it to the minimum).
    """
    return min(current * 2.0, RESULTS_POLL_MAX_S)


class ChangeFeed:
    """A lock, a :attr:`changed` condition and change listeners.

    The daemon's :class:`~repro.service.queue.JobQueue` and the fleet
    :class:`~repro.service.coordinator.Coordinator` both broadcast
    every state change through one of these: threads block on
    :attr:`changed` (or :meth:`wait`), and followed result streams
    register a listener that bridges the change into their event loop.
    Subclasses mutate state under :attr:`changed` and call
    :meth:`_notify_all` while still holding it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: Notified on every state change.
        self.changed = threading.Condition(self._lock)
        self._listeners: list[Callable[[], None]] = []

    def add_listener(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` on every change (any thread).

        Callbacks run under the lock and must be cheap and
        non-blocking (e.g. ``loop.call_soon_threadsafe(event.set)``);
        exceptions are swallowed so one broken listener cannot wedge
        the feed.
        """
        with self._lock:
            self._listeners.append(callback)

    def remove_listener(self, callback: Callable[[], None]) -> None:
        """Detach a listener registered with :meth:`add_listener`."""
        with self._lock:
            try:
                self._listeners.remove(callback)
            except ValueError:
                pass

    def _notify_all(self) -> None:
        # Caller holds the lock.
        self.changed.notify_all()
        for callback in list(self._listeners):
            try:
                callback()
            except Exception:
                pass

    def poke(self) -> None:
        """Wake every waiter and listener without a state change.

        Used by shutdown: idle workers and followed result streams
        block on :attr:`changed` / their listeners and must re-check
        the stop flag even though nothing changed.
        """
        with self.changed:
            self._notify_all()

    def wait(
        self,
        predicate: Callable[[], bool],
        timeout: float | None = None,
    ) -> bool:
        """Block until ``predicate()`` holds or ``timeout`` elapses."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self.changed:
            while not predicate():
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self.changed.wait(remaining)
            return True


@dataclass(frozen=True)
class ResultsView:
    """What a server exposes of one submission to the results stream.

    ``finished(offset)`` returns the ``(job_id, record)`` pairs that
    finished after the first ``offset``, in completion order, and
    ``finished_count()`` their number; ``feed`` is notified whenever
    either may change.
    """

    manifest_digest: str
    total_jobs: int
    submitted_at: float
    feed: ChangeFeed
    finished: Callable[[int], list[tuple[str, dict[str, Any]]]]
    finished_count: Callable[[], int]


class AsyncServerCore:
    """Asyncio accept loop, NDJSON framing and the shared protocol
    front door, lifecycle-managed from synchronous code (see module
    docstring).

    Args:
        address: Listen spec (``host:port`` or a Unix socket path;
            TCP port ``0`` binds an ephemeral port -- :attr:`address`
            carries the resolved spec once the listener is up).
        max_line_bytes: Per-line protocol bound; an oversized frame is
            answered with a clean error object and the connection is
            closed, instead of buffering without limit.
        name: Thread-name prefix for logs and debuggers.
        tenants: Tenants file path or a ready
            :class:`~repro.service.tenancy.TenantRegistry`; ``None``
            serves the open v1-compatible protocol.
    """

    #: The server's ``role`` in ping/metrics replies and messages.
    role = "server"

    def __init__(
        self,
        address: str,
        *,
        max_line_bytes: int = MAX_LINE_BYTES,
        name: str = "repro-service",
        tenants: TenantRegistry | str | None = None,
    ) -> None:
        parse_address(address)  # validate eagerly
        self._address_spec = address
        self.max_line_bytes = max_line_bytes
        self._core_name = name
        self.tenants = resolve_registry(tenants)
        self._ops = self.op_table()
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._threads: list[threading.Thread] = []
        self.started_at = time.time()
        # The server's metrics registry, starting with the front door's
        # tenancy families (only ever labelled under a tenants file).
        # A daemon skips both for coordinator legs, so the merged fleet
        # view counts each client submission and throttle once.
        self.metrics = MetricsRegistry()
        self._m_tenant_submissions = self.metrics.counter(
            "repro_tenant_submissions_total",
            "Client submissions accepted, by tenant.",
            ("tenant",),
        )
        self._m_tenant_throttles = self.metrics.counter(
            "repro_tenant_throttles_total",
            "Submissions rejected by tenancy admission, by tenant "
            "and reason (rate_limit/queued_quota/submission_quota).",
            ("tenant", "reason"),
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._bound = threading.Event()
        self._bind_error: BaseException | None = None
        self._resolved_address: str | None = None
        self._shutdown_async: asyncio.Event | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        # Connection gauges, mutated only on the loop thread; reads
        # from other threads (ping) see a consistent-enough snapshot.
        self._open_connections = 0
        self._peak_connections = 0
        self._total_connections = 0
        self._busy_dispatches = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> str:
        """The resolved listen address (once the listener is up)."""
        if self._resolved_address is not None:
            return self._resolved_address
        return self._address_spec

    def start_listener(self) -> None:
        """Spawn the event-loop thread and block until bound."""
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop,
            name=f"{self._core_name}-listener",
            daemon=True,
        )
        self._loop_thread.start()
        if not self._bound.wait(timeout=30.0):
            raise ProtocolError(
                f"listener failed to bind {self._address_spec} in time"
            )
        if self._bind_error is not None:
            self._loop_thread.join(timeout=5.0)
            raise self._bind_error

    def stop_listener(self) -> None:
        """Close the listener and join the loop thread.

        In-flight dispatches get :data:`SHUTDOWN_GRACE_S` to write
        their final events before remaining connections are dropped.
        """
        loop = self._loop
        if loop is None:
            return
        if self._shutdown_async is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(self._shutdown_async.set)
            except RuntimeError:
                pass  # loop already closed
        if (
            self._loop_thread is not None
            and self._loop_thread is not threading.current_thread()
        ):
            self._loop_thread.join(timeout=SHUTDOWN_GRACE_S + 10.0)
        kind, value = parse_address(self._address_spec)
        if kind == "unix" and os.path.exists(value):
            try:
                os.unlink(value)
            except OSError:
                pass

    def _spawn(
        self, name: str, target: Callable[..., None], *args: Any, **kwargs: Any
    ) -> threading.Thread:
        """Start a daemon thread named after this server."""
        thread = threading.Thread(
            target=target,
            args=args,
            kwargs=kwargs,
            name=f"{self._core_name}-{name}",
            daemon=True,
        )
        thread.start()
        return thread

    def _join_threads(self) -> None:
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)

    def _reload_tenants(self) -> None:
        # Hot reload: a touched tenants file takes effect within one
        # sweep (SIGHUP, handled in the CLI, is immediate).
        if self.tenants is not None and self.tenants.maybe_reload():
            self._log(
                f"tenants file {self.tenants.path} reloaded "
                f"({len(self.tenants.tenants())} tenant(s))"
            )

    def _log(self, message: str) -> None:
        # Single seam for server logging; the CLI wires it to stderr.
        print(f"{self._core_name}: {message}", flush=True)

    @property
    def _fleet_token(self) -> str | None:
        """The clear fleet token this server presents to its peers."""
        return None if self.tenants is None else self.tenants.fleet_token

    def wait_stopped(self, timeout: float | None = None) -> bool:
        """Block until the server has fully stopped."""
        return self._stopped.wait(timeout)

    @property
    def draining(self) -> bool:
        """Whether the server has stopped accepting submissions."""
        return self._draining.is_set()

    def connection_stats(self) -> dict[str, int]:
        """Open/peak/total connection counts (for ``ping``)."""
        return {
            "open": self._open_connections,
            "peak": self._peak_connections,
            "total": self._total_connections,
        }

    # -- event loop ----------------------------------------------------

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._loop.close()

    async def _serve(self) -> None:
        assert self._loop is not None
        self._shutdown_async = asyncio.Event()
        kind, value = parse_address(self._address_spec)
        # Headroom over the protocol bound so the reader surfaces the
        # oversize condition as LimitOverrunError instead of stalling.
        limit = self.max_line_bytes + 1024
        try:
            if kind == "unix":
                if os.path.exists(value):
                    os.unlink(value)  # stale socket from a dead daemon
                server = await asyncio.start_unix_server(
                    self._handle_connection, path=value, limit=limit
                )
                self._resolved_address = value
            else:
                host, port = value
                server = await asyncio.start_server(
                    self._handle_connection,
                    host=host,
                    port=port,
                    limit=limit,
                    backlog=1024,
                )
                bound = server.sockets[0].getsockname()
                self._resolved_address = format_address(
                    "tcp", (bound[0], bound[1])
                )
        except OSError as exc:
            self._bind_error = exc
            self._bound.set()
            return
        self._bound.set()
        async with server:
            await self._shutdown_async.wait()
            server.close()
            await server.wait_closed()
        # Grace period: let dispatches already past the accept gate
        # (a result stream flushing its "end" line, a shutdown reply)
        # finish before their connections are torn down.
        deadline = self._loop.time() + SHUTDOWN_GRACE_S
        while self._busy_dispatches and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        pending = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        self._open_connections += 1
        self._total_connections += 1
        self._peak_connections = max(
            self._peak_connections, self._open_connections
        )
        try:
            while True:
                try:
                    request = await read_message_async(
                        reader, self.max_line_bytes
                    )
                except ProtocolError as exc:
                    await write_message_async(
                        writer, {"ok": False, "error": str(exc)}
                    )
                    return
                if request is None:
                    return  # clean EOF
                self._busy_dispatches += 1
                try:
                    keep_open = await self.dispatch_async(
                        request, writer
                    )
                finally:
                    self._busy_dispatches -= 1
                if not keep_open:
                    return
        except (
            BrokenPipeError,
            ConnectionResetError,
            asyncio.CancelledError,
        ):
            return  # peer went away, or the server is shutting down
        finally:
            self._writers.discard(writer)
            self._open_connections -= 1
            try:
                writer.close()
            except Exception:
                pass

    async def dispatch_async(
        self, request: dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        """Answer one request; ``False`` ends the connection."""

        async def send(message: dict[str, Any]) -> None:
            await write_message_async(writer, message)

        return await self.front_door(request, send)

    # -- protocol front door -------------------------------------------

    def op_table(self) -> dict[str, tuple[Handler, bool]]:
        """The server's own ops: ``op -> (handler, off_loop)``.

        ``handler(request, ctx)`` returns the reply; ``off_loop`` runs
        it through :func:`asyncio.to_thread` for ops that block.
        ``results`` and ``shutdown`` belong to the core.  ``ping`` is
        answered before authentication, with ``ctx=None``.
        """
        raise NotImplementedError

    def results_view(
        self, sub_id: str, ctx: AuthContext
    ) -> ResultsView | None:
        """The results-stream view of one submission, or ``None`` when
        it does not exist or ``ctx`` may not see it."""
        raise NotImplementedError

    def shutdown_options(self, request: dict[str, Any]) -> dict[str, Any]:
        """The ``stop()`` keyword arguments of a ``shutdown`` request,
        echoed in its reply."""
        return {"drain": bool(request.get("drain", True))}

    async def front_door(self, request: dict[str, Any], send: Send) -> bool:
        """Answer one request through ``send``; ``False`` ends the
        connection.

        ``ping`` is always answered (liveness must precede auth); every
        other op first passes the tenancy check, which is a no-op
        yielding an all-seeing context on an open server.
        """
        op = request.get("op")
        ctx = None
        if op != "ping":
            ctx, rejection = authorize_request(self.tenants, request)
            for field in ID_FIELDS:
                value = request.get(field)
                if rejection is None and not isinstance(
                    value, (str, type(None))
                ):
                    rejection = error_reply(
                        "bad_request", f"{field!r} must be a string id"
                    )
            if rejection is not None:
                await send(rejection)
                return True
        if op == "results":
            await self._stream_results(request, send, ctx)
            return True
        if op == "shutdown":
            if not ctx.admin:
                await send(
                    error_reply(
                        "forbidden",
                        "shutdown requires the admin capability",
                    )
                )
                return True
            options = self.shutdown_options(request)
            await send({"ok": True, "op": "shutdown", **options})
            # Stop from a fresh thread: stop() joins the listener loop
            # this very coroutine runs on.
            self._spawn("shutdown", self.stop, **options)
            return False
        if op not in self._ops:
            await send(error_reply("unknown_op", f"unknown op {op!r}"))
            return True
        handler, off_loop = self._ops[op]
        if off_loop:
            await send(await asyncio.to_thread(handler, request, ctx))
        else:
            await send(handler(request, ctx))
        return True

    def _submit(
        self, request: dict[str, Any], ctx: AuthContext
    ) -> dict[str, Any]:
        """The shared ``submit`` preamble: draining, manifest and
        priority checks, then admission (``_admit``), then the
        server's own ``_enqueue``."""
        if self.draining:
            return error_reply(
                "draining",
                f"{self.role} is draining; not accepting submissions",
            )
        manifest_doc = request.get("manifest")
        if manifest_doc is None:
            return error_reply("bad_request", "submit needs a 'manifest'")
        priority = request.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            return error_reply(
                "bad_request", "'priority' must be an integer"
            )
        try:
            jobs = parse_manifest(manifest_doc)
            rejection = self._admit(ctx, len(jobs))
            if rejection is not None:
                return rejection
            return self._enqueue(manifest_doc, jobs, priority, ctx)
        except ManifestError as exc:
            return error_reply("bad_request", f"bad manifest: {exc}")

    async def _stream_results(
        self, request: dict[str, Any], send: Send, ctx: AuthContext
    ) -> None:
        """Stream a submission's records in completion order.

        With ``follow`` the stream stays open until every job has
        finished; without, it ends after the records finished so far.
        While following, a feed listener wakes this coroutine through
        ``call_soon_threadsafe`` on every change, so records flow the
        moment they exist; the idle timeout only bounds missed
        notifications (:func:`_next_idle_timeout`).
        """
        sub_id = request.get("submission")
        view = None if sub_id is None else self.results_view(sub_id, ctx)
        if view is None:
            await send(
                error_reply("not_found", f"unknown submission {sub_id!r}")
            )
            return
        follow = bool(request.get("follow", False))
        total = view.total_jobs
        await send(
            {
                "ok": True,
                "event": "start",
                "submission": sub_id,
                "manifest_digest": view.manifest_digest,
                "total_jobs": total,
            }
        )
        sent = 0
        failed = 0
        idle_timeout = RESULTS_POLL_MIN_S
        loop = asyncio.get_running_loop()
        changed = asyncio.Event()

        def wake() -> None:
            loop.call_soon_threadsafe(changed.set)

        view.feed.add_listener(wake)
        try:
            while True:
                # Flush everything finished so far *before* any exit
                # check, so records finishing during the wait below
                # are never dropped by a shutdown.
                batch = view.finished(sent)
                if batch:
                    idle_timeout = RESULTS_POLL_MIN_S  # progress
                for job_id, record in batch:
                    if record.get("status") == "error":
                        failed += 1
                    await send(
                        {
                            "ok": True,
                            "event": "record",
                            "job_id": job_id,
                            "record": record,
                        }
                    )
                sent += len(batch)
                if sent >= total or not follow:
                    break
                if (
                    self._stopping.is_set()
                    and view.finished_count() < total
                ):
                    break  # going down with work left: end honestly
                changed.clear()
                # Re-check after clearing: a completion between the
                # scan above and the clear would otherwise be missed
                # until the idle timeout.
                if (
                    view.finished_count() > sent
                    or self._stopping.is_set()
                ):
                    continue
                try:
                    await asyncio.wait_for(
                        changed.wait(), timeout=idle_timeout
                    )
                except asyncio.TimeoutError:
                    idle_timeout = _next_idle_timeout(idle_timeout)
        finally:
            view.feed.remove_listener(wake)
        await send(
            {
                "ok": True,
                "event": "end",
                "submission": sub_id,
                "num_done": sent,
                "num_failed": failed,
                "remaining": total - sent,
                "wall_time_s": time.time() - view.submitted_at,
            }
        )


__all__ = [
    "AsyncServerCore",
    "ChangeFeed",
    "RESULTS_POLL_MAX_S",
    "RESULTS_POLL_MIN_S",
    "ResultsView",
    "SHUTDOWN_GRACE_S",
]
