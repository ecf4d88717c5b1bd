"""Remote and tiered cache backends, and the cache-spec factory.

:mod:`repro.engine.cache` holds the machine-local backends (memory,
disk, null); this module turns caching into a *pluggable subsystem*:

* :class:`RemoteCache` -- a :class:`~repro.engine.cache.ProgramCache`
  speaking a small content-addressed HTTP object protocol (GET / PUT /
  HEAD by cache key, digest-validated payloads), so a fleet of
  ``repro serve`` daemons and sharded ``repro batch`` runners share
  one warm cache instead of each paying cold compiles.  Every remote
  failure degrades **fail-soft**: a transport error reads as a miss
  (or a dropped write), never as a failed job, and a short cooldown
  stops a dead server from adding per-job connect timeouts.
* :class:`RemoteCacheServer` -- the in-repo reference server
  (``repro cache serve``), a stdlib ``ThreadingHTTPServer`` fronting
  any local :class:`ProgramCache` (normally a
  :class:`~repro.engine.cache.DiskCache`).
* :class:`TieredCache` -- memory -> disk -> remote composition with
  read-through fill (a lower-tier hit is copied into every tier above
  it), write-through or write-back store policy, and per-tier
  :class:`~repro.engine.cache.CacheStats`.
* :func:`make_cache` -- the cache-spec factory behind ``--cache``:
  ``"memory"``, ``"disk:PATH[:MAX_BYTES]"``, ``"remote:URL"``,
  ``"tiered:SPEC,SPEC,..."``, ``"null"``.

Protocol (version 2; artifact bodies are the
:func:`~repro.engine.cache.encode_artifact` bytes, every other body is
JSON)::

    GET  /v1/cache/<key>   200 body=artifact (a disk store's bytes as
                           stored), X-Repro-Digest + ETag
                           404 unknown key or not an artifact
    HEAD /v1/cache/<key>   200 / 404 (no body)
    PUT  /v1/cache/<key>   204; body digest checked against
                           X-Repro-Digest when the client sends it,
                           400 on mismatch or a body that does not
                           decode to an artifact object
    GET  /v1/stats         200 {"protocol", "entries", "total_bytes",
                           "stats": {hits, misses, ...}}
    POST /v1/prune         200 PruneReport doc; body {"max_bytes": N}
    GET  /metrics          200 Prometheus text exposition of the
                           backing store's counters (see
                           docs/observability.md)

``<key>`` is the 64-hex :func:`repro.engine.cache.job_cache_key`;
anything else is 400.  The digest is SHA-256 over the payload bytes,
so transport corruption or truncation is detected on both directions.
Version 2 changed the artifact body from one JSON document to the
two-line codec layout; a one-line (version 1) body still decodes, so
old clients' PUTs are accepted.

See ``docs/caching.md`` for the tier model, the full spec grammar and
deployment notes.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Sequence

from .cache import (
    DiskCache,
    MemoryCache,
    NullCache,
    ProgramCache,
    PruneReport,
    decode_artifact,
    encode_artifact,
)

#: Bump on incompatible wire changes; ``/v1/stats`` reports it.
#: v2: artifact bodies use the two-line codec layout.
REMOTE_PROTOCOL_VERSION = 2

#: Header carrying the SHA-256 of the payload bytes.
DIGEST_HEADER = "X-Repro-Digest"

#: Content type of an artifact body (not JSON once it has two lines).
ARTIFACT_CONTENT_TYPE = "application/octet-stream"

#: Upper bound on one PUT body (a compiled-program artifact for the
#: largest suite rows is ~1 MB; 64 MiB bounds a malformed peer).
MAX_BODY_BYTES = 64 * 1024 * 1024

_KEY_RE = re.compile(r"[0-9a-f]{64}")

#: Valid :class:`TieredCache` write policies.
WRITE_POLICIES = ("through", "back")


class CacheSpecError(ValueError):
    """Raised on malformed ``--cache`` spec strings."""


class RemoteCacheError(RuntimeError):
    """An *administrative* remote operation (stats, prune) failed.

    The job-path operations (get / put / contains) never raise this --
    they degrade fail-soft to a miss or a dropped write.
    """


def artifact_digest(payload: bytes) -> str:
    """Hex SHA-256 of an artifact payload."""
    return hashlib.sha256(payload).hexdigest()


# ----------------------------------------------------------------------
# Remote client
# ----------------------------------------------------------------------


class RemoteCache(ProgramCache):
    """Client of a content-addressed HTTP cache server.

    Args:
        url: Server base URL (``http://host:port``); the ``/v1/...``
            endpoints hang off it.
        timeout: Per-request socket timeout in seconds.  Kept small:
            the remote tier is an optimisation, and a slow server must
            not dominate job latency.
        cooldown: After a transport error the remote is considered
            *down* for this many seconds -- lookups miss and writes
            drop immediately instead of each paying a connect timeout.
            The next request after the cooldown probes the server
            again, so a recovered server rejoins automatically.

    Failure semantics (the fail-soft contract): ``get`` returns
    ``None``, ``put`` drops the write, ``contains`` returns ``False``;
    each failure increments ``stats.errors``.  Only the administrative
    calls (:meth:`server_stats`, :meth:`prune`) raise
    :class:`RemoteCacheError`, because "the cache is down" *is* their
    answer.
    """

    kind = "remote"
    local = False

    def __init__(
        self,
        url: str,
        timeout: float = 5.0,
        cooldown: float = 10.0,
    ) -> None:
        super().__init__()
        parsed = urllib.parse.urlparse(url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise CacheSpecError(
                f"bad remote cache URL {url!r}: expected "
                "http[s]://host:port"
            )
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.cooldown = cooldown
        self._down_until = 0.0

    # -- plumbing ------------------------------------------------------

    def _entry_url(self, key: str) -> str:
        if not _KEY_RE.fullmatch(key):
            raise ValueError(f"bad cache key {key!r}: expected 64 hex")
        return f"{self.url}/v1/cache/{key}"

    def _down(self) -> bool:
        return time.monotonic() < self._down_until

    def _count_error(self) -> None:
        with self._stats_lock:
            self.stats.errors += 1

    def _transport_error(self) -> None:
        self._count_error()
        self._down_until = time.monotonic() + self.cooldown

    def _request(
        self,
        method: str,
        url: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ):
        """One HTTP exchange; the response object, or an ``HTTPError``
        response for non-2xx statuses.  Raises ``OSError`` family on
        transport failure (the callers translate that to fail-soft)."""
        request = urllib.request.Request(
            url, data=body, method=method, headers=headers or {}
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            # An HTTP status is a *server answer*, not a transport
            # failure; hand it back for per-status handling.
            return exc

    # -- job-path operations (fail-soft) -------------------------------

    def _load(self, key: str) -> dict[str, Any] | None:
        if self._down():
            return None
        try:
            response = self._request("GET", self._entry_url(key))
            with response:
                status = response.status
                if status != 200:
                    return None
                payload = response.read(MAX_BODY_BYTES + 1)
                claimed = response.headers.get(DIGEST_HEADER)
        except (OSError, urllib.error.URLError, http.client.HTTPException):
            self._transport_error()
            return None
        if len(payload) > MAX_BODY_BYTES:
            self._count_error()
            return None
        if claimed is not None and claimed != artifact_digest(payload):
            # Corrupted / truncated transfer: reject, recompile.
            self._count_error()
            return None
        doc = decode_artifact(payload)
        if doc is None:
            self._count_error()
        return doc

    def _store(self, key: str, doc: dict[str, Any]) -> None:
        if self._down():
            return
        payload = encode_artifact(doc)
        headers = {
            "Content-Type": ARTIFACT_CONTENT_TYPE,
            DIGEST_HEADER: artifact_digest(payload),
        }
        try:
            with self._request(
                "PUT", self._entry_url(key), body=payload, headers=headers
            ) as response:
                if response.status not in (200, 201, 204):
                    self._count_error()
        except (OSError, urllib.error.URLError, http.client.HTTPException):
            self._transport_error()

    def _contains(self, key: str) -> bool:
        if self._down():
            return False
        try:
            with self._request("HEAD", self._entry_url(key)) as response:
                return response.status == 200
        except (OSError, urllib.error.URLError, http.client.HTTPException):
            self._transport_error()
            return False

    # -- administrative operations (raise on failure) ------------------

    def _admin(self, method: str, path: str, body: bytes | None = None):
        try:
            response = self._request(
                method,
                f"{self.url}{path}",
                body=body,
                headers={"Content-Type": "application/json"}
                if body
                else {},
            )
            with response:
                status = response.status
                payload = response.read(MAX_BODY_BYTES)
        except (OSError, urllib.error.URLError, http.client.HTTPException) as exc:
            raise RemoteCacheError(
                f"cannot reach the cache server at {self.url}: {exc}"
            ) from exc
        if status != 200:
            raise RemoteCacheError(
                f"cache server {self.url}{path} answered {status}: "
                f"{payload[:200].decode('utf-8', 'replace')}"
            )
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RemoteCacheError(
                f"cache server {self.url}{path} sent malformed JSON"
            ) from exc

    def server_stats(self) -> dict[str, Any]:
        """The server's ``/v1/stats`` document."""
        return self._admin("GET", "/v1/stats")

    def prune(self, max_bytes: int | None = None) -> PruneReport:
        """Ask the server to evict down to ``max_bytes`` (server-side
        LRU; ``None`` means the server's own configured budget)."""
        body = json.dumps({"max_bytes": max_bytes}).encode("utf-8")
        doc = self._admin("POST", "/v1/prune", body=body)
        return PruneReport(
            removed_entries=doc.get("removed_entries", 0),
            removed_bytes=doc.get("removed_bytes", 0),
            remaining_entries=doc.get("remaining_entries", 0),
            remaining_bytes=doc.get("remaining_bytes", 0),
        )

    def info(self) -> dict[str, Any]:
        base: dict[str, Any] = {"kind": self.kind, "url": self.url}
        try:
            server = self.server_stats()
        except RemoteCacheError as exc:
            base["reachable"] = False
            base["error"] = str(exc)
            return base
        base["reachable"] = True
        base["entries"] = server.get("entries")
        base["total_bytes"] = server.get("total_bytes")
        base["server_stats"] = server.get("stats")
        return base


# ----------------------------------------------------------------------
# Metrics exposition
# ----------------------------------------------------------------------


def cache_stats_registry(store: ProgramCache) -> Any:
    """A :class:`repro.obs.MetricsRegistry` view of a cache's counters.

    One sample per tier (plain caches count as a single tier named
    after their kind): ``repro_cache_requests_total{tier,result}``,
    ``repro_cache_writes_total{tier,kind}``,
    ``repro_cache_evictions_total{tier}`` and
    ``repro_cache_errors_total{tier}``, plus occupancy gauges where the
    backend can report them.  Backs ``GET /metrics`` on the cache
    server and the cache section of the service daemon's exposition.
    """
    from ..obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    doc = store.stats_doc()
    tiers = doc.get("tiers") or [
        {"name": doc["kind"], "kind": doc["kind"], "stats": doc["stats"]}
    ]
    requests = registry.counter(
        "repro_cache_requests_total",
        "Cache lookups by tier and result.",
        ("tier", "result"),
    )
    writes = registry.counter(
        "repro_cache_writes_total",
        "Cache writes by tier and kind (store/fill/revalidate).",
        ("tier", "kind"),
    )
    evictions = registry.counter(
        "repro_cache_evictions_total",
        "Cache entries evicted, by tier.",
        ("tier",),
    )
    errors = registry.counter(
        "repro_cache_errors_total",
        "Remote-transport failures degraded fail-soft, by tier.",
        ("tier",),
    )
    for tier in tiers:
        name = tier["name"]
        stats = tier["stats"]
        requests.set(stats.get("hits", 0), tier=name, result="hit")
        requests.set(stats.get("misses", 0), tier=name, result="miss")
        writes.set(stats.get("stores", 0), tier=name, kind="store")
        writes.set(stats.get("fills", 0), tier=name, kind="fill")
        writes.set(
            stats.get("revalidations", 0), tier=name, kind="revalidate"
        )
        evictions.set(stats.get("evictions", 0), tier=name)
        errors.set(stats.get("errors", 0), tier=name)
    try:
        info = store.info()
    except Exception:
        info = {}
    if info.get("entries") is not None:
        registry.gauge(
            "repro_cache_entries", "Entries in the backing store."
        ).set(info["entries"])
    if info.get("total_bytes") is not None:
        registry.gauge(
            "repro_cache_size_bytes", "Bytes in the backing store."
        ).set(info["total_bytes"])
    return registry


# ----------------------------------------------------------------------
# Reference server
# ----------------------------------------------------------------------


class _CacheRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange against the server's backing store."""

    server_version = f"repro-cache/{REMOTE_PROTOCOL_VERSION}"
    protocol_version = "HTTP/1.1"

    # The ThreadingHTTPServer instance carries the backing store and a
    # quiet flag (set by RemoteCacheServer below).
    def _store(self) -> ProgramCache:
        return self.server.cache_store  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)

    def _send_json(self, status: int, doc: dict[str, Any]) -> None:
        payload = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            # Error paths that answered without draining the request
            # body set close_connection; advertise it so keep-alive
            # clients do not try to reuse the desynchronized socket.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _entry_key(self) -> str | None:
        """The cache key of a ``/v1/cache/<key>`` path, else ``None``."""
        prefix = "/v1/cache/"
        path = urllib.parse.urlparse(self.path).path
        if not path.startswith(prefix):
            return None
        key = path[len(prefix):]
        return key if _KEY_RE.fullmatch(key) else None

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urllib.parse.urlparse(self.path).path
        if path == "/metrics":
            from ..obs.metrics import PROMETHEUS_CONTENT_TYPE

            payload = (
                cache_stats_registry(self._store())
                .render_prometheus()
                .encode("utf-8")
            )
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        if path == "/v1/stats":
            store = self._store()
            info = store.info()
            self._send_json(
                200,
                {
                    "protocol": REMOTE_PROTOCOL_VERSION,
                    "entries": info.get("entries"),
                    "total_bytes": info.get("total_bytes"),
                    "stats": asdict(store.stats),
                },
            )
            return
        key = self._entry_key()
        if key is None:
            self._send_error(400, "expected /v1/cache/<64-hex-key>")
            return
        payload = self._store().get_encoded(key)
        if payload is None:
            self._send_error(404, "unknown cache key")
            return
        digest = artifact_digest(payload)
        self.send_response(200)
        self.send_header("Content-Type", ARTIFACT_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(payload)))
        self.send_header(DIGEST_HEADER, digest)
        self.send_header("ETag", f'"{digest}"')
        self.end_headers()
        self.wfile.write(payload)

    def do_HEAD(self) -> None:  # noqa: N802 - http.server API
        key = self._entry_key()
        if key is None:
            self.send_response(400)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        status = 200 if self._store().contains(key) else 404
        self.send_response(status)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        # Error paths below answer without draining the request body;
        # on a keep-alive (HTTP/1.1) connection the unread bytes would
        # otherwise be parsed as the next request line.
        key = self._entry_key()
        if key is None:
            self.close_connection = True
            self._send_error(400, "expected /v1/cache/<64-hex-key>")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self.close_connection = True
            self._send_error(400, "bad Content-Length")
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error(413, "payload missing or over the bound")
            return
        payload = self.rfile.read(length)
        claimed = self.headers.get(DIGEST_HEADER)
        if claimed is not None and claimed != artifact_digest(payload):
            self._send_error(
                400, "payload digest does not match " + DIGEST_HEADER
            )
            return
        doc = decode_artifact(payload)
        if doc is None:
            self._send_error(
                400, "payload header is not a UTF-8 JSON object"
            )
            return
        self._store().put(key, doc)
        self.send_response(204)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urllib.parse.urlparse(self.path).path
        if path != "/v1/prune":
            # Body left unread: drop the connection (see do_PUT).
            self.close_connection = True
            self._send_error(400, "unknown endpoint")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = (
                json.loads(self.rfile.read(length).decode("utf-8"))
                if length
                else {}
            )
        except (ValueError, UnicodeDecodeError):
            self._send_error(400, "bad prune request body")
            return
        max_bytes = body.get("max_bytes") if isinstance(body, dict) else None
        if max_bytes is not None and (
            isinstance(max_bytes, bool) or not isinstance(max_bytes, int)
        ):
            self._send_error(400, "'max_bytes' must be an integer")
            return
        report = self._store().prune(max_bytes)
        self._send_json(
            200,
            {
                "removed_entries": report.removed_entries,
                "removed_bytes": report.removed_bytes,
                "remaining_entries": report.remaining_entries,
                "remaining_bytes": report.remaining_bytes,
            },
        )


class RemoteCacheServer:
    """The reference cache server: HTTP front of a local store.

    Args:
        store: Backing :class:`ProgramCache` (normally a
            :class:`DiskCache`, so entries persist and ``max_bytes``
            LRU eviction applies server-side).
        host: Bind host (loopback by default; the protocol carries no
            auth, treat it like any local build service).
        port: Bind port; ``0`` picks an ephemeral one (read
            :attr:`url` after construction).

    Use :meth:`start` / :meth:`stop` for a background thread (tests,
    embedding) or :meth:`serve_forever` to block (the
    ``repro cache serve`` CLI).
    """

    def __init__(
        self,
        store: ProgramCache,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        self.store = store
        self._httpd = ThreadingHTTPServer(
            (host, port), _CacheRequestHandler
        )
        self._httpd.daemon_threads = True
        self._httpd.cache_store = store  # type: ignore[attr-defined]
        self._httpd.quiet = quiet  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL clients connect to (``http://host:port``)."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "RemoteCacheServer":
        """Serve from a daemon thread; returns immediately."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-cache-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop`."""
        self._httpd.serve_forever(poll_interval=0.05)

    def stop(self) -> None:
        """Stop serving and close the listening socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ----------------------------------------------------------------------
# Tiered composition
# ----------------------------------------------------------------------


class TieredCache(ProgramCache):
    """Read-through / write-through (or write-back) tier composition.

    Tiers are ordered fastest-first (memory -> disk -> remote).  A
    lookup walks down until a tier hits, then **fills** every tier
    above it with the found artifact (counted as ``fills`` in the
    upper tiers' stats, so fills never masquerade as fresh work).
    :attr:`last_hit_tier` names the serving tier after every hit.

    Write policy:

    * ``"through"`` (default) -- every ``put`` lands in every tier
      synchronously; the remote tier is warm the moment a job
      compiles, which is what a fleet sharing one server wants.
    * ``"back"`` -- puts land in every tier *except the last*; the
      last (slowest, typically remote) tier receives the deferred
      keys in one batch on :meth:`flush`.  ``repro batch`` flushes at
      the end of a run and the service daemon flushes periodically,
      so a flaky uplink is paid once per run, not once per job.

    The composition itself is fail-soft by construction: a down remote
    tier simply misses (see :class:`RemoteCache`), and the walk
    continues to serve from -- and write to -- the healthy tiers.
    """

    kind = "tiered"

    def __init__(
        self,
        tiers: Sequence[ProgramCache],
        write_policy: str = "through",
    ) -> None:
        super().__init__()
        if not tiers:
            raise CacheSpecError("a tiered cache needs at least one tier")
        if any(isinstance(tier, TieredCache) for tier in tiers):
            raise CacheSpecError("tiered caches do not nest")
        if write_policy not in WRITE_POLICIES:
            raise CacheSpecError(
                f"write policy must be one of {WRITE_POLICIES}, "
                f"got {write_policy!r}"
            )
        self.tiers = list(tiers)
        self.write_policy = write_policy
        self.tier_names = _tier_names(self.tiers)
        # Keys written but not yet pushed to the last tier
        # (write-back policy only).
        self._pending: set[str] = set()
        self._pending_lock = threading.Lock()

    # -- lookups -------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        profile: list[dict[str, Any]] = []
        found: dict[str, Any] | None = None
        hit_position = -1
        for position, tier in enumerate(self.tiers):
            start = time.perf_counter()
            doc = tier.get(key)
            profile.append(
                {
                    "tier": self.tier_names[position],
                    "duration_s": time.perf_counter() - start,
                    "hit": doc is not None,
                }
            )
            if doc is not None:
                found = doc
                hit_position = position
                break
        self._settle(key, found, hit_position, profile)
        return found

    def probe(
        self, key: str, accept: Callable[[dict[str, Any]], bool]
    ) -> dict[str, Any] | None:
        """Walk the local tiers above the first remote one; count the
        walk as :meth:`get` would only when a found artifact passes
        ``accept`` (see :meth:`ProgramCache.probe`)."""
        profile: list[dict[str, Any]] = []
        for position, tier in enumerate(self.tiers):
            if not tier.local:
                return None
            start = time.perf_counter()
            doc = tier._load(key)
            profile.append(
                {
                    "tier": self.tier_names[position],
                    "duration_s": time.perf_counter() - start,
                    "hit": doc is not None,
                }
            )
            if doc is not None:
                break
        else:
            return None
        if not accept(doc):
            return None
        for tier, entry in zip(self.tiers, profile):
            tier._count_lookup(entry["duration_s"], entry["hit"])
        self._settle(key, doc, position, profile)
        return doc

    def _settle(
        self,
        key: str,
        found: dict[str, Any] | None,
        hit_position: int,
        profile: list[dict[str, Any]],
    ) -> None:
        """Fill the tiers above a hit and count the composed lookup."""
        if found is not None:
            for upper in self.tiers[:hit_position]:
                upper.put(key, found, kind="fill")
            with self._stats_lock:
                self.stats.hits += 1
            self.last_hit_tier = self.tier_names[hit_position]
        else:
            with self._stats_lock:
                self.stats.misses += 1
            self.last_hit_tier = None
        self._tls.lookup_profile = profile

    def put(
        self, key: str, doc: dict[str, Any], *, kind: str = "store"
    ) -> None:
        targets = self.tiers
        if self.write_policy == "back" and len(self.tiers) > 1:
            targets = self.tiers[:-1]
            with self._pending_lock:
                self._pending.add(key)
        for tier in targets:
            tier.put(key, doc, kind=kind)
        with self._stats_lock:
            if kind == "fill":
                self.stats.fills += 1
            elif kind == "revalidate":
                self.stats.revalidations += 1
            else:
                self.stats.stores += 1

    def contains(self, key: str) -> bool:
        return any(tier.contains(key) for tier in self.tiers)

    # -- write-back flush ----------------------------------------------

    def flush(self) -> int:
        """Push write-back-deferred keys into the last tier.

        Reads each pending key back from the upper tiers (no second
        in-memory copy is kept) and stores it downstream; keys whose
        artifact was evicted from every upper tier in the meantime are
        silently skipped.  Keys the backing tier could not accept -- a
        remote tier down or erroring mid-flush -- stay pending and are
        retried by the next flush, so an uplink outage delays the
        upload instead of silently losing it.  Returns the number of
        entries actually pushed.

        The whole push batch runs under the stats lock shared with
        :meth:`stats_doc`, so a concurrent stats snapshot (the service
        ``ping`` / ``metrics`` path) observes a flush either entirely
        or not at all -- never a torn half-applied batch.
        """
        if self.write_policy != "back" or len(self.tiers) < 2:
            return 0
        with self._pending_lock:
            pending = sorted(self._pending)
            self._pending.clear()
        last = self.tiers[-1]
        flushed = 0
        unflushed: list[str] = []
        with self._stats_lock:
            for position, key in enumerate(pending):
                if isinstance(last, RemoteCache) and last._down():
                    # Inside the failure cooldown every store would be
                    # dropped silently; keep the rest for the next flush.
                    unflushed.extend(pending[position:])
                    break
                doc = None
                for tier in self.tiers[:-1]:
                    doc = tier._load(key)
                    if doc is not None:
                        break
                if doc is None:
                    continue
                errors_before = last.stats.errors
                last.put(key, doc, kind="store")
                if last.stats.errors > errors_before:
                    unflushed.append(key)  # transport failure: retry later
                    continue
                flushed += 1
        if unflushed:
            with self._pending_lock:
                self._pending.update(unflushed)
        return flushed

    # -- administration ------------------------------------------------

    def prune(self, max_bytes: int | None = None) -> PruneReport:
        """Prune every tier (skipping unreachable remote tiers)."""
        removed_entries = 0
        removed_bytes = 0
        remaining_entries = 0
        remaining_bytes = 0
        for tier in self.tiers:
            try:
                report = tier.prune(max_bytes)
            except RemoteCacheError:
                continue
            removed_entries += report.removed_entries
            removed_bytes += report.removed_bytes
            remaining_entries += report.remaining_entries
            remaining_bytes += report.remaining_bytes
        return PruneReport(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            remaining_entries=remaining_entries,
            remaining_bytes=remaining_bytes,
        )

    def info(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "write_policy": self.write_policy,
            "tiers": [
                {"name": name, **tier.info()}
                for name, tier in zip(self.tier_names, self.tiers)
            ],
        }

    def stats_doc(self) -> dict[str, Any]:
        # Snapshot under the stats lock flush() holds for its whole
        # batch: a reader (service ping / metrics) never sees some
        # tiers before a flush and some after.
        with self._stats_lock:
            return {
                "kind": self.kind,
                "stats": asdict(self.stats),
                "tiers": [
                    {
                        "name": name,
                        "kind": tier.kind,
                        "stats": tier.stats_doc()["stats"],
                    }
                    for name, tier in zip(self.tier_names, self.tiers)
                ],
            }


def _tier_names(tiers: Sequence[ProgramCache]) -> list[str]:
    """Unique display names per tier (``disk``, ``disk2``, ...)."""
    counts: dict[str, int] = {}
    names = []
    for tier in tiers:
        counts[tier.kind] = counts.get(tier.kind, 0) + 1
        count = counts[tier.kind]
        names.append(tier.kind if count == 1 else f"{tier.kind}{count}")
    return names


# ----------------------------------------------------------------------
# Spec factory
# ----------------------------------------------------------------------


def parse_cache_spec(spec: str) -> dict[str, Any]:
    """Parse a cache-spec string into a structured description.

    Grammar (see ``docs/caching.md``)::

        null | none
        memory
        disk:PATH[:MAX_BYTES]
        remote:URL
        tiered[+back]:SPEC,SPEC,...

    Returns a ``{"kind": ...}`` dict (with ``path`` / ``max_bytes`` /
    ``url`` / ``tiers`` / ``write_policy`` as applicable).  Raises
    :class:`CacheSpecError` on anything malformed.
    """
    spec = spec.strip()
    if not spec:
        raise CacheSpecError("empty cache spec")
    head, _, rest = spec.partition(":")
    head = head.lower()
    if head in ("null", "none"):
        if rest:
            raise CacheSpecError(f"{head!r} takes no arguments")
        return {"kind": "null"}
    if head == "memory":
        if rest:
            raise CacheSpecError("'memory' takes no arguments")
        return {"kind": "memory"}
    if head == "disk":
        if not rest:
            raise CacheSpecError("'disk' needs a path: disk:PATH")
        path, max_bytes = rest, None
        prefix, _, tail = rest.rpartition(":")
        if prefix and re.fullmatch(r"\d+", tail):
            path, max_bytes = prefix, int(tail)
            if max_bytes <= 0:
                raise CacheSpecError("disk max_bytes must be positive")
        return {"kind": "disk", "path": path, "max_bytes": max_bytes}
    if head == "remote":
        if not rest:
            raise CacheSpecError("'remote' needs a URL: remote:http://...")
        parsed = urllib.parse.urlparse(rest)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise CacheSpecError(
                f"bad remote cache URL {rest!r}: expected http[s]://host:port"
            )
        return {"kind": "remote", "url": rest}
    if head in ("tiered", "tiered+back"):
        if not rest:
            raise CacheSpecError(
                "'tiered' needs member specs: tiered:disk:PATH,remote:URL"
            )
        members = [part for part in rest.split(",") if part.strip()]
        if not members:
            raise CacheSpecError("'tiered' needs at least one member spec")
        tiers = []
        for member in members:
            parsed_member = parse_cache_spec(member)
            if parsed_member["kind"] == "tiered":
                raise CacheSpecError("tiered caches do not nest")
            tiers.append(parsed_member)
        return {
            "kind": "tiered",
            "tiers": tiers,
            "write_policy": "back" if head.endswith("+back") else "through",
        }
    raise CacheSpecError(
        f"unknown cache spec {spec!r}: expected null, memory, "
        "disk:PATH[:MAX_BYTES], remote:URL or tiered:SPEC,SPEC,..."
    )


def make_cache(spec: str | ProgramCache | None) -> ProgramCache:
    """Resolve a cache spec (or pass a ready cache through).

    ``None`` resolves to :class:`NullCache` -- the engine's historical
    "no cache given" behaviour.
    """
    if spec is None:
        return NullCache()
    if isinstance(spec, ProgramCache):
        return spec
    parsed = parse_cache_spec(spec)
    return _build(parsed)


def _build(parsed: dict[str, Any]) -> ProgramCache:
    kind = parsed["kind"]
    if kind == "null":
        return NullCache()
    if kind == "memory":
        return MemoryCache()
    if kind == "disk":
        return DiskCache(parsed["path"], max_bytes=parsed["max_bytes"])
    if kind == "remote":
        return RemoteCache(parsed["url"])
    if kind == "tiered":
        return TieredCache(
            [_build(member) for member in parsed["tiers"]],
            write_policy=parsed["write_policy"],
        )
    raise CacheSpecError(f"unknown cache kind {kind!r}")  # pragma: no cover


def describe_cache(cache: ProgramCache) -> str:
    """One-line human description of a cache (for logs and CLIs)."""
    if isinstance(cache, TieredCache):
        inner = " -> ".join(
            describe_cache(tier) for tier in cache.tiers
        )
        policy = (
            "" if cache.write_policy == "through"
            else f", write-{cache.write_policy}"
        )
        return f"tiered({inner}{policy})"
    if isinstance(cache, DiskCache):
        budget = (
            "" if cache.max_bytes is None else f", {cache.max_bytes}B"
        )
        return f"disk({cache.directory}{budget})"
    if isinstance(cache, RemoteCache):
        return f"remote({cache.url})"
    return cache.kind


__all__ = [
    "DIGEST_HEADER",
    "MAX_BODY_BYTES",
    "REMOTE_PROTOCOL_VERSION",
    "WRITE_POLICIES",
    "CacheSpecError",
    "RemoteCache",
    "RemoteCacheError",
    "RemoteCacheServer",
    "TieredCache",
    "artifact_digest",
    "cache_stats_registry",
    "describe_cache",
    "make_cache",
    "parse_cache_spec",
]
