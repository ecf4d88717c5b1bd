"""Content-addressed compilation cache.

The cache key is a SHA-256 over the *complete* compilation input: the
circuit's content digest, the backend name, the effective compiler
configuration, the hardware constants, the AOD count and the seed, plus
the serialization format version and a cache schema version so a change
to either invalidates every stale entry.  Two jobs collide on a key only
when they are guaranteed to produce bit-identical programs.

The cached value is the
:func:`repro.engine.jobs.execute_job_on_circuit` artifact (program JSON
text, record summary, compile time).  Every tier that holds bytes
stores and transfers it through one codec,
:func:`encode_artifact` / :func:`decode_artifact`: a one-line JSON
header of every field but ``program``, then the program text verbatim,
so a hit parses the header and never unescapes the program.  Backends:

* :class:`MemoryCache` -- per-process dict, for repeated sweeps within
  one run;
* :class:`DiskCache` -- one encoded file per key under a directory, shared
  across processes and runs (writes are atomic rename, so concurrent
  workers race benignly; size accounting and eviction take a
  cross-process file lock); give it ``max_bytes`` for LRU eviction by
  file mtime (reads refresh recency);
* :class:`NullCache` -- caching disabled; every lookup misses.

Remote (HTTP object store) and tiered (memory -> disk -> remote)
backends live in :mod:`repro.engine.cachestore`, together with the
``"disk:PATH"`` / ``"tiered:..."`` cache-spec factory -- see
``docs/caching.md``.

All backends count hits/misses/stores (plus read-through fills,
hit-path revalidation write-backs, evictions and remote transport
errors) in a :class:`CacheStats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

try:  # POSIX only; the lock degrades to in-process on other platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from ..schedule.serialize import FORMAT_VERSION
from .jobs import (
    AUTO_BACKEND,
    CompileJob,
    benchmark_digest,
    effective_config,
    resolve_backend,
)

#: Bump to invalidate every existing cache entry (key derivation or
#: artifact layout change).  v2: the backend registry name joined the
#: key payload and artifacts carry per-pass timings.  v3: the
#: architecture-catalog name and strategy-axis selections joined the
#: key payload.  v4: the program travels as one JSON string and the
#: artifact carries its record ``summary``.  v5: artifacts are stored
#: and transferred in the two-line :func:`encode_artifact` layout.
CACHE_SCHEMA_VERSION = 5


#: Bound on the :func:`_key_fields` memo (cleared when full).
KEY_FIELDS_MEMO_SIZE = 1024

_key_fields_memo: dict[tuple, dict[str, Any]] = {}
_SCALAR_TYPES = frozenset({bool, int, float, str, type(None)})


def _key_fields(obj: Any) -> dict[str, Any]:
    """``asdict(obj)`` of a frozen config or params dataclass, memoised.

    The memo is keyed by the instance's exact value: its class plus its
    field values *and their types*, so ``1``, ``1.0`` and ``True`` --
    equal in Python, different in JSON -- never share an entry.  The
    one equal pair of scalars that JSON tells apart is ``0.0`` and
    ``-0.0``, so values holding a zero are keyed by their ``repr``.
    Anything but flat scalar fields is not memoised.  The returned dict
    is shared: read it, never mutate it.
    """
    values = tuple(vars(obj).values())
    kinds = tuple(map(type, values))
    if not _SCALAR_TYPES.issuperset(kinds):
        return asdict(obj)
    if 0 in values:
        token: tuple = (type(obj), repr(values))
    else:
        token = (type(obj), values, kinds)
    fields = _key_fields_memo.get(token)
    if fields is None:
        fields = asdict(obj)
        if len(_key_fields_memo) >= KEY_FIELDS_MEMO_SIZE:
            _key_fields_memo.clear()
        _key_fields_memo[token] = fields
    return fields


def job_cache_key(job: CompileJob, circuit_digest: str | None = None) -> str:
    """Stable hex cache key of a job.

    An ``auto`` job is resolved to its concrete backend first (a pure
    function of the circuit and architecture), so it shares its key --
    and therefore its cache entry -- with the equivalent
    explicitly-named job.

    Args:
        job: The compilation request.
        circuit_digest: Pre-computed :meth:`Circuit.digest` of the job's
            resolved circuit.  When omitted, a suite job keys off the
            memoised :func:`~repro.engine.jobs.benchmark_digest` and
            builds no circuit.
    """
    if circuit_digest is None:
        circuit_digest = (
            job.circuit.digest()
            if job.circuit is not None
            else benchmark_digest(job.benchmark, job.seed)
        )
    if job.backend == AUTO_BACKEND:
        job = resolve_backend(job)
    config = effective_config(job)
    payload = json.dumps(
        {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "program_format": FORMAT_VERSION,
            "circuit": circuit_digest,
            "backend": job.backend_name,
            "config_kind": type(config).__name__,
            "config": _key_fields(config),
            "params": _key_fields(job.params),
            "num_aods": job.num_aods,
            "seed": job.seed,
            "arch": job.arch,
            "strategies": job.strategies_map,
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _artifact_lines(doc: Any) -> tuple[str, str | None]:
    """``(header line, program text or None)`` of one artifact."""
    if isinstance(doc, dict) and isinstance(doc.get("program"), str):
        header = {
            name: value for name, value in doc.items() if name != "program"
        }
        return json.dumps(header, separators=(",", ":")), doc["program"]
    return json.dumps(doc, separators=(",", ":")), None


def encode_artifact(doc: Any) -> bytes:
    """The bytes every tier stores and transfers for ``doc``.

    Line 1 is a JSON header holding every field but ``program``.
    ``json.dumps`` escapes every newline inside a string, so the first
    ``\\n`` always ends the header.  Everything after it is the
    program's JSON text verbatim, never escaped a second time.  A doc
    without a ``str`` ``program`` (any other JSON value too) is one
    line.  An unencodable doc raises ``TypeError``.
    """
    header, program = _artifact_lines(doc)
    if program is None:
        return header.encode("utf-8")
    return f"{header}\n{program}".encode("utf-8")


def encoded_artifact_size(doc: Any) -> int:
    """Length of :func:`encode_artifact` ``(doc)`` without building it:
    header length + 1 + program length (in characters, which equal
    bytes for the ASCII program text a compile emits)."""
    header, program = _artifact_lines(doc)
    if program is None:
        return len(header)
    return len(header) + 1 + len(program)


def _parse_artifact(data: bytes, *, program: bool) -> dict[str, Any] | None:
    """The one validity rule of encoded artifacts.

    Returns the header object (plus ``program`` when ``program`` is
    true), or ``None`` for bytes that are not UTF-8, a torn or invalid
    header line, or a header that is not a JSON object.  With
    ``program`` false the program text is not built; its UTF-8 is
    checked by a decode only when the bytes are not all ASCII
    (compiled programs are).
    """
    view = memoryview(data)
    end = data.find(b"\n")
    try:
        doc = json.loads(str(view if end < 0 else view[:end], "utf-8"))
        if not isinstance(doc, dict):
            return None
        if end >= 0 and (program or not data.isascii()):
            text = str(view[end + 1:], "utf-8")
            if program:
                doc["program"] = text
    except ValueError:  # UnicodeDecodeError or JSONDecodeError
        return None
    return doc


def decode_artifact(data: bytes) -> dict[str, Any] | None:
    """The artifact :func:`encode_artifact` wrote, or ``None``.

    Parses line 1 as the header; the rest, if any, is ``program``,
    decoded once and not parsed.  Bytes that are not an artifact (see
    :func:`_parse_artifact`) read as ``None`` -- a miss, never a crash
    on the hit path.
    """
    return _parse_artifact(data, program=True)


def checked_artifact(data: bytes) -> bytes | None:
    """``data`` itself where :func:`decode_artifact` reads an artifact
    from it, else ``None``: the same verdict, without building the
    program string."""
    if _parse_artifact(data, program=False) is None:
        return None
    return data


@dataclass
class CacheStats:
    """Hit/miss/store/eviction counters of one cache instance.

    ``stores`` counts fresh artifact writes; ``fills`` counts
    read-through copies a tiered cache pushed into this tier after a
    lower tier hit; ``revalidations`` counts hit-path
    ``validated: true`` write-backs (see ``docs/engine.md``) -- three
    different write reasons, counted apart so occupancy questions
    ("how much new work did this run produce?") have honest answers.
    ``errors`` counts transport failures of a remote tier (each one
    degraded to a miss or a dropped write, never a failed job).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    fills: int = 0
    revalidations: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def writes(self) -> int:
        """Total ``put`` calls observed, of any kind."""
        return self.stores + self.fills + self.revalidations


#: Valid ``kind`` values of :meth:`ProgramCache.put`.
PUT_KINDS = ("store", "fill", "revalidate")


class ProgramCache:
    """Base class: stats bookkeeping around backend get/put.

    Subclasses implement ``_load`` / ``_store`` (and may override
    ``contains`` / ``prune`` / ``info`` where they can do better than
    the generic fallbacks).  :attr:`last_hit_tier` names the tier that
    served the most recent hit (for plain backends, the backend's own
    :attr:`kind`; tiered caches report the member tier) -- callers
    that want per-job attribution read it immediately after ``get``.
    Both :attr:`last_hit_tier` and :attr:`last_lookup_profile` are
    **per-thread** state: service worker threads share one cache, and
    a neighbour's lookup must not clobber the attribution this thread
    is about to read.

    Counter mutation and :meth:`stats_doc` snapshots share one
    ``_stats_lock``, so a ``ping`` reading the stats mid-flush sees a
    consistent document (tiered caches additionally hold the lock for
    the whole write-back flush batch).
    """

    #: Short backend identity used in specs, stats and tier names.
    kind = "cache"
    #: Whether a lookup stays on this machine (in-process or on local
    #: disk); :meth:`probe` reads only local tiers.
    local = True

    def __init__(self) -> None:
        self.stats = CacheStats()
        # Serialises counter updates against stats_doc() snapshots.
        self._stats_lock = threading.RLock()
        self._tls = threading.local()

    @property
    def last_hit_tier(self) -> str | None:
        """Tier that served this thread's most recent hit (or None)."""
        return getattr(self._tls, "hit_tier", None)

    @last_hit_tier.setter
    def last_hit_tier(self, value: str | None) -> None:
        self._tls.hit_tier = value

    @property
    def last_lookup_profile(self) -> list[dict[str, Any]]:
        """Per-tier timing of this thread's most recent ``get``.

        One ``{"tier", "duration_s", "hit"}`` entry per tier consulted,
        in consultation order -- the source of the per-tier cache
        lookup spans in job traces.
        """
        return list(getattr(self._tls, "lookup_profile", ()))

    def get(self, key: str) -> dict[str, Any] | None:
        """Look up an artifact; ``None`` on miss."""
        return self._counted(lambda: self._load(key))

    def get_encoded(self, key: str) -> bytes | None:
        """:meth:`get`, as the artifact's :func:`encode_artifact` bytes
        (what the reference cache server sends); counted as a ``get``.

        A backend that stores those bytes overrides this to return
        them as stored, never decoding the program.
        """
        doc = self.get(key)
        return None if doc is None else encode_artifact(doc)

    def probe(
        self, key: str, accept: Callable[[dict[str, Any]], bool]
    ) -> dict[str, Any] | None:
        """A lookup that counts only when it serves: the daemon's
        submit-time cache probe.

        Reads only tiers that stay on this machine (:attr:`local`).
        When the found artifact passes ``accept``, the lookup is
        counted and attributed exactly as :meth:`get` would count it
        and the artifact is returned.  Otherwise nothing is counted and
        ``None`` is returned: the job goes to a worker, whose
        :meth:`get` is then its one counted lookup.
        """
        if not self.local:
            return None
        start = time.perf_counter()
        doc = self._load(key)
        if doc is None or not accept(doc):
            return None
        self._count_lookup(time.perf_counter() - start, True)
        return doc

    def _counted(self, load: Callable[[], Any]) -> Any:
        """``load()``, timed and counted as one lookup of this tier (a
        hit unless it returns ``None``)."""
        start = time.perf_counter()
        found = load()
        self._count_lookup(time.perf_counter() - start, found is not None)
        return found

    def _count_lookup(self, duration: float, hit: bool) -> None:
        """Count one lookup and record its per-thread attribution."""
        with self._stats_lock:
            if hit:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        self.last_hit_tier = self.kind if hit else None
        self._tls.lookup_profile = [
            {"tier": self.kind, "duration_s": duration, "hit": hit}
        ]

    def put(
        self, key: str, doc: dict[str, Any], *, kind: str = "store"
    ) -> None:
        """Store an artifact under ``key``.

        Args:
            key: Content-addressed cache key.
            doc: The artifact document.
            kind: Why the write happened -- ``"store"`` (fresh
                artifact), ``"fill"`` (tiered read-through copy) or
                ``"revalidate"`` (hit-path ``validated: true``
                write-back).  Selects the stats counter only; the
                stored bytes are identical.
        """
        if kind not in PUT_KINDS:
            raise ValueError(
                f"put kind must be one of {PUT_KINDS}, got {kind!r}"
            )
        self._store(key, doc)
        with self._stats_lock:
            if kind == "fill":
                self.stats.fills += 1
            elif kind == "revalidate":
                self.stats.revalidations += 1
            else:
                self.stats.stores += 1

    def contains(self, key: str) -> bool:
        """Whether ``key`` is present (no stats, no recency refresh)."""
        return self._contains(key)

    def prune(self, max_bytes: int | None = None) -> "PruneReport":
        """Evict entries down to ``max_bytes`` where supported.

        The base implementation cannot enumerate entries and evicts
        nothing; backends with real occupancy (disk, memory, remote,
        tiered) override it.
        """
        return PruneReport(
            removed_entries=0,
            removed_bytes=0,
            remaining_entries=0,
            remaining_bytes=0,
        )

    def flush(self) -> int:
        """Push deferred writes downstream (write-back tiering only).

        Returns the number of entries flushed; plain backends have
        nothing deferred and return 0.
        """
        return 0

    def info(self) -> dict[str, Any]:
        """Occupancy / configuration description (JSON-safe)."""
        return {"kind": self.kind}

    def stats_doc(self) -> dict[str, Any]:
        """This cache's counters as a JSON-safe document.

        Snapshot under ``_stats_lock``, so concurrent mutators (worker
        threads, a write-back flush) can never produce a torn read.
        Tiered caches extend it with one entry per member tier.
        """
        with self._stats_lock:
            return {"kind": self.kind, "stats": asdict(self.stats)}

    def _load(self, key: str) -> dict[str, Any] | None:
        raise NotImplementedError

    def _store(self, key: str, doc: dict[str, Any]) -> None:
        raise NotImplementedError

    def _contains(self, key: str) -> bool:
        return self._load(key) is not None


class NullCache(ProgramCache):
    """Caching disabled: every lookup misses, stores are dropped."""

    kind = "null"

    def _load(self, key: str) -> dict[str, Any] | None:
        return None

    def _store(self, key: str, doc: dict[str, Any]) -> None:
        pass

    def _contains(self, key: str) -> bool:
        return False


class MemoryCache(ProgramCache):
    """In-process dict backend.

    Tracks an approximate byte occupancy (the
    :func:`encoded_artifact_size` of every entry) so ``info`` /
    ``prune`` work uniformly across backends; eviction order is
    insertion order (oldest entry first).
    """

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._entries: dict[str, dict[str, Any]] = {}
        self._sizes: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def total_bytes(self) -> int:
        """Approximate summed entry size (encoded artifact bytes)."""
        return sum(self._sizes.values())

    def _load(self, key: str) -> dict[str, Any] | None:
        return self._entries.get(key)

    def _store(self, key: str, doc: dict[str, Any]) -> None:
        self._entries[key] = doc
        self._sizes[key] = encoded_artifact_size(doc)

    def _contains(self, key: str) -> bool:
        return key in self._entries

    def prune(self, max_bytes: int | None = None) -> "PruneReport":
        """Evict oldest-inserted entries down to ``max_bytes``."""
        removed_entries = 0
        removed_bytes = 0
        remaining = self.total_bytes()
        if max_bytes is not None:
            for key in list(self._entries):
                if remaining <= max_bytes:
                    break
                size = self._sizes.pop(key, 0)
                remaining -= size
                removed_bytes += size
                del self._entries[key]
                removed_entries += 1
                with self._stats_lock:
                    self.stats.evictions += 1
        return PruneReport(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            remaining_entries=len(self._entries),
            remaining_bytes=remaining,
        )

    def info(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "entries": len(self._entries),
            "total_bytes": self.total_bytes(),
        }


class _DirectoryLock:
    """Re-entrant cross-process advisory lock on a cache directory.

    Serialises the read-modify-write critical sections of
    :class:`DiskCache` -- size accounting on store, eviction scans in
    :meth:`DiskCache.prune` -- across threads (an in-process
    ``RLock``) and across processes (``flock`` on
    ``<directory>/.lock``).  Entry *payload* writes never need it:
    they are atomic-rename and safe under any interleaving.  On
    platforms without :mod:`fcntl` only the in-process half applies.
    """

    def __init__(self, directory: str) -> None:
        self._directory = directory
        self._mutex = threading.RLock()
        self._depth = 0
        self._handle = None

    def __enter__(self) -> "_DirectoryLock":
        self._mutex.acquire()
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            os.makedirs(self._directory, exist_ok=True)
            path = os.path.join(self._directory, ".lock")
            try:
                handle = open(path, "a")
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                # Lock file unavailable (read-only mount, exotic fs):
                # fall back to in-process mutual exclusion only.
                self._handle = None
            else:
                self._handle = handle
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._depth -= 1
        if self._depth == 0 and self._handle is not None:
            try:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            self._handle.close()
            self._handle = None
        self._mutex.release()


@dataclass(frozen=True)
class PruneReport:
    """Outcome of one :meth:`DiskCache.prune` call."""

    removed_entries: int
    removed_bytes: int
    remaining_entries: int
    remaining_bytes: int


class DiskCache(ProgramCache):
    """One ``<key>.json`` file per entry under ``directory``.

    Each file holds the :func:`encode_artifact` bytes (the ``.json``
    name predates the two-line layout and is kept, so entries of older
    schemas still count towards occupancy and age out under eviction).
    The directory is created on first use.  Writes go through a
    temporary file plus :func:`os.replace`, so a reader never observes a
    half-written entry and concurrent writers of the same key simply
    last-write-win with identical content.  Size accounting and
    eviction additionally run under a cross-process file lock
    (``<directory>/.lock``), so many workers -- service worker
    threads, sharded batch processes -- can share one bounded cache
    directory without double-counting overwrites or racing prunes.

    Args:
        directory: Cache root.
        max_bytes: Soft size budget.  After every store the
            least-recently-used entries (oldest mtime; reads refresh it)
            are evicted until the total drops under the budget.  ``None``
            disables eviction.  A budget smaller than a single artifact
            still keeps the just-written entry writable -- it is simply
            evicted by a later store.
    """

    kind = "disk"

    def __init__(
        self, directory: str, max_bytes: int | None = None
    ) -> None:
        super().__init__()
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.directory = directory
        self.max_bytes = max_bytes
        # Running occupancy estimate so bounded caches do not rescan
        # the directory on every store; refreshed whenever we prune.
        self._size_estimate: int | None = None
        # Guards size accounting and eviction against concurrent
        # writers of the same directory (threads and processes).
        self._lock = _DirectoryLock(directory)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _load(self, key: str) -> dict[str, Any] | None:
        return self._read(key, decode_artifact)

    def get_encoded(self, key: str) -> bytes | None:
        return self._counted(lambda: self._read(key, checked_artifact))

    def _read(self, key: str, decode: Callable[[bytes], Any]) -> Any:
        """``decode`` of the entry's bytes, or ``None`` when the entry
        is missing or ``decode`` rejects it.  An accepted entry's LRU
        recency is refreshed."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        found = decode(data)
        if found is None:
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return found

    def _write_entry(self, key: str, doc: dict[str, Any]) -> None:
        """Write one entry via a temporary file + rename.

        A reader sees the old file or the whole new one, never a torn
        write.  The doc is encoded first, so an unencodable doc raises
        before any file is created.
        """
        data = encode_artifact(doc)
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, self._path(key))
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    def _store(self, key: str, doc: dict[str, Any]) -> None:
        if self.max_bytes is None:
            # Unbounded: no size accounting, and the atomic rename
            # makes the bare write safe under any concurrency.
            self._write_entry(key, doc)
            return
        # Bounded: the stat-replace-account sequence must not
        # interleave with another writer's, or overwrite deltas get
        # double-counted and occupancy drifts; the directory lock makes
        # it atomic across the threads and processes sharing this
        # cache directory.
        with self._lock:
            # A same-key overwrite replaces the old entry, so its size
            # must leave the running estimate; stat it before
            # os.replace clobbers it (0 when the key is new).
            try:
                replaced_size = os.stat(self._path(key)).st_size
            except OSError:
                replaced_size = 0
            self._write_entry(key, doc)
            # Maintain the occupancy estimate incrementally (one stat
            # of the just-written entry) and only pay the full
            # directory scan when the budget is actually exceeded.
            # Cross-process the estimate still drifts (each process
            # keeps its own), but every prune resynchronises it from
            # the directory under the same lock.
            if self._size_estimate is None:
                self._size_estimate = self.total_bytes()
            else:
                try:
                    self._size_estimate += (
                        os.stat(self._path(key)).st_size - replaced_size
                    )
                except OSError:
                    self._size_estimate = self.total_bytes()
            if self._size_estimate > self.max_bytes:
                self.prune(self.max_bytes)

    # -- size accounting / eviction ------------------------------------

    def _entries(self) -> list[tuple[str, float, int]]:
        """``(path, mtime, size)`` of every entry, oldest first."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        entries = []
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # concurrently evicted
            entries.append((path, stat.st_mtime, stat.st_size))
        entries.sort(key=lambda e: (e[1], e[0]))
        return entries

    def total_bytes(self) -> int:
        """Summed size of all cache entries."""
        return sum(size for _, _, size in self._entries())

    def __len__(self) -> int:
        return len(self._entries())

    def _contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def info(self) -> dict[str, Any]:
        entries = self._entries()
        return {
            "kind": self.kind,
            "directory": self.directory,
            "max_bytes": self.max_bytes,
            "entries": len(entries),
            "total_bytes": sum(size for _, _, size in entries),
        }

    def prune(self, max_bytes: int | None = None) -> PruneReport:
        """Evict least-recently-used entries down to ``max_bytes``.

        Args:
            max_bytes: Size budget for this prune; ``0`` empties the
                cache.  Defaults to the instance's ``max_bytes``; when
                neither is set, nothing is evicted and the report only
                carries occupancy counts.

        Returns:
            A :class:`PruneReport` with eviction and occupancy counts.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        with self._lock:
            entries = self._entries()
            total = sum(size for _, _, size in entries)
            removed_entries = 0
            removed_bytes = 0
            if budget is not None:
                for path, _, size in entries:
                    if total <= budget:
                        break
                    try:
                        os.unlink(path)
                    except OSError:
                        continue  # concurrently evicted
                    total -= size
                    removed_entries += 1
                    removed_bytes += size
                    with self._stats_lock:
                        self.stats.evictions += 1
            self._size_estimate = total
        return PruneReport(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            remaining_entries=len(entries) - removed_entries,
            remaining_bytes=total,
        )


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "PUT_KINDS",
    "CacheStats",
    "DiskCache",
    "MemoryCache",
    "NullCache",
    "ProgramCache",
    "PruneReport",
    "decode_artifact",
    "encode_artifact",
    "encoded_artifact_size",
    "job_cache_key",
]
