"""Deterministic batch sharding and shard-result merging.

A :class:`ShardPlan` splits one job manifest into ``N`` disjoint slices
so independent machines (or CI lanes) each compile ``1/N`` of the batch
and a final :func:`merge_result_docs` step reassembles the per-shard
result files into the canonical batch output -- byte-identical (modulo
wall-clock timing fields) to an unsharded run of the same manifest.

The partition is **round-robin by manifest index**: shard ``i/N`` takes
every job whose zero-based manifest position ``p`` satisfies
``p % N == i - 1``.  This is deterministic (the manifest fully defines
every shard), independent of job content, and interleaves expensive
neighbouring jobs (a manifest is typically sorted by benchmark size)
across shards instead of handing one shard all the big ones.

Every result document -- sharded or not -- carries the manifest's
content digest and total job count, and every record carries its global
manifest ``index``; the merge refuses documents that disagree on the
manifest, overlap, or leave indices uncovered.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, TypeVar

from .engine import JobResult

#: Schema identity of the batch-results document (shared by the
#: ``repro batch`` / ``repro merge`` CLIs and the test-suite).
BATCH_RESULTS_FORMAT = "repro-batch-results"
#: v2: records gained ``index``/``status``/``error``, documents gained
#: ``manifest_digest``/``total_jobs``/``shard``/``on_error``/
#: ``num_failed``.
BATCH_RESULTS_VERSION = 2

#: Top-level document fields that depend on the run environment (wall
#: clock, cache occupancy, per-tier cache counters) rather than the
#: manifest.
_DOC_VOLATILE_FIELDS = (
    "wall_time_s",
    "cache_hits",
    "cache_misses",
    "cache_stats",
)
#: Per-record fields that depend on the run environment (retry
#: bookkeeping is environmental too: transient failures happen on a
#: machine, not in a manifest).  ``trace`` is the per-job span document
#: the compilation service attaches (queue wait, attempts, per-pass
#: offsets) -- pure wall-clock measurement, never manifest content.
_RECORD_VOLATILE_FIELDS = (
    "compile_time_s",
    "cache_hit",
    "attempts",
    "retry_wait_s",
    "trace",
)

_ItemT = TypeVar("_ItemT")


class ShardError(ValueError):
    """Raised on malformed shard specs or unmergeable result files."""


@dataclass(frozen=True)
class ShardPlan:
    """One slice of an ``N``-way deterministic batch partition.

    Attributes:
        index: 1-based shard number (``1 <= index <= count``).
        count: Total number of shards.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ShardError("shard count must be at least 1")
        if not 1 <= self.index <= self.count:
            raise ShardError(
                f"shard index {self.index} outside 1..{self.count}"
            )

    @classmethod
    def parse(cls, spec: str) -> "ShardPlan":
        """Parse an ``"I/N"`` spec (as given to ``repro batch --shard``)."""
        match = re.fullmatch(r"(\d+)/(\d+)", spec.strip())
        if not match:
            raise ShardError(
                f"bad shard spec {spec!r}: expected I/N, e.g. 2/4"
            )
        return cls(index=int(match.group(1)), count=int(match.group(2)))

    @property
    def spec(self) -> str:
        """The ``"I/N"`` rendering of this plan."""
        return f"{self.index}/{self.count}"

    def select(
        self, items: Sequence[_ItemT]
    ) -> list[tuple[int, _ItemT]]:
        """This shard's ``(global_index, item)`` pairs, in order."""
        return [
            (position, item)
            for position, item in enumerate(items)
            if position % self.count == self.index - 1
        ]


# ----------------------------------------------------------------------
# Result documents
# ----------------------------------------------------------------------


def job_record(result: JobResult, index: int) -> dict[str, Any]:
    """One results-document record (also the ``--stream`` NDJSON line).

    Args:
        result: The engine outcome.
        index: *Global* manifest index of the job (the engine-local
            ``result.index`` differs under sharding).
    """
    record: dict[str, Any] = {
        "index": index,
        "status": "ok" if result.ok else "error",
        **result.job.identity(),
        "cache_key": result.key,
        "cache_hit": result.cache_hit,
        "compile_time_s": result.compile_time,
    }
    if result.stats.get("auto_backend"):
        record["auto_backend"] = result.stats["auto_backend"]
    if result.attempts > 1:
        # Retry bookkeeping (schema v2 compatible: absent on the
        # common single-attempt path, and strip_timing drops it).
        record["attempts"] = result.attempts
        record["retry_wait_s"] = result.retry_wait_s
    if result.ok:
        # Read from the stored summary: a record never builds the
        # program or replays it.  ``execution_time_us`` is computed as
        # FidelityReport.execution_time_us computes it.
        summary = result.summary
        record.update(
            {
                "fidelity": summary["total"],
                "execution_time_us": summary["execution_time"] * 1e6,
                "num_stages": summary["num_stages"],
                "num_coll_moves": summary["num_coll_moves"],
                "num_transfers": summary["num_transfers"],
            }
        )
    else:
        record["error"] = {
            "type": result.error.error_type,
            "message": result.error.message,
        }
    return record


def results_doc(
    results: Iterable[JobResult],
    *,
    manifest_digest: str,
    total_jobs: int,
    wall_time_s: float,
    on_error: str,
    shard: ShardPlan | None = None,
    global_indices: Sequence[int] | None = None,
    cache_stats: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the canonical batch-results document.

    Args:
        results: Engine outcomes, in any order (records are sorted by
            global index).
        manifest_digest: :func:`repro.engine.manifest.manifest_digest`
            of the source manifest.
        total_jobs: Job count of the *full* manifest (equals the number
            of results only for unsharded runs).
        wall_time_s: Wall-clock duration of this run.
        on_error: The failure policy the run used.
        shard: The shard this run covered, or ``None`` for a full run.
        global_indices: Engine-local index -> global manifest index
            (identity when omitted).
        cache_stats: Per-tier cache counters of the run
            (:meth:`repro.engine.cache.ProgramCache.stats_doc`);
            attached as the volatile ``cache_stats`` document field
            (dropped by :func:`strip_timing`).
    """
    records = []
    for result in results:
        index = (
            result.index
            if global_indices is None
            else global_indices[result.index]
        )
        records.append(job_record(result, index))
    return results_doc_from_records(
        records,
        manifest_digest=manifest_digest,
        total_jobs=total_jobs,
        wall_time_s=wall_time_s,
        on_error=on_error,
        shard=shard,
        cache_stats=cache_stats,
    )


def results_doc_from_records(
    records: Iterable[dict[str, Any]],
    *,
    manifest_digest: str,
    total_jobs: int,
    wall_time_s: float,
    on_error: str,
    shard: ShardPlan | None = None,
    cache_stats: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a batch-results document from :func:`job_record` dicts.

    The record-level twin of :func:`results_doc`, for callers that hold
    already-serialized records rather than live :class:`JobResult`
    objects -- the compilation service persists queue outcomes as
    records and reassembles its results documents through here, so the
    service and ``repro batch`` can never drift on schema.
    """
    ordered = sorted(records, key=lambda record: record["index"])
    hits = sum(1 for record in ordered if record["cache_hit"])
    failed = sum(1 for record in ordered if record["status"] == "error")
    doc = {
        "format": BATCH_RESULTS_FORMAT,
        "version": BATCH_RESULTS_VERSION,
        "manifest_digest": manifest_digest,
        "total_jobs": total_jobs,
        "shard": (
            None
            if shard is None
            else {"index": shard.index, "count": shard.count}
        ),
        "on_error": on_error,
        "num_jobs": len(ordered),
        "num_failed": failed,
        "cache_hits": hits,
        "cache_misses": len(ordered) - hits,
        "wall_time_s": wall_time_s,
        "results": ordered,
    }
    if cache_stats is not None:
        doc["cache_stats"] = cache_stats
    return doc


def merge_result_docs(docs: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Reassemble per-shard result documents into the full-batch one.

    The inputs must all describe the same manifest (equal
    ``manifest_digest`` and ``total_jobs``), must not overlap, and must
    together cover every manifest index; any violation raises
    :class:`ShardError`.  ``wall_time_s`` of the merged document is the
    *sum* of the shard durations (total compute, not wall-clock of the
    slowest machine).
    """
    if not docs:
        raise ShardError("nothing to merge: no result documents given")
    for position, doc in enumerate(docs):
        where = f"document {position}"
        if doc.get("format") != BATCH_RESULTS_FORMAT:
            raise ShardError(f"{where}: not a batch-results document")
        if doc.get("version") != BATCH_RESULTS_VERSION:
            raise ShardError(
                f"{where}: results version {doc.get('version')!r} != "
                f"{BATCH_RESULTS_VERSION} (re-run the batch)"
            )
    first = docs[0]
    digest = first.get("manifest_digest")
    total = first.get("total_jobs")
    for position, doc in enumerate(docs[1:], start=1):
        if doc.get("manifest_digest") != digest:
            raise ShardError(
                f"document {position}: manifest digest mismatch "
                f"({doc.get('manifest_digest')!r} != {digest!r}); "
                "shards must come from the same manifest"
            )
        if doc.get("total_jobs") != total:
            raise ShardError(
                f"document {position}: total_jobs mismatch "
                f"({doc.get('total_jobs')} != {total})"
            )
    records: dict[int, dict[str, Any]] = {}
    for position, doc in enumerate(docs):
        for record in doc.get("results", []):
            index = record["index"]
            if index in records:
                raise ShardError(
                    f"document {position}: duplicate job index {index} "
                    "(overlapping shards?)"
                )
            records[index] = record
    missing = sorted(set(range(total)) - set(records))
    if missing:
        preview = ", ".join(str(index) for index in missing[:8])
        raise ShardError(
            f"merge incomplete: {len(missing)} of {total} job indices "
            f"missing (first: {preview}); supply every shard"
        )
    merged_records = [records[index] for index in sorted(records)]
    failed = sum(
        1 for record in merged_records if record["status"] == "error"
    )
    hits = sum(1 for record in merged_records if record["cache_hit"])
    return {
        "format": BATCH_RESULTS_FORMAT,
        "version": BATCH_RESULTS_VERSION,
        "manifest_digest": digest,
        "total_jobs": total,
        "shard": None,
        "on_error": first.get("on_error", "raise"),
        "num_jobs": len(merged_records),
        "num_failed": failed,
        "cache_hits": hits,
        "cache_misses": len(merged_records) - hits,
        "wall_time_s": sum(doc.get("wall_time_s", 0.0) for doc in docs),
        "results": merged_records,
    }


def strip_timing(doc: dict[str, Any]) -> dict[str, Any]:
    """Copy of a results document with run-environment fields removed.

    Drops the wall-clock measurements (``wall_time_s``,
    ``compile_time_s``) *and* the cache-occupancy fields (``cache_hit``
    per record, the hit/miss totals) -- both reflect the machine a run
    happened on (warm shared caches, reruns), not the manifest.  What
    remains is fully deterministic for a given manifest, so two runs of
    the same manifest -- sharded, streamed, parallel, serial, cold or
    warm -- compare equal exactly when they compiled the same programs.
    """
    out = {
        key: value
        for key, value in doc.items()
        if key not in _DOC_VOLATILE_FIELDS
    }
    out["results"] = [
        {
            key: value
            for key, value in record.items()
            if key not in _RECORD_VOLATILE_FIELDS
        }
        for record in doc.get("results", [])
    ]
    return out


def docs_equal_modulo_timing(
    left: dict[str, Any], right: dict[str, Any]
) -> bool:
    """True when two result documents agree on everything but the
    run-environment fields :func:`strip_timing` removes."""
    return strip_timing(left) == strip_timing(right)


__all__ = [
    "BATCH_RESULTS_FORMAT",
    "BATCH_RESULTS_VERSION",
    "ShardError",
    "ShardPlan",
    "docs_equal_modulo_timing",
    "job_record",
    "merge_result_docs",
    "results_doc",
    "results_doc_from_records",
    "strip_timing",
]
