"""Parallel batch-compilation engine with content-addressed caching.

The production-facing entry point for compiling many (circuit, config)
pairs: describe the work as :class:`CompileJob` batches, hand them to a
:class:`CompilationEngine` and get deterministic, cacheable,
process-pool-parallel results -- as an ordered list (:meth:`run`) or a
completion-order stream (:meth:`stream`), fail-fast or fail-soft
(``on_error``), whole or in deterministic shards (:class:`ShardPlan`)
merged back with :func:`merge_result_docs`.  See ``docs/engine.md`` for
the architecture sketch and the cache-key definition.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    DiskCache,
    MemoryCache,
    NullCache,
    ProgramCache,
    PruneReport,
    job_cache_key,
)
from .cachestore import (
    REMOTE_PROTOCOL_VERSION,
    CacheSpecError,
    RemoteCache,
    RemoteCacheError,
    RemoteCacheServer,
    TieredCache,
    describe_cache,
    make_cache,
    parse_cache_spec,
)
from .engine import (
    ERROR_POLICIES,
    CompilationEngine,
    EngineError,
    JobFailure,
    JobResult,
    ProgressEvent,
)
from .jobs import (
    AUTO_BACKEND,
    SCENARIO_BACKENDS,
    SCENARIOS,
    CompileJob,
    JobError,
    effective_config,
    execute_job,
    job_compiler,
    job_from_doc,
    job_to_doc,
    resolve_backend,
)
from .manifest import (
    ManifestError,
    load_manifest,
    manifest_cache_spec,
    manifest_digest,
    parse_manifest,
    read_manifest,
)
from .shard import (
    BATCH_RESULTS_FORMAT,
    BATCH_RESULTS_VERSION,
    ShardError,
    ShardPlan,
    docs_equal_modulo_timing,
    job_record,
    merge_result_docs,
    results_doc,
    results_doc_from_records,
    strip_timing,
)

__all__ = [
    "AUTO_BACKEND",
    "BATCH_RESULTS_FORMAT",
    "BATCH_RESULTS_VERSION",
    "CACHE_SCHEMA_VERSION",
    "ERROR_POLICIES",
    "REMOTE_PROTOCOL_VERSION",
    "CacheSpecError",
    "CacheStats",
    "CompilationEngine",
    "CompileJob",
    "DiskCache",
    "EngineError",
    "JobError",
    "JobFailure",
    "JobResult",
    "ManifestError",
    "MemoryCache",
    "NullCache",
    "ProgramCache",
    "ProgressEvent",
    "PruneReport",
    "RemoteCache",
    "RemoteCacheError",
    "RemoteCacheServer",
    "SCENARIOS",
    "SCENARIO_BACKENDS",
    "ShardError",
    "ShardPlan",
    "TieredCache",
    "describe_cache",
    "docs_equal_modulo_timing",
    "effective_config",
    "execute_job",
    "job_cache_key",
    "job_compiler",
    "job_from_doc",
    "job_record",
    "job_to_doc",
    "load_manifest",
    "make_cache",
    "manifest_cache_spec",
    "manifest_digest",
    "merge_result_docs",
    "parse_cache_spec",
    "parse_manifest",
    "read_manifest",
    "resolve_backend",
    "results_doc",
    "results_doc_from_records",
    "strip_timing",
]
