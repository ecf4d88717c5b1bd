"""The memoised cache-key fragments derive the same key bytes.

``job_cache_key`` memoises ``asdict`` of the effective config and the
hardware params.  The derivation it replaced is kept verbatim below as
the oracle; hypothesis draws job sequences whose configs and params mix
values that are equal in Python but not in JSON (``1`` / ``1.0`` /
``True``, ``0.0`` / ``-0.0``), so a memo entry shared by the wrong pair
would change a key.
"""

import hashlib
import json
from dataclasses import asdict, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.atomique import AtomiqueConfig
from repro.baselines.enola import EnolaConfig
from repro.core.config import PowerMoveConfig
from repro.engine import cache as cache_module
from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    KEY_FIELDS_MEMO_SIZE,
    job_cache_key,
)
from repro.engine.jobs import (
    AUTO_BACKEND,
    CompileJob,
    benchmark_digest,
    effective_config,
    resolve_backend,
)
from repro.hardware.params import DEFAULT_PARAMS
from repro.schedule.serialize import FORMAT_VERSION


def old_job_cache_key(job, circuit_digest=None):
    """The key derivation before the fragment memo (verbatim)."""
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
            "config": asdict(config),
            "params": asdict(job.params),
            "num_aods": job.num_aods,
            "seed": job.seed,
            "arch": job.arch,
            "strategies": job.strategies_map,
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Values equal in Python whose JSON differs.
ZEROS = st.sampled_from([0, 0.0, -0.0, False])
ONES = st.sampled_from([1, 1.0, True])

params = st.builds(
    lambda fid, radius, spacing, t2: replace(
        DEFAULT_PARAMS,
        fidelity_1q=fid,
        rydberg_radius=radius,
        min_noninteracting_spacing=spacing,
        t2=t2,
    ),
    fid=st.one_of(ONES, st.sampled_from([0.5, 0.9999])),
    radius=st.one_of(ZEROS, st.sampled_from([6e-6, 1, 1.0])),
    spacing=st.one_of(ZEROS, st.sampled_from([1e-6, 2e-6])),
    t2=st.one_of(ONES, st.sampled_from([1.5, 2])),
)

powermove_configs = st.builds(
    PowerMoveConfig,
    use_storage=st.one_of(st.booleans(), st.sampled_from([0, 1])),
    alpha=st.sampled_from([0.5, 0.25, 0.75]),
    annealed_placement=st.one_of(st.booleans(), ZEROS, ONES),
)
enola_configs = st.builds(
    EnolaConfig,
    seed=st.integers(0, 3),
    mis_restarts=st.one_of(ONES, st.just(2)),
    sa_iterations_per_qubit=st.one_of(ZEROS, st.just(4)),
    merge_moves=st.one_of(st.booleans(), ZEROS, ONES),
)
atomique_configs = st.builds(
    AtomiqueConfig,
    seed=st.one_of(ZEROS, st.integers(0, 3)),
    sa_iterations_per_qubit=st.one_of(ZEROS, ONES),
)


@st.composite
def jobs(draw):
    backend = draw(st.sampled_from([
        "powermove", "powermove-nonstorage", "enola", "enola-windowed",
        "atomique",
    ]))
    overrides = {}
    if draw(st.booleans()):
        overrides = {
            "powermove_config": draw(powermove_configs),
            "enola_config": draw(enola_configs),
            "atomique_config": draw(atomique_configs),
        }
    return CompileJob(
        backend=backend,
        benchmark="BV-14",
        seed=draw(st.integers(0, 2)),
        num_aods=draw(st.integers(1, 2)),
        params=draw(st.one_of(st.just(DEFAULT_PARAMS), params)),
        **overrides,
    )


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(jobs(), min_size=1, max_size=6))
def test_memoised_key_equals_the_old_derivation(batch):
    # One sequence per example: later jobs reuse earlier memo entries.
    for job in batch:
        assert job_cache_key(job, "digest") == old_job_cache_key(
            job, "digest"
        )


def test_equal_but_differently_encoded_params_get_their_own_keys():
    variants = [
        replace(DEFAULT_PARAMS, rydberg_radius=value)
        for value in (0, 0.0, -0.0, False, 1, 1.0, True)
    ]
    job = CompileJob(backend="powermove", benchmark="BV-14")
    keys = [
        job_cache_key(replace(job, params=params), "digest")
        for params in variants
    ]
    assert keys == [
        old_job_cache_key(replace(job, params=params), "digest")
        for params in variants
    ]
    assert len(set(keys)) == len(variants)


def test_suite_jobs_key_as_before():
    job = CompileJob(scenario="pm_with_storage", benchmark="BV-14", seed=3)
    assert job_cache_key(job) == old_job_cache_key(job)


def test_memo_is_bounded():
    for seed in range(KEY_FIELDS_MEMO_SIZE + 10):
        job_cache_key(
            CompileJob(
                backend="atomique",
                benchmark="BV-14",
                atomique_config=AtomiqueConfig(seed=seed + 1),
            ),
            "digest",
        )
    assert len(cache_module._key_fields_memo) <= KEY_FIELDS_MEMO_SIZE
