"""Tests for the batch compilation engine (jobs, cache, fan-out)."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.baselines import EnolaConfig
from repro.benchsuite import PAPER_ORDER, get_benchmark
from repro.circuits.generators import qaoa_regular
from repro.core import PowerMoveConfig
from repro.engine import (
    CompilationEngine,
    CompileJob,
    DiskCache,
    EngineError,
    JobError,
    ManifestError,
    MemoryCache,
    NullCache,
    docs_equal_modulo_timing,
    effective_config,
    job_cache_key,
    parse_manifest,
    results_doc,
)
from repro.engine.cache import (
    decode_artifact,
    encode_artifact,
    encoded_artifact_size,
)
from repro.engine.jobs import execute_job_on_circuit
from repro.schedule.serialize import program_to_dict

#: Fast Enola knobs for whole-suite runs.
LIGHT_ENOLA = EnolaConfig(seed=0, mis_restarts=1, sa_iterations_per_qubit=0)


class TestCompileJob:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            CompileJob(scenario="warp", benchmark="BV-14")

    def test_exactly_one_workload(self):
        with pytest.raises(JobError, match="exactly one"):
            CompileJob(scenario="enola")
        with pytest.raises(JobError, match="exactly one"):
            CompileJob(
                scenario="enola",
                benchmark="BV-14",
                circuit=qaoa_regular(4, seed=0),
            )

    def test_needs_positive_aods(self):
        with pytest.raises(JobError, match="AOD"):
            CompileJob(scenario="enola", benchmark="BV-14", num_aods=0)

    def test_label_and_workload_name(self):
        job = CompileJob(
            scenario="pm_with_storage",
            benchmark="BV-14",
            num_aods=2,
            seed=7,
        )
        assert job.workload_name == "BV-14"
        assert job.label == "BV-14:pm_with_storage:aods2:seed7"

    def test_resolve_circuit_uses_job_seed(self):
        job = CompileJob(
            scenario="pm_with_storage", benchmark="QAOA-random-20", seed=3
        )
        expected = get_benchmark("QAOA-random-20").build(3)
        assert job.resolve_circuit().digest() == expected.digest()

    def test_effective_config_enola_default_derives_from_job(self):
        job = CompileJob(
            scenario="enola", benchmark="BV-14", seed=5, num_aods=3
        )
        config = effective_config(job)
        assert isinstance(config, EnolaConfig)
        assert config.seed == 5
        assert config.num_aods == 3

    def test_effective_config_enola_override_verbatim(self):
        job = CompileJob(
            scenario="enola",
            benchmark="BV-14",
            seed=5,
            enola_config=LIGHT_ENOLA,
        )
        assert effective_config(job) is LIGHT_ENOLA

    def test_effective_config_powermove_forces_scenario_fields(self):
        base = PowerMoveConfig(alpha=0.7, use_storage=True, seed=99)
        job = CompileJob(
            scenario="pm_non_storage",
            benchmark="BV-14",
            seed=2,
            num_aods=4,
            powermove_config=base,
        )
        config = effective_config(job)
        assert config.use_storage is False
        assert config.num_aods == 4
        assert config.seed == 2
        assert config.alpha == 0.7

    def test_execute_job_returns_artifact(self):
        job = CompileJob(scenario="pm_with_storage", benchmark="BV-14")
        artifact = execute_job_on_circuit(job, job.resolve_circuit())
        assert json.loads(artifact["program"])["format"] == "repro-naprogram"
        assert artifact["compile_time"] > 0.0
        assert artifact["validated"] is True


class TestCacheKey:
    def _job(self, **overrides):
        fields = dict(scenario="pm_with_storage", benchmark="BV-14")
        fields.update(overrides)
        return CompileJob(**fields)

    def test_deterministic(self):
        assert job_cache_key(self._job()) == job_cache_key(self._job())

    def test_benchmark_and_explicit_circuit_agree(self):
        explicit = self._job(
            benchmark=None, circuit=get_benchmark("BV-14").build(0)
        )
        assert job_cache_key(self._job()) == job_cache_key(explicit)

    def test_sensitive_to_every_input(self):
        keys = {
            job_cache_key(job)
            for job in (
                self._job(),
                self._job(seed=1),
                self._job(scenario="pm_non_storage"),
                self._job(scenario="enola"),
                self._job(num_aods=2),
                self._job(benchmark="BV-50"),
                self._job(
                    powermove_config=PowerMoveConfig(alpha=0.3)
                ),
            )
        }
        assert len(keys) == 7

    def test_insensitive_to_validate_flag(self):
        assert job_cache_key(self._job()) == job_cache_key(
            self._job(validate=False)
        )


class TestCaches:
    def test_null_cache_always_misses(self):
        cache = NullCache()
        cache.put("k", {"x": 1})
        assert cache.get("k") is None
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_memory_cache_round_trip(self):
        cache = MemoryCache()
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_disk_cache_round_trip(self, tmp_path):
        cache = DiskCache(str(tmp_path / "cache"))
        assert cache.get("k") is None
        cache.put("k", {"x": [1, 2]})
        assert cache.get("k") == {"x": [1, 2]}
        fresh = DiskCache(str(tmp_path / "cache"))
        assert fresh.get("k") == {"x": [1, 2]}

    def test_disk_cache_ignores_corrupt_entries(self, tmp_path):
        directory = tmp_path / "cache"
        cache = DiskCache(str(directory))
        cache.put("k", {"x": 1})
        (directory / "k.json").write_text("{not json")
        assert cache.get("k") is None

    def test_disk_cache_leaves_no_temp_files(self, tmp_path):
        directory = tmp_path / "cache"
        cache = DiskCache(str(directory))
        cache.put("a", {"x": 1})
        cache.put("b", {"x": 2})
        assert sorted(p.name for p in directory.iterdir()) == [
            "a.json",
            "b.json",
        ]

    def test_disk_cache_bytes_are_the_two_line_layout(self, tmp_path):
        """A disk entry is a compact JSON header of every field but
        ``program``, one newline, then the program text verbatim."""
        directory = tmp_path / "cache"
        cache = DiskCache(str(directory))
        stored = {}
        put = cache.put

        def record(key, doc, **kwargs):
            put(key, doc, **kwargs)
            stored[key] = doc

        cache.put = record
        CompilationEngine(cache=cache).run(
            [CompileJob(scenario="pm_with_storage", benchmark="BV-14")]
        )
        assert stored
        for key, doc in stored.items():
            data = (directory / f"{key}.json").read_bytes()
            header = {k: v for k, v in doc.items() if k != "program"}
            want = json.dumps(header, separators=(",", ":"))
            assert data == f"{want}\n{doc['program']}".encode()
            # A real artifact: float fields, and the program's quotes
            # and nested lists are stored unescaped.
            assert isinstance(doc["compile_time"], float)
            assert data.count(b"\n") == 1
            assert b'\\"' not in data and b"[[" in data
            assert json.loads(data.split(b"\n")[0]) == header

    @pytest.mark.parametrize(
        "damage",
        [
            b"\xff garbage",
            b'{"x": 1}\n\xff\xfe',
            b'{"summary": {"tot',
            b'{"summary": {"tot\n{"format": 1}',
            b"[1, 2]\n{}",
            b'"text"',
            b"",
        ],
        ids=[
            "not-utf8", "program-not-utf8", "torn-header",
            "torn-header-two-lines", "list-header", "string-header",
            "empty",
        ],
    )
    def test_disk_cache_reads_a_foreign_entry_as_a_miss(
        self, tmp_path, damage
    ):
        directory = tmp_path / "cache"
        cache = DiskCache(str(directory))
        cache.put("k", {"program": "{}", "x": 1})
        (directory / "k.json").write_bytes(damage)
        assert cache.get("k") is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    @pytest.mark.parametrize(
        "damage",
        [b"\xff garbage", b'{"summary": {"tot'],
        ids=["not-utf8", "torn-header"],
    )
    def test_foreign_disk_entry_is_recompiled_when_collecting(
        self, tmp_path, damage
    ):
        """A foreign entry under a live key is a miss: the job compiles
        again and the batch equals a cold run."""
        def doc_of(results):
            return results_doc(
                results, manifest_digest="d", total_jobs=len(results),
                wall_time_s=0.0, on_error="collect",
            )

        jobs = [
            CompileJob(scenario="pm_with_storage", benchmark="BV-14"),
            CompileJob(scenario="pm_non_storage", benchmark="BV-14"),
        ]
        directory = tmp_path / "cache"
        spec = f"disk:{directory}"
        cold = CompilationEngine(on_error="collect").run(jobs)
        CompilationEngine(cache=spec).run(jobs)
        (directory / f"{cold[0].key}.json").write_bytes(damage)
        warm = CompilationEngine(cache=spec, on_error="collect").run(jobs)
        assert [r.cache_hit for r in warm] == [False, True]
        assert all(r.ok for r in warm)
        assert docs_equal_modulo_timing(doc_of(cold), doc_of(warm))
        [again] = CompilationEngine(cache=spec).run(jobs[:1])
        assert again.cache_hit  # the recompile overwrote the entry

    def test_unencodable_doc_leaves_no_temp_file(self, tmp_path):
        directory = tmp_path / "cache"
        cache = DiskCache(str(directory))
        cache.put("k", {"x": 1})
        with pytest.raises(TypeError):
            cache.put("k", {"x": object()})
        assert [p.name for p in directory.iterdir()] == ["k.json"]
        assert cache.get("k") == {"x": 1}


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
#: Program texts with the characters a line-based layout could trip on.
programs = st.text() | st.text(
    alphabet=st.sampled_from('\n\r"\\{}[],:ab é✓\u2028\x00')
)


class TestArtifactCodec:
    """One encoder/decoder pair for every tier (disk, memory, wire)."""

    @given(
        fields=st.dictionaries(
            st.text(max_size=8).filter(lambda name: name != "program"),
            json_values,
            max_size=5,
        ),
        program=st.none() | programs | json_values,
    )
    @example(fields={"x": [1, 2]}, program=None)
    @example(fields={}, program="")
    @example(fields={"summary": {"total": 0.5}}, program='{"a":\n"b"}')
    def test_round_trip(self, fields, program):
        doc = fields if program is None else {**fields, "program": program}
        data = encode_artifact(doc)
        assert decode_artifact(data) == doc
        assert encoded_artifact_size(doc) == len(data.decode("utf-8"))
        header, newline, rest = data.partition(b"\n")
        if isinstance(program, str):
            assert newline and rest == program.encode("utf-8")
            assert "program" not in json.loads(header)
        else:
            assert not newline

    @pytest.mark.parametrize("value", [[1, 2], "text", 3, None])
    def test_non_object_docs_decode_as_a_miss(self, value):
        assert decode_artifact(encode_artifact(value)) is None


class TestEngine:
    def _jobs(self, scenarios=("enola", "pm_with_storage")):
        return [
            CompileJob(
                scenario=scenario,
                benchmark=key,
                enola_config=LIGHT_ENOLA,
            )
            for key in ("BV-14", "QSIM-rand-0.3-10")
            for scenario in scenarios
        ]

    def test_results_in_submission_order(self):
        jobs = self._jobs()
        results = CompilationEngine().run(jobs)
        assert [r.job.label for r in results] == [j.label for j in jobs]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="worker"):
            CompilationEngine(workers=0)

    def test_cache_hits_on_second_run(self):
        cache = MemoryCache()
        engine = CompilationEngine(cache=cache)
        jobs = self._jobs()
        first = engine.run(jobs)
        second = engine.run(jobs)
        assert not any(r.cache_hit for r in first)
        assert all(r.cache_hit for r in second)
        assert cache.stats.misses == len(jobs)
        assert cache.stats.hits == len(jobs)
        for a, b in zip(first, second):
            assert program_to_dict(a.program) == program_to_dict(b.program)
            assert a.compile_time == b.compile_time

    def test_parallel_identical_to_serial(self):
        jobs = self._jobs()
        serial = CompilationEngine(workers=1).run(jobs)
        parallel = CompilationEngine(workers=3).run(jobs)
        for a, b in zip(serial, parallel):
            assert program_to_dict(a.program) == program_to_dict(b.program)
            assert a.fidelity.total == b.fidelity.total
            assert a.key == b.key

    def test_progress_events_stream(self):
        events = []
        engine = CompilationEngine(
            cache=MemoryCache(), workers=2, progress=events.append
        )
        jobs = self._jobs()
        engine.run(jobs)
        assert len(events) == len(jobs)
        assert {e.index for e in events} == set(range(len(jobs)))
        assert all(e.total == len(jobs) for e in events)
        assert not any(e.cache_hit for e in events)
        events.clear()
        engine.run(jobs)
        assert all(e.cache_hit for e in events)

    def test_failing_job_raises_engine_error(self, monkeypatch):
        import repro.engine.engine as engine_module

        def boom(job, circuit):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(
            engine_module, "execute_job_on_circuit", boom
        )
        engine = CompilationEngine()
        with pytest.raises(EngineError, match="BV-14.*kaboom"):
            engine.run(
                [CompileJob(scenario="pm_with_storage", benchmark="BV-14")]
            )

    def test_cache_hit_revalidates_unvalidated_artifacts(self):
        """A validate=True job re-checks a hit stored with validate=False,
        including the gate-multiset comparison against the source circuit,
        and persists the successful check back into the cache."""
        from repro.schedule.validator import ValidationError

        cache = MemoryCache()
        engine = CompilationEngine(cache=cache)
        unvalidated = CompileJob(
            scenario="pm_with_storage", benchmark="BV-14", validate=False
        )
        [cold] = engine.run([unvalidated])
        assert cache.get(cold.key)["validated"] is False
        validated = CompileJob(
            scenario="pm_with_storage", benchmark="BV-14", validate=True
        )
        [hit] = engine.run([validated])
        assert hit.cache_hit  # sane entry revalidates cleanly
        # The successful hit-path validation is written back, so the
        # next hit skips the re-check.
        assert cache.get(hit.key)["validated"] is True

        # Corrupt the cached program (drop a Rydberg stage so the
        # executed gate multiset no longer matches the circuit) and
        # reset the persisted flag: the re-check must now fire and fail.
        doc = cache.get(hit.key)
        program = json.loads(doc["program"])
        program["instructions"] = [
            entry
            for entry in program["instructions"]
            if entry["kind"] != "rydberg"
        ]
        doc = {**doc, "program": json.dumps(program), "validated": False}
        cache.put(hit.key, doc)
        with pytest.raises(ValidationError):
            engine.run([validated])

    def test_disk_cache_shared_between_engines(self, tmp_path):
        jobs = self._jobs(scenarios=("pm_with_storage",))
        first = CompilationEngine(
            cache=DiskCache(str(tmp_path)), workers=2
        ).run(jobs)
        second = CompilationEngine(cache=DiskCache(str(tmp_path))).run(jobs)
        assert all(r.cache_hit for r in second)
        for a, b in zip(first, second):
            assert program_to_dict(a.program) == program_to_dict(b.program)


class TestManifest:
    def test_bare_list_shorthand(self):
        jobs = parse_manifest([{"benchmark": "BV-14"}])
        assert [j.scenario for j in jobs] == list(
            ("enola", "pm_non_storage", "pm_with_storage")
        )

    def test_star_expands_to_suite(self):
        jobs = parse_manifest(
            {"jobs": [{"benchmark": "*", "scenario": "pm_with_storage"}]}
        )
        assert [j.benchmark for j in jobs] == list(PAPER_ORDER)

    def test_defaults_apply_and_entries_override(self):
        jobs = parse_manifest(
            {
                "defaults": {"seed": 9, "scenarios": ["enola"]},
                "jobs": [
                    {"benchmark": "BV-14"},
                    {"benchmark": "VQE-30", "seed": 1},
                ],
            }
        )
        assert [j.seed for j in jobs] == [9, 1]
        assert all(j.scenario == "enola" for j in jobs)

    def test_config_overrides_parsed(self):
        [job] = parse_manifest(
            {
                "jobs": [
                    {
                        "benchmark": "BV-14",
                        "scenario": "enola",
                        "enola": {"mis_restarts": 2},
                        "powermove": {"alpha": 0.25},
                    }
                ]
            }
        )
        assert job.enola_config.mis_restarts == 2
        assert job.powermove_config.alpha == 0.25

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("nope", "JSON object or list"),
            ({}, "needs a 'jobs' list"),
            ({"jobs": []}, "non-empty"),
            ({"jobs": ["x"]}, "must be an object"),
            ({"jobs": [{}]}, "needs a 'benchmark'"),
            ({"jobs": [{"benchmark": "NOPE-1"}]}, "unknown benchmark"),
            (
                {"jobs": [{"benchmark": "BV-14", "scenario": "warp"}]},
                "unknown scenario",
            ),
            (
                {"jobs": [{"benchmark": "BV-14", "typo": 1}]},
                "unknown keys",
            ),
            (
                {"jobs": [{"benchmark": "BV-14", "seed": "zero"}]},
                "must be an integer",
            ),
            (
                {
                    "jobs": [
                        {"benchmark": "BV-14", "enola": {"bogus": 1}}
                    ]
                },
                "bad 'enola' config",
            ),
            (
                {
                    "defaults": {"scenario": "enola"},
                    "jobs": [{"benchmark": "BV-14"}],
                },
                "use 'scenarios'",
            ),
            (
                {
                    "defaults": {"nun_aods": 4},
                    "jobs": [{"benchmark": "BV-14"}],
                },
                "defaults: unknown keys",
            ),
        ],
    )
    def test_malformed_manifests_rejected(self, doc, message):
        with pytest.raises(ManifestError, match=message):
            parse_manifest(doc)


class TestFullSuiteAcceptance:
    """ISSUE acceptance: full Table 2 suite, 4 workers, warm cache."""

    def test_parallel_suite_matches_serial_and_warm_cache_skips(
        self, tmp_path
    ):
        jobs = [
            CompileJob(
                scenario=scenario,
                benchmark=key,
                enola_config=LIGHT_ENOLA,
                validate=False,
            )
            for key in PAPER_ORDER
            for scenario in ("enola", "pm_non_storage", "pm_with_storage")
        ]
        cache = DiskCache(str(tmp_path / "cache"))
        parallel = CompilationEngine(cache=cache, workers=4).run(jobs)
        serial = CompilationEngine().run(jobs)

        assert len(parallel) == len(PAPER_ORDER) * 3
        for a, b in zip(parallel, serial):
            assert program_to_dict(a.program) == program_to_dict(b.program)
            assert a.fidelity.total == b.fidelity.total
            assert a.fidelity.execution_time == b.fidelity.execution_time

        # Warm-cache rerun: every compilation is skipped.
        warm_cache = DiskCache(str(tmp_path / "cache"))
        warm = CompilationEngine(cache=warm_cache, workers=4).run(jobs)
        assert all(r.cache_hit for r in warm)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits == len(jobs)
        for a, b in zip(parallel, warm):
            assert program_to_dict(a.program) == program_to_dict(b.program)
