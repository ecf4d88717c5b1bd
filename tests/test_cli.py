"""Tests for the command-line interface."""

import json
import sys

import pytest

from repro.circuits import to_qasm
from repro.circuits.generators import qaoa_regular
from repro.cli import build_parser, main


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "circuit.qasm"
    path.write_text(to_qasm(qaoa_regular(8, degree=3, seed=1)))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self, qasm_file):
        args = build_parser().parse_args(["compile", qasm_file])
        assert args.storage is True
        assert args.aods == 1

    def test_no_storage_flag(self, qasm_file):
        args = build_parser().parse_args(
            ["compile", qasm_file, "--no-storage"]
        )
        assert args.storage is False


class TestClientOptions:
    """The six service-client commands share one --connect / --token
    declaration; each keeps every option it had."""

    OPTIONS = {
        "loadgen": {
            "--backend", "--benchmark", "--clients", "--distinct",
            "--duration", "--output", "--progress", "--rate", "--scrape",
            "--seed",
        },
        "submit": {"--json", "--priority"},
        "status": {"--json"},
        "trace": {"--json"},
        "results": {"--follow", "--output"},
        "shutdown": {"--fleet", "--now"},
    }
    POSITIONALS = {
        "submit": ["m.json"], "trace": ["s000001-00000"],
        "results": ["s000001"],
    }

    @staticmethod
    def _subparser(name):
        import argparse

        [action] = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return action.choices[name]

    @pytest.mark.parametrize("name", sorted(OPTIONS))
    def test_option_strings_pinned(self, name):
        parser = self._subparser(name)
        options = {
            option for action in parser._actions
            for option in action.option_strings
        }
        expected = self.OPTIONS[name] | {"--connect", "--token"}
        assert options == expected | {"-h", "--help"}

    @pytest.mark.parametrize("name", sorted(OPTIONS))
    def test_connect_required_and_token_defaults_to_none(
        self, name, capsys
    ):
        argv = [name, *self.POSITIONALS.get(name, [])]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--connect" in capsys.readouterr().err
        args = build_parser().parse_args([*argv, "--connect", "h:1"])
        assert args.connect == "h:1"
        assert args.token is None

    def test_token_flag_wins_over_environment(self, monkeypatch):
        from repro.cli import _resolve_token

        monkeypatch.setenv("REPRO_TOKEN", "from-env")
        argv = ["status", "--connect", "h:1"]
        assert _resolve_token(build_parser().parse_args(argv)) == (
            "from-env"
        )
        args = build_parser().parse_args([*argv, "--token", "flag"])
        assert _resolve_token(args) == "flag"


class TestCompileCommand:
    def test_basic_compile(self, qasm_file, capsys):
        assert main(["compile", qasm_file]) == 0
        out = capsys.readouterr().out
        assert "fidelity" in out
        assert "rydberg stages" in out

    def test_compile_no_storage(self, qasm_file, capsys):
        assert main(["compile", qasm_file, "--no-storage"]) == 0
        assert "non-storage" in capsys.readouterr().out

    def test_compile_writes_json(self, qasm_file, tmp_path, capsys):
        out_path = str(tmp_path / "program.json")
        assert main(["compile", qasm_file, "--output", out_path]) == 0
        with open(out_path) as handle:
            doc = json.load(handle)
        assert doc["format"] == "repro-naprogram"

    def test_compile_trace(self, qasm_file, capsys):
        assert main(["compile", qasm_file, "--trace", "5"]) == 0
        out = capsys.readouterr().out
        assert "initial layout" in out


class TestBenchCommand:
    def test_bench_row(self, capsys):
        code = main(
            [
                "bench",
                "QSIM-rand-0.3-10",
                "--mis-restarts",
                "2",
                "--sa-iterations",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fidelity" in out and "T_exe" in out

    def test_bench_unknown_key(self):
        with pytest.raises(KeyError):
            main(["bench", "NOPE-1"])


class TestTableCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "QAOA-regular3" in capsys.readouterr().out

    def test_table3_subset(self, capsys):
        code = main(
            [
                "table3",
                "--keys",
                "BV-14",
                "--mis-restarts",
                "2",
                "--sa-iterations",
                "10",
            ]
        )
        assert code == 0
        assert "BV-14" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["fig7", "--keys", "BV-14", "--aod-counts", "1", "2"]) == 0
        assert "T_exe" in capsys.readouterr().out

    def test_verify_command(self, qasm_file, capsys):
        pytest.importorskip("numpy")
        assert main(["verify", qasm_file]) == 0
        out = capsys.readouterr().out
        assert "overlap 1.0" in out

    def test_verify_without_numpy_exits_2(
        self, qasm_file, capsys, monkeypatch
    ):
        # A None entry makes importing the simulator module fail, as it
        # does where numpy is not installed.
        monkeypatch.setitem(sys.modules, "repro.verify.statevector", None)
        assert main(["verify", qasm_file]) == 2
        assert "needs numpy" in capsys.readouterr().err

    def test_profile_command(self, qasm_file, capsys):
        assert main(["profile", qasm_file]) == 0
        out = capsys.readouterr().out
        assert "Workload atlas" in out
        assert "dominated" in out or "mixed" in out

    def test_scorecard(self, capsys):
        code = main(
            [
                "scorecard",
                "--keys",
                "BV-14",
                "--mis-restarts",
                "3",
                "--sa-iterations",
                "30",
                "--min-score",
                "0.9",
            ]
        )
        assert code == 0
        assert "score:" in capsys.readouterr().out


@pytest.fixture
def manifest_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps(
            {
                "defaults": {
                    "enola": {
                        "mis_restarts": 1,
                        "sa_iterations_per_qubit": 0,
                    }
                },
                "jobs": [
                    {"benchmark": "BV-14"},
                    {
                        "benchmark": "QSIM-rand-0.3-10",
                        "scenario": "pm_with_storage",
                        "num_aods": 2,
                    },
                ],
            }
        )
    )
    return str(path)


class TestBatchCommand:
    def test_batch_stdout_json(self, manifest_file, capsys):
        assert main(["batch", manifest_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-batch-results"
        assert doc["num_jobs"] == 4
        assert doc["cache_hits"] == 0
        assert doc["cache_misses"] == 4
        scenarios = {(r["benchmark"], r["scenario"]) for r in doc["results"]}
        assert ("BV-14", "enola") in scenarios
        assert ("QSIM-rand-0.3-10", "pm_with_storage") in scenarios
        for row in doc["results"]:
            assert 0.0 < row["fidelity"] <= 1.0
            assert row["execution_time_us"] > 0.0
            assert len(row["cache_key"]) == 64

    def test_batch_warm_cache_skips_all(
        self, manifest_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        out_path = str(tmp_path / "results.json")
        assert (
            main(
                [
                    "batch",
                    manifest_file,
                    "--cache-dir",
                    cache_dir,
                    "--output",
                    out_path,
                ]
            )
            == 0
        )
        assert "4 compiled" in capsys.readouterr().out
        with open(out_path) as handle:
            cold = json.load(handle)
        assert cold["cache_misses"] == 4

        assert (
            main(
                [
                    "batch",
                    manifest_file,
                    "--cache-dir",
                    cache_dir,
                    "--output",
                    out_path,
                ]
            )
            == 0
        )
        assert "4 cache hits" in capsys.readouterr().out
        with open(out_path) as handle:
            warm = json.load(handle)
        assert warm["cache_misses"] == 0
        assert warm["cache_hits"] == 4
        for a, b in zip(cold["results"], warm["results"]):
            assert a["fidelity"] == b["fidelity"]
            assert a["execution_time_us"] == b["execution_time_us"]
            assert a["cache_key"] == b["cache_key"]
            assert b["cache_hit"] is True

    def test_batch_parallel_matches_serial(
        self, manifest_file, capsys
    ):
        assert main(["batch", manifest_file]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["batch", manifest_file, "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        for a, b in zip(serial["results"], parallel["results"]):
            assert a["fidelity"] == b["fidelity"]
            assert a["execution_time_us"] == b["execution_time_us"]
            assert a["num_stages"] == b["num_stages"]

    def test_batch_progress_lines_on_stderr(self, manifest_file, capsys):
        assert main(["batch", manifest_file, "--progress"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("[") >= 4
        assert "BV-14:enola" in captured.err

    def test_batch_missing_manifest(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error: manifest not found" in capsys.readouterr().err

    def test_batch_invalid_json_manifest(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["batch", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_batch_malformed_manifest_names_entry(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"jobs": [{"benchmark": "NOPE-1"}]})
        )
        assert main(["batch", str(path)]) == 2
        err = capsys.readouterr().err
        assert "jobs[0]" in err and "NOPE-1" in err

    def test_bench_workers_flag(self, capsys):
        code = main(
            [
                "bench",
                "QSIM-rand-0.3-10",
                "--mis-restarts",
                "2",
                "--sa-iterations",
                "10",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        assert "fidelity" in capsys.readouterr().out


class TestStreamShardMerge:
    def test_stream_emits_ndjson_records(self, manifest_file, capsys):
        assert main(["batch", manifest_file, "--stream"]) == 0
        captured = capsys.readouterr()
        records = [
            json.loads(line) for line in captured.out.splitlines() if line
        ]
        assert len(records) == 4
        assert {r["index"] for r in records} == {0, 1, 2, 3}
        assert all(r["status"] == "ok" for r in records)
        assert all(len(r["cache_key"]) == 64 for r in records)
        assert "batch:" in captured.err  # summary moves to stderr

    def test_sharded_runs_merge_to_unsharded(
        self, manifest_file, tmp_path, capsys
    ):
        from repro.engine import docs_equal_modulo_timing

        s1 = str(tmp_path / "s1.json")
        s2 = str(tmp_path / "s2.json")
        merged_path = str(tmp_path / "merged.json")
        full_path = str(tmp_path / "full.json")
        assert main(
            ["batch", manifest_file, "--shard", "1/2", "--output", s1]
        ) == 0
        assert main(
            ["batch", manifest_file, "--shard", "2/2", "--output", s2]
        ) == 0
        assert main(["merge", s1, s2, "--output", merged_path]) == 0
        assert main(["batch", manifest_file, "--output", full_path]) == 0
        capsys.readouterr()

        with open(s1) as handle:
            shard_doc = json.load(handle)
        assert shard_doc["shard"] == {"index": 1, "count": 2}
        assert shard_doc["num_jobs"] == 2
        assert shard_doc["total_jobs"] == 4
        with open(merged_path) as handle:
            merged = json.load(handle)
        with open(full_path) as handle:
            full = json.load(handle)
        assert merged["shard"] is None
        assert docs_equal_modulo_timing(merged, full)

    def test_bad_shard_spec_rejected(self, manifest_file, capsys):
        assert main(["batch", manifest_file, "--shard", "5/2"]) == 2
        assert "shard" in capsys.readouterr().err

    def test_empty_shard_writes_valid_document(
        self, manifest_file, tmp_path, capsys
    ):
        # 4 manifest jobs, 9 shards: shard 9/9 selects nothing but must
        # still produce a mergeable empty document (fixed-lane CI).
        out = str(tmp_path / "empty.json")
        assert main(
            ["batch", manifest_file, "--shard", "9/9", "--output", out]
        ) == 0
        assert "selects none" in capsys.readouterr().err
        with open(out) as handle:
            doc = json.load(handle)
        assert doc["num_jobs"] == 0
        assert doc["results"] == []
        assert doc["total_jobs"] == 4
        assert doc["shard"] == {"index": 9, "count": 9}

    def test_merge_with_failures_exits_one(
        self, manifest_file, tmp_path, capsys
    ):
        full_path = str(tmp_path / "full.json")
        assert main(["batch", manifest_file, "--output", full_path]) == 0
        with open(full_path) as handle:
            doc = json.load(handle)
        record = doc["results"][0]
        record["status"] = "error"
        record["error"] = {"type": "RuntimeError", "message": "boom"}
        doc["num_failed"] = 1
        with open(full_path, "w") as handle:
            json.dump(doc, handle)
        capsys.readouterr()
        assert main(["merge", full_path]) == 1

    def test_merge_missing_shard_fails(
        self, manifest_file, tmp_path, capsys
    ):
        s1 = str(tmp_path / "s1.json")
        assert main(
            ["batch", manifest_file, "--shard", "1/2", "--output", s1]
        ) == 0
        capsys.readouterr()
        assert main(["merge", s1]) == 2
        assert "missing" in capsys.readouterr().err

    def test_merge_unreadable_file_fails(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["merge", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_on_error_flag_parses(self, manifest_file):
        args = build_parser().parse_args(
            ["batch", manifest_file, "--on-error", "collect"]
        )
        assert args.on_error == "collect"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["batch", manifest_file, "--on-error", "ignore"]
            )

    def test_collect_run_without_failures_exits_zero(
        self, manifest_file, capsys
    ):
        assert main(
            ["batch", manifest_file, "--on-error", "collect"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["on_error"] == "collect"
        assert doc["num_failed"] == 0
        assert doc["version"] == 2
        assert len(doc["manifest_digest"]) == 64
        assert [r["index"] for r in doc["results"]] == [0, 1, 2, 3]
