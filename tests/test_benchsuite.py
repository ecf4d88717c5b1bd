"""Unit tests for the Table 2 benchmark suite."""

import pytest

from repro.benchsuite import (
    PAPER_ORDER,
    SUITE,
    benchmarks_in_family,
    get_benchmark,
    scaled_suite,
    table2_rows,
)
from repro.hardware import Zone


class TestSuiteShape:
    def test_has_23_rows(self):
        assert len(SUITE) == 23
        assert len(PAPER_ORDER) == 23

    def test_expected_keys_present(self):
        for key in (
            "QAOA-regular3-100",
            "QAOA-regular4-80",
            "QAOA-random-30",
            "QFT-29",
            "BV-70",
            "VQE-50",
            "QSIM-rand-0.3-40",
        ):
            assert key in SUITE

    def test_lookup_by_key(self):
        spec = get_benchmark("BV-50")
        assert spec.num_qubits == 50
        assert spec.family == "BV"

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("NOPE-1")

    def test_families(self):
        rows = benchmarks_in_family("QAOA-regular3")
        assert [r.num_qubits for r in rows] == [30, 40, 50, 60, 80, 100]
        with pytest.raises(KeyError):
            benchmarks_in_family("NOPE")

    def test_scaled_suite(self):
        small = scaled_suite(20)
        assert all(s.num_qubits <= 20 for s in small)
        assert any(s.family == "QSIM-rand-0.3" for s in small)


class TestCircuitConstruction:
    def test_build_sets_row_name(self):
        qc = get_benchmark("VQE-30").build(seed=0)
        assert qc.name == "VQE-30"
        assert qc.num_qubits == 30

    def test_build_deterministic(self):
        spec = get_benchmark("QAOA-regular3-30")
        assert spec.build(seed=1) == spec.build(seed=1)

    @pytest.mark.parametrize("key", ["QSIM-rand-0.3-10", "BV-14", "QFT-18"])
    def test_small_benchmarks_build(self, key):
        spec = get_benchmark(key)
        qc = spec.build(seed=0)
        assert qc.num_qubits == spec.num_qubits
        assert qc.num_two_qubit_gates > 0


class TestArchitectures:
    def test_grid_side(self):
        assert get_benchmark("QAOA-regular3-30").grid_side == 6
        assert get_benchmark("BV-14").grid_side == 4

    def test_architecture_capacity(self):
        for key in ("QAOA-regular3-100", "BV-70", "QSIM-rand-0.3-40"):
            spec = get_benchmark(key)
            arch = spec.architecture(with_storage=True)
            assert len(arch.compute_sites) >= spec.num_qubits
            assert len(arch.storage_sites) >= spec.num_qubits

    def test_architecture_without_storage(self):
        arch = get_benchmark("VQE-30").architecture(with_storage=False)
        assert not arch.has_storage


class TestTable2:
    def test_row_count_and_order(self):
        rows = table2_rows()
        assert len(rows) == 23
        assert rows[0]["name"] == "QAOA-regular3"
        assert rows[-1]["name"] == "QSIM-rand-0.3"

    @pytest.mark.parametrize(
        "index,expected",
        [
            (0, ("QAOA-regular3", 30, "90 x 90", "90 x 30", "90 x 180")),
            (5, ("QAOA-regular3", 100, "150 x 150", "150 x 30", "150 x 300")),
            (13, ("QFT", 18, "75 x 75", "75 x 30", "75 x 150")),
            (15, ("BV", 14, "60 x 60", "60 x 30", "60 x 120")),
        ],
    )
    def test_rows_match_paper(self, index, expected):
        row = table2_rows()[index]
        got = (
            row["name"],
            row["num_qubits"],
            row["compute_zone_um"],
            row["inter_zone_um"],
            row["storage_zone_um"],
        )
        assert got == expected

    def test_bv70_follows_sizing_rule_not_paper_typo(self):
        """Table 2 prints 120x120 for BV-70 but the rule gives 135x135."""
        row = next(
            r
            for r in table2_rows()
            if r["name"] == "BV" and r["num_qubits"] == 70
        )
        assert row["compute_zone_um"] == "135 x 135"

    def test_storage_is_double_compute_height(self):
        arch = get_benchmark("VQE-50").architecture()
        cw, ch = arch.zone_extent_um(Zone.COMPUTE)
        sw, sh = arch.zone_extent_um(Zone.STORAGE)
        assert sw == cw
        assert sh == 2 * ch


class TestScalingDoc:
    def test_passes_ride_beside_the_gated_benchmarks(self, tmp_path):
        import importlib.util
        import json
        import os

        from repro.benchsuite import run_scaling, scaling_doc

        points = run_scaling(sizes=(16,))
        doc = scaling_doc(points)
        names = [point.name for point in points]
        assert list(doc["passes"]) == names
        for point in points:
            assert doc["passes"][point.name] == point.pass_timings
            assert "initial_layout" in doc["passes"][point.name]

        path = tmp_path / "scaling.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        script = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "compare_bench.py"
        )
        spec = importlib.util.spec_from_file_location("compare_bench", script)
        compare_bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(compare_bench)
        assert compare_bench.load_means(str(path)) == {
            point.name: point.compile_s for point in points
        }
