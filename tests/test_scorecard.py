"""Tests for the reproduction scorecard."""

from dataclasses import replace

import pytest

from repro.analysis import run_benchmark, run_scorecard, score_row
from repro.analysis.scorecard import CHECK_NAMES, Scorecard
from repro.baselines import EnolaConfig
from repro.benchsuite import SUITE

FAST = EnolaConfig(seed=0, mis_restarts=3, sa_iterations_per_qubit=30)


@pytest.fixture(scope="module")
def bv14_result():
    return run_benchmark(SUITE["BV-14"], seed=0, enola_config=FAST)


class TestScoreRow:
    def test_all_checks_present(self, bv14_result):
        score = score_row(bv14_result)
        assert set(score.checks) == set(CHECK_NAMES)
        assert score.total == len(CHECK_NAMES)

    def test_bv14_passes_all_shapes(self, bv14_result):
        # Each compiler takes ~1 ms on BV-14, so one wall-clock sample
        # can flip tcomp_direction: score the best of five compiles.
        runs = [bv14_result] + [
            run_benchmark(SUITE["BV-14"], seed=0, enola_config=FAST)
            for _ in range(4)
        ]
        best = replace(
            bv14_result,
            scenarios={
                name: replace(
                    scenario,
                    compile_time=min(r[name].compile_time for r in runs),
                )
                for name, scenario in bv14_result.scenarios.items()
            },
        )
        score = score_row(best)
        assert score.passed == score.total, score.checks

    def test_magnitude_tolerance_zero_can_fail(self, bv14_result):
        score = score_row(
            bv14_result, magnitude_tolerance_decades=1e-6
        )
        assert not score.checks["fidelity_magnitude"]

    def test_unknown_key_rejected(self, bv14_result):
        bv14_result.key = "NOT-A-ROW"
        try:
            with pytest.raises(KeyError):
                score_row(bv14_result)
        finally:
            bv14_result.key = "BV-14"


class TestScorecard:
    def test_run_scorecard_small(self):
        card = run_scorecard(
            keys=("BV-14", "QSIM-rand-0.3-10"), enola_config=FAST
        )
        assert len(card.rows) == 2
        assert 0.0 <= card.score <= 1.0
        # Deterministic shape checks must all pass on these rows; the
        # compile-time direction is wall-clock and can flip on tiny
        # instances under the deliberately lightweight test Enola config,
        # so it is excluded here (the paper-scale scorecard covers it).
        failing = [
            pair for pair in card.failing() if pair[1] != "tcomp_direction"
        ]
        assert failing == []

    def test_render(self):
        card = run_scorecard(keys=("BV-14",), enola_config=FAST)
        text = card.render()
        assert "Reproduction scorecard" in text
        assert "score:" in text
        assert "pass" in text

    def test_empty_scorecard_score(self):
        assert Scorecard().score == 0.0
