"""Tests for movement kinematics (profiles and AOD waveforms)."""

import math

import pytest

from repro.hardware import DEFAULT_PARAMS, UM, CollMove, Move, Zone, ZonedArchitecture
from repro.hardware.kinematics import (
    BangBangProfile,
    PaperProfile,
    coll_move_waveforms,
    max_sampled_acceleration,
    move_waveform,
    sample_profile,
)
from repro.hardware.moves import moves_conflict


@pytest.fixture
def arch():
    return ZonedArchitecture(4, 4, 4, 8)


class TestBangBang:
    def test_duration_formula(self):
        profile = BangBangProfile(27.5 * UM, 2750.0)
        assert profile.duration == pytest.approx(
            2.0 * math.sqrt(27.5e-6 / 2750.0)
        )

    def test_endpoints(self):
        profile = BangBangProfile(40 * UM, 2750.0)
        assert profile.position_at(0.0) == pytest.approx(0.0)
        assert profile.position_at(profile.duration) == pytest.approx(
            40e-6
        )
        assert profile.velocity_at(0.0) == pytest.approx(0.0)
        assert profile.velocity_at(profile.duration) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_midpoint_peak_velocity(self):
        profile = BangBangProfile(40 * UM, 2750.0)
        mid = profile.duration / 2.0
        assert profile.velocity_at(mid) == pytest.approx(
            profile.peak_velocity
        )

    def test_position_monotone(self):
        profile = BangBangProfile(40 * UM, 2750.0)
        samples = sample_profile(profile, 41)
        positions = [s.position for s in samples]
        assert positions == sorted(positions)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BangBangProfile(-1.0, 2750.0)
        with pytest.raises(ValueError):
            BangBangProfile(1.0, 0.0)


class TestBatchSampling:
    """The batch entry points agree with the scalar ones exactly.

    positions_at/velocities_at return the same floating-point results
    as position_at/velocity_at at every sample time.
    """

    @pytest.mark.parametrize(
        "make",
        [
            lambda: BangBangProfile(40 * UM, 2750.0),
            lambda: PaperProfile(27.5 * UM, 2750.0),
            lambda: PaperProfile(0.0, 2750.0),
        ],
        ids=["bangbang", "paper", "zero-distance"],
    )
    def test_batch_matches_scalar(self, make):
        profile = make()
        total = profile.duration
        times = [total * i / 16.0 for i in range(17)] or [0.0]
        positions = list(profile.positions_at(times))
        velocities = list(profile.velocities_at(times))
        for t, p, v in zip(times, positions, velocities):
            assert float(p) == profile.position_at(t)
            assert float(v) == profile.velocity_at(t)


class TestPaperProfile:
    def test_duration_matches_table1(self):
        profile = PaperProfile(27.5 * UM, 2750.0)
        assert profile.duration == pytest.approx(100e-6, rel=1e-9)
        profile = PaperProfile(110 * UM, 2750.0)
        assert profile.duration == pytest.approx(200e-6, rel=1e-9)

    def test_duration_agrees_with_params_law(self):
        for dist in (10 * UM, 45 * UM, 200 * UM):
            profile = PaperProfile(dist, DEFAULT_PARAMS.acceleration)
            assert profile.duration == pytest.approx(
                DEFAULT_PARAMS.move_duration(dist)
            )

    def test_smooth_endpoints(self):
        profile = PaperProfile(40 * UM, 2750.0)
        assert profile.velocity_at(0.0) == pytest.approx(0.0, abs=1e-12)
        assert profile.velocity_at(profile.duration) == pytest.approx(
            0.0, abs=1e-9
        )
        assert profile.position_at(profile.duration) == pytest.approx(
            40e-6
        )

    def test_peak_acceleration_is_two_pi_a(self):
        profile = PaperProfile(40 * UM, 2750.0)
        assert profile.peak_acceleration == pytest.approx(
            2.0 * math.pi * 2750.0
        )

    def test_faster_than_bang_bang_by_factor_two(self):
        """The paper's law is 2x below the bang-bang optimum (see module
        docstring) -- keep that surprising fact pinned down."""
        bang = BangBangProfile(40 * UM, 2750.0)
        paper = PaperProfile(40 * UM, 2750.0)
        assert bang.duration == pytest.approx(2.0 * paper.duration)

    def test_zero_distance(self):
        profile = PaperProfile(0.0, 2750.0)
        assert profile.duration == 0.0
        assert profile.position_at(0.0) == 0.0


class TestSampling:
    def test_sample_count_and_clamping(self):
        profile = PaperProfile(40 * UM, 2750.0)
        samples = sample_profile(profile, 11)
        assert len(samples) == 11
        assert samples[0].time == 0.0
        assert samples[-1].time == pytest.approx(profile.duration)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            sample_profile(PaperProfile(1 * UM, 2750.0), 1)

    def test_sampled_acceleration_near_analytic_peak(self):
        profile = PaperProfile(60 * UM, 2750.0)
        arch = ZonedArchitecture(8, 8)
        move = Move(
            0, arch.site(Zone.COMPUTE, 0, 0), arch.site(Zone.COMPUTE, 4, 0)
        )
        waveform = move_waveform(move, DEFAULT_PARAMS, num_samples=201)
        sampled = max_sampled_acceleration(waveform)
        assert sampled == pytest.approx(
            profile.peak_acceleration, rel=0.02
        )


class TestWaveforms:
    def test_waveform_endpoints(self, arch):
        move = Move(
            3, arch.site(Zone.COMPUTE, 0, 0), arch.site(Zone.STORAGE, 2, 1)
        )
        waveform = move_waveform(move, DEFAULT_PARAMS)
        assert (waveform.xs[0], waveform.ys[0]) == move.source.position
        assert waveform.xs[-1] == pytest.approx(move.destination.x)
        assert waveform.ys[-1] == pytest.approx(move.destination.y)
        assert waveform.qubit == 3

    def test_collmove_members_share_clock(self, arch):
        cm = CollMove(
            moves=[
                Move(
                    0,
                    arch.site(Zone.COMPUTE, 0, 0),
                    arch.site(Zone.COMPUTE, 1, 0),
                ),
                Move(
                    1,
                    arch.site(Zone.COMPUTE, 2, 1),
                    arch.site(Zone.COMPUTE, 3, 1),
                ),
            ]
        )
        waveforms = coll_move_waveforms(cm, DEFAULT_PARAMS, num_samples=21)
        assert waveforms[0].times == waveforms[1].times
        assert waveforms[0].times[-1] == pytest.approx(
            cm.move_duration(DEFAULT_PARAMS)
        )

    def test_collmove_waveforms_preserve_aod_order(self, arch):
        """At every shared sample the x/y order (with ties) must hold --
        the continuous-time counterpart of the Fig. 5 conflict rule."""
        moves = [
            Move(
                0, arch.site(Zone.COMPUTE, 0, 0), arch.site(Zone.COMPUTE, 1, 1)
            ),
            Move(
                1, arch.site(Zone.COMPUTE, 2, 1), arch.site(Zone.COMPUTE, 3, 2)
            ),
            Move(
                2, arch.site(Zone.COMPUTE, 0, 3), arch.site(Zone.COMPUTE, 1, 3)
            ),
        ]
        for i, a in enumerate(moves):
            for b in moves[i + 1:]:
                assert not moves_conflict(a, b)
        cm = CollMove(moves=moves)
        waveforms = coll_move_waveforms(cm, DEFAULT_PARAMS, num_samples=41)
        for i, wa in enumerate(waveforms):
            for wb in waveforms[i + 1:]:
                sx = _sign(wa.xs[0] - wb.xs[0])
                sy = _sign(wa.ys[0] - wb.ys[0])
                for k in range(len(wa.times)):
                    if sx:
                        assert _sign(wa.xs[k] - wb.xs[k]) in (0, sx)
                    if sy:
                        assert _sign(wa.ys[k] - wb.ys[k]) in (0, sy)


def _sign(v: float) -> int:
    if v > 1e-12:
        return 1
    if v < -1e-12:
        return -1
    return 0
