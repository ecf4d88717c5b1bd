"""Unit tests for the Continuous Router (Sec. 5)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.continuous_router import (
    MOBILE,
    STATIC,
    UNDECIDED,
    ContinuousRouter,
    RoutingError,
)
from repro.hardware import Layout, Zone, ZonedArchitecture


@pytest.fixture
def arch():
    return ZonedArchitecture(3, 3, 3, 6)


def apply_routed(layout, routed):
    out = layout.copy()
    out.apply_moves(routed.moves)
    return out


def assert_stage_realised(layout, pairs, use_storage):
    """Post-conditions every routed stage must satisfy."""
    interacting = {q for pair in pairs for q in pair}
    for a, b in pairs:
        assert layout.site_of(a) == layout.site_of(b)
        assert layout.zone_of(a) is Zone.COMPUTE
    for q in layout.qubits:
        if q in interacting:
            continue
        tenants = layout.occupants(layout.site_of(q))
        assert tenants == {q}, f"idle qubit {q} shares a site"
        if use_storage:
            assert layout.zone_of(q) is Zone.STORAGE


class TestWithStorage:
    def test_pair_from_storage(self, arch):
        layout = Layout.row_major(arch, 4, Zone.STORAGE)
        router = ContinuousRouter(arch, use_storage=True)
        routed = router.route_stage(layout, [(0, 1)])
        after = apply_routed(layout, routed)
        assert_stage_realised(after, [(0, 1)], use_storage=True)
        # Both partners started in storage: one undecided anchor + one
        # mobile follower (Fig. 4(b)).
        labels = sorted(routed.labels[q] for q in (0, 1))
        assert labels == sorted([UNDECIDED, MOBILE])

    def test_noninteracting_parked_in_storage(self, arch):
        layout = Layout.row_major(arch, 4, Zone.COMPUTE)
        router = ContinuousRouter(arch, use_storage=True)
        routed = router.route_stage(layout, [(0, 1)])
        after = apply_routed(layout, routed)
        assert after.zone_of(2) is Zone.STORAGE
        assert after.zone_of(3) is Zone.STORAGE

    def test_one_in_storage_one_in_compute_case1(self, arch):
        mapping = {
            0: arch.site(Zone.STORAGE, 0, 0),
            1: arch.site(Zone.COMPUTE, 1, 1),
        }
        layout = Layout(arch, mapping)
        router = ContinuousRouter(arch, use_storage=True)
        routed = router.route_stage(layout, [(0, 1)])
        # Unblocked compute partner stays static; storage partner joins it.
        assert routed.labels[1] == STATIC
        assert routed.labels[0] == MOBILE
        after = apply_routed(layout, routed)
        assert after.site_of(0) == mapping[1]

    def test_one_in_storage_blocked_partner_case2(self, arch):
        shared = arch.site(Zone.COMPUTE, 1, 1)
        mapping = {
            0: arch.site(Zone.STORAGE, 0, 0),   # partner of 1
            1: shared,
            2: shared,                           # co-tenant of 1
            3: arch.site(Zone.STORAGE, 2, 3),   # partner of 2
        }
        layout = Layout(arch, mapping)
        router = ContinuousRouter(arch, use_storage=True)
        # Pair (1,0) is processed before (2,3): 1 grabs static on the
        # shared site, so 2 must go undecided and relocate.
        routed = router.route_stage(layout, [(1, 0), (2, 3)])
        assert routed.labels[1] == STATIC
        assert routed.labels[2] == UNDECIDED
        after = apply_routed(layout, routed)
        assert_stage_realised(after, [(0, 1), (2, 3)], use_storage=True)
        assert after.site_of(2) != shared

    def test_both_compute_already_colocated_stay(self, arch):
        shared = arch.site(Zone.COMPUTE, 1, 1)
        layout = Layout(arch, {0: shared, 1: shared})
        router = ContinuousRouter(arch, use_storage=True)
        routed = router.route_stage(layout, [(0, 1)])
        assert routed.moves == []
        assert routed.labels[0] == STATIC
        assert routed.labels[1] == STATIC

    def test_descending_y_order_for_parking(self, arch):
        """Qubits farther from storage choose their sites first."""
        mapping = {
            0: arch.site(Zone.COMPUTE, 1, 2),  # far from storage
            1: arch.site(Zone.COMPUTE, 1, 0),  # close to storage
        }
        layout = Layout(arch, mapping)
        router = ContinuousRouter(arch, use_storage=True)
        routed = router.route_stage(layout, [])
        # The far qubit (0) picks first and claims the same-column top
        # slot; the near qubit then takes the adjacent-column top slot
        # (closer than dropping a full row in its own column).
        t0 = routed.targets[0]
        t1 = routed.targets[1]
        assert t0.zone is Zone.STORAGE and t1.zone is Zone.STORAGE
        assert (t0.col, t0.row) == (1, 0)
        assert t1.row == 0 and t1.col != 1

    def test_full_storage_raises(self):
        arch = ZonedArchitecture(2, 2, 1, 1)
        mapping = {
            0: arch.site(Zone.COMPUTE, 0, 0),
            1: arch.site(Zone.COMPUTE, 1, 0),
            2: arch.site(Zone.STORAGE, 0, 0),
        }
        layout = Layout(arch, mapping)
        router = ContinuousRouter(arch, use_storage=True)
        with pytest.raises(RoutingError, match="storage"):
            router.route_stage(layout, [])

    def test_storage_router_requires_storage_zone(self):
        arch = ZonedArchitecture(2, 2)
        with pytest.raises(ValueError):
            ContinuousRouter(arch, use_storage=True)


class TestNonStorage:
    def test_pair_formation(self, arch):
        layout = Layout.row_major(arch, 6, Zone.COMPUTE)
        router = ContinuousRouter(arch, use_storage=False)
        routed = router.route_stage(layout, [(0, 5), (1, 4)])
        after = apply_routed(layout, routed)
        assert_stage_realised(
            after, [(0, 5), (1, 4)], use_storage=False
        )

    def test_idle_qubits_stay_put(self, arch):
        layout = Layout.row_major(arch, 6, Zone.COMPUTE)
        router = ContinuousRouter(arch, use_storage=False)
        routed = router.route_stage(layout, [(0, 1)])
        for q in (2, 3, 4, 5):
            assert q not in routed.targets

    def test_leftover_pair_declustered(self, arch):
        shared = arch.site(Zone.COMPUTE, 0, 0)
        mapping = {
            0: shared,
            1: shared,
            2: arch.site(Zone.COMPUTE, 2, 2),
            3: arch.site(Zone.COMPUTE, 2, 0),
        }
        layout = Layout(arch, mapping)
        router = ContinuousRouter(arch, use_storage=False)
        routed = router.route_stage(layout, [(2, 3)])
        after = apply_routed(layout, routed)
        # The stale (0,1) co-location must be split.
        assert after.site_of(0) != after.site_of(1)
        assert_stage_realised(after, [(2, 3)], use_storage=False)

    def test_leftover_pair_with_one_interacting(self, arch):
        shared = arch.site(Zone.COMPUTE, 0, 0)
        mapping = {
            0: shared,
            1: shared,
            2: arch.site(Zone.COMPUTE, 2, 2),
        }
        layout = Layout(arch, mapping)
        router = ContinuousRouter(arch, use_storage=False)
        routed = router.route_stage(layout, [(1, 2)])
        after = apply_routed(layout, routed)
        assert_stage_realised(after, [(1, 2)], use_storage=False)
        # Qubit 0 stays alone at the shared site.
        assert after.occupants(shared) == {0}

    def test_rejects_storage_residents(self, arch):
        layout = Layout.row_major(arch, 2, Zone.STORAGE)
        router = ContinuousRouter(arch, use_storage=False)
        with pytest.raises(ValueError):
            router.route_stage(layout, [(0, 1)])


class TestInputValidation:
    def test_degenerate_pair(self, arch):
        layout = Layout.row_major(arch, 2)
        router = ContinuousRouter(arch, use_storage=False)
        with pytest.raises(ValueError):
            router.route_stage(layout, [(0, 0)])

    def test_overlapping_pairs(self, arch):
        layout = Layout.row_major(arch, 3)
        router = ContinuousRouter(arch, use_storage=False)
        with pytest.raises(ValueError):
            router.route_stage(layout, [(0, 1), (1, 2)])

    def test_unplaced_qubit(self, arch):
        layout = Layout.row_major(arch, 2)
        router = ContinuousRouter(arch, use_storage=False)
        with pytest.raises(ValueError):
            router.route_stage(layout, [(0, 7)])


class TestDeterminismAndSeeding:
    def test_same_seed_same_routing(self, arch):
        layout = Layout.row_major(arch, 6, Zone.COMPUTE)
        pairs = [(0, 5), (1, 4)]
        r1 = ContinuousRouter(arch, False, random.Random(7)).route_stage(
            layout, pairs
        )
        r2 = ContinuousRouter(arch, False, random.Random(7)).route_stage(
            layout, pairs
        )
        assert [(m.qubit, m.destination) for m in r1.moves] == [
            (m.qubit, m.destination) for m in r2.moves
        ]

    def test_layout_not_mutated(self, arch):
        layout = Layout.row_major(arch, 4, Zone.STORAGE)
        snapshot = layout.as_dict()
        ContinuousRouter(arch, True).route_stage(layout, [(0, 1)])
        assert layout.as_dict() == snapshot


class TestMultiStageProgression:
    def test_consecutive_stages_consistent(self, arch):
        """Drive several stages and check invariants after each."""
        layout = Layout.row_major(arch, 6, Zone.STORAGE)
        router = ContinuousRouter(arch, use_storage=True)
        schedule = [
            [(0, 1), (2, 3)],
            [(1, 2), (4, 5)],
            [(0, 5)],
            [(3, 4), (0, 1)],
        ]
        for pairs in schedule:
            routed = router.route_stage(layout, pairs)
            layout.apply_moves(routed.moves)
            assert_stage_realised(layout, pairs, use_storage=True)

    def test_consecutive_stages_non_storage(self, arch):
        layout = Layout.row_major(arch, 6, Zone.COMPUTE)
        router = ContinuousRouter(arch, use_storage=False, rng=random.Random(3))
        schedule = [
            [(0, 1), (2, 3)],
            [(1, 2), (4, 5)],
            [(0, 5)],
            [(3, 4), (0, 1)],
        ]
        for pairs in schedule:
            routed = router.route_stage(layout, pairs)
            layout.apply_moves(routed.moves)
            assert_stage_realised(layout, pairs, use_storage=False)


NUMPY_FREE_SCRIPT = """
import sys

import repro.service.server
from repro.engine import CompilationEngine, CompileJob
from repro.hardware import coll_move_waveforms

[result] = CompilationEngine().run(
    [CompileJob(backend="powermove", benchmark="QAOA-regular3-100")]
)
assert result.error is None, result.error
program = result.program
arch = program.architecture
assert min(len(arch.compute_sites), len(arch.storage_sites)) >= 64
coll_move = program.move_batches[0].coll_moves[0]
assert coll_move_waveforms(coll_move, arch.params)
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_compile_path_never_imports_numpy():
    """The daemon, a powermove compile over zones of 64+ sites and the
    waveform sampler all run without loading numpy, even where it is
    installed (only ``repro verify`` needs it)."""
    pytest.importorskip("numpy")  # where it is absent, nothing can load it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
