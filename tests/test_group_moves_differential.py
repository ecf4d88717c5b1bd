"""Differential test: ``group_moves`` against the first-fit it replaced.

``reference_group_moves`` is the previous body of
:func:`repro.hardware.moves.group_moves`, kept verbatim: a first-fit scan
that asks :meth:`CollMove.accepts` (and so :func:`moves_conflict`) of
every open group.  The coordinate-tuple scan must return the same
groups: the same ``Move`` objects, in the same order, in the same group
order.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pipeline.powermove_passes as powermove_passes
from repro.circuits.generators import qaoa_regular
from repro.core import compile_circuit
from repro.hardware import CollMove, Move, Site, Zone, ZonedArchitecture
from repro.hardware.moves import group_moves


def reference_group_moves(
    moves: list[Move],
    distance_aware: bool = True,
) -> list[CollMove]:
    ordered = list(moves)
    if distance_aware:
        ordered.sort(key=lambda m: (m.distance, m.qubit))
    groups: list[CollMove] = []
    for move in ordered:
        for group in groups:
            if group.accepts(move):
                group.moves.append(move)
                break
        else:
            groups.append(CollMove(moves=[move]))
    return groups


def assert_same_groups(moves: list[Move], distance_aware: bool) -> None:
    got = group_moves(moves, distance_aware=distance_aware)
    want = reference_group_moves(moves, distance_aware=distance_aware)
    assert [[id(m) for m in g.moves] for g in got] == [
        [id(m) for m in g.moves] for g in want
    ]
    assert [g.aod_index for g in got] == [g.aod_index for g in want]


# ---------------------------------------------------------------------------
# Grid moves: zone crossings, shared rows and columns
# ---------------------------------------------------------------------------

# A small machine, so that random moves often share rows and columns;
# drawing from both zones' sites makes storage <-> compute crossings.
ARCH = ZonedArchitecture(3, 3, 3, 6)
ALL_SITES = list(ARCH.all_sites)


@st.composite
def grid_move_lists(draw):
    n = draw(st.integers(0, 30))
    out = []
    for qubit in range(n):
        src = draw(st.sampled_from(ALL_SITES))
        dst = draw(st.sampled_from(ALL_SITES).filter(lambda s, a=src: s != a))
        out.append(Move(qubit, src, dst))
    return out


@given(grid_move_lists(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_grid_moves_match_reference(batch, aware):
    assert_same_groups(batch, aware)


# ---------------------------------------------------------------------------
# Off-grid sites at the eps tie boundary
# ---------------------------------------------------------------------------

#: Coordinates whose pairwise differences land exactly on, just inside
#: and just outside the 1e-9 tie tolerance, plus a signed zero.
TIE_COORDS = (0.0, -0.0, 0.5e-9, -0.5e-9, 1e-9, -1e-9, 2e-9, -2e-9)


def tie_site(index: int, x: float, y: float) -> Site:
    return Site(Zone.COMPUTE, index, 0, x, y)


@st.composite
def tie_move_lists(draw):
    coords = st.sampled_from(TIE_COORDS)
    n = draw(st.integers(0, 16))
    out = []
    for qubit in range(n):
        src = tie_site(2 * qubit, draw(coords), draw(coords))
        dst = tie_site(2 * qubit + 1, draw(coords), draw(coords))
        out.append(Move(qubit, src, dst))
    return out


def test_tie_coords_hit_the_boundary():
    diffs = {abs(a - b) for a, b in itertools.product(TIE_COORDS, repeat=2)}
    assert {0.5e-9, 1e-9, 2e-9} <= diffs


@given(tie_move_lists(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_eps_ties_match_reference(batch, aware):
    assert_same_groups(batch, aware)


@pytest.mark.parametrize("aware", [True, False])
def test_eps_ties_seeded_sweep(aware):
    rng = random.Random(20251017)
    for _ in range(300):
        batch = []
        for qubit in range(rng.randint(2, 24)):
            src = tie_site(2 * qubit, *rng.choices(TIE_COORDS, k=2))
            dst = tie_site(2 * qubit + 1, *rng.choices(TIE_COORDS, k=2))
            batch.append(Move(qubit, src, dst))
        assert_same_groups(batch, aware)


@pytest.mark.parametrize("aware", [True, False])
def test_nan_coordinates_match_reference(aware):
    """NaN offsets read as ties in both predicates."""
    nan = float("nan")
    coords = TIE_COORDS + (nan, 15e-6)
    rng = random.Random(7)
    for _ in range(100):
        batch = []
        for qubit in range(rng.randint(2, 12)):
            src = tie_site(2 * qubit, *rng.choices(coords, k=2))
            dst = tie_site(2 * qubit + 1, *rng.choices(coords, k=2))
            batch.append(Move(qubit, src, dst))
        assert_same_groups(batch, aware)


# ---------------------------------------------------------------------------
# Real stages: a 256-qubit powermove compile
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def qaoa256_stage_moves():
    """Every stage's move list from compiling a 256-qubit R3 QAOA."""
    captured: list[list[Move]] = []

    def record(moves, distance_aware=True):
        captured.append(list(moves))
        return group_moves(moves, distance_aware=distance_aware)

    circuit = qaoa_regular(256, degree=3, seed=11)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(powermove_passes, "group_moves", record)
        compile_circuit(circuit, use_storage=True, seed=0)
        compile_circuit(circuit, use_storage=False, seed=0)
    return captured


@pytest.mark.parametrize("aware", [True, False])
def test_qaoa256_stages_match_reference(qaoa256_stage_moves, aware):
    # Four stages each with and without storage, of 30 to 241 moves.
    assert len(qaoa256_stage_moves) == 8
    assert max(len(moves) for moves in qaoa256_stage_moves) > 200
    largest = 0
    for moves in qaoa256_stage_moves:
        assert_same_groups(moves, aware)
        groups = group_moves(moves, distance_aware=aware)
        largest = max(largest, max(len(g) for g in groups))
    # Real multi-member groups, not singletons.
    assert largest > 10
