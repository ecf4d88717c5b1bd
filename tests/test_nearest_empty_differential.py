"""Differential test: the router's nearest-empty search against the scan
it replaced.

``reference_nearest_empty`` is the previous full-zone scan of
``_StagePlan.nearest_empty``, kept verbatim: it visits every planned-free
site of the zone and keeps the smallest ``(hypot, |dx|, row, col)``
key.  The row-indexed search must return the same site (or ``None`` on
a full zone) for every query, including after ``depart``/``arrive``
calls have changed the planned occupancy between queries.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.continuous_router import _StagePlan
from repro.hardware import Layout, Zone, ZonedArchitecture


def reference_nearest_empty(plan, position, zone):
    px, py = position
    sites = plan.arch.sites_in(zone)
    pool = [s for s in sites if not plan._end_occ.get(s)]
    best_key: tuple | None = None
    best_site = None
    for site in pool:
        dist = math.hypot(site.x - px, site.y - py)
        key = (dist, abs(site.x - px), site.row, site.col)
        if best_key is None or key < best_key:
            best_key = key
            best_site = site
    return best_site


def assert_same(plan, position, zone):
    want = reference_nearest_empty(plan, position, zone)
    assert plan.nearest_empty(position, zone) == want, (position, zone)


@st.composite
def architectures(draw):
    cols = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return ZonedArchitecture(cols, rows)
    return ZonedArchitecture(
        cols, rows, draw(st.integers(1, 6)), draw(st.integers(1, 8))
    )


@st.composite
def positions(draw, arch):
    """Query points: on a site of either zone, off-grid, at half-pitch
    ties between sites, or well outside the machine."""
    pitch = arch.params.site_pitch
    site = draw(st.sampled_from(arch.all_sites))
    kind = draw(st.sampled_from(["site", "half", "offgrid", "outside"]))
    if kind == "site":
        return site.position
    if kind == "half":
        hx, hy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (-1, 1)]))
        return (site.x + hx * pitch / 2, site.y + hy * pitch / 2)
    if kind == "offgrid":
        fx = draw(st.floats(-1.5, 1.5, allow_nan=False))
        fy = draw(st.floats(-1.5, 1.5, allow_nan=False))
        return (site.x + fx * pitch, site.y + fy * pitch)
    far = 20 * pitch * max(*arch.compute_shape, *arch.storage_shape)
    return (
        site.x + draw(st.sampled_from([-far, 0.0, far])),
        site.y + draw(st.sampled_from([-far, 0.0, far])),
    )


@st.composite
def scenarios(draw):
    """An architecture, a one-qubit-per-site layout and a list of
    queries interleaved with planned departures and arrivals."""
    arch = draw(architectures())
    sites = list(arch.all_sites)
    placed = draw(
        st.lists(st.sampled_from(sites), unique=True, max_size=len(sites))
    )
    layout = Layout(arch, dict(enumerate(placed)))
    zones = [Zone.COMPUTE, Zone.STORAGE] if arch.has_storage else [
        Zone.COMPUTE
    ]
    ops = []
    next_qubit = len(placed)
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["query", "query", "depart", "arrive"]))
        if kind == "query":
            ops.append(
                ("query", draw(positions(arch)), draw(st.sampled_from(zones)))
            )
        elif kind == "depart" and placed:
            ops.append(("depart", draw(st.integers(0, len(placed) - 1))))
        elif kind == "arrive":
            ops.append(("arrive", next_qubit, draw(st.sampled_from(sites))))
            next_qubit += 1
    return arch, layout, ops


@given(scenarios())
@settings(max_examples=400, deadline=None)
def test_matches_full_zone_scan(scenario):
    arch, layout, ops = scenario
    plan = _StagePlan(arch, layout, [])
    for op in ops:
        if op[0] == "query":
            assert_same(plan, op[1], op[2])
        elif op[0] == "depart":
            plan.depart(op[1])
        else:
            plan.arrive(op[1], op[2])


@pytest.mark.parametrize(
    "arch",
    [
        ZonedArchitecture(1, 1),
        ZonedArchitecture(1, 1, 1, 1),
        ZonedArchitecture(3, 3, 3, 6),
    ],
    ids=["1x1", "1x1+1x1", "3x3+3x6"],
)
def test_full_zone_returns_none(arch):
    layout = Layout(arch, dict(enumerate(arch.all_sites)))
    plan = _StagePlan(arch, layout, [])
    zones = [Zone.COMPUTE, Zone.STORAGE] if arch.has_storage else [
        Zone.COMPUTE
    ]
    for zone in zones:
        for site in arch.all_sites:
            assert plan.nearest_empty(site.position, zone) is None
    # Freeing one site makes it the answer from anywhere in its zone.
    last = len(arch.compute_sites) - 1
    plan.depart(last)
    for site in arch.all_sites:
        assert plan.nearest_empty(site.position, Zone.COMPUTE) == (
            arch.compute_sites[-1]
        )


def test_diagonal_tie_prefers_same_column():
    """Equal distances break on |dx| first: the site straight above wins
    over the one beside, even though the row search reaches the side
    first."""
    arch = ZonedArchitecture(3, 3)
    centre = arch.site(Zone.COMPUTE, 1, 1)
    above = arch.site(Zone.COMPUTE, 1, 2)
    occupied = [s for s in arch.compute_sites if s not in (above,)]
    layout = Layout(arch, dict(enumerate(occupied)))
    plan = _StagePlan(arch, layout, [])
    # Free the right-hand neighbour: same distance as ``above``.
    right = arch.site(Zone.COMPUTE, 2, 1)
    plan.depart(occupied.index(right))
    assert plan.nearest_empty(centre.position, Zone.COMPUTE) == above
    assert_same(plan, centre.position, Zone.COMPUTE)
