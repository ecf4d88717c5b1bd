"""Zoned-architecture geometry: zones, sites and the machine floor plan.

The machine follows the paper's evaluation setup (Sec. 7.1): a computation
zone of ``ceil(sqrt(n)) x ceil(sqrt(n))`` sites, an empty 30 um inter-zone
gap, and a storage zone of ``2*ceil(sqrt(n)) x ceil(sqrt(n))`` sites, all on
a 15 um pitch.

Global coordinates: x grows to the right, y grows upward.  The storage zone
sits *below* the computation zone (as drawn in the paper's figures), with
its top row at ``y = 0`` and the computation zone starting at
``y = zone_gap``.  "Moving down into storage" therefore decreases y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .params import DEFAULT_PARAMS, HardwareParams, UM


class Zone(str, Enum):
    """The two functional zones of the architecture."""

    COMPUTE = "compute"
    STORAGE = "storage"


@dataclass(frozen=True)
class Site:
    """One trap site of the lattice.

    Attributes:
        zone: Which zone the site belongs to.
        col: Column index within the zone (0-based, left to right).
        row: Row index within the zone (0-based, *bottom to top* for the
            computation zone, *top to bottom* for the storage zone so that
            storage row 0 is the row nearest the computation zone).
        x: Global x coordinate (metres).
        y: Global y coordinate (metres).
    """

    zone: Zone
    col: int
    row: int
    x: float
    y: float

    @property
    def position(self) -> tuple[float, float]:
        """(x, y) in metres."""
        return (self.x, self.y)

    def distance_to(self, other: "Site") -> float:
        """Euclidean distance to another site (metres)."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def __str__(self) -> str:
        return f"{self.zone.value}({self.col},{self.row})"


class ZonedArchitecture:
    """Floor plan of a zoned neutral-atom machine.

    Args:
        compute_cols: Columns of the computation zone.
        compute_rows: Rows of the computation zone.
        storage_cols: Columns of the storage zone (0 disables storage,
            modelling the architectures Enola targets).
        storage_rows: Rows of the storage zone.
        num_aods: Number of independently steerable AOD arrays.
        params: Hardware constants (pitch and zone gap are read from here).
    """

    def __init__(
        self,
        compute_cols: int,
        compute_rows: int,
        storage_cols: int = 0,
        storage_rows: int = 0,
        num_aods: int = 1,
        params: HardwareParams = DEFAULT_PARAMS,
    ) -> None:
        if compute_cols <= 0 or compute_rows <= 0:
            raise ValueError("computation zone must have positive extent")
        if (storage_cols > 0) != (storage_rows > 0):
            raise ValueError(
                "storage zone must have both dimensions positive or both zero"
            )
        if num_aods < 1:
            raise ValueError("need at least one AOD array")
        self._params = params
        self._num_aods = num_aods
        self._compute_cols = compute_cols
        self._compute_rows = compute_rows
        self._storage_cols = storage_cols
        self._storage_rows = storage_rows

        # Site tuples are built once: the architecture is immutable, and
        # the accessors below hand out the same tuple on every call.
        pitch = params.site_pitch
        gap = params.zone_gap
        self._compute_sites: tuple[Site, ...] = tuple(
            Site(Zone.COMPUTE, col, row, col * pitch, gap + row * pitch)
            for row in range(compute_rows)
            for col in range(compute_cols)
        )
        self._storage_sites: tuple[Site, ...] = tuple(
            Site(Zone.STORAGE, col, row, col * pitch, -row * pitch)
            for row in range(storage_rows)
            for col in range(storage_cols)
        )
        self._all_sites = self._compute_sites + self._storage_sites
        self._index: dict[tuple[Zone, int, int], Site] = {
            (s.zone, s.col, s.row): s for s in self._all_sites
        }

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_qubits(
        cls,
        num_qubits: int,
        with_storage: bool = True,
        num_aods: int = 1,
        params: HardwareParams = DEFAULT_PARAMS,
    ) -> "ZonedArchitecture":
        """Paper-default floor plan for an ``num_qubits``-qubit program.

        Computation zone ``ceil(sqrt(n))`` square; storage zone the same
        width and twice the height (Sec. 7.1).
        """
        if num_qubits <= 0:
            raise ValueError("need at least one qubit")
        side = math.isqrt(num_qubits)
        if side * side < num_qubits:
            side += 1
        if with_storage:
            return cls(side, side, side, 2 * side, num_aods, params)
        return cls(side, side, 0, 0, num_aods, params)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def params(self) -> HardwareParams:
        """Hardware constants in force for this machine."""
        return self._params

    @property
    def num_aods(self) -> int:
        """Number of independent AOD arrays."""
        return self._num_aods

    @property
    def has_storage(self) -> bool:
        """True when a storage zone exists."""
        return bool(self._storage_sites)

    @property
    def compute_sites(self) -> tuple[Site, ...]:
        """All computation-zone sites (row-major from the bottom row)."""
        return self._compute_sites

    @property
    def storage_sites(self) -> tuple[Site, ...]:
        """All storage-zone sites (row 0 nearest the computation zone)."""
        return self._storage_sites

    @property
    def all_sites(self) -> tuple[Site, ...]:
        """Every site of the machine."""
        return self._all_sites

    @property
    def num_sites(self) -> int:
        """Total number of sites."""
        return len(self._index)

    @property
    def compute_shape(self) -> tuple[int, int]:
        """(cols, rows) of the computation zone."""
        return (self._compute_cols, self._compute_rows)

    @property
    def storage_shape(self) -> tuple[int, int]:
        """(cols, rows) of the storage zone ((0, 0) when absent)."""
        return (self._storage_cols, self._storage_rows)

    def site(self, zone: Zone, col: int, row: int) -> Site:
        """Look up a site by zone-local indices."""
        try:
            return self._index[(zone, col, row)]
        except KeyError as exc:
            raise KeyError(f"no site {zone.value}({col},{row})") from exc

    def sites_in(self, zone: Zone) -> tuple[Site, ...]:
        """All sites of one zone."""
        if zone is Zone.COMPUTE:
            return self.compute_sites
        return self.storage_sites

    def contains(self, site: Site) -> bool:
        """True when ``site`` belongs to this machine."""
        return self._index.get((site.zone, site.col, site.row)) == site

    # ------------------------------------------------------------------
    # Extents (for the Table 2 reproduction)
    # ------------------------------------------------------------------

    def zone_extent_um(self, zone: Zone) -> tuple[float, float]:
        """(width, height) of a zone in micrometres, paper-style.

        The paper quotes zone sizes as ``pitch * cols x pitch * rows`` (e.g.
        a 6x6-site compute zone is "90 x 90"), so extents are reported as
        site count times pitch.
        """
        pitch_um = self._params.site_pitch / UM
        if zone is Zone.COMPUTE:
            return (self._compute_cols * pitch_um, self._compute_rows * pitch_um)
        return (self._storage_cols * pitch_um, self._storage_rows * pitch_um)

    def inter_zone_extent_um(self) -> tuple[float, float]:
        """(width, height) of the inter-zone gap in micrometres."""
        pitch_um = self._params.site_pitch / UM
        return (self._compute_cols * pitch_um, self._params.zone_gap / UM)

    def __repr__(self) -> str:
        return (
            f"ZonedArchitecture(compute={self._compute_cols}x{self._compute_rows}, "
            f"storage={self._storage_cols}x{self._storage_rows}, "
            f"aods={self._num_aods})"
        )


__all__ = ["Site", "Zone", "ZonedArchitecture"]
