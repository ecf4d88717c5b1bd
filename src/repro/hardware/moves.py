"""Qubit movements and AOD-compatible collective moves.

A :class:`Move` is one qubit's site-to-site relocation.  A
:class:`CollMove` is a set of moves executed together by a single crossed
2D AOD array; the AOD can stretch and contract but its rows and columns
must move in tandem and may never cross (Sec. 2.1), which induces the
pairwise *conflict* relation of the paper's Fig. 5:

two moves conflict iff the relative order of their x coordinates (or of
their y coordinates) differs between start and end -- where "order"
includes ties, since two traps can only share a coordinate if they ride
the same AOD row/column, and a single row/column cannot split or merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import Site, Zone
from .params import HardwareParams

#: Coordinates closer than this are the same AOD row/column (metres).
_COORD_EPS = 1e-9


def _sign(delta: float) -> int:
    if delta > _COORD_EPS:
        return 1
    if delta < -_COORD_EPS:
        return -1
    return 0


@dataclass(frozen=True)
class Move:
    """A single-qubit movement between two sites.

    Attributes:
        qubit: The moved qubit.
        source: Site the qubit leaves.
        destination: Site the qubit arrives at.
    """

    qubit: int
    source: Site
    destination: Site

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError(f"move of qubit {self.qubit} goes nowhere")

    @property
    def distance(self) -> float:
        """Euclidean travel distance (metres)."""
        return math.hypot(
            self.destination.x - self.source.x,
            self.destination.y - self.source.y,
        )

    def duration(self, params: HardwareParams) -> float:
        """Movement time under the acceleration bound (seconds)."""
        return params.move_duration(self.distance)

    @property
    def into_storage(self) -> bool:
        """True for a compute -> storage move (a ZA "move-in")."""
        return (
            self.source.zone is Zone.COMPUTE
            and self.destination.zone is Zone.STORAGE
        )

    @property
    def out_of_storage(self) -> bool:
        """True for a storage -> compute move (a ZA "move-out")."""
        return (
            self.source.zone is Zone.STORAGE
            and self.destination.zone is Zone.COMPUTE
        )

    def __str__(self) -> str:
        return f"q{self.qubit}: {self.source} -> {self.destination}"


def moves_conflict(first: Move, second: Move) -> bool:
    """Fig. 5 conflict predicate: can these 1Q moves share one AOD?

    They cannot when the order of the two qubits along x (or along y)
    changes between start and end, including order-with-ties: equal
    coordinates must stay equal, strict order must stay strict.
    """
    if _sign(first.source.x - second.source.x) != _sign(
        first.destination.x - second.destination.x
    ):
        return True
    if _sign(first.source.y - second.source.y) != _sign(
        first.destination.y - second.destination.y
    ):
        return True
    return False


@dataclass
class CollMove:
    """A collective movement: conflict-free 1Q moves on one AOD array.

    Attributes:
        moves: Member moves; pairwise non-conflicting.
        aod_index: Which AOD array executes the move (assigned by the
            Coll-Move scheduler; 0 for single-AOD machines).
    """

    moves: list[Move] = field(default_factory=list)
    aod_index: int = 0

    @property
    def num_moves(self) -> int:
        """Number of member 1Q moves."""
        return len(self.moves)

    @property
    def qubits(self) -> tuple[int, ...]:
        """Moved qubits, ascending."""
        return tuple(sorted(m.qubit for m in self.moves))

    @property
    def max_distance(self) -> float:
        """Longest member travel distance; sets the movement time."""
        return max((m.distance for m in self.moves), default=0.0)

    def move_duration(self, params: HardwareParams) -> float:
        """Travel time of the collective move (seconds, transfers excluded)."""
        return params.move_duration(self.max_distance)

    @property
    def num_into_storage(self) -> int:
        """Member moves entering the storage zone (``n_in`` in Sec. 6.1)."""
        return sum(1 for m in self.moves if m.into_storage)

    @property
    def num_out_of_storage(self) -> int:
        """Member moves leaving the storage zone (``n_out`` in Sec. 6.1)."""
        return sum(1 for m in self.moves if m.out_of_storage)

    def accepts(self, move: Move) -> bool:
        """True when ``move`` conflicts with no member move."""
        return all(not moves_conflict(move, member) for member in self.moves)

    def validate(self) -> None:
        """Assert pairwise compatibility and distinct qubits."""
        qubits = [m.qubit for m in self.moves]
        assert len(set(qubits)) == len(qubits), "duplicate qubit in CollMove"
        for i, a in enumerate(self.moves):
            for b in self.moves[i + 1:]:
                assert not moves_conflict(a, b), f"conflict: {a} vs {b}"

    def __iter__(self):
        return iter(self.moves)

    def __len__(self) -> int:
        return len(self.moves)


def group_moves(
    moves: list[Move],
    distance_aware: bool = True,
) -> list[CollMove]:
    """Greedy grouping of 1Q moves into CollMoves (Sec. 5.3).

    With ``distance_aware=True`` (PowerMove's scheme) moves are first
    sorted by ascending travel distance, which clusters similar-length
    moves so the per-group max distance -- and hence movement time -- stays
    balanced.  With ``False`` the input order is kept (FIFO), which is the
    ablation baseline.

    Each move goes to the first existing group it does not conflict with,
    else it opens a new group.

    The scan runs on plain ``(sx, sy, dx, dy)`` float tuples rather than
    on :class:`Move` objects, with the Fig. 5 predicate of
    :func:`moves_conflict` written inline: for ``a`` and ``b`` the
    source and destination offsets along one axis,
    ``(a > eps) != (b > eps) or (a < -eps) != (b < -eps)`` is, for every
    float (NaN included), exactly ``_sign(a) != _sign(b)``.  Each group's
    first member is tested before the others, since it rejects most
    candidates; which members are tested, and in what order, cannot
    change a verdict that needs every member to pass.  The winner is
    still the lowest-index accepting group and members are appended in
    the same order, so the groups equal those of a first-fit scan over
    :meth:`CollMove.accepts`.

    There is no per-group sorted index and no numpy path: groups stay
    small (tens of members at 4096 qubits), so per-group bookkeeping
    costs more than the flat scan, and numpy would need a scalar
    fallback, i.e. a second grouping path.
    """
    ordered = list(moves)
    if distance_aware:
        ordered.sort(key=lambda m: (m.distance, m.qubit))
    eps = _COORD_EPS
    neg = -_COORD_EPS
    # One entry per open group, in group order: the first member's
    # coordinates, the other members' coordinate tuples, and the moves.
    groups: list[tuple] = []
    for move in ordered:
        source = move.source
        destination = move.destination
        sx = source.x
        sy = source.y
        dx = destination.x
        dy = destination.y
        for fsx, fsy, fdx, fdy, rest, members in groups:
            a = sx - fsx
            b = dx - fdx
            if (a > eps) != (b > eps) or (a < neg) != (b < neg):
                continue
            a = sy - fsy
            b = dy - fdy
            if (a > eps) != (b > eps) or (a < neg) != (b < neg):
                continue
            for bsx, bsy, bdx, bdy in rest:
                a = sx - bsx
                b = dx - bdx
                if (a > eps) != (b > eps) or (a < neg) != (b < neg):
                    break
                a = sy - bsy
                b = dy - bdy
                if (a > eps) != (b > eps) or (a < neg) != (b < neg):
                    break
            else:
                members.append(move)
                rest.append((sx, sy, dx, dy))
                break
        else:
            groups.append((sx, sy, dx, dy, [], [move]))
    return [CollMove(moves=members) for *_, members in groups]


__all__ = ["CollMove", "Move", "group_moves", "moves_conflict"]
