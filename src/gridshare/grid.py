"""Numerology, carrier configuration, and the labeled time-frequency grid.

The grid is a (slot, symbol, subcarrier) lattice where every resource
element carries exactly one label. A `Lattice` stores each distinct slot
once: an LTE carrier repeats a few subframe structures, so a 1000-subframe
grid holds four 14 x n_sc rows and a slot -> row index. A dense array is
the lattice in which every slot has a row of its own.

A `ResourceGrid` is an immutable value: its lattice is read-only. A grid is
built in one writable lattice: take a fresh one from `new_labels`, place
each stage's footprints into it, and wrap it once in a `ResourceGrid`
(`cli.build_grid` places LTE and then NR this way). The public stages
`apply_lte` and `apply_nr` place into a copy of a finished grid's lattice,
which shares its rows until it writes them. Every label write goes through
`place_slots`, so no write relabels a cell or touches an uplink/guard cell,
and a write over slots that share a row with other slots copies it first.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ConflictError
from .value import value

SYMBOLS_PER_SLOT = 14
SC_PER_PRB = 12


class SlotKind(Enum):
    DOWNLINK = "D"
    SPECIAL = "S"
    UPLINK = "U"


class ReLabel(IntEnum):
    """Closed label alphabet for resource elements."""

    UNLABELED = 0
    LTE_PDCCH = 1
    LTE_CRS_P0 = 2
    LTE_CRS_P1 = 3
    LTE_CRS_P2 = 4
    LTE_CRS_P3 = 5
    LTE_PSS_SSS_PBCH = 6
    LTE_DATA = 7
    LTE_MBSFN_MUTED = 8
    NR_PDCCH_CORESET0 = 9
    NR_PDCCH_CORESET1 = 10
    NR_SSB = 11
    NR_SIB1 = 12
    NR_DMRS = 13
    NR_CSI_RS = 14
    NR_TRS = 15
    NR_DATA = 16
    SIXG_SSB = 17
    SIXG_CONTROL = 18
    SIXG_DATA = 19
    RESERVED_IOT = 20
    GUARD_SYMBOL = 21
    UPLINK_SYMBOL = 22

    @staticmethod
    def lte_crs(port: int) -> "ReLabel":
        if port not in (0, 1, 2, 3):
            raise ConfigError(f"CRS port index must be 0..3, got {port}")
        return ReLabel(ReLabel.LTE_CRS_P0 + port)


@value
class Numerology:
    """Subcarrier spacing and derived slot timing (normal cyclic prefix)."""

    scs_khz: int = 15

    def __post_init__(self):
        if self.scs_khz not in (15, 30):
            raise ConfigError(f"scs_khz must be 15 or 30, got {self.scs_khz}")

    @property
    def slots_per_ms(self) -> int:
        return self.scs_khz // 15


@value
class TddPattern:
    """Ordered slot-kind cycle plus the DL/guard/UL split of special slots."""

    cycle: Tuple[SlotKind, ...]
    special_split: Tuple[int, int, int] = (6, 4, 4)

    def __post_init__(self):
        if isinstance(self.cycle, str):
            object.__setattr__(self, "cycle", tuple(SlotKind(c) for c in self.cycle))
        else:
            object.__setattr__(self, "cycle", tuple(SlotKind(c) if isinstance(c, str) else c for c in self.cycle))
        object.__setattr__(self, "special_split", tuple(self.special_split))
        if not self.cycle:
            raise ConfigError("TDD cycle must be non-empty")
        if len(self.special_split) != 3 or any(x < 0 for x in self.special_split):
            raise ConfigError("special_split must be three non-negative counts")
        if sum(self.special_split) != SYMBOLS_PER_SLOT:
            raise ConfigError(
                f"special_split must sum to {SYMBOLS_PER_SLOT}, got {sum(self.special_split)}"
            )

    @property
    def cycle_str(self) -> str:
        return "".join(k.value for k in self.cycle)


@value
class CarrierConfig:
    """Carrier-level parameters fixing the grid dimensions."""

    numerology: Numerology
    n_prb: int
    duplex: str = "FDD"
    span_ms: int = 1
    tdd_pattern: Optional[TddPattern] = None

    def __post_init__(self):
        if self.n_prb < 1:
            raise ConfigError(f"n_prb must be >= 1, got {self.n_prb}")
        if self.duplex not in ("FDD", "TDD"):
            raise ConfigError(f"duplex must be FDD or TDD, got {self.duplex!r}")
        if self.duplex == "TDD" and self.tdd_pattern is None:
            raise ConfigError("TDD carrier requires a tdd_pattern")
        if self.duplex == "FDD" and self.tdd_pattern is not None:
            raise ConfigError("FDD carrier must not carry a tdd_pattern")
        slots = self.span_ms * self.numerology.slots_per_ms
        if slots != int(slots) or slots < 1:
            raise ConfigError(
                f"span_ms x slots_per_ms must be a positive integer slot count, got {slots}"
            )
        if self.duplex == "TDD" and int(slots) % len(self.tdd_pattern.cycle) != 0:
            raise ConfigError(
                f"TDD span of {int(slots)} slots is not a whole number of "
                f"{len(self.tdd_pattern.cycle)}-slot cycles"
            )

    @property
    def n_slots(self) -> int:
        return int(self.span_ms * self.numerology.slots_per_ms)

    @property
    def n_subcarriers(self) -> int:
        return SC_PER_PRB * self.n_prb

    def slot_kind(self, slot: int) -> SlotKind:
        if self.duplex == "FDD":
            return SlotKind.DOWNLINK
        return self.tdd_pattern.cycle[slot % len(self.tdd_pattern.cycle)]

    def dl_symbols_in_slot(self, slot: int) -> int:
        """Count of downlink-capable symbols in a slot (leading symbols)."""
        kind = self.slot_kind(slot)
        if kind is SlotKind.DOWNLINK:
            return SYMBOLS_PER_SLOT
        if kind is SlotKind.SPECIAL:
            return self.tdd_pattern.special_split[0]
        return 0

    def dl_bearing_slots(self) -> Tuple[int, ...]:
        return tuple(s for s in range(self.n_slots) if self.dl_symbols_in_slot(s) > 0)


class Lattice:
    """A label lattice that stores each distinct slot once.

    `rows` holds the distinct slot contents, each a 14 x n_sc uint8 array,
    and `slot_rows[s]` is the row of slot s. `Lattice.of` takes a dense
    (n_slots, 14, n_sc) array as the lattice whose slots are its rows (views,
    so writing the lattice writes the array).

    A write names its slots and first takes rows of their own for them
    (`own`); a row that also serves another slot, or that is read-only, is
    copied then (copy-on-write). Rows turn read-only when the lattice is
    frozen or copied, so lattices share rows and each copies what it
    writes. `freeze` merges equal rows, so a frozen lattice holds each
    distinct slot content once; its rows become a tuple and it takes no
    further write.
    """

    __slots__ = ("rows", "slot_rows", "hashes", "_dense")

    def __init__(self, rows: List[np.ndarray], slot_rows: np.ndarray,
                 hashes: Optional[List[Optional[int]]] = None):
        self.rows = rows
        self.slot_rows = slot_rows
        # Per row, its content's hash once a freeze took it; None until then.
        self.hashes = [None] * len(rows) if hashes is None else hashes
        self._dense: Optional[np.ndarray] = None

    @classmethod
    def of(cls, labels) -> "Lattice":
        """`labels` if it is a lattice, else the lattice of a dense array's slots."""
        if isinstance(labels, Lattice):
            return labels
        lattice = cls(list(labels), np.arange(len(labels), dtype=np.intp))
        lattice._dense = labels
        return lattice

    @property
    def shape(self) -> Tuple[int, ...]:
        return (len(self.slot_rows), *self.rows[0].shape)

    def row(self, slot: int) -> np.ndarray:
        """The row holding the slot's labels, for reading."""
        return self.rows[self.slot_rows[slot]]

    def slot_set(self, slots: Sequence[int]) -> np.ndarray:
        """The named slots, sorted and distinct; IndexError for one out of range."""
        named = np.zeros(len(self.slot_rows), dtype=bool)
        named[np.asarray(slots, dtype=np.intp)] = True
        return np.flatnonzero(named)

    def first_slots(self, slots: np.ndarray) -> List[Tuple[int, int]]:
        """(first slot, row) for each row the slots hold, by first slot."""
        first = np.full(len(self.rows), len(self.slot_rows), dtype=np.intp)
        np.minimum.at(first, self.slot_rows[slots], slots)
        rows = np.flatnonzero(first < len(self.slot_rows))
        return sorted(zip(first[rows].tolist(), rows.tolist()))

    def multiplicity(self, slots=slice(None)) -> np.ndarray:
        """Per row, how many of the slots (all, or a slice) it serves."""
        return np.bincount(self.slot_rows[slots], minlength=len(self.rows))

    def map(self, table: np.ndarray) -> "Lattice":
        """A new lattice of the same slots: `table` (uint8, one entry per
        label) gathered from each row, as one byte translation per row, with
        no index copy. Its rows are read-only until written."""
        lookup = table.tobytes().ljust(256, b"\0")
        rows = [np.frombuffer(row.tobytes().translate(lookup), dtype=np.uint8).reshape(row.shape)
                for row in self.rows]
        return Lattice(rows, self.slot_rows.copy())

    def copy(self) -> "Lattice":
        """A writable lattice of the same slots that shares every row until it writes it."""
        for row in self.rows:
            row.setflags(write=False)
        return Lattice(list(self.rows), self.slot_rows.copy(), list(self.hashes))

    def own(self, slots: Sequence[int]) -> List[int]:
        """Rows that only the named slots hold, one per distinct row they held,
        for a write to fill in place. A held row that also serves a slot
        outside `slots` is copied for them; a read-only one is replaced by
        its copy. No row is left without a slot."""
        slots = self.slot_set(slots)
        held = self.slot_rows[slots]
        mine = np.bincount(held, minlength=len(self.rows))
        total = self.multiplicity()
        out = []
        for r in np.flatnonzero(mine).tolist():
            if mine[r] < total[r]:
                self.slot_rows[slots[held == r]] = len(self.rows)
                self.rows.append(self.rows[r].copy())
                self.hashes.append(None)
                r = len(self.rows) - 1
            elif not self.rows[r].flags.writeable:
                self.rows[r] = self.rows[r].copy()
                self.hashes[r] = None
            out.append(r)
        self._dense = None
        return out

    def freeze(self) -> "Lattice":
        """Merge equal rows, then make the lattice read-only; returns it. Only
        rows written since a freeze are hashed; shared rows keep their hash."""
        if isinstance(self.rows, tuple):
            return self
        kept: List[np.ndarray] = []
        hashes: List[int] = []
        by_hash: Dict[int, List[int]] = {}
        merged = np.empty(len(self.rows), dtype=np.intp)
        for i, (row, h) in enumerate(zip(self.rows, self.hashes)):
            if h is None:
                h = hash(row.tobytes())
            same = by_hash.setdefault(h, [])
            merged[i] = next((k for k in same if np.array_equal(kept[k], row)), len(kept))
            if merged[i] == len(kept):
                same.append(len(kept))
                kept.append(row)
                hashes.append(h)
        if len(kept) < len(self.rows):
            self.slot_rows = merged[self.slot_rows]
        self.rows, self.hashes = tuple(kept), tuple(hashes)
        for row in kept:
            row.setflags(write=False)
        self.slot_rows.setflags(write=False)
        if self._dense is not None:
            self._dense.setflags(write=False)
        return self

    def gather(self) -> np.ndarray:
        """The dense (n_slots, 14, n_sc) lattice; a frozen one keeps it, read-only."""
        if self._dense is not None:
            return self._dense
        dense = np.stack(self.rows)[self.slot_rows]
        if isinstance(self.rows, tuple):
            dense.setflags(write=False)
            self._dense = dense
        return dense


@value(no_repr=("labels",))
class ResourceGrid:
    """Read-only label lattice indexed (slot, symbol, subcarrier).

    Built from a `Lattice` or a dense array and stored as a frozen
    `lattice`; reading `labels` gathers the dense array once.
    """

    config: CarrierConfig
    labels: np.ndarray

    def __post_init__(self):
        expected = (self.config.n_slots, SYMBOLS_PER_SLOT, self.config.n_subcarriers)
        labels = self.__dict__["labels"]
        if labels.shape != expected:
            raise ConfigError(f"label lattice shape {labels.shape} != {expected}")
        self.__dict__["labels"] = Lattice.of(labels).freeze()

    @property
    def lattice(self) -> Lattice:
        return self.__dict__["labels"]

    @property
    def labels(self) -> np.ndarray:
        return self.lattice.gather()

    @property
    def n_cells(self) -> int:
        return self.config.n_slots * SYMBOLS_PER_SLOT * self.config.n_subcarriers


def new_labels(config: CarrierConfig) -> Lattice:
    """A fresh writable label lattice, one row per slot kind of the carrier;
    TDD uplink/guard symbols are pre-labeled."""
    cycle = config.tdd_pattern.cycle if config.duplex == "TDD" else (SlotKind.DOWNLINK,)
    kinds = list(dict.fromkeys(cycle))
    rows = []
    for kind in kinds:
        row = np.zeros((SYMBOLS_PER_SLOT, config.n_subcarriers), dtype=np.uint8)
        if kind is SlotKind.UPLINK:
            row[:] = ReLabel.UPLINK_SYMBOL
        elif kind is SlotKind.SPECIAL:
            dl, guard, _ul = config.tdd_pattern.special_split
            row[dl : dl + guard] = ReLabel.GUARD_SYMBOL
            row[dl + guard :] = ReLabel.UPLINK_SYMBOL
        rows.append(row)
    index = np.array([kinds.index(kind) for kind in cycle], dtype=np.intp)
    return Lattice(rows, np.tile(index, config.n_slots // len(cycle)))


def make_grid(config: CarrierConfig) -> ResourceGrid:
    """Fresh grid; TDD uplink/guard symbols are pre-labeled at construction."""
    return ResourceGrid(config, new_labels(config))


def _grid_cell(where: Tuple, local: Tuple[int, ...]) -> Tuple[int, ...]:
    """Grid index of a cell given as an index into the view arr[where]."""
    rest = iter(local)
    cell = [int(w) if not isinstance(w, slice) else (w.start or 0) + int(next(rest)) for w in where]
    return tuple(cell) + tuple(int(i) for i in rest)


def _check_index(where: Tuple) -> None:
    if not all(isinstance(w, (int, np.integer, slice)) for w in where):
        raise ConfigError("placement needs an index of ints and slices")


Placement = Tuple[Sequence[int], Tuple, object]


def place_slots(labels, placements: Sequence[Placement], rate_match: bool = False) -> None:
    """Write footprints into the named slots of a writable label lattice.

    This is the one write path into a label lattice (a `Lattice`, or a
    dense array written in place). Each placement is (slots, where,
    footprint): `where` indexes into a slot (symbol, subcarrier) with ints
    and slices, and `footprint` holds one label per cell of that view,
    broadcast to it, with UNLABELED marking cells outside the footprint.
    Placements name disjoint slots. Only UNLABELED cells are written;
    uplink and guard cells never are. Strict placements need all their
    downlink cells free: otherwise ConflictError names the first taken cell
    (by slot, then symbol, then subcarrier) before anything is written.
    With ``rate_match`` the free cells are filled and the rest skipped.
    Each distinct row the slots hold is checked and written once, in a row
    only those slots hold (`Lattice.own`); a view with no labeled cell
    takes the footprint verbatim, in one pass.
    """
    lattice = Lattice.of(labels)
    dtype = lattice.rows[0].dtype
    jobs = []
    for slots, where, footprint in placements:
        where = tuple(where)
        _check_index(where)
        shape = lattice.rows[0][(*where, ...)].shape
        if not (isinstance(footprint, np.ndarray) and footprint.shape == shape
                and footprint.dtype == dtype):
            # A per-subframe template already has the view's shape and dtype.
            footprint = np.broadcast_to(np.asarray(footprint, dtype=dtype), shape)
        jobs.append((lattice.slot_set(slots), where, footprint))
    if not rate_match:
        _check_free(lattice, jobs)
    for slots, where, footprint in jobs:
        for r in lattice.own(slots):
            # The trailing Ellipsis keeps a view even for a single cell.
            view = lattice.rows[r][(*where, ...)]
            if not view.any():
                # An all-free view (UNLABELED is 0) takes the footprint verbatim:
                # its UNLABELED cells write 0 over 0, and there is no uplink/guard cell.
                np.copyto(view, footprint)
            else:
                free = view == ReLabel.UNLABELED
                np.copyto(view, footprint, where=(footprint != ReLabel.UNLABELED) & free)


def _check_free(lattice: Lattice, jobs: List[tuple]) -> None:
    """Raise ConflictError at the first taken downlink cell under the footprints."""
    first = None
    for slots, where, footprint in jobs:
        for slot, r in lattice.first_slots(slots):
            view = lattice.rows[r][(*where, ...)]
            if (first is not None and slot > first[0]) or not view.any():
                continue
            # GUARD_SYMBOL and UPLINK_SYMBOL close the alphabet: one comparison
            # tells downlink cells apart.
            taken = (footprint != ReLabel.UNLABELED) & (view != ReLabel.UNLABELED) & (
                view < ReLabel.GUARD_SYMBOL)
            if taken.any():
                local = tuple(np.argwhere(taken)[0])
                first = (slot, where, local, int(view[local]), int(footprint[local]))
    if first is not None:
        slot, where, local, old, new = first
        raise ConflictError(
            f"conflict at cell {_grid_cell((slot, *where), local)}: existing "
            f"{ReLabel(old).name}, new {ReLabel(new).name}"
        )


def place(labels, where: Tuple, footprint, rate_match: bool = False) -> None:
    """Write a footprint into the view labels[where] of a writable lattice.

    `place_slots` with the slots named by where[0], an int or a slice (all
    slots when `where` is empty). A footprint with an axis per slot of the
    view places each slot its own part.
    """
    _check_index(where)
    lattice = Lattice.of(labels)
    slots = range(len(lattice.slot_rows))[where[0] if where else slice(None)]
    inner = tuple(where[1:])
    if isinstance(slots, int):
        placements = [((slots,), inner, footprint)]
    else:
        shape = lattice.rows[0][(*inner, ...)].shape
        if np.ndim(footprint) > len(shape):
            parts = np.broadcast_to(footprint, (len(slots), *shape))
            placements = [((s,), inner, part) for s, part in zip(slots, parts)]
        else:
            placements = [(slots, inner, footprint)]
    place_slots(lattice, placements, rate_match)


def count_labels(
    grid: ResourceGrid,
    slot_range: Optional[Tuple[int, int]] = None,
    prb_range: Optional[Tuple[int, int]] = None,
) -> Dict[ReLabel, int]:
    """Exact per-label cell counts over a half-open (slot, PRB) sub-window.

    Only labels with non-zero counts appear; counts sum to the window size.
    Each distinct row is counted once (`np.bincount`, no sort) and weighted
    by the number of window slots it serves.
    """
    cfg = grid.config
    s0, s1 = slot_range if slot_range is not None else (0, cfg.n_slots)
    p0, p1 = prb_range if prb_range is not None else (0, cfg.n_prb)
    if not (0 <= s0 < s1 <= cfg.n_slots):
        raise ConfigError(f"empty or inverted slot range ({s0}, {s1})")
    if not (0 <= p0 < p1 <= cfg.n_prb):
        raise ConfigError(f"empty or inverted PRB range ({p0}, {p1})")
    lattice = grid.lattice
    weight = lattice.multiplicity(slice(s0, s1))
    counts = np.zeros(len(ReLabel), dtype=np.int64)
    for r in np.flatnonzero(weight).tolist():
        window = lattice.rows[r][:, p0 * SC_PER_PRB : p1 * SC_PER_PRB]
        counts += weight[r] * np.bincount(window.reshape(-1), minlength=len(ReLabel))
    return {ReLabel(v): int(c) for v, c in enumerate(counts.tolist()) if c}
