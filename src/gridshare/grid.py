"""Numerology, carrier configuration, and the labeled time-frequency grid.

The grid is a dense (slot, symbol, subcarrier) lattice where every resource
element carries exactly one label. All operations are pure: they validate,
copy, and return new grids, so grids behave as immutable values. Inside a
stage, every label write goes through `place`, on the stage's one writable
copy, so no write relabels a cell or touches an uplink/guard cell.
"""

from __future__ import annotations

from enum import Enum, IntEnum
from typing import Dict, Optional, Tuple

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


@value(no_repr=("labels",))
class ResourceGrid:
    """Dense label lattice indexed (slot, symbol, subcarrier)."""

    config: CarrierConfig
    labels: np.ndarray

    def __post_init__(self):
        expected = (self.config.n_slots, SYMBOLS_PER_SLOT, self.config.n_subcarriers)
        if self.labels.shape != expected:
            raise ConfigError(f"label lattice shape {self.labels.shape} != {expected}")
        self.labels.setflags(write=False)

    @property
    def n_cells(self) -> int:
        return int(self.labels.size)

    def writable_labels(self) -> np.ndarray:
        return self.labels.copy()


def make_grid(config: CarrierConfig) -> ResourceGrid:
    """Fresh grid; TDD uplink/guard symbols are pre-labeled at construction."""
    arr = np.zeros(
        (config.n_slots, SYMBOLS_PER_SLOT, config.n_subcarriers), dtype=np.uint8
    )
    if config.duplex == "TDD":
        dl, guard, _ul = config.tdd_pattern.special_split
        for slot in range(config.n_slots):
            kind = config.slot_kind(slot)
            if kind is SlotKind.UPLINK:
                arr[slot, :, :] = ReLabel.UPLINK_SYMBOL
            elif kind is SlotKind.SPECIAL:
                arr[slot, dl : dl + guard, :] = ReLabel.GUARD_SYMBOL
                arr[slot, dl + guard :, :] = ReLabel.UPLINK_SYMBOL
    return ResourceGrid(config, arr)


def _grid_cell(where: Tuple, local: Tuple[int, ...]) -> Tuple[int, ...]:
    """Grid index of a cell given as an index into the view arr[where]."""
    rest = iter(local)
    cell = [int(w) if not isinstance(w, slice) else (w.start or 0) + int(next(rest)) for w in where]
    return tuple(cell) + tuple(int(i) for i in rest)


def place(arr: np.ndarray, where: Tuple, footprint, rate_match: bool = False) -> None:
    """Write a footprint into the view arr[where] of a stage's writable copy.

    This is the one write path into a label array. ``where`` holds ints and
    slices; ``footprint`` holds one label per cell of the view, broadcast to
    it, with UNLABELED marking cells outside the footprint. Only UNLABELED
    cells are written; uplink and guard cells are never written. A strict
    footprint needs all its downlink cells free and otherwise raises
    ConflictError naming the first taken cell, before writing anything;
    with ``rate_match`` it fills the free cells and skips the rest. A view
    with no labeled cell is written verbatim, in one pass.
    """
    if not all(isinstance(w, (int, np.integer, slice)) for w in where):
        raise ConfigError("placement needs an index of ints and slices")
    # The trailing Ellipsis keeps a view even for a single cell (three ints).
    view = arr[(*where, ...)]
    footprint = np.broadcast_to(np.asarray(footprint, dtype=arr.dtype), view.shape)
    if not view.any():
        # An all-free view (UNLABELED is 0) takes the footprint verbatim: its
        # UNLABELED cells write 0 over 0, and there is no uplink/guard cell.
        np.copyto(view, footprint)
        return
    want = footprint != ReLabel.UNLABELED
    free = view == ReLabel.UNLABELED
    if not rate_match:
        # GUARD_SYMBOL and UPLINK_SYMBOL close the alphabet: one comparison
        # tells downlink cells apart.
        taken = want & ~free & (view < ReLabel.GUARD_SYMBOL)
        if taken.any():
            local = tuple(np.argwhere(taken)[0])
            raise ConflictError(
                f"conflict at cell {_grid_cell(where, local)}: existing "
                f"{ReLabel(int(view[local])).name}, new {ReLabel(int(footprint[local])).name}"
            )
    np.copyto(view, footprint, where=want & free)


def count_labels(
    grid: ResourceGrid,
    slot_range: Optional[Tuple[int, int]] = None,
    prb_range: Optional[Tuple[int, int]] = None,
) -> Dict[ReLabel, int]:
    """Exact per-label cell counts over a half-open (slot, PRB) sub-window.

    Only labels with non-zero counts appear; counts sum to the window size.
    """
    cfg = grid.config
    s0, s1 = slot_range if slot_range is not None else (0, cfg.n_slots)
    p0, p1 = prb_range if prb_range is not None else (0, cfg.n_prb)
    if not (0 <= s0 < s1 <= cfg.n_slots):
        raise ConfigError(f"empty or inverted slot range ({s0}, {s1})")
    if not (0 <= p0 < p1 <= cfg.n_prb):
        raise ConfigError(f"empty or inverted PRB range ({p0}, {p1})")
    window = grid.labels[s0:s1, :, p0 * SC_PER_PRB : p1 * SC_PER_PRB]
    values, counts = np.unique(window, return_counts=True)
    return {ReLabel(int(v)): int(c) for v, c in zip(values, counts)}

