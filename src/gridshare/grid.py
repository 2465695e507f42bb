"""Carrier configuration and the labeled time-frequency grid.

The grid is a (slot, symbol, subcarrier) lattice where every resource
element carries exactly one label, one byte. A `Lattice` is its slots:
each slot's labels are one row, an immutable `bytes` of 14 x n_sc labels in
symbol-major order, and equal slots share one row object. An LTE carrier
repeats a few subframe structures, so a 1000-subframe grid holds four
rows. Every read and write works on byte strings, with the standard library
only: a block of a slot is one slice of its row per symbol, or one in all
(`Window`), a free check compares a slice with zero bytes, a merge ORs the
footprint into a slice's free cells as one int, and a row's per-label counts
are a function of the row (`label_counts`), taken once per distinct row.

A `ResourceGrid` is an immutable value: its lattice is read-only. A grid is
built in one writable lattice: take a fresh one from `new_labels`, place
each stage's footprints into it, and wrap it once in a `ResourceGrid`
(`cli.build_grid` folds its stages this way; `cli.build_map` folds the MRSS
map's into one copy of the grid's lattice, which shares its rows, as
`apply_lte` and `apply_nr` do). `place_slots` is the one write, the MRSS
map stages' (`mrss`) included: a slot takes its placements in call order,
and new rows are stored once every merge has returned, so a write is all
or nothing, no other slot or lattice sees it, and no placement relabels a
cell or touches an uplink/guard cell. A placement names its block of each
slot by two ranges (symbols, subcarriers), as a `Window` does; its
footprint is an int label, the block's bytes in the order a `Window` reads
them, or a function of the block that gives them, such as `free_cells`.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from enum import Enum, IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigError, ConflictError
from .value import Int, value

SYMBOLS_PER_SLOT = 14
SC_PER_PRB = 12
MAX_N_PRB = 275  # NR's widest carrier, TS 38.211 §4.4.2


class SlotKind(Enum):
    DOWNLINK = "D"
    SPECIAL = "S"
    UPLINK = "U"

    @classmethod
    def _missing_(cls, value):
        raise ConfigError(f"TDD cycle entry must be 'D', 'S' or 'U', got {value!r}")


class ReLabel(IntEnum):
    """Closed label alphabet for resource elements.

    GUARD_SYMBOL and UPLINK_SYMBOL close it: a label at or above
    GUARD_SYMBOL marks no downlink cell."""

    UNLABELED = 0
    LTE_PDCCH = 1
    LTE_CRS_P0 = 2
    LTE_CRS_P1 = 3
    LTE_CRS_P2 = 4
    LTE_CRS_P3 = 5
    LTE_PSS_SSS_PBCH = 6
    LTE_MBSFN_MUTED = 7
    NR_PDCCH_CORESET0 = 8
    NR_PDCCH_CORESET1 = 9
    NR_SSB = 10
    NR_SIB1 = 11
    NR_DMRS = 12
    NR_CSI_RS = 13
    NR_TRS = 14
    SIXG_SSB = 15
    SIXG_CONTROL = 16
    RESERVED_IOT = 17
    GUARD_SYMBOL = 18
    UPLINK_SYMBOL = 19

    @staticmethod
    def lte_crs(port: int) -> "ReLabel":
        if port not in (0, 1, 2, 3):
            raise ConfigError(f"CRS port index must be 0..3, got {port}")
        return ReLabel(ReLabel.LTE_CRS_P0 + port)


@value
class TddPattern:
    """Ordered slot-kind cycle plus the DL/guard/UL split of special slots."""

    cycle: Tuple[SlotKind, ...]
    special_split: Tuple[int, int, int] = (6, 4, 4)

    def __post_init__(self):
        object.__setattr__(self, "cycle", tuple(map(SlotKind, self.cycle)))
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


@value(scs_khz=Int(choices=(15, 30)), n_prb=Int(1, MAX_N_PRB))
class CarrierConfig:
    """Carrier-level parameters fixing the grid dimensions (normal cyclic prefix)."""

    scs_khz: int
    n_prb: int
    duplex: str = "FDD"
    span_ms: int = 1
    tdd_pattern: Optional[TddPattern] = None

    def __post_init__(self):
        if self.duplex not in ("FDD", "TDD"):
            raise ConfigError(f"duplex must be FDD or TDD, got {self.duplex!r}")
        if self.duplex == "TDD" and self.tdd_pattern is None:
            raise ConfigError("TDD carrier requires a tdd_pattern")
        if self.duplex == "FDD" and self.tdd_pattern is not None:
            raise ConfigError("FDD carrier must not carry a tdd_pattern")
        slots = self.span_ms * self.slots_per_ms
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
    def slots_per_ms(self) -> int:
        return self.scs_khz // 15

    @property
    def n_slots(self) -> int:
        return int(self.span_ms * self.slots_per_ms)

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

    @functools.cached_property
    def _dl_symbols(self) -> Tuple[int, ...]:
        """`dl_symbols_in_slot` of each slot, taken once per cycle position."""
        period = len(self.tdd_pattern.cycle) if self.tdd_pattern else 1
        return tuple(map(self.dl_symbols_in_slot, range(period))) * (self.n_slots // period)

    @functools.cached_property
    def dl_bearing_slots(self) -> Tuple[int, ...]:
        """The slots with a downlink symbol, listed once per carrier."""
        return tuple(itertools.compress(range(self.n_slots), self._dl_symbols))


class Lattice:
    """A label lattice whose equal slots share one row.

    `slots[s]` is slot s's labels, a `bytes` of 14 x n_sc labels in
    symbol-major order, and equal slots hold one shared object. Two
    lattices are equal when every slot holds the same labels, however
    their rows are shared.

    Rows are immutable, so lattices and slots share them freely: a copy
    shares every row, and `place_slots`, the one write, stores each new row
    in the slots it names alone, so no other slot or lattice sees it. `freeze`
    merges equal rows into one object, so a frozen lattice holds each
    distinct slot content once; its slots become a tuple and it takes no
    further write.
    """

    __slots__ = ("slots",)

    def __init__(self, slots: Sequence[bytes]):
        self.slots = slots

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return tuple(self.slots) == tuple(other.slots)

    def __hash__(self):
        return hash(tuple(self.slots))

    @property
    def n_sc(self) -> int:
        return len(self.slots[0]) // SYMBOLS_PER_SLOT if self.slots else 0

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (len(self.slots), SYMBOLS_PER_SLOT, self.n_sc)

    def copy(self) -> "Lattice":
        """A writable lattice of the same slots that shares every row."""
        return Lattice(list(self.slots))

    def freeze(self) -> "Lattice":
        """Merge equal rows, then make the lattice read-only; returns it."""
        if not isinstance(self.slots, tuple):
            kept: Dict[bytes, bytes] = {}
            self.slots = tuple([kept.setdefault(row, row) for row in self.slots])
        return self


@value(no_repr=("lattice",))
class ResourceGrid:
    """Read-only label lattice indexed (slot, symbol, subcarrier).

    `lattice` is a `Lattice` of the carrier's shape, every row of it 14 x
    n_subcarriers labels, which the constructor freezes; anything else is a
    ConfigError.
    """

    config: CarrierConfig
    lattice: Lattice

    def __post_init__(self):
        if not isinstance(self.lattice, Lattice):
            raise ConfigError(f"a grid's labels are a Lattice, got {type(self.lattice).__name__}")
        expected = (self.config.n_slots, SYMBOLS_PER_SLOT, self.config.n_subcarriers)
        if self.lattice.shape != expected:
            raise ConfigError(f"label lattice shape {self.lattice.shape} != {expected}")
        slots, width = self.lattice.freeze().slots, SYMBOLS_PER_SLOT * self.config.n_subcarriers
        if any(len(row) != width for row in set(slots)):
            slot = next(s for s, row in enumerate(slots) if len(row) != width)
            raise ConfigError(f"slot {slot} holds {len(slots[slot])} labels, not {width}")

    @property
    def n_cells(self) -> int:
        return self.config.n_slots * SYMBOLS_PER_SLOT * self.config.n_subcarriers


def new_labels(config: CarrierConfig) -> Lattice:
    """A fresh writable label lattice, one row per slot kind of the carrier;
    TDD uplink/guard symbols are pre-labeled."""
    cycle = config.tdd_pattern.cycle if config.duplex == "TDD" else (SlotKind.DOWNLINK,)
    n_sc, rows = config.n_subcarriers, {}
    for position, kind in enumerate(cycle):
        dl = config._dl_symbols[position]
        guard = config.tdd_pattern.special_split[1] if kind is SlotKind.SPECIAL else 0
        rows[kind] = (bytes(dl * n_sc) + bytes((ReLabel.GUARD_SYMBOL,)) * (guard * n_sc)
                      + bytes((ReLabel.UPLINK_SYMBOL,)) * ((SYMBOLS_PER_SLOT - dl - guard) * n_sc))
    return Lattice([rows[kind] for kind in cycle] * (config.n_slots // len(cycle)))


def make_grid(config: CarrierConfig) -> ResourceGrid:
    """Fresh grid; TDD uplink/guard symbols are pre-labeled at construction."""
    return ResourceGrid(config, new_labels(config))


class Window:
    """A block of a slot, symbols x subcarriers, as slices of its row.

    The two ranges are step-1 and within the slot, else ConfigError; an
    empty range names no cell, wherever it is. `parts` pairs each slice of
    the row the block covers with the matching slice of the block's own
    symbol-major bytes: one per symbol, or one in all for a block that is
    contiguous in the row (all subcarriers, or one symbol).
    """

    __slots__ = ("symbols", "subcarriers", "parts")

    def __init__(self, n_sc: int, symbols: range, subcarriers: range):
        for axis, size, name in ((symbols, SYMBOLS_PER_SLOT, "symbols"),
                                 (subcarriers, n_sc, "subcarriers")):
            if (not isinstance(axis, range) or axis.step != 1
                    or (axis and not 0 <= axis.start < axis.stop <= size)):
                raise ConfigError(
                    f"placement {name} must be a step-1 range within the slot's {size}, got {axis!r}")
        self.symbols, self.subcarriers = symbols, subcarriers
        width, first, last = len(subcarriers), subcarriers.start, subcarriers.stop
        if width == n_sc or len(symbols) == 1:
            start = symbols.start * n_sc + first
            self.parts = [(slice(start, start + len(symbols) * width), slice(0, len(symbols) * width))]
        else:
            self.parts = [(slice(s * n_sc + first, s * n_sc + last),
                           slice(i * width, (i + 1) * width)) for i, s in enumerate(symbols)]

    def read(self, row) -> bytes:
        """The block's labels, symbol-major."""
        return b"".join([row[part] for part, _ in self.parts])

    def cell(self, i: int) -> Tuple[int, int]:
        """(symbol, subcarrier) of the block's i-th cell."""
        symbol, k = divmod(i, len(self.subcarriers))
        return self.symbols[symbol], self.subcarriers[k]


def _footprint(footprint, size: int) -> bytes:
    """A footprint, an int label or bytes of one label per cell of a block of
    `size` cells, as the block's bytes; any other footprint, or a label that
    marks no downlink cell (outside 0..RESERVED_IOT), is a ConfigError."""
    if isinstance(footprint, int):
        outside = b"" if 0 <= footprint < ReLabel.GUARD_SYMBOL else [footprint]
    elif isinstance(footprint, bytes) and len(footprint) == size:
        outside = footprint.translate(None, _DL_LABELS)
    else:
        got = f"{len(footprint)} bytes" if isinstance(footprint, bytes) else type(footprint).__name__
        raise ConfigError(
            f"a footprint is an int label or {size} bytes, one per cell of the block, got {got}")
    if outside:
        raise ConfigError(f"footprint label {int(outside[0])} is no downlink label 0..{ReLabel.RESERVED_IOT:d}")
    return bytes((footprint,)) * size if isinstance(footprint, int) else footprint


Placement = Tuple[Sequence[int], range, range, object]

# GUARD_SYMBOL and UPLINK_SYMBOL close the alphabet: a footprint writes only labels below it.
_DL_LABELS = bytes(range(ReLabel.GUARD_SYMBOL))
# Byte tables that turn each downlink label but UNLABELED (_TAKEN), or UNLABELED alone
# (_FREE), into 0xFF, and the rest into 0.
_TAKEN = bytes(0xFF if 0 < label < ReLabel.GUARD_SYMBOL else 0 for label in range(256))
_FREE = b"\xff" + bytes(255)


def place_slots(lattice: Lattice, placements: Sequence[Placement]) -> None:
    """Write footprints into the named slots of a writable label lattice.

    Every footprint is written here; a `Lattice` has no write of its own.
    Each placement is (slots, symbols, subcarriers, footprint): the two ranges
    name a block of each slot, and `footprint` is one int label for every
    cell of the block, bytes of exactly the block's cells in symbol-major
    order (as `Window` reads them), UNLABELED marking cells outside the
    footprint, or a function of (slot, the block's labels) giving those
    bytes. A range outside the slot, any other footprint and a label
    outside 0..RESERVED_IOT are a ConfigError; an empty range places
    nothing. Only UNLABELED cells are written; uplink and guard cells
    never are. A footprint needs all its downlink cells free, earlier
    placements' included: otherwise ConflictError names the first taken
    cell (by slot, placement, symbol, subcarrier); a rate-matched one is a
    function that marks free cells only.

    A slot takes its placements in call order, each merged into the row as
    the earlier ones left it, and a slot out of range is an IndexError.
    The named slots split into regions, each the slots that take the same
    placements (consecutive placements that name one slots object split
    them once), and a region's slots group by the row they hold. Each
    group's row is merged once, at the group's first slot, the groups in
    order of their first slot; rows are stored once every merge has
    returned. So the lowest slot's error (in it, the earliest placement's)
    is raised and nothing is written.
    """
    runs: List[Tuple[Sequence[int], tuple]] = []
    for slots, symbols, subcarriers, footprint in placements:
        window = Window(lattice.n_sc, symbols, subcarriers)
        if not callable(footprint):
            footprint = _footprint(footprint, len(symbols) * len(subcarriers))
        if runs and runs[-1][0] is slots:
            runs[-1] = (slots, runs[-1][1] + ((window, footprint),))
        else:
            runs.append((slots, ((window, footprint),)))
    # Regions: the slots that take the same placements, with their merges.
    regions: List[Tuple[set, tuple]] = []
    for slots, run in runs:
        new = set(slots)
        if new and not 0 <= min(new) <= max(new) < len(lattice.slots):
            bad = min(new) if min(new) < 0 else max(new)
            raise IndexError(f"slot {bad} out of range for {len(lattice.slots)} slots")
        split = []
        for named, merges in regions:
            both = named & new
            named -= both
            new -= both
            split += [(named, merges), (both, merges + run)]
        regions = [region for region in split + [(new, run)] if region[0]]
    jobs = []
    for named, merges in regions:
        groups: Dict[bytes, List[int]] = {}
        for s in sorted(named):
            groups.setdefault(lattice.slots[s], []).append(s)
        jobs.extend((group, merges, row) for row, group in groups.items())
    rows = []
    for group, merges, row in sorted(jobs, key=lambda job: job[0][0]):
        for window, footprint in merges:
            row = _merge(window, footprint, group[0], row)
        rows.append((group, row))
    for group, row in rows:
        for s in group:
            lattice.slots[s] = row


def free_cells(label: ReLabel):
    """A footprint function: `label` on the block's UNLABELED cells, no other."""
    return lambda slot, cells: cells.translate(bytes((label,)) + bytes(255))


def _merge(window: Window, footprint, slot: int, row: bytes) -> bytes:
    """The row with the footprint (first called on the block's labels, if
    it reads them) on the block's UNLABELED cells; ConflictError names the
    first taken downlink cell under it, by symbol, then subcarrier."""
    if callable(footprint):
        footprint = _footprint(footprint(slot, window.read(row)),
                               len(window.symbols) * len(window.subcarriers))
    row = bytearray(row)
    for part, fp in window.parts:
        old, new = row[part], footprint[fp]
        if old == bytes(len(old)):  # every cell UNLABELED
            row[part] = new
            continue
        # A cell is taken where both a downlink label and the footprint mark it.
        wanted = int.from_bytes(new, "big")
        taken = int.from_bytes(old.translate(_TAKEN), "big") & wanted
        if taken:
            first = len(old) - (taken.bit_length() + 7) // 8  # the most significant nonzero byte
            symbol, sc = window.cell(fp.start + first)
            raise ConflictError(
                f"conflict at cell {(slot, symbol, sc)}: existing "
                f"{ReLabel(old[first]).name}, new {ReLabel(new[first]).name}")
        free = int.from_bytes(old.translate(_FREE), "big")
        row[part] = (int.from_bytes(old, "big") | wanted & free).to_bytes(len(old), "big")
    return bytes(row)


# Rows whose counts `label_counts` keeps: more than a map and its stages hold.
COUNTED_ROWS = 64


@functools.lru_cache(maxsize=COUNTED_ROWS)
def label_counts(row: bytes) -> Tuple[int, ...]:
    """A row's cells of each label, indexed by label value: every count of
    a lattice reads it. A row is immutable, so its counts are kept with it,
    and a row that slots, lattices or map stages share is counted once. The
    label of the row's first cell is counted by deleting it, until no cell
    is left: one pass per label the row holds."""
    counts = [0] * len(ReLabel)
    while row:
        label = row[0]
        rest = row.translate(None, bytes((label,)))
        counts[label] = len(row) - len(rest)
        row = rest
    return tuple(counts)


def label_totals(lattice: Lattice) -> List[int]:
    """Cells of each label over a lattice, indexed by label value: each
    distinct row's `label_counts` times the number of slots that hold it."""
    totals = [0] * len(ReLabel)
    for row, slots in Counter(lattice.slots).items():
        for label, n in enumerate(label_counts(row)):
            totals[label] += n * slots
    return totals


def count_labels(grid: ResourceGrid) -> Dict[ReLabel, int]:
    """Exact per-label cell counts over the whole grid (`label_totals`).

    Only labels with non-zero counts appear; counts sum to the grid's cells.
    """
    return {ReLabel(v): c for v, c in enumerate(label_totals(grid.lattice)) if c}
