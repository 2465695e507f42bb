"""Carrier configuration and the labeled time-frequency grid.

The grid is a (slot, symbol, subcarrier) lattice where every resource
element carries exactly one label, one byte. A `Lattice` stores each
distinct slot once, as a row of 14 x n_sc labels in symbol-major order: an
LTE carrier repeats a few subframe structures, so a 1000-subframe grid holds
four rows and a slot -> row index. Every read and write works on byte
strings, with the standard library only: a block of a slot is one slice of
its row per symbol (`Window`), a free check compares a slice with zero
bytes, and a count is `bytes.count`.

A `ResourceGrid` is an immutable value: its lattice is read-only. A grid is
built in one writable lattice: take a fresh one from `new_labels`, place
each stage's footprints into it, and wrap it once in a `ResourceGrid`
(`cli.build_grid` places LTE and then NR this way). The public stages
`apply_lte` and `apply_nr` place into a copy of a finished grid's lattice,
which shares its rows until it writes them. Every write into a grid's
lattice goes through `place_slots`, so no write relabels a cell or touches
an uplink/guard cell, and a write over slots that share a row with other
slots copies it first. A placement names its block of each slot by two
ranges (symbols, subcarriers), as a `Window` does, and its footprint is an
int label or the block's bytes in the order a `Window` reads them. An MRSS
map (`mrss`) is a label lattice of the same kind; its stages also relabel
shared-pool cells of their copy of it, the one other write.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum, IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ConfigError, ConflictError
from .value import value

SYMBOLS_PER_SLOT = 14
SC_PER_PRB = 12


class SlotKind(Enum):
    DOWNLINK = "D"
    SPECIAL = "S"
    UPLINK = "U"


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
    """Carrier-level parameters fixing the grid dimensions (normal cyclic prefix)."""

    scs_khz: int
    n_prb: int
    duplex: str = "FDD"
    span_ms: int = 1
    tdd_pattern: Optional[TddPattern] = None

    def __post_init__(self):
        if self.scs_khz not in (15, 30):
            raise ConfigError(f"scs_khz must be 15 or 30, got {self.scs_khz}")
        if self.n_prb < 1:
            raise ConfigError(f"n_prb must be >= 1, got {self.n_prb}")
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

    def dl_bearing_slots(self) -> Tuple[int, ...]:
        return tuple(s for s in range(self.n_slots) if self.dl_symbols_in_slot(s) > 0)


class Lattice:
    """A label lattice that stores each distinct slot once.

    `rows` holds the distinct slot contents, each 14 x n_sc labels in
    symbol-major order, and `slot_rows[s]` is the row of slot s. A row is a
    `bytearray` while this lattice alone may write it and `bytes` once it is
    read-only. Two lattices are equal when every slot holds the same labels,
    however their rows are shared.

    A write names its slots and first takes rows of their own for them
    (`own`); a row that also serves another slot, or that is read-only, is
    copied then (copy-on-write). Rows turn read-only when the lattice is
    frozen or copied, so lattices share rows and each copies what it
    writes. `freeze` merges equal rows, so a frozen lattice holds each
    distinct slot content once; its rows and index become tuples and it
    takes no further write.
    """

    __slots__ = ("rows", "slot_rows")

    def __init__(self, rows: List[bytearray], slot_rows: List[int]):
        self.rows = rows
        self.slot_rows = slot_rows

    def _slots(self) -> tuple:
        return tuple(map(self.rows.__getitem__, self.slot_rows))

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self._slots() == other._slots()

    def __hash__(self):
        return hash(self._slots())

    @property
    def n_sc(self) -> int:
        return len(self.rows[0]) // SYMBOLS_PER_SLOT

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (len(self.slot_rows), SYMBOLS_PER_SLOT, self.n_sc)

    def row(self, slot: int) -> bytes:
        """The row holding the slot's labels, for reading."""
        return self.rows[self.slot_rows[slot]]

    def slot_set(self, slots: Sequence[int]) -> List[int]:
        """The named slots, sorted and distinct; IndexError for one out of range."""
        named = sorted(set(slots))
        if named and not 0 <= named[0] <= named[-1] < len(self.slot_rows):
            bad = named[0] if named[0] < 0 else named[-1]
            raise IndexError(f"slot {bad} out of range for {len(self.slot_rows)} slots")
        return named

    def first_slots(self, slots: Sequence[int]) -> List[Tuple[int, int]]:
        """(first slot, row) for each row the sorted slots hold, by first slot."""
        backwards = slots[::-1]  # a later (smaller) slot overwrites a larger one
        first = dict(zip(map(self.slot_rows.__getitem__, backwards), backwards))
        return sorted((s, r) for r, s in first.items())

    def multiplicity(self) -> List[int]:
        """Per row, how many slots it serves."""
        counts = Counter(self.slot_rows)
        return [counts[r] for r in range(len(self.rows))]

    def copy(self) -> "Lattice":
        """A writable lattice of the same slots that shares every row until it writes it."""
        if not isinstance(self.rows, tuple):
            self.rows[:] = [bytes(row) for row in self.rows]
        return Lattice(list(self.rows), list(self.slot_rows))

    def own(self, slots: Sequence[int]) -> List[int]:
        """Rows that only the named slots hold, one per distinct row they held,
        for a write to fill in place. A held row that also serves a slot
        outside `slots` is copied for them; a read-only one is replaced by
        its copy. No row is left without a slot."""
        named = self.slot_set(slots)
        held = list(map(self.slot_rows.__getitem__, named))
        mine, total = Counter(held), self.multiplicity()
        out = []
        for r in sorted(mine):
            if mine[r] < total[r]:
                new = len(self.rows)
                for s, q in zip(named, held):
                    if q == r:
                        self.slot_rows[s] = new
                self.rows.append(bytearray(self.rows[r]))
                r = new
            elif isinstance(self.rows[r], bytes):
                self.rows[r] = bytearray(self.rows[r])
            out.append(r)
        return out

    def freeze(self) -> "Lattice":
        """Merge equal rows, then make the lattice read-only; returns it. A row
        that is already `bytes` keeps its cached hash."""
        if isinstance(self.rows, tuple):
            return self
        kept: Dict[bytes, int] = {}
        merged = [kept.setdefault(bytes(row), len(kept)) for row in self.rows]
        if len(kept) < len(self.rows):
            self.slot_rows = [merged[r] for r in self.slot_rows]
        self.rows, self.slot_rows = tuple(kept), tuple(self.slot_rows)
        return self


@value(no_repr=("lattice",))
class ResourceGrid:
    """Read-only label lattice indexed (slot, symbol, subcarrier).

    `lattice` is a `Lattice` of the carrier's shape, which the constructor
    freezes; anything else is a ConfigError.
    """

    config: CarrierConfig
    lattice: Lattice

    def __post_init__(self):
        if not isinstance(self.lattice, Lattice):
            raise ConfigError(f"a grid's labels are a Lattice, got {type(self.lattice).__name__}")
        expected = (self.config.n_slots, SYMBOLS_PER_SLOT, self.config.n_subcarriers)
        if self.lattice.shape != expected:
            raise ConfigError(f"label lattice shape {self.lattice.shape} != {expected}")
        self.lattice.freeze()

    @property
    def n_cells(self) -> int:
        return self.config.n_slots * SYMBOLS_PER_SLOT * self.config.n_subcarriers


def new_labels(config: CarrierConfig) -> Lattice:
    """A fresh writable label lattice, one row per slot kind of the carrier;
    TDD uplink/guard symbols are pre-labeled."""
    cycle = config.tdd_pattern.cycle if config.duplex == "TDD" else (SlotKind.DOWNLINK,)
    kinds = list(dict.fromkeys(cycle))
    n_sc = config.n_subcarriers
    rows = []
    for kind in kinds:
        if kind is SlotKind.UPLINK:
            dl, guard = 0, 0
        elif kind is SlotKind.SPECIAL:
            dl, guard, _ul = config.tdd_pattern.special_split
        else:
            dl, guard = SYMBOLS_PER_SLOT, 0
        rows.append(bytearray(dl * n_sc)
                    + bytes((ReLabel.GUARD_SYMBOL,)) * (guard * n_sc)
                    + bytes((ReLabel.UPLINK_SYMBOL,)) * ((SYMBOLS_PER_SLOT - dl - guard) * n_sc))
    index = [kinds.index(kind) for kind in cycle]
    return Lattice(rows, index * (config.n_slots // len(cycle)))


def make_grid(config: CarrierConfig) -> ResourceGrid:
    """Fresh grid; TDD uplink/guard symbols are pre-labeled at construction."""
    return ResourceGrid(config, new_labels(config))


class Window:
    """A block of a slot, symbols x subcarriers (two step-1 ranges), as slices of its row.

    `parts` pairs each symbol's slice of the row with the matching slice of
    the block's own symbol-major bytes; `whole` is the one row slice of a
    block that is contiguous in the row (all subcarriers, or one symbol),
    else None.
    """

    __slots__ = ("symbols", "subcarriers", "parts", "whole")

    def __init__(self, n_sc: int, symbols: range, subcarriers: range):
        self.symbols, self.subcarriers = symbols, subcarriers
        width, first, last = len(subcarriers), subcarriers.start, subcarriers.stop
        self.parts = [(slice(s * n_sc + first, s * n_sc + last),
                       slice(i * width, (i + 1) * width)) for i, s in enumerate(symbols)]
        self.whole = None
        if width == n_sc or len(symbols) == 1:
            start = symbols.start * n_sc + first
            self.whole = slice(start, start + len(symbols) * width)

    def read(self, row) -> bytes:
        """The block's labels, symbol-major."""
        if self.whole is not None:
            return bytes(row[self.whole])
        return b"".join([row[part] for part, _ in self.parts])

    def cell(self, i: int) -> Tuple[int, int]:
        """(symbol, subcarrier) of the block's i-th cell."""
        symbol, k = divmod(i, len(self.subcarriers))
        return self.symbols[symbol], self.subcarriers[k]


def _window(symbols, subcarriers, n_sc: int) -> Window:
    """The block of a slot that two ranges name; anything but step-1 ranges
    within the slot is a ConfigError. An empty range names no cell, wherever it is."""
    for axis, size, name in ((symbols, SYMBOLS_PER_SLOT, "symbols"),
                             (subcarriers, n_sc, "subcarriers")):
        if (not isinstance(axis, range) or axis.step != 1
                or (axis and not 0 <= axis.start < axis.stop <= size)):
            raise ConfigError(
                f"placement {name} must be a step-1 range within the slot's {size}, got {axis!r}")
    return Window(n_sc, symbols, subcarriers)


def _footprint(footprint, size: int) -> bytes:
    """A footprint, an int label or bytes of one label per cell of a block of
    `size` cells, as the block's bytes; any other footprint is a ConfigError."""
    if isinstance(footprint, int):
        return bytes((footprint,)) * size
    if not isinstance(footprint, bytes) or len(footprint) != size:
        got = f"{len(footprint)} bytes" if isinstance(footprint, bytes) else type(footprint).__name__
        raise ConfigError(
            f"a footprint is an int label or {size} bytes, one per cell of the block, got {got}")
    return footprint


Placement = Tuple[Sequence[int], range, range, object]

# GUARD_SYMBOL and UPLINK_SYMBOL close the alphabet: cells at or above it are no downlink cells.
_NON_DL = bytes((ReLabel.GUARD_SYMBOL, ReLabel.UPLINK_SYMBOL))


def place_slots(lattice: Lattice, placements: Sequence[Placement], rate_match: bool = False) -> None:
    """Write footprints into the named slots of a writable label lattice.

    This is the one write path into a label lattice. Each placement is
    (slots, symbols, subcarriers, footprint): the two ranges name a block
    of each slot, and `footprint` is either one int label for every cell
    of the block or bytes of exactly the block's cells in symbol-major
    order (as `Window` reads them), with UNLABELED marking cells outside
    the footprint. A range outside the slot and any other footprint are a
    ConfigError; an empty range places nothing.
    Placements name disjoint slots: a slot that two of them name is a
    ConfigError, raised before anything is written.
    Only UNLABELED cells are written; uplink and guard cells never are.
    Strict placements need all their downlink cells free: otherwise
    ConflictError names the first taken cell (by slot, then symbol, then
    subcarrier) before anything is written. With ``rate_match`` the free
    cells are filled and the rest skipped. Each distinct row the slots hold
    is checked and written once, in a row only those slots hold
    (`Lattice.own`): a block with no labeled cell takes the footprint
    verbatim, and otherwise each symbol's slice merges on its own.
    """
    jobs, named = [], set()
    for slots, symbols, subcarriers, footprint in placements:
        window = _window(symbols, subcarriers, lattice.n_sc)
        slots = lattice.slot_set(slots)
        shared = named.intersection(slots)
        if shared:
            raise ConfigError(f"placements of one call share slot {min(shared)}")
        named.update(slots)
        jobs.append((slots, window, _footprint(footprint, len(symbols) * len(subcarriers))))
    if not rate_match:
        _check_free(lattice, jobs)
    for slots, window, footprint in jobs:
        for r in lattice.own(slots):
            row = lattice.rows[r]
            if window.whole is not None and not any_label(row[window.whole]):
                row[window.whole] = footprint
                continue
            for part, fp in window.parts:
                old = row[part]
                if not any_label(old):
                    row[part] = footprint[fp]
                elif 0 in old:
                    row[part] = bytes([o or f for o, f in zip(old, footprint[fp])])


def any_label(cells) -> bool:
    """Whether any of the cells is labeled (UNLABELED is 0)."""
    return cells != bytes(len(cells))


def _check_free(lattice: Lattice, jobs: List[tuple]) -> None:
    """Raise ConflictError at the first taken downlink cell under the footprints."""
    first = None
    for slots, window, footprint in jobs:
        for slot, r in lattice.first_slots(slots):
            row = lattice.rows[r]
            if (first is not None and slot > first[0]) or (
                    window.whole is not None and not any_label(row[window.whole])):
                continue
            for part, fp in window.parts:
                old = row[part]
                if not any_label(old) or not old.translate(None, _NON_DL):
                    continue
                start = fp.start
                taken = next((i for i, (o, f) in enumerate(zip(old, footprint[fp]))
                              if f and o and o < ReLabel.GUARD_SYMBOL), None)
                if taken is not None:
                    first = (slot, window.cell(start + taken), old[taken], footprint[start + taken])
                    break
    if first is not None:
        slot, (symbol, sc), old, new = first
        raise ConflictError(
            f"conflict at cell {(slot, symbol, sc)}: existing "
            f"{ReLabel(old).name}, new {ReLabel(new).name}"
        )


def count_labels(grid: ResourceGrid) -> Dict[ReLabel, int]:
    """Exact per-label cell counts over the whole grid.

    Only labels with non-zero counts appear; counts sum to the grid's cells.
    Each distinct row is counted once (`bytes.count` per label, until the
    row is used up) and weighted by the number of slots it serves.
    """
    lattice = grid.lattice
    counts = [0] * len(ReLabel)
    for row, weight in zip(lattice.rows, lattice.multiplicity()):
        left = len(row)
        for label in range(len(ReLabel)):
            n = row.count(label)
            counts[label] += weight * n
            left -= n
            if not left:
                break
    return {ReLabel(v): c for v, c in enumerate(counts) if c}
