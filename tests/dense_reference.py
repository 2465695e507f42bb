"""The dense slot-by-slot grid and MRSS map, kept as the reference of the
slot-shared lattice.

Every function here stores one byte per resource element, in an array
shaped (n_slots, 14, n_sc), and places or checks slot by slot in slot
order, as gridshare did before a lattice stored each distinct slot once.
The footprint rules they place (subframe templates, the NR unit plan, the
first free cells per PRB, the label -> category table) are gridshare's own.
The MRSS stages keep a category array beside the labels, as gridshare's map
once did, and write a stage's label only on UNLABELED cells.
`lattice_of` and `gather` convert between such an array and a
`grid.Lattice`, `categories` reads a map's label lattice through the
table, and `dominance_share` is the overhead share the paper reports, read
from an `OverheadReport`.
"""

import numpy as np

from gridshare.errors import ConfigError, ConflictError, PlacementError
from gridshare.grid import SC_PER_PRB, SYMBOLS_PER_SLOT, Lattice, ReLabel, SlotKind
from gridshare.lte import _subframe_templates
from gridshare.mrss import (
    CAT_CONTROL,
    CAT_NON_DL,
    CAT_RESERVED,
    CAT_SHARED,
    _CATEGORY_OF_LABEL,
    check_prb_range,
    check_slots,
    check_ssb_occasion,
)
from gridshare.nr import _first_free_per_prb, nr_plan
from gridshare.rounding import round_half_up

# The label -> category table as an array, one entry per label.
CATEGORY_OF_LABEL = np.frombuffer(_CATEGORY_OF_LABEL, dtype=np.uint8)[:len(ReLabel)]


def lattice_of(arr):
    """The lattice of a dense array: each slot's labels copied into a read-only row."""
    return Lattice([slot.tobytes() for slot in arr], list(range(len(arr))))


def gather(lattice):
    """The dense array of a lattice: a read-only uint8 array of its shape."""
    cells = b"".join([lattice.rows[r] for r in lattice.slot_rows])
    return np.frombuffer(cells, dtype=np.uint8).reshape(lattice.shape)


def categories(lattice):
    """The dense category array of a map's label lattice."""
    return CATEGORY_OF_LABEL[gather(lattice)]


def dominance_share(report, signal_name):
    """One signal's share of the total overhead, percent: the exact share
    rounded half up at 1 dp."""
    (row,) = [row for row in report.rows if row.signal_name == signal_name]
    return round_half_up(100 * row.re_count, report.total_row.re_count, 1)


def new_labels(config):
    arr = np.zeros((config.n_slots, SYMBOLS_PER_SLOT, config.n_subcarriers), dtype=np.uint8)
    if config.duplex == "TDD":
        dl, guard, _ul = config.tdd_pattern.special_split
        for slot in range(config.n_slots):
            kind = config.slot_kind(slot)
            if kind is SlotKind.UPLINK:
                arr[slot, :, :] = ReLabel.UPLINK_SYMBOL
            elif kind is SlotKind.SPECIAL:
                arr[slot, dl : dl + guard, :] = ReLabel.GUARD_SYMBOL
                arr[slot, dl + guard :, :] = ReLabel.UPLINK_SYMBOL
    return arr


def _grid_cell(where, local):
    """Grid index of a cell given as an index into the view arr[where]."""
    rest = iter(local)
    cell = [int(w) if not isinstance(w, slice) else (w.start or 0) + int(next(rest)) for w in where]
    return tuple(cell) + tuple(int(i) for i in rest)


def place(arr, where, footprint, rate_match=False):
    view = arr[(*where, ...)]
    footprint = np.broadcast_to(np.asarray(footprint, dtype=arr.dtype), view.shape)
    want = footprint != ReLabel.UNLABELED
    free = view == ReLabel.UNLABELED
    if not rate_match:
        taken = want & ~free & (view < ReLabel.GUARD_SYMBOL)
        if taken.any():
            local = tuple(np.argwhere(taken)[0])
            raise ConflictError(
                f"conflict at cell {_grid_cell(where, local)}: existing "
                f"{ReLabel(int(view[local])).name}, new {ReLabel(int(footprint[local])).name}"
            )
    np.copyto(view, footprint, where=want & free)


def place_lte(arr, carrier, cfg, include_sync=True):
    if carrier.scs_khz != 15:
        raise ConfigError("LTE requires 15 kHz")
    normal, mbsfn, sf0, sf5 = _subframe_templates(
        cfg, carrier.n_prb, include_sync and carrier.n_prb >= 6
    )
    normal, mbsfn, sf0, sf5 = (np.frombuffer(t, dtype=np.uint8).reshape(SYMBOLS_PER_SLOT, -1)
                               for t in (normal, mbsfn, sf0, sf5))
    for sf in range(carrier.n_slots):
        if sf in cfg.mbsfn_subframes:
            template = mbsfn
        elif sf % 10 == 0:
            template = sf0
        else:
            template = sf5 if sf % 5 == 0 else normal
        place(arr, (sf,), template)


def place_nr(arr, carrier, overlay):
    monitored, units = nr_plan(carrier, overlay)
    for slot in monitored:
        place(
            arr,
            (slot, slice(0, overlay.coreset1.symbols), slice(0, overlay.coreset1.prbs * SC_PER_PRB)),
            ReLabel.NR_PDCCH_CORESET1,
        )
    for slot, (signal, kind, prbs, amount, base, dl_syms) in units:
        if kind == "block":
            place(arr, (slot, slice(base, base + amount), slice(0, prbs * SC_PER_PRB)), signal.label)
        else:
            where = (slot, slice(base, dl_syms), slice(0, prbs * SC_PER_PRB))
            pick = _first_free_per_prb(arr[where].tobytes(), prbs * SC_PER_PRB, amount,
                                       f"{signal.name}: collision in slot {slot}")
            pick = np.frombuffer(pick, dtype=np.uint8).reshape(arr[where].shape)
            place(arr, where, np.where(pick, signal.label, ReLabel.UNLABELED))


def count_labels(arr):
    counts = np.zeros(len(ReLabel), dtype=np.int64)
    for slot in arr:
        counts += np.bincount(slot.reshape(-1), minlength=len(ReLabel))
    return {ReLabel(v): int(c) for v, c in enumerate(counts.tolist()) if c}


def classify(labels, control_mode):
    """(categories, labels): the table gathered slot by slot, then control
    growth, which labels the grown cells that are UNLABELED SIXG_CONTROL."""
    categories = np.empty(labels.shape, dtype=np.uint8)
    labels = labels.copy()
    for s in range(labels.shape[0]):
        np.take(CATEGORY_OF_LABEL, labels[s], out=categories[s])
    grow = control_mode.footprint_factor - 1
    if grow:
        footprint = int(np.count_nonzero(categories == CAT_CONTROL))
        extra = int(footprint * grow)
        if extra > 0:
            flat = categories.reshape(-1)
            shared_idx = np.flatnonzero(flat == CAT_SHARED)
            if extra > shared_idx.size:
                raise PlacementError(
                    f"separate control needs {extra} cells but only {shared_idx.size} are shared"
                )
            flat[shared_idx[:extra]] = CAT_CONTROL
            grown = labels.reshape(-1)[shared_idx[:extra]]
            labels.reshape(-1)[shared_idx[:extra]] = np.where(
                grown == ReLabel.UNLABELED, ReLabel.SIXG_CONTROL, grown)
    return categories, labels


def reserve_iot(config, categories, labels, prb_range, slots=None):
    """New (categories, labels) with the reservation, or the stage's error."""
    p0, p1 = prb_range
    check_prb_range(config, p0, p1)
    slot_list = list(range(config.n_slots)) if slots is None else sorted(set(slots))
    check_slots(config, slot_list)
    categories, labels = categories.copy(), labels.copy()
    prbs = slice(p0 * SC_PER_PRB, p1 * SC_PER_PRB)
    for s in slot_list:
        window = categories[s, :, prbs]
        dl = window != CAT_NON_DL
        if np.any(window[dl] != CAT_SHARED):
            bad = np.argwhere(dl & (window != CAT_SHARED))[0]
            raise ConflictError(
                f"cell (slot {s}, symbol {int(bad[0])}, sc {p0 * SC_PER_PRB + int(bad[1])}) "
                "is not in the shared pool"
            )
        window[dl] = CAT_RESERVED
        place(labels, (s, slice(None), prbs), ReLabel.RESERVED_IOT, rate_match=True)
    return categories, labels


def place_6g_ssb(config, categories, labels, occasions, prbs, symbols):
    categories, labels = categories.copy(), labels.copy()
    for slot, symbol, prb in occasions:
        check_ssb_occasion(config, (slot, symbol, prb), prbs, symbols)
        sl = slice(prb * SC_PER_PRB, (prb + prbs) * SC_PER_PRB)
        where = (slot, slice(symbol, symbol + symbols), sl)
        cat = categories[where]
        if np.any(cat != CAT_SHARED) or np.any(labels[where] != ReLabel.UNLABELED):
            raise PlacementError(
                f"6G SSB occasion {(slot, symbol, prb)} is not hidden: "
                "collides with a 5G footprint or leaves the shared pool"
            )
        cat[:] = CAT_RESERVED
        place(labels, where, ReLabel.SIXG_SSB)
    return categories, labels


def cells_per_slot(categories):
    """Per category code, the cells of each slot."""
    return [np.count_nonzero(categories == cat, axis=(1, 2))
            for cat in (CAT_NON_DL, CAT_SHARED, CAT_RESERVED, CAT_CONTROL)]
