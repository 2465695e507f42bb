"""The dense slot-by-slot grid and MRSS map, kept as the reference of the
slot-shared lattice.

Every function here stores one byte per resource element, in an array
shaped (n_slots, 14, n_sc), and places or checks slot by slot in slot
order, as gridshare did before a lattice stored each distinct slot once.
An LTE cell is placed from TS 36.211 (`place_lte`); the other footprint
rules (the NR plan's placements, the label -> category table) are
gridshare's own. Their checks of a placement against its carrier are the
reference's own conditions, which raise `misfit`, so the tests compare
such an error with gridshare's by class and the slot it names
(`verdict`), not by its text.
The MRSS stages keep a category array beside the labels, as gridshare's map
once did, and take only free (UNLABELED) cells: control growth the first
ones in scan order, an IoT reservation or a 6G SSB block every downlink
cell of its block, else the block's first taken cell is a conflict.
`lattice_of` and `gather` convert between such an array and a
`grid.Lattice`, `categories` reads a map's label lattice through the
table, and `dominance_share` is the overhead share the paper reports, read
from an `OverheadReport`. `place` with `rate_match` is the reference of
`free_cells`, the footprint function that rate-matches a `place_slots`
placement.

The CRS of TS 36.211 §6.10.1.2 is written out here as its spec tables
(`SPEC_SYMBOLS`, `SPEC_V`): `spec_crs` places one cell's CRS from them
alone, `place_lte` builds each subframe on it, and `interference`
classifies the DSS slot's NR data pool against neighbor CRS cell by cell,
as sets of (symbol, subcarrier), with neither `lte.crs_mask` nor
`budget`. `crs_cells` reads `lte.crs_mask` back as
(symbol, subcarrier, port) tuples, the form the CRS tests state their
properties in.
"""

import re
from fractions import Fraction

import numpy as np

from gridshare.errors import ConfigError, ConflictError, PlacementError
from gridshare.grid import SC_PER_PRB, SYMBOLS_PER_SLOT, Lattice, ReLabel, SlotKind
from gridshare.lte import crs_mask
from gridshare.mrss import CAT_CONTROL, CAT_NON_DL, CAT_RESERVED, CAT_SHARED, _CATEGORY_OF_LABEL
from gridshare.nr import nr_plan
from gridshare.rounding import round_half_up

# The label -> category table as an array, one entry per label.
CATEGORY_OF_LABEL = np.frombuffer(_CATEGORY_OF_LABEL, dtype=np.uint8)[:len(ReLabel)]

# Subframes (mod 10) that may carry MBSFN, per duplex: TS 36.331
# MBSFN-SubframeConfig, FDD keeping 0, 4, 5 and 9 for sync and paging.
MBSFN_SUBFRAMES = {"FDD": {1, 2, 3, 6, 7, 8}, "TDD": {3, 4, 7, 8, 9}}


def misfit(slot=None):
    """The reference's error for a placement off its carrier: a ConfigError
    that names the slot (or subframe) that does not fit, if one does."""
    return ConfigError("does not fit the carrier" if slot is None else f"slot {slot} does not fit the carrier")


def named_slot(message):
    """The slot or subframe a range error's message names first, or None."""
    found = re.search(r"(?:slot|subframe|occasion \() ?(-?\d+)", message)
    return None if found is None else int(found.group(1))


def verdict(exc):
    """What two routes' errors are compared by: the class, and for a
    ConfigError the slot it names (`named_slot`), not its text, since the
    reference states its range checks in words of its own (`misfit`)."""
    return type(exc), named_slot(str(exc)) if isinstance(exc, ConfigError) else str(exc)


def lattice_of(arr):
    """The lattice of a dense array: each slot's labels copied into a read-only row."""
    return Lattice([slot.tobytes() for slot in arr])


def gather(lattice):
    """The dense array of a lattice: a read-only uint8 array of its shape."""
    cells = b"".join(lattice.slots)
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


def cycle_entry(config, slot):
    """The slot's letter of its carrier's TDD cycle, "D" on FDD."""
    cycle = config.tdd_pattern.cycle_str if config.tdd_pattern else "D"
    return cycle[slot % len(cycle)]


def dl_symbols(config, slot):
    """The slot's leading downlink symbols, by its letter of the cycle."""
    entry = cycle_entry(config, slot)
    return SYMBOLS_PER_SLOT if entry == "D" else config.tdd_pattern.special_split[0] if entry == "S" else 0


def _grid_cell(where, local):
    """Grid index of a cell given as an index into the view arr[where]."""
    rest = iter(local)
    cell = [int(w) if not isinstance(w, slice) else (w.start or 0) + int(next(rest)) for w in where]
    return tuple(cell) + tuple(int(i) for i in rest)


def free_cells(label):
    """A `place_slots` footprint function: `label` on the block's UNLABELED
    cells only, so the placement is rate-matched around every other label."""
    table = bytes((label,)) + bytes(255)
    return lambda slot, cells: cells.translate(table)


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


def place_lte(arr, carrier, cfg):
    """The cell from TS 36.211, subframe by subframe, after its checks: a
    15 kHz carrier, and each MBSFN subframe of the cell, then of each
    neighbor, in the span, allowed on the duplex and a downlink subframe
    (else `misfit`). Each subframe takes its rules in order: the CRS of
    `spec_crs` (in an MBSFN subframe, on its non-MBSFN region alone), the
    control region off the CRS (the non-MBSFN region in an MBSFN subframe),
    the rest of an MBSFN subframe muted, then, on a carrier of 6 PRBs or
    more, PSS/SSS on symbols 5-6 of subframes 0 and 5 mod 10 and PBCH on
    symbols 7-10 of subframe 0 mod 10, each on the center 72 subcarriers
    off the CRS."""
    if carrier.scs_khz != 15:
        raise misfit()
    for cell in (cfg, *cfg.neighbors):
        for sf in sorted(cell.mbsfn_subframes):
            if not (0 <= sf < carrier.n_slots and sf % 10 in MBSFN_SUBFRAMES[carrier.duplex]
                    and cycle_entry(carrier, sf) == "D"):
                raise misfit(sf)
    crs = np.zeros((SYMBOLS_PER_SLOT, carrier.n_subcarriers), dtype=np.uint8)
    for (s, k), port in spec_crs(cfg.crs_ports, cfg.cell_id % 6).items():
        crs[s, k::SC_PER_PRB] = ReLabel.lte_crs(port)
    lo = (carrier.n_subcarriers - 72) // 2
    center = slice(lo, lo + 72)
    # (symbols, subframe period): PSS/SSS, then PBCH.
    sync = [(slice(5, 7), 5), (slice(7, 11), 10)] if carrier.n_prb >= 6 else []

    def off_crs(symbols, subcarriers, label):
        return np.where(crs[symbols, subcarriers] == 0, label, 0)

    for sf in range(carrier.n_slots):
        mbsfn = sf in cfg.mbsfn_subframes
        n_crs = cfg.non_mbsfn_region_len if mbsfn else SYMBOLS_PER_SLOT
        control = slice(0, cfg.non_mbsfn_region_len if mbsfn else cfg.pdcch_symbols)
        place(arr, (sf, slice(0, n_crs)), crs[:n_crs])
        place(arr, (sf, control), off_crs(control, slice(None), ReLabel.LTE_PDCCH))
        if mbsfn:
            place(arr, (sf, slice(n_crs, SYMBOLS_PER_SLOT)), ReLabel.LTE_MBSFN_MUTED)
        for symbols, period in sync:
            if sf % period == 0:
                place(arr, (sf, symbols, center), off_crs(symbols, center, ReLabel.LTE_PSS_SSS_PBCH))


def place_nr(arr, carrier, overlay):
    """The overlay's plan (`nr_plan`) slot by slot: a slot takes the
    placements that name it in call order, a footprint function read from
    the slot's labels as the earlier placements left them."""
    by_slot = {}
    for placement in nr_plan(carrier, overlay):
        for slot in placement[0]:
            by_slot.setdefault(slot, []).append(placement)
    for slot in sorted(by_slot):
        for _, symbols, subcarriers, footprint in by_slot[slot]:
            where = (slot, slice(symbols.start, symbols.stop), slice(subcarriers.start, subcarriers.stop))
            if callable(footprint):
                footprint = np.frombuffer(footprint(slot, arr[where].tobytes()),
                                          dtype=np.uint8).reshape(arr[where].shape)
            place(arr, where, footprint)


def count_labels(arr):
    counts = np.zeros(len(ReLabel), dtype=np.int64)
    for slot in arr:
        counts += np.bincount(slot.reshape(-1), minlength=len(ReLabel))
    return {ReLabel(v): int(c) for v, c in enumerate(counts.tolist()) if c}


def classify(labels, control_mode):
    """(categories, labels): the table gathered slot by slot, then control
    growth, which labels the first free (UNLABELED) cells in scan order
    SIXG_CONTROL and makes them control."""
    categories = np.empty(labels.shape, dtype=np.uint8)
    labels = labels.copy()
    for s in range(labels.shape[0]):
        np.take(CATEGORY_OF_LABEL, labels[s], out=categories[s])
    grow = control_mode.footprint_factor - 1
    if grow:
        footprint = int(np.count_nonzero(categories == CAT_CONTROL))
        extra = int(footprint * grow)
        if extra > 0:
            free_idx = np.flatnonzero(labels.reshape(-1) == ReLabel.UNLABELED)
            if extra > free_idx.size:
                raise PlacementError(
                    f"separate control needs {extra} cells but only {free_idx.size} are free"
                )
            categories.reshape(-1)[free_idx[:extra]] = CAT_CONTROL
            labels.reshape(-1)[free_idx[:extra]] = ReLabel.SIXG_CONTROL
    return categories, labels


def reserve_iot(config, categories, labels, reservations):
    """New (categories, labels) with the reservations, each (prb_start,
    prb_stop, slots or None), or the stage's error: every range is checked
    first, then each slot in turn takes the reservations that name it, in
    the order given, each on free cells alone."""
    named = []
    for p0, p1, slots in reservations:
        if not 0 <= p0 <= p1 <= config.n_prb:
            raise misfit()
        slot_list = list(range(config.n_slots)) if slots is None else list(slots)
        for s in slot_list:
            if not 0 <= s < config.n_slots:
                raise misfit(s)
        named.append((slice(p0 * SC_PER_PRB, p1 * SC_PER_PRB), set(slot_list)))
    categories, labels = categories.copy(), labels.copy()
    for s in range(config.n_slots):
        for prbs, slots in named:
            if s not in slots:
                continue
            where = (s, slice(None), prbs)
            free = labels[where] == ReLabel.UNLABELED
            place(labels, where, ReLabel.RESERVED_IOT)
            categories[where][free] = CAT_RESERVED
    return categories, labels


def place_6g_ssb(config, categories, labels, occasions, prbs, symbols):
    """New (categories, labels) with the blocks, or the stage's error: every
    occasion's range is checked first, then the blocks are placed slot by
    slot, a slot's in the order given, each on free cells alone."""
    for slot, symbol, prb in occasions:
        # The block's symbols end within its slot's leading downlink symbols.
        if not (0 <= slot < config.n_slots and 0 <= prb <= config.n_prb - prbs and 0 <= symbol
                and symbol + symbols <= dl_symbols(config, slot)):
            raise misfit(slot)
    categories, labels = categories.copy(), labels.copy()
    for slot, symbol, prb in sorted(occasions, key=lambda occasion: occasion[0]):
        sl = slice(prb * SC_PER_PRB, (prb + prbs) * SC_PER_PRB)
        where = (slot, slice(symbol, symbol + symbols), sl)
        free = labels[where] == ReLabel.UNLABELED
        place(labels, where, ReLabel.SIXG_SSB)
        categories[where][free] = CAT_RESERVED
    return categories, labels


def cells_per_slot(categories):
    """Per category code, the cells of each slot."""
    return [np.count_nonzero(categories == cat, axis=(1, 2))
            for cat in (CAT_NON_DL, CAT_SHARED, CAT_RESERVED, CAT_CONTROL)]


# TS 36.211 §6.10.1.2 (normal CP): CRS symbol l within each slot, and v, per
# port, as functions of l and the slot parity n_s mod 2.
SPEC_SYMBOLS = {0: (0, 4), 1: (0, 4), 2: (1,), 3: (1,)}
SPEC_V = {
    0: lambda l, ns: 0 if l == 0 else 3,
    1: lambda l, ns: 3 if l == 0 else 0,
    2: lambda l, ns: 3 * ns,
    3: lambda l, ns: 3 + 3 * ns,
}


def spec_crs(ports, v_shift):
    """{(symbol, subcarrier): port} of one PRB over one subframe, from the
    spec tables; no two ports share a cell."""
    cells = {}
    for port in range(ports):
        for ns in (0, 1):
            for l in SPEC_SYMBOLS[port]:
                for m in range(2):
                    cell = (7 * ns + l, 6 * m + (SPEC_V[port](l, ns) + v_shift) % 6)
                    assert cell not in cells
                    cells[cell] = port
    return cells


def crs_cells(cfg, n_prb):
    """The CRS of `lte.crs_mask` over one subframe of n_prb PRBs, as
    (symbol, subcarrier, port) tuples."""
    mask = crs_mask(cfg.crs_ports, cfg.v_shift)
    return {(i // SC_PER_PRB, m * SC_PER_PRB + i % SC_PER_PRB, port - 1)
            for i, port in enumerate(mask) if port for m in range(n_prb)}


def interference(serving, neighbors, mitigation, layout):
    """(pool, clean, sacrificed, dirty) of one PRB of the serving cell's DSS
    slot, cell by cell: the pool is every cell from the end of LTE + NR
    control on, off the DMRS symbols and the serving CRS; a pool cell is
    dirty when a neighbor's CRS is on it. DMRS takes symbol 12, when control
    ends by then, and the earliest other symbols after control that carry
    no serving CRS. ConfigError as `neighbor_interference` raises it."""
    serving_crs = spec_crs(serving.crs_ports, serving.cell_id % 6)
    control_end = layout.lte_pdcch + layout.nr_pdcch
    bearing = {s for s, _ in serving_crs}
    free = [s for s in range(control_end, SYMBOLS_PER_SLOT) if s not in bearing]
    if 12 in free:
        free.remove(12)
        free.insert(0, 12)
    if len(free) < layout.dmrs_count:
        raise ConfigError(
            f"cannot place {layout.dmrs_count} DMRS symbols outside CRS and control regions")
    if control_end > SYMBOLS_PER_SLOT:
        raise ConfigError(f"LTE and NR control take {control_end} symbols, more than the "
                          f"{SYMBOLS_PER_SLOT} of a slot")
    dmrs = free[:layout.dmrs_count]
    pool = {(s, k) for s in range(control_end, SYMBOLS_PER_SLOT) if s not in dmrs
            for k in range(SC_PER_PRB) if (s, k) not in serving_crs}
    hit = {cell for n in neighbors for cell in spec_crs(n.crs_ports, n.cell_id % 6)}
    dirty = len(pool & hit)
    if mitigation.kind == "ServingOnlyRateMatch":
        return len(pool), len(pool) - dirty, 0, dirty
    if mitigation.kind == "NeighborAwareRateMatch":
        return len(pool), len(pool) - dirty, dirty, 0
    if mitigation.kind == "SymbolLevelMute":
        muted = {s for s, _ in hit}
        sacrificed = sum(1 for s, _ in pool if s in muted)
        return len(pool), len(pool) - sacrificed, sacrificed, 0
    # ReceiverCancellation: the exact floor of effectiveness, read as its
    # decimal text, times dirty is reclaimed.
    reclaimed = Fraction(str(mitigation.effectiveness)) * dirty // 1
    return len(pool), len(pool) - dirty + reclaimed, 0, dirty - reclaimed
