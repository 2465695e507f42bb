"""5G NR signal footprints.

Covers the periodic broadcast/control/reference footprints of an NR carrier
(SSB, CORESET0/SIB1, regular CORESET, CSI-RS, TRS) and the per-slot DSS
layout where NR rate-matches around an incumbent LTE cell.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, PlacementError
from .grid import (
    SC_PER_PRB,
    SYMBOLS_PER_SLOT,
    CarrierConfig,
    ReLabel,
    ResourceGrid,
    place,
)
from .lte import LteCellConfig, crs_bearing_symbols
from .value import value

SIGNAL_SSB = "SSB"
SIGNAL_CORESET0 = "CORESET 0"
SIGNAL_SIB1 = "SIB1"
SIGNAL_CORESET1 = "CORESET 1"
SIGNAL_CSI_RS = "CSI-RS"
SIGNAL_TRS = "TRS"

SIGNAL_ORDER = (
    SIGNAL_SSB,
    SIGNAL_CORESET0,
    SIGNAL_SIB1,
    SIGNAL_CORESET1,
    SIGNAL_CSI_RS,
    SIGNAL_TRS,
)


@value
class BeamSignal:
    """A beam-repeated block footprint (SSB, CORESET0, SIB1)."""

    beams: int
    prbs: int
    symbols: int

    def __post_init__(self):
        if min(self.beams, self.prbs, self.symbols) < 0:
            raise ConfigError("beam signal counts must be >= 0")

    @property
    def re_count(self) -> int:
        return self.beams * self.prbs * SC_PER_PRB * self.symbols


@value
class Coreset1Spec:
    """Regular PDCCH region; slots=None monitors every DL-bearing slot."""

    prbs: int
    symbols: int
    slots: Optional[int] = None

    def __post_init__(self):
        if min(self.prbs, self.symbols) < 0:
            raise ConfigError("coreset1 counts must be >= 0")
        if self.slots is not None and self.slots < 0:
            raise ConfigError("coreset1 slots must be >= 0")

    def monitored_count(self, carrier: CarrierConfig) -> int:
        return len(carrier.dl_bearing_slots()) if self.slots is None else self.slots

    def re_count(self, carrier: CarrierConfig) -> int:
        return self.prbs * SC_PER_PRB * self.symbols * self.monitored_count(carrier)


@value
class CsiRsSpec:
    ports: int
    density_re_per_port_per_prb: int
    prbs: int
    occasions_per_period: int

    def __post_init__(self):
        if min(self.ports, self.density_re_per_port_per_prb, self.prbs, self.occasions_per_period) < 0:
            raise ConfigError("csi_rs counts must be >= 0")

    @property
    def re_per_prb(self) -> int:
        return self.ports * self.density_re_per_port_per_prb

    @property
    def re_count(self) -> int:
        return self.re_per_prb * self.prbs * self.occasions_per_period


@value
class TrsSpec:
    prbs: int
    slots_per_occasion: int
    re_per_prb_per_slot: int
    beams: int
    occasions_per_period: int

    def __post_init__(self):
        if min(self.prbs, self.slots_per_occasion, self.re_per_prb_per_slot, self.beams, self.occasions_per_period) < 0:
            raise ConfigError("trs counts must be >= 0")

    @property
    def re_count(self) -> int:
        return (
            self.prbs
            * self.re_per_prb_per_slot
            * self.slots_per_occasion
            * self.beams
            * self.occasions_per_period
        )


@value
class NrOverlaySet:
    """Declarative description of the periodic NR footprints in one period."""

    period_ms: int
    ssb: Optional[BeamSignal] = None
    coreset0: Optional[BeamSignal] = None
    sib1: Optional[BeamSignal] = None
    coreset1: Optional[Coreset1Spec] = None
    csi_rs: Optional[CsiRsSpec] = None
    trs: Optional[TrsSpec] = None

    def __post_init__(self):
        if self.period_ms < 1:
            raise ConfigError("period_ms must be >= 1")

    def check_fits(self, carrier: CarrierConfig) -> None:
        for name, prbs in (
            (SIGNAL_SSB, self.ssb.prbs if self.ssb else 0),
            (SIGNAL_CORESET0, self.coreset0.prbs if self.coreset0 else 0),
            (SIGNAL_SIB1, self.sib1.prbs if self.sib1 else 0),
            (SIGNAL_CORESET1, self.coreset1.prbs if self.coreset1 else 0),
            (SIGNAL_CSI_RS, self.csi_rs.prbs if self.csi_rs else 0),
            (SIGNAL_TRS, self.trs.prbs if self.trs else 0),
        ):
            if prbs > carrier.n_prb:
                raise ConfigError(f"{name} spans {prbs} PRBs > carrier {carrier.n_prb}")

    def signal_counts(self, carrier: CarrierConfig) -> Dict[str, int]:
        """Closed-form RE count per signal over one period."""
        self.check_fits(carrier)
        return {
            SIGNAL_SSB: self.ssb.re_count if self.ssb else 0,
            SIGNAL_CORESET0: self.coreset0.re_count if self.coreset0 else 0,
            SIGNAL_SIB1: self.sib1.re_count if self.sib1 else 0,
            SIGNAL_CORESET1: self.coreset1.re_count(carrier) if self.coreset1 else 0,
            SIGNAL_CSI_RS: self.csi_rs.re_count if self.csi_rs else 0,
            SIGNAL_TRS: self.trs.re_count if self.trs else 0,
        }


NR_LABELS = {
    SIGNAL_SSB: ReLabel.NR_SSB,
    SIGNAL_CORESET0: ReLabel.NR_PDCCH_CORESET0,
    SIGNAL_SIB1: ReLabel.NR_SIB1,
    SIGNAL_CORESET1: ReLabel.NR_PDCCH_CORESET1,
    SIGNAL_CSI_RS: ReLabel.NR_CSI_RS,
    SIGNAL_TRS: ReLabel.NR_TRS,
}

def apply_nr(grid: ResourceGrid, overlay: NrOverlaySet) -> ResourceGrid:
    """A copy of the grid with the overlay's footprints placed on it (`place_nr`).

    The overlay is checked against the carrier before the grid is copied.
    """
    plan = _nr_plan(grid.config, overlay)
    arr = grid.writable_labels()
    _place_plan(arr, grid.config, overlay, *plan)
    return ResourceGrid(grid.config, arr)


def place_nr(arr: np.ndarray, carrier: CarrierConfig, overlay: NrOverlaySet) -> None:
    """Place the overlay's footprints into disjoint downlink cells of a
    carrier's writable label lattice.

    Placement spreads beam/occasion units across distinct downlink slots:
    CORESET1 takes the first symbols of every monitored slot, and each other
    unit (one SSB/CORESET0/SIB1 beam, one TRS slot-visit, one CSI-RS
    occasion) gets its own downlink slot starting at the lowest PRBs just
    after the CORESET1 symbols. The accounting (signal_counts) is
    placement-invariant; only disjointness depends on this scheme.
    """
    _place_plan(arr, carrier, overlay, *_nr_plan(carrier, overlay))


def _nr_plan(carrier: CarrierConfig, overlay: NrOverlaySet) -> Tuple[List[int], List[tuple]]:
    """The overlay checked against the carrier: (CORESET1 monitored slots,
    units), each unit (name, kind, PRBs, block symbols or per-PRB RE need)."""
    if overlay.period_ms != carrier.span_ms:
        raise ConfigError(
            f"overlay period {overlay.period_ms} ms != carrier span {carrier.span_ms} ms"
        )
    overlay.check_fits(carrier)

    dl_slots = list(carrier.dl_bearing_slots())

    monitored: List[int] = []
    if overlay.coreset1 and overlay.coreset1.re_count(carrier) > 0:
        n_mon = overlay.coreset1.monitored_count(carrier)
        if n_mon > len(dl_slots):
            raise PlacementError(
                f"{SIGNAL_CORESET1}: {n_mon} monitored slots > {len(dl_slots)} DL-bearing slots"
            )
        monitored = dl_slots[:n_mon]
        for slot in monitored:
            if overlay.coreset1.symbols > carrier.dl_symbols_in_slot(slot):
                raise PlacementError(
                    f"{SIGNAL_CORESET1}: {overlay.coreset1.symbols} symbols do not fit slot {slot}"
                )

    # Groups of units, each (name, block geometry or per-PRB RE need, count);
    # every unit takes its own DL slot. The count is checked before any unit
    # is listed, so an oversized count costs no memory.
    groups: List[Tuple[str, str, int, int, int]] = []
    for name, sig in ((SIGNAL_SSB, overlay.ssb), (SIGNAL_CORESET0, overlay.coreset0), (SIGNAL_SIB1, overlay.sib1)):
        if sig and sig.re_count > 0:
            groups.append((name, "block", sig.prbs, sig.symbols, sig.beams))
    trs = overlay.trs
    if trs and trs.re_count > 0:
        visits = trs.beams * trs.occasions_per_period * trs.slots_per_occasion
        groups.append((SIGNAL_TRS, "re", trs.prbs, trs.re_per_prb_per_slot, visits))
    csi_rs = overlay.csi_rs
    if csi_rs and csi_rs.re_count > 0:
        groups.append((SIGNAL_CSI_RS, "re", csi_rs.prbs, csi_rs.re_per_prb, csi_rs.occasions_per_period))

    n_units = sum(group[-1] for group in groups)
    if n_units > len(dl_slots):
        raise PlacementError(
            f"{n_units} occasion units need distinct DL slots but only "
            f"{len(dl_slots)} are available"
        )
    return monitored, [group[:-1] for group in groups for _ in range(group[-1])]


def _place_plan(
    arr: np.ndarray, carrier: CarrierConfig, overlay: NrOverlaySet,
    monitored: List[int], units: List[tuple],
) -> None:
    """Place a checked plan (`_nr_plan`): CORESET1, then one unit per DL slot."""
    for slot in monitored:
        place(
            arr,
            (slot, slice(0, overlay.coreset1.symbols), slice(0, overlay.coreset1.prbs * SC_PER_PRB)),
            NR_LABELS[SIGNAL_CORESET1],
        )
    monitored_set = set(monitored)
    ctrl_symbols = overlay.coreset1.symbols if overlay.coreset1 else 0
    for (name, kind, prbs, amount), slot in zip(units, carrier.dl_bearing_slots()):
        base = ctrl_symbols if slot in monitored_set else 0
        dl_syms = carrier.dl_symbols_in_slot(slot)
        if kind == "block":
            if base + amount > dl_syms:
                raise PlacementError(f"{name}: {amount} symbols do not fit slot {slot}")
            place(arr, (slot, slice(base, base + amount), slice(0, prbs * SC_PER_PRB)), NR_LABELS[name])
        else:
            if amount > (dl_syms - base) * SC_PER_PRB:
                raise PlacementError(f"{name}: needs {amount} RE/PRB in slot {slot}")
            where = (slot, slice(base, dl_syms), slice(0, prbs * SC_PER_PRB))
            pick = _first_free_per_prb(arr[where], amount, f"{name}: collision in slot {slot}")
            place(arr, where, np.where(pick, NR_LABELS[name], ReLabel.UNLABELED))


def _first_free_per_prb(view: np.ndarray, amount: int, what: str) -> np.ndarray:
    """Mask of the first `amount` free cells of each PRB, in symbol-major order."""
    n_sym, n_sc = view.shape
    by_prb = (view == ReLabel.UNLABELED).reshape(n_sym, -1, SC_PER_PRB).transpose(1, 0, 2)
    free = by_prb.reshape(by_prb.shape[0], -1)
    rank = np.cumsum(free, axis=1)
    short = np.flatnonzero(rank[:, -1] < amount)
    if short.size:
        raise PlacementError(f"{what}, PRB {int(short[0])}")
    pick = (free & (rank <= amount)).reshape(by_prb.shape)
    return pick.transpose(1, 0, 2).reshape(n_sym, n_sc)


def nr_dss_slot(
    grid: ResourceGrid,
    lte_cfg: LteCellConfig,
    dmrs_symbols: Iterable[int],
    nr_pdcch_symbol: int,
    slots: Optional[Sequence[int]] = None,
) -> ResourceGrid:
    """NR control + DMRS layout in slots already carrying the LTE overlay.

    The remaining Unlabeled cells form the schedulable NR data pool,
    rate-matched around CRS by construction. DMRS must avoid CRS-bearing
    and control symbols (no puncturing machinery is modeled).
    """
    carrier = grid.config
    if carrier.numerology.scs_khz != 15:
        raise ConfigError("DSS layout requires a 15 kHz grid")
    dmrs = sorted(set(dmrs_symbols))
    if nr_pdcch_symbol < lte_cfg.pdcch_symbols:
        raise ConfigError(
            f"NR PDCCH symbol {nr_pdcch_symbol} lies inside the {lte_cfg.pdcch_symbols}-symbol LTE control region"
        )
    if nr_pdcch_symbol >= SYMBOLS_PER_SLOT:
        raise ConfigError(f"NR PDCCH symbol {nr_pdcch_symbol} out of range")
    blocked = crs_bearing_symbols(lte_cfg.crs_ports)
    for s in dmrs:
        if not 0 <= s < SYMBOLS_PER_SLOT:
            raise ConfigError(f"DMRS symbol {s} out of range")
        if s in blocked:
            raise ConfigError(f"DMRS symbol {s} collides with a CRS-bearing symbol")
        if s <= nr_pdcch_symbol:
            raise ConfigError(f"DMRS symbol {s} collides with the control region")

    if slots is None:
        slots = range(carrier.n_slots)
    arr = grid.writable_labels()
    rows = dss_control_rows((nr_pdcch_symbol,), dmrs)
    for slot in slots:
        place(arr, (slot,), rows, rate_match=True)
    return ResourceGrid(carrier, arr)


def dss_control_rows(pdcch_symbols: Iterable[int], dmrs_symbols: Iterable[int]) -> np.ndarray:
    """14x1 footprint of NR control and DMRS symbols, rate-matched around CRS on placement."""
    rows = np.zeros((SYMBOLS_PER_SLOT, 1), dtype=np.uint8)
    rows[list(pdcch_symbols)] = ReLabel.NR_PDCCH_CORESET1
    rows[list(dmrs_symbols)] = ReLabel.NR_DMRS
    return rows
