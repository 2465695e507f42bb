"""5G NR signal footprints.

Covers the periodic broadcast/control/reference footprints of an NR carrier
(SSB, CORESET0/SIB1, regular CORESET, CSI-RS, TRS). `SIGNALS` declares each
signal once, in report order: its report name, its `NrOverlaySet` field and
its grid label. Its spec class answers the same questions for each:
`re_count(carrier)` is the closed-form count over one period,
`summary(carrier, period_ms)` the report's configuration text and, for a
signal placed one unit per downlink slot, `unit()` the unit's geometry
(kind, PRBs, amount, number of units). A "block" unit takes `amount` whole
symbols over its PRBs; an "re" unit takes the first `amount` free cells of
each PRB. A new signal is a spec class, an `NrOverlaySet` field, a
`SIGNALS` row and, if it is placed in units, a place in `UNIT_ORDER` (and
its entry in the scenario format).

`nr_plan` is the overlay's `place_slots` placements, made with every check
of the overlay against its carrier that needs no lattice: CORESET1's, then
one per group of a signal's unit slots that share a first symbol and a
downlink length. It decides what to place from the units' geometry, never
from `re_count`, so the grid route checks the closed form instead of
reading it. `place_nr` writes the plan in one all-or-nothing call, a slot
taking CORESET1 before its unit; an "re" unit's footprint is a function of
its block's labels. `budget.nr_overhead` runs the plan too, so the
overhead table reports no overlay the grid rejects. The per-slot DSS
layout, where NR rate-matches around an incumbent LTE cell, lives in
`budget`.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import ConfigError, PlacementError
from .grid import (
    SC_PER_PRB,
    CarrierConfig,
    Lattice,
    Placement,
    ReLabel,
    ResourceGrid,
    place_slots,
)
from .value import Int, value


@value(beams=Int(0), prbs=Int(0), symbols=Int(0))
class BeamSignal:
    """A beam-repeated block footprint (SSB, CORESET0, SIB1): one block per beam."""

    beams: int
    prbs: int
    symbols: int

    def re_count(self, carrier: CarrierConfig) -> int:
        return self.beams * self.prbs * SC_PER_PRB * self.symbols

    def summary(self, carrier: CarrierConfig, period_ms: int) -> str:
        return f"{self.beams} beams, {self.prbs} PRBs, {self.symbols} symbols"

    def unit(self) -> Tuple[str, int, int, int]:
        return "block", self.prbs, self.symbols, self.beams


@value(prbs=Int(0), symbols=Int(0), slots=Int(0))
class Coreset1Spec:
    """Regular PDCCH region; slots=None monitors every DL-bearing slot."""

    prbs: int
    symbols: int
    slots: Optional[int] = None

    def monitored_count(self, carrier: CarrierConfig) -> int:
        return len(carrier.dl_bearing_slots()) if self.slots is None else self.slots

    def re_count(self, carrier: CarrierConfig) -> int:
        return self.prbs * SC_PER_PRB * self.symbols * self.monitored_count(carrier)

    def summary(self, carrier: CarrierConfig, period_ms: int) -> str:
        return (f"{self.prbs} PRBs, {self.symbols} symbols, "
                f"{self.monitored_count(carrier)} DL-bearing slots")


@value(ports=Int(0), density_re_per_port_per_prb=Int(0), prbs=Int(0), occasions_per_period=Int(0))
class CsiRsSpec:
    ports: int
    density_re_per_port_per_prb: int
    prbs: int
    occasions_per_period: int

    def re_count(self, carrier: CarrierConfig) -> int:
        return self.ports * self.density_re_per_port_per_prb * self.prbs * self.occasions_per_period

    def summary(self, carrier: CarrierConfig, period_ms: int) -> str:
        return (f"{self.ports} ports, density {self.density_re_per_port_per_prb} RE/port/PRB, "
                f"{self.prbs} PRBs, {self.occasions_per_period} occasion(s) / {period_ms} ms")

    def unit(self) -> Tuple[str, int, int, int]:
        return "re", self.prbs, self.ports * self.density_re_per_port_per_prb, self.occasions_per_period


@value(prbs=Int(0), slots_per_occasion=Int(0), re_per_prb_per_slot=Int(0), beams=Int(0),
       occasions_per_period=Int(0))
class TrsSpec:
    prbs: int
    slots_per_occasion: int
    re_per_prb_per_slot: int
    beams: int
    occasions_per_period: int

    def re_count(self, carrier: CarrierConfig) -> int:
        return (
            self.prbs
            * self.re_per_prb_per_slot
            * self.slots_per_occasion
            * self.beams
            * self.occasions_per_period
        )

    def summary(self, carrier: CarrierConfig, period_ms: int) -> str:
        return (f"{self.prbs} PRBs, {self.slots_per_occasion}-slot occasion, "
                f"{self.re_per_prb_per_slot} RE/PRB/slot, {self.beams} beams, "
                f"{self.occasions_per_period} occasions / {period_ms} ms")

    def unit(self) -> Tuple[str, int, int, int]:
        visits = self.beams * self.occasions_per_period * self.slots_per_occasion
        return "re", self.prbs, self.re_per_prb_per_slot, visits


@value(period_ms=Int(1))
class NrOverlaySet:
    """Declarative description of the periodic NR footprints in one period."""

    period_ms: int
    ssb: Optional[BeamSignal] = None
    coreset0: Optional[BeamSignal] = None
    sib1: Optional[BeamSignal] = None
    coreset1: Optional[Coreset1Spec] = None
    csi_rs: Optional[CsiRsSpec] = None
    trs: Optional[TrsSpec] = None

    def misfits(self, carrier: CarrierConfig) -> Iterator[Tuple[str, str]]:
        """(dotted key, message) of each way the overlay does not fit the carrier,
        in key order: a period other than the carrier's span, a signal wider than it."""
        if self.period_ms != carrier.span_ms:
            yield "period_ms", f"overlay period {self.period_ms} ms != carrier span {carrier.span_ms} ms"
        for signal in SIGNALS:
            spec = signal.spec(self)
            if spec and spec.prbs > carrier.n_prb:
                yield (f"{signal.field}.prbs",
                       f"{signal.name} spans {spec.prbs} PRBs > carrier {carrier.n_prb}")

    def check_fits(self, carrier: CarrierConfig) -> None:
        """ConfigError for the overlay's first misfit on the carrier, if any."""
        for _, message in self.misfits(carrier):
            raise ConfigError(message)

    def signal_counts(self, carrier: CarrierConfig) -> Dict[str, int]:
        """Closed-form RE count per signal over one period, in report order."""
        self.check_fits(carrier)
        return {signal.name: spec.re_count(carrier) if (spec := signal.spec(self)) else 0
                for signal in SIGNALS}


@value
class Signal:
    """One NR signal: its report name, its `NrOverlaySet` field and its grid label."""

    name: str
    field: str
    label: ReLabel

    def spec(self, overlay: NrOverlaySet):
        """The overlay's spec of this signal, or None."""
        return getattr(overlay, self.field)


SIGNALS = (
    Signal("SSB", "ssb", ReLabel.NR_SSB),
    Signal("CORESET 0", "coreset0", ReLabel.NR_PDCCH_CORESET0),
    Signal("SIB1", "sib1", ReLabel.NR_SIB1),
    Signal("CORESET 1", "coreset1", ReLabel.NR_PDCCH_CORESET1),
    Signal("CSI-RS", "csi_rs", ReLabel.NR_CSI_RS),
    Signal("TRS", "trs", ReLabel.NR_TRS),
)
_SSB, _CORESET0, _SIB1, _CORESET1, _CSI_RS, _TRS = SIGNALS
# Units take distinct DL slots in this order, so it decides which slot each
# unit takes and with it every slot's remaining pool, which the golden files pin.
UNIT_ORDER = (_SSB, _CORESET0, _SIB1, _TRS, _CSI_RS)


def apply_nr(grid: ResourceGrid, overlay: NrOverlaySet) -> ResourceGrid:
    """The grid with the overlay's footprints placed (`place_nr`) on a copy of its lattice."""
    lattice = grid.lattice.copy()
    place_nr(lattice, grid.config, overlay)
    return ResourceGrid(grid.config, lattice)


def place_nr(labels: Lattice, carrier: CarrierConfig, overlay: NrOverlaySet) -> None:
    """Place the overlay's footprints into disjoint downlink cells of a
    carrier's writable label lattice.

    Placement spreads beam/occasion units across distinct downlink slots:
    CORESET1 takes the first symbols of every monitored slot, and each other
    unit (one SSB/CORESET0/SIB1 beam, one TRS slot-visit, one CSI-RS
    occasion) gets its own downlink slot starting at the lowest PRBs just
    after the CORESET1 symbols. The accounting (signal_counts) is
    placement-invariant; only disjointness depends on this scheme. The
    checked plan (`nr_plan`) is placed in one `place_slots` call: a slot
    takes CORESET1 before its unit, the error raised is the lowest slot's,
    and all of the overlay or none of it is written. An "re" unit picks its
    cells once per distinct row.
    """
    place_slots(labels, nr_plan(carrier, overlay))


def _pick(signal: Signal, width: int, amount: int, slot: int, cells: bytes) -> bytes:
    """An "re" unit's footprint on a block of its slot (`_first_free_per_prb`)."""
    return _first_free_per_prb(cells, width, amount, f"{signal.name}: collision in slot {slot}", signal.label)


def nr_plan(carrier: CarrierConfig, overlay: NrOverlaySet) -> List[Placement]:
    """The overlay's `place_slots` placements on the carrier, checked with
    every check that needs no lattice: CORESET1's, then, for each signal in
    `UNIT_ORDER`, one per (first symbol, DL symbols of the slot) group of
    its units' slots, in order of the group's first slot. A "block" unit
    carries its label, an "re" unit its `_pick`. A signal is placed when
    every number of its geometry is non-zero, whatever its closed form
    reads. A check names its group's first slot."""
    overlay.check_fits(carrier)

    dl_symbols = carrier._dl_symbols
    dl_slots = carrier.dl_bearing_slots()

    coreset1 = overlay.coreset1
    n_mon = coreset1.monitored_count(carrier) if coreset1 and coreset1.prbs and coreset1.symbols else 0
    if n_mon > len(dl_slots):
        raise PlacementError(f"{_CORESET1.name}: {n_mon} monitored slots > {len(dl_slots)} DL-bearing slots")
    placements = []
    if n_mon:
        monitored = dl_slots[:n_mon]
        for slot in (s for s in monitored if dl_symbols[s] < coreset1.symbols):
            raise PlacementError(f"{_CORESET1.name}: {coreset1.symbols} symbols do not fit slot {slot}")
        placements.append((monitored, range(coreset1.symbols), range(coreset1.prbs * SC_PER_PRB),
                           _CORESET1.label))

    # The unit count is checked before any slot is listed, so an oversized
    # count costs no memory.
    units = [(signal, unit) for signal in UNIT_ORDER
             if (spec := signal.spec(overlay)) and all((unit := spec.unit())[1:])]
    if (n_units := sum(unit[-1] for _, unit in units)) > len(dl_slots):
        raise PlacementError(f"{n_units} occasion units need distinct DL slots but only "
                             f"{len(dl_slots)} are available")
    first = 0  # the first n_mon DL slots are CORESET1's
    for signal, (kind, prbs, amount, count) in units:
        groups: Dict[Tuple[int, int], List[int]] = {}
        for i, slot in enumerate(dl_slots[first:first + count], first):
            groups.setdefault((coreset1.symbols if i < n_mon else 0, dl_symbols[slot]), []).append(slot)
        first += count
        width = prbs * SC_PER_PRB
        for (base, dl_syms), slots in groups.items():
            if kind == "block":
                if base + amount > dl_syms:
                    raise PlacementError(f"{signal.name}: {amount} symbols do not fit slot {slots[0]}")
                symbols, footprint = range(base, base + amount), signal.label
            else:
                if amount > (dl_syms - base) * SC_PER_PRB:
                    raise PlacementError(f"{signal.name}: needs {amount} RE/PRB in slot {slots[0]}")
                symbols, footprint = range(base, dl_syms), functools.partial(_pick, signal, width, amount)
            placements.append((slots, symbols, range(width), footprint))
    return placements


def _first_free_per_prb(cells: bytes, width: int, amount: int, what: str, mark: int = 1) -> bytes:
    """`mark` on the first `amount` free cells of each PRB of a block of
    symbol-major cells `width` subcarriers wide, in symbol-major order, 0
    elsewhere: bytes of the block's size. PlacementError names the first
    PRB with fewer free cells."""
    pick = bytearray(len(cells))
    for prb in range(0, width, SC_PER_PRB):
        need = amount
        for start in range(prb, len(cells), width):
            for i in range(start, start + SC_PER_PRB):
                if need and not cells[i]:
                    pick[i] = mark
                    need -= 1
            if not need:
                break
        if need:
            raise PlacementError(f"{what}, PRB {prb // SC_PER_PRB}")
    return bytes(pick)
