"""LTE incumbent footprints: CRS combs, PDCCH region, sync/PBCH, MBSFN.

`crs_mask` is the single source of the CRS rule (TS 36.211 §6.10.1.2,
normal CP). Every other CRS fact is derived from it: the DSS pool mask of
`budget.dss_pool_mask`, which the closed form counts and
`mrss.neighbor_interference` classifies against neighbor masks, the
CRS-bearing symbols that `budget` keeps DMRS off, and the placements of
`lte_plan`: the comb itself, then the control region, PSS/SSS and PBCH
around it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterator, List, Tuple

from .errors import ConfigError
from .grid import (
    SC_PER_PRB,
    SYMBOLS_PER_SLOT,
    CarrierConfig,
    Lattice,
    Placement,
    ReLabel,
    ResourceGrid,
    SlotKind,
    place_slots,
)
from .value import Int, value

SYNC_SUBCARRIERS = 72  # center 6 PRBs
PSS_SSS_SYMBOLS = range(5, 7)  # last two symbols of slot 0
PBCH_SYMBOLS = range(7, 11)  # first four symbols of slot 1

# Subframes (mod 10) that may carry MBSFN, per duplex (TS 36.331
# MBSFN-SubframeConfig): FDD keeps 0, 4, 5 and 9 for sync and paging.
MBSFN_ALLOWED = {"FDD": frozenset({1, 2, 3, 6, 7, 8}), "TDD": frozenset({3, 4, 7, 8, 9})}

# The CRS port counts an LTE cell can have; 0 is no incumbent.
CRS_PORT_COUNTS = (0, 1, 2, 4)


@value(cell_id=Int(0), crs_ports=Int(choices=CRS_PORT_COUNTS[1:]), pdcch_symbols=Int(choices=(1, 2, 3)),
       non_mbsfn_region_len=Int(choices=(1, 2)))
class LteCellConfig:
    """One LTE cell; a serving cell also lists its `neighbors` (their CRS is interference)."""

    cell_id: int = 0
    crs_ports: int = 4
    pdcch_symbols: int = 2
    mbsfn_subframes: FrozenSet[int] = frozenset()
    non_mbsfn_region_len: int = 2
    neighbors: Tuple["LteCellConfig", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "mbsfn_subframes", frozenset(self.mbsfn_subframes))
        object.__setattr__(self, "neighbors", tuple(self.neighbors))
        for cell in self.neighbors:
            if not isinstance(cell, LteCellConfig):
                raise ConfigError(f"neighbors must be LteCellConfig values, got {cell!r}")

    @property
    def v_shift(self) -> int:
        return self.cell_id % 6

    def misfits(self, carrier: CarrierConfig) -> Iterator[Tuple[str, str]]:
        """(dotted key, message) of each way the cell does not fit the carrier, in key
        order: a carrier other than 15 kHz, then each cell's `mbsfn_fault`."""
        if carrier.scs_khz != 15:
            yield "", "an LTE cell needs a 15 kHz carrier"
        if message := mbsfn_fault(carrier, self):
            yield "mbsfn_subframes", message
        for i, cell in enumerate(self.neighbors):
            if message := mbsfn_fault(carrier, cell):
                yield f"neighbors[{i}].mbsfn_subframes", message


def mbsfn_fault(carrier: CarrierConfig, cell: LteCellConfig) -> str:
    """The message for the cell's first MBSFN subframe that the carrier cannot
    hold, or "": one outside the carrier span, one that cannot carry MBSFN on
    the carrier's duplex (MBSFN_ALLOWED) or one that is no TDD downlink subframe."""
    n_subframes = carrier.n_slots // carrier.slots_per_ms
    allowed_sf = MBSFN_ALLOWED[carrier.duplex]
    for sf in sorted(cell.mbsfn_subframes):
        if not 0 <= sf < n_subframes:
            return f"subframe {sf} is outside the {n_subframes}-subframe carrier span"
        if sf % 10 not in allowed_sf:
            return (f"subframe {sf} cannot carry MBSFN on {carrier.duplex}: "
                    f"only subframes {sorted(allowed_sf)} mod 10 can (TS 36.331)")
        kind = carrier.slot_kind(sf * carrier.slots_per_ms)
        if kind is not SlotKind.DOWNLINK:
            return f"subframe {sf} cannot carry MBSFN: the TDD pattern makes it {kind.name.lower()}"
    return ""


# v (mod 6) per port, indexed by l != 0 for ports 0/1 and by n_s mod 2 for ports 2/3.
_CRS_V = {0: (0, 3), 1: (3, 0), 2: (0, 3), 3: (3, 0)}


@lru_cache(maxsize=None)
def crs_mask(crs_ports: int, v_shift: int = 0) -> bytes:
    """CRS of one PRB over one subframe: 14 x 12 bytes, symbol-major, of port + 1 (0: no CRS).

    Ports 0/1 sit on symbols l = 0 and 4 of each slot n_s, ports 2/3 on
    l = 1, at subcarriers k = 6m + (v + v_shift) mod 6 with v = 0 (port 0,
    l = 0), 3 (port 0, l = 4; port 1, l = 0), 0 (port 1, l = 4),
    3 (n_s mod 2) (port 2) and 3 + 3 (n_s mod 2) (port 3). crs_ports 0
    (no incumbent) gives an empty mask.
    """
    if crs_ports not in CRS_PORT_COUNTS:
        raise ConfigError(f"crs_ports must be 0, 1, 2 or 4, got {crs_ports}")
    mask = bytearray(SYMBOLS_PER_SLOT * SC_PER_PRB)
    half = SYMBOLS_PER_SLOT // 2
    for port in range(crs_ports):
        for n_s in (0, 1):
            for l in (0, 4) if port < 2 else (1,):
                v = _CRS_V[port][l != 0 if port < 2 else n_s]
                start = (n_s * half + l) * SC_PER_PRB
                mask[start + (v + v_shift) % 6 : start + SC_PER_PRB : 6] = bytes((port + 1,)) * 2
    return bytes(mask)


def _symbols(row: bytes, n_sc: int) -> Tuple[bytes, ...]:
    """A 14 x n_sc row's symbols."""
    return tuple(row[s * n_sc : (s + 1) * n_sc] for s in range(SYMBOLS_PER_SLOT))


def crs_bearing_symbols(crs_ports: int) -> FrozenSet[int]:
    """Subframe symbols that carry CRS for a port count (0: none)."""
    return frozenset(s for s, row in enumerate(_symbols(crs_mask(crs_ports), SC_PER_PRB)) if any(row))


# Port + 1 -> CRS label; 0 stays UNLABELED.
_CRS_LABEL = bytes([ReLabel.UNLABELED] + [ReLabel.lte_crs(p) for p in range(4)]).ljust(256, b"\0")


def apply_lte(grid: ResourceGrid, cfg: LteCellConfig) -> ResourceGrid:
    """The grid with one LTE cell placed on a copy of its lattice (`place_lte`)."""
    lattice = grid.lattice.copy()
    place_lte(lattice, grid.config, cfg)
    return ResourceGrid(grid.config, lattice)


def place_lte(labels: Lattice, carrier: CarrierConfig, cfg: LteCellConfig) -> None:
    """Place one LTE cell on every subframe of a 15 kHz carrier's writable
    label lattice, in one `place_slots` call on `lte_plan`: a taken downlink
    cell raises ConflictError naming the first one of the first rule, and
    nothing is written; TDD uplink and guard cells are left as they are."""
    place_slots(labels, lte_plan(carrier, cfg))


def lte_plan(carrier: CarrierConfig, cfg: LteCellConfig) -> List[Placement]:
    """The cell's `place_slots` placements, one per rule in precedence order:
    CRS, the control region around the CRS, the MBSFN mute, then PSS/SSS and
    PBCH around the CRS. A cell or neighbor that does not fit the carrier is
    a ConfigError with its first misfit's message (`misfits`).

    In MBSFN subframes the control region is non_mbsfn_region_len symbols
    and everything after it is muted, with no CRS beyond the non-MBSFN
    region. PSS/SSS sit in subframes 0 and 5 mod 10 and PBCH in subframe 0
    mod 10, on the center 72 subcarriers of a carrier of at least 6 PRBs (a
    narrower one carries none). Every footprint is bytes, 0 on the cells it
    leaves to the CRS, so each rule is strict.
    """
    for _, message in cfg.misfits(carrier):
        raise ConfigError(message)
    n_sc = carrier.n_subcarriers
    mask = crs_mask(cfg.crs_ports, cfg.v_shift)
    crs = b"".join(row * carrier.n_prb for row in _symbols(mask, SC_PER_PRB)).translate(_CRS_LABEL)

    def around(symbols: range, subcarriers: range, label: ReLabel) -> Tuple[range, range, bytes]:
        """A block whose footprint is `label` off the CRS comb, 0 on it."""
        cells = b"".join(crs[s * n_sc + subcarriers.start : s * n_sc + subcarriers.stop] for s in symbols)
        return symbols, subcarriers, cells.translate(bytes((label,)) + bytes(255))

    every, width = range(carrier.n_slots), range(n_sc)
    mbsfn, region = sorted(cfg.mbsfn_subframes), cfg.non_mbsfn_region_len
    normal = [sf for sf in every if sf not in cfg.mbsfn_subframes]
    # Normal and MBSFN subframes are disjoint, so each takes its rules in
    # order; one slots list per run of rules is split into regions once.
    plan = [
        (normal, range(SYMBOLS_PER_SLOT), width, crs),
        (normal, *around(range(cfg.pdcch_symbols), width, ReLabel.LTE_PDCCH)),
        (mbsfn, range(region), width, crs[: region * n_sc]),
        (mbsfn, *around(range(region), width, ReLabel.LTE_PDCCH)),
        (mbsfn, range(region, SYMBOLS_PER_SLOT), width, ReLabel.LTE_MBSFN_MUTED),
    ]
    if carrier.n_prb >= 6:
        lo = (n_sc - SYNC_SUBCARRIERS) // 2
        center = range(lo, lo + SYNC_SUBCARRIERS)
        # No MBSFN subframe is 0 or 5 mod 10 (MBSFN_ALLOWED), so each of them carries sync.
        plan += [(every[0::5], *around(PSS_SSS_SYMBOLS, center, ReLabel.LTE_PSS_SSS_PBCH)),
                 (every[0::10], *around(PBCH_SYMBOLS, center, ReLabel.LTE_PSS_SSS_PBCH))]
    return plan
