"""LTE incumbent footprints: CRS combs, PDCCH region, sync/PBCH, MBSFN.

`crs_mask` is the single source of the CRS rule (TS 36.211 §6.10.1.2,
normal CP). Every other CRS fact is derived from it: the DSS pool mask of
`budget.dss_pool_mask`, which the closed form counts and
`mrss.neighbor_interference` classifies against neighbor masks, the
CRS-bearing symbols that `budget` keeps DMRS off, and the subframe
templates that `place_lte` places on the grid.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterator, Tuple

from .errors import ConfigError
from .grid import (
    SC_PER_PRB,
    SYMBOLS_PER_SLOT,
    CarrierConfig,
    Lattice,
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


def _fill(template: bytearray, n_sc: int, symbols: range, subcarriers: slice, label: ReLabel) -> None:
    """Label the free cells of a block of a 14 x n_sc template."""
    for s in symbols:
        block = slice(s * n_sc + subcarriers.start, s * n_sc + subcarriers.stop)
        template[block] = template[block].replace(b"\0", bytes((label,)))


def _subframe_templates(cfg: LteCellConfig, n_prb: int) -> Tuple[bytes, bytes, bytes, bytes]:
    """14 x n_sc label templates in symbol-major order: (normal, MBSFN,
    subframe 0, subframe 5) mod 10; below 6 PRBs, subframes 0 and 5 are normal.

    CRS takes precedence inside the control region so control-region CRS
    stays countable; PBCH is rate-matched around CRS.
    """
    n_sc = n_prb * SC_PER_PRB
    mask = crs_mask(cfg.crs_ports, cfg.v_shift)
    crs = b"".join(row * n_prb for row in _symbols(mask, SC_PER_PRB)).translate(_CRS_LABEL)
    every = slice(0, n_sc)

    normal = bytearray(crs)
    _fill(normal, n_sc, range(cfg.pdcch_symbols), every, ReLabel.LTE_PDCCH)

    region = cfg.non_mbsfn_region_len
    muted = bytes((ReLabel.LTE_MBSFN_MUTED,)) * ((SYMBOLS_PER_SLOT - region) * n_sc)
    mbsfn = bytearray(crs[: region * n_sc]) + muted
    _fill(mbsfn, n_sc, range(region), every, ReLabel.LTE_PDCCH)

    templates = [normal, mbsfn, normal, normal]
    if n_prb >= 6:
        lo = (n_sc - SYNC_SUBCARRIERS) // 2
        center = slice(lo, lo + SYNC_SUBCARRIERS)
        sf5 = bytearray(normal)
        _fill(sf5, n_sc, PSS_SSS_SYMBOLS, center, ReLabel.LTE_PSS_SSS_PBCH)
        sf0 = bytearray(sf5)
        _fill(sf0, n_sc, PBCH_SYMBOLS, center, ReLabel.LTE_PSS_SSS_PBCH)
        templates[2:] = sf0, sf5
    return tuple(map(bytes, templates))


def apply_lte(grid: ResourceGrid, cfg: LteCellConfig) -> ResourceGrid:
    """The grid with one LTE cell placed on a copy of its lattice (`place_lte`)."""
    lattice = grid.lattice.copy()
    place_lte(lattice, grid.config, cfg)
    return ResourceGrid(grid.config, lattice)


def place_lte(labels: Lattice, carrier: CarrierConfig, cfg: LteCellConfig) -> None:
    """Place one LTE cell's downlink structure on every subframe of a 15 kHz
    carrier's writable label lattice.

    In MBSFN subframes the control region is non_mbsfn_region_len symbols
    and everything after it is muted, with no CRS beyond the non-MBSFN
    region. PSS/SSS sit in subframes 0 and 5 mod 10 and PBCH in subframe 0
    mod 10, on the center 72 subcarriers of a carrier of at least 6 PRBs (a
    narrower one carries none). Each subframe template is placed once over
    its set of subframes, so an already-labeled downlink cell raises
    ConflictError naming the first such cell; TDD uplink and guard cells
    are left as they are. A cell or neighbor that does not fit the carrier
    is a ConfigError with its first misfit's message (`misfits`).
    """
    for _, message in cfg.misfits(carrier):
        raise ConfigError(message)
    normal, mbsfn, sf0, sf5 = _subframe_templates(cfg, carrier.n_prb)
    every, mbsfn_sf = range(carrier.n_slots), cfg.mbsfn_subframes
    block = (range(SYMBOLS_PER_SLOT), range(carrier.n_subcarriers))
    place_slots(labels, [
        ([sf for sf in every if sf % 5 and sf not in mbsfn_sf], *block, normal),
        ([sf for sf in every if sf in mbsfn_sf], *block, mbsfn),
        ([sf for sf in every[0::10] if sf not in mbsfn_sf], *block, sf0),
        ([sf for sf in every[5::10] if sf not in mbsfn_sf], *block, sf5),
    ])
