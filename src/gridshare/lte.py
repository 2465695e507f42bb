"""LTE incumbent footprints: CRS combs, PDCCH region, sync/PBCH, MBSFN.

`crs_mask` is the single source of the CRS rule (TS 36.211 §6.10.1.2,
normal CP). Every other CRS fact is derived from it: the cell sets of
`crs_cells`, which `mrss.neighbor_interference` classifies its pool by, the
per-symbol counts behind the closed forms in `budget`, the DMRS check of
`budget.dss_pool_by_grid`, and the subframe templates that `place_lte`
places on the grid.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Set, Tuple

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
from .value import value

SYNC_SUBCARRIERS = 72  # center 6 PRBs
PSS_SSS_SYMBOLS = range(5, 7)  # last two symbols of slot 0
PBCH_SYMBOLS = range(7, 11)  # first four symbols of slot 1

# Subframes (mod 10) that may carry MBSFN, per duplex (TS 36.331
# MBSFN-SubframeConfig): FDD keeps 0, 4, 5 and 9 for sync and paging.
MBSFN_ALLOWED = {"FDD": frozenset({1, 2, 3, 6, 7, 8}), "TDD": frozenset({3, 4, 7, 8, 9})}


@value
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
        if self.cell_id < 0:
            raise ConfigError(f"cell_id must be >= 0, got {self.cell_id}")
        if self.crs_ports not in (1, 2, 4):
            raise ConfigError(f"crs_ports must be 1, 2 or 4, got {self.crs_ports}")
        if self.pdcch_symbols not in (1, 2, 3):
            raise ConfigError(f"pdcch_symbols must be 1..3, got {self.pdcch_symbols}")
        if self.non_mbsfn_region_len not in (1, 2):
            raise ConfigError(
                f"non_mbsfn_region_len must be 1 or 2, got {self.non_mbsfn_region_len}"
            )

    @property
    def v_shift(self) -> int:
        return self.cell_id % 6


def check_mbsfn(carrier: CarrierConfig, cell: LteCellConfig) -> None:
    """Each MBSFN subframe lies in the carrier span, may carry MBSFN on the
    carrier's duplex (MBSFN_ALLOWED), and is a TDD downlink subframe."""
    n_subframes = carrier.n_slots // carrier.slots_per_ms
    allowed_sf = MBSFN_ALLOWED[carrier.duplex]
    for sf in sorted(cell.mbsfn_subframes):
        if sf >= n_subframes:
            raise ConfigError(f"subframe {sf} is beyond the {n_subframes}-subframe carrier span")
        if sf % 10 not in allowed_sf:
            raise ConfigError(
                f"subframe {sf} cannot carry MBSFN on {carrier.duplex}: "
                f"only subframes {sorted(allowed_sf)} mod 10 can (TS 36.331)"
            )
        kind = carrier.slot_kind(sf * carrier.slots_per_ms)
        if kind is not SlotKind.DOWNLINK:
            raise ConfigError(
                f"subframe {sf} cannot carry MBSFN: the TDD pattern makes it {kind.name.lower()}"
            )


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
    if crs_ports not in (0, 1, 2, 4):
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


@lru_cache(maxsize=None)
def crs_re_per_symbol(crs_ports: int) -> Tuple[int, ...]:
    """CRS cells per PRB on each subframe symbol (independent of v_shift)."""
    mask = crs_mask(crs_ports)
    return tuple(SC_PER_PRB - row.count(0) for row in _symbols(mask, SC_PER_PRB))


def _symbols(row: bytes, n_sc: int) -> Tuple[bytes, ...]:
    """A 14 x n_sc row's symbols."""
    return tuple(row[s * n_sc : (s + 1) * n_sc] for s in range(SYMBOLS_PER_SLOT))


def crs_bearing_symbols(crs_ports: int) -> FrozenSet[int]:
    """Subframe symbols that carry CRS for a port count (0: none)."""
    return frozenset(s for s, n in enumerate(crs_re_per_symbol(crs_ports)) if n)


def crs_cells(cfg: LteCellConfig, n_prb: int) -> Set[Tuple[int, int, int]]:
    """CRS cell set as (symbol, subcarrier, port) tuples for one subframe.

    The pattern repeats every subframe; 8/16/24 cells per PRB for 1/2/4 ports.
    """
    mask = crs_mask(cfg.crs_ports, cfg.v_shift)
    return {(s, m * SC_PER_PRB + k, port - 1)
            for s, row in enumerate(_symbols(mask, SC_PER_PRB))
            for k, port in enumerate(row) if port
            for m in range(n_prb)}


# Port + 1 -> CRS label; 0 stays UNLABELED.
_CRS_LABEL = bytes([ReLabel.UNLABELED] + [ReLabel.lte_crs(p) for p in range(4)]).ljust(256, b"\0")


def _fill(template: bytearray, n_sc: int, symbols: range, subcarriers: slice, label: ReLabel) -> None:
    """Label the free cells of a block of a 14 x n_sc template."""
    for s in symbols:
        block = slice(s * n_sc + subcarriers.start, s * n_sc + subcarriers.stop)
        template[block] = template[block].replace(b"\0", bytes((label,)))


def _subframe_templates(
    cfg: LteCellConfig, n_prb: int, sync: bool
) -> Tuple[bytes, bytes, bytes, bytes]:
    """14 x n_sc label templates in symbol-major order: (normal, MBSFN,
    subframe 0, subframe 5) mod 10.

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
    if sync:
        lo = (n_sc - SYNC_SUBCARRIERS) // 2
        center = slice(lo, lo + SYNC_SUBCARRIERS)
        sf5 = bytearray(normal)
        _fill(sf5, n_sc, PSS_SSS_SYMBOLS, center, ReLabel.LTE_PSS_SSS_PBCH)
        sf0 = bytearray(sf5)
        _fill(sf0, n_sc, PBCH_SYMBOLS, center, ReLabel.LTE_PSS_SSS_PBCH)
        templates[2:] = sf0, sf5
    return tuple(map(bytes, templates))


def apply_lte(grid: ResourceGrid, cfg: LteCellConfig, include_sync: bool = True) -> ResourceGrid:
    """The grid with one LTE cell placed on a copy of its lattice (`place_lte`)."""
    lattice = grid.lattice.copy()
    place_lte(lattice, grid.config, cfg, include_sync)
    return ResourceGrid(grid.config, lattice)


def place_lte(
    labels: Lattice, carrier: CarrierConfig, cfg: LteCellConfig, include_sync: bool = True
) -> None:
    """Place one LTE cell's downlink structure on every subframe of a 15 kHz
    carrier's writable label lattice.

    In MBSFN subframes the control region is non_mbsfn_region_len symbols
    and everything after it is muted, with no CRS beyond the non-MBSFN
    region. PSS/SSS sit in subframes 0 and 5 mod 10 and PBCH in subframe 0
    mod 10, on the center 72 subcarriers (requires n_prb >= 6; skipped when
    include_sync is False). Each subframe template is placed strictly, once
    over its set of subframes, so an already-labeled downlink cell raises
    ConflictError naming the first such cell; TDD uplink and guard cells
    are left as they are.
    """
    if carrier.scs_khz != 15:
        raise ConfigError("LTE requires 15 kHz")
    normal, mbsfn, sf0, sf5 = _subframe_templates(
        cfg, carrier.n_prb, include_sync and carrier.n_prb >= 6
    )
    every, mbsfn_sf = range(carrier.n_slots), cfg.mbsfn_subframes
    block = (range(SYMBOLS_PER_SLOT), range(carrier.n_subcarriers))
    place_slots(labels, [
        ([sf for sf in every if sf % 5 and sf not in mbsfn_sf], *block, normal),
        ([sf for sf in every if sf in mbsfn_sf], *block, mbsfn),
        ([sf for sf in every[0::10] if sf not in mbsfn_sf], *block, sf0),
        ([sf for sf in every[5::10] if sf not in mbsfn_sf], *block, sf5),
    ])
