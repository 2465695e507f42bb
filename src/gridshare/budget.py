"""RE budget accounting: DSS per-PRB budgets and NR carrier overhead.

Every number is produced twice: by closed form and, where requested, by
building the actual labeled grid and counting. The two routes must agree
cell-for-cell; tests rely on that duality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import ConfigError, GridShareError
from .grid import (
    SC_PER_PRB,
    SYMBOLS_PER_SLOT,
    CarrierConfig,
    Numerology,
    ReLabel,
    ResourceGrid,
    count_labels,
    new_labels,
    place,
)
from .lte import LteCellConfig, crs_bearing_symbols, crs_re_per_symbol, place_lte
from .nr import NR_LABELS, SIGNAL_ORDER, NrOverlaySet, dss_control_rows, place_nr
from .rounding import pct, round_half_up
from .value import value


@value
class DssLayout:
    """Per-slot DSS symbol budget: LTE control, NR control, NR DMRS count."""

    lte_pdcch: int = 2
    nr_pdcch: int = 1
    dmrs_count: int = 2

    def __post_init__(self):
        if not 0 <= self.lte_pdcch <= 3:
            raise ConfigError(f"lte_pdcch must be 0..3, got {self.lte_pdcch}")
        if self.nr_pdcch < 0:
            raise ConfigError(f"nr_pdcch must be >= 0, got {self.nr_pdcch}")
        if self.dmrs_count < 0:
            raise ConfigError(f"dmrs_count must be >= 0, got {self.dmrs_count}")

    @property
    def control_end(self) -> int:
        return self.lte_pdcch + self.nr_pdcch


@value
class BudgetRow:
    crs_ports: int
    dss_re: int
    nr_re: int
    lte_re: int
    loss_vs_nr_pct: float
    loss_vs_lte_pct: float


@value
class OverheadRow:
    signal_name: str
    config_summary: str
    re_count: int
    pct_of_total: float
    pct_of_downlink: float


@value
class OverheadReport:
    rows: Tuple[OverheadRow, ...]
    total_row: OverheadRow
    total_re: int
    downlink_re: int


def default_dmrs_symbols(crs_ports: int, control_end: int, dmrs_count: int) -> Tuple[int, ...]:
    """Front+back DMRS placement avoiding CRS-bearing and control symbols.

    Symbol 12 (never CRS-bearing) anchors the back; the remaining symbols
    are the earliest valid ones after the control region.
    """
    if dmrs_count == 0:
        return ()
    blocked = crs_bearing_symbols(crs_ports)
    chosen = [12] if control_end <= 12 else []
    for s in range(control_end, SYMBOLS_PER_SLOT):
        if len(chosen) >= dmrs_count:
            break
        if s in blocked or s in chosen:
            continue
        chosen.append(s)
    if len(chosen) < dmrs_count:
        raise ConfigError(
            f"cannot place {dmrs_count} DMRS symbols outside CRS and control regions"
        )
    return tuple(sorted(chosen[:dmrs_count]))


def dss_pool_per_prb(
    crs_ports: int,
    lte_pdcch: int,
    nr_pdcch: int,
    dmrs_symbols: Sequence[int],
) -> int:
    """Closed-form schedulable NR data REs per PRB in a DSS slot."""
    crs = crs_re_per_symbol(crs_ports)
    dmrs = set(dmrs_symbols)
    return sum(
        SC_PER_PRB - crs[s]
        for s in range(lte_pdcch + nr_pdcch, SYMBOLS_PER_SLOT)
        if s not in dmrs
    )


def nr_pool_per_prb(nr_pdcch: int, dmrs_count: int) -> int:
    """Pure-NR slot data REs per PRB (no incumbent)."""
    return (SYMBOLS_PER_SLOT - nr_pdcch - dmrs_count) * SC_PER_PRB


def lte_pool_per_prb(crs_ports: int, lte_pdcch: int) -> int:
    """Pure-LTE subframe data REs per PRB (after control, minus CRS)."""
    crs = crs_re_per_symbol(crs_ports)
    return sum(SC_PER_PRB - crs[s] for s in range(lte_pdcch, SYMBOLS_PER_SLOT))


def check_ports(ports: Sequence[int], lte_pdcch: int) -> None:
    """Each CRS port count is 0, 1, 2 or 4 and fits the LTE control region:
    an incumbent (ports > 0) needs lte_pdcch > 0, and none (ports 0) needs 0."""
    for p in ports:
        if p not in (0, 1, 2, 4):
            raise ConfigError(f"crs_ports must be 0, 1, 2 or 4, got {p}")
        if p == 0 and lte_pdcch != 0:
            raise ConfigError(f"crs_ports=0 (no incumbent) requires lte_pdcch=0, got {lte_pdcch}")
        if p > 0 and lte_pdcch == 0:
            raise ConfigError("lte_pdcch=0 requires crs_ports=0 (no incumbent)")


def check_control_fits(lte_pdcch: int, nr_pdcch: int) -> None:
    """LTE and NR control together fit in one slot."""
    if lte_pdcch + nr_pdcch > SYMBOLS_PER_SLOT:
        raise ConfigError(
            f"LTE and NR control take {lte_pdcch + nr_pdcch} symbols, more than the "
            f"{SYMBOLS_PER_SLOT} of a slot"
        )


def dss_pool_by_grid(
    crs_ports: int,
    lte_pdcch: int,
    nr_pdcch: int,
    dmrs_symbols: Sequence[int],
    n_prb: int = 1,
) -> int:
    """Brute-force route: build the labeled slot and count the data pool.

    crs_ports 0 is a pure NR slot: no LTE overlay, and lte_pdcch must be 0.
    """
    check_ports((crs_ports,), lte_pdcch)
    check_control_fits(lte_pdcch, nr_pdcch)
    carrier = CarrierConfig(Numerology(15), n_prb=n_prb, duplex="FDD", span_ms=1)
    arr = new_labels(carrier)
    if crs_ports > 0:
        cfg = LteCellConfig(cell_id=0, crs_ports=crs_ports, pdcch_symbols=lte_pdcch)
        place_lte(arr, carrier, cfg, include_sync=False)
    rows = dss_control_rows(range(lte_pdcch, lte_pdcch + nr_pdcch), dmrs_symbols)
    place(arr, (0,), rows, rate_match=True)
    counts = count_labels(ResourceGrid(carrier, arr))
    return counts.get(ReLabel.UNLABELED, 0) // n_prb


def dss_table(
    dmrs_count: int = 2,
    lte_pdcch: int = 2,
    nr_pdcch: int = 1,
    ports: Sequence[int] = (1, 2, 4),
) -> List[BudgetRow]:
    """Per-PRB DSS budget rows across CRS port configurations.

    Rows are computed by closed form and cross-checked by building the
    labeled grids and counting; disagreement is a hard error. Every port
    count is checked (`check_ports`) before any row is computed.
    """
    check_ports(ports, lte_pdcch)
    rows: List[BudgetRow] = []
    nr_re = nr_pool_per_prb(nr_pdcch, dmrs_count)
    for p in ports:
        ctrl_end = lte_pdcch + nr_pdcch
        dmrs = default_dmrs_symbols(p, ctrl_end, dmrs_count)
        dss_re = dss_pool_per_prb(p, lte_pdcch, nr_pdcch, dmrs)
        # Degenerate no-incumbent case (p=0): the "DSS" slot is a pure NR slot.
        lte_re = dss_re if p == 0 else lte_pool_per_prb(p, lte_pdcch)
        counted = dss_pool_by_grid(p, lte_pdcch, nr_pdcch, dmrs)
        if counted != dss_re:
            raise GridShareError(f"closed-form/grid mismatch for {p} ports: {dss_re} vs {counted}")
        rows.append(
            BudgetRow(
                crs_ports=p,
                dss_re=dss_re,
                nr_re=nr_re,
                lte_re=lte_re,
                loss_vs_nr_pct=pct(nr_re - dss_re, nr_re),
                loss_vs_lte_pct=pct(lte_re - dss_re, lte_re),
            )
        )
    return rows


def _config_summaries(overlay: NrOverlaySet, carrier: CarrierConfig) -> Dict[str, str]:
    out = {}
    if overlay.ssb:
        out["SSB"] = f"{overlay.ssb.beams} beams, {overlay.ssb.prbs} PRBs, {overlay.ssb.symbols} symbols"
    if overlay.coreset0:
        out["CORESET 0"] = f"{overlay.coreset0.beams} beams, {overlay.coreset0.prbs} PRBs, {overlay.coreset0.symbols} symbols"
    if overlay.sib1:
        out["SIB1"] = f"{overlay.sib1.beams} beams, {overlay.sib1.prbs} PRBs, {overlay.sib1.symbols} symbols"
    if overlay.coreset1:
        out["CORESET 1"] = (
            f"{overlay.coreset1.prbs} PRBs, {overlay.coreset1.symbols} symbols, "
            f"{overlay.coreset1.monitored_count(carrier)} DL-bearing slots"
        )
    if overlay.csi_rs:
        out["CSI-RS"] = (
            f"{overlay.csi_rs.ports} ports, density {overlay.csi_rs.density_re_per_port_per_prb} RE/port/PRB, "
            f"{overlay.csi_rs.prbs} PRBs, {overlay.csi_rs.occasions_per_period} occasion(s) / {overlay.period_ms} ms"
        )
    if overlay.trs:
        out["TRS"] = (
            f"{overlay.trs.prbs} PRBs, {overlay.trs.slots_per_occasion}-slot occasion, "
            f"{overlay.trs.re_per_prb_per_slot} RE/PRB/slot, {overlay.trs.beams} beams, "
            f"{overlay.trs.occasions_per_period} occasions / {overlay.period_ms} ms"
        )
    return out


def downlink_re(carrier: CarrierConfig) -> int:
    """Downlink-capable REs over the carrier window."""
    return sum(carrier.dl_symbols_in_slot(s) for s in range(carrier.n_slots)) * carrier.n_subcarriers


def nr_overhead(carrier: CarrierConfig, overlay: NrOverlaySet) -> OverheadReport:
    """Overhead breakdown over one period of a TDD NR carrier.

    Rows are counted independently and summed without overlap deduction;
    the placement in place_nr keeps them disjoint, so grid verification
    agrees with the arithmetic sum.
    """
    if carrier.duplex != "TDD":
        raise ConfigError("overhead accounting expects a TDD carrier")
    if overlay.period_ms != carrier.span_ms:
        raise ConfigError(
            f"overlay period {overlay.period_ms} ms != carrier span {carrier.span_ms} ms"
        )
    counts = overlay.signal_counts(carrier)
    total_re = carrier.n_slots * SYMBOLS_PER_SLOT * carrier.n_subcarriers
    dl_re = downlink_re(carrier)
    summaries = _config_summaries(overlay, carrier)
    rows = tuple(
        OverheadRow(
            signal_name=name,
            config_summary=summaries.get(name, ""),
            re_count=counts[name],
            pct_of_total=pct(counts[name], total_re),
            pct_of_downlink=pct(counts[name], dl_re),
        )
        for name in SIGNAL_ORDER
    )
    total_count = sum(counts.values())
    split = carrier.tdd_pattern.special_split
    total_row = OverheadRow(
        signal_name="Total",
        config_summary=(
            f"{carrier.tdd_pattern.cycle_str}; S slot with {split[0]} downlink symbols, "
            f"{split[1]} guard symbols, and {split[2]} uplink symbols"
        ),
        re_count=total_count,
        pct_of_total=pct(total_count, total_re),
        pct_of_downlink=pct(total_count, dl_re),
    )
    return OverheadReport(rows=rows, total_row=total_row, total_re=total_re, downlink_re=dl_re)


def verify_overhead_by_grid(carrier: CarrierConfig, overlay: NrOverlaySet) -> Dict[str, int]:
    """Grid route for the overhead table: place every footprint and count."""
    arr = new_labels(carrier)
    place_nr(arr, carrier, overlay)
    counts = count_labels(ResourceGrid(carrier, arr))
    return {name: counts.get(label, 0) for name, label in NR_LABELS.items()}


def dominance_share(report: OverheadReport, signal_name: str) -> float:
    """One signal's share of the total overhead, percent at 1 dp."""
    for row in report.rows:
        if row.signal_name == signal_name:
            if report.total_row.re_count == 0:
                return 0.0
            return round_half_up(
                Fraction(100 * row.re_count, report.total_row.re_count), 1
            )
    raise ConfigError(f"unknown signal name {signal_name!r}")
