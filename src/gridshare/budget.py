"""RE budget accounting: DSS per-PRB budgets and NR carrier overhead.

Every number is produced twice: by closed form and, where requested, by
building the actual labeled grid and counting. The two routes must agree
cell-for-cell; tests rely on that duality.

The DSS slot lives here alone: `dss_pool_per_prb` is its one per-PRB closed
form and `dss_pool_by_grid` its one validated placement, for the DSS slot
and for the pure LTE and pure NR slots that `dss_table` compares it with.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .errors import ConfigError, GridShareError
from .grid import (
    SC_PER_PRB,
    SYMBOLS_PER_SLOT,
    CarrierConfig,
    ReLabel,
    ResourceGrid,
    SlotKind,
    count_labels,
    new_labels,
    place_slots,
)
from .lte import LteCellConfig, crs_bearing_symbols, crs_re_per_symbol, place_lte
from .nr import SIGNALS, NrOverlaySet, nr_plan, place_nr
from .rounding import pct
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
    """Closed-form schedulable NR data REs per PRB in a DSS slot.

    crs_ports 0 with lte_pdcch 0 is a pure NR slot; nr_pdcch 0 with no DMRS
    is the LTE data region of a pure LTE subframe.
    """
    crs = crs_re_per_symbol(crs_ports)
    dmrs = set(dmrs_symbols)
    return sum(
        SC_PER_PRB - crs[s]
        for s in range(lte_pdcch + nr_pdcch, SYMBOLS_PER_SLOT)
        if s not in dmrs
    )


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
    Each DMRS symbol lies after the control region and off the CRS-bearing
    symbols (no puncturing is modeled).
    """
    check_ports((crs_ports,), lte_pdcch)
    check_control_fits(lte_pdcch, nr_pdcch)
    control_end = lte_pdcch + nr_pdcch
    blocked = crs_bearing_symbols(crs_ports)
    for s in dmrs_symbols:
        if not 0 <= s < SYMBOLS_PER_SLOT:
            raise ConfigError(f"DMRS symbol {s} out of range")
        if s in blocked:
            raise ConfigError(f"DMRS symbol {s} collides with a CRS-bearing symbol")
        if s < control_end:
            raise ConfigError(f"DMRS symbol {s} collides with the control region")
    carrier = CarrierConfig(15, n_prb=n_prb, duplex="FDD", span_ms=1)
    labels = new_labels(carrier)
    if crs_ports > 0:
        cfg = LteCellConfig(cell_id=0, crs_ports=crs_ports, pdcch_symbols=lte_pdcch)
        place_lte(labels, carrier, cfg, include_sync=False)
    # NR control, then each DMRS symbol, rate-matched around CRS.
    blocks = [(range(lte_pdcch, control_end), ReLabel.NR_PDCCH_CORESET1)]
    for symbols, label in blocks + [(range(s, s + 1), ReLabel.NR_DMRS) for s in dmrs_symbols]:
        place_slots(labels, [((0,), symbols, range(carrier.n_subcarriers), label)], rate_match=True)
    counts = count_labels(ResourceGrid(carrier, labels))
    return counts.get(ReLabel.UNLABELED, 0) // n_prb


def _checked_pool(crs_ports: int, lte_pdcch: int, nr_pdcch: int, dmrs_symbols: Sequence[int]) -> int:
    """`dss_pool_per_prb`, checked against `dss_pool_by_grid`; disagreement is a hard error."""
    closed = dss_pool_per_prb(crs_ports, lte_pdcch, nr_pdcch, dmrs_symbols)
    counted = dss_pool_by_grid(crs_ports, lte_pdcch, nr_pdcch, dmrs_symbols)
    if counted != closed:
        raise GridShareError(f"closed-form/grid mismatch for {crs_ports} ports: {closed} vs {counted}")
    return closed


def dss_table(
    dmrs_count: int = 2,
    lte_pdcch: int = 2,
    nr_pdcch: int = 1,
    ports: Sequence[int] = (1, 2, 4),
) -> List[BudgetRow]:
    """Per-PRB DSS budget rows across CRS port configurations.

    All three pools come from `dss_pool_per_prb`, each cross-checked on its
    labeled grid: the DSS slot, the pure LTE subframe (no NR control or DMRS)
    and the pure NR slot (no incumbent). Every port count is checked
    (`check_ports`) before any row is computed, and each row's DSS pool
    before its other two.
    """
    check_ports(ports, lte_pdcch)
    rows: List[BudgetRow] = []
    nr_re = None
    for p in ports:
        dmrs = default_dmrs_symbols(p, lte_pdcch + nr_pdcch, dmrs_count)
        dss_re = _checked_pool(p, lte_pdcch, nr_pdcch, dmrs)
        # Degenerate no-incumbent case (p=0): the "DSS" slot is a pure NR slot.
        lte_re = dss_re if p == 0 else _checked_pool(p, lte_pdcch, 0, ())
        if nr_re is None:
            nr_re = _checked_pool(0, 0, nr_pdcch, default_dmrs_symbols(0, nr_pdcch, dmrs_count))
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


def downlink_re(carrier: CarrierConfig) -> int:
    """Downlink-capable REs over the carrier window."""
    return sum(carrier.dl_symbols_in_slot(s) for s in range(carrier.n_slots)) * carrier.n_subcarriers


def nr_overhead(carrier: CarrierConfig, overlay: NrOverlaySet) -> OverheadReport:
    """Overhead breakdown over one period of a TDD NR carrier.

    The overlay is first checked against the carrier as `place_nr` checks
    it before it writes (`nr_plan`), so no overlay the grid rejects is
    reported. Rows are counted independently and summed without overlap
    deduction; the placement in place_nr keeps them disjoint, so grid
    verification agrees with the arithmetic sum.
    """
    if carrier.duplex != "TDD":
        raise ConfigError("overhead accounting expects a TDD carrier")
    nr_plan(carrier, overlay)
    counts = overlay.signal_counts(carrier)
    total_re = carrier.n_slots * SYMBOLS_PER_SLOT * carrier.n_subcarriers
    dl_re = downlink_re(carrier)

    def row(name: str, summary: str, count: int) -> OverheadRow:
        return OverheadRow(name, summary, count, pct(count, total_re), pct(count, dl_re))

    rows = tuple(
        row(signal.name, spec.summary(carrier, overlay.period_ms) if (spec := signal.spec(overlay)) else "",
            counts[signal.name])
        for signal in SIGNALS
    )
    pattern = carrier.tdd_pattern
    summary = pattern.cycle_str
    if SlotKind.SPECIAL in pattern.cycle:
        dl, guard, ul = pattern.special_split
        summary += (f"; S slot with {dl} downlink symbols, {guard} guard symbols, "
                    f"and {ul} uplink symbols")
    total_row = row("Total", summary, sum(counts.values()))
    return OverheadReport(rows=rows, total_row=total_row, total_re=total_re, downlink_re=dl_re)


def verify_overhead_by_grid(carrier: CarrierConfig, overlay: NrOverlaySet) -> Dict[str, int]:
    """Grid route for the overhead table: place every footprint and count."""
    labels = new_labels(carrier)
    place_nr(labels, carrier, overlay)
    counts = count_labels(ResourceGrid(carrier, labels))
    return {signal.name: counts.get(signal.label, 0) for signal in SIGNALS}
