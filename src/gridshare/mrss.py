"""Dual-RAT coexistence behavior on top of the labeled grid.

Covers the three-category MRSS resource model with a slot-level scheduler,
and neighbor-cell CRS interference with its mitigation strategies. The DSS
slot itself (NR rate-matched around LTE CRS) is budgeted in `budget`.

An MRSS map is one labeled grid, `MrssCategoryMap(grid)`. Its stages write
a writable lattice, as `place_lte` and `place_nr` do, in one all-or-nothing
call each, and relabel only shared-pool cells, with a label of their own
(control growth SIXG_CONTROL, `reserve_iot` RESERVED_IOT, `place_6g_ssb`
SIXG_SSB, a plain `place_slots` placement on free cells). A cell's category
is always its label's, read through `_CATEGORY_OF_LABEL` from the grid's
label counts (`grid.label_counts`, once per distinct row), so
`grid.count_labels` counts stage labels too.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import numbers
from array import array
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

from .budget import DssLayout, check_control_fits, default_dmrs_symbols, dss_pool_mask
from .errors import ConfigError, ConflictError, PlacementError
from .grid import (
    SC_PER_PRB,
    SYMBOLS_PER_SLOT,
    CarrierConfig,
    Lattice,
    ReLabel,
    ResourceGrid,
    Window,
    label_counts,
    label_totals,
    place_slots,
)
from .lte import LteCellConfig, crs_mask
from .pcg64 import Pcg64
from .value import Int, value

# Category codes: the indices of a map's category sizes.
CAT_NON_DL = 0
CAT_SHARED = 1
CAT_RESERVED = 2
CAT_CONTROL = 3

DEFAULT_RESERVED_LABELS = frozenset(
    {
        ReLabel.NR_SSB,
        ReLabel.NR_PDCCH_CORESET0,
        ReLabel.NR_SIB1,
        ReLabel.NR_CSI_RS,
        ReLabel.NR_TRS,
        ReLabel.RESERVED_IOT,
        ReLabel.SIXG_SSB,
    }
)

CONTROL_LABELS = frozenset({ReLabel.NR_PDCCH_CORESET1, ReLabel.SIXG_CONTROL})

_NON_DL_LABELS = frozenset({ReLabel.UPLINK_SYMBOL, ReLabel.GUARD_SYMBOL})

# The label -> category table a map row translates by, one byte per label
# and padded to the 256 bytes of a translate table; every label not named
# above is shared.
_CATEGORY_OF_LABEL = bytes(
    CAT_NON_DL if label in _NON_DL_LABELS else CAT_RESERVED if label in DEFAULT_RESERVED_LABELS
    else CAT_CONTROL if label in CONTROL_LABELS else CAT_SHARED
    for label in ReLabel
).ljust(256, bytes((CAT_NON_DL,)))

# The byte tables by which control growth and `reserve_iot` turn every
# shared-pool label into their own and keep the rest.
_SHARED_TO_CONTROL, _SHARED_TO_IOT = (
    bytes(label if code == CAT_SHARED else old for old, code in enumerate(_CATEGORY_OF_LABEL))
    for label in (ReLabel.SIXG_CONTROL, ReLabel.RESERVED_IOT)
)

# Per label value, whether the label is the shared pool's.
_IS_SHARED = [code == CAT_SHARED for code in _CATEGORY_OF_LABEL[:len(ReLabel)]]


class ControlModeKind(Enum):
    FULLY_OVERLAPPING = "FullyOverlapping"
    PARTIALLY_OVERLAPPING = "PartiallyOverlapping"
    SEPARATE = "Separate"


def _check_real(name: str, v: object) -> None:
    if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
        raise ConfigError(f"{name} must be a real number, got {v!r}")


@value
class ControlMode:
    kind: ControlModeKind = ControlModeKind.FULLY_OVERLAPPING
    shared_fraction: Optional[float] = None

    def __post_init__(self):
        _check_real("shared_fraction", self.shared_fraction)
        if self.kind is ControlModeKind.PARTIALLY_OVERLAPPING:
            if self.shared_fraction is None or not 0.0 <= self.shared_fraction <= 1.0:
                raise ConfigError("PartiallyOverlapping needs shared_fraction in [0, 1]")
        elif self.shared_fraction is not None:
            raise ConfigError(f"{self.kind.value} takes no shared_fraction")

    @property
    def footprint_factor(self) -> numbers.Rational:
        """Exact control footprint multiplier: 1 or 2, or for PartiallyOverlapping
        a `Fraction`, with shared_fraction read as its decimal text."""
        if self.kind is ControlModeKind.FULLY_OVERLAPPING:
            return 1
        if self.kind is ControlModeKind.SEPARATE:
            return 2
        from fractions import Fraction

        return 2 - Fraction(str(self.shared_fraction))


class SchedPolicy(Enum):
    PRIORITY_5G = "Priority5G"
    PRIORITY_6G = "Priority6G"
    PROPORTIONAL_SHARE = "ProportionalShare"


@value
class Mitigation:
    kind: str  # ServingOnlyRateMatch | NeighborAwareRateMatch | SymbolLevelMute | ReceiverCancellation
    effectiveness: Optional[float] = None

    KINDS = (
        "ServingOnlyRateMatch",
        "NeighborAwareRateMatch",
        "SymbolLevelMute",
        "ReceiverCancellation",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown mitigation {self.kind!r}")
        eff = self.effectiveness
        _check_real("effectiveness", eff)
        if self.kind == "ReceiverCancellation":
            if eff is None or not 0.0 <= eff <= 1.0:
                raise ConfigError("ReceiverCancellation needs effectiveness in [0, 1]")
        elif self.effectiveness is not None:
            raise ConfigError(f"{self.kind} takes no effectiveness")


# Largest per-slot demand in REs; a drawn demand then fits the int64 array
# the stream returns.
MAX_DEMAND = 2**47


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def check_demand(d: object) -> object:
    """A per-slot demand as TrafficModel stores it: an int or an (lo, hi)
    tuple of ints, within [0, MAX_DEMAND]. Raises ConfigError otherwise."""
    if isinstance(d, (list, tuple)):
        if len(d) != 2 or not all(map(_is_int, d)) or d[0] < 0 or d[1] < d[0]:
            raise ConfigError("range must be (lo, hi) ints with 0 <= lo <= hi")
        d = tuple(d)
        top = d[1]
    elif _is_int(d):
        if d < 0:
            raise ConfigError("must be >= 0")
        top = d
    else:
        raise ConfigError("must be an int or a (lo, hi) pair")
    if top > MAX_DEMAND:
        raise ConfigError(f"must not exceed 2**47 = {MAX_DEMAND} REs per slot, got {top}")
    return d


@value(seed=Int(0))
class TrafficModel:
    """Per-RAT offered load in REs per slot; constant or seeded uniform."""

    demand_5g: object  # int or (lo, hi)
    demand_6g: object
    seed: int = 0

    def __post_init__(self):
        for name in ("demand_5g", "demand_6g"):
            try:
                object.__setattr__(self, name, check_demand(getattr(self, name)))
            except ConfigError as exc:
                raise ConfigError(f"{name} {exc}") from None

    def demands(self, n_slots: int) -> Tuple[array, array]:
        """Per-slot demand sequences (int64 arrays), 5G then 6G from one seeded
        stream (`pcg64.Pcg64`); identical seed yields identical draws."""
        stream = Pcg64(self.seed)

        def draw(d):
            if isinstance(d, tuple):
                return stream.integers(d[0], d[1], n_slots)
            return array("q", [d]) * n_slots

        return draw(self.demand_5g), draw(self.demand_6g)


@value
class MrssCategoryMap:
    """Partition of the downlink-capable cells into shared/reserved/control.

    An immutable value, its own labeled `grid`, so one map can serve many
    `simulate` calls. Each cell's category is its label's, and its sizes
    and per-slot pool read the grid's label counts through
    `_CATEGORY_OF_LABEL`. Anything but a `ResourceGrid` is a ConfigError.
    """

    grid: ResourceGrid

    def __post_init__(self):
        if not isinstance(self.grid, ResourceGrid):
            raise ConfigError(f"a map's labels are a ResourceGrid, got {type(self.grid).__name__}")

    @property
    def shared_pool_size(self) -> int:
        return self._sizes[CAT_SHARED]

    @property
    def reserved_size(self) -> int:
        return self._sizes[CAT_RESERVED]

    @property
    def control_region_size(self) -> int:
        return self._sizes[CAT_CONTROL]

    @property
    def downlink_size(self) -> int:
        return self.grid.n_cells - self._sizes[CAT_NON_DL]

    @functools.cached_property
    def _sizes(self) -> List[int]:
        """Cells of each category: the grid's label totals, by category."""
        sizes = [0, 0, 0, 0]
        for label, n in enumerate(label_totals(self.grid.lattice)):
            sizes[_CATEGORY_OF_LABEL[label]] += n
        return sizes

    @functools.cached_property
    def _pool(self) -> List[int]:
        return _shared_cells(self.grid.lattice)

    def shared_cells_per_slot(self) -> array:
        """Shared-pool cells of each slot (`_shared_cells`, kept as `_sizes` is), a fresh int64 array."""
        return array("q", self._pool)


def _shared_cells(lattice: Lattice) -> List[int]:
    """Shared-pool cells of each slot of a lattice, from its row's label counts."""
    slots = lattice.slots
    shared = {row: sum(itertools.compress(label_counts(row), _IS_SHARED)) for row in set(slots)}
    return list(map(shared.__getitem__, slots))


@value
class SimResult:
    """One `simulate` run: per-slot grants, unused cells and drops, and their
    totals. `pure_5g` and `pure_6g` are the grants each RAT alone would get
    on the same pool, the bases of its efficiency (`total / pure`)."""

    grants_5g: Tuple[int, ...]
    grants_6g: Tuple[int, ...]
    unused: Tuple[int, ...]
    dropped_5g: Tuple[int, ...]
    dropped_6g: Tuple[int, ...]
    shared_pool_size: int
    total_5g: int
    total_6g: int
    unused_shared: int
    pure_5g: int
    pure_6g: int


@value
class InterferenceReport:
    """Per-PRB classification of the serving cell's NR data pool."""

    pool_re: int
    clean_re: int
    sacrificed_re: int
    dirty_re: int


def classify_mrss(labels: Lattice, control_mode: ControlMode = ControlMode()) -> None:
    """Grow the control region of a writable lattice, the one write of the
    shared/reserved/control partition (`MrssCategoryMap`).

    The 5G control footprint (CORESET1 cells) anchors the control region;
    partially-overlapping and separate 6G control grow it by
    footprint x (factor - 1) additional cells taken from the shared pool in
    deterministic scan order (slot, then symbol, then subcarrier) and
    relabeled SIXG_CONTROL in one `Lattice.rewrite`. Fully-overlapping
    control writes nothing; more cells than the pool holds is a
    PlacementError, with nothing written.
    """
    grow = control_mode.footprint_factor - 1
    if not grow:
        return
    extra = int(grow * sum(n for label, n in enumerate(label_totals(labels)) if label in CONTROL_LABELS))
    if extra <= 0:
        return
    shared = _shared_cells(labels)
    reach = list(itertools.accumulate(shared))
    if extra > reach[-1]:
        raise PlacementError(f"separate control needs {extra} cells but only {reach[-1]} are shared")
    # Slots before `whole` turn all their shared cells; slot `whole` turns the rest.
    whole = bisect.bisect_right(reach, extra)
    rest = extra - (reach[whole - 1] if whole else 0)

    def turn_rest(slot: int, row: bytes) -> bytes:
        categories = row.translate(_CATEGORY_OF_LABEL)
        # The cells up to the rest-th shared one.
        end = 1 + bisect.bisect_left(range(len(row)), rest,
                                     key=lambda i: categories.count(CAT_SHARED, 0, i + 1))
        return row[:end].translate(_SHARED_TO_CONTROL) + row[end:]

    labels.rewrite([([s for s in range(whole) if shared[s]],
                     lambda slot, row: row.translate(_SHARED_TO_CONTROL)),
                    ([whole] if rest else [], turn_rest)])


# Placement ranges, one fault function (the message, or "") per rule: the
# scenario's `MrssSpec.misfits` reports them, reserve_iot and place_6g_ssb raise them.
def prb_range_fault(carrier: CarrierConfig, p0: int, p1: int) -> str:
    if not 0 <= p0 <= p1 <= carrier.n_prb:
        return f"PRB range ({p0}, {p1}) out of bounds for a {carrier.n_prb}-PRB carrier"
    return ""


def slots_fault(carrier: CarrierConfig, slots: Optional[Iterable[int]]) -> str:
    """The message for the first of `slots` off the carrier, or "" (None, every slot, fits)."""
    n_slots = carrier.n_slots
    for s in slots or ():
        if not 0 <= s < n_slots:
            return f"slot {s} out of range for a {n_slots}-slot carrier"
    return ""


def ssb_occasion_fault(carrier: CarrierConfig, occasion: Sequence[int], prbs: int, symbols: int) -> str:
    slot, symbol, prb = occasion
    if not (0 <= slot < carrier.n_slots and 0 <= symbol <= SYMBOLS_PER_SLOT - symbols
            and 0 <= prb <= carrier.n_prb - prbs):
        return (f"6G SSB occasion {(slot, symbol, prb)} out of range: a {prbs}-PRB, "
                f"{symbols}-symbol block on a {carrier.n_slots}-slot, {carrier.n_prb}-PRB carrier")
    if symbol + symbols > carrier._dl_symbols[slot]:
        return (f"6G SSB occasion {(slot, symbol, prb)} is not in downlink: its symbols end at "
                f"{symbol + symbols}, slot {slot} has {carrier._dl_symbols[slot]} downlink symbols")
    return ""


def reserve_iot(labels: Lattice, carrier: CarrierConfig,
                reservations: Iterable[Tuple[int, int, Optional[Iterable[int]]]]) -> None:
    """Semi-static IoT reservations: relabel shared-pool cells of a writable
    lattice RESERVED_IOT, each reservation (prb_start, prb_stop, slots) on
    the downlink-capable cells of its PRBs in its slots (every slot when
    None). All are written in one `Lattice.rewrite`, a slot taking them in
    order: a cell there outside the shared pool, an earlier reservation's
    included, is a ConflictError (the lowest slot's), and nothing is written.
    """
    writes = []
    for p0, p1, slots in reservations:
        slots = None if slots is None else list(slots)
        if message := prb_range_fault(carrier, p0, p1) or slots_fault(carrier, slots):
            raise ConfigError(message)
        window = Window(carrier.n_subcarriers, range(SYMBOLS_PER_SLOT),
                        range(p0 * SC_PER_PRB, p1 * SC_PER_PRB))
        writes.append((range(carrier.n_slots) if slots is None else slots,
                       functools.partial(_reserve_shared, window)))
    labels.rewrite(writes)


def _reserve_shared(window: Window, slot: int, row: bytes) -> bytes:
    """The row with the window's shared-pool cells turned RESERVED_IOT;
    ConflictError at its first cell outside the pool and the non-downlink cells."""
    cells = window.read(row).translate(_CATEGORY_OF_LABEL)
    if cells.translate(None, bytes((CAT_NON_DL, CAT_SHARED))):
        bad = next(i for i, c in enumerate(cells) if c not in (CAT_NON_DL, CAT_SHARED))
        symbol, sc = window.cell(bad)
        raise ConflictError(f"cell (slot {slot}, symbol {symbol}, sc {sc}) is not in the shared pool")
    row = bytearray(row)
    for part, _ in window.parts:
        row[part] = row[part].translate(_SHARED_TO_IOT)
    return bytes(row)


def place_6g_ssb(labels: Lattice, carrier: CarrierConfig,
                 occasions: Sequence[Tuple[int, int, int]], prbs: int, symbols: int) -> None:
    """Reserve 6G SSB beam blocks of `prbs` x `symbols` at (slot,
    first_symbol, first_prb) anchors of a writable lattice.

    The hidden-from-5G constraint is structural: a block lies in its slot's
    downlink symbols (`ssb_occasion_fault`) and is labeled SIXG_SSB in one
    `place_slots` call, which needs every cell free. So a collision with
    any 5G footprint (SSB, control, ...), grown 6G control, an IoT
    reservation or an earlier occasion is a ConflictError. A slot takes its
    occasions in order: the lowest slot's error is raised, and nothing is
    written.
    """
    placements = []
    for slot, symbol, prb in occasions:
        if message := ssb_occasion_fault(carrier, (slot, symbol, prb), prbs, symbols):
            raise ConfigError(message)
        placements.append(((slot,), range(symbol, symbol + symbols),
                           range(prb * SC_PER_PRB, (prb + prbs) * SC_PER_PRB), ReLabel.SIXG_SSB))
    place_slots(labels, placements)


def _grants(
    pool: List[int], d5: List[int], d6: List[int], policy: SchedPolicy
) -> Tuple[List[int], List[int]]:
    """Per-slot (5G, 6G) grants for lists of slot pools and demands."""
    if policy is SchedPolicy.PRIORITY_5G:
        g5 = list(map(min, d5, pool))
        return g5, [min(d, p - g) for d, p, g in zip(d6, pool, g5)]
    if policy is SchedPolicy.PRIORITY_6G:
        g6 = list(map(min, d6, pool))
        return [min(d, p - g) for d, p, g in zip(d5, pool, g6)], g6
    # ProportionalShare: an overloaded slot gives each RAT the floor of its
    # demand's share of the pool. The two remainders sum to less than 2, so at
    # most one cell is left over. It goes to the larger-demand RAT; ties favor
    # 5G. A leftover cell means both demands are positive, and then each share
    # is below its demand, so neither RAT is full yet.
    g5, g6 = [], []
    for p, a, b in zip(pool, d5, d6):
        total = a + b
        if total <= p:
            g5.append(a)
            g6.append(b)
            continue
        x, y = p * a // total, p * b // total
        if x + y < p:
            if a >= b:
                x += 1
            else:
                y += 1
        g5.append(x)
        g6.append(y)
    return g5, g6


def simulate(
    cmap: MrssCategoryMap,
    traffic: TrafficModel,
    policy: SchedPolicy,
) -> SimResult:
    """Slot-level dual-RAT scheduling over every slot of the shared pool.

    Per slot: grants(5G) + grants(6G) + unused = shared cells available that
    slot; excess demand is dropped and reported. Deterministic given the
    traffic seed. Every count is a Python int, so no product overflows.
    """
    pool = cmap.shared_cells_per_slot().tolist()
    d5, d6 = (d.tolist() for d in traffic.demands(len(pool)))
    g5, g6 = _grants(pool, d5, d6, policy)
    unused = [p - a - b for p, a, b in zip(pool, g5, g6)]
    return SimResult(
        grants_5g=tuple(g5),
        grants_6g=tuple(g6),
        unused=tuple(unused),
        dropped_5g=tuple(d - g for d, g in zip(d5, g5)),
        dropped_6g=tuple(d - g for d, g in zip(d6, g6)),
        shared_pool_size=sum(pool),
        total_5g=sum(g5),
        total_6g=sum(g6),
        unused_shared=sum(unused),
        pure_5g=sum(map(min, d5, pool)),
        pure_6g=sum(map(min, d6, pool)),
    )


def neighbor_interference(
    serving: LteCellConfig,
    neighbors: Sequence[LteCellConfig],
    mitigation: Mitigation,
    layout: DssLayout = DssLayout(),
) -> InterferenceReport:
    """Classify the serving cell's per-PRB NR data pool against neighbor CRS.

    The pool is the zero cells of the serving cell's `budget.dss_pool_mask`
    (its CRS and the layout's control and DMRS symbols), the one pool
    `budget.dss_pool_per_prb` counts. A pool cell is dirty if any
    neighbor's `lte.crs_mask` marks it. Mitigations trade dirty cells
    against sacrificed pool cells; clean + sacrificed + dirty always equals
    the original pool size.
    """
    dmrs = default_dmrs_symbols(serving.crs_ports, layout.control_end, layout.dmrs_count)
    check_control_fits(layout.lte_pdcch, layout.nr_pdcch)
    # One PRB over one subframe, 14 x 12 bytes: `pool` is 0 on the pool's
    # cells, `neighbor_crs` 1 on those some neighbor's CRS marks (crs_mask(0)
    # marks none).
    pool = dss_pool_mask(serving.crs_ports, serving.v_shift, layout.control_end, dmrs)
    masks = [crs_mask(cell.crs_ports, cell.v_shift) for cell in neighbors]
    neighbor_crs = bytes(map(any, zip(crs_mask(0), *masks)))

    pool_n = pool.count(0)
    dirty = sum(1 for p, n in zip(pool, neighbor_crs) if n and not p)
    if mitigation.kind == "ServingOnlyRateMatch":
        return InterferenceReport(pool_n, pool_n - dirty, 0, dirty)
    if mitigation.kind == "NeighborAwareRateMatch":
        return InterferenceReport(pool_n, pool_n - dirty, dirty, 0)
    if mitigation.kind == "SymbolLevelMute":
        # Broad avoidance: any symbol carrying any neighbor CRS is muted,
        # whether or not its cells collide with the serving pattern.
        sacrificed = sum(pool.count(0, i, i + SC_PER_PRB) for i in range(0, len(pool), SC_PER_PRB)
                         if any(neighbor_crs[i : i + SC_PER_PRB]))
        return InterferenceReport(pool_n, pool_n - sacrificed, sacrificed, 0)
    # ReceiverCancellation: a deterministic count-level fraction of dirty
    # cells becomes clean (exact floor; effectiveness is read as its decimal
    # text), nothing is sacrificed.
    from fractions import Fraction

    reclaimed = int(Fraction(str(mitigation.effectiveness)) * dirty)
    return InterferenceReport(pool_n, pool_n - dirty + reclaimed, 0, dirty - reclaimed)
