"""Dual-RAT coexistence behavior on top of the labeled grid.

Covers the three-category MRSS resource model with a slot-level scheduler,
the classic DSS sharing mechanisms as per-PRB budgets, and neighbor-cell
CRS interference with its mitigation strategies.
"""

from __future__ import annotations

import numbers
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from .budget import (
    DssLayout,
    check_control_fits,
    default_dmrs_symbols,
    dss_pool_per_prb,
    lte_pool_per_prb,
)
from .errors import ConfigError, ConflictError, PlacementError
from .grid import (
    SC_PER_PRB,
    SYMBOLS_PER_SLOT,
    CarrierConfig,
    ReLabel,
    ResourceGrid,
    place,
)
from .lte import LteCellConfig, crs_mask, crs_re_per_symbol
from .value import value

# Category codes of the MRSS partition lattice.
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

# The label -> category table `classify_mrss` gathers; every other label is shared.
_CATEGORY_OF_LABEL = np.full(len(ReLabel), CAT_SHARED, dtype=np.uint8)
_CATEGORY_OF_LABEL[list(_NON_DL_LABELS)] = CAT_NON_DL
_CATEGORY_OF_LABEL[list(DEFAULT_RESERVED_LABELS)] = CAT_RESERVED
_CATEGORY_OF_LABEL[list(CONTROL_LABELS)] = CAT_CONTROL
_CATEGORY_OF_LABEL.setflags(write=False)
# Every label below this one (UNLABELED and the LTE labels) is shared pool.
_FIRST_NON_SHARED_LABEL = int(np.flatnonzero(_CATEGORY_OF_LABEL != CAT_SHARED)[0])


def _gather_categories(labels: np.ndarray) -> np.ndarray:
    """A fresh category lattice: `_CATEGORY_OF_LABEL` gathered from the labels."""
    categories = np.empty(labels.shape, dtype=np.uint8)
    # Slot by slot, so the gather's index temporaries stay one slot in size.
    for s in range(labels.shape[0]):
        np.take(_CATEGORY_OF_LABEL, labels[s], out=categories[s])
    return categories


class ControlModeKind(Enum):
    FULLY_OVERLAPPING = "FullyOverlapping"
    PARTIALLY_OVERLAPPING = "PartiallyOverlapping"
    SEPARATE = "Separate"


@value
class ControlMode:
    kind: ControlModeKind = ControlModeKind.FULLY_OVERLAPPING
    shared_fraction: Optional[float] = None

    def __post_init__(self):
        if self.kind is ControlModeKind.PARTIALLY_OVERLAPPING:
            if self.shared_fraction is None or not 0.0 <= self.shared_fraction <= 1.0:
                raise ConfigError("PartiallyOverlapping needs shared_fraction in [0, 1]")
        elif self.shared_fraction is not None:
            raise ConfigError(f"{self.kind.value} takes no shared_fraction")

    @property
    def footprint_factor(self) -> Fraction:
        """Exact control footprint multiplier; shared_fraction is read as its decimal text."""
        if self.kind is ControlModeKind.FULLY_OVERLAPPING:
            return Fraction(1)
        if self.kind is ControlModeKind.SEPARATE:
            return Fraction(2)
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
        if eff is not None and (isinstance(eff, bool) or not isinstance(eff, numbers.Real)):
            raise ConfigError(f"effectiveness must be a real number, got {eff!r}")
        if self.kind == "ReceiverCancellation":
            if eff is None or not 0.0 <= eff <= 1.0:
                raise ConfigError("ReceiverCancellation needs effectiveness in [0, 1]")
        elif self.effectiveness is not None:
            raise ConfigError(f"{self.kind} takes no effectiveness")


# Largest per-slot demand in REs. A slot pool below 2**16 cells (every carrier
# up to 390 PRB; NR's largest, 275 PRB, has 46,200) then keeps pool x demand
# exact in int64; `simulate` uses Python ints for a larger pool.
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


@value
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def demands(self, n_slots: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-slot demand sequences; identical seed yields identical draws."""
        rng = np.random.default_rng(self.seed)

        def draw(d):
            if isinstance(d, tuple):
                return rng.integers(d[0], d[1] + 1, size=n_slots, dtype=np.int64)
            return np.full(n_slots, d, dtype=np.int64)

        return draw(self.demand_5g), draw(self.demand_6g)


@value(no_repr=("categories", "labels"))
class MrssCategoryMap:
    """Partition of the downlink-capable cells into shared/reserved/control.

    An immutable value: its arrays are read-only, so one map can serve many
    `simulate` calls; `reserve_iot` and `place_6g_ssb` return new maps. The
    constructor takes ownership of `categories` and `labels` and marks the
    passed arrays themselves read-only; pass copies of arrays you still write.

    A map stores a category lattice only once a stage has made the
    categories differ from what the labels decide through the label ->
    category table: control growth in `classify_mrss` (PartiallyOverlapping,
    Separate), `reserve_iot` and `place_6g_ssb`. Until then it is built with
    `categories=None`: its counts are taken from the labels slot by slot,
    and reading `categories` gathers a read-only lattice once.
    """

    grid: ResourceGrid
    categories: Optional[np.ndarray]
    labels: np.ndarray
    control_mode: ControlMode = ControlMode()

    def __post_init__(self):
        if self._stored is not None:
            self._stored.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def _stored(self) -> Optional[np.ndarray]:
        """The stored category lattice; None where the labels decide it."""
        return self.__dict__["categories"]

    @property
    def categories(self) -> np.ndarray:
        """The category lattice, read-only: stored, or gathered from the labels once."""
        return self._gathered if self._stored is None else self._stored

    @cached_property
    def _gathered(self) -> np.ndarray:
        categories = _gather_categories(self.labels)
        categories.setflags(write=False)
        return categories

    def writable_categories(self) -> np.ndarray:
        """A new writable category lattice, for a stage that changes categories."""
        stored = self._stored
        return _gather_categories(self.labels) if stored is None else stored.copy()

    @property
    def shared_pool_size(self) -> int:
        return int(self._cells_per_slot[CAT_SHARED].sum())

    @property
    def reserved_size(self) -> int:
        return int(self._cells_per_slot[CAT_RESERVED].sum())

    @property
    def control_region_size(self) -> int:
        return int(self._cells_per_slot[CAT_CONTROL].sum())

    @property
    def downlink_size(self) -> int:
        return int(self.labels.size - self._cells_per_slot[CAT_NON_DL].sum())

    @cached_property
    def _cells_per_slot(self) -> Tuple[np.ndarray, ...]:
        """Per category code, the cells of each slot: one read-only row each.

        One pass, slot by slot, so no temporary spans the whole lattice.
        With no stored lattice, each slot's largest label decides whether
        all its cells are shared pool; any other slot is gathered into a
        one-slot buffer half a slot at a time, which keeps the gather's
        intp copy of the indices at half a slot.
        """
        stored = self._stored
        counts = np.zeros((4, len(self.labels)), dtype=np.int64)
        if stored is None:
            counts[CAT_SHARED] = self.labels[0].size
            mixed = np.flatnonzero(self.labels.max(axis=(1, 2)) >= _FIRST_NON_SHARED_LABEL)
            buf = np.empty(self.labels.shape[1:], dtype=np.uint8)
        else:
            mixed = range(len(stored))
        for s in mixed:
            if stored is None:
                for half in (slice(None, SYMBOLS_PER_SLOT // 2), slice(SYMBOLS_PER_SLOT // 2, None)):
                    np.take(_CATEGORY_OF_LABEL, self.labels[s, half], out=buf[half])
                c = buf
            else:
                c = stored[s]
            shared = np.count_nonzero(c == CAT_SHARED)
            if shared == c.size:
                counts[CAT_SHARED, s] = shared
                continue
            downlink = np.count_nonzero(c)  # CAT_NON_DL is 0
            control = np.count_nonzero(c == CAT_CONTROL)
            counts[:, s] = (c.size - downlink, shared, downlink - shared - control, control)
        counts.setflags(write=False)
        return tuple(counts)

    def shared_cells_per_slot(self) -> np.ndarray:
        """Shared-pool cells of each slot; read-only, counted once per map."""
        return self._cells_per_slot[CAT_SHARED]

    def cell_sets(self) -> Dict[str, Set[Tuple[int, int, int]]]:
        """Explicit cell sets; intended for small grids and invariant checks."""
        out = {"shared_pool": set(), "reserved": set(), "control_region": set()}
        names = {CAT_SHARED: "shared_pool", CAT_RESERVED: "reserved", CAT_CONTROL: "control_region"}
        for cat, name in names.items():
            idx = np.argwhere(self.categories == cat)
            out[name] = {tuple(map(int, c)) for c in idx}
        return out


@value
class SimResult:
    grants_5g: Tuple[int, ...]
    grants_6g: Tuple[int, ...]
    unused: Tuple[int, ...]
    dropped_5g: Tuple[int, ...]
    dropped_6g: Tuple[int, ...]
    shared_pool_size: int
    total_5g: int
    total_6g: int
    unused_shared: int
    efficiency_vs_pure_5g: float
    efficiency_vs_pure_6g: float


@value
class InterferenceReport:
    """Per-PRB classification of the serving cell's NR data pool."""

    pool_re: int
    clean_re: int
    sacrificed_re: int
    dirty_re: int


@value
class MechanismBudget:
    nr_usable_re: int
    lte_usable_re: int
    unused_symbols: int = 0


def classify_mrss(grid: ResourceGrid, control_mode: ControlMode = ControlMode()) -> MrssCategoryMap:
    """Partition downlink-capable cells into shared pool, reserved, control.

    The 5G control footprint (CORESET1 cells) anchors the control region;
    partially-overlapping and separate 6G control grow it by
    footprint x (factor - 1) additional cells taken from the shared pool in
    deterministic scan order. Only such growth makes the map store a
    category lattice; otherwise its labels decide every category.
    """
    categories = None
    grow = control_mode.footprint_factor - 1
    if grow:
        gathered = _gather_categories(grid.labels)
        footprint = int(np.count_nonzero(gathered == CAT_CONTROL))
        extra = int(footprint * grow)
        if extra > 0:
            flat = gathered.reshape(-1)
            shared_idx = np.flatnonzero(flat == CAT_SHARED)
            if extra > shared_idx.size:
                raise PlacementError(
                    f"separate control needs {extra} cells but only {shared_idx.size} are shared"
                )
            flat[shared_idx[:extra]] = CAT_CONTROL
            categories = gathered
    return MrssCategoryMap(grid, categories, grid.labels, control_mode)


# Placement ranges: the scenario parser checks them against the document's
# carrier, and reserve_iot and place_6g_ssb again for library callers.
def check_prb_range(cfg: CarrierConfig, p0: int, p1: int) -> None:
    if not 0 <= p0 <= p1 <= cfg.n_prb:
        raise ConfigError(f"PRB range ({p0}, {p1}) out of bounds for a {cfg.n_prb}-PRB carrier")


def check_slots(cfg: CarrierConfig, slots: Iterable[int]) -> None:
    for s in slots:
        if not 0 <= s < cfg.n_slots:
            raise ConfigError(f"slot {s} out of range for a {cfg.n_slots}-slot carrier")


def check_ssb_occasion(cfg: CarrierConfig, occasion: Sequence[int], prbs: int, symbols: int) -> None:
    slot, symbol, prb = occasion
    if not (0 <= slot < cfg.n_slots and 0 <= symbol <= SYMBOLS_PER_SLOT - symbols
            and 0 <= prb <= cfg.n_prb - prbs):
        raise ConfigError(
            f"6G SSB occasion {(slot, symbol, prb)} out of range: a {prbs}-PRB, "
            f"{symbols}-symbol block on a {cfg.n_slots}-slot, {cfg.n_prb}-PRB carrier"
        )


def reserve_iot(
    cmap: MrssCategoryMap,
    prb_range: Tuple[int, int],
    slots: Optional[Iterable[int]] = None,
) -> MrssCategoryMap:
    """Semi-static IoT reservation: move shared-pool cells to reserved.

    Applies to the downlink-capable cells of the named PRBs/slots; any cell
    there that is not currently in the shared pool is an error.
    """
    cfg = cmap.grid.config
    p0, p1 = prb_range
    check_prb_range(cfg, p0, p1)
    slot_list = list(range(cfg.n_slots)) if slots is None else sorted(set(slots))
    check_slots(cfg, slot_list)

    categories = cmap.writable_categories()
    labels = cmap.labels.copy()
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
        # Incumbent-labeled shared cells (LTE CRS, PDCCH) keep their label.
        place(labels, (s, slice(None), prbs), ReLabel.RESERVED_IOT, rate_match=True)
    return MrssCategoryMap(cmap.grid, categories, labels, cmap.control_mode)


def place_6g_ssb(
    cmap: MrssCategoryMap,
    occasions: Sequence[Tuple[int, int, int]],
    prbs: int = 20,
    symbols: int = 4,
) -> MrssCategoryMap:
    """Reserve 6G SSB beam blocks at (slot, first_symbol, first_prb) anchors.

    The hidden-from-5G constraint is structural: every targeted cell must be
    an unlabeled shared-pool cell, so a collision with any 5G footprint
    (SSB, control, ...) is rejected as "not hidden".
    """
    cfg = cmap.grid.config
    categories = cmap.writable_categories()
    labels = cmap.labels.copy()
    for slot, symbol, prb in occasions:
        check_ssb_occasion(cfg, (slot, symbol, prb), prbs, symbols)
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
    return MrssCategoryMap(cmap.grid, categories, labels, cmap.control_mode)


def _grants(
    pool: np.ndarray, d5: np.ndarray, d6: np.ndarray, policy: SchedPolicy
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-slot (5G, 6G) grants for arrays of slot pools and demands."""
    if policy is SchedPolicy.PRIORITY_5G:
        g5 = np.minimum(d5, pool)
        return g5, np.minimum(d6, pool - g5)
    if policy is SchedPolicy.PRIORITY_6G:
        g6 = np.minimum(d6, pool)
        return np.minimum(d5, pool - g6), g6
    # ProportionalShare: an overloaded slot gives each RAT the floor of its
    # demand's share of the pool. The two remainders sum to less than 2, so at
    # most one cell is left over. It goes to the larger-demand RAT; ties favor
    # 5G. A leftover cell means both demands are positive, and then each share
    # is below its demand, so neither RAT is full yet.
    total = d5 + d6
    over = total > pool
    divisor = np.where(over, total, 1)
    g5 = np.where(over, pool * d5 // divisor, d5)
    g6 = np.where(over, pool * d6 // divisor, d6)
    left = over & (g5 + g6 < pool)
    first_5g = d5 >= d6
    return g5 + (left & first_5g).astype(g5.dtype), g6 + (left & ~first_5g).astype(g6.dtype)


def simulate(
    cmap: MrssCategoryMap,
    traffic: TrafficModel,
    policy: SchedPolicy,
) -> SimResult:
    """Slot-level dual-RAT scheduling over every slot of the shared pool.

    Per slot: grants(5G) + grants(6G) + unused = shared cells available that
    slot; excess demand is dropped and reported. Deterministic given the
    traffic seed.
    """
    pool = cmap.shared_cells_per_slot()
    d5, d6 = traffic.demands(pool.size)
    if pool.max() >= 2**16:
        # pool x demand could leave int64 (demands reach 2**47): Python ints.
        pool, d5, d6 = pool.astype(object), d5.astype(object), d6.astype(object)

    g5, g6 = _grants(pool, d5, d6, policy)
    unused = pool - g5 - g6
    total5 = int(g5.sum())
    total6 = int(g6.sum())
    pure5 = int(np.minimum(d5, pool).sum())
    pure6 = int(np.minimum(d6, pool).sum())
    return SimResult(
        grants_5g=tuple(g5.tolist()),
        grants_6g=tuple(g6.tolist()),
        unused=tuple(unused.tolist()),
        dropped_5g=tuple((d5 - g5).tolist()),
        dropped_6g=tuple((d6 - g6).tolist()),
        shared_pool_size=int(pool.sum()),
        total_5g=total5,
        total_6g=total6,
        unused_shared=int(unused.sum()),
        efficiency_vs_pure_5g=(total5 / pure5) if pure5 else 1.0,
        efficiency_vs_pure_6g=(total6 / pure6) if pure6 else 1.0,
    )


@value
class DssMechanism:
    """One of the practical DSS sharing mechanisms."""

    kind: str  # MbsfnShare | MiniSlot | CrsRateMatch
    minislot_len: Optional[int] = None
    dmrs_per_minislot: Optional[int] = None

    KINDS = ("MbsfnShare", "MiniSlot", "CrsRateMatch")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(f"unknown DSS mechanism {self.kind!r}")
        if self.kind == "MiniSlot":
            if not self.minislot_len or self.minislot_len < 1:
                raise ConfigError("MiniSlot needs minislot_len >= 1")
            if self.dmrs_per_minislot is None or not 0 <= self.dmrs_per_minislot <= self.minislot_len:
                raise ConfigError("MiniSlot needs dmrs_per_minislot in 0..minislot_len")


def dss_mechanism_budget(
    mechanism: DssMechanism,
    lte_cfg: LteCellConfig,
    layout: DssLayout = DssLayout(),
) -> MechanismBudget:
    """Per-PRB usable REs for NR and LTE under one DSS sharing mechanism."""
    if mechanism.kind == "CrsRateMatch":
        dmrs = default_dmrs_symbols(lte_cfg.crs_ports, layout.control_end, layout.dmrs_count)
        return MechanismBudget(
            nr_usable_re=dss_pool_per_prb(lte_cfg.crs_ports, layout.lte_pdcch, layout.nr_pdcch, dmrs),
            lte_usable_re=lte_pool_per_prb(lte_cfg.crs_ports, layout.lte_pdcch),
        )

    if mechanism.kind == "MbsfnShare":
        # LTE mutes its data region; NR places control + DMRS inside the
        # CRS-free muted block.
        region = SYMBOLS_PER_SLOT - lte_cfg.non_mbsfn_region_len
        overhead = layout.nr_pdcch + layout.dmrs_count
        if overhead > region:
            raise ConfigError("NR control+DMRS exceed the MBSFN muted region")
        return MechanismBudget(
            nr_usable_re=(region - overhead) * SC_PER_PRB,
            lte_usable_re=0,
        )

    # MiniSlot: NR occupies mini-slots after the LTE control region, paying
    # one DMRS burden per mini-slot; CRS cells are still rate-matched.
    start = lte_cfg.pdcch_symbols
    n_mini, remainder = divmod(SYMBOLS_PER_SLOT - start, mechanism.minislot_len)
    crs = crs_re_per_symbol(lte_cfg.crs_ports)
    # The first dmrs_per_minislot symbols of each mini-slot carry DMRS, no data.
    usable = sum(
        SC_PER_PRB - crs[start + m * mechanism.minislot_len + offset]
        for m in range(n_mini)
        for offset in range(mechanism.dmrs_per_minislot, mechanism.minislot_len)
    )
    return MechanismBudget(
        nr_usable_re=usable,
        lte_usable_re=lte_pool_per_prb(lte_cfg.crs_ports, lte_cfg.pdcch_symbols),
        unused_symbols=remainder,
    )


def neighbor_interference(
    serving: LteCellConfig,
    neighbors: Sequence[LteCellConfig],
    mitigation: Mitigation,
    layout: DssLayout = DssLayout(),
) -> InterferenceReport:
    """Classify the serving cell's per-PRB NR data pool against neighbor CRS.

    A pool cell is dirty if any neighbor's CRS occupies it. Mitigations
    trade dirty cells against sacrificed pool cells; clean + sacrificed +
    dirty always equals the original pool size.
    """
    dmrs = default_dmrs_symbols(serving.crs_ports, layout.control_end, layout.dmrs_count)
    check_control_fits(layout.lte_pdcch, layout.nr_pdcch)
    data_symbols = [[s >= layout.control_end and s not in dmrs] for s in range(SYMBOLS_PER_SLOT)]
    pool = np.array(data_symbols) & (crs_mask(serving.crs_ports, serving.v_shift) == 0)
    neighbor_crs = np.zeros((SYMBOLS_PER_SLOT, SC_PER_PRB), dtype=bool)
    for n in neighbors:
        neighbor_crs |= crs_mask(n.crs_ports, n.v_shift) != 0

    pool_n = int(np.count_nonzero(pool))
    dirty = int(np.count_nonzero(pool & neighbor_crs))
    if mitigation.kind == "ServingOnlyRateMatch":
        return InterferenceReport(pool_n, pool_n - dirty, 0, dirty)
    if mitigation.kind == "NeighborAwareRateMatch":
        return InterferenceReport(pool_n, pool_n - dirty, dirty, 0)
    if mitigation.kind == "SymbolLevelMute":
        # Broad avoidance: any symbol carrying any neighbor CRS is muted,
        # whether or not its cells collide with the serving pattern.
        sacrificed = int(np.count_nonzero(pool & neighbor_crs.any(axis=1, keepdims=True)))
        return InterferenceReport(pool_n, pool_n - sacrificed, sacrificed, 0)
    # ReceiverCancellation: a deterministic count-level fraction of dirty
    # cells becomes clean (exact floor; effectiveness is read as its decimal
    # text), nothing is sacrificed.
    reclaimed = int(Fraction(str(mitigation.effectiveness)) * dirty)
    return InterferenceReport(pool_n, pool_n - dirty + reclaimed, 0, dirty - reclaimed)
