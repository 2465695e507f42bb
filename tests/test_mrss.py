import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridshare import (
    BeamSignal,
    CarrierConfig,
    ConfigError,
    ConflictError,
    ControlMode,
    ControlModeKind,
    Coreset1Spec,
    CsiRsSpec,
    GridShareError,
    LteCellConfig,
    Mitigation,
    MrssCategoryMap,
    NrOverlaySet,
    PlacementError,
    ReLabel,
    ResourceGrid,
    SchedPolicy,
    SimResult,
    TddPattern,
    TrafficModel,
    TrsSpec,
    apply_lte,
    apply_nr,
    classify_mrss,
    count_labels,
    make_grid,
    neighbor_interference,
    place_6g_ssb,
    reserve_iot,
    simulate,
)
import dense_reference as ref
from staged import staged
from gridshare.budget import DssLayout, check_control_fits, default_dmrs_symbols, dss_pool_by_grid
from gridshare.grid import MAX_N_PRB, label_counts, new_labels
from gridshare.mrss import (
    _NON_DL_LABELS,
    CAT_CONTROL,
    CAT_NON_DL,
    CAT_RESERVED,
    CAT_SHARED,
    CONTROL_LABELS,
    DEFAULT_RESERVED_LABELS,
    MAX_DEMAND,
    _grants,
)


def wideband_tdd_carrier():
    return CarrierConfig(
        30, n_prb=273, duplex="TDD", span_ms=20,
        tdd_pattern=TddPattern("DDDSU", (6, 4, 4)),
    )


def full_overlay():
    return NrOverlaySet(
        period_ms=20,
        ssb=BeamSignal(4, 20, 4),
        coreset0=BeamSignal(4, 48, 2),
        sib1=BeamSignal(4, 24, 4),
        coreset1=Coreset1Spec(270, 2),
        csi_rs=CsiRsSpec(32, 1, 272, 1),
        trs=TrsSpec(52, 2, 6, 4, 2),
    )


def wideband_map(control_mode=ControlMode()):
    grid = apply_nr(make_grid(wideband_tdd_carrier()), full_overlay())
    return staged(grid, classify_mrss, control_mode)


def fdd_map(n_prb=1, span_ms=1):
    carrier = CarrierConfig(15, n_prb=n_prb, duplex="FDD",
                            span_ms=span_ms)
    return staged(make_grid(carrier), classify_mrss)


class TestClassify:
    def test_wideband_partition_sizes(self):
        cmap = wideband_map()
        assert cmap.downlink_size == 1_257_984
        assert cmap.reserved_size == 26_752
        assert cmap.control_region_size == 207_360
        assert cmap.shared_pool_size == 1_023_872

    def test_partition_is_exact(self):
        cmap = wideband_map()
        assert (
            cmap.shared_pool_size + cmap.reserved_size + cmap.control_region_size
            == cmap.downlink_size
        )
        assert set(np.unique(ref.categories(cmap.grid.lattice))) <= {
            CAT_NON_DL, CAT_SHARED, CAT_RESERVED, CAT_CONTROL,
        }

    def test_separate_control_doubles_footprint(self):
        cmap = wideband_map(ControlMode(ControlModeKind.SEPARATE))
        assert cmap.control_region_size == 414_720
        assert cmap.shared_pool_size == 1_023_872 - 207_360

    def test_partially_overlapping(self):
        mode = ControlMode(ControlModeKind.PARTIALLY_OVERLAPPING, shared_fraction=0.5)
        cmap = wideband_map(mode)
        assert cmap.control_region_size == 207_360 + 103_680
        assert cmap.shared_pool_size == 1_023_872 - 103_680

    @pytest.mark.parametrize("fraction,extra", [(0.6, 82_944), (0.1, 186_624)])
    def test_partial_overlap_extra_is_exact(self, fraction, extra):
        # 207,360 x (1 - fraction), computed from the decimal text, not a float.
        mode = ControlMode(ControlModeKind.PARTIALLY_OVERLAPPING, shared_fraction=fraction)
        assert wideband_map(mode).control_region_size == 207_360 + extra

    def test_no_overlay_all_shared(self):
        grid = make_grid(wideband_tdd_carrier())
        cmap = staged(grid, classify_mrss)
        assert cmap.shared_pool_size == cmap.downlink_size == 1_257_984
        assert cmap.reserved_size == 0
        assert cmap.control_region_size == 0

    def test_map_is_the_grid_unless_control_grows(self):
        # Control growth is classify's only write: otherwise every slot of
        # the lattice holds the row it held.
        grid = apply_nr(make_grid(wideband_tdd_carrier()), full_overlay())
        labels = grid.lattice.copy()
        classify_mrss(labels)
        assert all(map(operator.is_, labels.slots, grid.lattice.slots))
        # Separate control with no CORESET1 footprint grows by nothing.
        empty = new_labels(wideband_tdd_carrier())
        before = list(empty.slots)
        classify_mrss(empty, ControlMode(ControlModeKind.SEPARATE))
        assert all(map(operator.is_, empty.slots, before))
        classify_mrss(labels, ControlMode(ControlModeKind.SEPARATE))
        assert not all(map(operator.is_, labels.slots, grid.lattice.slots))
        grown = MrssCategoryMap(ResourceGrid(grid.config, labels))
        assert grown.control_region_size == 2 * MrssCategoryMap(grid).control_region_size

    def test_fdd_grid_fully_shared(self):
        cmap = fdd_map()
        assert cmap.shared_pool_size == 168

    def test_control_mode_validation(self):
        with pytest.raises(ConfigError):
            ControlMode(ControlModeKind.PARTIALLY_OVERLAPPING)
        with pytest.raises(ConfigError):
            ControlMode(ControlModeKind.SEPARATE, shared_fraction=0.5)

    @pytest.mark.parametrize("fraction", [True, "0.5"])
    def test_shared_fraction_must_be_real(self, fraction):
        # Once accepted (True) and failing later in `footprint_factor`, or a TypeError ("0.5").
        with pytest.raises(ConfigError, match="^shared_fraction must be a real number, got "):
            ControlMode(ControlModeKind.PARTIALLY_OVERLAPPING, fraction)

    def test_separate_exhausting_shared_pool(self):
        carrier = CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=1)
        grid = make_grid(carrier)
        arr = ref.gather(grid.lattice).copy()
        from gridshare import ReLabel, ResourceGrid

        arr[:, :13, :] = ReLabel.NR_PDCCH_CORESET1
        big = ref.lattice_of(arr)
        before = list(big.slots)
        with pytest.raises(PlacementError):
            classify_mrss(big, ControlMode(ControlModeKind.SEPARATE))
        assert all(map(operator.is_, big.slots, before))


class TestReserveIot:
    def test_reservation_shrinks_shared_pool(self):
        cmap = fdd_map(n_prb=4)
        out = staged(cmap, reserve_iot, cmap.grid.config, [(0, 1, None)])
        assert out.reserved_size == 168
        assert out.shared_pool_size == cmap.shared_pool_size - 168
        assert cmap.reserved_size == 0  # input map untouched

    def test_empty_range_is_identity(self):
        cmap = fdd_map(n_prb=4)
        out = staged(cmap, reserve_iot, cmap.grid.config, [(2, 2, None)])
        assert out.reserved_size == 0
        assert np.array_equal(ref.gather(out.grid.lattice), ref.gather(cmap.grid.lattice))

    def test_skips_non_downlink_cells(self):
        grid = make_grid(wideband_tdd_carrier())
        out = staged(grid, reserve_iot, grid.config, [(0, 1, [4])])
        # Slot 4 is uplink: nothing there is downlink-capable.
        assert out.reserved_size == 0

    def test_overlap_with_existing_footprint_rejected(self):
        labels = wideband_map().grid.lattice.copy()
        with pytest.raises(ConflictError, match="shared pool"):
            reserve_iot(labels, wideband_tdd_carrier(), [(0, 273, [0])])

    def test_range_validation(self):
        cmap = fdd_map(n_prb=4)
        labels, carrier = cmap.grid.lattice.copy(), cmap.grid.config
        with pytest.raises(ConfigError):
            reserve_iot(labels, carrier, [(3, 5, None)])
        with pytest.raises(ConfigError):
            reserve_iot(labels, carrier, [(0, 1, [9])])


class TestPlace6gSsb:
    def test_four_beams_reserve_3840(self):
        cmap = wideband_map()
        occasions = [(10, 2, 100), (10, 8, 100), (11, 2, 100), (11, 8, 100)]
        out = staged(cmap, place_6g_ssb, cmap.grid.config, occasions, 20, 4)
        assert out.reserved_size == cmap.reserved_size + 3840
        assert out.shared_pool_size == cmap.shared_pool_size - 3840

    def test_zero_occasions_identity(self):
        cmap = wideband_map()
        out = staged(cmap, place_6g_ssb, cmap.grid.config, [], 20, 4)
        assert np.array_equal(ref.gather(out.grid.lattice), ref.gather(cmap.grid.lattice))

    def test_collision_with_5g_footprint(self):
        labels = wideband_map().grid.lattice.copy()
        # Symbol 0 of a downlink slot carries CORESET 1 on PRBs 0..269.
        with pytest.raises(ConflictError, match=re.escape(
                "conflict at cell (0, 0, 0): existing NR_PDCCH_CORESET1, new SIXG_SSB")):
            place_6g_ssb(labels, wideband_tdd_carrier(), [(0, 0, 0)], 20, 4)

    def test_out_of_range_occasion(self):
        labels = wideband_map().grid.lattice.copy()
        with pytest.raises(ConfigError):  # symbols 11..14 overflow
            place_6g_ssb(labels, wideband_tdd_carrier(), [(0, 11, 0)], 20, 4)

    @pytest.mark.parametrize("occasion", [(4, 2, 100), (3, 5, 100), (3, 3, 0)])
    def test_occasion_outside_downlink_is_a_config_error(self, occasion):
        # Slot 4 of the DDDSU cycle is uplink; slot 3 is special, with 6 downlink symbols.
        labels = wideband_map().grid.lattice.copy()
        before = list(labels.slots)
        message = "^" + re.escape(f"6G SSB occasion {occasion} is not in downlink")
        with pytest.raises(ConfigError, match=message):
            place_6g_ssb(labels, wideband_tdd_carrier(), [(3, 2, 100), occasion], 20, 4)
        assert labels.slots == before


class TestSimulate:
    def test_under_load_everyone_served(self):
        cmap = fdd_map()  # pool of 168 per slot
        result = simulate(cmap, TrafficModel(30, 10), SchedPolicy.PROPORTIONAL_SHARE)
        assert result.grants_5g == (30,)
        assert result.grants_6g == (10,)
        assert result.unused == (128,)
        assert result.dropped_5g == (0,) and result.dropped_6g == (0,)

    def test_conservation_per_slot(self):
        cmap = wideband_map()
        result = simulate(cmap, TrafficModel((0, 40000), (0, 40000), seed=3),
                          SchedPolicy.PROPORTIONAL_SHARE)
        pools = cmap.shared_cells_per_slot()
        for g5, g6, u, pool in zip(result.grants_5g, result.grants_6g,
                                   result.unused, pools.tolist()):
            assert g5 + g6 + u == pool
            assert u >= 0

    def test_proportional_symmetric_overload(self):
        cmap = fdd_map()
        result = simulate(cmap, TrafficModel(200, 200), SchedPolicy.PROPORTIONAL_SHARE)
        assert result.grants_5g == (84,)
        assert result.grants_6g == (84,)
        assert result.unused == (0,)

    def test_priority_5g_starves_6g(self):
        cmap = fdd_map()
        result = simulate(cmap, TrafficModel(200, 200), SchedPolicy.PRIORITY_5G)
        assert result.grants_5g == (168,)
        assert result.grants_6g == (0,)

    def test_idle_rat_frees_whole_pool(self):
        cmap = fdd_map()
        for policy in SchedPolicy:
            result = simulate(cmap, TrafficModel(500, 0), policy)
            assert result.grants_5g == (168,)
            assert result.grants_6g == (0,)
            # Efficiency 1.0 each: 5G gets all it would alone, and an idle
            # RAT's 0 of 0 reports 1.0.
            assert result.total_5g == result.pure_5g
            assert (result.total_6g, result.pure_6g) == (0, 0)

    def test_seed_determinism(self):
        cmap = wideband_map()
        t = TrafficModel((0, 50000), (0, 50000), seed=11)
        a = simulate(cmap, t, SchedPolicy.PROPORTIONAL_SHARE)
        b = simulate(cmap, t, SchedPolicy.PROPORTIONAL_SHARE)
        assert a == b

    def test_different_seeds_differ(self):
        cmap = wideband_map()
        a = simulate(cmap, TrafficModel((0, 50000), 0, seed=1),
                     SchedPolicy.PRIORITY_5G)
        b = simulate(cmap, TrafficModel((0, 50000), 0, seed=2),
                     SchedPolicy.PRIORITY_5G)
        assert a.grants_5g != b.grants_5g

    @settings(max_examples=60, deadline=None)
    @given(d5=st.integers(0, 400), d6=st.integers(0, 400))
    def test_policy_dominance_for_5g(self, d5, d6):
        cmap = fdd_map()
        g5 = {
            policy: simulate(cmap, TrafficModel(d5, d6), policy).total_5g
            for policy in SchedPolicy
        }
        assert g5[SchedPolicy.PRIORITY_5G] >= g5[SchedPolicy.PROPORTIONAL_SHARE]
        assert g5[SchedPolicy.PROPORTIONAL_SHARE] >= g5[SchedPolicy.PRIORITY_6G]

    def test_traffic_validation(self):
        with pytest.raises(ConfigError):
            TrafficModel(-1, 0)
        with pytest.raises(ConfigError):
            TrafficModel((5, 2), 0)


class TestNeighborInterference:
    def serving(self):
        return LteCellConfig(cell_id=0, crs_ports=1, pdcch_symbols=2)

    def test_co_shift_neighbor_is_invisible(self):
        # Same comb offset: every neighbor CRS cell already sits under the
        # serving CRS, outside the pool.
        report = neighbor_interference(
            self.serving(), [LteCellConfig(cell_id=6, crs_ports=1)],
            Mitigation("ServingOnlyRateMatch"),
        )
        assert report.pool_re == 102
        assert report.dirty_re == 0
        assert report.clean_re == 102

    def test_shifted_neighbor_dirty_cells(self):
        report = neighbor_interference(
            self.serving(), [LteCellConfig(cell_id=3, crs_ports=1)],
            Mitigation("ServingOnlyRateMatch"),
        )
        assert report.dirty_re == 6
        assert report.sacrificed_re == 0

    def test_neighbor_aware_trades_dirty_for_sacrificed(self):
        report = neighbor_interference(
            self.serving(), [LteCellConfig(cell_id=3, crs_ports=1)],
            Mitigation("NeighborAwareRateMatch"),
        )
        assert report.dirty_re == 0
        assert report.sacrificed_re == 6
        assert report.clean_re == 96

    def test_symbol_mute_sacrifices_whole_symbols(self):
        neighbors = [LteCellConfig(cell_id=3, crs_ports=1),
                     LteCellConfig(cell_id=7, crs_ports=1)]
        report = neighbor_interference(self.serving(), neighbors,
                                       Mitigation("SymbolLevelMute"))
        # Neighbor CRS rides symbols 4, 7, 11 inside the pool; each has
        # 10 pool cells after serving-CRS rate matching.
        assert report.sacrificed_re == 30
        assert report.dirty_re == 0

    def test_receiver_cancellation_extremes(self):
        serving = self.serving()
        neighbors = [LteCellConfig(cell_id=3, crs_ports=1)]
        full = neighbor_interference(serving, neighbors,
                                     Mitigation("ReceiverCancellation", 1.0))
        assert full.dirty_re == 0 and full.clean_re == full.pool_re
        none = neighbor_interference(serving, neighbors,
                                     Mitigation("ReceiverCancellation", 0.0))
        baseline = neighbor_interference(serving, neighbors,
                                         Mitigation("ServingOnlyRateMatch"))
        assert (none.clean_re, none.dirty_re) == (baseline.clean_re, baseline.dirty_re)

    def test_partial_cancellation_floors(self):
        report = neighbor_interference(
            self.serving(), [LteCellConfig(cell_id=3, crs_ports=1)],
            Mitigation("ReceiverCancellation", 0.5),
        )
        assert report.dirty_re == 3
        assert report.clean_re == report.pool_re - 3

    @settings(max_examples=60, deadline=None)
    @given(
        serving_id=st.integers(0, 11),
        serving_ports=st.sampled_from([1, 2, 4]),
        neighbor_ids=st.lists(st.integers(0, 11), max_size=3),
        neighbor_ports=st.sampled_from([1, 2, 4]),
        kind=st.sampled_from(Mitigation.KINDS),
        eff=st.floats(0.0, 1.0),
    )
    def test_conservation_invariant(self, serving_id, serving_ports,
                                    neighbor_ids, neighbor_ports, kind, eff):
        serving = LteCellConfig(cell_id=serving_id, crs_ports=serving_ports)
        neighbors = [LteCellConfig(cell_id=i, crs_ports=neighbor_ports)
                     for i in neighbor_ids]
        mit = Mitigation(kind, eff if kind == "ReceiverCancellation" else None)
        report = neighbor_interference(serving, neighbors, mit)
        assert report.clean_re + report.sacrificed_re + report.dirty_re == report.pool_re
        assert min(report.clean_re, report.sacrificed_re, report.dirty_re) >= 0

    def test_cancellation_floor_is_exact(self):
        # 10 dirty cells x 0.8999999999999999 is 8.999999999999999 cells, so
        # 8 are reclaimed; the float product rounds up to 9.0.
        report = neighbor_interference(
            self.serving(), [LteCellConfig(cell_id=3, crs_ports=4)],
            Mitigation("ReceiverCancellation", 0.8999999999999999),
        )
        assert report.dirty_re == 10 - 8
        assert report.clean_re == report.pool_re - 2

    def test_mitigation_validation(self):
        with pytest.raises(ConfigError):
            Mitigation("Nothing")
        with pytest.raises(ConfigError):
            Mitigation("ReceiverCancellation")
        with pytest.raises(ConfigError):
            Mitigation("SymbolLevelMute", effectiveness=0.5)

    @pytest.mark.parametrize("eff", [True, "0.5", None])
    def test_cancellation_effectiveness_must_be_real(self, eff):
        with pytest.raises(ConfigError):
            Mitigation("ReceiverCancellation", eff)

    @settings(max_examples=150, deadline=None)
    @given(
        ports=st.sampled_from([1, 2, 4]),
        cell_id=st.integers(0, 11),
        neighbors=st.lists(st.tuples(st.integers(0, 11), st.sampled_from([1, 2, 4])), max_size=3),
        lte_pdcch=st.integers(1, 3),
        nr_pdcch=st.integers(0, 12),
        dmrs_count=st.integers(0, 4),
        kind=st.sampled_from(Mitigation.KINDS),
    )
    def test_pool_is_the_dss_slot_pool(self, ports, cell_id, neighbors, lte_pdcch, nr_pdcch,
                                       dmrs_count, kind):
        """The report's per-PRB pool, the zeros of the serving cell's
        `budget.dss_pool_mask`, is the pool counted on the labeled DSS slot
        (`budget.dss_pool_by_grid`, which places the LTE cell, NR control
        and DMRS and reads no mask), for each layout the slot takes (README
        "One DSS slot"). Rejected layouts, and `lte_pdcch` 0 under an
        incumbent, which the grid route does not build, are checked by
        `test_matches_the_cell_by_cell_reference`."""
        serving = LteCellConfig(cell_id=cell_id, crs_ports=ports)
        cells = [LteCellConfig(cell_id=i, crs_ports=p) for i, p in neighbors]
        layout = DssLayout(lte_pdcch, nr_pdcch, dmrs_count)
        mitigation = Mitigation(kind, 0.5 if kind == "ReceiverCancellation" else None)
        try:
            dmrs = default_dmrs_symbols(ports, layout.control_end, dmrs_count)
            check_control_fits(lte_pdcch, nr_pdcch)
        except ConfigError:
            assume(False)
        report = neighbor_interference(serving, cells, mitigation, layout)
        assert report.pool_re == dss_pool_by_grid(ports, lte_pdcch, nr_pdcch, dmrs)

    @settings(max_examples=300, deadline=None)
    @given(
        ports=st.sampled_from([1, 2, 4]),
        cell_id=st.integers(0, 503),
        neighbors=st.lists(st.tuples(st.integers(0, 503), st.sampled_from([1, 2, 4])), max_size=3),
        layout=st.builds(DssLayout, st.integers(0, 3), st.integers(0, 15), st.integers(0, 5)),
        kind=st.sampled_from(Mitigation.KINDS),
        effectiveness=st.floats(0.0, 1.0),
    )
    def test_matches_the_cell_by_cell_reference(self, ports, cell_id, neighbors, layout, kind,
                                                effectiveness):
        """Pool, clean, sacrificed and dirty equal those counted cell by cell
        from the TS 36.211 tables (`dense_reference.interference`), for every
        mitigation and layout, `lte_pdcch` 0 included; a layout the reference
        rejects is rejected with its message."""
        serving = LteCellConfig(cell_id=cell_id, crs_ports=ports)
        cells = [LteCellConfig(cell_id=i, crs_ports=p) for i, p in neighbors]
        mitigation = Mitigation(kind, effectiveness if kind == "ReceiverCancellation" else None)
        try:
            want = ref.interference(serving, cells, mitigation, layout)
        except ConfigError as exc:
            with pytest.raises(ConfigError, match=re.escape(str(exc))):
                neighbor_interference(serving, cells, mitigation, layout)
            return
        report = neighbor_interference(serving, cells, mitigation, layout)
        assert (report.pool_re, report.clean_re, report.sacrificed_re, report.dirty_re) == want


def _reference_grant_slot(pool, d5, d6, policy):
    """The per-slot scheduler `simulate` vectorizes, kept as its reference."""
    if policy is SchedPolicy.PRIORITY_5G:
        g5 = min(d5, pool)
        return g5, min(d6, pool - g5)
    if policy is SchedPolicy.PRIORITY_6G:
        g6 = min(d6, pool)
        return min(d5, pool - g6), g6
    total = d5 + d6
    if total <= pool:
        return d5, d6
    g5 = pool * d5 // total
    g6 = pool * d6 // total
    leftover = pool - g5 - g6
    first_5g = d5 >= d6
    for _ in range(leftover):
        if first_5g and g5 < d5:
            g5 += 1
        elif g6 < d6:
            g6 += 1
        elif g5 < d5:
            g5 += 1
        else:
            break
    return g5, g6


def _reference_simulate(pools, d5s, d6s, policy):
    g5s, g6s, unused, drop5, drop6 = [], [], [], [], []
    pure5 = pure6 = 0
    for pool, d5, d6 in zip(pools, d5s, d6s):
        g5, g6 = _reference_grant_slot(pool, d5, d6, policy)
        g5s.append(g5)
        g6s.append(g6)
        unused.append(pool - g5 - g6)
        drop5.append(d5 - g5)
        drop6.append(d6 - g6)
        pure5 += min(d5, pool)
        pure6 += min(d6, pool)
    total5, total6 = sum(g5s), sum(g6s)
    return SimResult(
        grants_5g=tuple(g5s), grants_6g=tuple(g6s), unused=tuple(unused),
        dropped_5g=tuple(drop5), dropped_6g=tuple(drop6),
        shared_pool_size=sum(pools), total_5g=total5, total_6g=total6,
        unused_shared=sum(unused),
        pure_5g=pure5, pure_6g=pure6,
    )


class FixedDemands:
    """Stands in for TrafficModel with chosen per-slot demands."""

    def __init__(self, d5s, d6s):
        self.d5s, self.d6s = d5s, d6s

    def demands(self, n_slots):
        return (np.array(self.d5s[:n_slots], dtype=np.int64),
                np.array(self.d6s[:n_slots], dtype=np.int64))


def map_with_pools(pools, n_prb):
    """A map whose slot i has exactly pools[i] shared cells, the rest NR SSB."""
    grid = make_grid(CarrierConfig(15, n_prb=n_prb, duplex="FDD",
                                   span_ms=len(pools)))
    labels = np.full(grid.lattice.shape, ReLabel.NR_SSB, dtype=np.uint8)
    flat = labels.reshape(len(pools), -1)
    for slot, pool in enumerate(pools):
        flat[slot, :pool] = ReLabel.UNLABELED
    return MrssCategoryMap(ResourceGrid(grid.config, ref.lattice_of(labels)))


@st.composite
def slot_loads(draw):
    """Per-slot (pool, d5, d6) with ties, zero demand, total == pool and pool + 1."""
    n_prb = draw(st.integers(1, 3))
    cap = 12 * 14 * n_prb
    pools, d5s, d6s = [], [], []
    for _ in range(draw(st.integers(1, 8))):
        pool = draw(st.integers(0, cap))
        kind = draw(st.sampled_from(["any", "tie", "zero", "exact", "exact+1", "huge"]))
        if kind == "any":
            d5, d6 = draw(st.integers(0, 2 * cap)), draw(st.integers(0, 2 * cap))
        elif kind == "tie":
            d5 = d6 = draw(st.integers(0, 2 * cap))
        elif kind == "zero":
            d5, d6 = 0, draw(st.integers(0, 2 * cap))
            if draw(st.booleans()):
                d5, d6 = d6, d5
        elif kind == "huge":
            d5, d6 = draw(st.integers(0, MAX_DEMAND)), draw(st.integers(0, MAX_DEMAND))
        else:
            total = pool + (kind == "exact+1")
            d5 = draw(st.integers(0, total))
            d6 = total - d5
        pools.append(pool)
        d5s.append(d5)
        d6s.append(d6)
    return n_prb, pools, d5s, d6s


class TestVectorizedScheduler:
    @settings(max_examples=300, deadline=None)
    @given(load=slot_loads())
    def test_matches_per_slot_reference(self, load):
        n_prb, pools, d5s, d6s = load
        cmap = map_with_pools(pools, n_prb)
        assert cmap.shared_cells_per_slot().tolist() == pools
        for policy in SchedPolicy:
            got = simulate(cmap, FixedDemands(d5s, d6s), policy)
            assert got == _reference_simulate(pools, d5s, d6s, policy), policy
            assert all(type(g) is int for g in got.grants_5g + got.dropped_6g)

    def test_pool_beyond_int64_products_stays_exact(self):
        d5s, d6s = [MAX_DEMAND, MAX_DEMAND - 3], [MAX_DEMAND - 1, 7]
        # 275 PRB, the widest carrier: 46,200 shared cells a slot, and
        # 46,200 x 2**47 > 2**62, far past a float's exact integers.
        pools = [12 * 14 * MAX_N_PRB, 12 * 14 * MAX_N_PRB - 1]
        cmap = map_with_pools(pools, MAX_N_PRB)
        for policy in SchedPolicy:
            got = simulate(cmap, FixedDemands(d5s, d6s), policy)
            assert got == _reference_simulate(pools, d5s, d6s, policy), policy
        # 400 PRB worth of pool, 67,200 cells, and 67,200 x 2**47 > 2**63: no
        # carrier is that wide, so the slot scheduler takes the pools directly.
        pools = [12 * 14 * 400, 12 * 14 * 400 - 1]
        for policy in SchedPolicy:
            want = [_reference_grant_slot(*load, policy) for load in zip(pools, d5s, d6s)]
            assert list(zip(*_grants(pools, d5s, d6s, policy))) == want, policy


class TestImmutableMap:
    def test_arrays_are_read_only(self):
        carrier = wideband_tdd_carrier()
        cmap = staged(staged(wideband_map(), reserve_iot, carrier, [(272, 273, None)]),
                      place_6g_ssb, carrier, [(0, 2, 100)], 20, 4)
        with pytest.raises(TypeError):
            cmap.grid.lattice.slots[0][0] = 0
        # The pool is a fresh copy: writing it leaves the map's counts as they are.
        pool = cmap.shared_cells_per_slot()
        before = pool[0]
        pool[0] = 0
        assert cmap.shared_cells_per_slot()[0] == before > 0

    def test_pool_counted_once(self):
        cmap = fdd_map(n_prb=2, span_ms=3)
        label_counts.cache_clear()
        assert cmap.shared_cells_per_slot() is not cmap.shared_cells_per_slot()
        assert cmap.shared_cells_per_slot().tolist() == [336, 336, 336]
        assert cmap.shared_pool_size == 1008
        # The map's one distinct row is counted once; every other read is a hit.
        assert label_counts.cache_info().misses == 1


class TestTrafficBounds:
    def test_max_demand_accepted(self):
        assert TrafficModel(MAX_DEMAND, (0, MAX_DEMAND)).demand_6g == (0, MAX_DEMAND)

    @pytest.mark.parametrize("demand", [MAX_DEMAND + 1, 2**64, (0, 2**64), [1, MAX_DEMAND + 1]])
    def test_oversized_demand_rejected(self, demand):
        with pytest.raises(ConfigError, match="demand_6g must not exceed 2\\*\\*47"):
            TrafficModel(0, demand)

    @pytest.mark.parametrize("demand", [("a", 1), (1.5, 3), (True, 2), (1, 2, 3), 2.0])
    def test_non_integer_demand_rejected(self, demand):
        with pytest.raises(ConfigError, match="demand_5g"):
            TrafficModel(demand, 0)


def _reference_classify(grid, control_mode):
    """The three-pass partition `classify_mrss` gathers from one table, kept as
    its reference: (categories, shared cells per slot)."""
    labels = ref.gather(grid.lattice)
    categories = np.full(labels.shape, CAT_SHARED, dtype=np.uint8)
    non_dl = np.isin(labels, [int(l) for l in _NON_DL_LABELS])
    categories[non_dl] = CAT_NON_DL
    reserved = np.isin(labels, [int(l) for l in DEFAULT_RESERVED_LABELS])
    categories[reserved] = CAT_RESERVED
    control = np.isin(labels, [int(l) for l in CONTROL_LABELS])
    categories[control] = CAT_CONTROL

    footprint = int(np.count_nonzero(control))
    extra = int(footprint * (control_mode.footprint_factor - 1))
    if extra > 0:
        flat = categories.reshape(-1)
        shared_idx = np.flatnonzero(flat == CAT_SHARED)
        if extra > shared_idx.size:
            raise PlacementError(
                f"separate control needs {extra} cells but only {shared_idx.size} are shared"
            )
        flat[shared_idx[:extra]] = CAT_CONTROL
    return categories, np.count_nonzero(categories == CAT_SHARED, axis=(1, 2))


@st.composite
def label_lattices(draw):
    """(grid, control mode): random lattices over the whole alphabet, with
    the control labels from absent to dense."""
    n_slots, n_prb = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    carrier = CarrierConfig(15, n_prb=n_prb, duplex="FDD", span_ms=n_slots)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_slots, 14, 12 * n_prb)
    control_labels = [int(l) for l in CONTROL_LABELS]
    labels = rng.integers(0, len(ReLabel), size=shape, dtype=np.uint8)
    # Control cells come only from control_share.
    labels[np.isin(labels, control_labels)] = ReLabel.UNLABELED
    control_share = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95]))
    control = rng.choice(control_labels, size=shape)
    labels = np.where(rng.random(shape) < control_share, control, labels).astype(np.uint8)
    kind = draw(st.sampled_from(list(ControlModeKind)))
    fraction = None
    if kind is ControlModeKind.PARTIALLY_OVERLAPPING:
        fraction = draw(st.one_of(st.sampled_from([0.0, 0.1, 0.5, 0.6, 1.0]), st.floats(0.0, 1.0)))
    return ResourceGrid(carrier, ref.lattice_of(labels)), ControlMode(kind, fraction)


class TestClassifyReference:
    @settings(max_examples=300, deadline=None)
    @given(label_lattices())
    def test_classify_matches_the_three_pass_partition(self, case):
        grid, mode = case
        try:
            expected, per_slot = _reference_classify(grid, mode)
        except PlacementError as exc:
            with pytest.raises(PlacementError) as err:
                classify_mrss(grid.lattice.copy(), mode)
            assert str(err.value) == str(exc)
            return
        cmap = staged(grid, classify_mrss, mode)
        assert np.array_equal(ref.categories(cmap.grid.lattice), expected)
        assert np.array_equal(cmap.shared_cells_per_slot(), per_slot)

    def test_peak_memory_is_about_two_lattices(self):
        # 100 PRB x 100 subframes of 4-port LTE: the three np.isin passes
        # peaked at about 6x the label lattice.
        carrier = CarrierConfig(15, n_prb=100, duplex="FDD", span_ms=100)
        grid = apply_lte(make_grid(carrier), LteCellConfig(crs_ports=4))
        tracemalloc.start()
        try:
            cmap = staged(grid, classify_mrss)
            cmap.shared_cells_per_slot()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * grid.n_cells

    @pytest.mark.parametrize("case", ["lte_with_iot", "nr_wideband"])
    def test_size_properties_count_slot_by_slot(self, case):
        # Each size property compared the whole lattice: reading all three
        # on the LTE grid peaked at 1.0x the label lattice.
        if case == "lte_with_iot":
            carrier = CarrierConfig(15, n_prb=100, duplex="FDD", span_ms=100)
            grid = apply_lte(make_grid(carrier), LteCellConfig(crs_ports=4))
            cmap = staged(grid, reserve_iot, carrier, [(0, 6, range(0, 100, 7))])
        else:
            cmap = wideband_map()
        tracemalloc.start()
        try:
            sizes = (cmap.reserved_size, cmap.control_region_size, cmap.downlink_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * cmap.grid.n_cells
        cats = ref.categories(cmap.grid.lattice)
        assert sizes == (
            np.count_nonzero(cats == CAT_RESERVED),
            np.count_nonzero(cats == CAT_CONTROL),
            np.count_nonzero(cats != CAT_NON_DL),
        )
        assert cmap.shared_pool_size == np.count_nonzero(cats == CAT_SHARED)
        assert np.array_equal(cmap.shared_cells_per_slot(),
                              np.count_nonzero(cats == CAT_SHARED, axis=(1, 2)))


class TestTrafficSeed:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrafficModel(demand_5g=1, demand_6g=1, seed=-1)


# The labels map stages write: 6G control growth, IoT reservations, 6G SSB.
STAGE_LABELS = [ReLabel.SIXG_CONTROL, ReLabel.RESERVED_IOT, ReLabel.SIXG_SSB]


def assert_map_matches(cmap, grid, reference, labels):
    """Every count of the map of `grid`, then its categories, equal the
    reference's. On every cell the grid left UNLABELED the map's label equals
    the reference's, and a map label differs from the grid's only where a
    stage relabeled a shared-pool cell with its own label."""
    per_slot = {cat: np.count_nonzero(reference == cat, axis=(1, 2))
                for cat in (CAT_NON_DL, CAT_SHARED, CAT_RESERVED, CAT_CONTROL)}
    assert np.array_equal(cmap.shared_cells_per_slot(), per_slot[CAT_SHARED])
    assert (cmap.shared_pool_size, cmap.reserved_size, cmap.control_region_size,
            cmap.downlink_size) == (
        int(per_slot[CAT_SHARED].sum()), int(per_slot[CAT_RESERVED].sum()),
        int(per_slot[CAT_CONTROL].sum()), reference.size - int(per_slot[CAT_NON_DL].sum()))
    assert np.array_equal(ref.categories(cmap.grid.lattice), reference)
    mapped, grid_labels = ref.gather(cmap.grid.lattice), ref.gather(grid.lattice)
    free = grid_labels == ReLabel.UNLABELED
    assert np.array_equal(mapped[free], labels[free])
    changed = mapped != grid_labels
    assert (ref.CATEGORY_OF_LABEL[grid_labels[changed]] == CAT_SHARED).all()
    assert np.isin(mapped[changed], STAGE_LABELS).all()
    with pytest.raises(TypeError):
        cmap.grid.lattice.slots[0][0] = 0


def relabel_taken(before, after, labels, label):
    """`labels` with `label` on every cell whose category left the shared pool
    between the category arrays `before` and `after`."""
    return np.where((before == CAT_SHARED) & (after != CAT_SHARED), label, labels)


# UNLABELED and the LTE labels: a slot of these alone is decided by one `max`.
LTE_ONLY_LABELS = [int(l) for l in ReLabel if l is ReLabel.UNLABELED or l.name.startswith("LTE_")]
SHARED_LABELS = np.flatnonzero(ref.CATEGORY_OF_LABEL == CAT_SHARED).tolist()


@st.composite
def staged_lattices(draw):
    """(grid, control mode, stages): several map stages in a drawn order, each
    an IoT reservation ("iot", ([(prb_start, prb_stop, slots or None)],)) or
    6G SSB occasions ("ssb", (occasions, prbs, symbols)): a stage's
    arguments after the carrier.

    Each slot draws from the whole alphabet, from the shared labels only,
    from the LTE-only labels, or from the labels up to a drawn largest one;
    a reservation window is sometimes relabeled with LTE-only, guard and
    uplink labels and an SSB block cleared, so that the stage can succeed."""
    n_slots, n_prb = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    carrier = CarrierConfig(15, n_prb=n_prb, duplex="FDD", span_ms=n_slots)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (14, 12 * n_prb)
    pools = {"all": list(range(len(ReLabel))), "shared": SHARED_LABELS, "lte": LTE_ONLY_LABELS}
    slots = []
    for _ in range(n_slots):
        pool = draw(st.sampled_from(sorted(pools) + ["up to"]))
        if pool == "up to":
            # Labels up to a drawn one, which the slot holds: its largest label.
            top = draw(st.integers(0, len(ReLabel) - 1))
            slot = rng.integers(0, top + 1, size=shape)
            slot.flat[rng.integers(slot.size)] = top
        else:
            slot = rng.choice(pools[pool], size=shape)
        slots.append(slot)
    labels = np.stack(slots).astype(np.uint8)
    kind = draw(st.sampled_from(list(ControlModeKind)))
    fraction = None
    if kind is ControlModeKind.PARTIALLY_OVERLAPPING:
        fraction = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    stages = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            p0 = draw(st.integers(0, n_prb))
            p1 = draw(st.integers(p0, n_prb))
            slots = draw(st.one_of(st.none(), st.lists(st.integers(0, n_slots - 1), max_size=3)))
            if draw(st.booleans()):
                rows = slice(None) if slots is None else sorted(set(slots))
                window = labels[rows, :, p0 * 12:p1 * 12]
                labels[rows, :, p0 * 12:p1 * 12] = rng.choice(
                    LTE_ONLY_LABELS + [ReLabel.GUARD_SYMBOL, ReLabel.UPLINK_SYMBOL], size=window.shape)
            stages.append(("iot", ([(p0, p1, slots)],)))
        else:
            prbs, symbols = draw(st.integers(1, n_prb)), draw(st.integers(1, 14))
            occasions = []
            for _ in range(draw(st.integers(1, 3))):
                occasion = (draw(st.integers(0, n_slots - 1)), draw(st.integers(0, 14 - symbols)),
                            draw(st.integers(0, n_prb - prbs)))
                if draw(st.booleans()):
                    slot, symbol, prb = occasion
                    labels[slot, symbol:symbol + symbols, prb * 12:(prb + prbs) * 12] = ReLabel.UNLABELED
                occasions.append(occasion)
            stages.append(("ssb", (occasions, prbs, symbols)))
    return ResourceGrid(carrier, ref.lattice_of(labels)), ControlMode(kind, fraction), stages


class TestMapsWithoutStoredCategories:
    @settings(max_examples=300, deadline=None)
    @given(staged_lattices())
    def test_counts_and_categories_equal_the_gather(self, case):
        # The dense reference keeps a category array beside its labels, and
        # writes each stage's label on UNLABELED cells only; the map holds
        # labels alone and reads its categories through the table. Both must
        # reach the same verdicts, categories and stage labels.
        grid, mode, stages = case
        grid_labels = ref.gather(grid.lattice).copy()
        try:
            reference, labels = ref.classify(grid_labels, mode)
        except PlacementError as exc:
            with pytest.raises(PlacementError) as err:
                classify_mrss(grid.lattice.copy(), mode)
            assert str(err.value) == str(exc)
            return
        cmap = staged(grid, classify_mrss, mode)
        assert_map_matches(cmap, grid, reference, labels)
        # The staged map's labels: the grid's, each shared-pool cell that a
        # stage took from the reference's pool relabeled with that stage's label.
        expected = relabel_taken(ref.CATEGORY_OF_LABEL[grid_labels], reference, grid_labels,
                                 ReLabel.SIXG_CONTROL)
        assert count_labels(cmap.grid) == ref.count_labels(expected)

        for kind, args in stages:
            dense_stage, stage = ((ref.reserve_iot, reserve_iot) if kind == "iot"
                                  else (ref.place_6g_ssb, place_6g_ssb))
            try:
                reference, labels = dense_stage(grid.config, reference, labels, *args)
            except GridShareError as exc:
                written = cmap.grid.lattice.copy()
                with pytest.raises(type(exc)) as err:
                    stage(written, grid.config, *args)
                assert ref.verdict(err.value) == ref.verdict(exc)
                assert all(map(operator.is_, written.slots, cmap.grid.lattice.slots))
                return
            before = ref.gather(cmap.grid.lattice)
            expected = relabel_taken(ref.categories(cmap.grid.lattice), reference, expected,
                                     ReLabel.RESERVED_IOT if kind == "iot" else ReLabel.SIXG_SSB)
            prev, cmap = cmap, staged(cmap, stage, grid.config, *args)
            assert np.array_equal(ref.gather(prev.grid.lattice), before)
            assert np.array_equal(ref.gather(grid.lattice), grid_labels)
            assert_map_matches(cmap, grid, reference, labels)
            assert count_labels(cmap.grid) == ref.count_labels(expected)

    def test_lte_only_map_holds_no_category_lattice(self):
        # The map stored a gathered category lattice: the classify-to-simulate
        # path peaked at 1.09x the label lattice.
        carrier = CarrierConfig(15, n_prb=100, duplex="FDD", span_ms=100)
        grid = apply_lte(make_grid(carrier), LteCellConfig(crs_ports=4))
        traffic = TrafficModel((0, 20_000), (0, 20_000), seed=3)
        policy = SchedPolicy.PROPORTIONAL_SHARE
        simulate(fdd_map(), traffic, policy)  # warms one-time imports before tracing
        tracemalloc.start()
        try:
            cmap = staged(grid, classify_mrss)
            pool = cmap.shared_cells_per_slot()
            sizes = (cmap.reserved_size, cmap.control_region_size, cmap.downlink_size)
            result = simulate(cmap, traffic, policy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * grid.n_cells
        assert pool.tolist() == [14 * 1200] * 100
        assert sizes == (0, 0, grid.n_cells)
        assert result.shared_pool_size == grid.n_cells

    def test_stages_from_a_derived_map_leave_it_unchanged(self):
        carrier = CarrierConfig(15, n_prb=25, span_ms=2)
        cmap = staged(apply_lte(make_grid(carrier), LteCellConfig()), classify_mrss)
        grid, before = cmap.grid, ref.gather(cmap.grid.lattice)
        out = staged(staged(cmap, reserve_iot, carrier, [(0, 2, None)]),
                     place_6g_ssb, carrier, [(1, 12, 5)], 4, 2)
        assert cmap.grid is grid
        assert np.array_equal(ref.gather(cmap.grid.lattice), before)
        assert cmap.reserved_size == 0
        assert out.reserved_size == 2 * 14 * 24 + 2 * 4 * 12
        assert out.grid.config is cmap.grid.config
