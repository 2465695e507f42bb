import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import (
    BeamSignal,
    CarrierConfig,
    ConfigError,
    ConflictError,
    Coreset1Spec,
    CsiRsSpec,
    LteCellConfig,
    NrOverlaySet,
    PlacementError,
    ReLabel,
    TddPattern,
    TrsSpec,
    apply_lte,
    apply_nr,
    count_labels,
    make_grid,
)
from gridshare.budget import dss_pool_by_grid, verify_overhead_by_grid
from gridshare.grid import Lattice, ResourceGrid, new_labels
from gridshare import nr
from gridshare.nr import _first_free_per_prb, nr_plan, place_nr

import dense_reference as ref
from gridshare.value import replace


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


class TestClosedForms:
    def test_ssb(self):
        assert BeamSignal(4, 20, 4).re_count(wideband_tdd_carrier()) == 3840

    def test_coreset1_follows_dl_bearing_slots(self):
        carrier = wideband_tdd_carrier()
        assert Coreset1Spec(270, 2).re_count(carrier) == 207_360
        assert Coreset1Spec(270, 2, slots=32).re_count(carrier) == 207_360

    def test_trs(self):
        assert TrsSpec(52, 2, 6, 4, 2).re_count(wideband_tdd_carrier()) == 4992

    def test_csi_rs(self):
        assert CsiRsSpec(32, 1, 272, 1).re_count(wideband_tdd_carrier()) == 8704

    def test_signal_counts_full_overlay(self):
        counts = full_overlay().signal_counts(wideband_tdd_carrier())
        assert counts == {
            "SSB": 3840, "CORESET 0": 4608, "SIB1": 4608,
            "CORESET 1": 207_360, "CSI-RS": 8704, "TRS": 4992,
        }

    def test_prbs_must_fit_carrier(self):
        carrier = CarrierConfig(30, n_prb=100, duplex="TDD",
                                span_ms=20, tdd_pattern=TddPattern("DDDSU"))
        with pytest.raises(ConfigError, match="CORESET 1"):
            full_overlay().signal_counts(carrier)


class TestApplyNr:
    def test_full_overlay_grid_counts_match_closed_forms(self):
        carrier = wideband_tdd_carrier()
        grid = apply_nr(make_grid(carrier), full_overlay())
        counts = count_labels(grid)
        assert counts[ReLabel.NR_SSB] == 3840
        assert counts[ReLabel.NR_PDCCH_CORESET0] == 4608
        assert counts[ReLabel.NR_SIB1] == 4608
        assert counts[ReLabel.NR_PDCCH_CORESET1] == 207_360
        assert counts[ReLabel.NR_CSI_RS] == 8704
        assert counts[ReLabel.NR_TRS] == 4992

    def test_placement_preserves_uplink_and_guard(self):
        carrier = wideband_tdd_carrier()
        before = count_labels(make_grid(carrier))
        after = count_labels(apply_nr(make_grid(carrier), full_overlay()))
        for label in (ReLabel.UPLINK_SYMBOL, ReLabel.GUARD_SYMBOL):
            assert before[label] == after[label]

    def test_period_must_match_span(self):
        with pytest.raises(ConfigError, match="period"):
            apply_nr(make_grid(wideband_tdd_carrier()), NrOverlaySet(period_ms=10))

    def test_too_many_units_rejected(self):
        carrier = CarrierConfig(30, n_prb=20, duplex="TDD",
                                span_ms=5, tdd_pattern=TddPattern("DDDSU"))
        overlay = NrOverlaySet(period_ms=5, ssb=BeamSignal(16, 20, 4))
        with pytest.raises(PlacementError):
            apply_nr(make_grid(carrier), overlay)

    def test_block_too_tall_rejected(self):
        carrier = CarrierConfig(30, n_prb=20, duplex="TDD",
                                span_ms=5, tdd_pattern=TddPattern("UUUUS", (2, 4, 8)))
        overlay = NrOverlaySet(period_ms=5, ssb=BeamSignal(1, 20, 4))
        with pytest.raises(PlacementError, match="SSB"):
            apply_nr(make_grid(carrier), overlay)


class TestNrDssSlot:
    """The DSS slot's one placement, `budget.dss_pool_by_grid`: NR control
    after LTE control at symbol 2, DMRS checked against CRS and control."""

    @pytest.mark.parametrize("ports,pool", [(1, 102), (2, 96), (4, 92)])
    def test_shared_slot_data_pools(self, ports, pool):
        assert dss_pool_by_grid(ports, 2, 1, {3, 12}) == pool

    def test_pure_nr_slot_pool(self):
        # No incumbent: 1 NR PDCCH symbol + 2 DMRS symbols leave 132 per PRB.
        assert dss_pool_by_grid(0, 0, 1, {3, 12}) == 132

    def test_dmrs_on_crs_symbol_rejected(self):
        with pytest.raises(ConfigError, match="CRS"):
            dss_pool_by_grid(1, 2, 1, {4, 12})

    def test_dmrs_inside_control_rejected(self):
        with pytest.raises(ConfigError, match="control region"):
            dss_pool_by_grid(1, 2, 1, {2, 12})

    @pytest.mark.parametrize("symbol", [14, -1])
    def test_dmrs_outside_the_slot_rejected(self, symbol):
        # Checked before the footprint is built: -1 would index symbol 13.
        with pytest.raises(ConfigError, match=f"DMRS symbol {symbol} out of range"):
            dss_pool_by_grid(1, 2, 1, (symbol,))

    def test_pool_strictly_decreases_with_ports(self):
        pools = [dss_pool_by_grid(ports, 2, 1, {3, 12}) for ports in (1, 2, 4)]
        assert pools[0] > pools[1] > pools[2]


class TestFirstFreePerPrb:
    @settings(max_examples=60, deadline=None)
    @given(
        n_sym=st.integers(1, 14),
        prbs=st.integers(1, 5),
        amount=st.integers(0, 12),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_prb_scan(self, n_sym, prbs, amount, seed):
        rng = np.random.default_rng(seed)
        view = np.where(rng.random((n_sym, prbs * 12)) < 0.3, ReLabel.LTE_CRS_P0, 0).astype(np.uint8)
        expected = np.zeros(view.shape, dtype=bool)
        short = None
        for prb in range(prbs):
            sub = view[:, prb * 12 : (prb + 1) * 12]
            free = np.flatnonzero(sub == ReLabel.UNLABELED)
            if free.size < amount:
                short = prb
                break
            rows, cols = np.unravel_index(free[:amount], sub.shape)
            expected[rows, prb * 12 + cols] = True
        cells, width = view.tobytes(), prbs * 12
        if short is not None:
            with pytest.raises(PlacementError, match=f"PRB {short}$"):
                _first_free_per_prb(cells, width, amount, "TRS", ReLabel.NR_TRS)
        else:
            pick = _first_free_per_prb(cells, width, amount, "TRS", ReLabel.NR_TRS)
            np.testing.assert_array_equal(np.frombuffer(pick, dtype=np.uint8).reshape(view.shape) != 0, expected)


class TestOccasionUnitCount:
    """The occasion units are counted, not listed, before they are compared
    with the DL slots, so a huge beam count fails at once and in little memory."""

    def test_million_beams_fail_before_allocating(self):
        grid = make_grid(wideband_tdd_carrier())
        overlay = replace(full_overlay(), ssb=BeamSignal(10**6, 20, 4))
        tracemalloc.start()
        try:
            with pytest.raises(PlacementError) as err:
                apply_nr(grid, overlay)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == (
            "1000025 occasion units need distinct DL slots but only 32 are available"
        )
        assert peak < 1_000_000


def outcome(build):
    """The built labels, or the (class, message) of the gridshare error."""
    try:
        return build(), None
    except (ConfigError, PlacementError, ConflictError) as exc:
        return None, (type(exc), str(exc))


def placed_and_dense(carrier, cell, overlay):
    """`apply_nr` after `apply_lte`, and the dense slot-by-slot reference."""
    def placed():
        return ref.gather(apply_nr(apply_lte(make_grid(carrier), cell), overlay).lattice)

    def dense():
        arr = ref.new_labels(carrier)
        ref.place_lte(arr, carrier, cell)
        ref.place_nr(arr, carrier, overlay)
        return arr

    return outcome(placed), outcome(dense)


class TestUnitsPlacedTogether:
    """`place_nr` places CORESET1 and all units in one `place_slots` call,
    each pick read from its slot's row after CORESET1; the result and the
    first error are those of placing them slot by slot, CORESET1 before a
    slot's unit."""

    CARRIER = CarrierConfig(15, n_prb=6, duplex="FDD", span_ms=10)

    def test_each_pick_reads_its_own_slots_row(self):
        # 60 CSI-RS REs per PRB reach symbols 5 and 6, where subframes 0 and
        # 5 carry PSS/SSS: those two slots pick around them, the rest do not.
        overlay = NrOverlaySet(period_ms=10, csi_rs=CsiRsSpec(10, 6, 6, 10))
        (got, error), (want, want_error) = placed_and_dense(
            self.CARRIER, LteCellConfig(crs_ports=2, pdcch_symbols=1), overlay)
        assert error is None and want_error is None
        np.testing.assert_array_equal(got, want)
        picks = [set(np.flatnonzero(got[s] == ReLabel.NR_CSI_RS)) for s in range(10)]
        assert picks[0] != picks[1] and picks[1] == picks[2]

    def test_an_earlier_units_conflict_comes_before_a_later_misfit(self):
        # The SSB in slot 0 meets LTE CRS; the TRS in slot 1 finds 144 of
        # its 150 cells per PRB free of LTE control and CRS.
        overlay = NrOverlaySet(period_ms=10, ssb=BeamSignal(1, 6, 4),
                               trs=TrsSpec(6, 1, 150, 1, 1))
        cell = LteCellConfig(crs_ports=2, pdcch_symbols=1)
        (_, error), (_, want_error) = placed_and_dense(self.CARRIER, cell, overlay)
        assert error == want_error
        assert error == (ConflictError, "conflict at cell (0, 0, 0): existing LTE_CRS_P0, new NR_SSB")
        (_, alone), _ = placed_and_dense(self.CARRIER, cell, replace(overlay, ssb=None))
        assert alone == (PlacementError, "TRS: collision in slot 0, PRB 0")

    def test_a_unit_too_large_for_its_slot_is_rejected_before_any_write(self):
        # 200 RE per PRB exceed the 168 cells of a slot: `nr_plan` rejects
        # the TRS before the SSB meets LTE CRS, as `nr_overhead` does.
        overlay = NrOverlaySet(period_ms=10, ssb=BeamSignal(1, 6, 4),
                               trs=TrsSpec(6, 1, 200, 1, 1))
        (_, error), (_, want_error) = placed_and_dense(
            self.CARRIER, LteCellConfig(crs_ports=2, pdcch_symbols=1), overlay)
        assert error == want_error == (PlacementError, "TRS: needs 200 RE/PRB in slot 1")

    def test_a_later_units_failure_leaves_the_lattice_unchanged(self):
        # The TRS in slot 0 fits; the CSI-RS in slot 1 needs 150 cells per
        # PRB, where LTE control and 2-port CRS leave 144. The TRS was once
        # written all the same.
        overlay = NrOverlaySet(period_ms=10, trs=TrsSpec(6, 1, 3, 1, 1),
                               csi_rs=CsiRsSpec(10, 15, 6, 1))
        cell = LteCellConfig(crs_ports=2, pdcch_symbols=1)
        (_, error), (_, want_error) = placed_and_dense(self.CARRIER, cell, overlay)
        assert error == want_error == (PlacementError, "CSI-RS: collision in slot 1, PRB 0")
        lattice = apply_lte(make_grid(self.CARRIER), cell).lattice.copy()
        before = list(lattice.slots)
        with pytest.raises(PlacementError):
            place_nr(lattice, self.CARRIER, overlay)
        assert lattice.slots == before

    def test_a_units_failure_leaves_coreset1_unwritten(self):
        # Slot 0 holds RESERVED_IOT on symbols 4-13: CORESET1 takes symbols
        # 0-1 of both slots, and the CSI-RS in slot 0 finds 24 of its 28
        # cells free. CORESET1 was once written all the same.
        carrier = CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=2)
        arr = ref.new_labels(carrier)
        arr[0, 4:] = ReLabel.RESERVED_IOT
        lattice = ref.lattice_of(arr)
        before = list(lattice.slots)
        overlay = NrOverlaySet(period_ms=2, coreset1=Coreset1Spec(1, 2), csi_rs=CsiRsSpec(4, 7, 1, 1))
        with pytest.raises(PlacementError, match="^CSI-RS: collision in slot 0, PRB 0$"):
            place_nr(lattice, carrier, overlay)
        assert lattice.slots == before

    def test_the_lowest_slots_error_comes_first_from_coreset1_or_a_unit(self):
        # The CSI-RS in slot 0 finds 24 of its 28 cells free; CORESET1 meets
        # RESERVED_IOT in slot 1. CORESET1 was once placed over every slot
        # before any unit, and its conflict raised instead.
        carrier = CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=2)
        arr = ref.new_labels(carrier)
        arr[0, 4:] = arr[1, 1] = ReLabel.RESERVED_IOT
        overlay = NrOverlaySet(period_ms=2, coreset1=Coreset1Spec(1, 2), csi_rs=CsiRsSpec(4, 7, 1, 1))
        with pytest.raises(PlacementError, match="^CSI-RS: collision in slot 0, PRB 0$"):
            ref.place_nr(arr.copy(), carrier, overlay)
        lattice = ref.lattice_of(arr)
        before = list(lattice.slots)
        with pytest.raises(PlacementError, match="^CSI-RS: collision in slot 0, PRB 0$"):
            place_nr(lattice, carrier, overlay)
        assert lattice.slots == before
        arr[0, 4:] = ReLabel.UNLABELED
        with pytest.raises(ConflictError, match=r"^conflict at cell \(1, 1, 0\): existing RESERVED_IOT"):
            place_nr(ref.lattice_of(arr), carrier, overlay)

    def test_one_place_slots_call_and_no_copy(self, monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def run(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return run

        monkeypatch.setattr(nr, "place_slots", counted("place_slots", nr.place_slots))
        monkeypatch.setattr(Lattice, "copy", counted("copy", Lattice.copy))
        carrier, overlay = wideband_tdd_carrier(), full_overlay()
        lattice = new_labels(carrier)
        place_nr(lattice, carrier, overlay)
        assert calls == {"place_slots": 1}
        arr = ref.new_labels(carrier)
        ref.place_nr(arr, carrier, overlay)
        np.testing.assert_array_equal(ref.gather(lattice), arr)

    def test_each_pick_runs_once_per_distinct_unit_and_row(self, monkeypatch):
        # 100 subframes of LTE hold three distinct rows (subframes 0, 5 and
        # the rest); 90 "re" units over them need at most 2 x 3 picks.
        carrier = CarrierConfig(15, n_prb=6, duplex="FDD", span_ms=100)
        grid = apply_lte(make_grid(carrier), LteCellConfig(crs_ports=2, pdcch_symbols=1))
        overlay = NrOverlaySet(period_ms=100, csi_rs=CsiRsSpec(4, 1, 6, 50),
                               trs=TrsSpec(6, 1, 3, 2, 20))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _first_free_per_prb(*args, **kwargs)

        monkeypatch.setattr(nr, "_first_free_per_prb", counted)
        placed = apply_nr(grid, overlay)
        placements = nr_plan(carrier, overlay)
        pairs = {(i, grid.lattice.slots[slot]) for i, (slots, *_) in enumerate(placements) for slot in slots}
        assert sum(len(slots) for slots, *_ in placements) == 90 and len(calls) == len(pairs) == 6
        assert count_labels(placed)[ReLabel.NR_CSI_RS] == 4 * 6 * 50


class TestPlanIsPlacements:
    """`nr_plan` returns the placements `place_nr` writes, one per group of a
    signal's slots that share a first symbol and a downlink length, and
    decides what to place from the units' geometry, not the closed form."""

    @pytest.mark.parametrize("spec_class", [BeamSignal, Coreset1Spec, CsiRsSpec, TrsSpec])
    def test_the_grid_route_reads_no_closed_form(self, monkeypatch, spec_class):
        # With the closed form read as 0, the grid still counts every placed
        # cell, so the two routes disagree. The plan once skipped a signal
        # whose closed form read 0, and both routes read 0.
        carrier, overlay = wideband_tdd_carrier(), full_overlay()
        want = overlay.signal_counts(carrier)
        monkeypatch.setattr(spec_class, "re_count", lambda self, carrier: 0)
        closed = overlay.signal_counts(carrier)
        assert verify_overhead_by_grid(carrier, overlay) == want != closed

    def test_thousands_of_units_are_one_placement_per_signal(self):
        carrier = CarrierConfig(15, n_prb=6, duplex="FDD", span_ms=3000)
        overlay = NrOverlaySet(period_ms=3000, csi_rs=CsiRsSpec(4, 1, 6, 2000),
                               trs=TrsSpec(6, 2, 3, 2, 250))
        placements = nr_plan(carrier, overlay)
        # TRS before CSI-RS (`UNIT_ORDER`), each over its own distinct slots.
        assert [(slots[0], len(slots)) for slots, *_ in placements] == [(0, 1000), (1000, 2000)]
        (got, error), (want, want_error) = placed_and_dense(
            carrier, LteCellConfig(crs_ports=2, pdcch_symbols=1), overlay)
        assert error is None and want_error is None
        np.testing.assert_array_equal(got, want)
        counts = count_labels(ResourceGrid(carrier, ref.lattice_of(got)))
        assert counts[ReLabel.NR_TRS] == 6 * 3 * 1000 and counts[ReLabel.NR_CSI_RS] == 6 * 4 * 2000
