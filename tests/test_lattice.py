"""The slot-shared grid and map lattices against the dense reference.

`dense_reference` stores one byte per resource element and places, checks
and counts slot by slot. Every grid, count, map and error of the lattice
that stores each distinct slot once must equal it.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from gridshare import cli
from gridshare.errors import ConfigError, GridShareError
from gridshare.grid import (
    CarrierConfig,
    ReLabel,
    ResourceGrid,
    TddPattern,
    count_labels,
    make_grid,
    new_labels,
    place_slots,
)
from gridshare.lte import MBSFN_ALLOWED, LteCellConfig, apply_lte, place_lte
from gridshare.mrss import (
    CAT_CONTROL,
    CAT_NON_DL,
    CAT_RESERVED,
    CAT_SHARED,
    ControlMode,
    ControlModeKind,
    SchedPolicy,
    TrafficModel,
    classify_mrss,
    place_6g_ssb,
    reserve_iot,
    simulate,
)
from gridshare.nr import BeamSignal, Coreset1Spec, CsiRsSpec, NrOverlaySet, TrsSpec, place_nr
from gridshare.scenario import parse_scenario

CYCLES = ["D", "DS", "DSU", "SU", "DDDSU", "DSUDD"]


@st.composite
def carriers(draw, scs):
    n_prb = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return CarrierConfig(scs, n_prb=n_prb, duplex="FDD",
                             span_ms=draw(st.integers(1, 12)))
    cycle = draw(st.sampled_from(CYCLES))
    dl = draw(st.integers(0, 14))
    guard = draw(st.integers(0, 14 - dl))
    return CarrierConfig(
        scs, n_prb=n_prb, duplex="TDD", span_ms=len(cycle) * draw(st.integers(1, 3)),
        tdd_pattern=TddPattern(cycle, (dl, guard, 14 - dl - guard)),
    )


@st.composite
def lte_cells(draw, carrier):
    candidates = [sf for sf in range(carrier.n_slots)
                  if sf % 10 in MBSFN_ALLOWED[carrier.duplex]
                  and carrier.dl_symbols_in_slot(sf) == 14]
    mbsfn = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    cell = LteCellConfig(
        cell_id=draw(st.integers(0, 503)), crs_ports=draw(st.sampled_from([1, 2, 4])),
        pdcch_symbols=draw(st.integers(1, 3)), mbsfn_subframes=mbsfn,
        non_mbsfn_region_len=draw(st.integers(1, 2)),
    )
    return cell, draw(st.booleans())


@st.composite
def overlays(draw, carrier):
    n = carrier.n_prb

    def maybe(make):
        return make() if draw(st.booleans()) else None

    return NrOverlaySet(
        period_ms=carrier.span_ms,
        ssb=maybe(lambda: BeamSignal(draw(st.integers(0, 3)), draw(st.integers(1, n)),
                                     draw(st.integers(1, 4)))),
        sib1=maybe(lambda: BeamSignal(draw(st.integers(0, 2)), draw(st.integers(1, n)),
                                      draw(st.integers(1, 4)))),
        coreset1=maybe(lambda: Coreset1Spec(draw(st.integers(1, n)), draw(st.integers(1, 3)),
                                            draw(st.one_of(st.none(), st.integers(0, 4))))),
        csi_rs=maybe(lambda: CsiRsSpec(draw(st.integers(1, 4)), 1, draw(st.integers(1, n)),
                                       draw(st.integers(0, 2)))),
        trs=maybe(lambda: TrsSpec(draw(st.integers(1, n)), draw(st.integers(1, 2)),
                                  draw(st.integers(1, 6)), 1, 1)),
    )


@st.composite
def cases(draw):
    scs = draw(st.sampled_from([15, 30]))
    carrier = draw(carriers(scs))
    lte = []
    if scs == 15 and draw(st.booleans()):
        lte.append(draw(lte_cells(carrier)))
        if draw(st.integers(0, 3)) == 0:
            lte.append(draw(lte_cells(carrier)))  # a second cell: a conflict
    nr = draw(overlays(carrier)) if draw(st.booleans()) else None
    n_slots, n_prb = carrier.n_slots, carrier.n_prb
    iot = []
    for _ in range(draw(st.integers(0, 2))):
        p0 = draw(st.integers(0, n_prb))
        slots = draw(st.one_of(st.none(), st.lists(st.integers(0, n_slots - 1), max_size=4)))
        iot.append(((p0, draw(st.integers(p0, n_prb))), slots))
    prbs, symbols = draw(st.integers(1, n_prb)), draw(st.integers(1, 4))
    occasions = [(draw(st.integers(0, n_slots - 1)), draw(st.integers(0, 14 - symbols)),
                  draw(st.integers(0, n_prb - prbs))) for _ in range(draw(st.integers(0, 3)))]
    fraction = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    traffic = TrafficModel((0, 14 * 12 * n_prb), (0, 14 * 12 * n_prb),
                           seed=draw(st.integers(0, 2**16)))
    return carrier, lte, nr, iot, (occasions, prbs, symbols), fraction, traffic


def outcome(fn, *args, **kwargs):
    """(result, None), or (None, (error class, message)) for a gridshare error."""
    try:
        return fn(*args, **kwargs), None
    except GridShareError as exc:
        return None, (type(exc), str(exc))


def build_dense(carrier, lte, nr):
    arr = ref.new_labels(carrier)
    for cell, sync in lte:
        ref.place_lte(arr, carrier, cell, sync)
    if nr is not None:
        ref.place_nr(arr, carrier, nr)
    return arr


def build_shared(carrier, lte, nr):
    labels = new_labels(carrier)
    for cell, sync in lte:
        place_lte(labels, carrier, cell, sync)
    if nr is not None:
        place_nr(labels, carrier, nr)
    return ResourceGrid(carrier, labels)


def assert_stores_each_slot_once(lattice):
    contents = {bytes(row) for row in lattice.rows}
    assert len(contents) == len(lattice.rows)
    assert set(lattice.slot_rows) == set(range(len(lattice.rows)))


class _Pools:
    """Stands in for a map in `simulate`: the reference's shared cells per slot."""

    def __init__(self, pool):
        self.pool = pool

    def shared_cells_per_slot(self):
        return self.pool


def assert_map_equals(cmap, grid, categories, labels):
    per_slot = ref.cells_per_slot(categories)
    assert cmap.grid is grid
    assert np.array_equal(ref.categories(cmap.lattice), categories)
    free = ref.gather(grid.lattice) == ReLabel.UNLABELED
    assert np.array_equal(ref.gather(cmap.lattice)[free], labels[free])
    assert np.array_equal(cmap.shared_cells_per_slot(), per_slot[CAT_SHARED])
    assert (cmap.shared_pool_size, cmap.reserved_size, cmap.control_region_size,
            cmap.downlink_size) == (
        int(per_slot[CAT_SHARED].sum()), int(per_slot[CAT_RESERVED].sum()),
        int(per_slot[CAT_CONTROL].sum()), categories.size - int(per_slot[CAT_NON_DL].sum()))
    assert_stores_each_slot_once(cmap.lattice)


class TestAgainstDenseReference:
    @settings(max_examples=300, deadline=None)
    @given(cases())
    def test_grids_counts_maps_grants_and_errors(self, case):
        carrier, lte, nr, iot, ssb, fraction, traffic = case
        arr, error = outcome(build_dense, carrier, lte, nr)
        grid, shared_error = outcome(build_shared, carrier, lte, nr)
        assert shared_error == error
        if error is not None:
            return
        assert np.array_equal(ref.gather(grid.lattice), arr)
        assert_stores_each_slot_once(grid.lattice)
        assert count_labels(grid) == ref.count_labels(arr)

        for kind in ControlModeKind:
            mode = ControlMode(kind, fraction if kind is ControlModeKind.PARTIALLY_OVERLAPPING
                               else None)
            dense, error = outcome(ref.classify, arr, mode)
            cmap, shared_error = outcome(classify_mrss, grid, control_mode=mode)
            assert shared_error == error
            if error is not None:
                continue
            categories, labels = dense
            assert_map_equals(cmap, grid, categories, labels)
            stages = [(ref.reserve_iot, reserve_iot, (window, slots), {})
                      for window, slots in iot]
            occasions, prbs, symbols = ssb
            stages.append((ref.place_6g_ssb, place_6g_ssb, (occasions,),
                           {"prbs": prbs, "symbols": symbols}))
            for dense_stage, stage, args, kwargs in stages:
                dense, error = outcome(dense_stage, carrier, categories, labels, *args,
                                       *kwargs.values())
                staged, shared_error = outcome(stage, cmap, *args, **kwargs)
                assert shared_error == error
                if error is not None:
                    break
                (categories, labels), cmap = dense, staged
                assert_map_equals(cmap, grid, categories, labels)
            pool = ref.cells_per_slot(categories)[CAT_SHARED]
            for policy in SchedPolicy:
                assert simulate(cmap, traffic, policy) == simulate(_Pools(pool), traffic, policy)


class TestLattice:
    def test_lte_stores_its_subframe_templates_once(self):
        carrier = CarrierConfig(15, n_prb=100, duplex="FDD", span_ms=1000)
        cell = LteCellConfig(crs_ports=4, mbsfn_subframes=range(1, 1000, 10))
        grid = apply_lte(make_grid(carrier), cell)
        # normal, MBSFN, subframe 0 and subframe 5 mod 10.
        assert len(grid.lattice.rows) == 4
        assert grid.n_cells == 1000 * 14 * 1200

    def test_write_over_shared_slots_copies_the_row(self):
        lattice = new_labels(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=4))
        place_slots(lattice, [((1, 3), range(1), range(2), ReLabel.NR_SSB)])
        assert lattice.slot_rows == [0, 1, 0, 1]
        assert not np.asarray(lattice.rows[0]).any()
        # Every slot of row 1 is written: in place, with no new row.
        place_slots(lattice, [((1, 3), range(1, 2), range(1), ReLabel.NR_SSB)])
        assert len(lattice.rows) == 2
        assert np.count_nonzero(lattice.rows[1]) == 3

    def test_copies_share_rows_until_written(self):
        grid = make_grid(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=3))
        before = ref.gather(grid.lattice)
        copy = grid.lattice.copy()
        assert copy.rows[0] is grid.lattice.rows[0]
        place_slots(copy, [(range(3), range(14), range(12), ReLabel.NR_CSI_RS)])
        assert copy.rows[0] is not grid.lattice.rows[0]
        assert np.array_equal(ref.gather(grid.lattice), before)
        assert (ref.gather(copy) == ReLabel.NR_CSI_RS).all()

    def test_dense_array_is_copied_into_rows(self):
        arr = np.zeros((2, 14, 12), dtype=np.uint8)
        lattice = ref.lattice_of(arr)
        place_slots(lattice, [((1,), range(1), range(12), ReLabel.NR_SSB)])
        dense = ref.gather(lattice)
        assert dense[1, 0].tolist() == [ReLabel.NR_SSB] * 12
        assert not dense[0].any()
        assert not arr.any()

    def test_conflict_names_the_lowest_slot_over_all_placements(self):
        lattice = new_labels(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=6))
        place_slots(lattice, [((2, 5), range(3, 4), range(4, 5), ReLabel.NR_SSB),
                              ((4,), range(1), range(1), ReLabel.NR_TRS)])
        before = ref.gather(lattice)
        with pytest.raises(GridShareError, match=r"cell \(2, 3, 4\): existing NR_SSB"):
            place_slots(lattice, [((4, 5), range(14), range(12), ReLabel.NR_CSI_RS),
                                  ((0, 2), range(14), range(12), ReLabel.NR_CSI_RS)])
        assert np.array_equal(ref.gather(lattice), before)

    def test_placements_that_share_a_slot_are_rejected_before_any_write(self):
        # The second placement of slot 0 was once dropped without a word.
        lattice = new_labels(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=4))
        with pytest.raises(ConfigError, match="share slot 0"):
            place_slots(lattice, [((0,), range(14), range(12), ReLabel.NR_SSB),
                                  ((0,), range(14), range(12), ReLabel.NR_CSI_RS)])
        with pytest.raises(ConfigError, match="share slot 2"):
            place_slots(lattice, [((1, 2), range(1), range(12), ReLabel.NR_SSB),
                                  ((0,), range(5, 6), range(12), ReLabel.NR_DMRS),
                                  ((3, 2), range(7, 8), range(12), ReLabel.NR_CSI_RS)])
        assert not ref.gather(lattice).any()


def lte_stress_document(n_prb, n_subframes):
    """A 4-port LTE carrier with MBSFN in subframes 2 and 7 of every frame."""
    return {
        "carrier": {"scs_khz": 15, "n_prb": n_prb, "duplex": "FDD", "span_ms": n_subframes},
        "lte": {"cell_id": 201, "crs_ports": 4, "pdcch_symbols": 2,
                "mbsfn_subframes": [sf for sf in range(n_subframes) if sf % 10 in (2, 7)]},
        "traffic": {"demand_5g": [2000, 12000], "demand_6g": [3000, 13000], "seed": 201},
        "policy": "ProportionalShare",
    }


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_lte_stress_map_and_simulate_hold_the_distinct_subframes(self):
        # The dense lattice of 100 PRB x 1000 subframes is 16.8 MB; a
        # stored row per slot made build_map alone peak above it.
        scenario = parse_scenario(lte_stress_document(100, 1000))
        simulate(cli.build_map(parse_scenario(lte_stress_document(6, 10))),
                 scenario.traffic, scenario.policy)  # warms one-time imports before tracing
        dense = 1000 * 14 * 1200
        result = []
        peak = traced_peak(lambda: result.append(
            simulate(cli.build_map(scenario), scenario.traffic, scenario.policy)))
        assert peak <= 0.05 * dense
        assert result[0].shared_pool_size > 0

    def test_one_sfn_cycle_at_275_prb_simulates_in_a_small_fraction_of_its_dense_size(
            self, tmp_path, capsys):
        # 10240 subframes x 14 x 3300 subcarriers: a 473,088,000-byte dense lattice.
        path = tmp_path / "sfn_cycle.json"
        path.write_text(json.dumps(lte_stress_document(275, 10240)))
        argv = ["simulate", "-s", str(path), "-f", "csv"]
        codes = []
        peak = traced_peak(lambda: codes.append(cli.main(argv)))
        out = capsys.readouterr().out
        assert codes == [0]
        assert peak <= 0.05 * 473_088_000
        assert out.count("\n") == 10241
