"""The slot-shared grid and map lattices against the dense reference.

`dense_reference` stores one byte per resource element and places, checks
and counts slot by slot. Every grid, count, map and error of the lattice
that stores each distinct slot once must equal it.
"""

import collections
import functools
import json
import operator
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from staged import staged
from gridshare import cli
from gridshare import grid as grid_module
from gridshare import mrss as mrss_module
from gridshare.errors import ConfigError, ConflictError, GridShareError, PlacementError
from gridshare.grid import (
    CarrierConfig,
    Lattice,
    ReLabel,
    ResourceGrid,
    TddPattern,
    count_labels,
    label_counts,
    label_totals,
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

SCENARIOS = pathlib.Path(__file__).parent.parent / "scenarios"
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
    return LteCellConfig(
        cell_id=draw(st.integers(0, 503)), crs_ports=draw(st.sampled_from([1, 2, 4])),
        pdcch_symbols=draw(st.integers(1, 3)), mbsfn_subframes=mbsfn,
        non_mbsfn_region_len=draw(st.integers(1, 2)),
    )


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
        iot.append((p0, draw(st.integers(p0, n_prb)), slots))
    prbs, symbols = draw(st.integers(1, n_prb)), draw(st.integers(1, 4))
    occasions = [(draw(st.integers(0, n_slots - 1)), draw(st.integers(0, 14 - symbols)),
                  draw(st.integers(0, n_prb - prbs))) for _ in range(draw(st.integers(0, 3)))]
    fraction = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    traffic = TrafficModel((0, 14 * 12 * n_prb), (0, 14 * 12 * n_prb),
                           seed=draw(st.integers(0, 2**16)))
    return carrier, lte, nr, iot, (occasions, prbs, symbols), fraction, traffic


def outcome(fn, *args, **kwargs):
    """(result, None), or (None, `ref.verdict`) for a gridshare error."""
    try:
        return fn(*args, **kwargs), None
    except GridShareError as exc:
        return None, ref.verdict(exc)


def build_dense(carrier, lte, nr):
    arr = ref.new_labels(carrier)
    for cell in lte:
        ref.place_lte(arr, carrier, cell)
    if nr is not None:
        ref.place_nr(arr, carrier, nr)
    return arr


def build_shared(carrier, lte, nr):
    labels = new_labels(carrier)
    for cell in lte:
        place_lte(labels, carrier, cell)
    if nr is not None:
        place_nr(labels, carrier, nr)
    return ResourceGrid(carrier, labels)


def distinct_rows(lattice):
    """The number of row objects the lattice's slots hold."""
    return len(set(map(id, lattice.slots)))


def assert_stores_each_slot_once(lattice):
    assert all(type(row) is bytes for row in lattice.slots)
    assert distinct_rows(lattice) == len(set(lattice.slots))


class _Pools:
    """Stands in for a map in `simulate`: the reference's shared cells per slot."""

    def __init__(self, pool):
        self.pool = pool

    def shared_cells_per_slot(self):
        return self.pool


def assert_map_equals(cmap, grid, categories, labels):
    """The map of `grid` against the reference's categories and labels: a
    map label differs from the grid's only on a shared-pool cell."""
    per_slot = ref.cells_per_slot(categories)
    assert cmap.grid.config is grid.config
    assert np.array_equal(ref.categories(cmap.grid.lattice), categories)
    mapped, grid_labels = ref.gather(cmap.grid.lattice), ref.gather(grid.lattice)
    free = grid_labels == ReLabel.UNLABELED
    assert np.array_equal(mapped[free], labels[free])
    assert (ref.CATEGORY_OF_LABEL[grid_labels[mapped != grid_labels]] == CAT_SHARED).all()
    assert np.array_equal(cmap.shared_cells_per_slot(), per_slot[CAT_SHARED])
    assert (cmap.shared_pool_size, cmap.reserved_size, cmap.control_region_size,
            cmap.downlink_size) == (
        int(per_slot[CAT_SHARED].sum()), int(per_slot[CAT_RESERVED].sum()),
        int(per_slot[CAT_CONTROL].sum()), categories.size - int(per_slot[CAT_NON_DL].sum()))
    assert_stores_each_slot_once(cmap.grid.lattice)


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
            cmap, shared_error = outcome(staged, grid, classify_mrss, mode)
            assert shared_error == error
            if error is not None:
                continue
            categories, labels = dense
            assert_map_equals(cmap, grid, categories, labels)
            if kind is ControlModeKind.FULLY_OVERLAPPING:
                assert all(map(operator.is_, cmap.grid.lattice.slots, grid.lattice.slots))
            # The map stages as `cli.STAGES` writes them: every reservation
            # in one call, then every 6G SSB occasion in one call.
            for dense_stage, stage, args in ((ref.reserve_iot, reserve_iot, (iot,)),
                                             (ref.place_6g_ssb, place_6g_ssb, ssb)):
                dense, error = outcome(dense_stage, carrier, categories, labels, *args)
                before = ref.gather(cmap.grid.lattice)
                written, shared_error = outcome(staged, cmap, stage, carrier, *args)
                assert shared_error == error
                assert np.array_equal(ref.gather(cmap.grid.lattice), before)
                if error is not None:
                    break
                (categories, labels), cmap = dense, written
                assert_map_equals(cmap, grid, categories, labels)
            pool = ref.cells_per_slot(categories)[CAT_SHARED]
            for policy in SchedPolicy:
                assert simulate(cmap, traffic, policy) == simulate(_Pools(pool), traffic, policy)


    # A 5-slot DDDSU carrier of 4 PRBs: slot 3 has 6 downlink symbols.
    @pytest.mark.parametrize("stage, args, slot", [
        ("iot", ([(0, 5, None)],), None),
        ("iot", ([(0, 1, [0, 5])],), 5),
        ("iot", ([(0, 1, [2]), (1, 2, [-1])],), -1),
        ("ssb", ([(5, 0, 0)], 1, 1), 5),
        ("ssb", ([(0, 0, 3)], 2, 1), 0),
        ("ssb", ([(3, 4, 0)], 1, 4), 3),
    ])
    def test_a_placement_off_the_carrier_names_the_slot_the_reference_names(self, stage, args, slot):
        carrier = CarrierConfig(15, n_prb=4, duplex="TDD", span_ms=5, tdd_pattern=TddPattern("DDDSU"))
        categories, labels = ref.classify(ref.new_labels(carrier), ControlMode())
        dense_stage, shared_stage = {"iot": (ref.reserve_iot, reserve_iot),
                                     "ssb": (ref.place_6g_ssb, place_6g_ssb)}[stage]
        _, error = outcome(dense_stage, carrier, categories, labels, *args)
        _, shared_error = outcome(shared_stage, new_labels(carrier), carrier, *args)
        assert shared_error == error == (ConfigError, slot)


class TestLattice:
    def test_lte_stores_its_subframe_templates_once(self):
        carrier = CarrierConfig(15, n_prb=100, duplex="FDD", span_ms=1000)
        cell = LteCellConfig(crs_ports=4, mbsfn_subframes=range(1, 1000, 10))
        grid = apply_lte(make_grid(carrier), cell)
        # normal, MBSFN, subframe 0 and subframe 5 mod 10.
        assert distinct_rows(grid.lattice) == 4
        assert grid.n_cells == 1000 * 14 * 1200

    def test_write_over_shared_slots_copies_the_row(self):
        lattice = new_labels(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=4))
        fresh = lattice.slots[0]
        place_slots(lattice, [((1, 3), range(1), range(2), ReLabel.NR_SSB)])
        slots = lattice.slots
        assert slots[0] is slots[2] is fresh and slots[1] is slots[3] is not fresh
        assert not any(fresh)
        # Every slot of the written row is written: one new row replaces it.
        written = slots[1]
        place_slots(lattice, [((1, 3), range(1, 2), range(1), ReLabel.NR_SSB)])
        assert distinct_rows(lattice) == 2
        assert slots[0] is slots[2] is fresh and slots[1] is slots[3] is not written
        assert np.count_nonzero(np.frombuffer(slots[1], dtype=np.uint8)) == 3

    def test_rewrite_changes_rows_in_slot_order_and_stores_all_or_nothing(self):
        lattice = new_labels(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=4))
        before, calls = list(lattice.slots), []

        def change(label, fails=False):
            def run(slot, row):
                calls.append((label, slot))
                if fails:
                    raise GridShareError(f"{label} fails in slot {slot}")
                return bytes((label,)) * len(row)
            return run

        # Each write's slots hold one row, so each change runs once, at its
        # first slot, and every change runs in slot order over all writes.
        with pytest.raises(GridShareError, match="^3 fails in slot 2$"):
            lattice.rewrite([((3, 1), change(1)), ((2,), change(3, fails=True)), ((0,), change(2))])
        assert calls == [(2, 0), (1, 1), (3, 2)]
        assert lattice.slots == before
        lattice.rewrite([((3, 1), change(1)), ((0,), change(2))])
        assert [row[0] for row in lattice.slots] == [2, 1, 0, 1]
        assert lattice.slots[1] is lattice.slots[3] and lattice.slots[2] is before[2]

    def test_copy_of_a_writable_lattice_leaves_its_source_untouched(self):
        # copy() once turned every row of its source into bytes in place.
        lattice = new_labels(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=4))
        place_slots(lattice, [((1, 3), range(1), range(2), ReLabel.NR_SSB)])
        slots, objects = lattice.slots, list(lattice.slots)
        before = ref.gather(lattice)
        copy = lattice.copy()
        place_slots(copy, [(range(4), range(1, 2), range(12), ReLabel.NR_CSI_RS)])
        assert lattice.slots is slots
        assert len(slots) == len(objects) and all(map(operator.is_, slots, objects))
        assert slots[0] is slots[2] and slots[1] is slots[3] and distinct_rows(lattice) == 2
        assert np.array_equal(ref.gather(lattice), before)
        assert (ref.gather(copy)[:, 1] == ReLabel.NR_CSI_RS).all()

    def test_every_row_is_bytes(self):
        carrier = CarrierConfig(15, n_prb=6, duplex="TDD", span_ms=10,
                                tdd_pattern=TddPattern("DSUUD", (10, 2, 2)))

        def rows_are_bytes(lattice):
            return all(type(row) is bytes for row in lattice.slots)

        lattice = new_labels(carrier)
        assert rows_are_bytes(lattice)
        place_lte(lattice, carrier, LteCellConfig(crs_ports=4, mbsfn_subframes={4, 9}))
        assert rows_are_bytes(lattice)
        place_slots(lattice, [((0, 1), range(14), range(72), ref.free_cells(ReLabel.NR_CSI_RS)),
                              ((5,), range(2, 3), range(12), ref.free_cells(ReLabel.NR_PDCCH_CORESET1))])
        assert rows_are_bytes(lattice)
        assert rows_are_bytes(lattice.freeze())
        grid = ResourceGrid(carrier, lattice)
        cmap = staged(grid, classify_mrss, ControlMode(ControlModeKind.SEPARATE))
        assert cmap.control_region_size == 24
        for cmap in (cmap, staged(cmap, reserve_iot, carrier, [(1, 2, [5])]),
                     staged(cmap, place_6g_ssb, carrier, [(5, 9, 2)], 2, 2)):
            assert cmap.grid is not grid
            assert rows_are_bytes(cmap.grid.lattice)

    def test_copies_share_rows_until_written(self):
        grid = make_grid(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=3))
        before = ref.gather(grid.lattice)
        copy = grid.lattice.copy()
        assert all(map(operator.is_, copy.slots, grid.lattice.slots))
        place_slots(copy, [(range(3), range(14), range(12), ReLabel.NR_CSI_RS)])
        assert not any(map(operator.is_, copy.slots, grid.lattice.slots))
        assert distinct_rows(copy) == 1
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

    def test_slots_that_several_writes_name_take_them_in_call_order(self):
        lattice = new_labels(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=4))
        before, calls = list(lattice.slots), []

        def change(label):
            def run(slot, row):
                calls.append((label, slot))
                return row[:label] + bytes((label,)) + row[label + 1:]
            return run

        # All four slots hold one row: slots 0 and 2 take write 1 alone, and
        # slots 1 and 3 take write 1 then write 2, each change once per
        # group, at its first slot, the groups in slot order.
        lattice.rewrite([(range(4), change(1)), ((3, 1), change(2))])
        assert calls == [(1, 0), (1, 1), (2, 1)]
        assert lattice.slots[0] is lattice.slots[2] and lattice.slots[1] is lattice.slots[3]
        assert lattice.slots[0] == bytes((0, 1)) + before[0][2:]
        assert lattice.slots[1] == bytes((0, 1, 2)) + before[0][3:]

    def test_a_strict_placement_conflicts_with_an_earlier_one_in_its_slot(self):
        # Placements of one call that share slot 0 were once rejected as a
        # ConfigError; the second now meets the cells the first placed.
        lattice = new_labels(CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=4))
        with pytest.raises(ConflictError, match=r"^conflict at cell \(0, 0, 0\): existing NR_SSB, new NR_CSI_RS$"):
            place_slots(lattice, [((0,), range(14), range(12), ReLabel.NR_SSB),
                                  ((0,), range(14), range(12), ReLabel.NR_CSI_RS)])
        assert not ref.gather(lattice).any()
        place_slots(lattice, [((1, 2), range(1), range(12), ReLabel.NR_SSB),
                              ((0,), range(5, 6), range(12), ReLabel.NR_DMRS),
                              ((3, 2), range(7, 8), range(12), ReLabel.NR_CSI_RS)])
        dense = ref.gather(lattice)
        assert (dense[2, 0] == ReLabel.NR_SSB).all() and (dense[2, 7] == ReLabel.NR_CSI_RS).all()
        assert np.count_nonzero(dense) == 5 * 12


    @pytest.mark.parametrize("label", list(ReLabel)[1:])
    def test_a_strict_placement_conflicts_with_every_downlink_label_alone(self, label):
        # One cell of a symbol's slice holds `label`; a footprint over the
        # whole slice conflicts there unless the label marks no downlink cell.
        lattice = ref.lattice_of(np.zeros((1, 14, 12), dtype=np.uint8))
        lattice.slots[0] = bytes(29) + bytes((label,)) + bytes(138)
        before = list(lattice.slots)
        placement = [((0,), range(2, 3), range(12), ReLabel.NR_CSI_RS)]
        if label >= ReLabel.GUARD_SYMBOL:
            place_slots(lattice, placement)
            csi = [ReLabel.NR_CSI_RS]
            assert lattice.slots[0][24:36] == bytes(csi * 5 + [label] + csi * 6)
            return
        message = rf"^conflict at cell \(0, 2, 5\): existing {label.name}, new NR_CSI_RS$"
        with pytest.raises(ConflictError, match=message):
            place_slots(lattice, placement)
        assert all(map(operator.is_, lattice.slots, before))


PLACED_LABELS = [ReLabel.NR_SSB, ReLabel.NR_CSI_RS, ReLabel.NR_PDCCH_CORESET1, ReLabel.LTE_CRS_P0]


@st.composite
def placements(draw, carrier, forms=("label", "cells", "free")):
    """One placement: 1-4 slots, a block of each, and a footprint of one of
    `forms`: an int label, the block's bytes (that label on some cells,
    UNLABELED on the rest) or `ref.free_cells` of the label."""
    slots = draw(st.lists(st.integers(0, carrier.n_slots - 1), min_size=1, max_size=4))
    s0 = draw(st.integers(0, 13))
    symbols = range(s0, draw(st.integers(s0, 14)))
    k0 = draw(st.integers(0, carrier.n_subcarriers - 1))
    subcarriers = range(k0, draw(st.integers(k0, carrier.n_subcarriers)))
    label, form = draw(st.sampled_from(PLACED_LABELS)), draw(st.sampled_from(forms))
    if form != "cells":
        return slots, symbols, subcarriers, label if form == "label" else ref.free_cells(label)
    size = len(symbols) * len(subcarriers)
    cells = draw(st.lists(st.sampled_from([0, label]), min_size=size, max_size=size))
    return slots, symbols, subcarriers, bytes(cells)


def place_dense(arr, carrier, slots, symbols, subcarriers, footprint):
    """`place_slots` of one placement on a copy of a dense array, slot by
    slot; a footprint function is called on each slot's block."""
    arr = arr.copy()
    where = (slice(symbols.start, symbols.stop), slice(subcarriers.start, subcarriers.stop))
    for slot in sorted(set(slots)):
        fp = footprint(slot, arr[(slot, *where)].tobytes()) if callable(footprint) else footprint
        if isinstance(fp, bytes):
            fp = np.frombuffer(fp, dtype=np.uint8).reshape(len(symbols), len(subcarriers))
        ref.place(arr, (slot, *where), fp)
    return arr


def fill_free(label, count, slot, cells):
    """A function footprint: `label` on the block's first `count` free
    cells; PlacementError, naming the slot, if it has fewer."""
    free = [i for i, cell in enumerate(cells) if not cell][:count]
    if len(free) < count:
        raise PlacementError(f"{count} free cells wanted in slot {slot}, {len(free)} left")
    picked = bytearray(len(cells))
    for i in free:
        picked[i] = label
    return bytes(picked)


@st.composite
def sharing_placements(draw, carrier):
    """1-4 placements over the first three slots, so that some share a slot;
    each footprint an int label, the block's bytes, `ref.free_cells` or
    `fill_free`."""
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        _, symbols, subcarriers, footprint = draw(placements(carrier))
        slots = draw(st.lists(st.integers(0, min(carrier.n_slots, 3) - 1), min_size=1, max_size=3))
        if draw(st.booleans()):
            size = len(symbols) * len(subcarriers)
            footprint = functools.partial(fill_free, draw(st.sampled_from(PLACED_LABELS)),
                                          draw(st.integers(0, size)))
        batch.append((slots, symbols, subcarriers, footprint))
    return batch


def place_in_turn(lattice, batch):
    """Each slot in turn, and in it each placement that names it, one
    `place_slots` call each."""
    for slot in sorted({s for slots, *_ in batch for s in slots}):
        for slots, *block in batch:
            if slot in slots:
                place_slots(lattice, [((slot,), *block)])


@st.composite
def map_stages(draw, carrier):
    """A control mode, an IoT reservation ([(prb_start, prb_stop, slots)]) and
    6G SSB occasions ((occasions, prbs, symbols)) on the carrier."""
    kind = draw(st.sampled_from(ControlModeKind))
    mode = ControlMode(kind, 0.5 if kind is ControlModeKind.PARTIALLY_OVERLAPPING else None)
    p0 = draw(st.integers(0, carrier.n_prb))
    slots = draw(st.one_of(st.none(), st.lists(st.integers(0, carrier.n_slots - 1), max_size=3)))
    prbs, symbols = draw(st.integers(1, carrier.n_prb)), draw(st.integers(1, 4))
    occasions = [(draw(st.integers(0, carrier.n_slots - 1)), draw(st.integers(0, 14 - symbols)),
                  draw(st.integers(0, carrier.n_prb - prbs))) for _ in range(draw(st.integers(0, 2)))]
    return mode, [(p0, draw(st.integers(p0, carrier.n_prb)), slots)], (occasions, prbs, symbols)


def steps(carrier):
    return st.one_of(st.tuples(st.just("place"), placements(carrier)),
                     st.just(("copy",)), st.just(("freeze",)),
                     st.tuples(st.just("map"), map_stages(carrier)))


class TestLatticeOperations:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_writes_copies_freezes_and_map_stages_equal_the_dense_reference(self, data):
        """After every step the lattice's slots equal the dense array and its
        label totals the array's per-label counts; a frozen lattice holds
        equal slots as one object; and no step changes a lattice left behind."""
        carrier = data.draw(carriers(data.draw(st.sampled_from([15, 30]))))
        lattice, arr = new_labels(carrier), ref.new_labels(carrier)
        left = []  # (lattice, its labels) of every lattice a step left behind
        for step in data.draw(st.lists(steps(carrier), max_size=8)):
            if step[0] == "place":
                slots, symbols, subcarriers, footprint = step[1]
                dense, error = outcome(place_dense, arr, carrier, slots, symbols, subcarriers,
                                       footprint)
                _, got_error = outcome(place_slots, lattice,
                                       [(slots, symbols, subcarriers, footprint)])
                assert got_error == error
                arr = arr if error else dense
            elif step[0] == "copy":
                left.append((lattice, arr))
                lattice = lattice.copy()
            elif step[0] == "freeze":
                assert lattice.freeze() is lattice
                assert_stores_each_slot_once(lattice)
                left.append((lattice, arr))
                lattice = lattice.copy()
            else:
                mode, reservations, ssb = step[1]
                grid = ResourceGrid(carrier, lattice)
                assert_stores_each_slot_once(grid.lattice)
                left.append((lattice, arr))
                dense, error = outcome(ref.classify, arr, mode)
                cmap, got_error = outcome(staged, grid, classify_mrss, mode)
                assert got_error == error
                if error is None:
                    categories, labels = dense
                    assert_map_equals(cmap, grid, categories, labels)
                    for dense_stage, stage, args in ((ref.reserve_iot, reserve_iot, (reservations,)),
                                                     (ref.place_6g_ssb, place_6g_ssb, ssb)):
                        dense, error = outcome(dense_stage, carrier, categories, labels, *args)
                        written, got_error = outcome(staged, cmap, stage, carrier, *args)
                        assert got_error == error
                        if error is not None:
                            break
                        (categories, labels), cmap = dense, written
                        assert_map_equals(cmap, grid, categories, labels)
                    # Writes go on over the map's labels, which assert_map_equals checked.
                    lattice, arr = cmap.grid.lattice.copy(), ref.gather(cmap.grid.lattice).copy()
                else:
                    lattice = lattice.copy()
            assert np.array_equal(ref.gather(lattice), arr)
            totals = {ReLabel(v): c for v, c in enumerate(label_totals(lattice)) if c}
            assert totals == ref.count_labels(arr)
        for kept, labels in left:
            assert np.array_equal(ref.gather(kept), labels)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_placements_that_share_a_slot_equal_placing_them_in_turn(self, data):
        """One `place_slots` call gives the labels, or the error class and
        message, of placing its placements in turn (`place_in_turn`), one
        call each, whatever their footprint forms; a failed call writes
        nothing. Placed whole, one call per placement in call order, they
        give the same labels, or fail too."""
        carrier = data.draw(carriers(15))
        lattice = new_labels(carrier)
        for slots, *block in data.draw(st.lists(placements(carrier, ("free",)), max_size=2)):
            place_slots(lattice, [(slots, *block)])
        batch = data.draw(sharing_placements(carrier))
        before = list(lattice.slots)
        in_turn, whole = Lattice(list(before)), Lattice(list(before))
        _, error = outcome(place_slots, lattice, batch)
        _, want = outcome(place_in_turn, in_turn, batch)
        _, whole_error = outcome(lambda: [place_slots(whole, [p]) for p in batch])
        assert error == want
        assert (whole_error is None) == (error is None)
        if error is None:
            assert lattice == in_turn == whole
        else:
            assert all(map(operator.is_, lattice.slots, before))


def test_building_a_staged_map_counts_each_distinct_row_once(monkeypatch):
    """`build_map` and the pool read take every count of the grid and its map
    stages through `label_counts`, and count each distinct row once: the
    grown map's unchanged rows are not counted again."""
    scenario = parse_scenario((SCENARIOS / "mrss_staged.json").read_text())
    seen = []

    def spy(row):
        seen.append(row)
        return label_counts(row)

    monkeypatch.setattr(grid_module, "label_counts", spy)
    monkeypatch.setattr(mrss_module, "label_counts", spy)
    label_counts.cache_clear()
    cmap = cli.build_map(scenario)
    pool = cmap.shared_cells_per_slot()
    grid = cli.build_grid(scenario)
    assert pool.tolist() == ref.cells_per_slot(ref.categories(cmap.grid.lattice))[CAT_SHARED].tolist()
    assert set(seen) == set(grid.lattice.slots) | set(cmap.grid.lattice.slots)
    assert label_counts.cache_info().misses == len(set(seen)) < len(seen)


def test_building_a_staged_map_copies_one_lattice(monkeypatch):
    """`build_map` folds the map stages into one copy of its grid's lattice,
    each stage one `Lattice.rewrite`, and freezes it once: the grid's
    freeze and the map's. The map equals the dense reference's."""
    calls = collections.Counter()

    def counted(name, fn):
        def run(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return run

    for name in ("copy", "rewrite", "freeze"):
        monkeypatch.setattr(Lattice, name, counted(name, getattr(Lattice, name)))
    scenario = parse_scenario((SCENARIOS / "mrss_staged.json").read_text())
    cmap = cli.build_map(scenario)
    # NR, control growth, the IoT reservations and the 6G SSB occasions.
    assert calls == {"copy": 1, "rewrite": 4, "freeze": 2}
    carrier, mrss = scenario.carrier, scenario.mrss
    arr = ref.new_labels(carrier)
    ref.place_nr(arr, carrier, scenario.nr)
    categories, labels = ref.classify(arr, mrss.control_mode)
    categories, labels = ref.reserve_iot(carrier, categories, labels, [
        (r.prb_start, r.prb_stop, r.slots) for r in mrss.iot_reservations])
    categories, labels = ref.place_6g_ssb(carrier, categories, labels, mrss.sixg_ssb.occasions,
                                          mrss.sixg_ssb.prbs, mrss.sixg_ssb.symbols)
    monkeypatch.undo()
    assert_map_equals(cmap, cli.build_grid(scenario), categories, labels)


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
