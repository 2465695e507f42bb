import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import (
    CarrierConfig,
    ConfigError,
    ConflictError,
    ReLabel,
    ResourceGrid,
    TddPattern,
    count_labels,
    make_grid,
)
from gridshare import cli
from gridshare.budget import downlink_re, nr_overhead
from gridshare.grid import place_slots
from gridshare.nr import nr_plan
from gridshare.scenario import parse_scenario

import dense_reference as ref


def fdd(n_prb=1, span_ms=1, scs=15):
    return CarrierConfig(scs, n_prb=n_prb, duplex="FDD", span_ms=span_ms)


def wideband_tdd_carrier():
    return CarrierConfig(
        30, n_prb=273, duplex="TDD", span_ms=20,
        tdd_pattern=TddPattern("DDDSU", (6, 4, 4)),
    )


class TestConfigValidation:
    def test_scs_must_be_15_or_30(self):
        with pytest.raises(ConfigError, match=r"scs_khz must be one of \[15, 30\], got 60"):
            CarrierConfig(60, n_prb=1)

    def test_slots_per_ms(self):
        assert CarrierConfig(15, n_prb=1).slots_per_ms == 1
        assert CarrierConfig(30, n_prb=1).slots_per_ms == 2

    def test_special_split_must_sum_to_14(self):
        with pytest.raises(ConfigError):
            TddPattern("DDDSU", (6, 4, 3))

    def test_empty_cycle_rejected(self):
        with pytest.raises(ConfigError):
            TddPattern("")

    def test_cycle_takes_slot_kinds_or_their_letters(self):
        from gridshare.grid import SlotKind

        cycle = (SlotKind.DOWNLINK, SlotKind.SPECIAL, SlotKind.UPLINK)
        for given_cycle in ("DSU", ["D", "S", "U"], cycle, ["D", SlotKind.SPECIAL, "U"]):
            assert TddPattern(given_cycle).cycle == cycle
        # An entry that is neither is a ConfigError naming it.
        for bad, shown in ((["D", 7], "7"), (["D", None], "None"), (["D", "X"], "'X'"),
                           ("DX", "'X'"), (["D", [1]], "[1]")):
            with pytest.raises(ConfigError, match=rf"TDD cycle entry .* got {re.escape(shown)}$"):
                TddPattern(bad)

    def test_tdd_requires_pattern(self):
        with pytest.raises(ConfigError):
            CarrierConfig(30, n_prb=1, duplex="TDD", span_ms=5)

    def test_fdd_rejects_pattern(self):
        with pytest.raises(ConfigError):
            CarrierConfig(
                15, n_prb=1, duplex="FDD", span_ms=1,
                tdd_pattern=TddPattern("DDDSU"),
            )

    def test_tdd_span_must_cover_whole_cycles(self):
        with pytest.raises(ConfigError):
            CarrierConfig(
                30, n_prb=1, duplex="TDD", span_ms=3,
                tdd_pattern=TddPattern("DDDSU"),
            )

    def test_fractional_slot_count_rejected(self):
        with pytest.raises(ConfigError):
            CarrierConfig(15, n_prb=1, duplex="FDD", span_ms=0.5)


SFN_CYCLE_DOCS = {
    "dss": {
        "carrier": {"scs_khz": 15, "n_prb": 100, "duplex": "FDD", "span_ms": 10240},
        "lte": {"cell_id": 201, "crs_ports": 4, "pdcch_symbols": 2},
        "nr": {"period_ms": 10240,
               "csi_rs": {"ports": 4, "density_re_per_port_per_prb": 1, "prbs": 100,
                          "occasions_per_period": 5000},
               "trs": {"prbs": 52, "slots_per_occasion": 2, "re_per_prb_per_slot": 3,
                       "beams": 4, "occasions_per_period": 500}},
    },
    "tdd": {
        "carrier": {"scs_khz": 30, "n_prb": 275, "duplex": "TDD", "span_ms": 10240,
                    "tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 4]}},
        "nr": {"period_ms": 10240, "ssb": {"beams": 4, "prbs": 20, "symbols": 4},
               "coreset1": {"prbs": 270, "symbols": 2},
               "trs": {"prbs": 52, "slots_per_occasion": 2, "re_per_prb_per_slot": 6,
                       "beams": 4, "occasions_per_period": 2}},
    },
}


class TestPerSlotCarrierFacts:
    @pytest.mark.parametrize("name", sorted(SFN_CYCLE_DOCS))
    def test_an_sfn_cycle_reads_each_cycle_positions_dl_symbols_once(self, monkeypatch, name):
        """`build_grid` and the overhead table of one SFN cycle find the
        downlink symbols of each position of the TDD cycle once, not of
        each slot."""
        calls = []
        dl_symbols_in_slot = CarrierConfig.dl_symbols_in_slot

        def counted(carrier, slot):
            calls.append(slot)
            return dl_symbols_in_slot(carrier, slot)

        monkeypatch.setattr(CarrierConfig, "dl_symbols_in_slot", counted)
        scenario = parse_scenario(SFN_CYCLE_DOCS[name])
        carrier = scenario.carrier
        grid = cli.build_grid(scenario)
        report = nr_overhead(carrier, scenario.nr)
        period = len(carrier.tdd_pattern.cycle) if carrier.tdd_pattern else 1
        assert len(calls) == len({slot % period for slot in calls}) <= period
        counts = count_labels(grid)
        not_dl = counts.get(ReLabel.GUARD_SYMBOL, 0) + counts.get(ReLabel.UPLINK_SYMBOL, 0)
        assert report.downlink_re == grid.n_cells - not_dl

    def test_an_sfn_cycle_lists_its_dl_bearing_slots_once(self, monkeypatch):
        """The carrier lists its DL-bearing slots once: after the first read,
        the NR plan and CORESET1's monitored count, RE count and summary
        read that list and do no per-slot work (never read the slot count)."""
        scenario = parse_scenario(SFN_CYCLE_DOCS["tdd"])
        carrier, coreset1 = scenario.carrier, scenario.nr.coreset1
        slots = carrier.dl_bearing_slots
        monkeypatch.setattr(CarrierConfig, "n_slots", property(lambda self: pytest.fail("per-slot work")))
        assert carrier.dl_bearing_slots is slots
        assert nr_plan(carrier, scenario.nr)[0][0] == slots
        assert coreset1.monitored_count(carrier) == len(slots) == 16384
        assert coreset1.re_count(carrier) == 270 * 12 * 2 * len(slots)
        assert coreset1.summary(carrier, 10240).endswith(f", {len(slots)} DL-bearing slots")

    @pytest.mark.parametrize("carrier", [
        fdd(span_ms=3),
        CarrierConfig(30, n_prb=2, duplex="TDD", span_ms=5, tdd_pattern=TddPattern("DDDSU", (6, 4, 4))),
        CarrierConfig(15, n_prb=1, duplex="TDD", span_ms=10, tdd_pattern=TddPattern("DSUUD", (0, 2, 12))),
        CarrierConfig(15, n_prb=1, duplex="TDD", span_ms=4, tdd_pattern=TddPattern("SU", (14, 0, 0))),
    ])
    def test_dl_bearing_slots_and_downlink_cells_follow_each_slot(self, carrier):
        per_slot = [carrier.dl_symbols_in_slot(s) for s in range(carrier.n_slots)]
        assert carrier.dl_bearing_slots == tuple(s for s, n in enumerate(per_slot) if n)
        assert downlink_re(carrier) == sum(per_slot) * carrier.n_subcarriers


class TestMakeGrid:
    def test_fdd_single_prb_all_unlabeled(self):
        grid = make_grid(fdd())
        assert count_labels(grid) == {ReLabel.UNLABELED: 168}

    def test_wideband_tdd_prelabeling(self):
        # 40 slots of DDDSU at 273 PRB: 384 DL symbols, 8 S + 8 U slots.
        grid = make_grid(wideband_tdd_carrier())
        counts = count_labels(grid)
        assert grid.n_cells == 40 * 14 * 12 * 273
        assert counts[ReLabel.UNLABELED] == 384 * 3276 == 1_257_984
        assert counts[ReLabel.UPLINK_SYMBOL] == (8 * 14 + 8 * 4) * 3276
        assert counts[ReLabel.GUARD_SYMBOL] == 8 * 4 * 3276

    def test_determinism(self):
        a = make_grid(wideband_tdd_carrier())
        b = make_grid(wideband_tdd_carrier())
        assert np.array_equal(ref.gather(a.lattice), ref.gather(b.lattice))

    def test_grid_is_immutable(self):
        grid = make_grid(fdd())
        with pytest.raises(TypeError):
            grid.lattice.slots[0][0] = 5
        with pytest.raises(TypeError):
            grid.lattice.slots[0] = bytes(len(grid.lattice.slots[0]))


def _reference_count_labels(grid):
    """`count_labels` as one sort of the grid (`np.unique`) counted it, kept
    as the reference of the count per distinct row."""
    values, counts = np.unique(ref.gather(grid.lattice), return_counts=True)
    return {ReLabel(int(v)): int(c) for v, c in zip(values, counts)}


@st.composite
def label_grids(draw):
    """Grids of random lattices over the whole alphabet, or over its first
    two labels or its first one, so that slots repeat."""
    n_slots, n_prb = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    carrier = fdd(n_prb=n_prb, span_ms=n_slots)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.sampled_from([len(ReLabel), 2, 1]))
    labels = rng.integers(0, alphabet, size=(n_slots, 14, 12 * n_prb), dtype=np.uint8)
    return ResourceGrid(carrier, ref.lattice_of(labels))


class TestCountLabelsReference:
    @settings(max_examples=300, deadline=None)
    @given(label_grids())
    def test_matches_the_sorting_count(self, grid):
        got = count_labels(grid)
        assert got == _reference_count_labels(grid)
        assert list(got) == sorted(got)
        assert all(type(k) is ReLabel and type(v) is int and v > 0 for k, v in got.items())


def place_into(arr, placements):
    """`place_slots` on the lattice of a dense array, its equal slots sharing
    a row, read back into the array (also when it raises, so a test sees that
    nothing was written)."""
    lattice = ref.lattice_of(arr).freeze().copy()
    try:
        place_slots(lattice, placements)
    finally:
        arr[...] = ref.gather(lattice)


class TestPlace:
    def tdd_arr(self):
        carrier = CarrierConfig(30, n_prb=2, duplex="TDD", span_ms=1,
                                tdd_pattern=TddPattern("DS"))
        return ref.new_labels(carrier)

    def test_strict_skips_uplink_and_guard(self):
        arr = self.tdd_arr()
        before = arr.copy()
        place_into(arr, [((1,), range(14), range(24), ReLabel.NR_CSI_RS)])
        assert (arr[1, :6] == ReLabel.NR_CSI_RS).all()
        assert np.array_equal(arr[1, 6:], before[1, 6:])
        assert np.array_equal(arr[0], before[0])

    def test_conflict_names_grid_cell_of_a_view(self):
        arr = self.tdd_arr()
        arr[1, 4, 15] = ReLabel.NR_SSB
        before = arr.copy()
        with pytest.raises(ConflictError, match=r"\(1, 4, 15\).*NR_SSB.*NR_CSI_RS"):
            place_into(arr, [((1,), range(3, 6), range(12, 24), ReLabel.NR_CSI_RS)])
        assert np.array_equal(arr, before)

    def test_rate_match_fills_free_cells_only(self):
        arr = self.tdd_arr()
        arr[0, 2, ::6] = ReLabel.LTE_CRS_P0
        before = arr.copy()
        place_into(arr, [((0,), range(2, 3), range(24), ref.free_cells(ReLabel.NR_PDCCH_CORESET1)),
                         ((1,), range(4, 14), range(24), ref.free_cells(ReLabel.NR_CSI_RS))])
        assert (arr[0, 2, ::6] == ReLabel.LTE_CRS_P0).all()
        assert np.count_nonzero(arr[0, 2] == ReLabel.NR_PDCCH_CORESET1) == 24 - 4
        assert (arr[1, 4:6] == ReLabel.NR_CSI_RS).all()
        assert np.array_equal(arr[1, 6:], before[1, 6:])  # guard and uplink

    def test_template_footprint_leaves_unlabeled_cells_out(self):
        arr = self.tdd_arr()
        arr[0, 0, 1] = ReLabel.NR_SSB
        template = np.zeros((14, 24), dtype=np.uint8)
        template[3] = ReLabel.NR_DMRS
        place_into(arr, [((0,), range(14), range(24), template.tobytes())])
        assert np.count_nonzero(arr[0] == ReLabel.NR_DMRS) == 24
        assert arr[0, 0, 1] == ReLabel.NR_SSB

    def test_single_cell(self):
        arr = self.tdd_arr()
        cell = (range(4, 5), range(15, 16))
        place_into(arr, [((0,), *cell, ReLabel.NR_SSB)])
        assert arr[0, 4, 15] == ReLabel.NR_SSB
        assert np.count_nonzero(arr[0]) == 1
        before = arr.copy()
        with pytest.raises(ConflictError, match=r"at cell \(0, 4, 15\): existing NR_SSB, new NR_CSI_RS"):
            place_into(arr, [((0,), *cell, ReLabel.NR_CSI_RS)])
        place_into(arr, [((0,), *cell, ref.free_cells(ReLabel.NR_CSI_RS))])
        place_into(arr, [((1,), range(13, 14), range(1), ReLabel.NR_CSI_RS)])  # uplink: left as it is
        assert np.array_equal(arr, before)

    def test_fancy_index_rejected(self):
        for symbols in ([0, 1], slice(0, 2), range(0, 4, 2), 0):
            with pytest.raises(ConfigError, match="placement symbols must be a step-1 range"):
                place_into(self.tdd_arr(), [((0,), symbols, range(24), ReLabel.NR_CSI_RS)])

    @pytest.mark.parametrize("symbols, subcarriers, name", [
        (range(12, 15), range(24), "symbols"),
        (range(-1, 2), range(24), "symbols"),
        (range(14), range(20, 25), "subcarriers"),
        (range(14), range(-3, 0), "subcarriers"),
    ])
    def test_range_outside_the_slot_rejected_before_any_write(self, symbols, subcarriers, name):
        arr = self.tdd_arr()
        before = arr.copy()
        with pytest.raises(ConfigError, match=f"placement {name} must be a step-1 range within"):
            place_into(arr, [((0,), range(2), range(2), ReLabel.NR_SSB),
                             ((1,), symbols, subcarriers, ReLabel.NR_CSI_RS)])
        assert np.array_equal(arr, before)

    @pytest.mark.parametrize("symbols, subcarriers", [
        (range(3, 3), range(24)), (range(14), range(24, 24)), (range(20, 20), range(30, 30)),
    ])
    def test_empty_range_writes_nothing(self, symbols, subcarriers):
        arr = self.tdd_arr()
        arr[0, 3, 5] = ReLabel.NR_SSB
        before = arr.copy()
        for footprint in (ReLabel.NR_CSI_RS, b"", ref.free_cells(ReLabel.NR_CSI_RS)):
            place_into(arr, [((0, 1), symbols, subcarriers, footprint)])
        assert np.array_equal(arr, before)


# Labels a downlink footprint can carry: everything but UNLABELED, guard and uplink.
DOWNLINK_LABELS = np.arange(ReLabel.UNLABELED + 1, ReLabel.GUARD_SYMBOL, dtype=np.uint8)


def _random_labels(rng, shape, density):
    """Downlink labels on a `density` share of the cells, UNLABELED elsewhere."""
    labels = rng.choice(DOWNLINK_LABELS, size=shape)
    return np.where(rng.random(shape) < density, labels, ReLabel.UNLABELED).astype(np.uint8)


def _axis(draw, size):
    """A range into an axis of `size`: one position, a span, the whole axis or empty."""
    kind = draw(st.sampled_from(["one", "span", "whole", "empty"]))
    if kind == "whole":
        return range(size)
    start = draw(st.integers(0, size if kind == "empty" else size - 1))
    if kind == "one":
        return range(start, start + 1)
    return range(start, start if kind == "empty" else draw(st.integers(start + 1, size)))


# The labels that mark no downlink cell.
NON_DOWNLINK_LABELS = [ReLabel.GUARD_SYMBOL, ReLabel.UPLINK_SYMBOL]


@st.composite
def placements(draw):
    """(label array, slots, (symbols, subcarriers), footprint, form) over
    FDD and TDD grids whose downlink cells are all free, partly taken or all
    taken, and whose slots may hold guard and uplink labels on any cell, so
    one symbol's slice mixes free, taken, guard and uplink cells. One
    footprint for a set of slots and a block (two ranges) of each, by
    `form`: "label" an int label, "cells" an array of the block's shape,
    "free" an int label that `ref.free_cells` places on the free cells."""
    cycle = draw(st.sampled_from(["FDD", "D", "DS", "DSU", "SU", "DDDSU"]))
    n_prb = draw(st.integers(1, 2))
    if cycle == "FDD":
        carrier = fdd(n_prb=n_prb, span_ms=draw(st.integers(1, 3)))
    else:
        dl = draw(st.integers(0, 14))
        guard = draw(st.integers(0, 14 - dl))
        carrier = CarrierConfig(
            30, n_prb=n_prb, duplex="TDD", span_ms=len(cycle),
            tdd_pattern=TddPattern(cycle, (dl, guard, 14 - dl - guard)),
        )
    arr = ref.new_labels(carrier)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taken = _random_labels(rng, arr.shape, draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    arr = np.where(arr == ReLabel.UNLABELED, taken, arr)
    scattered = rng.random(arr.shape) < draw(st.sampled_from([0.0, 0.0, 0.1, 0.4]))
    arr = np.where(scattered, rng.choice(NON_DOWNLINK_LABELS, size=arr.shape), arr).astype(np.uint8)

    slots = sorted(draw(st.sets(st.integers(0, len(arr) - 1))))
    block = tuple(_axis(draw, size) for size in arr.shape[1:])
    form = draw(st.sampled_from(["label", "cells", "free"]))
    if form == "cells":
        shape = tuple(map(len, block))
        footprint = _random_labels(rng, shape, draw(st.sampled_from([0.0, 0.3, 1.0])))
    else:
        footprint = draw(st.sampled_from(DOWNLINK_LABELS.tolist()))
    return arr, slots, block, footprint, form


class TestPlaceReference:
    @settings(max_examples=400, deadline=None)
    @given(placements())
    def test_place_matches_the_masked_write(self, case):
        """Each footprint form writes what the dense reference's masked
        write does, a free-cells function its rate-matched one, or fails
        with its message and writes nothing."""
        arr, slots, block, footprint, form = case
        where = tuple(slice(axis.start, axis.stop) for axis in block)
        expected, actual = arr.copy(), arr.copy()
        try:
            for slot in slots:
                ref.place(expected, (slot, *where), footprint, rate_match=form == "free")
            expected_error = None
        except ConflictError as exc:
            # The reference wrote the slots before the conflict; place_slots
            # stores no row of a call that fails.
            expected, expected_error = arr.copy(), str(exc)
        if form == "cells":
            footprint = footprint.tobytes()
        elif form == "free":
            footprint = ref.free_cells(footprint)
        try:
            place_into(actual, [(slots, *block, footprint)])
            error = None
        except ConflictError as exc:
            error = str(exc)
        assert error == expected_error
        assert np.array_equal(actual, expected)
        if error is not None:
            assert np.array_equal(actual, arr)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16])
def test_footprint_of_the_view_shape_in_another_dtype(dtype):
    """A footprint array of the block's shape, or its bytes when they are not
    one per cell, is rejected before anything is written."""
    arr = ref.new_labels(fdd(n_prb=1, span_ms=2))
    footprint = np.full((14, 12), ReLabel.NR_CSI_RS, dtype=dtype)
    rejected = [(footprint, "ndarray")]
    if footprint.itemsize > 1:
        rejected.append((footprint.tobytes(), f"{footprint.nbytes} bytes"))
    for fp, got in rejected:
        for given in (fp, lambda slot, cells: fp):
            with pytest.raises(ConfigError, match=f"int label or 168 bytes, one per cell of the block, got {got}"):
                place_into(arr, [((1,), range(14), range(12), given)])
    assert not arr.any()


@pytest.mark.parametrize("footprint", [
    bytes(14),
    bytes(12),
    bytes(2 * 14 * 12),
    np.zeros(14 * 12, dtype=np.uint8),
    bytes(14 * 12 + 1),
    [[0] * 12] * 14,
], ids=["column", "row", "per-slot", "flat", "bytes", "nested-lists"])
def test_footprint_of_another_shape_is_rejected(footprint):
    """Only an int label or bytes of exactly the block's cells is a
    footprint; the error names the block's size and what it got."""
    arr = ref.new_labels(fdd(n_prb=1, span_ms=2))
    with pytest.raises(ConfigError, match=r"int label or 168 bytes, one per cell of the block, got "):
        place_into(arr, [((0, 1), range(14), range(12), footprint)])
    assert not arr.any()


@pytest.mark.parametrize("footprint, shown", [
    (bytes([200]), 200),
    (25, 25),
    (300, 300),
    (-1, -1),
    (ReLabel.UPLINK_SYMBOL, 19),
], ids=["bytes-200", "int-25", "int-300", "int-minus-1", "uplink-symbol"])
def test_footprint_label_outside_the_downlink_alphabet_is_rejected(footprint, shown):
    """A footprint writes downlink labels only, 0..RESERVED_IOT: any other
    label, as an int or in bytes, is a ConfigError before anything is written."""
    arr = ref.new_labels(fdd(n_prb=1, span_ms=2))
    for given in (footprint, lambda slot, cells: footprint):
        with pytest.raises(ConfigError, match=f"^footprint label {shown} is no downlink label 0..17$"):
            place_into(arr, [((0,), range(1), range(1), ReLabel.NR_SSB),
                             ((1,), range(1), range(1), given)])
    assert not arr.any()


class TestFootprintThatReadsItsBlock:
    """A footprint may be a function of (slot, the block's labels) giving
    the block's bytes: it is called once per distinct row, with the first
    slot that holds the row, and its bytes are checked as any footprint's."""

    def test_called_once_per_distinct_row_with_its_first_slot(self):
        arr = ref.new_labels(fdd(n_prb=1, span_ms=6))
        arr[3, 0, 0] = ReLabel.NR_SSB
        calls = []

        def pick(slot, cells):
            calls.append((slot, cells))
            return bytes(ReLabel.NR_TRS if i == cells.index(0) else 0 for i in range(len(cells)))

        place_into(arr, [((5, 1, 3, 4), range(1), range(2), pick)])
        assert calls == [(1, bytes(2)), (3, bytes([ReLabel.NR_SSB, 0]))]
        assert arr[[1, 4, 5], 0, :2].tolist() == [[ReLabel.NR_TRS, 0]] * 3
        assert arr[3, 0, :2].tolist() == [ReLabel.NR_SSB, ReLabel.NR_TRS]

    @pytest.mark.parametrize("result, message", [
        (bytes(3), "int label or 2 bytes, one per cell of the block, got 3 bytes"),
        (None, "int label or 2 bytes, one per cell of the block, got NoneType"),
        (bytes([ReLabel.GUARD_SYMBOL] * 2), "footprint label 18 is no downlink label"),
    ])
    def test_its_bytes_are_checked_before_anything_is_written(self, result, message):
        arr = ref.new_labels(fdd(n_prb=1, span_ms=3))
        with pytest.raises(ConfigError, match=message):
            place_into(arr, [((0,), range(1), range(1), ReLabel.NR_SSB),
                             ((2,), range(1), range(2), lambda slot, cells: result)])
        assert not arr.any()
