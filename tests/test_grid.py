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
from gridshare.grid import place_slots

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
        with pytest.raises(ConfigError, match="scs_khz must be 15 or 30, got 60"):
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
            grid.lattice.rows[0][0] = 5


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


def place_into(arr, placements, rate_match=False):
    """`place_slots` on the lattice of a dense array, its equal slots sharing
    a row, read back into the array (also when it raises, so a test sees that
    nothing was written)."""
    lattice = ref.lattice_of(arr).freeze().copy()
    try:
        place_slots(lattice, placements, rate_match)
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
        place_into(arr, [((0,), range(2, 3), range(24), ReLabel.NR_PDCCH_CORESET1)], rate_match=True)
        assert (arr[0, 2, ::6] == ReLabel.LTE_CRS_P0).all()
        assert np.count_nonzero(arr[0, 2] == ReLabel.NR_PDCCH_CORESET1) == 24 - 4

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
        place_into(arr, [((0,), *cell, ReLabel.NR_CSI_RS)], rate_match=True)
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
        for rate_match in (False, True):
            place_into(arr, [((0, 1), symbols, subcarriers, ReLabel.NR_CSI_RS)], rate_match)
            place_into(arr, [((0, 1), symbols, subcarriers, b"")], rate_match)
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


@st.composite
def placements(draw):
    """(label array, slots, (symbols, subcarriers), footprint, rate_match)
    over FDD and TDD grids whose downlink cells are all free, partly taken or
    all taken: one footprint, an int label or an array of the block's shape,
    for a set of slots and a block (two ranges) of each."""
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

    slots = sorted(draw(st.sets(st.integers(0, len(arr) - 1))))
    block = tuple(_axis(draw, size) for size in arr.shape[1:])
    if draw(st.booleans()):
        footprint = draw(st.sampled_from(DOWNLINK_LABELS.tolist()))
    else:
        shape = tuple(map(len, block))
        footprint = _random_labels(rng, shape, draw(st.sampled_from([0.0, 0.3, 1.0])))
    return arr, slots, block, footprint, draw(st.booleans())


class TestPlaceReference:
    @settings(max_examples=400, deadline=None)
    @given(placements())
    def test_place_matches_the_masked_write(self, case):
        arr, slots, block, footprint, rate_match = case
        where = tuple(slice(axis.start, axis.stop) for axis in block)
        expected, actual = arr.copy(), arr.copy()
        try:
            for slot in slots:
                ref.place(expected, (slot, *where), footprint, rate_match)
            expected_error = None
        except ConflictError as exc:
            # The reference wrote the slots before the conflict; place_slots
            # checks every slot first and writes none.
            expected, expected_error = arr.copy(), str(exc)
        try:
            if not isinstance(footprint, int):
                footprint = footprint.tobytes()
            place_into(actual, [(slots, *block, footprint)], rate_match)
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
        for rate_match in (False, True):
            with pytest.raises(ConfigError, match=f"int label or 168 bytes, one per cell of the block, got {got}"):
                place_into(arr, [((1,), range(14), range(12), fp)], rate_match)
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
