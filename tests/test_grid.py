import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import (
    CarrierConfig,
    ConfigError,
    ConflictError,
    Numerology,
    ReLabel,
    ResourceGrid,
    TddPattern,
    count_labels,
    make_grid,
)
from gridshare.grid import _grid_cell, place


def fdd(n_prb=1, span_ms=1, scs=15):
    return CarrierConfig(Numerology(scs), n_prb=n_prb, duplex="FDD", span_ms=span_ms)


def wideband_tdd_carrier():
    return CarrierConfig(
        Numerology(30), n_prb=273, duplex="TDD", span_ms=20,
        tdd_pattern=TddPattern("DDDSU", (6, 4, 4)),
    )


class TestConfigValidation:
    def test_scs_must_be_15_or_30(self):
        with pytest.raises(ConfigError):
            Numerology(60)

    def test_slots_per_ms(self):
        assert Numerology(15).slots_per_ms == 1
        assert Numerology(30).slots_per_ms == 2

    def test_special_split_must_sum_to_14(self):
        with pytest.raises(ConfigError):
            TddPattern("DDDSU", (6, 4, 3))

    def test_empty_cycle_rejected(self):
        with pytest.raises(ConfigError):
            TddPattern("")

    def test_tdd_requires_pattern(self):
        with pytest.raises(ConfigError):
            CarrierConfig(Numerology(30), n_prb=1, duplex="TDD", span_ms=5)

    def test_fdd_rejects_pattern(self):
        with pytest.raises(ConfigError):
            CarrierConfig(
                Numerology(15), n_prb=1, duplex="FDD", span_ms=1,
                tdd_pattern=TddPattern("DDDSU"),
            )

    def test_tdd_span_must_cover_whole_cycles(self):
        with pytest.raises(ConfigError):
            CarrierConfig(
                Numerology(30), n_prb=1, duplex="TDD", span_ms=3,
                tdd_pattern=TddPattern("DDDSU"),
            )

    def test_fractional_slot_count_rejected(self):
        with pytest.raises(ConfigError):
            CarrierConfig(Numerology(15), n_prb=1, duplex="FDD", span_ms=0.5)


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
        assert np.array_equal(a.labels, b.labels)

    def test_grid_is_immutable(self):
        grid = make_grid(fdd())
        with pytest.raises(ValueError):
            grid.labels[0, 0, 0] = 5


class TestCountLabels:
    def test_window_counts_sum_to_window_size(self):
        grid = make_grid(wideband_tdd_carrier())
        counts = count_labels(grid, slot_range=(5, 10), prb_range=(0, 7))
        assert sum(counts.values()) == 5 * 14 * 12 * 7

    def test_inverted_range_rejected(self):
        grid = make_grid(fdd())
        with pytest.raises(ConfigError):
            count_labels(grid, slot_range=(1, 1))
        with pytest.raises(ConfigError):
            count_labels(grid, prb_range=(1, 0))

    @settings(max_examples=30, deadline=None)
    @given(
        n_prb=st.integers(1, 6),
        span=st.integers(1, 4),
        split=st.integers(1, 3),
    )
    def test_conservation_over_partitions(self, n_prb, span, split):
        # Per-label counts over a slot partition sum to the whole-grid counts.
        carrier = CarrierConfig(
            Numerology(30), n_prb=n_prb, duplex="TDD", span_ms=span,
            tdd_pattern=TddPattern("DS"),
        )
        grid = make_grid(carrier)
        whole = count_labels(grid)
        cut = max(1, min(grid.config.n_slots - 1, split))
        left = count_labels(grid, slot_range=(0, cut))
        right = count_labels(grid, slot_range=(cut, grid.config.n_slots))
        merged = {}
        for part in (left, right):
            for k, v in part.items():
                merged[k] = merged.get(k, 0) + v
        assert merged == whole


def _reference_count_labels(grid, slot_range=None, prb_range=None):
    """`count_labels` as one sort of the window (`np.unique`) counted it,
    kept as the reference of the per-slot count."""
    cfg = grid.config
    s0, s1 = slot_range if slot_range is not None else (0, cfg.n_slots)
    p0, p1 = prb_range if prb_range is not None else (0, cfg.n_prb)
    if not (0 <= s0 < s1 <= cfg.n_slots):
        raise ConfigError(f"empty or inverted slot range ({s0}, {s1})")
    if not (0 <= p0 < p1 <= cfg.n_prb):
        raise ConfigError(f"empty or inverted PRB range ({p0}, {p1})")
    window = grid.labels[s0:s1, :, p0 * 12 : p1 * 12]
    values, counts = np.unique(window, return_counts=True)
    return {ReLabel(int(v)): int(c) for v, c in zip(values, counts)}


@st.composite
def count_windows(draw):
    """(grid, slot_range, prb_range) over random lattices of the whole
    alphabet; each range is absent, valid, or empty/inverted/out of bounds."""
    n_slots, n_prb = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    carrier = fdd(n_prb=n_prb, span_ms=n_slots)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.sampled_from([len(ReLabel), 2, 1]))
    labels = rng.integers(0, alphabet, size=(n_slots, 14, 12 * n_prb), dtype=np.uint8)
    ranges = []
    for size in (n_slots, n_prb):
        if draw(st.booleans()):
            ranges.append(None)
        else:
            ranges.append((draw(st.integers(-1, size)), draw(st.integers(-1, size + 1))))
    return ResourceGrid(carrier, labels), ranges[0], ranges[1]


class TestCountLabelsReference:
    @settings(max_examples=300, deadline=None)
    @given(count_windows())
    def test_matches_the_sorting_count(self, case):
        grid, slot_range, prb_range = case
        try:
            expected = _reference_count_labels(grid, slot_range, prb_range)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as err:
                count_labels(grid, slot_range, prb_range)
            assert str(err.value) == str(exc)
            return
        got = count_labels(grid, slot_range=slot_range, prb_range=prb_range)
        assert got == expected
        assert list(got) == sorted(got)
        assert all(type(k) is ReLabel and type(v) is int and v > 0 for k, v in got.items())


class TestPlace:
    def tdd_arr(self):
        carrier = CarrierConfig(Numerology(30), n_prb=2, duplex="TDD", span_ms=1,
                                tdd_pattern=TddPattern("DS"))
        return make_grid(carrier).writable_labels()

    def test_strict_skips_uplink_and_guard(self):
        arr = self.tdd_arr()
        before = arr.copy()
        place(arr, (1,), ReLabel.NR_DATA)
        assert (arr[1, :6] == ReLabel.NR_DATA).all()
        assert np.array_equal(arr[1, 6:], before[1, 6:])
        assert np.array_equal(arr[0], before[0])

    def test_conflict_names_grid_cell_of_a_view(self):
        arr = self.tdd_arr()
        arr[1, 4, 15] = ReLabel.NR_SSB
        before = arr.copy()
        with pytest.raises(ConflictError, match=r"\(1, 4, 15\).*NR_SSB.*NR_DATA"):
            place(arr, (1, slice(3, 6), slice(12, 24)), ReLabel.NR_DATA)
        assert np.array_equal(arr, before)

    def test_rate_match_fills_free_cells_only(self):
        arr = self.tdd_arr()
        arr[0, 2, ::6] = ReLabel.LTE_CRS_P0
        place(arr, (0, 2), ReLabel.NR_PDCCH_CORESET1, rate_match=True)
        assert (arr[0, 2, ::6] == ReLabel.LTE_CRS_P0).all()
        assert np.count_nonzero(arr[0, 2] == ReLabel.NR_PDCCH_CORESET1) == 24 - 4

    def test_template_footprint_leaves_unlabeled_cells_out(self):
        arr = self.tdd_arr()
        arr[0, 0, 1] = ReLabel.NR_SSB
        template = np.zeros((14, 1), dtype=np.uint8)
        template[3] = ReLabel.NR_DMRS
        place(arr, (0,), template)
        assert np.count_nonzero(arr[0] == ReLabel.NR_DMRS) == 24
        assert arr[0, 0, 1] == ReLabel.NR_SSB

    def test_single_cell(self):
        arr = self.tdd_arr()
        place(arr, (0, 4, 15), ReLabel.NR_SSB)
        assert arr[0, 4, 15] == ReLabel.NR_SSB
        assert np.count_nonzero(arr[0]) == 1
        before = arr.copy()
        with pytest.raises(ConflictError, match=r"at cell \(0, 4, 15\): existing NR_SSB, new NR_DATA"):
            place(arr, (0, 4, 15), ReLabel.NR_DATA)
        place(arr, (0, 4, 15), ReLabel.NR_DATA, rate_match=True)
        place(arr, (1, 13, 0), ReLabel.NR_DATA)  # uplink: left as it is
        assert np.array_equal(arr, before)

    def test_fancy_index_rejected(self):
        with pytest.raises(ConfigError):
            place(self.tdd_arr(), ([0, 1],), ReLabel.NR_DATA)


def _reference_place(arr, where, footprint, rate_match=False):
    """The masked write of `place` on any view, kept as the reference its
    all-free fast path must match."""
    view = arr[(*where, ...)]
    footprint = np.broadcast_to(np.asarray(footprint, dtype=arr.dtype), view.shape)
    want = footprint != ReLabel.UNLABELED
    free = view == ReLabel.UNLABELED
    if not rate_match:
        taken = want & ~free & (view < ReLabel.GUARD_SYMBOL)
        if taken.any():
            local = tuple(np.argwhere(taken)[0])
            raise ConflictError(
                f"conflict at cell {_grid_cell(where, local)}: existing "
                f"{ReLabel(int(view[local])).name}, new {ReLabel(int(footprint[local])).name}"
            )
    np.copyto(view, footprint, where=want & free)


# Labels a downlink footprint can carry: everything but UNLABELED, guard and uplink.
DOWNLINK_LABELS = np.arange(ReLabel.UNLABELED + 1, ReLabel.GUARD_SYMBOL, dtype=np.uint8)


def _random_labels(rng, shape, density):
    """Downlink labels on a `density` share of the cells, UNLABELED elsewhere."""
    labels = rng.choice(DOWNLINK_LABELS, size=shape)
    return np.where(rng.random(shape) < density, labels, ReLabel.UNLABELED).astype(np.uint8)


def _index(draw, size):
    """An int, a slice, or a slice with open ends into an axis of `size`."""
    kind = draw(st.sampled_from(["int", "slice", "open"]))
    if kind == "int":
        return draw(st.integers(0, size - 1))
    if kind == "open":
        return slice(None)
    start = draw(st.integers(0, size - 1))
    return slice(start, draw(st.integers(start + 1, size)))


@st.composite
def placements(draw):
    """(label array, where, footprint, rate_match) over FDD and TDD grids whose
    downlink cells are all free, partly taken or all taken."""
    cycle = draw(st.sampled_from(["FDD", "D", "DS", "DSU", "SU", "DDDSU"]))
    n_prb = draw(st.integers(1, 2))
    if cycle == "FDD":
        carrier = fdd(n_prb=n_prb, span_ms=draw(st.integers(1, 3)))
    else:
        dl = draw(st.integers(0, 14))
        guard = draw(st.integers(0, 14 - dl))
        carrier = CarrierConfig(
            Numerology(30), n_prb=n_prb, duplex="TDD", span_ms=len(cycle),
            tdd_pattern=TddPattern(cycle, (dl, guard, 14 - dl - guard)),
        )
    arr = make_grid(carrier).writable_labels()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taken = _random_labels(rng, arr.shape, draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])))
    arr = np.where(arr == ReLabel.UNLABELED, taken, arr)

    depth = draw(st.integers(0, 4))
    if depth == 4:
        # Three ints: a single cell.
        where = tuple(draw(st.integers(0, size - 1)) for size in arr.shape)
    else:
        where = tuple(_index(draw, size) for size in arr.shape[:depth])
    view_shape = arr[where].shape
    shape = draw(st.sampled_from(["scalar", "view", "column"]))
    if shape == "scalar":
        footprint = draw(st.sampled_from(DOWNLINK_LABELS.tolist()))
    else:
        fp_shape = view_shape if shape == "view" or not view_shape else view_shape[:-1] + (1,)
        footprint = _random_labels(rng, fp_shape, draw(st.sampled_from([0.0, 0.3, 1.0])))
    return arr, where, footprint, draw(st.booleans())


class TestPlaceReference:
    @settings(max_examples=400, deadline=None)
    @given(placements())
    def test_place_matches_the_masked_write(self, case):
        arr, where, footprint, rate_match = case
        expected, actual = arr.copy(), arr.copy()
        try:
            _reference_place(expected, where, footprint, rate_match)
            expected_error = None
        except ConflictError as exc:
            expected_error = str(exc)
        try:
            place(actual, where, footprint, rate_match)
            error = None
        except ConflictError as exc:
            error = str(exc)
        assert error == expected_error
        assert np.array_equal(actual, expected)
        if error is not None:
            assert np.array_equal(actual, arr)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16])
def test_footprint_of_the_view_shape_in_another_dtype(dtype):
    """Only a footprint of the view's shape and the lattice's dtype is taken
    as it is; any other dtype is converted first, and placed alike."""
    arr = make_grid(fdd(n_prb=1, span_ms=2)).writable_labels()
    arr[0, 3, 5] = ReLabel.LTE_CRS_P0
    footprint = np.full((14, 12), ReLabel.NR_DATA, dtype=dtype)
    place(arr, (1,), footprint)
    assert (arr[1] == ReLabel.NR_DATA).all()
    with pytest.raises(ConflictError, match=r"cell \(0, 3, 5\): existing LTE_CRS_P0, new NR_DATA"):
        place(arr, (0,), footprint)
    place(arr, (0,), footprint, rate_match=True)
    assert arr[0, 3, 5] == ReLabel.LTE_CRS_P0
    assert np.count_nonzero(arr[0] == ReLabel.NR_DATA) == 14 * 12 - 1
