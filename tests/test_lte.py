import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import (
    CarrierConfig,
    ConfigError,
    ConflictError,
    LteCellConfig,
    ReLabel,
    SlotKind,
    TddPattern,
    apply_lte,
    count_labels,
    make_grid,
)
from gridshare.lte import MBSFN_ALLOWED, crs_mask

import dense_reference as ref
from dense_reference import crs_cells


def crs_total(counts):
    """CRS cells over the four per-port labels."""
    return sum(counts.get(ReLabel.lte_crs(p), 0) for p in range(4))


def fdd15(n_prb=1, span_ms=1):
    return CarrierConfig(15, n_prb=n_prb, duplex="FDD", span_ms=span_ms)


class TestCrsCells:
    @pytest.mark.parametrize("ports,expected", [(1, 8), (2, 16), (4, 24)])
    def test_density_per_prb(self, ports, expected):
        for cell_id in range(6):
            cfg = LteCellConfig(cell_id=cell_id, crs_ports=ports)
            assert len(crs_cells(cfg, 1)) == expected

    def test_density_scales_with_prbs(self):
        cfg = LteCellConfig(crs_ports=4)
        assert len(crs_cells(cfg, 5)) == 24 * 5

    def test_v_shift_periodicity(self):
        a = crs_cells(LteCellConfig(cell_id=2, crs_ports=4), 3)
        b = crs_cells(LteCellConfig(cell_id=8, crs_ports=4), 3)
        assert a == b

    def test_port_monotonicity(self):
        one = crs_cells(LteCellConfig(cell_id=1, crs_ports=1), 2)
        two = crs_cells(LteCellConfig(cell_id=1, crs_ports=2), 2)
        four = crs_cells(LteCellConfig(cell_id=1, crs_ports=4), 2)
        assert one < two < four

    def test_shift_3_combs_are_disjoint(self):
        a = {(s, sc) for s, sc, _ in crs_cells(LteCellConfig(cell_id=0, crs_ports=1), 1)}
        b = {(s, sc) for s, sc, _ in crs_cells(LteCellConfig(cell_id=3, crs_ports=1), 1)}
        assert not (a & b)

    def test_equal_shift_port0_overlap_is_total(self):
        a = {(s, sc) for s, sc, p in crs_cells(LteCellConfig(cell_id=1, crs_ports=1), 1) if p == 0}
        b = {(s, sc) for s, sc, p in crs_cells(LteCellConfig(cell_id=7, crs_ports=1), 1) if p == 0}
        assert a == b

    def test_symbols_used(self):
        cells = crs_cells(LteCellConfig(crs_ports=4), 1)
        assert {s for s, _, p in cells if p in (0, 1)} == {0, 4, 7, 11}
        assert {s for s, _, p in cells if p in (2, 3)} == {1, 8}

    def test_one_port_cells_in_two_symbol_control_region(self):
        cells = crs_cells(LteCellConfig(crs_ports=1), 1)
        assert sum(1 for s, _, _ in cells if s < 2) == 2  # symbol 0 only


class TestConfigValidation:
    def test_invalid_ports(self):
        with pytest.raises(ConfigError):
            LteCellConfig(crs_ports=3)

    def test_invalid_pdcch(self):
        with pytest.raises(ConfigError):
            LteCellConfig(pdcch_symbols=0)

    def test_v_shift(self):
        assert LteCellConfig(cell_id=20).v_shift == 2

    def test_neighbors_stored_as_a_tuple(self):
        neighbors = [LteCellConfig(cell_id=3, crs_ports=1), LteCellConfig(cell_id=7)]
        serving = LteCellConfig(neighbors=neighbors)
        assert serving.neighbors == tuple(neighbors)
        assert type(serving.neighbors) is tuple
        assert LteCellConfig().neighbors == ()
        assert hash(serving) == hash(LteCellConfig(neighbors=tuple(neighbors)))

    @pytest.mark.parametrize("entry", [{"cell_id": 3}, 3, None])
    def test_neighbor_must_be_a_cell(self, entry):
        with pytest.raises(ConfigError, match="neighbors must be LteCellConfig values"):
            LteCellConfig(neighbors=[LteCellConfig(cell_id=1), entry])


class TestApplyLte:
    def test_requires_15khz(self):
        # The scenario reader's message for an `lte` section on this carrier.
        carrier = CarrierConfig(
            30, n_prb=1, duplex="FDD", span_ms=1
        )
        with pytest.raises(ConfigError, match="^an LTE cell needs a 15 kHz carrier$"):
            apply_lte(make_grid(carrier), LteCellConfig())

    def test_a_neighbor_whose_mbsfn_subframe_misfits_is_rejected(self):
        # A neighbor's MBSFN subframes must fit the carrier as the serving
        # cell's do; `place_lte` once checked the serving cell alone.
        carrier = fdd15(span_ms=10)
        cell = LteCellConfig(neighbors=[LteCellConfig(cell_id=1, mbsfn_subframes={1}),
                                        LteCellConfig(cell_id=2, mbsfn_subframes={12})])
        message = "subframe 12 is outside the 10-subframe carrier span"
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            apply_lte(make_grid(carrier), cell)
        assert list(cell.misfits(carrier)) == [("neighbors[1].mbsfn_subframes", message)]
        with pytest.raises(ConfigError) as err:
            ref.place_lte(ref.new_labels(carrier), carrier, cell)
        assert ref.named_slot(str(err.value)) == 12

    def test_four_ports_shared_slot_arithmetic(self):
        # Per PRB: 24 CRS (8 in control), 16 PDCCH, 128 data-region Unlabeled.
        grid = apply_lte(make_grid(fdd15()), LteCellConfig(crs_ports=4, pdcch_symbols=2))
        counts = count_labels(grid)
        assert crs_total(counts) == 24
        assert counts[ReLabel.LTE_PDCCH] == 24 - 8
        assert counts[ReLabel.UNLABELED] == 128

    def test_crs_in_control_region_countable(self):
        grid = apply_lte(make_grid(fdd15()), LteCellConfig(crs_ports=4, pdcch_symbols=2))
        control = ref.gather(grid.lattice)[0, :2, :]
        in_control = sum(
            (control == int(ReLabel.lte_crs(p))).sum() for p in range(4)
        )
        assert in_control == 8

    def test_one_port_data_region(self):
        grid = apply_lte(make_grid(fdd15()), LteCellConfig(crs_ports=1, pdcch_symbols=2))
        assert count_labels(grid)[ReLabel.UNLABELED] == 138

    def test_mbsfn_subframe_muting(self):
        cfg = LteCellConfig(crs_ports=1, pdcch_symbols=2, mbsfn_subframes={1},
                            non_mbsfn_region_len=2)
        grid = apply_lte(make_grid(fdd15(span_ms=2)), cfg)
        counts = count_labels(grid)
        # In subframe 1: CRS only at symbols 0..1 (symbol 0 for 1 port),
        # control as normal, everything after symbol 1 muted with no CRS
        # inside. Subframe 0 is a normal subframe of 8 CRS cells.
        assert counts[ReLabel.LTE_MBSFN_MUTED] == 144
        assert crs_total(counts) == 8 + 2
        assert (ref.gather(grid.lattice)[1, 2:, :] == ReLabel.LTE_MBSFN_MUTED).all()

    @pytest.mark.parametrize("carrier, mbsfn, message", [
        (fdd15(n_prb=6, span_ms=10), {0, 12}, "subframe 0 cannot carry MBSFN on FDD"),
        (fdd15(n_prb=6, span_ms=20), {1, 12, 25}, "subframe 25 is outside the 20-subframe carrier span"),
        (CarrierConfig(15, n_prb=6, duplex="TDD", span_ms=10, tdd_pattern=TddPattern("DSUUD", (10, 2, 2))),
         {-1}, "subframe -1 is outside the 10-subframe carrier span"),
        (CarrierConfig(15, n_prb=6, duplex="TDD", span_ms=10, tdd_pattern=TddPattern("DSUUD", (10, 2, 2))),
         {3}, "subframe 3 cannot carry MBSFN: the TDD pattern makes it uplink"),
    ])
    def test_mbsfn_subframes_the_carrier_cannot_hold_are_rejected(self, carrier, mbsfn, message):
        # Subframe 0 was once muted, losing its PBCH/PSS/SSS, subframe 12 of
        # a 10-subframe carrier ignored, and subframe -1 taken as 9.
        # The reference names the same subframe in words of its own.
        cell = LteCellConfig(mbsfn_subframes=mbsfn)
        with pytest.raises(ConfigError, match="^" + re.escape(message)) as err:
            apply_lte(make_grid(carrier), cell)
        with pytest.raises(ConfigError) as ref_err:
            ref.place_lte(ref.new_labels(carrier), carrier, cell)
        assert ref.verdict(ref_err.value) == ref.verdict(err.value)

    def test_sync_and_pbch_footprint(self):
        # Subframe 0: PSS/SSS on symbols 5-6 and PBCH on 7-10, center 72 sc,
        # PBCH rate-matched around the CRS comb.
        cfg = LteCellConfig(crs_ports=1, pdcch_symbols=2)
        grid = apply_lte(make_grid(fdd15(n_prb=6)), cfg)
        counts = count_labels(grid)
        crs_in_pbch = 12  # symbol 7 carries 2 CRS cells/PRB across 6 PRBs
        assert counts[ReLabel.LTE_PSS_SSS_PBCH] == 2 * 72 + 4 * 72 - crs_in_pbch

    def test_sync_skipped_on_plain_subframes(self):
        cfg = LteCellConfig(crs_ports=1, pdcch_symbols=2)
        grid = apply_lte(make_grid(fdd15(n_prb=6, span_ms=10)), cfg)
        for sf in range(10):
            present = (ref.gather(grid.lattice)[sf] == ReLabel.LTE_PSS_SSS_PBCH).any()
            assert present == (sf in (0, 5))


class TestCrsMaskReference:
    @pytest.mark.parametrize("ports", [1, 2, 4])
    @pytest.mark.parametrize("v_shift", range(6))
    def test_mask_matches_ts_36_211(self, ports, v_shift):
        expected = np.zeros((14, 12), dtype=np.uint8)
        for (s, k), port in ref.spec_crs(ports, v_shift).items():
            expected[s, k] = port + 1
        mask = np.frombuffer(crs_mask(ports, v_shift), dtype=np.uint8).reshape(14, 12)
        np.testing.assert_array_equal(mask, expected)
        cells = crs_cells(LteCellConfig(cell_id=v_shift, crs_ports=ports), 1)
        assert cells == {(s, k, int(expected[s, k]) - 1) for s, k in zip(*np.nonzero(expected))}


def dl_symbols(carrier, sf):
    if carrier.duplex == "FDD":
        return 14
    kind = carrier.tdd_pattern.cycle_str[sf % len(carrier.tdd_pattern.cycle)]
    return {"D": 14, "S": carrier.tdd_pattern.special_split[0], "U": 0}[kind]


@st.composite
def mbsfn_sets(draw, carrier):
    """Subframes of the carrier that may carry MBSFN: in its span, allowed
    on its duplex and downlink."""
    candidates = [sf for sf in range(carrier.n_slots)
                  if sf % 10 in MBSFN_ALLOWED[carrier.duplex] and carrier.slot_kind(sf) is SlotKind.DOWNLINK]
    return draw(st.frozensets(st.sampled_from(candidates))) if candidates else frozenset()


@st.composite
def lte_carriers(draw):
    n_prb = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return CarrierConfig(15, n_prb=n_prb, duplex="FDD", span_ms=draw(st.integers(1, 12)))
    cycle = draw(st.text("DSU", min_size=1, max_size=5))
    dl = draw(st.integers(0, 14))
    guard = draw(st.integers(0, 14 - dl))
    return CarrierConfig(
        15, n_prb=n_prb, duplex="TDD", span_ms=len(cycle) * draw(st.integers(1, 3)),
        tdd_pattern=TddPattern(cycle, (dl, guard, 14 - dl - guard)),
    )


class TestCrsCountProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        carrier=lte_carriers(),
        ports=st.sampled_from([1, 2, 4]),
        cell_id=st.integers(0, 503),
        pdcch=st.integers(1, 3),
        region=st.integers(1, 2),
        data=st.data(),
    )
    def test_per_port_count_closed_form(self, carrier, ports, cell_id, pdcch, region, data):
        mbsfn = data.draw(mbsfn_sets(carrier))
        cfg = LteCellConfig(cell_id=cell_id, crs_ports=ports, pdcch_symbols=pdcch,
                            mbsfn_subframes=mbsfn, non_mbsfn_region_len=region)
        counts = count_labels(apply_lte(make_grid(carrier), cfg))
        # Two cells per PRB on each CRS symbol of a port that is downlink and,
        # in an MBSFN subframe, inside the non-MBSFN region.
        for port in range(4):
            symbols = (0, 4, 7, 11) if port < 2 else (1, 8)
            expected = 0
            if port < ports:
                for sf in range(carrier.n_slots):
                    limit = dl_symbols(carrier, sf)
                    if sf in mbsfn:
                        limit = min(limit, region)
                    expected += 2 * carrier.n_prb * sum(1 for l in symbols if l < limit)
            assert counts.get(ReLabel.lte_crs(port), 0) == expected


class TestPlacementInvariants:
    def test_second_apply_lte_conflicts(self):
        grid = apply_lte(make_grid(fdd15(n_prb=6, span_ms=10)), LteCellConfig())
        before = ref.gather(grid.lattice)
        with pytest.raises(ConflictError, match=r"\(0, 0, 0\).*LTE_CRS_P0"):
            apply_lte(grid, LteCellConfig())
        assert np.array_equal(ref.gather(grid.lattice), before)

    @pytest.mark.parametrize("ports", [1, 2, 4])
    def test_tdd_uplink_and_guard_untouched(self, ports):
        carrier = CarrierConfig(15, n_prb=10, duplex="TDD", span_ms=5,
                                tdd_pattern=TddPattern("DDDSU"))
        before = count_labels(make_grid(carrier))
        after = count_labels(apply_lte(make_grid(carrier), LteCellConfig(crs_ports=ports)))
        for label in (ReLabel.UPLINK_SYMBOL, ReLabel.GUARD_SYMBOL):
            assert after[label] == before[label]
