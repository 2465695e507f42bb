import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare import budget
from gridshare import (
    BeamSignal,
    CarrierConfig,
    ConfigError,
    Coreset1Spec,
    CsiRsSpec,
    DssLayout,
    GridShareError,
    NrOverlaySet,
    TddPattern,
    TrsSpec,
    default_dmrs_symbols,
    dss_pool_by_grid,
    dss_pool_per_prb,
    dss_table,
    nr_overhead,
    verify_overhead_by_grid,
)

from dense_reference import dominance_share


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


class TestDssTable:
    def test_default_layout_golden(self):
        rows = dss_table()
        got = [
            (r.crs_ports, r.dss_re, r.nr_re, r.lte_re,
             r.loss_vs_nr_pct, r.loss_vs_lte_pct)
            for r in rows
        ]
        assert got == [
            (1, 102, 132, 138, 22.73, 26.09),
            (2, 96, 132, 132, 27.27, 27.27),
            (4, 92, 132, 128, 30.30, 28.13),
        ]

    def test_half_up_tie_case(self):
        # 36/128 = 28.125% must round up, not to even.
        row = dss_table(ports=(4,))[0]
        assert row.loss_vs_lte_pct == 28.13

    def test_degenerate_no_incumbent_row(self):
        row = dss_table(ports=(0,), lte_pdcch=0)[0]
        assert row.dss_re == row.nr_re == row.lte_re == 132
        assert row.loss_vs_nr_pct == 0.0
        assert row.loss_vs_lte_pct == 0.0

    def test_three_symbol_lte_control(self):
        rows = dss_table(lte_pdcch=3)
        for row in rows:
            assert row.dss_re < dss_table(lte_pdcch=2)[0].nr_re
        # Verified against the grid internally; spot-check one closed form:
        # symbols 4..13 minus DMRS {5, 12} = 8 symbols, minus CRS on 4, 7, 11.
        assert rows[0].dss_re == 8 * 12 - 3 * 2

    def test_invalid_ports_rejected(self):
        with pytest.raises(ConfigError):
            dss_table(ports=(3,))

    def test_losses_increase_with_ports(self):
        rows = dss_table()
        nr_losses = [r.loss_vs_nr_pct for r in rows]
        assert nr_losses == sorted(nr_losses)
        assert all(r1.dss_re > r2.dss_re for r1, r2 in zip(rows, rows[1:]))


    def test_every_column_checked_on_the_grid(self, monkeypatch):
        # Per row: the DSS slot, then the pure LTE subframe; the pure NR slot
        # once, after the first row's DSS slot.
        calls = []
        real = budget.dss_pool_by_grid
        monkeypatch.setattr(budget, "dss_pool_by_grid", lambda *args: calls.append(args) or real(*args))
        dss_table()
        assert calls == [
            (1, 2, 1, (3, 12)), (1, 2, 0, ()), (0, 0, 1, (1, 12)),
            (2, 2, 1, (3, 12)), (2, 2, 0, ()),
            (4, 2, 1, (3, 12)), (4, 2, 0, ()),
        ]

    @pytest.mark.parametrize("layout, message", [
        ((1, 2, 1), "for 1 ports: 102 vs 103"),
        ((1, 2, 0), "for 1 ports: 138 vs 139"),
        ((0, 0, 1), "for 0 ports: 132 vs 133"),
    ])
    def test_column_that_disagrees_with_its_grid_rejected(self, monkeypatch, layout, message):
        real = budget.dss_pool_by_grid

        def off_by_one(ports, lte_pdcch, nr_pdcch, dmrs):
            return real(ports, lte_pdcch, nr_pdcch, dmrs) + ((ports, lte_pdcch, nr_pdcch) == layout)

        monkeypatch.setattr(budget, "dss_pool_by_grid", off_by_one)
        with pytest.raises(GridShareError, match=f"closed-form/grid mismatch {message}"):
            dss_table(ports=(1,))


class TestDefaultDmrs:
    def test_standard_layout(self):
        assert default_dmrs_symbols(1, 3, 2) == (3, 12)
        assert default_dmrs_symbols(4, 3, 2) == (3, 12)

    def test_three_symbol_control_shifts_front_dmrs(self):
        # Control covers 0..3; symbol 4 is CRS-bearing, so 5 is next valid.
        assert default_dmrs_symbols(1, 4, 2) == (5, 12)

    def test_zero_count(self):
        assert default_dmrs_symbols(1, 3, 0) == ()

    def test_impossible_request(self):
        with pytest.raises(ConfigError):
            default_dmrs_symbols(4, 3, 12)


class TestDualRoute:
    @settings(max_examples=40, deadline=None)
    @given(
        ports=st.sampled_from([0, 1, 2, 4]),
        lte_pdcch=st.integers(0, 3),
        nr_pdcch=st.integers(0, 2),
        dmrs_count=st.integers(0, 3),
        n_prb=st.integers(1, 4),
    )
    def test_closed_form_matches_grid(self, ports, lte_pdcch, nr_pdcch,
                                      dmrs_count, n_prb):
        if ports > 0 and lte_pdcch == 0:
            lte_pdcch = 1
        if ports == 0:
            lte_pdcch = 0
        ctrl_end = lte_pdcch + nr_pdcch
        try:
            dmrs = default_dmrs_symbols(ports, ctrl_end, dmrs_count)
        except ConfigError:
            return
        closed = dss_pool_per_prb(ports, lte_pdcch, nr_pdcch, dmrs)
        counted = dss_pool_by_grid(ports, lte_pdcch, nr_pdcch, dmrs, n_prb=n_prb)
        assert closed == counted

    @pytest.mark.parametrize("args,pool", [
        ((1, 1, 1, (-1,)), 138),
        ((1, 1, 1, (14,)), 138),
        ((4, 2, 1, (-1, 14)), 116),
        ((4, 2, 1, (12, 14)), 104),
        ((2, 3, 0, (-2,)), 120),
        ((0, 0, 14, ()), 0),
        ((0, 0, 15, ()), 0),
        ((4, 3, 12, (12,)), 0),
    ])
    def test_closed_form_ignores_dmrs_outside_the_slot_and_control_past_it(self, args, pool):
        # The grid route rejects these; the closed form marks no symbol
        # for a DMRS symbol outside 0..13 and all 14 for control past them.
        assert dss_pool_per_prb(*args) == pool

    def test_negative_control_marks_no_symbol(self):
        # A pool counts at most the 168 cells of a PRB, as the grid route does.
        assert dss_pool_per_prb(0, 0, -1, ()) == dss_pool_by_grid(0, 0, -1, ()) == 168


class TestOverhead:
    def test_full_overlay_golden(self):
        report = nr_overhead(wideband_tdd_carrier(), full_overlay())
        by_name = {r.signal_name: r for r in report.rows}
        assert by_name["SSB"].re_count == 3840
        assert by_name["CORESET 0"].re_count == 4608
        assert by_name["SIB1"].re_count == 4608
        assert by_name["CORESET 1"].re_count == 207_360
        assert by_name["CSI-RS"].re_count == 8704
        assert by_name["TRS"].re_count == 4992
        assert report.total_row.re_count == 234_112
        assert report.total_re == 1_834_560
        assert report.downlink_re == 1_257_984
        assert report.total_row.pct_of_total == 12.76
        assert report.total_row.pct_of_downlink == 18.61
        assert by_name["CORESET 1"].pct_of_downlink == 16.48

    def test_grid_route_agrees(self):
        report = nr_overhead(wideband_tdd_carrier(), full_overlay())
        grid_counts = verify_overhead_by_grid(wideband_tdd_carrier(), full_overlay())
        for row in report.rows:
            assert grid_counts[row.signal_name] == row.re_count

    def test_empty_overlay(self):
        report = nr_overhead(wideband_tdd_carrier(), NrOverlaySet(period_ms=20))
        assert report.total_row.re_count == 0
        assert report.total_row.pct_of_downlink == 0.0
        assert all(r.re_count == 0 for r in report.rows)

    def test_all_downlink_pattern(self):
        # With no uplink or guard, CORESET 1 monitors all 40 slots and the
        # downlink denominator equals the total.
        carrier = CarrierConfig(
            30, n_prb=273, duplex="TDD", span_ms=20,
            tdd_pattern=TddPattern("D", (14, 0, 0)),
        )
        report = nr_overhead(carrier, full_overlay())
        by_name = {r.signal_name: r for r in report.rows}
        assert by_name["CORESET 1"].re_count == 270 * 12 * 2 * 40 == 259_200
        assert report.downlink_re == report.total_re
        for row in report.rows:
            assert row.pct_of_total == row.pct_of_downlink

    def test_pct_of_downlink_dominates_pct_of_total(self):
        report = nr_overhead(wideband_tdd_carrier(), full_overlay())
        for row in report.rows + (report.total_row,):
            assert row.pct_of_downlink >= row.pct_of_total

    def test_fdd_carrier_is_modeled(self):
        # Every slot is downlink: CORESET 1 monitors all 40 slots, the
        # downlink denominator is the total, and the total row reads FDD.
        carrier = CarrierConfig(30, n_prb=273, duplex="FDD", span_ms=20)
        report = nr_overhead(carrier, full_overlay())
        counts = {row.signal_name: row.re_count for row in report.rows}
        assert counts == verify_overhead_by_grid(carrier, full_overlay())
        assert counts["CORESET 1"] == 270 * 12 * 2 * 40
        assert report.downlink_re == report.total_re == 1_834_560
        assert (report.total_row.config_summary, report.total_row.re_count) == ("FDD", 285_952)

    def test_period_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            nr_overhead(wideband_tdd_carrier(), NrOverlaySet(period_ms=10))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_closed_form_and_grid_agree_or_fail_alike(self, data):
        """On any small TDD or FDD carrier, the table and its grid route
        report the same counts, or reject the overlay with the same error."""
        draw = data.draw
        cycle = draw(st.sampled_from(["D", "DU", "DSU", "SU", "DDDSU", None]))
        scs, n_prb = draw(st.sampled_from([15, 30])), draw(st.integers(1, 4))
        if cycle is None:
            carrier = CarrierConfig(scs, n_prb=n_prb, duplex="FDD", span_ms=draw(st.integers(1, 5)))
        else:
            dl = draw(st.integers(0, 14))
            guard = draw(st.integers(0, 14 - dl))
            carrier = CarrierConfig(
                scs, n_prb=n_prb, duplex="TDD", span_ms=len(cycle) * draw(st.integers(1, 2)),
                tdd_pattern=TddPattern(cycle, (dl, guard, 14 - dl - guard)))
        count, prbs = st.integers(0, 4), st.integers(0, 3)

        def maybe(strategy):
            return draw(st.one_of(st.none(), strategy))

        beam = st.builds(BeamSignal, count, prbs, st.integers(0, 16))
        overlay = NrOverlaySet(
            period_ms=carrier.span_ms + (draw(st.integers(0, 7)) == 5),
            ssb=maybe(beam), coreset0=maybe(beam), sib1=maybe(beam),
            coreset1=maybe(st.builds(Coreset1Spec, prbs, st.integers(0, 16),
                                     st.one_of(st.none(), st.integers(0, 12)))),
            csi_rs=maybe(st.builds(CsiRsSpec, count, st.integers(0, 60), prbs, count)),
            trs=maybe(st.builds(TrsSpec, prbs, count, st.integers(0, 170), count, count)))

        def outcome(route):
            try:
                return route(carrier, overlay), None
            except GridShareError as exc:
                return None, str(exc)

        report, error = outcome(nr_overhead)
        counts, grid_error = outcome(verify_overhead_by_grid)
        assert error == grid_error
        if report is not None:
            assert {row.signal_name: row.re_count for row in report.rows} == counts
            assert report.total_row.re_count <= report.downlink_re


class TestDominance:
    def test_coreset1_share(self):
        report = nr_overhead(wideband_tdd_carrier(), full_overlay())
        assert dominance_share(report, "CORESET 1") == 88.6
        assert dominance_share(report, "SSB") == 1.6

    def test_shares_sum_to_100(self):
        report = nr_overhead(wideband_tdd_carrier(), full_overlay())
        total = sum(dominance_share(report, r.signal_name) for r in report.rows)
        assert abs(total - 100.0) < 0.3

    def test_sole_signal_is_100(self):
        overlay = NrOverlaySet(period_ms=20, coreset1=Coreset1Spec(270, 2))
        report = nr_overhead(wideband_tdd_carrier(), overlay)
        assert dominance_share(report, "CORESET 1") == 100.0


class TestLayout:
    def test_defaults(self):
        layout = DssLayout()
        assert (layout.lte_pdcch, layout.nr_pdcch, layout.dmrs_count) == (2, 1, 2)
        assert layout.control_end == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            DssLayout(lte_pdcch=4)
        with pytest.raises(ConfigError):
            DssLayout(dmrs_count=-1)


class TestPortsAndControlRegion:
    """A port count the LTE control region cannot go with is a ConfigError
    raised before any row is computed, not a closed-form/grid mismatch."""

    @pytest.mark.parametrize("ports, lte_pdcch", [((0,), 2), ((1,), 0), ((1, 2, 0), 1), ((4,), 0)])
    def test_rejected_before_any_row(self, monkeypatch, ports, lte_pdcch):
        calls = []
        monkeypatch.setattr(budget, "default_dmrs_symbols", lambda *args: calls.append(args))
        with pytest.raises(ConfigError, match=r"\(no incumbent\)"):
            dss_table(ports=ports, lte_pdcch=lte_pdcch)
        assert calls == []

    @pytest.mark.parametrize("ports, lte_pdcch", [(0, 2), (2, 0)])
    def test_grid_route_rejects_the_same_pairs(self, ports, lte_pdcch):
        with pytest.raises(ConfigError, match=r"\(no incumbent\)"):
            dss_pool_by_grid(ports, lte_pdcch, 1, ())

    def test_control_past_the_slot_rejected(self):
        with pytest.raises(ConfigError, match="LTE and NR control take 15 symbols, more than the 14"):
            dss_table(lte_pdcch=2, nr_pdcch=13, dmrs_count=0)

    def test_control_filling_the_slot_accepted(self):
        rows = dss_table(lte_pdcch=2, nr_pdcch=12, dmrs_count=0)
        assert [r.dss_re for r in rows] == [0, 0, 0]
