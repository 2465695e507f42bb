"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line (bypassing capture) so the gate
can be read at a glance from any pytest run.
"""

import pathlib
import random
import sys
import time

from gridshare import (
    CarrierConfig,
    LteCellConfig,
    Mitigation,
    MrssCategoryMap,
    SchedPolicy,
    TrafficModel,
    dss_pool_by_grid,
    dss_pool_per_prb,
    dss_table,
    make_grid,
    neighbor_interference,
    nr_overhead,
    parse_scenario,
    reserve_iot,
    simulate,
    verify_overhead_by_grid,
)
from gridshare.budget import crs_bearing_symbols
from gridshare.cli import build_grid, build_map
from gridshare.mrss import CAT_CONTROL, CAT_NON_DL, CAT_RESERVED, CAT_SHARED

from dense_reference import categories, dominance_share
from staged import staged

SCENARIOS = pathlib.Path(__file__).parent.parent / "scenarios"


def _gate(number, name, fn):
    try:
        fn()
    except BaseException:
        print(f"acceptance {number} {name}: FAIL", file=sys.__stdout__)
        raise
    print(f"acceptance {number} {name}: PASS", file=sys.__stdout__)


def test_1_dss_budget_golden():
    def check():
        start = time.perf_counter()
        rows = dss_table()
        got = [
            (r.dss_re, r.nr_re, r.lte_re, r.loss_vs_nr_pct, r.loss_vs_lte_pct)
            for r in rows
        ]
        assert got == [
            (102, 132, 138, 22.73, 26.09),
            (96, 132, 132, 27.27, 27.27),
            (92, 132, 128, 30.30, 28.13),
        ]
        assert time.perf_counter() - start < 1.0

    _gate(1, "dss-budget-golden", check)


def test_2_overhead_golden():
    def check():
        start = time.perf_counter()
        scenario = parse_scenario((SCENARIOS / "table3.json").read_text())
        report = nr_overhead(scenario.carrier, scenario.nr)
        expected = {
            "SSB": (3840, 0.21, 0.31),
            "CORESET 0": (4608, 0.25, 0.37),
            "SIB1": (4608, 0.25, 0.37),
            "CORESET 1": (207_360, 11.30, 16.48),
            "CSI-RS": (8704, 0.47, 0.69),
            "TRS": (4992, 0.27, 0.40),
        }
        for row in report.rows:
            assert (row.re_count, row.pct_of_total, row.pct_of_downlink) == expected[row.signal_name]
        assert report.total_row.re_count == 234_112
        assert (report.total_row.pct_of_total, report.total_row.pct_of_downlink) == (12.76, 18.61)
        grid_counts = verify_overhead_by_grid(scenario.carrier, scenario.nr)
        assert grid_counts == {name: expected[name][0] for name in expected}
        assert time.perf_counter() - start < 5.0

    _gate(2, "overhead-golden", check)


def test_3_control_overhead_dominance():
    def check():
        scenario = parse_scenario((SCENARIOS / "table3.json").read_text())
        report = nr_overhead(scenario.carrier, scenario.nr)
        share = dominance_share(report, "CORESET 1")
        assert abs(share - 88.57) <= 0.1

    _gate(3, "control-overhead-dominance", check)


def test_4_four_port_loss_claim():
    def check():
        row = dss_table(ports=(4,))[0]
        assert row.loss_vs_nr_pct == 30.30

    _gate(4, "four-port-loss-vs-pure-nr", check)


def test_5_closed_form_grid_equivalence():
    def check():
        rng = random.Random(2024)
        checked = 0
        while checked < 220:
            ports = rng.choice([0, 1, 2, 4])
            lte_pdcch = 0 if ports == 0 else rng.randint(1, 3)
            nr_pdcch = rng.randint(0, 2)
            ctrl_end = lte_pdcch + nr_pdcch
            allowed = [
                s for s in range(ctrl_end, 14)
                if s not in crs_bearing_symbols(ports)
            ]
            dmrs = tuple(sorted(rng.sample(allowed, rng.randint(0, min(3, len(allowed))))))
            n_prb = rng.randint(1, 8)
            closed = dss_pool_per_prb(ports, lte_pdcch, nr_pdcch, dmrs)
            counted = dss_pool_by_grid(ports, lte_pdcch, nr_pdcch, dmrs, n_prb=n_prb)
            assert closed == counted, (ports, lte_pdcch, nr_pdcch, dmrs, n_prb)
            checked += 1
        assert checked >= 200

    _gate(5, "closed-form-vs-grid-enumeration", check)


def test_6_scheduler_properties():
    def check():
        rng = random.Random(77)
        for _ in range(110):
            n_prb = rng.randint(1, 8)
            span = rng.randint(1, 20)
            carrier = CarrierConfig(15, n_prb=n_prb, duplex="FDD",
                                    span_ms=span)
            cmap = MrssCategoryMap(make_grid(carrier))
            if n_prb > 1 and rng.random() < 0.3:
                cmap = staged(cmap, reserve_iot, carrier, [(0, 1, None)])
            hi = n_prb * 180
            traffic = TrafficModel(
                (rng.randint(0, hi), hi + rng.randint(0, hi)),
                (rng.randint(0, hi), hi + rng.randint(0, hi)),
                seed=rng.randint(0, 10_000),
            )
            pools = cmap.shared_cells_per_slot().tolist()
            results = {p: simulate(cmap, traffic, p) for p in SchedPolicy}
            for result in results.values():
                # Conservation, slot by slot.
                for g5, g6, u, pool in zip(result.grants_5g, result.grants_6g,
                                           result.unused, pools):
                    assert g5 + g6 + u == pool and u >= 0
                # Determinism under the same seed.
                assert simulate(cmap, traffic, SchedPolicy.PRIORITY_5G) == results[SchedPolicy.PRIORITY_5G]
            # Policy dominance for the 5G aggregate.
            assert (results[SchedPolicy.PRIORITY_5G].total_5g
                    >= results[SchedPolicy.PROPORTIONAL_SHARE].total_5g
                    >= results[SchedPolicy.PRIORITY_6G].total_5g)
            # Idle-RAT reclamation: with no 6G demand every policy serves
            # 5G up to the pool.
            idle = TrafficModel(traffic.demand_5g, 0, seed=traffic.seed)
            d5, _ = idle.demands(len(pools))
            for policy in SchedPolicy:
                result = simulate(cmap, idle, policy)
                for g5, d, pool in zip(result.grants_5g, d5.tolist(), pools):
                    assert g5 == min(d, pool)

    _gate(6, "scheduler-property-suite", check)


def test_7_interference_properties():
    def check():
        for serving_id in range(6):
            for serving_ports in (1, 2, 4):
                serving = LteCellConfig(cell_id=serving_id, crs_ports=serving_ports)
                # Co-shift triviality: an identically configured neighbor
                # never dirties the pool.
                twin = LteCellConfig(cell_id=serving_id + 6, crs_ports=serving_ports)
                report = neighbor_interference(serving, [twin],
                                               Mitigation("ServingOnlyRateMatch"))
                assert report.dirty_re == 0
                for neighbor_id in range(6):
                    for neighbor_ports in (1, 2, 4):
                        neighbors = [LteCellConfig(cell_id=neighbor_id,
                                                   crs_ports=neighbor_ports)]
                        aware = neighbor_interference(
                            serving, neighbors, Mitigation("NeighborAwareRateMatch"))
                        mute = neighbor_interference(
                            serving, neighbors, Mitigation("SymbolLevelMute"))
                        assert aware.dirty_re == 0
                        assert mute.sacrificed_re >= aware.sacrificed_re
        # Single-port neighbor at comb shift 3: exactly 6 pool cells lost.
        report = neighbor_interference(
            LteCellConfig(cell_id=0, crs_ports=1),
            [LteCellConfig(cell_id=3, crs_ports=1)],
            Mitigation("NeighborAwareRateMatch"),
        )
        assert report.sacrificed_re == 6

    _gate(7, "interference-property-suite", check)


def test_8_partition_invariant():
    def check():
        for path in sorted(SCENARIOS.glob("*.json")):
            scenario = parse_scenario(path.read_text())
            grid = build_grid(scenario)
            cmap = build_map(scenario)
            assert (cmap.shared_pool_size + cmap.reserved_size
                    + cmap.control_region_size == cmap.downlink_size)
            non_dl = categories(cmap.grid.lattice).tobytes().count(CAT_NON_DL)
            assert cmap.downlink_size + non_dl == grid.n_cells
        # Exhaustive cross-check at small scale: counting the dense category
        # array cell by cell gives each category's size, and the three cover
        # exactly the downlink cells.
        carrier = CarrierConfig(15, n_prb=2, duplex="FDD", span_ms=2)
        cmap = staged(make_grid(carrier), reserve_iot, carrier, [(0, 1, [0])])
        cats = categories(cmap.grid.lattice).tobytes()
        sizes = {CAT_SHARED: cmap.shared_pool_size, CAT_RESERVED: cmap.reserved_size,
                 CAT_CONTROL: cmap.control_region_size}
        assert {cat: cats.count(cat) for cat in sizes} == sizes
        assert sizes[CAT_RESERVED] > 0
        assert sum(sizes.values()) == cmap.downlink_size

    _gate(8, "three-category-partition-invariant", check)
