import json
import pathlib
import re

import pytest

import gridshare
from gridshare import LteCellConfig, ScenarioError, emit_scenario, parse_scenario


MINIMAL = {"carrier": {"scs_khz": 15, "n_prb": 1, "duplex": "FDD", "span_ms": 1}}


def full_doc():
    return {
        "carrier": {
            "scs_khz": 30, "n_prb": 273, "duplex": "TDD", "span_ms": 20,
            "tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 4]},
        },
        "nr": {
            "period_ms": 20,
            "ssb": {"beams": 4, "prbs": 20, "symbols": 4},
            "coreset0": {"beams": 4, "prbs": 48, "symbols": 2},
            "sib1": {"beams": 4, "prbs": 24, "symbols": 4},
            "coreset1": {"prbs": 270, "symbols": 2, "slots": None},
            "csi_rs": {"ports": 32, "density_re_per_port_per_prb": 1,
                       "prbs": 272, "occasions_per_period": 1},
            "trs": {"prbs": 52, "slots_per_occasion": 2, "re_per_prb_per_slot": 6,
                    "beams": 4, "occasions_per_period": 2},
        },
        "mrss": {
            "control_mode": "PartiallyOverlapping",
            "shared_fraction": 0.5,
            "iot_reservations": [{"prb_start": 0, "prb_stop": 2, "slots": [0, 1]}],
            "sixg_ssb": {"occasions": [[10, 2, 100]], "prbs": 20, "symbols": 4},
        },
        "traffic": {"demand_5g": [0, 1000], "demand_6g": 500, "seed": 3},
        "policy": "Priority6G",
        "seed": 9,
        "sweep": {
            "command": "simulate",
            "parameters": [{"path": "policy", "values": ["Priority5G", "Priority6G"]}],
        },
    }


class TestParse:
    def test_minimal_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.carrier.n_prb == 1
        assert s.lte is None and s.nr is None and s.mrss is None
        assert s.budget.ports == (1, 2, 4)
        assert s.budget.layout.control_end == 3
        assert s.seed == 0

    def test_accepts_json_text(self):
        s = parse_scenario(json.dumps(MINIMAL))
        assert s.carrier.duplex == "FDD"

    def test_invalid_json_reports_position(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("{bad json}")

    def test_missing_carrier(self):
        with pytest.raises(ScenarioError, match="carrier"):
            parse_scenario({})

    def test_unknown_top_level_key(self):
        doc = dict(MINIMAL, extra=1)
        with pytest.raises(ScenarioError, match="unknown key 'extra'"):
            parse_scenario(doc)

    def test_invalid_crs_ports_reports_path(self):
        doc = dict(MINIMAL, lte={"crs_ports": 3})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "lte.crs_ports"

    def test_nested_unknown_key_path(self):
        doc = dict(MINIMAL)
        doc["carrier"] = dict(MINIMAL["carrier"], bandwidth=20)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "carrier.bandwidth"

    def test_config_error_rewrapped_with_path(self):
        doc = {"carrier": {"scs_khz": 30, "n_prb": 1, "duplex": "TDD",
                           "span_ms": 20,
                           "tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 3]}}}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "carrier.tdd_pattern"

    def test_neighbors_read_into_the_serving_cell(self):
        doc = {"carrier": dict(MINIMAL["carrier"], span_ms=10), "lte": {"cell_id": 1, "neighbors": [
            {"cell_id": 3, "crs_ports": 1}, {"cell_id": 7, "mbsfn_subframes": [1]}]}}
        s = parse_scenario(doc)
        assert s.lte.neighbors == (LteCellConfig(cell_id=3, crs_ports=1),
                                   LteCellConfig(cell_id=7, mbsfn_subframes=[1]))
        assert s.lte == LteCellConfig(cell_id=1, neighbors=s.lte.neighbors)
        assert emit_scenario(s)["lte"]["neighbors"] == [
            {"cell_id": 3, "crs_ports": 1, "pdcch_symbols": 2, "mbsfn_subframes": [],
             "non_mbsfn_region_len": 2},
            {"cell_id": 7, "crs_ports": 4, "pdcch_symbols": 2, "mbsfn_subframes": [1],
             "non_mbsfn_region_len": 2}]
        assert parse_scenario(emit_scenario(s)) == s

    def test_empty_neighbors_left_out_when_emitted(self):
        for lte in ({"cell_id": 1}, {"cell_id": 1, "neighbors": []}):
            s = parse_scenario(dict(MINIMAL, lte=lte))
            assert s.lte.neighbors == ()
            assert "neighbors" not in emit_scenario(s)["lte"]

    def test_neighbors_only_under_top_level_lte(self):
        doc = dict(MINIMAL, lte={"neighbors": [{"cell_id": 3, "neighbors": []}]})
        with pytest.raises(ScenarioError, match="unknown key 'neighbors'"):
            parse_scenario(doc)

    def test_nr_dmrs_symbols_key_rejected(self):
        doc = dict(MINIMAL, nr={"period_ms": 1, "dmrs_symbols": [3, 12]})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "nr.dmrs_symbols"

    def test_bad_policy(self):
        doc = dict(MINIMAL, policy="RoundRobin")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "policy"

    def test_bad_sweep_command(self):
        doc = dict(MINIMAL, sweep={"command": "fly", "parameters": [
            {"path": "seed", "values": [1]}]})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "sweep.command"

    def test_traffic_range_demand(self):
        doc = dict(MINIMAL, traffic={"demand_5g": [10, 20], "demand_6g": 0})
        s = parse_scenario(doc)
        assert s.traffic.demand_5g == (10, 20)
        assert s.traffic.demand_6g == 0


class TestRoundTrip:
    def test_minimal(self):
        s = parse_scenario(MINIMAL)
        assert parse_scenario(emit_scenario(s)) == s

    def test_full_document(self):
        s = parse_scenario(full_doc())
        assert parse_scenario(emit_scenario(s)) == s

    def test_emitted_document_is_json_serializable(self):
        s = parse_scenario(full_doc())
        text = json.dumps(emit_scenario(s))
        assert parse_scenario(text) == s

    def test_shipped_scenarios_round_trip(self):
        import pathlib

        scenarios = pathlib.Path(__file__).parent.parent / "scenarios"
        for path in sorted(scenarios.glob("*.json")):
            s = parse_scenario(path.read_text())
            assert parse_scenario(emit_scenario(s)) == s, path.name


class TestTrafficDemandBound:
    @pytest.mark.parametrize("key, value", [
        ("demand_5g", 18446744073709551616),
        ("demand_6g", [0, 18446744073709551616]),
        ("demand_5g", [5, 2**47 + 1]),
    ])
    def test_oversized_demand_rejected_at_its_path(self, key, value):
        traffic = {"demand_5g": 0, "demand_6g": 0, key: value}
        with pytest.raises(ScenarioError, match="2\\*\\*47") as err:
            parse_scenario(dict(MINIMAL, traffic=traffic))
        assert err.value.path == f"traffic.{key}"

    def test_largest_demand_accepted(self):
        s = parse_scenario(dict(MINIMAL, traffic={"demand_5g": 2**47, "demand_6g": [0, 2**47]}))
        assert s.traffic.demand_5g == 2**47

    def test_non_integer_range_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(dict(MINIMAL, traffic={"demand_5g": ["a", 1], "demand_6g": 0}))
        assert err.value.path == "traffic.demand_5g"


def lte_doc(mbsfn, duplex="FDD", span_ms=10):
    carrier = {"scs_khz": 15, "n_prb": 6, "duplex": duplex, "span_ms": span_ms}
    if duplex == "TDD":
        carrier["tdd_pattern"] = {"cycle": "DDDDD"}
    return {"carrier": carrier, "lte": {"crs_ports": 2, "mbsfn_subframes": mbsfn}}


class TestMbsfnSubframes:
    @pytest.mark.parametrize("mbsfn", [[0, 5], [4], [9], [19], [1, 10]])
    def test_fdd_sync_and_paging_subframes_rejected(self, mbsfn):
        with pytest.raises(ScenarioError, match="cannot carry MBSFN") as err:
            parse_scenario(lte_doc(mbsfn, span_ms=20))
        assert err.value.path == "lte.mbsfn_subframes"

    @pytest.mark.parametrize("mbsfn", [[12], [10], [3, 100]])
    def test_subframe_beyond_span_rejected(self, mbsfn):
        with pytest.raises(ScenarioError, match="outside the 10-subframe") as err:
            parse_scenario(lte_doc(mbsfn))
        assert err.value.path == "lte.mbsfn_subframes"

    @pytest.mark.parametrize("mbsfn", [[0], [1], [2], [5], [6], [10]])
    def test_tdd_outside_allowed_set_rejected(self, mbsfn):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(lte_doc(mbsfn, duplex="TDD", span_ms=20))
        assert err.value.path == "lte.mbsfn_subframes"

    @pytest.mark.parametrize("cycle,mbsfn,kind", [
        ("DSUUU", [3], "uplink"), ("DSUUU", [4, 7], "uplink"), ("DDDSU", [8], "special"),
    ])
    def test_tdd_non_downlink_subframe_rejected(self, cycle, mbsfn, kind):
        doc = lte_doc(mbsfn, duplex="TDD", span_ms=10)
        doc["carrier"]["tdd_pattern"] = {"cycle": cycle}
        with pytest.raises(ScenarioError, match=f"makes it {kind}") as err:
            parse_scenario(doc)
        assert err.value.path == "lte.mbsfn_subframes"

    def test_allowed_subframes_accepted(self):
        fdd = parse_scenario(lte_doc([1, 2, 3, 6, 7, 8, 11, 18], span_ms=20))
        assert fdd.lte.mbsfn_subframes == {1, 2, 3, 6, 7, 8, 11, 18}
        tdd = parse_scenario(lte_doc([3, 4, 7, 8, 9, 13], duplex="TDD", span_ms=20))
        assert tdd.lte.mbsfn_subframes == {3, 4, 7, 8, 9, 13}

    def test_neighbor_cells_checked_too(self):
        doc = lte_doc([])
        doc["lte"]["neighbors"] = [{"cell_id": 1}, {"cell_id": 2, "mbsfn_subframes": [5]}]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(doc)
        assert err.value.path == "lte.neighbors[1].mbsfn_subframes"


class TestSectionTypes:
    @pytest.mark.parametrize("value", [5, "lte", [1], True])
    def test_non_object_lte_rejected_at_lte(self, value):
        with pytest.raises(ScenarioError, match="expected an object") as err:
            parse_scenario(dict(MINIMAL, lte=value))
        assert err.value.path == "lte"

    @pytest.mark.parametrize("section, key", [
        ("mrss", "iot_reservations"), ("sweep", "parameters"),
    ])
    @pytest.mark.parametrize("value", [5, {"prb_start": 0}])
    def test_non_list_rejected_at_its_path(self, section, key, value):
        doc = full_doc()
        doc[section][key] = value
        with pytest.raises(ScenarioError, match="must be a list") as err:
            parse_scenario(doc)
        assert err.value.path == f"{section}.{key}"

    def test_negative_traffic_seed_rejected(self):
        doc = dict(MINIMAL, traffic={"demand_5g": 1, "demand_6g": 1, "seed": -1})
        with pytest.raises(ScenarioError, match=">= 0") as err:
            parse_scenario(doc)
        assert err.value.path == "traffic.seed"


class TestTopLevelPaths:
    def test_top_level_seed_error_has_no_leading_dot(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(dict(MINIMAL, seed="x"))
        assert str(err.value) == "seed: expected an integer, got 'x'"
        assert err.value.path == "seed"

    def test_largest_carrier_accepted_without_building_it(self):
        carrier = {"scs_khz": 30, "n_prb": 275, "duplex": "FDD", "span_ms": 10240}
        s = parse_scenario({"carrier": carrier})
        assert (s.carrier.n_prb, s.carrier.n_slots) == (275, 20480)


README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_entry_points_exist():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\nfrom gridshare import \((.*?)\)\n```", section, re.S)
    names = re.findall(r"\w+", block.group(1))
    assert len(names) >= 10
    assert [n for n in names if not hasattr(gridshare, n)] == []


def test_readme_python_blocks_run():
    """Each python block of the README runs, so none names a deleted class."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
