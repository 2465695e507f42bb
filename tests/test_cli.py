import json
import pathlib

import pytest

from gridshare import cli
from gridshare.cli import _flatten, build_grid, main
from gridshare.mrss import simulate

SCENARIOS = pathlib.Path(__file__).parent.parent / "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def table1(tmp_path):
    return str(SCENARIOS / "table1.json")


@pytest.fixture
def table3(tmp_path):
    return str(SCENARIOS / "table3.json")


class TestBudgetCommand:
    def test_md_default(self, capsys, table1):
        code, out, err = run(capsys, "budget", "-s", table1)
        assert code == 0
        assert out.startswith("| No. of LTE CRS ports |")
        assert "| 4 | 92 | 132 | 128 | 30.30% | 28.13% |" in out

    def test_csv(self, capsys, table1):
        code, out, _ = run(capsys, "budget", "-s", table1, "-f", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "crs_ports,dss_re,nr_re,lte_re,loss_vs_nr_pct,loss_vs_lte_pct"
        assert lines[1] == "1,102,132,138,22.73,26.09"
        assert lines[3] == "4,92,132,128,30.30,28.13"

    def test_json(self, capsys, table1):
        code, out, _ = run(capsys, "budget", "-s", table1, "-f", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["dss_re"] == 102
        assert rows[2]["loss_vs_lte_pct"] == 28.13

    def test_output_file(self, capsys, tmp_path, table1):
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, "budget", "-s", table1, "-f", "csv",
                           "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("crs_ports,")


class TestOverheadCommand:
    def test_json_totals(self, capsys, table3):
        code, out, _ = run(capsys, "overhead", "-s", table3, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"]["re_count"] == 234_112
        assert doc["total"]["pct_of_downlink"] == 18.61
        assert doc["downlink_re"] == 1_257_984

    def test_csv_column_order(self, capsys, table3):
        code, out, _ = run(capsys, "overhead", "-s", table3, "-f", "csv")
        assert code == 0
        assert out.startswith("signal,configuration,re_count,pct_of_total,pct_of_downlink\n")
        assert out.strip().split("\n")[-1].startswith("Total,")

    def test_requires_nr_section(self, capsys, table1):
        code, _, err = run(capsys, "overhead", "-s", table1)
        assert code == 1
        assert "nr" in err


class TestClassifyCommand:
    def test_partition(self, capsys, table3):
        code, out, _ = run(capsys, "classify", "-s", table3, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["shared_pool"] == 1_023_872
        assert doc["reserved"] == 26_752
        assert doc["control_region"] == 207_360
        assert doc["downlink_cells"] == 1_257_984


class TestSimulateCommand:
    def test_summary_and_seed_override(self, capsys):
        path = str(SCENARIOS / "mrss_sweep.json")
        code, out, _ = run(capsys, "simulate", "-s", path, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["policy"] == "ProportionalShare"
        slots = doc["summary"]["n_slots"]
        grants = doc["per_slot"]["grants_5g"]
        assert len(grants) == slots == 40
        code2, out2, _ = run(capsys, "simulate", "-s", path, "-f", "json",
                             "--seed", "99")
        assert json.loads(out2)["summary"]["seed"] == 99

    def test_determinism(self, capsys):
        path = str(SCENARIOS / "mrss_sweep.json")
        _, a, _ = run(capsys, "simulate", "-s", path, "-f", "csv")
        _, b, _ = run(capsys, "simulate", "-s", path, "-f", "csv")
        assert a == b

    def test_csv_conservation(self, capsys):
        path = str(SCENARIOS / "mrss_sweep.json")
        code, out, _ = run(capsys, "simulate", "-s", path, "-f", "csv")
        assert code == 0
        rows = out.strip().split("\n")[1:]
        for row in rows:
            _, pool, _, _, g5, g6, unused = map(int, row.split(","))
            assert g5 + g6 + unused == pool


class TestInterferenceCommand:
    def test_report(self, capsys):
        path = str(SCENARIOS / "neighbor_interference.json")
        code, out, _ = run(capsys, "interference", "-s", path, "-f", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mitigation"] == "NeighborAwareRateMatch"
        assert doc["pool_re_per_prb"] == 102
        assert doc["sacrificed_re_per_prb"] == 12
        assert doc["dirty_re_per_prb"] == 0


class TestSweepCommand:
    def test_interference_sweep(self, capsys):
        path = str(SCENARIOS / "neighbor_interference.json")
        code, out, _ = run(capsys, "sweep", "-s", path, "-f", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["mitigation.kind"] for r in records] == [
            "ServingOnlyRateMatch", "NeighborAwareRateMatch", "SymbolLevelMute",
        ]
        assert records[0]["dirty_re_per_prb"] == 12
        assert records[2]["sacrificed_re_per_prb"] == 30

    def test_simulate_sweep_grid(self, capsys):
        path = str(SCENARIOS / "mrss_sweep.json")
        code, out, _ = run(capsys, "sweep", "-s", path, "-f", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 6 * 3  # header + cross product
        assert lines[0].startswith("point,traffic.demand_6g,policy,")

    def test_requires_sweep_section(self, capsys, table1):
        code, _, err = run(capsys, "sweep", "-s", table1)
        assert code == 1
        assert "sweep" in err


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "budget", "-s", "/nonexistent.json")
        assert code == 1
        assert "cannot read scenario" in err

    def test_invalid_scenario(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"carrier": {"scs_khz": 60, "n_prb": 1, "duplex": "FDD", "span_ms": 1}}')
        code, _, err = run(capsys, "budget", "-s", str(bad))
        assert code == 1
        assert "carrier.scs_khz" in err

    def test_computation_error_exit_2(self, capsys, tmp_path):
        # Valid scenario whose overlay cannot be placed on the carrier.
        doc = {
            "carrier": {"scs_khz": 30, "n_prb": 100, "duplex": "TDD",
                        "span_ms": 20,
                        "tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 4]}},
            "nr": {"period_ms": 20, "coreset1": {"prbs": 270, "symbols": 2}},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "overhead", "-s", str(path))
        assert code == 2
        assert "CORESET 1" in err

    def test_lte_on_30khz_carrier_rejected(self, capsys, tmp_path):
        doc = {
            "carrier": {"scs_khz": 30, "n_prb": 10, "duplex": "FDD", "span_ms": 1},
            "lte": {"crs_ports": 4},
        }
        path = tmp_path / "lte30.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", "-s", str(path))
        assert code == 1
        assert out == ""
        assert "lte: " in err

    def test_non_object_lte_exits_1(self, capsys, tmp_path):
        doc = {"carrier": {"scs_khz": 15, "n_prb": 6, "duplex": "FDD", "span_ms": 1}, "lte": 5}
        code, out, err = run(capsys, "budget", "-s", write_doc(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert err == "error: lte: expected an object, got int\n"

    def test_negative_traffic_seed_exits_1(self, capsys, tmp_path):
        doc = mrss_sweep_doc()
        doc["traffic"]["seed"] = -1
        code, out, err = run(capsys, "simulate", "-s", write_doc(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert err.startswith("error: traffic.seed: ")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_negative_seed_option_exits_1(self, capsys, command):
        path = str(SCENARIOS / "mrss_sweep.json")
        code, out, err = run(capsys, command, "-s", path, "--seed", "-3")
        assert code == 1
        assert out == ""
        assert err == "error: --seed: must be >= 0, got -3\n"

    def test_byte_identical_reports(self, capsys):
        for name in ("table1.json", "table3.json"):
            path = str(SCENARIOS / name)
            command = "budget" if name == "table1.json" else "overhead"
            _, a, _ = run(capsys, command, "-s", path, "-f", "md")
            _, b, _ = run(capsys, command, "-s", path, "-f", "md")
            assert a == b


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def mrss_sweep_doc():
    return json.loads((SCENARIOS / "mrss_sweep.json").read_text())


class TestSweepMapCache:
    def test_grid_and_traffic_sweep_matches_standalone_runs(self, capsys, tmp_path):
        doc = mrss_sweep_doc()
        doc["sweep"]["parameters"] = [
            {"path": "mrss.control_mode", "values": ["FullyOverlapping", "Separate"]},
            {"path": "nr.coreset1.symbols", "values": [1, 2]},
            {"path": "traffic.demand_6g", "values": [0, 20000]},
        ]
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc), "-f", "json")
        assert code == 0, err
        records = json.loads(out)
        assert len(records) == 8
        for record in records:
            point = json.loads(json.dumps(doc))
            del point["sweep"]
            point["mrss"]["control_mode"] = record["mrss.control_mode"]
            point["nr"]["coreset1"]["symbols"] = record["nr.coreset1.symbols"]
            point["traffic"]["demand_6g"] = record["traffic.demand_6g"]
            code, alone, _ = run(capsys, "simulate", "-f", "json",
                                 "-s", write_doc(tmp_path, point, "point.json"))
            assert code == 0
            flat = {}
            _flatten(json.loads(alone), "", flat)
            swept = {k: v for k, v in record.items()
                     if k != "point" and not k.startswith(("mrss.", "nr.", "traffic."))}
            assert swept == flat, record["point"]
        pools = {(r["mrss.control_mode"], r["nr.coreset1.symbols"]):
                 r["summary.shared_pool_size"] for r in records}
        # Both swept map inputs take effect: one CORESET1 symbol frees 103,680
        # cells, and Separate control doubles the control region.
        assert pools == {("FullyOverlapping", 1): 1_127_552, ("FullyOverlapping", 2): 1_023_872,
                         ("Separate", 1): 1_023_872, ("Separate", 2): 816_512}

    def test_traffic_policy_sweep_builds_grid_once(self, capsys, monkeypatch):
        builds = []

        def counted(scenario):
            builds.append(scenario.carrier)
            return build_grid(scenario)

        monkeypatch.setattr(cli, "build_grid", counted)
        code, out, _ = run(capsys, "sweep", "-s", str(SCENARIOS / "mrss_sweep.json"), "-f", "csv")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 18
        assert len(builds) == 1

    def test_sweep_shares_one_read_only_map(self, capsys, monkeypatch):
        maps = []

        def recorded(cmap, traffic, policy):
            maps.append(cmap)
            return simulate(cmap, traffic, policy)

        monkeypatch.setattr(cli, "simulate", recorded)
        code, _, err = run(capsys, "sweep", "-s", str(SCENARIOS / "mrss_sweep.json"), "-f", "csv")
        assert code == 0, err
        assert len(maps) == 18
        assert all(cmap is maps[0] for cmap in maps)
        for arr in (maps[0].categories, maps[0].labels, maps[0].grid.labels):
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 0


class TestSeedOverride:
    def test_sweep_over_traffic_seed_rejected(self, capsys, tmp_path):
        doc = mrss_sweep_doc()
        doc["sweep"]["parameters"].append({"path": "traffic.seed", "values": [1, 2]})
        path = write_doc(tmp_path, doc)
        code, out, err = run(capsys, "sweep", "-s", path, "-f", "csv", "--seed", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: sweep.parameters[2].path: --seed")
        code, _, _ = run(capsys, "sweep", "-s", path, "-f", "csv")
        assert code == 0

    def test_sweep_building_the_traffic_section_rejected(self, capsys, tmp_path):
        doc = mrss_sweep_doc()
        del doc["traffic"]
        doc["sweep"]["parameters"] = [
            {"path": "traffic", "values": [{"demand_5g": 100, "demand_6g": 0}]},
        ]
        code, _, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc), "--seed", "5")
        assert code == 1
        assert "sweep.parameters[0].path" in err

    def test_seed_applies_to_every_sweep_point(self, capsys):
        path = str(SCENARIOS / "mrss_sweep.json")
        code, out, _ = run(capsys, "sweep", "-s", path, "-f", "json", "--seed", "99")
        assert code == 0
        assert {r["summary.seed"] for r in json.loads(out)} == {99}
