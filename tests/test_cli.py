import csv
import gc
import io
import itertools
import json
import operator
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import gridshare
from gridshare import ScenarioError, cli, emit_scenario, parse_scenario
from gridshare import scenario as scenario_module
from gridshare.cli import build_grid, main
from gridshare.errors import ConflictError, PlacementError
from gridshare.grid import CarrierConfig, ReLabel, new_labels, place_slots
from gridshare.lte import LteCellConfig
from gridshare.mrss import ControlMode, ControlModeKind, simulate
from gridshare.nr import Coreset1Spec, NrOverlaySet
from gridshare.scenario import SWEEP_COMMANDS, IotReservation, MrssSpec, SixgSsbSpec

import dense_reference as ref

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


GOLDEN = pathlib.Path(__file__).parent / "golden"
# Every command on every shipped scenario in every format.
GOLDEN_CASES = [(c, s, f) for c in cli.commands() for s in sorted(p.stem for p in SCENARIOS.glob("*.json"))
                for f in cli.FORMATS]


def golden(command, scenario, fmt):
    """(exit code, stdout, stderr) of `gridshare <command> -s
    scenarios/<scenario>.json -f <fmt>` as tests/golden holds it: the stdout
    of a run that succeeds in <command>-<scenario>.<fmt>, the stderr of one
    that exits 1 in <command>-<scenario>.err."""
    out = GOLDEN / f"{command}-{scenario}.{fmt}"
    if out.exists():
        return 0, out.read_text(encoding="utf-8"), ""
    return 1, "", (GOLDEN / f"{command}-{scenario}.err").read_text(encoding="utf-8")


@pytest.mark.parametrize("command,scenario,fmt", GOLDEN_CASES)
def test_output_equals_the_golden_file(capsys, command, scenario, fmt):
    argv = (command, "-s", str(SCENARIOS / f"{scenario}.json"), "-f", fmt)
    assert run(capsys, *argv) == golden(command, scenario, fmt)


# Both demands ranged, one above 2**32 wide, and a sweep over two seeds.
RANGED = {
    "carrier": {"scs_khz": 15, "n_prb": 6, "duplex": "FDD", "span_ms": 10},
    "traffic": {"demand_5g": [0, 900], "demand_6g": [100, 2**40], "seed": 11},
    "policy": "ProportionalShare",
    "sweep": {"command": "simulate",
              "parameters": [{"path": "traffic.seed", "values": [1, 2**100]}]},
}


def test_every_command_runs_without_numpy(capsys, tmp_path):
    """In a process where `import numpy` fails, every golden case prints its
    golden output, and the ranged simulate/sweep case exits 0 with the output
    it has in this process."""
    ranged = tmp_path / "ranged.json"
    ranged.write_text(json.dumps(RANGED))
    cases = [[c, "-s", str(SCENARIOS / f"{s}.json"), "-f", f] for c, s, f in GOLDEN_CASES]
    cases += [[c, "-s", str(ranged), "-f", f] for c in ("simulate", "sweep") for f in cli.FORMATS]
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from gridshare import cli\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        results.append([cli.main(argv), out.getvalue(), err.getvalue()])\n"
        "print(json.dumps([results, sorted(m for m in sys.modules if m.startswith('numpy'))]))\n"
    )
    src = pathlib.Path(gridshare.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(cases)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results, numpy_modules = json.loads(proc.stdout)
    assert numpy_modules == ["numpy"]  # the blocked entry, nothing imported
    for (c, s, f), got in zip(GOLDEN_CASES, results):
        assert tuple(got) == golden(c, s, f), (c, s, f)
    for argv, got in zip(cases[len(GOLDEN_CASES):], results[len(GOLDEN_CASES):]):
        assert got[0] == 0, got[2]
        assert tuple(got) == run(capsys, *argv), argv


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

    @pytest.mark.parametrize("nr,message", [
        ({"coreset1": {"prbs": 6, "symbols": 14, "slots": 5}},
         "CORESET 1: 5 monitored slots > 1 DL-bearing slots"),
        ({"ssb": {"beams": 8, "prbs": 6, "symbols": 20}},
         "8 occasion units need distinct DL slots but only 1 are available"),
        ({"ssb": {"beams": 1, "prbs": 6, "symbols": 20}}, "SSB: 20 symbols do not fit slot 0"),
        ({"trs": {"prbs": 6, "slots_per_occasion": 1, "re_per_prb_per_slot": 169, "beams": 1,
                  "occasions_per_period": 1}}, "TRS: needs 169 RE/PRB in slot 0"),
    ], ids=["coreset1_slots", "ssb_beams", "ssb_symbols", "trs_re_per_prb"])
    def test_rejects_the_overlays_classify_rejects(self, capsys, tmp_path, nr, message):
        # A 1 ms DU carrier has one DL slot, which none of these overlays fits.
        doc = {"carrier": {"scs_khz": 30, "n_prb": 6, "duplex": "TDD", "span_ms": 1,
                           "tdd_pattern": {"cycle": "DU"}},
               "nr": {"period_ms": 1, **nr}}
        path = write_doc(tmp_path, doc)
        for command in ("overhead", "classify"):
            assert run(capsys, command, "-s", path) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("cycle, total", [
        ("DU", "| Total | DU |"),
        ("DS", "| Total | DS; S slot with 6 downlink symbols, 4 guard symbols, and 4 uplink symbols |"),
    ])
    def test_total_row_describes_an_s_slot_only_when_the_cycle_has_one(
            self, capsys, tmp_path, cycle, total):
        doc = {"carrier": {"scs_khz": 30, "n_prb": 6, "duplex": "TDD", "span_ms": 1,
                           "tdd_pattern": {"cycle": cycle}},
               "nr": {"period_ms": 1, "ssb": {"beams": 1, "prbs": 6, "symbols": 4}}}
        code, out, err = run(capsys, "overhead", "-s", write_doc(tmp_path, doc), "-f", "md")
        assert code == 0, err
        (line,) = [line for line in out.splitlines() if line.startswith("| Total |")]
        assert line.startswith(total)

    def test_fdd_carrier_is_modeled(self, capsys, tmp_path):
        # table3.json on FDD: every slot is downlink, so CORESET 1 monitors
        # all 40 and the total row names the duplex.
        doc = json.loads((SCENARIOS / "table3.json").read_text())
        doc["carrier"]["duplex"] = "FDD"
        del doc["carrier"]["tdd_pattern"]
        code, out, err = run(capsys, "overhead", "-s", write_doc(tmp_path, doc), "-f", "md")
        assert (code, err) == (0, "")
        (line,) = [line for line in out.splitlines() if line.startswith("| Total |")]
        assert line == "| Total | FDD | 285,952 | 15.59% | 15.59% |"


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


    def test_control_past_the_slot_rejected_as_budget_rejects_it(self, capsys, tmp_path):
        # The data symbols started past the slot: exit 0 with a pool of 0.
        doc = json.loads((SCENARIOS / "neighbor_interference.json").read_text())
        doc["budget"].update({"nr_pdcch": 20, "dmrs_count": 0})
        path = write_doc(tmp_path, doc)
        message = "error: LTE and NR control take 22 symbols, more than the 14 of a slot\n"
        for command in ("interference", "budget"):
            assert run(capsys, command, "-s", path, "-f", "json") == (2, "", message)


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

    def test_object_value_not_written_by_a_later_path(self, capsys, tmp_path):
        # `traffic.seed` below a swept `traffic` would set a value inside the
        # swept object, and the point's `traffic` column would not show the
        # traffic it ran: the later path is rejected, in every format.
        traffic = {"demand_5g": 1, "demand_6g": 2}
        doc = {
            "carrier": {"scs_khz": 15, "n_prb": 1, "duplex": "FDD", "span_ms": 1},
            "traffic": traffic,
            "policy": "Priority5G",
            "sweep": {"command": "simulate", "parameters": [
                {"path": "traffic", "values": [traffic]},
                {"path": "traffic.seed", "values": [3, 4]},
            ]},
        }
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc), "-f", fmt)
            assert (code, out) == (1, "")
            assert err == ("error: sweep.parameters[1].path: 'traffic.seed' overlaps "
                           "'traffic' of sweep.parameters[0]\n")

    def test_swept_null_is_written_as_json_null(self, capsys, tmp_path):
        # A swept null is `null` in every format: not Python's `None` in md,
        # nor an empty csv cell, which reads as a column the point lacks.
        doc = json.loads((SCENARIOS / "mrss_staged.json").read_text())
        block = doc["mrss"]["sixg_ssb"]
        doc["sweep"] = {"command": "classify",
                        "parameters": [{"path": "mrss.sixg_ssb", "values": [None, block]}]}
        path = write_doc(tmp_path, doc)
        code, out, err = run(capsys, "sweep", "-s", path, "-f", "md")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].startswith("| point | mrss.sixg_ssb | ")
        assert lines[2].startswith("| 0 | null | ")
        assert lines[3].startswith(f"| 1 | {json.dumps(block)} | ")
        code, out, err = run(capsys, "sweep", "-s", path, "-f", "csv")
        assert (code, err) == (0, "")
        assert [row[:2] for row in csv.reader(io.StringIO(out))] == [
            ["point", "mrss.sixg_ssb"], ["0", "null"], ["1", json.dumps(block)]]
        code, out, err = run(capsys, "sweep", "-s", path, "-f", "json")
        assert (code, err) == (0, "")
        assert [r["mrss.sixg_ssb"] for r in json.loads(out)] == [None, block]

    def test_points_write_into_neither_the_base_nor_the_swept_values(self, monkeypatch):
        # An object value; two paths into one section.
        doc = json.loads((SCENARIOS / "mrss_staged.json").read_text())
        doc["sweep"] = {"command": "simulate", "parameters": [
            {"path": "traffic", "values": [{"demand_5g": 900, "demand_6g": [0, 800]},
                                           doc["traffic"]]},
            {"path": "policy", "values": ["Priority5G", "Priority6G"]},
            {"path": "mrss.shared_fraction", "values": [0.5]},
            {"path": "mrss.iot_reservations", "values": [[], [{"prb_start": 22, "prb_stop": 24, "slots": [5]}]]},
        ]}
        scenario = parse_scenario(doc)
        emitted = json.dumps(emit_scenario(scenario))
        params = scenario.sweep.parameters
        values = [json.dumps(p.values) for p in params]
        report = cli.REPORTS["simulate"]
        points = []

        def spy(point, maps):
            points.append(point)
            return report.record(point, maps)

        monkeypatch.setitem(cli.REPORTS, "simulate", report._replace(record=spy))
        cli.run_sweep(scenario, "json")
        assert json.dumps(emit_scenario(scenario)) == emitted
        assert [json.dumps(p.values) for p in params] == values
        # Each point is a full parse of its own document, built from a deep copy.
        base = json.loads(emitted)
        base.pop("sweep")
        combos = list(itertools.product(*(p.values for p in params)))
        assert len(points) == len(combos) == 8
        for point, combo in zip(points, combos):
            own = json.loads(json.dumps(base))
            for p, v in zip(params, combo):
                *parents, last = p.path.split(".")
                node = own
                for part in parents:
                    node = node.setdefault(part, {})
                node[last] = json.loads(json.dumps(v))
            want = parse_scenario(own)
            assert point == want
            assert cli.simulate_record(point) == cli.simulate_record(want)

    def test_requires_sweep_section(self, capsys, table1):
        code, _, err = run(capsys, "sweep", "-s", table1)
        assert code == 1
        assert "sweep" in err


SWEEP_DOC = str(SCENARIOS / "mrss_sweep.json")
CANONICAL = ["simulate", "-s", SWEEP_DOC, "-f", "csv", "--seed", "7"]
COMMAND_CHOICES = "'budget', 'overhead', 'classify', 'simulate', 'interference', 'sweep'"


class TestCommandLine:
    """`gridshare <command> -s PATH [-f md|csv|json] [-o PATH] [--seed N]`:
    the accepted forms of one request, and the lines rejected with exit 2."""

    @pytest.mark.parametrize("argv", [
        ["-s", SWEEP_DOC, "-f", "csv", "--seed", "7", "simulate"],
        ["--seed", "7", "simulate", "--format", "csv", "--scenario", SWEEP_DOC],
        ["simulate", f"-s{SWEEP_DOC}", "-fcsv", "--seed", "7"],
        ["simulate", f"--scenario={SWEEP_DOC}", "--format=csv", "--seed=7"],
        ["simulate", "-s", "absent.json", "-f", "md", "--seed", "1",
         "-s", SWEEP_DOC, "-f", "csv", "--seed", "7"],
    ])
    def test_accepted_forms_give_the_canonical_report(self, capsys, argv):
        canonical = run(capsys, *CANONICAL)
        assert canonical[0] == 0 and canonical[1]
        assert run(capsys, *argv) == canonical

    @pytest.mark.parametrize("form", [["-o", "{}"], ["-o{}"], ["--output", "{}"],
                                      ["--output={}"]])
    def test_output_forms_write_the_canonical_report(self, capsys, tmp_path, form):
        path = tmp_path / "report.csv"
        _, canonical, _ = run(capsys, *CANONICAL)
        argv = CANONICAL + [arg.format(path) for arg in form]
        assert run(capsys, *argv) == (0, "", "")
        assert path.read_text(encoding="utf-8") == canonical

    @pytest.mark.parametrize("argv,reason", [
        ([], "the following arguments are required: command, -s/--scenario"),
        (["-s", SWEEP_DOC], "the following arguments are required: command"),
        (["report", "-s", SWEEP_DOC],
         f"argument command: invalid choice: 'report' (choose from {COMMAND_CHOICES})"),
        (["budget", "classify", "-s", SWEEP_DOC], "unrecognized arguments: classify"),
        (["budget"], "the following arguments are required: -s/--scenario"),
        (["budget", "-s", SWEEP_DOC, "-f", "xml"],
         "argument -f: invalid choice: 'xml' (choose from 'md', 'csv', 'json')"),
        (["simulate", "-s", SWEEP_DOC, "--seed", "seven"],
         "argument --seed: invalid int value: 'seven'"),
        (["simulate", "-s", SWEEP_DOC, "--seed=1.5"], "argument --seed: invalid int value: '1.5'"),
        (["budget", "-s", SWEEP_DOC, "--verbose"], "unrecognized arguments: --verbose"),
        (["budget", "-s", SWEEP_DOC, "-x"], "unrecognized arguments: -x"),
        (["budget", "-s"], "argument -s: expected one argument"),
        (["budget", "--scenario", "-f", "md"], "argument --scenario: expected one argument"),
        (["budget", "-s", SWEEP_DOC, "--seed"], "argument --seed: expected one argument"),
        (["budget", "--scen", SWEEP_DOC], "unrecognized arguments: --scen"),
        (["budget", "-s", SWEEP_DOC, "--form=csv"], "unrecognized arguments: --form=csv"),
    ])
    def test_malformed_line_exits_2_with_the_usage(self, capsys, argv, reason):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: gridshare ")
        assert error == f"gridshare: error: {reason}"

    def test_malformed_line_in_a_process_has_no_traceback(self):
        proc = run_process("budget", "--scen", SWEEP_DOC)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage: gridshare ")
        assert proc.stderr.endswith("\ngridshare: error: unrecognized arguments: --scen\n")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["budget", "-h"],
                                      ["sweep", "-s", SWEEP_DOC, "--help"]])
    def test_help_exits_0_on_stdout(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: gridshare ")
        assert all(command in out for command in cli.commands())

    @pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-1"]])
    def test_negative_seed_is_a_value(self, capsys, seed):
        assert run(capsys, "simulate", "-s", SWEEP_DOC, *seed) == (
            1, "", "error: --seed: must be >= 0, got -1\n")


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
        # Valid scenario whose overlay only placement rejects: 40 monitored
        # slots on a carrier with 32 DL-bearing slots.
        doc = {
            "carrier": {"scs_khz": 30, "n_prb": 100, "duplex": "TDD",
                        "span_ms": 20,
                        "tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 4]}},
            "nr": {"period_ms": 20, "coreset1": {"prbs": 10, "symbols": 2, "slots": 40}},
        }
        path = tmp_path / "many.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "overhead", "-s", str(path))
        assert code == 2
        assert "CORESET 1" in err
        assert err == "error: CORESET 1: 40 monitored slots > 32 DL-bearing slots\n"

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


# Scenario files that are not JSON text gridshare can read, each with the
# start of the one error line it gives.
UNREADABLE = {
    "not_utf8": (b'{"carrier": "\xff"}', "error: cannot read scenario: 'utf-8' codec can't decode"),
    "long_integer": (b'{"seed": 1' + b"0" * 5000 + b"}", "error: invalid JSON: Exceeds the limit"),
    "deep_nesting": (b"[" * 100_000 + b"]" * 100_000,
                     "error: invalid JSON: maximum recursion depth exceeded"),
}


class TestUnreadableInputAndOutput:
    """A scenario that is not JSON text, or a report path that cannot be
    written, is one `error:` line and exit 1, never a traceback."""

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_scenario_that_is_not_json_text(self, capsys, tmp_path, case):
        data, start = UNREADABLE[case]
        path = tmp_path / f"{case}.json"
        path.write_bytes(data)
        proc = run_process("budget", "-s", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(start)
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert run(capsys, "budget", "-s", str(path)) == (1, "", proc.stderr)

    @pytest.mark.parametrize("target", ["missing_dir/report.md", "."])
    def test_report_path_that_cannot_be_written(self, capsys, tmp_path, target):
        output = tmp_path / target
        argv = ("budget", "-s", str(SCENARIOS / "table1.json"), "-o", str(output))
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: cannot write report: [Errno ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert run(capsys, *argv) == (1, "", proc.stderr)
        assert not (tmp_path / "missing_dir").exists()


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def carrier_text(n_prb="52", span_ms="1"):
    """A scenario's JSON text with the carrier numbers as raw JSON tokens."""
    return ('{"carrier": {"scs_khz": 15, "n_prb": %s, "duplex": "FDD", "span_ms": %s}}'
            % (n_prb, span_ms))


class TestCarrierBounds:
    """Carriers beyond NR's widest or one SFN cycle are rejected at parse
    time with exit 1; they used to end in a traceback or build no grid."""

    @pytest.mark.parametrize("n_prb", ["276", "10000000"])
    def test_n_prb_above_275_rejected(self, capsys, tmp_path, n_prb):
        (tmp_path / "wide.json").write_text(carrier_text(n_prb=n_prb, span_ms="1000"))
        code, out, err = run(capsys, "budget", "-s", str(tmp_path / "wide.json"))
        assert (code, out) == (1, "")
        assert err == f"error: carrier.n_prb: must be <= 275, got {n_prb}\n"

    @pytest.mark.parametrize("span, shown", [
        ("1e400", "inf"), ("-1e400", "-inf"), ("Infinity", "inf"), ("NaN", "nan"),
        ("10241", "10241"), ("10240.5", "10240.5"),
    ])
    def test_span_ms_non_finite_or_above_one_sfn_cycle_rejected(self, capsys, tmp_path, span, shown):
        (tmp_path / "long.json").write_text(carrier_text(span_ms=span))
        code, out, err = run(capsys, "budget", "-s", str(tmp_path / "long.json"))
        assert (code, out) == (1, "")
        assert err == f"error: carrier.span_ms: must be finite and at most 10240 ms, got {shown}\n"
        assert "Traceback" not in err


class TestMrssRangesAtParseTime:
    """IoT reservations and 6G SSB occasions outside the carrier exit 1 at
    their dotted path instead of exit 2 from the placement."""

    def classify(self, capsys, tmp_path, mrss):
        doc = json.loads(carrier_text())
        doc["mrss"] = mrss
        code, out, err = run(capsys, "classify", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        return err

    def test_iot_slot_beyond_carrier(self, capsys, tmp_path):
        err = self.classify(capsys, tmp_path, {
            "iot_reservations": [{"prb_start": 0, "prb_stop": 1, "slots": [0, 99]}]})
        assert err == "error: mrss.iot_reservations[0].slots: slot 99 out of range for a 1-slot carrier\n"

    @pytest.mark.parametrize("start, stop", [(5, 53), (6, 5)])
    def test_iot_prb_range_beyond_carrier(self, capsys, tmp_path, start, stop):
        err = self.classify(capsys, tmp_path, {"iot_reservations": [
            {"prb_start": 0, "prb_stop": 52}, {"prb_start": start, "prb_stop": stop}]})
        assert err == (f"error: mrss.iot_reservations[1]: PRB range ({start}, {stop}) "
                       "out of bounds for a 52-PRB carrier\n")

    @pytest.mark.parametrize("occasion", [[5, 0, 0], [0, 11, 0], [0, 0, 33], [0, -1, 0]])
    def test_sixg_ssb_occasion_beyond_carrier(self, capsys, tmp_path, occasion):
        err = self.classify(capsys, tmp_path, {"sixg_ssb": {"occasions": [[0, 0, 0], occasion]}})
        assert err == (f"error: mrss.sixg_ssb.occasions[1]: 6G SSB occasion {tuple(occasion)} "
                       "out of range: a 20-PRB, 4-symbol block on a 1-slot, 52-PRB carrier\n")

    @pytest.mark.parametrize("occasion, end, dl", [([4, 2, 100], 6, 0), ([3, 5, 100], 9, 6)])
    def test_sixg_ssb_occasion_outside_downlink(self, capsys, tmp_path, occasion, end, dl):
        # Slot 4 of the DDDSU cycle is uplink; slot 3 is special, 6 downlink symbols.
        doc = mrss_sweep_doc()
        doc["mrss"]["sixg_ssb"] = {"occasions": [[3, 2, 100], occasion]}
        code, out, err = run(capsys, "classify", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == (f"error: mrss.sixg_ssb.occasions[1]: 6G SSB occasion {tuple(occasion)} is not "
                       f"in downlink: its symbols end at {end}, slot {occasion[0]} has {dl} "
                       "downlink symbols\n")


def mrss_sweep_doc():
    return json.loads((SCENARIOS / "mrss_sweep.json").read_text())


class TestNrFitsAtParseTime:
    """An NR overlay whose period is not the carrier's span, or with a
    signal wider than the carrier, exits 1 at its dotted path instead of
    exit 2 from the placement; in a sweep, at the point that makes it."""

    def test_coreset1_wider_than_the_carrier(self, capsys, tmp_path):
        doc = {
            "carrier": {"scs_khz": 30, "n_prb": 100, "duplex": "TDD",
                        "span_ms": 20,
                        "tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 4]}},
            "nr": {"period_ms": 20, "coreset1": {"prbs": 270, "symbols": 2}},
        }
        code, out, err = run(capsys, "overhead", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == "error: nr.coreset1.prbs: CORESET 1 spans 270 PRBs > carrier 100\n"

    def test_csi_rs_wider_than_the_carrier(self, capsys, tmp_path):
        doc = mrss_sweep_doc()
        doc["carrier"]["n_prb"] = 270
        code, out, err = run(capsys, "classify", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == "error: nr.csi_rs.prbs: CSI-RS spans 272 PRBs > carrier 270\n"

    def test_period_other_than_the_span(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS / "table3.json").read_text())
        doc["nr"]["period_ms"] = 10
        code, out, err = run(capsys, "overhead", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == "error: nr.period_ms: overlay period 10 ms != carrier span 20 ms\n"

    def test_sweep_over_the_carrier_width(self, capsys, tmp_path):
        doc = mrss_sweep_doc()
        doc["sweep"] = {"command": "classify",
                        "parameters": [{"path": "carrier.n_prb", "values": [273, 270]}]}
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == ("error: sweep point 1 (carrier.n_prb=270): nr.csi_rs.prbs: "
                       "CSI-RS spans 272 PRBs > carrier 270\n")


class TestOverlappingSweepPaths:
    """Two sweep paths that are equal, or where one lies below the other,
    exit 1 at the later one's path: a point would set one value over the
    other, and the record would show a value the point did not use."""

    def sweep(self, capsys, tmp_path, *paths):
        doc = mrss_sweep_doc()
        doc["sweep"] = {"command": "overhead",
                        "parameters": [{"path": path, "values": [value]} for path, value in paths]}
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc), "-f", "csv")
        assert (code, out) == (1, "")
        return err

    def test_a_path_swept_twice(self, capsys, tmp_path):
        # The 4 beams were lost: one nr.ssb.beams column read 1.
        err = self.sweep(capsys, tmp_path, ("nr.ssb.beams", 4), ("nr.ssb.beams", 1))
        assert err == ("error: sweep.parameters[1].path: 'nr.ssb.beams' overlaps "
                       "'nr.ssb.beams' of sweep.parameters[0]\n")

    def test_a_path_below_a_later_one(self, capsys, tmp_path):
        # The record read nr.ssb.beams 1 while the SSB row counted 4 beams.
        err = self.sweep(capsys, tmp_path, ("nr.ssb.beams", 1), ("nr", mrss_sweep_doc()["nr"]))
        assert err == "error: sweep.parameters[1].path: 'nr' overlaps 'nr.ssb.beams' of sweep.parameters[0]\n"

    def test_a_path_with_an_empty_key(self, capsys, tmp_path):
        err = self.sweep(capsys, tmp_path, ("policy", "Priority5G"), ("nr..beams", 1))
        assert err == "error: sweep.parameters[1].path: must be a non-empty dotted path\n"

    def test_sibling_paths_are_swept(self, capsys, tmp_path):
        doc = mrss_sweep_doc()
        doc["sweep"] = {"command": "overhead", "parameters": [
            {"path": "nr.ssb.beams", "values": [1, 2]}, {"path": "nr.ssb.prbs", "values": [10]}]}
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc), "-f", "json")
        assert (code, err) == (0, "")
        assert [(r["nr.ssb.beams"], r["rows[0].re_count"]) for r in json.loads(out)] == [
            (1, 480), (2, 960)]


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
        with pytest.raises(TypeError):
            maps[0].grid.lattice.slots[0][0] = 0


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


# The report commands each shipped scenario has the sections for.
ACCEPTED = {
    "table1.json": ["budget", "classify"],
    "table3.json": ["budget", "overhead", "classify"],
    "mrss_sweep.json": ["budget", "overhead", "classify", "simulate"],
    "mrss_staged.json": ["budget", "overhead", "classify", "simulate"],
    "neighbor_interference.json": ["budget", "classify", "interference"],
}
REPORTS = ("budget", "overhead", "classify", "simulate", "interference")


def assert_plain_json(obj, where="record"):
    """Only dicts with str keys, lists, str, int, float, bool and None:
    no tuple, enum or numpy scalar, at any depth."""
    if type(obj) is dict:
        for k, v in obj.items():
            assert type(k) is str, f"{where}: key {k!r}"
            assert_plain_json(v, f"{where}.{k}")
    elif type(obj) is list:
        for i, v in enumerate(obj):
            assert_plain_json(v, f"{where}[{i}]")
    else:
        assert type(obj) in (str, int, float, bool, type(None)), f"{where}: {type(obj)}"


class TestRecords:
    @pytest.mark.parametrize("name", sorted(ACCEPTED))
    def test_records_round_trip(self, name):
        scenario = parse_scenario((SCENARIOS / name).read_text())
        accepted = []
        for command in REPORTS:
            report = cli.REPORTS[command]
            try:
                cli._require(command, report.requires, scenario)
                record = report.record(scenario, cli.build_map)
            except ScenarioError:
                continue
            accepted.append(command)
            assert_plain_json(record, command)
            assert json.loads(json.dumps(record)) == record
            run = getattr(cli, f"run_{command}")
            assert run(scenario, "json") == json.dumps(record, indent=2) + "\n"
        assert accepted == ACCEPTED[name]


def _flatten(obj, prefix, out):
    """A record flattened leaf by leaf, as `run_sweep` once did it, kept as
    the reference of its per-shape column keys."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj


def _reference_sweep(scenario):
    """run_sweep before point records, kept as the reference: each point's
    report rendered as indent-2 JSON, parsed back and flattened, and the
    columns merged in a list. Returns the text for each format."""
    runners = {"budget": cli.run_budget, "overhead": cli.run_overhead,
               "classify": cli.run_classify, "simulate": cli.run_simulate,
               "interference": cli.run_interference}
    base = emit_scenario(scenario)
    base.pop("sweep", None)
    params = scenario.sweep.parameters
    records = []
    for index, combo in enumerate(itertools.product(*(p.values for p in params))):
        doc = json.loads(json.dumps(base))
        for p, v in zip(params, combo):
            cli._set_path(doc, p.path, v)
        point = parse_scenario(doc)
        flat = {}
        _flatten(json.loads(runners[scenario.sweep.command](point, "json")), "", flat)
        record = {"point": index}
        record.update({p.path: v for p, v in zip(params, combo)})
        record.update(flat)
        records.append(record)

    columns = []
    for record in records:
        for key in record:
            if key not in columns:
                columns.append(key)
    rows = [[record.get(c, "") for c in columns] for record in records]
    csv_text = io.StringIO()
    writer = csv.writer(csv_text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    md_lines = ["| " + " | ".join(columns) + " |", "| " + " | ".join("---" for _ in columns) + " |"]
    md_lines.extend("| " + " | ".join(str(v) for v in row) + " |" for row in rows)
    return {
        "json": json.dumps(records, indent=2) + "\n",
        "csv": csv_text.getvalue(),
        "md": "\n".join(md_lines) + "\n",
    }


def sweep_doc(name, command, parameters):
    doc = json.loads((SCENARIOS / name).read_text())
    doc["sweep"] = {"command": command, "parameters": parameters}
    return doc


SWEEPS = {
    "mrss_sweep": json.loads((SCENARIOS / "mrss_sweep.json").read_text()),
    "neighbor_interference": json.loads((SCENARIOS / "neighbor_interference.json").read_text()),
    "classify": sweep_doc("mrss_sweep.json", "classify", [
        {"path": "mrss.control_mode", "values": ["FullyOverlapping", "Separate"]},
        {"path": "nr.coreset1.symbols", "values": [1, 2]},
    ]),
    "interference": sweep_doc("neighbor_interference.json", "interference", [
        {"path": "mitigation.kind", "values": ["ServingOnlyRateMatch", "SymbolLevelMute"]},
        {"path": "lte.crs_ports", "values": [1, 2, 4]},
    ]),
    "budget": sweep_doc("table1.json", "budget", [
        {"path": "budget.lte_pdcch", "values": [1, 3]},
        {"path": "budget.ports", "values": [[1], [2, 4]]},
    ]),
    # 3 symbols would push the 4-symbol SSB out of the 6 downlink symbols
    # of the special slot, which `place_nr` and `nr_overhead` both reject.
    "overhead": sweep_doc("table3.json", "overhead", [
        {"path": "nr.coreset1.symbols", "values": [1, 2]},
    ]),
    # The per_slot lists change length between points.
    "simulate_span": {
        "carrier": {"scs_khz": 15, "n_prb": 4, "duplex": "FDD", "span_ms": 10},
        "traffic": {"demand_5g": [0, 700], "demand_6g": [0, 700], "seed": 199},
        "policy": "Priority6G",
        "sweep": {"command": "simulate", "parameters": [
            {"path": "carrier.span_ms", "values": [3, 10, 1]},
            {"path": "carrier.n_prb", "values": [4, 1]},
        ]},
    },
}


class TestTables:
    def test_a_toy_report_renders_from_its_record_and_table(self):
        record = [{"signal": "SSB", "share": 0.5}, {"signal": "CSI-RS, TRS", "share": 12.34}]
        table = (cli.Column("signal", "Signal", "signal"),
                 cli.Column("share", "Share of {whole}", "share_pct", "{:.1f}%", "{:.3f}"))
        assert cli.render_table(table, record, "md", whole="the carrier") == (
            "| Signal | Share of the carrier |\n| --- | --- |\n"
            "| SSB | 0.5% |\n| CSI-RS, TRS | 12.3% |\n")
        assert cli.render_table(table, record, "csv") == (
            'signal,share_pct\nSSB,0.500\n"CSI-RS, TRS",12.340\n')

    def test_unformatted_columns_over_tuple_rows_write_the_values(self):
        table = (cli.Column(0, "Key", "key"), cli.Column(1, "Value", "value"))
        rows = {"cells": 1234, "mode": None, "share": 0.25}.items()
        assert cli.render_table(table, rows, "csv") == "key,value\ncells,1234\nmode,\nshare,0.25\n"
        assert cli.render_table(table, rows, "md") == (
            "| Key | Value |\n| --- | --- |\n| cells | 1234 |\n| mode | None |\n| share | 0.25 |\n")

    @pytest.mark.parametrize("command,name", [("budget", "table1.json"), ("overhead", "table3.json")])
    def test_a_table_reads_every_key_of_its_record_rows(self, command, name):
        """A field added to a record's rows must get a column, or md and csv
        would silently leave it out."""
        record = getattr(cli, f"{command}_record")(parse_scenario((SCENARIOS / name).read_text()))
        rows = record if command == "budget" else record["rows"] + [record["total"]]
        table = getattr(cli, f"{command.upper()}_TABLE")
        assert rows
        for row in rows:
            assert [c.key for c in table] == list(row)


def toy_record(scenario, maps):
    return {"n_prb": scenario.carrier.n_prb, "shared_pool": maps(scenario).shared_pool_size}


class TestReportTable:
    def test_the_table_is_the_sweep_commands(self):
        assert tuple(cli.REPORTS) == SWEEP_COMMANDS
        assert cli.commands() == (*SWEEP_COMMANDS, "sweep")
        runners = [getattr(cli, f"run_{name}") for name in cli.commands()]
        assert [r.__name__ for r in runners] == [f"run_{name}" for name in cli.commands()]
        assert len(set(runners)) == len(runners)

    @pytest.mark.parametrize("name,drop,command,missing", [
        ("mrss_sweep.json", ["policy"], "simulate", "a 'policy' section"),
        ("mrss_sweep.json", ["policy", "traffic"], "simulate", "a 'traffic' section"),
        ("mrss_sweep.json", ["nr"], "overhead", "an 'nr' section"),
        ("mrss_sweep.json", ["sweep"], "sweep", "a 'sweep' section"),
        ("neighbor_interference.json", ["mitigation"], "interference", "a 'mitigation' section"),
        ("neighbor_interference.json", ["mitigation", "lte"], "interference", "an 'lte' section"),
    ])
    def test_the_first_missing_section_is_named_at_its_path(
            self, capsys, tmp_path, name, drop, command, missing):
        doc = json.loads((SCENARIOS / name).read_text())
        for key in drop:
            del doc[key]
        section = missing.split("'")[1]
        assert run(capsys, command, "-s", write_doc(tmp_path, doc)) == (
            1, "", f"error: {section}: {command} command requires {missing}\n")

    def test_a_missing_section_at_a_sweep_point_is_named_with_the_point(self, capsys, tmp_path):
        doc = mrss_sweep_doc()
        doc["sweep"] = {"command": "simulate",
                        "parameters": [{"path": "policy", "values": ["ProportionalShare", None]}]}
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == ("error: sweep point 1 (policy=null): policy: simulate command requires "
                       "a 'policy' section\n")

    def test_a_toy_report_is_one_row(self, capsys, monkeypatch, tmp_path):
        table = (cli.Column(0, "Quantity ({unit})", "quantity"), cli.Column(1, "Value", "value", "{:,}"))
        toy = cli.Report(("traffic",), toy_record, table, fill=lambda scenario: {"unit": "REs"})
        monkeypatch.setitem(cli.REPORTS, "toy", toy)
        monkeypatch.setattr(cli, "run_toy", cli._runner("toy"), raising=False)
        monkeypatch.setattr(scenario_module, "SWEEP_COMMANDS", SWEEP_COMMANDS + ("toy",))
        doc = mrss_sweep_doc()
        pools = []
        for n_prb in (272, 273):
            doc["carrier"]["n_prb"] = n_prb
            pools.append(cli.classify_record(parse_scenario(doc))["shared_pool"])
        path = write_doc(tmp_path, doc)
        assert run(capsys, "toy", "-s", path, "-f", "json") == (
            0, json.dumps({"n_prb": 273, "shared_pool": pools[1]}, indent=2) + "\n", "")
        assert run(capsys, "toy", "-s", path, "-f", "md") == (
            0, "| Quantity (REs) | Value |\n| --- | --- |\n| n_prb | 273 |\n"
               f"| shared_pool | {pools[1]:,} |\n", "")
        assert run(capsys, "toy", "-s", path, "-f", "csv") == (
            0, f"quantity,value\nn_prb,273\nshared_pool,{pools[1]}\n", "")
        doc["sweep"] = {"command": "toy", "parameters": [{"path": "carrier.n_prb", "values": [272, 273]}]}
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc), "-f", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == [
            {"point": i, "carrier.n_prb": n, "n_prb": n, "shared_pool": pool}
            for i, (n, pool) in enumerate(zip((272, 273), pools))]
        assert "toy" in run(capsys, "--help")[1]
        del doc["traffic"]
        assert run(capsys, "toy", "-s", write_doc(tmp_path, doc)) == (
            1, "", "error: traffic: toy command requires a 'traffic' section\n")


def toy_stage(labels, carrier, traffic):
    """A toy map stage: RESERVED_IOT on the free cells of PRB 0 in slot `traffic.seed`."""
    place_slots(labels, [((traffic.seed,), range(14), range(12), ref.free_cells(ReLabel.RESERVED_IOT))])


# Per row of `cli.STAGES`, a spec whose write fails on `failing_stage_lattice`
# in slot 1, and the error: a write that was not all or nothing would have
# written slot 0 by then.
FAILING_STAGES = {
    "lte": (LteCellConfig(), ConflictError),
    "nr": (NrOverlaySet(period_ms=3, coreset1=Coreset1Spec(6, 1)), ConflictError),
    "control": (MrssSpec(control_mode=ControlMode(ControlModeKind.SEPARATE)), PlacementError),
    "iot": (MrssSpec(iot_reservations=(IotReservation(0, 1, (0,)), IotReservation(0, 1, (1,)))),
            ConflictError),
    "6g_ssb": (MrssSpec(sixg_ssb=SixgSsbSpec(((0, 0, 0), (1, 0, 0)), prbs=1, symbols=1)),
               ConflictError),
}


def failing_stage_lattice():
    """A 6-PRB FDD carrier of three subframes and its lattice: slot 0 free,
    slots 1 and 2 all CORESET1, more control than separate control can
    double."""
    carrier = CarrierConfig(15, n_prb=6, duplex="FDD", span_ms=3)
    labels = new_labels(carrier)
    place_slots(labels, [((1, 2), range(14), range(72), ReLabel.NR_PDCCH_CORESET1)])
    return carrier, labels


class TestStageTable:
    def test_a_toy_stage_is_one_row(self, capsys, monkeypatch, tmp_path):
        doc = mrss_sweep_doc()
        scenario = parse_scenario(doc)
        plain = cli.classify_record(scenario)
        cells = ref.gather(cli.build_map(scenario).grid.lattice)
        seeds = (0, 7, 8)
        free = {seed: int(np.count_nonzero(cells[seed, :, :12] == 0)) for seed in seeds}
        assert len(set(free.values())) == len(seeds) and min(free.values()) > 0

        def record(seed):
            return dict(plain, shared_pool=plain["shared_pool"] - free[seed],
                        reserved=plain["reserved"] + free[seed])

        builds = []
        build_map = cli.build_map
        monkeypatch.setattr(cli, "build_map", lambda s: builds.append(s) or build_map(s))
        sweep = write_doc(tmp_path, dict(doc, sweep={"command": "classify", "parameters": [
            {"path": "traffic.seed", "values": list(seeds)}]}), "sweep.json")
        # No map reads the traffic section yet: the sweep shares one map.
        assert run(capsys, "sweep", "-s", sweep, "-f", "json")[0] == 0
        assert len(builds) == 1
        monkeypatch.setattr(cli, "STAGES", cli.STAGES + (cli.Stage("toy", "traffic", toy_stage),))
        code, out, err = run(capsys, "classify", "-s", write_doc(tmp_path, doc), "-f", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == record(7)
        # The toy reads the swept section, so each point builds its own map.
        builds.clear()
        code, out, err = run(capsys, "sweep", "-s", sweep, "-f", "json")
        assert (code, err) == (0, "")
        assert len(builds) == len(seeds)
        assert json.loads(out) == [dict(point=i, **{"traffic.seed": seed}, **record(seed))
                                   for i, seed in enumerate(seeds)]

    @pytest.mark.parametrize("name", FAILING_STAGES)
    def test_a_failing_stage_leaves_its_lattice_unchanged(self, name):
        assert list(FAILING_STAGES) == [stage.name for stage in cli.STAGES]
        (stage,) = [stage for stage in cli.STAGES if stage.name == name]
        spec, error = FAILING_STAGES[name]
        carrier, labels = failing_stage_lattice()
        before = list(labels.slots)
        with pytest.raises(error):
            stage.write(labels, carrier, spec)
        assert all(map(operator.is_, labels.slots, before))


class TestSweepRecords:
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_sweep_matches_the_text_round_trip(self, capsys, tmp_path, name):
        doc = SWEEPS[name]
        expected = _reference_sweep(parse_scenario(doc))
        path = write_doc(tmp_path, doc)
        for fmt in ("md", "csv", "json"):
            code, out, err = run(capsys, "sweep", "-s", path, "-f", fmt)
            assert (code, err) == (0, "")
            assert out == expected[fmt], fmt


SRC_DIR = pathlib.Path(gridshare.__file__).resolve().parents[1]


def run_python(*args):
    """`python args...` importing the gridshare package these tests import."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_process(*argv):
    return run_python("-m", "gridshare.cli", *argv)


class TestProcessEntry:
    @pytest.mark.parametrize("command,name", [
        ("budget", "table1.json"),
        ("overhead", "table3.json"),
        ("classify", "table3.json"),
        ("simulate", "mrss_sweep.json"),
        ("interference", "neighbor_interference.json"),
        ("sweep", "mrss_sweep.json"),
    ])
    def test_process_matches_in_process_main(self, capsys, command, name):
        argv = [command, "-s", str(SCENARIOS / name), "-f", "csv"]
        proc = run_process(*argv)
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_invalid_document_exits_1_without_traceback(self, capsys, tmp_path):
        doc = {"carrier": {"scs_khz": 15, "n_prb": 6, "duplex": "FDD", "span_ms": 1}, "lte": 5}
        path = write_doc(tmp_path, doc)
        proc = run_process("budget", "-s", path)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: lte: expected an object, got int\n"
        assert (1, "", proc.stderr) == run(capsys, "budget", "-s", path)

    def test_entry_freezes_the_heap_before_main(self, capsys):
        # run() is the process entry: it freezes, then exits with main's code.
        script = "\n".join([
            "import gc",
            "from gridshare import cli",
            "def fake_main():",
            "    print(gc.get_freeze_count() > 0)",
            "    return 3",
            "cli.main = fake_main",
            "cli.run()",
        ])
        proc = run_python("-c", script)
        assert (proc.returncode, proc.stdout) == (3, "True\n")
        # main itself leaves the collector alone.
        frozen = gc.get_freeze_count()
        assert run(capsys, "budget", "-s", str(SCENARIOS / "table1.json"))[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_requests_import_no_unneeded_standard_modules(self):
        """No request imports argparse, gettext, locale, fractions or decimal,
        and an md request does not import csv."""
        script = "\n".join([
            "import sys",
            "start = set(sys.modules)",
            "import contextlib, io, json",
            "from gridshare import cli",
            "loaded = []",
            "for argv in json.loads(sys.argv[1]):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert cli.main(argv) == 0, argv",
            "    loaded.append(sorted(set(sys.modules) - start))",
            "print(json.dumps(loaded))",
        ])
        requests = [["overhead", "-s", str(SCENARIOS / "table3.json"), "-f", "md"],
                    ["sweep", "-s", SWEEP_DOC, "-f", "csv"],
                    ["simulate", "-s", SWEEP_DOC, "-f", "csv"]]
        proc = run_python("-c", script, json.dumps(requests))
        assert proc.returncode == 0, proc.stderr
        after_md, _, after_all = json.loads(proc.stdout)
        unneeded = {"argparse", "gettext", "locale", "fractions", "decimal"}
        assert unneeded.isdisjoint(after_all), sorted(unneeded.intersection(after_all))
        assert "csv" not in after_md and "csv" in after_all

    def test_a_terminal_gets_the_piped_bytes(self):
        """stdout on a pseudo-terminal carries the golden (piped) bytes."""
        tty = pytest.importorskip("tty")
        if not hasattr(os, "openpty"):
            pytest.skip("no pseudo-terminals")
        master, slave = os.openpty()
        try:
            tty.setraw(slave)  # no \n -> \r\n translation
            path = os.environ.get("PYTHONPATH")
            env = dict(os.environ, PYTHONPATH=str(SRC_DIR) + (os.pathsep + path if path else ""))
            argv = ["budget", "-s", str(SCENARIOS / "table1.json"), "-f", "md"]
            proc = subprocess.Popen([sys.executable, "-m", "gridshare.cli", *argv],
                                    stdout=slave, stderr=subprocess.PIPE, env=env)
            os.close(slave)
            slave = None
            chunks = []
            while True:
                try:
                    chunk = os.read(master, 4096)
                except OSError:  # EIO: the process closed the terminal
                    break
                if not chunk:
                    break
                chunks.append(chunk)
            _, err = proc.communicate(timeout=120)
        finally:
            os.close(master)
            if slave is not None:
                os.close(slave)
        assert (proc.returncode, err) == (0, b"")
        assert b"".join(chunks) == (GOLDEN / "budget-table1.md").read_bytes()

    def test_script_and_module_share_the_entry(self):
        pyproject = (SCENARIOS.parent / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        assert scripts.strip() == 'gridshare = "gridshare.cli:run"'
        source = pathlib.Path(cli.__file__).read_text()
        assert source.rstrip().endswith('if __name__ == "__main__":\n    run()')


class TestSixgSsbBlockBounds:
    """A given 6G SSB block size is bounded by the carrier and the slot even
    when no occasion uses it."""

    def classify(self, capsys, tmp_path, doc, sixg_ssb):
        doc["mrss"] = dict(doc.get("mrss", {}), sixg_ssb=sixg_ssb)
        return run(capsys, "classify", "-s", write_doc(tmp_path, doc))

    def test_oversized_block_without_occasions_rejected(self, capsys, tmp_path):
        code, out, err = self.classify(capsys, tmp_path, mrss_sweep_doc(),
                                       {"occasions": [], "symbols": 99, "prbs": 9999})
        assert (code, out, err) == (1, "", "error: mrss.sixg_ssb.prbs: must be <= 273, got 9999\n")

    @pytest.mark.parametrize("key, size, bound", [("symbols", 15, 14), ("prbs", 53, 52)])
    def test_each_bound(self, capsys, tmp_path, key, size, bound):
        code, out, err = self.classify(capsys, tmp_path, json.loads(carrier_text()),
                                       {"occasions": [], key: size})
        assert (code, out) == (1, "")
        assert err == f"error: mrss.sixg_ssb.{key}: must be <= {bound}, got {size}\n"

    def test_largest_block_accepted(self, capsys, tmp_path):
        code, _, err = self.classify(capsys, tmp_path, json.loads(carrier_text()),
                                     {"occasions": [[0, 0, 0]], "symbols": 14, "prbs": 52})
        assert (code, err) == (0, "")


class TestSweepPointErrors:
    """A failing sweep point is named by index and swept values; the error
    keeps its dotted path, its text and its exit code."""

    def test_validation_error_names_the_point(self, capsys, tmp_path):
        doc = json.loads(carrier_text())
        doc["mrss"] = {"iot_reservations": [{"prb_start": 5, "prb_stop": 8}]}
        doc["sweep"] = {"command": "classify",
                        "parameters": [{"path": "carrier.n_prb", "values": [52, 6]}]}
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == ("error: sweep point 1 (carrier.n_prb=6): mrss.iot_reservations[0]: "
                       "PRB range (5, 8) out of bounds for a 6-PRB carrier\n")

    def test_computation_error_names_the_point(self, capsys, tmp_path):
        doc = json.loads(carrier_text())
        doc["nr"] = {"period_ms": 1, "coreset1": {"prbs": 24, "symbols": 1}}
        doc["sweep"] = {"command": "classify", "parameters": [
            {"path": "mrss.control_mode", "values": ["FullyOverlapping"]},
            {"path": "mrss.iot_reservations", "values": [[], [{"prb_start": 0, "prb_stop": 2}]]}]}
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (2, "")
        assert err == ('error: sweep point 1 (mrss.control_mode="FullyOverlapping", '
                       'mrss.iot_reservations=[{"prb_start": 0, "prb_stop": 2}]): '
                       "conflict at cell (0, 0, 0): existing NR_PDCCH_CORESET1, new RESERVED_IOT\n")

    def test_error_keeps_its_class_and_path(self, tmp_path):
        doc = json.loads(carrier_text())
        doc["sweep"] = {"command": "budget",
                        "parameters": [{"path": "carrier.n_prb", "values": [1, 0]}]}
        with pytest.raises(ScenarioError) as info:
            cli.run_sweep(parse_scenario(doc), "csv")
        assert info.value.path == "carrier.n_prb"
        assert str(info.value) == "sweep point 1 (carrier.n_prb=0): carrier.n_prb: must be >= 1, got 0"


def budget_doc(budget):
    return {"carrier": {"scs_khz": 15, "n_prb": 1, "duplex": "FDD", "span_ms": 1}, "budget": budget}


class TestBudgetPorts:
    """`budget.ports` holds integers only, and a port count the LTE control
    region cannot go with is rejected at `budget.ports` by the budget command."""

    @pytest.mark.parametrize("ports", [[4.0], [True, 2], [1, 2.0], [False]])
    def test_non_integer_ports_rejected(self, capsys, tmp_path, ports):
        code, out, err = run(capsys, "budget", "-s", write_doc(tmp_path, budget_doc({"ports": ports})))
        assert (code, out, err) == (1, "", "error: budget.ports: must be a list drawn from [0, 1, 2, 4]\n")

    @pytest.mark.parametrize("budget, message", [
        ({"lte_pdcch": 2, "ports": [0]}, "crs_ports=0 (no incumbent) requires lte_pdcch=0, got 2"),
        ({"lte_pdcch": 0, "ports": [1]}, "lte_pdcch=0 requires crs_ports=0 (no incumbent)"),
        ({"lte_pdcch": 0}, "lte_pdcch=0 requires crs_ports=0 (no incumbent)"),
    ])
    def test_impossible_pairing_rejected_at_ports(self, capsys, tmp_path, budget, message):
        code, out, err = run(capsys, "budget", "-s", write_doc(tmp_path, budget_doc(budget)))
        assert (code, out, err) == (1, "", f"error: budget.ports: {message}\n")

    def test_pairing_in_a_sweep_names_the_point(self, capsys, tmp_path):
        doc = budget_doc({"lte_pdcch": 0, "ports": [0]})
        doc["sweep"] = {"command": "budget", "parameters": [{"path": "budget.lte_pdcch", "values": [0, 1]}]}
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == ("error: sweep point 1 (budget.lte_pdcch=1): budget.ports: "
                       "crs_ports=0 (no incumbent) requires lte_pdcch=0, got 1\n")

    def test_no_incumbent_row_accepted(self, capsys, tmp_path):
        doc = budget_doc({"lte_pdcch": 0, "ports": [0]})
        code, out, err = run(capsys, "budget", "-s", write_doc(tmp_path, doc), "-f", "csv")
        assert (code, err) == (0, "")
        assert out.split("\n")[1] == "0,132,132,132,0.00,0.00"

    def test_interference_still_reads_lte_pdcch_zero(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS / "neighbor_interference.json").read_text())
        doc["budget"]["lte_pdcch"] = 0
        code, _, err = run(capsys, "interference", "-s", write_doc(tmp_path, doc), "-f", "json")
        assert (code, err) == (0, "")

    def test_control_past_the_slot_is_an_error_not_a_traceback(self, capsys, tmp_path):
        doc = budget_doc({"nr_pdcch": 13, "dmrs_count": 0})
        code, out, err = run(capsys, "budget", "-s", write_doc(tmp_path, doc))
        assert (code, out, err) == (
            2, "", "error: LTE and NR control take 15 symbols, more than the 14 of a slot\n")


class TestSweepMapKey:
    def test_points_with_equal_map_inputs_share_one_build(self, capsys, tmp_path, monkeypatch):
        """The map cache compares parsed values: 20 and 20.0 ms are one carrier."""
        builds = []

        def counted(scenario):
            builds.append(scenario.carrier)
            return build_grid(scenario)

        monkeypatch.setattr(cli, "build_grid", counted)
        doc = mrss_sweep_doc()
        doc["sweep"]["parameters"] = [{"path": "carrier.span_ms", "values": [20, 20.0]},
                                      {"path": "lte", "values": [None]}]
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc), "-f", "json")
        assert (code, err) == (0, "")
        first, second = json.loads(out)
        assert {k: v for k, v in first.items() if k not in ("point", "carrier.span_ms")} == \
            {k: v for k, v in second.items() if k not in ("point", "carrier.span_ms")}
        assert len(builds) == 1

    def test_neighbors_do_not_key_the_map(self, capsys, tmp_path, monkeypatch):
        # No map reads the serving cell's neighbors, yet a sweep over them
        # once built one map per point.
        builds = []
        build_map = cli.build_map
        monkeypatch.setattr(cli, "build_map", lambda s: builds.append(s) or build_map(s))
        doc = sweep_doc("neighbor_interference.json", "classify", [
            {"path": "lte.neighbors",
             "values": [[], [{"cell_id": 3}], [{"cell_id": 3}, {"cell_id": 7, "crs_ports": 2}]]}])
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc), "-f", "json")
        assert (code, err) == (0, "")
        assert len(builds) == 1
        assert out == _reference_sweep(parse_scenario(doc))["json"]


class TestLteNeedsA15KhzCarrier:
    """Every command rejects an LTE cell on a 30 kHz carrier at `lte`; the
    commands that build no grid once modeled it and exited 0."""

    def doc(self):
        doc = json.loads((SCENARIOS / "neighbor_interference.json").read_text())
        doc["carrier"]["scs_khz"] = 30
        return doc

    @pytest.mark.parametrize("command", ["budget", "classify", "interference"])
    def test_rejected_by_every_command(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, "-s", write_doc(tmp_path, self.doc()))
        assert (code, out, err) == (1, "", "error: lte: an LTE cell needs a 15 kHz carrier\n")

    def test_sweep_names_the_30_khz_point(self, capsys, tmp_path):
        doc = sweep_doc("neighbor_interference.json", "interference",
                        [{"path": "carrier.scs_khz", "values": [15, 30]}])
        code, out, err = run(capsys, "sweep", "-s", write_doc(tmp_path, doc))
        assert (code, out) == (1, "")
        assert err == ("error: sweep point 1 (carrier.scs_khz=30): lte: "
                       "an LTE cell needs a 15 kHz carrier\n")


def _lte_nr_scenario(duplex):
    """A 15 kHz LTE cell with an NR overlay that rate-matches around it."""
    tdd = {"tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 4]}} if duplex == "TDD" else {}
    return parse_scenario({
        "carrier": {"scs_khz": 15, "n_prb": 25, "duplex": duplex, "span_ms": 10, **tdd},
        "lte": {"cell_id": 7, "crs_ports": 4, "mbsfn_subframes": [7]},
        "nr": {"period_ms": 10,
               "csi_rs": {"ports": 4, "density_re_per_port_per_prb": 1, "prbs": 25,
                          "occasions_per_period": 2},
               "trs": {"prbs": 20, "slots_per_occasion": 2, "re_per_prb_per_slot": 3,
                       "beams": 1, "occasions_per_period": 1}},
    })


class TestBuildGridOneLattice:
    """`build_grid` places LTE and then NR into one lattice; the result is
    the grid the public copying stages build."""

    @pytest.mark.parametrize("scenario", [
        pytest.param(lambda: _lte_nr_scenario("FDD"), id="fdd-lte-nr"),
        pytest.param(lambda: _lte_nr_scenario("TDD"), id="tdd-lte-nr"),
        pytest.param(lambda: parse_scenario((SCENARIOS / "mrss_sweep.json").read_text()),
                     id="tdd-nr"),
    ])
    def test_equals_the_copying_stages(self, scenario):
        s = scenario()
        expected = gridshare.make_grid(s.carrier)
        if s.lte is not None:
            expected = gridshare.apply_lte(expected, s.lte)
        expected = gridshare.apply_nr(expected, s.nr)
        grid = build_grid(s)
        assert grid.config == s.carrier
        assert np.array_equal(ref.gather(grid.lattice), ref.gather(expected.lattice))
        with pytest.raises(TypeError):
            grid.lattice.slots[0][0] = 0
        labels = set(np.unique(ref.gather(grid.lattice)).tolist())
        assert {gridshare.ReLabel.NR_CSI_RS, gridshare.ReLabel.NR_TRS} <= labels
        if s.lte is not None:
            assert {gridshare.ReLabel.LTE_CRS_P3, gridshare.ReLabel.LTE_MBSFN_MUTED} <= labels
