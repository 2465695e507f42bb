"""Scenario-driven command line front end.

    gridshare <command> -s <scenario.json> [-f md|csv|json] [-o <path>] [--seed N]

Commands: budget, overhead, classify, simulate, interference, sweep.
Exit codes: 0 success, 1 scenario/validation error, 2 computation error.
Set GRIDSHARE_NO_COLOR to disable ANSI styling on terminals.

`run` is the process entry (the `gridshare` script, `python -m
gridshare.cli`); `main` is the in-process one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import itertools
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

from .budget import check_ports, dss_table, nr_overhead
from .errors import ConfigError, GridShareError, ScenarioError
from .grid import ResourceGrid, new_labels
from .lte import place_lte
from .mrss import (
    MrssCategoryMap,
    classify_mrss,
    neighbor_interference,
    place_6g_ssb,
    reserve_iot,
    simulate,
)
from .nr import place_nr
from .scenario import Scenario, emit_scenario, parse_scenario
from .value import asdict, replace

COMMANDS = ("budget", "overhead", "classify", "simulate", "interference", "sweep")
FORMATS = ("md", "csv", "json")

BUDGET_MD_HEADERS = (
    "No. of LTE CRS ports",
    "No. of NR PDSCH REs on DSS carrier",
    "No. of NR PDSCH REs on NR carrier",
    "No. of NR PDSCH REs on LTE carrier",
    "NR DSS loss vs. NR carrier",
    "NR DSS loss vs. LTE carrier",
)
BUDGET_CSV_HEADERS = ("crs_ports", "dss_re", "nr_re", "lte_re", "loss_vs_nr_pct", "loss_vs_lte_pct")

OVERHEAD_CSV_HEADERS = ("signal", "configuration", "re_count", "pct_of_total", "pct_of_downlink")


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _csv_text(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


MapBuilder = Callable[[Scenario], MrssCategoryMap]


def build_grid(scenario: Scenario) -> ResourceGrid:
    """The scenario's grid, built in one label lattice: LTE, then NR."""
    carrier = scenario.carrier
    arr = new_labels(carrier)
    if scenario.lte is not None:
        if carrier.numerology.scs_khz != 15:
            raise ScenarioError("an LTE cell needs a 15 kHz carrier", "lte")
        place_lte(arr, carrier, scenario.lte)
    if scenario.nr is not None:
        place_nr(arr, carrier, scenario.nr)
    return ResourceGrid(carrier, arr)


def build_map(scenario: Scenario) -> MrssCategoryMap:
    grid = build_grid(scenario)
    mode = scenario.mrss.control_mode if scenario.mrss else None
    cmap = classify_mrss(grid, control_mode=mode) if mode else classify_mrss(grid)
    if scenario.mrss is not None:
        for r in scenario.mrss.iot_reservations:
            cmap = reserve_iot(cmap, (r.prb_start, r.prb_stop), r.slots)
        if scenario.mrss.sixg_ssb is not None:
            s = scenario.mrss.sixg_ssb
            cmap = place_6g_ssb(cmap, s.occasions, prbs=s.prbs, symbols=s.symbols)
    return cmap


# Each report command has one record builder: the JSON-ready object that
# `-f json` prints. Its `run_<command>` renders md, csv and json from that
# record, and a sweep flattens each point's record into one row.


def budget_record(scenario: Scenario) -> List[Dict[str, object]]:
    try:
        check_ports(scenario.budget.ports, scenario.budget.layout.lte_pdcch)
    except ConfigError as exc:
        raise ScenarioError(str(exc), "budget.ports") from None
    rows = dss_table(
        dmrs_count=scenario.budget.layout.dmrs_count,
        lte_pdcch=scenario.budget.layout.lte_pdcch,
        nr_pdcch=scenario.budget.layout.nr_pdcch,
        ports=scenario.budget.ports,
    )
    return [asdict(r) for r in rows]


def run_budget(scenario: Scenario, fmt: str) -> str:
    rows = budget_record(scenario)
    if fmt == "json":
        return _json_text(rows)
    if fmt == "csv":
        return _csv_text(
            BUDGET_CSV_HEADERS,
            [(r["crs_ports"], r["dss_re"], r["nr_re"], r["lte_re"],
              f"{r['loss_vs_nr_pct']:.2f}", f"{r['loss_vs_lte_pct']:.2f}") for r in rows],
        )
    return _md_table(
        BUDGET_MD_HEADERS,
        [
            (str(r["crs_ports"]), str(r["dss_re"]), str(r["nr_re"]), str(r["lte_re"]),
             f"{r['loss_vs_nr_pct']:.2f}%", f"{r['loss_vs_lte_pct']:.2f}%")
            for r in rows
        ],
    )


def overhead_record(scenario: Scenario) -> Dict[str, object]:
    if scenario.nr is None:
        raise ScenarioError("overhead command requires an 'nr' section", "nr")
    report = nr_overhead(scenario.carrier, scenario.nr)
    return {
        "rows": [asdict(r) for r in report.rows],
        "total": asdict(report.total_row),
        "total_re": report.total_re,
        "downlink_re": report.downlink_re,
    }


def run_overhead(scenario: Scenario, fmt: str) -> str:
    record = overhead_record(scenario)
    if fmt == "json":
        return _json_text(record)
    all_rows = record["rows"] + [record["total"]]
    if fmt == "csv":
        return _csv_text(
            OVERHEAD_CSV_HEADERS,
            [
                (r["signal_name"], r["config_summary"], r["re_count"],
                 f"{r['pct_of_total']:.2f}", f"{r['pct_of_downlink']:.2f}")
                for r in all_rows
            ],
        )
    headers = (
        "Signal / channel",
        "Configuration",
        f"Total RE in {scenario.nr.period_ms} ms",
        "Overhead vs. total RE (%)",
        "Overhead vs. total downlink RE (%)",
    )
    return _md_table(
        headers,
        [
            (r["signal_name"], r["config_summary"], f"{r['re_count']:,}",
             f"{r['pct_of_total']:.2f}%", f"{r['pct_of_downlink']:.2f}%")
            for r in all_rows
        ],
    )


def classify_record(scenario: Scenario, maps: MapBuilder = build_map) -> Dict[str, object]:
    cmap = maps(scenario)
    return {
        "shared_pool": cmap.shared_pool_size,
        "reserved": cmap.reserved_size,
        "control_region": cmap.control_region_size,
        "downlink_cells": cmap.downlink_size,
        "total_cells": cmap.grid.n_cells,
    }


def run_classify(scenario: Scenario, fmt: str) -> str:
    record = classify_record(scenario)
    if fmt == "json":
        return _json_text(record)
    if fmt == "csv":
        return _csv_text(("category", "cells"), list(record.items()))
    return _md_table(("Category", "Cells"), [(k, f"{v:,}") for k, v in record.items()])


def simulate_record(scenario: Scenario, maps: MapBuilder = build_map) -> Dict[str, object]:
    if scenario.traffic is None or scenario.policy is None:
        raise ScenarioError("simulate command requires 'traffic' and 'policy' sections")
    result = simulate(maps(scenario), scenario.traffic, scenario.policy)
    return {
        "summary": {
            "policy": scenario.policy.value,
            "seed": scenario.traffic.seed,
            "n_slots": len(result.grants_5g),
            "shared_pool_size": result.shared_pool_size,
            "total_5g": result.total_5g,
            "total_6g": result.total_6g,
            "unused_shared": result.unused_shared,
            "dropped_5g": sum(result.dropped_5g),
            "dropped_6g": sum(result.dropped_6g),
            "efficiency_vs_pure_5g": round(result.efficiency_vs_pure_5g, 4),
            "efficiency_vs_pure_6g": round(result.efficiency_vs_pure_6g, 4),
        },
        "per_slot": {
            "grants_5g": list(result.grants_5g),
            "grants_6g": list(result.grants_6g),
            "unused": list(result.unused),
        },
    }


def run_simulate(scenario: Scenario, fmt: str) -> str:
    record = simulate_record(scenario)
    if fmt == "json":
        return _json_text(record)
    if fmt == "csv":
        per_slot = record["per_slot"]
        g5, g6, unused = per_slot["grants_5g"], per_slot["grants_6g"], per_slot["unused"]
        d5, d6 = scenario.traffic.demands(len(g5))
        rows = [
            (slot, g5[slot] + g6[slot] + unused[slot], int(d5[slot]), int(d6[slot]),
             g5[slot], g6[slot], unused[slot])
            for slot in range(len(g5))
        ]
        return _csv_text(
            ("slot", "pool", "demand_5g", "demand_6g", "grant_5g", "grant_6g", "unused"), rows
        )
    return _md_table(("Metric", "Value"), [(k, str(v)) for k, v in record["summary"].items()])


def interference_record(scenario: Scenario) -> Dict[str, object]:
    if scenario.lte is None or scenario.mitigation is None:
        raise ScenarioError("interference command requires 'lte' and 'mitigation' sections")
    report = neighbor_interference(
        scenario.lte, scenario.lte_neighbors, scenario.mitigation, scenario.budget.layout
    )
    return {
        "mitigation": scenario.mitigation.kind,
        "pool_re_per_prb": report.pool_re,
        "clean_re_per_prb": report.clean_re,
        "sacrificed_re_per_prb": report.sacrificed_re,
        "dirty_re_per_prb": report.dirty_re,
    }


def run_interference(scenario: Scenario, fmt: str) -> str:
    record = interference_record(scenario)
    if fmt == "json":
        return _json_text(record)
    if fmt == "csv":
        return _csv_text(("metric", "value"), list(record.items()))
    return _md_table(("Metric", "Value"), [(k, str(v)) for k, v in record.items()])


def _set_path(doc: dict, path: str, value: object) -> None:
    parts = path.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ScenarioError(f"sweep path traverses a non-object at {part!r}", path)
    node[parts[-1]] = value


def _flatten(obj: object, prefix: str, out: Dict[str, object]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj


def _records(maps: MapBuilder) -> Dict[str, Callable[[Scenario], object]]:
    """Report command name -> record(scenario); `maps` builds MRSS maps."""
    return {
        "budget": budget_record,
        "overhead": overhead_record,
        "classify": functools.partial(classify_record, maps=maps),
        "simulate": functools.partial(simulate_record, maps=maps),
        "interference": interference_record,
    }


def _runners() -> Dict[str, Callable[[Scenario, str], str]]:
    """Command name -> runner(scenario, fmt), read from the module at call time."""
    return {
        "budget": run_budget,
        "overhead": run_overhead,
        "classify": run_classify,
        "simulate": run_simulate,
        "interference": run_interference,
        "sweep": run_sweep,
    }


def run_sweep(scenario: Scenario, fmt: str) -> str:
    if scenario.sweep is None:
        raise ScenarioError("sweep command requires a 'sweep' section", "sweep")
    base = emit_scenario(scenario)
    base.pop("sweep", None)
    params = scenario.sweep.parameters
    # The last map built, keyed by the values `build_map` reads: a map is a
    # read-only value, so points with equal inputs share it, and a sweep over
    # those inputs holds one map at a time.
    last_map: Dict[tuple, MrssCategoryMap] = {}

    def maps(point: Scenario) -> MrssCategoryMap:
        key = (point.carrier, point.lte, point.nr, point.mrss)
        cmap = last_map.get(key)
        if cmap is None:
            last_map.clear()
            cmap = last_map[key] = build_map(point)
        return cmap

    record_of = _records(maps)[scenario.sweep.command]
    records: List[Dict[str, object]] = []
    for index, combo in enumerate(itertools.product(*(p.values for p in params))):
        try:
            doc = json.loads(json.dumps(base))
            for p, v in zip(params, combo):
                _set_path(doc, p.path, v)
            point = parse_scenario(doc)
            record: Dict[str, object] = {"point": index}
            record.update({p.path: v for p, v in zip(params, combo)})
            _flatten(record_of(point), "", record)
        except GridShareError as exc:
            # Name the failing point; the error keeps its class (so its exit
            # code) and its dotted path.
            swept = ", ".join(f"{p.path}={json.dumps(v)}" for p, v in zip(params, combo))
            exc.args = (f"sweep point {index} ({swept}): {exc}",)
            raise
        records.append(record)

    if fmt == "json":
        return _json_text(records)
    columns = list(dict.fromkeys(column for record in records for column in record))
    rows = [[record.get(c, "") for c in columns] for record in records]
    if fmt == "csv":
        return _csv_text(columns, rows)
    return _md_table(columns, [[str(v) for v in row] for row in rows])


def _with_seed(scenario: Scenario, seed: int, sweep: bool) -> Scenario:
    """The scenario with its traffic seed overridden (`--seed`).

    For a sweep, a parameter that sets the points' traffic seed is rejected:
    the override would replace the swept values. That is `traffic.seed`,
    `traffic`, or any `traffic.*` path when the scenario has no traffic
    section, since the sweep then builds the section with its default seed.
    """
    if seed < 0:
        raise ScenarioError(f"must be >= 0, got {seed}", "--seed")
    if sweep and scenario.sweep is not None:
        for i, p in enumerate(scenario.sweep.parameters):
            if p.path in ("traffic", "traffic.seed") or (
                scenario.traffic is None and p.path.startswith("traffic.")
            ):
                raise ScenarioError(
                    f"--seed cannot override the traffic seed that the sweep sets via {p.path!r}",
                    f"sweep.parameters[{i}].path",
                )
    if scenario.traffic is None:
        return scenario
    return replace(scenario, traffic=replace(scenario.traffic, seed=seed))


def _style(text: str, out_path: Optional[str]) -> str:
    if out_path is not None or os.environ.get("GRIDSHARE_NO_COLOR"):
        return text
    if not sys.stdout.isatty():
        return text
    first, _, rest = text.partition("\n")
    return f"\033[1m{first}\033[0m\n{rest}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridshare",
        description="Resource-element-accurate LTE/5G/6G spectrum-sharing coexistence reports",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("-s", "--scenario", required=True, help="path to a scenario JSON file")
    parser.add_argument("-f", "--format", choices=FORMATS, default="md")
    parser.add_argument("-o", "--output", default=None, help="write the report to a file")
    parser.add_argument("--seed", type=int, default=None, help="override the traffic seed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.seed is not None:
            scenario = _with_seed(scenario, args.seed, sweep=args.command == "sweep")
        text = _runners()[args.command](scenario, args.format)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GridShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(_style(text, args.output))
    return 0


def run() -> None:
    """Process entry of the `gridshare` script and `python -m gridshare.cli`.

    Moves the objects import left behind (numpy and gridshare, ~23k) into
    the collector's permanent generation, so the collections of this
    one-shot process, the one at shutdown included, no longer walk them.
    `main` leaves the collector alone: library callers and tests call it
    in-process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
