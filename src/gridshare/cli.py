"""Scenario-driven command line front end.

    gridshare <command> -s <scenario.json> [-f md|csv|json] [-o <path>] [--seed N]

Commands: budget, overhead, classify, simulate, interference (the rows of
`REPORTS`), and sweep.
Exit codes: 0 success, 1 scenario/validation error or unwritable report
path, 2 computation error or malformed command line.

A report command is one `Report` row of `REPORTS`: the sections it
requires, its record builder (the JSON-ready object `-f json` prints) and
the table of `Column`s under which `render_table` writes the record's rows
as md or csv. `run_<command>` runs the row. A sweep flattens each point's
record into one row.

A grid and its MRSS map fold `STAGES`, one `Stage` row per stage:
`build_grid` the rows through NR into a fresh lattice, `build_map` the rest
into a copy of that grid's.

`run` is the process entry (the `gridshare` script, `python -m
gridshare.cli`); `main` is the in-process one.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import sys
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .budget import check_ports, dss_table, nr_overhead
from .errors import ConfigError, GridShareError, ScenarioError
from .grid import CarrierConfig, Lattice, ResourceGrid, new_labels
from .lte import place_lte
from .mrss import (
    MrssCategoryMap,
    TrafficModel,
    classify_mrss,
    neighbor_interference,
    place_6g_ssb,
    reserve_iot,
    simulate,
)
from .nr import place_nr
from .rounding import round_half_up
from .scenario import Scenario, emit_scenario, parse_scenario, read_point
from .value import asdict, bound, replace

FORMATS = ("md", "csv", "json")


class Column(NamedTuple):
    """One column of a report table: the key it reads from each row (a
    record key, or an index into a tuple row), its md header and format,
    and its csv header and format. A csv format of None writes the value
    as it is."""

    key: object
    md: str
    csv: str
    md_format: str = "{}"
    csv_format: Optional[str] = None


def render_table(table: Sequence[Column], rows: Iterable, fmt: str, **fill: object) -> str:
    """`rows` under `table` as md or csv; `fill` completes the md headers.
    When every column is an unformatted csv column whose key is its index,
    the rows go to the csv writer as they are: the per-slot `simulate` csv
    is thousands of cells, and per-cell work there shows in its run time."""
    if fmt == "md":
        lines = ["| " + " | ".join(c.md.format(**fill) for c in table) + " |",
                 "|" + " --- |" * len(table)]
        lines.extend("| " + " | ".join(c.md_format.format(row[c.key]) for c in table) + " |"
                     for row in rows)
        return "\n".join(lines) + "\n"
    import csv  # only csv reports load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([c.csv for c in table])
    if any(c.csv_format is not None or c.key != i for i, c in enumerate(table)):
        rows = ([row[c.key] if c.csv_format is None else c.csv_format.format(row[c.key])
                 for c in table] for row in rows)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


class Stage(NamedTuple):
    """A build stage: its name, the scenario section it reads (the row runs
    when it is present), and `write(labels, carrier, section)`, which writes
    the stage into a writable lattice in one all-or-nothing call."""

    name: str
    section: str
    write: Callable[[Lattice, CarrierConfig, object], None]


# In build order. Each write calls its writer by its module-level name, as
# `main` calls `run_<command>`, so a wrapper set on that name sees the call.
STAGES: Tuple[Stage, ...] = (
    Stage("lte", "lte", lambda labels, carrier, lte: place_lte(labels, carrier, lte)),
    Stage("nr", "nr", lambda labels, carrier, nr: place_nr(labels, carrier, nr)),
    Stage("control", "mrss", lambda labels, carrier, mrss: classify_mrss(labels, mrss.control_mode)),
    Stage("iot", "mrss", lambda labels, carrier, mrss: reserve_iot(
        labels, carrier, [(r.prb_start, r.prb_stop, r.slots) for r in mrss.iot_reservations])),
    Stage("6g_ssb", "mrss", lambda labels, carrier, mrss: mrss.sixg_ssb and place_6g_ssb(
        labels, carrier, mrss.sixg_ssb.occasions, mrss.sixg_ssb.prbs, mrss.sixg_ssb.symbols)),
)


def _fold(labels: Lattice, scenario: Scenario, grid: bool) -> bool:
    """Write the grid's rows of `STAGES` (through "nr"), or the map's, into
    `labels`; whether any row ran."""
    end = 1 + [stage.name for stage in STAGES].index("nr")
    ran = False
    for stage in STAGES[:end] if grid else STAGES[end:]:
        spec = getattr(scenario, stage.section)
        if spec is not None:
            stage.write(labels, scenario.carrier, spec)
            ran = True
    return ran


def build_grid(scenario: Scenario) -> ResourceGrid:
    """The scenario's grid: the grid's stages folded into one fresh lattice."""
    labels = new_labels(scenario.carrier)
    _fold(labels, scenario, grid=True)
    return ResourceGrid(scenario.carrier, labels)


def build_map(scenario: Scenario) -> MrssCategoryMap:
    """The scenario's MRSS map: the map's stages folded into one copy of its
    grid's lattice, or the grid itself when no map stage runs."""
    grid = build_grid(scenario)
    labels = grid.lattice.copy()
    if _fold(labels, scenario, grid=False):
        grid = ResourceGrid(scenario.carrier, labels)
    return MrssCategoryMap(grid)


MapBuilder = Callable[[Scenario], MrssCategoryMap]


def budget_record(scenario: Scenario, maps: MapBuilder = build_map) -> List[Dict[str, object]]:
    budget = scenario.budget
    try:
        check_ports(budget.ports, budget.layout.lte_pdcch)
    except ConfigError as exc:
        raise ScenarioError(str(exc), "budget.ports") from None
    return [asdict(r) for r in dss_table(ports=budget.ports, **asdict(budget.layout))]


_PCT = ("{:.2f}%", "{:.2f}")  # md and csv formats of a percentage
BUDGET_TABLE = (
    Column("crs_ports", "No. of LTE CRS ports", "crs_ports"),
    Column("dss_re", "No. of NR PDSCH REs on DSS carrier", "dss_re"),
    Column("nr_re", "No. of NR PDSCH REs on NR carrier", "nr_re"),
    Column("lte_re", "No. of NR PDSCH REs on LTE carrier", "lte_re"),
    Column("loss_vs_nr_pct", "NR DSS loss vs. NR carrier", "loss_vs_nr_pct", *_PCT),
    Column("loss_vs_lte_pct", "NR DSS loss vs. LTE carrier", "loss_vs_lte_pct", *_PCT),
)


def overhead_record(scenario: Scenario, maps: MapBuilder = build_map) -> Dict[str, object]:
    report = nr_overhead(scenario.carrier, scenario.nr)
    return {
        "rows": [asdict(r) for r in report.rows],
        "total": asdict(report.total_row),
        "total_re": report.total_re,
        "downlink_re": report.downlink_re,
    }


OVERHEAD_TABLE = (
    Column("signal_name", "Signal / channel", "signal"),
    Column("config_summary", "Configuration", "configuration"),
    Column("re_count", "Total RE in {period_ms} ms", "re_count", "{:,}"),
    Column("pct_of_total", "Overhead vs. total RE (%)", "pct_of_total", *_PCT),
    Column("pct_of_downlink", "Overhead vs. total downlink RE (%)", "pct_of_downlink", *_PCT),
)
# Over the (key, value) items of a record, or of its `simulate` summary.
CELLS_TABLE = (Column(0, "Category", "category"), Column(1, "Cells", "cells", "{:,}"))
METRIC_TABLE = (Column(0, "Metric", "metric"), Column(1, "Value", "value"))


def classify_record(scenario: Scenario, maps: MapBuilder = build_map) -> Dict[str, object]:
    cmap = maps(scenario)
    return {
        "shared_pool": cmap.shared_pool_size,
        "reserved": cmap.reserved_size,
        "control_region": cmap.control_region_size,
        "downlink_cells": cmap.downlink_size,
        "total_cells": cmap.grid.n_cells,
    }


def _efficiency(total: int, pure: int) -> float:
    """total / pure to 4 decimals; 1.0 when the RAT would get nothing alone."""
    return round_half_up(total, pure, 4) if pure else 1.0


def simulate_record(scenario: Scenario, maps: MapBuilder = build_map) -> Dict[str, object]:
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
            "efficiency_vs_pure_5g": _efficiency(result.total_5g, result.pure_5g),
            "efficiency_vs_pure_6g": _efficiency(result.total_6g, result.pure_6g),
        },
        "per_slot": {key: list(getattr(result, key)) for key in ("grants_5g", "grants_6g", "unused")},
    }


SLOT_TABLE = tuple(Column(i, name, name) for i, name in enumerate(
    ("slot", "pool", "demand_5g", "demand_6g", "grant_5g", "grant_6g", "unused")))


def simulate_csv(scenario: Scenario, maps: MapBuilder) -> tuple:
    """The `simulate` csv: SLOT_TABLE and a row per slot, read from the
    SimResult, since the record holds no drops. Each slot's demand is its
    grant plus what was dropped: the one draw."""
    result = simulate(maps(scenario), scenario.traffic, scenario.policy)
    return SLOT_TABLE, ((slot, g5 + g6 + unused, g5 + x5, g6 + x6, g5, g6, unused)
                        for slot, (g5, g6, unused, x5, x6) in enumerate(zip(
                            result.grants_5g, result.grants_6g, result.unused,
                            result.dropped_5g, result.dropped_6g)))


def interference_record(scenario: Scenario, maps: MapBuilder = build_map) -> Dict[str, object]:
    report = neighbor_interference(scenario.lte, scenario.lte.neighbors, scenario.mitigation,
                                   scenario.budget.layout)
    return {
        "mitigation": scenario.mitigation.kind,
        "pool_re_per_prb": report.pool_re,
        "clean_re_per_prb": report.clean_re,
        "sacrificed_re_per_prb": report.sacrificed_re,
        "dirty_re_per_prb": report.dirty_re,
    }


class Report(NamedTuple):
    """A report command, one row of `REPORTS`: the sections it requires, in
    the order `_require` checks them; `record(scenario, maps)`, the object
    `-f json` prints and a sweep point flattens, `maps` building the MRSS
    map; md and csv render `rows(record)` under `table`, `fill(scenario)`
    completing the md headers, unless `csv(scenario, maps)` gives the csv's
    own table and rows."""

    requires: Tuple[str, ...]
    record: Callable[[Scenario, MapBuilder], object]
    table: Sequence[Column]
    rows: Callable[[object], Iterable] = dict.items
    fill: Callable[[Scenario], Dict[str, object]] = lambda scenario: {}
    csv: Optional[Callable[[Scenario, MapBuilder], tuple]] = None


# Command name -> its report, in the order of `scenario.SWEEP_COMMANDS`.
REPORTS: Dict[str, Report] = {
    "budget": Report((), budget_record, BUDGET_TABLE, rows=lambda record: record),
    "overhead": Report(("nr",), overhead_record, OVERHEAD_TABLE,
                       rows=lambda record: record["rows"] + [record["total"]],
                       fill=lambda scenario: {"period_ms": scenario.nr.period_ms}),
    "classify": Report((), classify_record, CELLS_TABLE),
    "simulate": Report(("traffic", "policy"), simulate_record, METRIC_TABLE,
                       rows=lambda record: record["summary"].items(), csv=simulate_csv),
    "interference": Report(("lte", "mitigation"), interference_record, METRIC_TABLE),
}


def commands() -> Tuple[str, ...]:
    """Every command: the reports, then `sweep`."""
    return (*REPORTS, "sweep")


def _require(command: str, sections: Iterable[str], scenario: Scenario) -> None:
    """Raise a ScenarioError at the first of `sections` that `scenario` lacks."""
    for section in sections:
        if getattr(scenario, section) is None:
            article = "an" if section in ("lte", "nr", "mrss") else "a"  # spelled letter by letter
            raise ScenarioError(f"{command} command requires {article} {section!r} section", section)


def render(command: str, scenario: Scenario, fmt: str) -> str:
    """The `command` report on `scenario` as md, csv or json text."""
    report = REPORTS[command]
    _require(command, report.requires, scenario)
    if fmt == "csv" and report.csv is not None:
        return render_table(*report.csv(scenario, build_map), fmt)
    record = report.record(scenario, build_map)
    if fmt == "json":
        return _json_text(record)
    return render_table(report.table, report.rows(record), fmt, **report.fill(scenario))


def _runner(command: str) -> Callable[[Scenario, str], str]:
    """`run_<command>(scenario, fmt)`: `render` of one report, as a function of its own."""

    def run(scenario: Scenario, fmt: str) -> str:
        return render(command, scenario, fmt)

    run.__name__ = run.__qualname__ = f"run_{command}"
    return run


# `main` calls `run_<command>` by its module-level name.
run_budget = _runner("budget")
run_overhead = _runner("overhead")
run_classify = _runner("classify")
run_simulate = _runner("simulate")
run_interference = _runner("interference")


def _set_path(doc: dict, path: str, value: object) -> None:
    """Set `value` at the dotted `path` of `doc`, copying each object on the path first."""
    *parents, last = path.split(".")
    node = doc
    for part in parents:
        child = node.get(part, {})
        if not isinstance(child, dict):
            raise ScenarioError(f"sweep path traverses a non-object at {part!r}", path)
        node[part] = dict(child)
        node = node[part]
    node[last] = value


def _flat_keys(obj: object, prefix: str, out: List[str]) -> None:
    """A record's column keys, in leaf order: `a.b` for dict keys, `a[0]` for list items."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flat_keys(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flat_keys(v, f"{prefix}[{i}]", out)
    else:
        out.append(prefix)


_CONTAINERS = frozenset({dict, list})


def _flat_values(obj: object, values: List[object], shape: List[object]) -> None:
    """A record's leaf values in leaf order, and its shape: the dict keys and
    list lengths met, and None for each leaf outside a list of plain values.
    Records of one shape have the same column keys."""
    if isinstance(obj, dict):
        shape.append(tuple(obj))
        for v in obj.values():
            _flat_values(v, values, shape)
    elif isinstance(obj, list):
        shape.append(len(obj))
        if _CONTAINERS.isdisjoint(map(type, obj)):
            values.extend(obj)
        else:
            for v in obj:
                _flat_values(v, values, shape)
    else:
        shape.append(None)
        values.append(obj)


def run_sweep(scenario: Scenario, fmt: str) -> str:
    _require("sweep", ("sweep",), scenario)
    base = emit_scenario(scenario)
    base.pop("sweep", None)
    params = scenario.sweep.parameters
    # A point is the base document with its swept values set (`_set_path`);
    # only the swept top-level sections are read again (`read_point`).
    swept = tuple(dict.fromkeys(p.path.split(".")[0] for p in params))
    # The last map built, keyed by the swept ones among the sections a map
    # reads (the carrier and each row's of `STAGES`), the LTE cell without
    # its neighbors: a map is a read-only value, so points with equal inputs
    # share it, and a sweep over those inputs holds one map at a time.
    map_keys = [key for key in dict.fromkeys(("carrier", *(stage.section for stage in STAGES)))
                if key in swept]
    last_map: Dict[tuple, MrssCategoryMap] = {}

    def maps(point: Scenario) -> MrssCategoryMap:
        serving = None if point.lte is None else replace(point.lte, neighbors=())
        key = tuple(serving if k == "lte" else getattr(point, k) for k in map_keys)
        cmap = last_map.get(key)
        if cmap is None:
            last_map.clear()
            cmap = last_map[key] = build_map(point)
        return cmap

    command = scenario.sweep.command
    report = REPORTS[command]
    # Column keys per record shape, formatted once per sweep.
    keys_of: Dict[tuple, List[str]] = {}
    records: List[Dict[str, object]] = []
    for index, combo in enumerate(itertools.product(*(p.values for p in params))):
        try:
            doc = dict(base)
            for p, v in zip(params, combo):
                _set_path(doc, p.path, v)
            point = read_point(scenario, doc, swept)
            record: Dict[str, object] = {"point": index}
            record.update({p.path: v for p, v in zip(params, combo)})
            _require(command, report.requires, point)
            result = report.record(point, maps)
            values, shape = [], []
            _flat_values(result, values, shape)
            keys = keys_of.get(tuple(shape))
            if keys is None:
                keys = []
                _flat_keys(result, "", keys)
                keys_of[tuple(shape)] = keys
            record.update(zip(keys, values))
        except GridShareError as exc:
            # Name the failing point; the error keeps its class (so its exit
            # code) and its dotted path.
            where = ", ".join(f"{p.path}={json.dumps(v)}" for p, v in zip(params, combo))
            exc.args = (f"sweep point {index} ({where}): {exc}",)
            raise
        records.append(record)

    if fmt == "json":
        return _json_text(records)
    # An md or csv cell holds a swept value other than a string as the JSON
    # text `-f json` prints.
    for record in records:
        for p in params:
            if not isinstance(record[p.path], str):
                record[p.path] = json.dumps(record[p.path])
    columns = list(dict.fromkeys(column for record in records for column in record))
    rows = [[record.get(c, "") for c in columns] for record in records]
    return render_table([Column(i, c, c) for i, c in enumerate(columns)], rows, fmt)


def _with_seed(scenario: Scenario, seed: int, sweep: bool) -> Scenario:
    """The scenario with its traffic seed overridden (`--seed`).

    For a sweep, a parameter that sets the points' traffic seed is rejected:
    the override would replace the swept values. That is `traffic.seed`,
    `traffic`, or any `traffic.*` path when the scenario has no traffic
    section, since the sweep then builds the section with its default seed.
    """
    bound(TrafficModel, "seed").read(seed, "--seed")
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


_USAGE = "usage: gridshare <command> -s PATH [-f md|csv|json] [-o PATH] [--seed N]\n"
_HELP = _USAGE + """
Resource-element-accurate LTE/5G/6G spectrum-sharing coexistence reports.

commands: {}

options:
  -h, --help           show this help and exit
  -s, --scenario PATH  path to a scenario JSON file (required)
  -f, --format FORMAT  md (default), csv or json
  -o, --output PATH    write the report to a file
  --seed N             override the traffic seed
"""
# Option spelling -> the request field it sets.
_OPTIONS = {"-s": "scenario", "--scenario": "scenario", "-f": "format", "--format": "format",
            "-o": "output", "--output": "output", "--seed": "seed"}


class _UsageError(Exception):
    """A malformed command line; the message says what is wrong."""


def _is_option(arg: str) -> bool:
    """Whether `arg` reads as an option: a dash and more, but not a negative
    integer, so that `--seed -1` takes -1 as its value."""
    return arg.startswith("-") and arg != "-" and not arg[1:].isdecimal()


def _parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command line as a namespace of command, scenario, format, output
    and seed, or None for -h/--help. Options come before or after the
    command, as `-s PATH`, `-sPATH`, `--scenario PATH` or `--scenario=PATH`;
    the last value wins. Raises _UsageError on anything else, an abbreviated
    option included."""
    args = SimpleNamespace(scenario=None, format="md", output=None, seed=None)
    words = []
    rest = iter(argv)
    for arg in rest:
        if not _is_option(arg):
            words.append(arg)
            continue
        if arg in ("-h", "--help"):
            return None
        if arg.startswith("--"):
            flag, eq, value = arg.partition("=")
            value = value if eq else None
        else:
            flag, value = arg[:2], arg[2:] or None
        name = _OPTIONS.get(flag)
        if name is None:
            raise _UsageError(f"unrecognized arguments: {arg}")
        if value is None:
            value = next(rest, None)
            if value is None or _is_option(value):
                raise _UsageError(f"argument {flag}: expected one argument")
        if name == "format" and value not in FORMATS:
            raise _UsageError(f"argument {flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, FORMATS))})")
        if name == "seed":
            try:
                value = int(value)
            except ValueError:
                raise _UsageError(f"argument {flag}: invalid int value: {value!r}") from None
        setattr(args, name, value)
    missing = []
    if not words:
        missing.append("command")
    if args.scenario is None:
        missing.append("-s/--scenario")
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if words[0] not in commands():
        raise _UsageError(f"argument command: invalid choice: {words[0]!r} "
                          f"(choose from {', '.join(map(repr, commands()))})")
    if len(words) > 1:
        raise _UsageError(f"unrecognized arguments: {' '.join(words[1:])}")
    args.command = words[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one request; returns its exit code. A malformed command line
    prints the usage and the reason to stderr and returns 2; -h/--help
    prints the help to stdout and returns 0."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        sys.stderr.write(f"{_USAGE}gridshare: error: {exc}\n")
        return 2
    if args is None:
        sys.stdout.write(_HELP.format(", ".join(commands())))
        return 0
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            document = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 1
    try:
        scenario = parse_scenario(document)
        if args.seed is not None:
            scenario = _with_seed(scenario, args.seed, sweep=args.command == "sweep")
        text = globals()[f"run_{args.command}"](scenario, args.format)
    except GridShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ScenarioError) else 2
    if not args.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """Process entry of the `gridshare` script and `python -m gridshare.cli`.

    Moves the objects start-up and import left behind (the interpreter's
    and gridshare's, ~12.7k) into the collector's permanent generation, so
    the collections of this one-shot process, the one at shutdown included,
    no longer walk them.
    `main` leaves the collector alone: library callers and tests call it
    in-process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
