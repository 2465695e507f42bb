"""The scenario format's field table, checked through documents drawn from it.

`documents` walks `gridshare.scenario.SCENARIO`: every section becomes a
strategy for objects with its required keys always and its other keys mostly,
Int keys are drawn within their bounds, and every other leaf from `LEAVES`.
Carriers stay small (at most 8 PRB and 20 ms), so no example allocates more
than a few MB.
"""

import contextlib
import copy
import functools
import io
import itertools
import json
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridshare import (
    BeamSignal,
    CarrierConfig,
    ConfigError,
    NrOverlaySet,
    PlacementError,
    ScenarioError,
    apply_nr,
    cli,
    emit_scenario,
    make_grid,
    parse_scenario,
)
from gridshare import budget, grid, lte, mrss, nr, scenario
from gridshare.mrss import ControlModeKind, Mitigation, SchedPolicy
from gridshare.scenario import NULLABLE, REQUIRED, SCENARIO, SWEEP_COMMANDS, Many, Section
from gridshare.value import Int, bound, replace

MAX_TEST_PRB = 8
MAX_COUNT = 2**31

# Valid values of every table leaf that is not an Int, by key.
LEAVES = {
    "duplex": st.sampled_from(["FDD", "TDD"]),
    "span_ms": st.sampled_from([1, 2, 5, 10, 20, 0.5]),
    "cycle": st.sampled_from(["D", "DDDSU", "DSUUU", "DDSU"]),
    "special_split": st.sampled_from([[6, 4, 4], [10, 2, 2], [12, 1, 1]]),
    "mbsfn_subframes": st.lists(st.sampled_from([1, 2, 3, 6, 7, 8, 13]), max_size=3),
    "slots": st.lists(st.integers(0, 40), max_size=3),
    "ports": st.lists(st.sampled_from([0, 1, 2, 4]), max_size=3),
    "occasions": st.lists(st.lists(st.integers(0, 12), min_size=3, max_size=3), max_size=2),
    "control_mode": st.sampled_from([k.value for k in ControlModeKind]),
    "shared_fraction": st.floats(0, 1),
    "demand_5g": st.integers(0, 2**47)
    | st.lists(st.integers(0, 5000), min_size=2, max_size=2).map(sorted),
    "demand_6g": st.integers(0, 50_000),
    "policy": st.sampled_from([p.value for p in SchedPolicy]),
    "kind": st.sampled_from(Mitigation.KINDS),
    "effectiveness": st.floats(0, 1),
    "command": st.sampled_from(SWEEP_COMMANDS),
    "path": st.sampled_from(["policy", "traffic.seed", "budget.lte_pdcch", "carrier.n_prb",
                             "mrss.control_mode"]),
    "values": st.lists(st.integers(0, 3) | st.sampled_from(["Priority5G", "Separate"]),
                       min_size=1, max_size=2),
}

# Upper bounds for Int keys beyond the table's own: the carrier stays small.
INT_CAPS = {"n_prb": MAX_TEST_PRB, "prbs": MAX_TEST_PRB + 1, "prb_start": MAX_TEST_PRB + 1,
            "prb_stop": MAX_TEST_PRB + 1}

# One single fault: a value of the wrong type, null, or out of every range.
# None of them is a valid large carrier, so a mutated document stays small.
BAD_VALUES = ["x", None, [], {}, True, 1.5, -1, MAX_COUNT]


def ints(leaf: Int, key: str):
    if leaf.choices is not None:
        return st.sampled_from(leaf.choices)
    lo = -3 if leaf.minimum is None else leaf.minimum
    hi = min(MAX_COUNT if leaf.maximum is None else leaf.maximum, INT_CAPS.get(key, MAX_COUNT))
    small = st.integers(lo, min(lo + 4, hi))
    return st.one_of(small, small, small, st.integers(lo, hi))


def strategy(kind, key: str):
    if isinstance(kind, Section):
        return section(kind)
    if isinstance(kind, Many):
        return st.lists(section(kind.section), max_size=2)
    if isinstance(kind, Int):
        return ints(kind, key)
    return LEAVES[key]


@functools.lru_cache(maxsize=None)
def section(sec: Section):
    """Objects of `sec`: each optional key present three times in four, and a
    nullable one null once in six of those."""
    rows = [(key, mode, strategy(kind, key)) for key, (kind, mode, _, _) in sec.rows.items()]

    @st.composite
    def objects(draw):
        obj = {}
        for key, mode, values in rows:
            if mode is REQUIRED or draw(st.integers(0, 3)):
                null = mode is NULLABLE and not draw(st.integers(0, 5))
                obj[key] = None if null else draw(values)
        return obj

    return objects()


def table_leaves(sec: Section, seen=None):
    """(key, leaf) of every leaf the table reaches from `sec`."""
    seen = set() if seen is None else seen
    for key, (kind, _, _, _) in sec.rows.items():
        if isinstance(kind, Many):
            kind = kind.section
        if isinstance(kind, Section):
            if kind not in seen:
                seen.add(kind)
                yield from table_leaves(kind, seen)
        else:
            yield key, kind


def nodes(doc, path=""):
    """(path, parent, key) of every value below `doc`, in error-path syntax."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        sub = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        yield sub, doc, key
        yield from nodes(value, sub)


# Valid small carriers, so that more drawn documents get past the carrier.
CARRIERS = [
    {"scs_khz": 15, "n_prb": 1, "duplex": "FDD", "span_ms": 1},
    {"scs_khz": 15, "n_prb": 6, "duplex": "FDD", "span_ms": 10},
    {"scs_khz": 30, "n_prb": 4, "duplex": "FDD", "span_ms": 2},
    {"scs_khz": 30, "n_prb": MAX_TEST_PRB, "duplex": "TDD", "span_ms": 20,
     "tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 4]}},
    {"scs_khz": 15, "n_prb": MAX_TEST_PRB, "duplex": "TDD", "span_ms": 20,
     "tdd_pattern": {"cycle": "DSUUU"}},
]


@st.composite
def coherent(draw):
    """A drawn document made to pass the rules that relate keys, mostly: it
    has one of CARRIERS, an NR period equal to the span, MBSFN subframes in
    the span, and a shared fraction and an effectiveness only where the
    control mode and the mitigation take one."""
    doc = draw(section(SCENARIO))
    carrier = doc["carrier"] = copy.deepcopy(draw(st.sampled_from(CARRIERS)))
    nr, lte, mrss, mitigation = (doc.get(key) or {} for key in ("nr", "lte", "mrss", "mitigation"))
    if nr:
        nr["period_ms"] = carrier["span_ms"]
    for cell in [lte] + lte.get("neighbors", []):
        if "mbsfn_subframes" in cell:
            cell["mbsfn_subframes"] = [sf for sf in cell["mbsfn_subframes"] if sf < carrier["span_ms"]]
    if mrss.get("control_mode") != "PartiallyOverlapping":
        mrss.pop("shared_fraction", None)
    if mitigation.get("kind") != "ReceiverCancellation":
        mitigation.pop("effectiveness", None)
    return doc


@st.composite
def mutated(draw, docs=coherent()):
    """A drawn document with one fault: a value replaced, a key removed or added."""
    doc = draw(docs)
    targets = list(nodes(doc))
    objects = [doc] + [parent[key] for _, parent, key in targets if isinstance(parent[key], dict)]
    fault = draw(st.sampled_from(["value", "remove", "add"] if targets else ["add"]))
    if fault == "add":
        draw(st.sampled_from(objects))["bogus"] = 1
        return doc
    _, parent, key = draw(st.sampled_from(targets))
    if fault == "remove" and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    return doc


documents = section(SCENARIO) | coherent() | mutated()


def resolves(doc, path: str) -> bool:
    """Whether an error path names `doc` itself (""), a value in it, or a key
    left out of one of its objects (a default is reported at its key)."""
    values = {"": doc, **{sub: parent[key] for sub, parent, key in nodes(doc)}}
    parent, _, key = path.rpartition(".")
    return path in values or isinstance(values.get(parent), dict) and "[" not in key


@pytest.fixture(autouse=True, scope="module")
def nr_counts_do_not_allocate():
    """The documents draw NR counts up to 2**31. `apply_nr` rejects too many
    occasion units before it lists them; were that lost, a drawn document
    would exhaust memory, so this module fails here first instead."""
    grid = make_grid(CarrierConfig(15, n_prb=1))
    tracemalloc.start()
    try:
        with pytest.raises(PlacementError):
            apply_nr(grid, NrOverlaySet(period_ms=1, ssb=BeamSignal(10**6, 1, 1)))
        assert tracemalloc.get_traced_memory()[1] < 1_000_000
    finally:
        tracemalloc.stop()


def test_strategy_covers_every_leaf():
    leaves = dict(table_leaves(SCENARIO))
    assert {key for key, leaf in leaves.items() if not isinstance(leaf, Int)} == set(LEAVES)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_parse_rejects_at_a_document_path_or_round_trips(doc):
    try:
        s = parse_scenario(doc)
    except ScenarioError as exc:
        assert resolves(doc, exc.path), (exc.path, str(exc))
        return
    emitted = emit_scenario(s)
    assert parse_scenario(emitted) == s
    assert parse_scenario(json.dumps(emitted)) == s


@settings(max_examples=200, deadline=None)
@given(coherent() | mutated())
def test_cli_exit_code_for_every_command(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in cli.commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "-s", path, "-f", "json"])
            assert code in (0, 1, 2), command
            assert (code == 0) == (err.getvalue() == ""), (command, err.getvalue())


# One document per message form, each with one fault in BASE, and the exact
# error text the hand-written parser gave for it.
BASE = {
    "carrier": {"scs_khz": 15, "n_prb": 273, "duplex": "TDD", "span_ms": 20,
                "tdd_pattern": {"cycle": "DDDDS", "special_split": [6, 4, 4]}},
    "lte": {"cell_id": 1, "crs_ports": 2, "pdcch_symbols": 2, "mbsfn_subframes": [3],
            "non_mbsfn_region_len": 2, "neighbors": [{"cell_id": 2}]},
    "nr": {
        "period_ms": 20,
        "ssb": {"beams": 4, "prbs": 20, "symbols": 4},
        "coreset0": {"beams": 4, "prbs": 48, "symbols": 2},
        "sib1": {"beams": 4, "prbs": 24, "symbols": 4},
        "coreset1": {"prbs": 270, "symbols": 2, "slots": None},
        "csi_rs": {"ports": 32, "density_re_per_port_per_prb": 1, "prbs": 272,
                   "occasions_per_period": 1},
        "trs": {"prbs": 52, "slots_per_occasion": 2, "re_per_prb_per_slot": 6, "beams": 4,
                "occasions_per_period": 2},
    },
    "budget": {"lte_pdcch": 2, "nr_pdcch": 1, "dmrs_count": 2, "ports": [1, 2, 4]},
    "mrss": {
        "control_mode": "PartiallyOverlapping",
        "shared_fraction": 0.5,
        "iot_reservations": [{"prb_start": 0, "prb_stop": 2, "slots": [0, 1]}],
        "sixg_ssb": {"occasions": [[10, 2, 100]], "prbs": 20, "symbols": 4},
    },
    "traffic": {"demand_5g": [0, 1000], "demand_6g": 500, "seed": 3},
    "policy": "Priority6G",
    "mitigation": {"kind": "ReceiverCancellation", "effectiveness": 0.5},
    "seed": 9,
    "sweep": {"command": "simulate",
              "parameters": [{"path": "policy", "values": ["Priority5G", "Priority6G"]}]},
}
DELETE = object()

GOLDEN = [
    ("", [1], "expected an object, got list"),
    ("carrier", None, "carrier: expected an object, got NoneType"),
    ("bogus", 1, "bogus: unknown key 'bogus'"),
    ("carrier.bandwidth", 20, "carrier.bandwidth: unknown key 'bandwidth'"),
    ("carrier", DELETE, "missing required key 'carrier'"),
    ("carrier.n_prb", DELETE, "carrier: missing required key 'n_prb'"),
    ("carrier.n_prb", "x", "carrier.n_prb: expected an integer, got 'x'"),
    ("carrier.n_prb", 0, "carrier.n_prb: must be >= 1, got 0"),
    ("carrier.n_prb", 276, "carrier.n_prb: must be <= 275, got 276"),
    ("carrier.scs_khz", 20, "carrier.scs_khz: must be one of [15, 30], got 20"),
    ("carrier.duplex", "XDD", "carrier.duplex: must be 'FDD' or 'TDD', got 'XDD'"),
    ("carrier.span_ms", "1", "carrier.span_ms: expected a number, got '1'"),
    ("carrier.span_ms", 10241, "carrier.span_ms: must be finite and at most 10240 ms, got 10241"),
    ("carrier.tdd_pattern.cycle", "DDX",
     "carrier.tdd_pattern.cycle: cycle must be a non-empty string over D/S/U, got 'DDX'"),
    ("carrier.tdd_pattern.special_split", [6, 4],
     "carrier.tdd_pattern.special_split: special_split must be a list of three integers"),
    ("carrier.tdd_pattern.special_split", [6, 4, 3],
     "carrier.tdd_pattern: special_split must sum to 14, got 13"),
    ("carrier.tdd_pattern", DELETE, "carrier: TDD carrier requires a tdd_pattern"),
    ("carrier.span_ms", 3, "carrier: TDD span of 3 slots is not a whole number of 5-slot cycles"),
    ("carrier.span_ms", 0.25,
     "carrier: span_ms x slots_per_ms must be a positive integer slot count, got 0.25"),
    ("lte.crs_ports", 3, "lte.crs_ports: must be one of [1, 2, 4], got 3"),
    ("lte.mbsfn_subframes", [1, -1], "lte.mbsfn_subframes: must be a list of non-negative integers"),
    ("lte.mbsfn_subframes", [30],
     "lte.mbsfn_subframes: subframe 30 is outside the 20-subframe carrier span"),
    ("lte.mbsfn_subframes", [10],
     "lte.mbsfn_subframes: subframe 10 cannot carry MBSFN on TDD: only subframes "
     "[3, 4, 7, 8, 9] mod 10 can (TS 36.331)"),
    ("lte.mbsfn_subframes", [4],
     "lte.mbsfn_subframes: subframe 4 cannot carry MBSFN: the TDD pattern makes it special"),
    ("lte.neighbors", 5, "lte.neighbors: must be a list"),
    ("lte.neighbors", [7], "lte.neighbors[0]: expected an object, got int"),
    ("lte.neighbors", [{"neighbors": []}], "lte.neighbors[0].neighbors: unknown key 'neighbors'"),
    ("nr.ssb.beams", DELETE, "nr.ssb: missing required key 'beams'"),
    ("budget.ports", [3], "budget.ports: must be a list drawn from [0, 1, 2, 4]"),
    ("budget.lte_pdcch", 4, "budget.lte_pdcch: must be <= 3, got 4"),
    ("mrss.control_mode", "Shared",
     "mrss.control_mode: must be one of ['FullyOverlapping', 'PartiallyOverlapping', "
     "'Separate'], got 'Shared'"),
    ("mrss.shared_fraction", "half", "mrss.shared_fraction: must be a number in [0, 1]"),
    ("mrss.shared_fraction", DELETE,
     "mrss.control_mode: PartiallyOverlapping needs shared_fraction in [0, 1]"),
    ("mrss.control_mode", "Separate", "mrss.control_mode: Separate takes no shared_fraction"),
    ("mrss.iot_reservations", {"prb_start": 0}, "mrss.iot_reservations: must be a list"),
    ("mrss.iot_reservations", [{"prb_start": 5, "prb_stop": 300}],
     "mrss.iot_reservations[0]: PRB range (5, 300) out of bounds for a 273-PRB carrier"),
    ("mrss.iot_reservations", [{"prb_start": 0, "prb_stop": 1, "slots": [99]}],
     "mrss.iot_reservations[0].slots: slot 99 out of range for a 20-slot carrier"),
    ("mrss.sixg_ssb.occasions", [[1, 2]],
     "mrss.sixg_ssb.occasions: must be a list of [slot, symbol, prb] triples"),
    ("mrss.sixg_ssb.prbs", 9999, "mrss.sixg_ssb.prbs: must be <= 273, got 9999"),
    ("mrss.sixg_ssb.symbols", 15, "mrss.sixg_ssb.symbols: must be <= 14, got 15"),
    ("mrss.sixg_ssb.occasions", [[10, 12, 100]],
     "mrss.sixg_ssb.occasions[0]: 6G SSB occasion (10, 12, 100) out of range: a 20-PRB, "
     "4-symbol block on a 20-slot, 273-PRB carrier"),
    ("traffic.demand_5g", "lots", "traffic.demand_5g: must be an int or a (lo, hi) pair"),
    ("traffic.demand_5g", [5, 1],
     "traffic.demand_5g: range must be (lo, hi) ints with 0 <= lo <= hi"),
    ("traffic.demand_6g", 2**47 + 1,
     "traffic.demand_6g: must not exceed 2**47 = 140737488355328 REs per slot, "
     "got 140737488355329"),
    ("traffic.demand_6g", -1, "traffic.demand_6g: must be >= 0"),
    ("traffic.seed", -1, "traffic.seed: must be >= 0, got -1"),
    ("policy", "RoundRobin",
     "policy: must be one of ['Priority5G', 'Priority6G', 'ProportionalShare'], got 'RoundRobin'"),
    ("mitigation.kind", "Shout", "mitigation: unknown mitigation 'Shout'"),
    ("mitigation.effectiveness", 1.5,
     "mitigation: ReceiverCancellation needs effectiveness in [0, 1]"),
    ("mitigation.kind", "SymbolLevelMute", "mitigation: SymbolLevelMute takes no effectiveness"),
    ("seed", "x", "seed: expected an integer, got 'x'"),
    ("sweep.command", "fly", "sweep.command: unknown sweep command 'fly'"),
    ("sweep.parameters", 5, "sweep.parameters: must be a list"),
    ("sweep.parameters", [{"path": "", "values": [1]}],
     "sweep.parameters[0].path: must be a non-empty dotted path"),
    ("sweep.parameters", [{"path": "policy", "values": []}],
     "sweep.parameters[0].values: must be a non-empty list"),
    ("nr.period_ms", 10, "nr.period_ms: overlay period 10 ms != carrier span 20 ms"),
    ("nr.csi_rs.prbs", 274, "nr.csi_rs.prbs: CSI-RS spans 274 PRBs > carrier 273"),
    ("sweep.parameters", [{"path": "policy", "values": [1]}, {"path": "policy", "values": [2]}],
     "sweep.parameters[1].path: 'policy' overlaps 'policy' of sweep.parameters[0]"),
    ("sweep.parameters", [{"path": "nr.ssb.beams", "values": [1]}, {"path": "nr", "values": [{}]}],
     "sweep.parameters[1].path: 'nr' overlaps 'nr.ssb.beams' of sweep.parameters[0]"),
    ("sweep.parameters", [{"path": "nr..beams", "values": [1]}],
     "sweep.parameters[0].path: must be a non-empty dotted path"),
]


def with_fault(path: str, value):
    doc = copy.deepcopy(BASE)
    if path == "":
        return value
    *parents, last = path.split(".")
    node = functools.reduce(lambda n, p: n[p], parents, doc)
    if value is DELETE:
        del node[last]
    else:
        node[last] = copy.deepcopy(value)
    return doc


def test_base_document_is_valid():
    assert parse_scenario(BASE) == parse_scenario(emit_scenario(parse_scenario(BASE)))


@pytest.mark.parametrize("path, value, message", GOLDEN,
                         ids=[f"{i}-{path or 'document'}" for i, (path, _, _) in enumerate(GOLDEN)])
def test_single_fault_message(path, value, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(with_fault(path, value))
    assert str(err.value) == message


def table_reads(doc) -> bool:
    """Whether the table reads the document (`check_scenario` aside)."""
    try:
        SCENARIO.read(doc, "")
    except ScenarioError:
        return False
    return True


# The rows whose fault is a section that does not fit the carrier: the
# table reads the document, and the section's `misfits` rejects it.
CARRIER_FIT_PATHS = ("lte.mbsfn_subframes", "nr.period_ms", "nr.csi_rs.prbs", "mrss.iot_reservations[0]",
                     "mrss.iot_reservations[0].slots", "mrss.sixg_ssb.occasions[0]")
CARRIER_FIT = [(path, value, message) for path, value, message in GOLDEN
               if message.partition(": ")[0] in CARRIER_FIT_PATHS and table_reads(with_fault(path, value))]


@pytest.mark.parametrize("path, value, message", CARRIER_FIT,
                         ids=[f"{i}-{path}" for i, (path, _, _) in enumerate(CARRIER_FIT)])
def test_a_writer_raises_what_the_reader_reports(path, value, message):
    """The `cli.STAGES` rows of the faulty section, run on the section as
    the table reads it, raise the text the CLI prints after `<path>: ` as a
    ConfigError."""
    assert {m.partition(": ")[0] for _, _, m in CARRIER_FIT} == set(CARRIER_FIT_PATHS)
    at, _, text = message.partition(": ")
    section = at.split(".")[0]
    read = SCENARIO.read(with_fault(path, value), "")
    labels = grid.new_labels(read.carrier)
    with pytest.raises(ConfigError) as err:
        for stage in cli.STAGES:
            if stage.section == section:
                stage.write(labels, read.carrier, getattr(read, section))
    assert type(err.value) is ConfigError and str(err.value) == text


def int_keys(sec: Section, path: str = "", attrs: tuple = ()):
    """(document path, attributes of its owner in the parsed scenario, owner
    class, field, bound) of every Int key the table reaches from `sec`; the
    first object of a list stands for all of them."""
    for key, (kind, _, part, name) in sec.rows.items():
        at = f"{path}.{key}" if path else key
        if isinstance(kind, Many):
            yield from int_keys(kind.section, f"{at}[0]", attrs + (name, 0))
        elif isinstance(kind, Section):
            yield from int_keys(kind, at, attrs + (name,))
        elif isinstance(kind, Int):
            yield at, attrs + (part,) if part else attrs, sec.parts.get(part, sec.build), name, kind


def outside(leaf: Int):
    """Integers just outside the bound: below, above and between its choices."""
    if leaf.minimum is not None:
        yield leaf.minimum - 1
    if leaf.maximum is not None:
        yield leaf.maximum + 1
    if leaf.choices is not None:
        yield from {min(leaf.choices) - 1, max(leaf.choices) + 1,
                    *(set(range(min(leaf.choices), max(leaf.choices))) - set(leaf.choices))}


def test_every_int_key_reads_the_bound_its_class_declares():
    """The table names no integer bound of its own: each Int key holds its
    field's bound object, and every bound a value class declares is read."""
    keys = list(int_keys(SCENARIO))
    for path, _, cls, name, leaf in keys:
        assert leaf is bound(cls, name), path
    classes = [obj for module in (grid, lte, nr, budget, mrss, scenario) for obj in vars(module).values()
               if isinstance(obj, type) and "__value_spec__" in vars(obj)]
    declared = {(cls, name) for cls in classes for name in cls.__value_spec__.bounds}
    assert {(cls, name) for _, _, cls, name, _ in keys} == declared


def test_a_bound_gives_one_message_to_the_constructor_and_the_reader():
    """For every Int key of BASE, a value just outside its field's bound fails
    the constructor with "<field> <message>" and the parse with "<path>: <message>"."""
    base = parse_scenario(BASE)
    tried = set()
    for path, attrs, cls, name, _ in int_keys(SCENARIO):
        owner = functools.reduce(lambda o, a: o[a] if isinstance(a, int) else getattr(o, a), attrs, base)
        assert type(owner) is cls, path
        *parents, last = [int(p) if p.isdigit() else p for p in re.findall(r"[^.\[\]]+", path)]
        for v in outside(bound(cls, name)):
            tried.add(path)
            with pytest.raises(ConfigError) as made:
                replace(owner, **{name: v})
            field, _, message = str(made.value).partition(" ")
            assert field == name and message, (path, v)
            doc = copy.deepcopy(BASE)
            functools.reduce(lambda n, p: n[p], parents, doc)[last] = v
            with pytest.raises(ScenarioError) as read:
                parse_scenario(doc)
            assert (read.value.path, str(read.value)) == (path, f"{path}: {message}")
    assert {path for path, *_ in int_keys(SCENARIO)} - tried == {"seed"}  # any integer is a seed


def table_paths(sec: Section, prefix: str = ""):
    """(dotted path, key, type) of every key reachable through objects only,
    the paths a sweep parameter can name."""
    for key, (kind, _, _, _) in sec.rows.items():
        path = f"{prefix}.{key}" if prefix else key
        yield path, key, kind
        if isinstance(kind, Section):
            yield from table_paths(kind, path)


# Paths the table does not have: an unknown section or key, and one through a string.
ODD_PATHS = [("bogus", "bogus", None), ("bogus.x", "x", None), ("traffic.bogus", "bogus", None),
             ("policy.x", "x", None), ("carrier.tdd_pattern.extra", "extra", None)]
SWEEP_PATHS = list(table_paths(SCENARIO)) + ODD_PATHS


@st.composite
def swept_parameters(draw):
    """1-3 sweep parameters over table paths, each value valid for its key
    three times in four, else one of BAD_VALUES."""
    params = []
    for _ in range(draw(st.integers(1, 3))):
        path, key, kind = draw(st.sampled_from(SWEEP_PATHS))
        valid = strategy(kind, key) if kind is not None else st.integers(0, 3)
        values = st.one_of(valid, valid, valid, st.sampled_from(BAD_VALUES).map(copy.deepcopy))
        params.append({"path": path, "values": draw(st.lists(values, min_size=1, max_size=3))})
    return params


def spy_report(got):
    """The `classify` report with a record that appends each point to `got`."""
    return cli.REPORTS["classify"]._replace(record=lambda point, maps: got.append(point))


def full_parse_points(scenario):
    """The points of a sweep as full parses of each point's document, and
    the error of the first failing point, as `run_sweep` names it."""
    base = json.loads(json.dumps(emit_scenario(scenario)))
    base.pop("sweep")
    params = scenario.sweep.parameters
    points = []
    for index, combo in enumerate(itertools.product(*(p.values for p in params))):
        doc = json.loads(json.dumps(base))
        try:
            for p, v in zip(params, combo):
                cli._set_path(doc, p.path, v)
            points.append(parse_scenario(doc))
        except ScenarioError as exc:
            swept = ", ".join(f"{p.path}={json.dumps(v)}" for p, v in zip(params, combo))
            return points, (f"sweep point {index} ({swept}): {exc}", exc.path)
    return points, None


@settings(max_examples=300, deadline=None)
@given(st.just(BASE) | coherent(), swept_parameters())
def test_sweep_points_equal_full_parses_of_their_documents(base_doc, params):
    """run_sweep reads only the swept sections of each point; every point
    equals a full parse of its document, and the first failing point fails
    with the same text and path."""
    doc = dict(base_doc, sweep={"command": "classify", "parameters": params})
    try:
        parse_scenario(doc)
    except ScenarioError:
        assume(False)
    # Each route gets its own copy of the document, so that neither route
    # can pass by reading what the other wrote.
    want, want_error = full_parse_points(parse_scenario(copy.deepcopy(doc)))
    got, got_error = [], None
    with mock.patch.dict(cli.REPORTS, classify=spy_report(got)):
        try:
            cli.run_sweep(parse_scenario(copy.deepcopy(doc)), "json")
        except ScenarioError as exc:
            got_error = (str(exc), exc.path)
    assert got_error == want_error
    assert got == want


def test_a_point_writes_only_into_its_own_copies():
    # A path that runs through the object an earlier path set (here
    # mrss.sixg_ssb.prbs after mrss.sixg_ssb) would write into the swept
    # value itself; such overlapping paths are rejected at parse time.
    params = [{"path": "mrss.sixg_ssb", "values": [{"occasions": []}]},
              {"path": "mrss.sixg_ssb.prbs", "values": [4, 5]}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(dict(BASE, sweep={"command": "classify", "parameters": params}))
    assert err.value.path == "sweep.parameters[1].path"
    # Sibling paths run through one object of the base document, which each
    # point copies before it writes.
    base = {"mrss": {"sixg_ssb": {"prbs": 20, "symbols": 4}}}
    point = dict(base)
    cli._set_path(point, "mrss.sixg_ssb.prbs", 4)
    cli._set_path(point, "mrss.sixg_ssb.symbols", 2)
    assert base == {"mrss": {"sixg_ssb": {"prbs": 20, "symbols": 4}}}
    assert point == {"mrss": {"sixg_ssb": {"prbs": 4, "symbols": 2}}}
    params = [{"path": "mrss.sixg_ssb.prbs", "values": [4, 5]},
              {"path": "mrss.sixg_ssb.symbols", "values": [2, 3]}]
    doc = dict(BASE, sweep={"command": "classify", "parameters": params})
    want, want_error = full_parse_points(parse_scenario(copy.deepcopy(doc)))
    got = []
    with mock.patch.dict(cli.REPORTS, classify=spy_report(got)):
        cli.run_sweep(parse_scenario(copy.deepcopy(doc)), "json")
    assert want_error is None
    assert [(p.mrss.sixg_ssb.prbs, p.mrss.sixg_ssb.symbols) for p in got] == [
        (4, 2), (4, 3), (5, 2), (5, 3)]
    assert got == want
