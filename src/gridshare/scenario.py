"""Scenario wire format: strict JSON parsing, validation, and re-emission.

One table, `SCENARIO`, gives every key's JSON type and whether it is
required; `parse_scenario` reads a document by it and `emit_scenario` writes
one. Each section reads straight into one value whose fields are its keys,
but for the `parts` of `budget` and `mrss`. A key left out is not passed on,
so defaults live in the value classes, and so do integer bounds: an `int`
row is read against the bound its field's class declares.
Unknown keys are rejected; every error carries a dotted path into the document.
Each section that must fit the carrier (`FITTED`) has one `misfits(carrier)`:
`check_scenario` reports its first fault at `<section>.<key>`, and the
section's writers raise the same message as a ConfigError.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from typing import Iterator, Optional, Tuple, Union

from .budget import DssLayout
from .errors import ConfigError, ScenarioError
from .grid import SYMBOLS_PER_SLOT, CarrierConfig, TddPattern
from .lte import LteCellConfig
from .mrss import (
    ControlMode,
    ControlModeKind,
    Mitigation,
    SchedPolicy,
    TrafficModel,
    check_demand,
    prb_range_fault,
    slots_fault,
    ssb_occasion_fault,
)
from .nr import BeamSignal, Coreset1Spec, CsiRsSpec, NrOverlaySet, TrsSpec
from .value import Int, bound, value

MAX_SPAN_MS = 10240  # 1024 radio frames: one SFN cycle
SWEEP_COMMANDS = ("budget", "overhead", "classify", "simulate", "interference")


@value(prb_start=Int(0), prb_stop=Int(0))
class IotReservation:
    prb_start: int
    prb_stop: int
    slots: Optional[Tuple[int, ...]] = None


@value(prbs=Int(1), symbols=Int(1))  # the block's upper bounds: MrssSpec.misfits
class SixgSsbSpec:
    occasions: Tuple[Tuple[int, int, int], ...]
    prbs: int = 20
    symbols: int = 4


@value
class MrssSpec:
    control_mode: ControlMode = ControlMode()
    iot_reservations: Tuple[IotReservation, ...] = ()
    sixg_ssb: Optional[SixgSsbSpec] = None

    def misfits(self, carrier: CarrierConfig) -> Iterator[Tuple[str, str]]:
        """(dotted key, message) of each IoT reservation and 6G SSB block off the carrier, in key order."""
        for i, r in enumerate(self.iot_reservations):
            if message := prb_range_fault(carrier, r.prb_start, r.prb_stop):
                yield f"iot_reservations[{i}]", message
            if message := slots_fault(carrier, r.slots):
                yield f"iot_reservations[{i}].slots", message
        if (ssb := self.sixg_ssb) is not None:
            for key, top in (("prbs", carrier.n_prb), ("symbols", SYMBOLS_PER_SLOT)):
                if message := Int(maximum=top).fault(getattr(ssb, key)):
                    yield f"sixg_ssb.{key}", message
            for j, occasion in enumerate(ssb.occasions):
                if message := ssb_occasion_fault(carrier, occasion, ssb.prbs, ssb.symbols):
                    yield f"sixg_ssb.occasions[{j}]", message


@value
class BudgetSpec:
    layout: DssLayout = DssLayout()
    ports: Tuple[int, ...] = (1, 2, 4)


@value
class SweepParameter:
    path: str
    values: Tuple[object, ...]


@value
class SweepSpec:
    command: str
    parameters: Tuple[SweepParameter, ...]


@value(seed=Int())
class Scenario:
    carrier: CarrierConfig
    lte: Optional[LteCellConfig] = None
    nr: Optional[NrOverlaySet] = None
    budget: BudgetSpec = BudgetSpec()
    mrss: Optional[MrssSpec] = None
    traffic: Optional[TrafficModel] = None
    policy: Optional[SchedPolicy] = None
    mitigation: Optional[Mitigation] = None
    seed: int = 0
    sweep: Optional[SweepSpec] = None


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _call(path: str, fn, /, *args, **kwargs):
    """fn(*args, **kwargs), its ConfigError re-raised as a ScenarioError at `path`."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        raise ScenarioError(str(exc), path) from exc


def _json(v):
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, frozenset):
        return sorted(v)
    if isinstance(v, tuple):
        return [_json(x) for x in v]
    return v


# How a key may be left out: a REQUIRED key must be present, an OPTIONAL one
# may be left out, and a NULLABLE one may also be null, which reads as left out.
REQUIRED, OPTIONAL, NULLABLE = "required", "optional", "nullable"


class Leaf:
    """A JSON value that is not an object: `test` accepts it, or the error is
    `message` formatted with the value; `convert` reads it (its ConfigError
    names the key) and `write` writes it back."""

    def __init__(self, test=None, message="", convert=None, write=_json):
        self.test, self.message, self.convert, self.write = test, message, convert, write

    def read(self, v, path: str):
        if self.test is not None and not self.test(v):
            raise ScenarioError(self.message.format(v), path)
        return v if self.convert is None else _call(path, self.convert, v)


class Section:
    """A JSON object read into `build(**arguments)`.

    A row is (key, type, mode[, argument]) with an int, Leaf, Section or Many
    type; the argument (the key by default) is what the key fills, or
    "part.name" for `name` of the `parts[part]` value, whose ConfigError
    names the key `part` if there is one, else the section. An int key is
    read against the `Int` bound of the field it fills, which `rows` holds."""

    def __init__(self, build, rows, parts=None):
        self.build, self.parts = build, parts or {}
        self.rows = {}
        for key, kind, mode, *arg in rows:
            part, _, name = (arg[0] if arg else key).rpartition(".")
            if kind is int:
                kind = bound(self.parts[part] if part else build, name)
            self.rows[key] = (kind, mode, part, name)
        self.required = [key for key, (_, mode, _, _) in self.rows.items() if mode is REQUIRED]

    def read(self, obj, path: str, known=None):
        """`build` of the object; a key in `known` takes its value from there."""
        if not isinstance(obj, dict):
            raise ScenarioError(f"expected an object, got {type(obj).__name__}", path)
        for key in obj:
            if key not in self.rows:
                raise ScenarioError(f"unknown key {key!r}", _at(path, key))
        for key in self.required:
            if key not in obj:
                raise ScenarioError(f"missing required key {key!r}", path)
        args = {}
        for key, (kind, mode, part, name) in self.rows.items():
            if key in obj and not (mode is NULLABLE and obj[key] is None):
                v = known[key] if known and key in known else kind.read(obj[key], _at(path, key))
                (args.setdefault(part, {}) if part else args)[name] = v
        for part, build in self.parts.items():
            if part in args:
                at = _at(path, part) if part in self.rows else path
                args[part] = _call(at, build, **args[part])
        return _call(path, self.build, **args)

    def write(self, obj) -> dict:
        doc = {}
        for key, (kind, mode, part, name) in self.rows.items():
            v = getattr(getattr(obj, part) if part else obj, name)
            # null and an empty optional list of objects both read as left out
            if v is not None and not (v == () and mode is OPTIONAL and isinstance(kind, Many)):
                doc[key] = kind.write(v)
        return doc


class Many:
    """A JSON list of objects of one section, read as a tuple."""

    def __init__(self, section: Section):
        self.section = section

    def read(self, v, path: str) -> tuple:
        if not isinstance(v, list):
            raise ScenarioError("must be a list", path)
        return tuple(self.section.read(x, f"{path}[{i}]") for i, x in enumerate(v))

    def write(self, v) -> list:
        return [self.section.write(x) for x in v]


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _int_list(message: str, length=None, minimum=None, choices=None) -> Leaf:
    return Leaf(lambda v: isinstance(v, list) and (length is None or len(v) == length) and all(
        isinstance(x, int) and not isinstance(x, bool) and (minimum is None or x >= minimum)
        and (choices is None or x in choices) for x in v), message, tuple)


def _enum(cls) -> Leaf:
    values = [member.value for member in cls]
    return Leaf(lambda v: v in values, f"must be one of {values}, got {{!r}}", cls)


def _finite_span(span):
    if not -math.inf < span <= MAX_SPAN_MS:  # also rejects NaN
        raise ConfigError(f"must be finite and at most {MAX_SPAN_MS} ms, got {span!r}")
    return span


_CYCLE = Leaf(lambda v: v and isinstance(v, str) and set(v) <= set("DSU"),
              "cycle must be a non-empty string over D/S/U, got {!r}",
              write=lambda cycle: "".join(_json(cycle)))
_TRIPLE = _int_list("special_split must be a list of three integers", length=3)
CARRIER = Section(CarrierConfig, [
    ("scs_khz", int, REQUIRED),
    ("n_prb", int, REQUIRED),
    ("duplex", Leaf(lambda v: v in ("FDD", "TDD"), "must be 'FDD' or 'TDD', got {!r}"), REQUIRED),
    ("span_ms", Leaf(_is_real, "expected a number, got {!r}", _finite_span), REQUIRED),
    ("tdd_pattern", Section(TddPattern, [
        ("cycle", _CYCLE, REQUIRED),
        ("special_split", _TRIPLE, OPTIONAL),
    ]), NULLABLE),
])
_SUBFRAMES = _int_list("must be a list of non-negative integers", minimum=0)
_CELL = [
    ("cell_id", int, OPTIONAL),
    ("crs_ports", int, OPTIONAL),
    ("pdcch_symbols", int, OPTIONAL),
    ("mbsfn_subframes", _SUBFRAMES, OPTIONAL),
    ("non_mbsfn_region_len", int, OPTIONAL),
]
# Only the serving cell lists neighbors.
LTE = Section(LteCellConfig, _CELL + [
    ("neighbors", Many(Section(LteCellConfig, _CELL)), OPTIONAL),
])
BEAM = Section(BeamSignal, [(key, int, REQUIRED) for key in ("beams", "prbs", "symbols")])
CORESET1 = Section(Coreset1Spec, [("prbs", int, REQUIRED), ("symbols", int, REQUIRED),
                                  ("slots", int, NULLABLE)])
NR = Section(NrOverlaySet, [
    ("period_ms", int, REQUIRED),
    ("ssb", BEAM, NULLABLE), ("coreset0", BEAM, NULLABLE), ("sib1", BEAM, NULLABLE),
    ("coreset1", CORESET1, NULLABLE),
    ("csi_rs", Section(CsiRsSpec, [(key, int, REQUIRED) for key in (
        "ports", "density_re_per_port_per_prb", "prbs", "occasions_per_period")]), NULLABLE),
    ("trs", Section(TrsSpec, [(key, int, REQUIRED) for key in (
        "prbs", "slots_per_occasion", "re_per_prb_per_slot", "beams", "occasions_per_period")]),
     NULLABLE),
])
BUDGET = Section(BudgetSpec, [
    ("lte_pdcch", int, OPTIONAL, "layout.lte_pdcch"),
    ("nr_pdcch", int, OPTIONAL, "layout.nr_pdcch"),
    ("dmrs_count", int, OPTIONAL, "layout.dmrs_count"),
    ("ports", _int_list("must be a list drawn from [0, 1, 2, 4]", choices=(0, 1, 2, 4)), OPTIONAL),
], parts={"layout": DssLayout})
_FRACTION = Leaf(_is_real, "must be a number in [0, 1]")
_OCCASIONS = Leaf(lambda v: isinstance(v, list) and all(_TRIPLE.test(o) for o in v),
                  "must be a list of [slot, symbol, prb] triples", lambda v: tuple(map(tuple, v)))
MRSS = Section(MrssSpec, [
    ("control_mode", _enum(ControlModeKind), OPTIONAL, "control_mode.kind"),
    ("shared_fraction", _FRACTION, NULLABLE, "control_mode.shared_fraction"),
    ("iot_reservations", Many(Section(IotReservation, [
        ("prb_start", int, REQUIRED),
        ("prb_stop", int, REQUIRED),
        ("slots", _SUBFRAMES, NULLABLE),
    ])), OPTIONAL),
    ("sixg_ssb", Section(SixgSsbSpec, [
        ("occasions", _OCCASIONS, REQUIRED),
        ("prbs", int, OPTIONAL),
        ("symbols", int, OPTIONAL),
    ]), NULLABLE),
], parts={"control_mode": ControlMode})
_DEMAND = Leaf(convert=check_demand)
MITIGATION = Section(Mitigation, [("kind", Leaf(), REQUIRED),
                                  ("effectiveness", _FRACTION, NULLABLE)])
SCENARIO = Section(Scenario, [
    ("carrier", CARRIER, REQUIRED),
    ("lte", LTE, NULLABLE),
    ("nr", NR, NULLABLE),
    ("budget", BUDGET, NULLABLE),
    ("mrss", MRSS, NULLABLE),
    ("traffic", Section(TrafficModel, [
        ("demand_5g", _DEMAND, REQUIRED),
        ("demand_6g", _DEMAND, REQUIRED),
        ("seed", int, OPTIONAL),
    ]), NULLABLE),
    ("policy", _enum(SchedPolicy), NULLABLE),
    ("mitigation", MITIGATION, NULLABLE),
    ("seed", int, OPTIONAL),
    ("sweep", Section(SweepSpec, [
        ("command", Leaf(lambda v: v in SWEEP_COMMANDS, "unknown sweep command {!r}"), REQUIRED),
        ("parameters", Many(Section(SweepParameter, [
            ("path", Leaf(lambda v: isinstance(v, str) and all(v.split(".")),
                          "must be a non-empty dotted path"),
             REQUIRED),
            ("values", Leaf(lambda v: v and isinstance(v, list), "must be a non-empty list", tuple),
             REQUIRED),
        ])), REQUIRED),
    ]), NULLABLE),
])


FITTED = ("lte", "nr", "mrss")


def check_scenario(scenario: Scenario, sections=FITTED) -> Scenario:
    """The scenario, after the checks that relate its sections (those of
    `sections`) to the carrier and its sweep paths to each other."""
    for section in sections:
        spec = getattr(scenario, section)
        if spec is not None:
            for key, message in spec.misfits(scenario.carrier):
                raise ScenarioError(message, _at(section, key) if key else section)
    if scenario.sweep is not None:
        # Paths overlap, so a point would set one value over the other, when
        # one of them with a "." appended starts the other with one appended.
        paths = [p.path + "." for p in scenario.sweep.parameters]
        for j, path in enumerate(paths):
            for i, other in enumerate(paths[:j]):
                if path.startswith(other) or other.startswith(path):
                    raise ScenarioError(f"{path[:-1]!r} overlaps {other[:-1]!r} of sweep.parameters[{i}]",
                                        f"sweep.parameters[{j}].path")
    return scenario


def parse_scenario(document: Union[str, dict]) -> Scenario:
    """Parse and fully validate a scenario document (JSON text or dict)."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        except (ValueError, RecursionError) as exc:  # an over-long integer, too deep a nesting
            raise ScenarioError(f"invalid JSON: {exc}") from None
    return check_scenario(SCENARIO.read(document, ""))


def read_point(base: Scenario, document: dict, swept) -> Scenario:
    """`parse_scenario(document)` for a document that is `emit_scenario(base)`
    with values set under the top-level keys `swept` (a sweep point): only
    those keys are read, the others keep base's values, and only the swept
    sections are fitted to the carrier, all of them when the carrier is
    swept. The others fit it in base, so errors are those of a full parse."""
    known = {key: getattr(base, key) for key in SCENARIO.rows if key not in swept}
    sections = FITTED if "carrier" in swept else [s for s in FITTED if s in swept]
    return check_scenario(SCENARIO.read(document, "", known), sections)


def emit_scenario(scenario: Scenario) -> dict:
    """Canonical JSON-ready dict; parse_scenario(emit_scenario(s)) == s."""
    return SCENARIO.write(scenario)
