"""Scenario wire format: strict JSON parsing, validation, and re-emission.

Unknown keys are rejected so typos fail loudly; every validation error
carries a dotted path into the document.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .budget import DssLayout
from .errors import ConfigError, ScenarioError
from .grid import SYMBOLS_PER_SLOT, CarrierConfig, Numerology, SlotKind, TddPattern
from .lte import MBSFN_ALLOWED, LteCellConfig
from .mrss import (
    ControlMode,
    ControlModeKind,
    Mitigation,
    SchedPolicy,
    TrafficModel,
    check_demand,
    check_prb_range,
    check_slots,
    check_ssb_occasion,
)
from .nr import BeamSignal, Coreset1Spec, CsiRsSpec, NrOverlaySet, TrsSpec
from .value import value

MAX_N_PRB = 275  # NR's widest carrier, TS 38.211 §4.4.2
MAX_SPAN_MS = 10240  # 1024 radio frames: one SFN cycle


@value
class IotReservation:
    prb_start: int
    prb_stop: int
    slots: Optional[Tuple[int, ...]] = None


@value
class SixgSsbSpec:
    occasions: Tuple[Tuple[int, int, int], ...]
    prbs: int = 20
    symbols: int = 4


@value
class MrssSpec:
    control_mode: ControlMode = ControlMode()
    iot_reservations: Tuple[IotReservation, ...] = ()
    sixg_ssb: Optional[SixgSsbSpec] = None


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


@value
class Scenario:
    carrier: CarrierConfig
    lte: Optional[LteCellConfig] = None
    lte_neighbors: Tuple[LteCellConfig, ...] = ()
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


def _check_keys(obj: dict, path: str, allowed: Sequence[str], required: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"expected an object, got {type(obj).__name__}", path)
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r}", _at(path, key))
    for key in required:
        if key not in obj:
            raise ScenarioError(f"missing required key {key!r}", path)


def _int(obj: dict, key: str, path: str, default=None, minimum=None, maximum=None, choices=None):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"expected an integer, got {v!r}", _at(path, key))
    if minimum is not None and v < minimum:
        raise ScenarioError(f"must be >= {minimum}, got {v}", _at(path, key))
    if maximum is not None and v > maximum:
        raise ScenarioError(f"must be <= {maximum}, got {v}", _at(path, key))
    if choices is not None and v not in choices:
        raise ScenarioError(f"must be one of {sorted(choices)}, got {v}", _at(path, key))
    return v


def _req_int(obj: dict, key: str, path: str, **bounds):
    if key not in obj:
        raise ScenarioError(f"missing required key {key!r}", path)
    return _int(obj, key, path, **bounds)


class _wrap_config:
    """Context manager re-raising ConfigError as ScenarioError at a path."""

    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and issubclass(exc_type, ConfigError):
            raise ScenarioError(str(exc), self.path) from exc
        return False


def _parse_carrier(obj: dict, path: str = "carrier") -> CarrierConfig:
    _check_keys(obj, path, ["scs_khz", "n_prb", "duplex", "span_ms", "tdd_pattern"],
                ["scs_khz", "n_prb", "duplex", "span_ms"])
    scs = _req_int(obj, "scs_khz", path, choices={15, 30})
    n_prb = _req_int(obj, "n_prb", path, minimum=1, maximum=MAX_N_PRB)
    duplex = obj["duplex"]
    if duplex not in ("FDD", "TDD"):
        raise ScenarioError(f"must be 'FDD' or 'TDD', got {duplex!r}", f"{path}.duplex")
    span = obj["span_ms"]
    if isinstance(span, bool) or not isinstance(span, (int, float)):
        raise ScenarioError(f"expected a number, got {span!r}", f"{path}.span_ms")
    if not -math.inf < span <= MAX_SPAN_MS:  # also rejects NaN
        raise ScenarioError(f"must be finite and at most {MAX_SPAN_MS} ms, got {span!r}", f"{path}.span_ms")
    pattern = None
    if "tdd_pattern" in obj and obj["tdd_pattern"] is not None:
        p = obj["tdd_pattern"]
        ppath = f"{path}.tdd_pattern"
        _check_keys(p, ppath, ["cycle", "special_split"], ["cycle"])
        cycle = p["cycle"]
        if not isinstance(cycle, str) or not cycle or any(c not in "DSU" for c in cycle):
            raise ScenarioError(f"cycle must be a non-empty string over D/S/U, got {cycle!r}", f"{ppath}.cycle")
        split = p.get("special_split", [6, 4, 4])
        if not isinstance(split, list) or len(split) != 3 or any(isinstance(x, bool) or not isinstance(x, int) for x in split):
            raise ScenarioError("special_split must be a list of three integers", f"{ppath}.special_split")
        with _wrap_config(ppath):
            pattern = TddPattern(cycle=cycle, special_split=tuple(split))
    with _wrap_config(path):
        return CarrierConfig(
            numerology=Numerology(scs), n_prb=n_prb, duplex=duplex, span_ms=span, tdd_pattern=pattern
        )


def _parse_lte_cell(
    obj: dict, path: str, carrier: CarrierConfig, allow_neighbors: bool = False
) -> LteCellConfig:
    allowed = ["cell_id", "crs_ports", "pdcch_symbols", "mbsfn_subframes", "non_mbsfn_region_len"]
    if allow_neighbors:
        allowed.append("neighbors")
    _check_keys(obj, path, allowed)
    mbsfn = obj.get("mbsfn_subframes", [])
    mpath = f"{path}.mbsfn_subframes"
    if not isinstance(mbsfn, list) or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in mbsfn):
        raise ScenarioError("must be a list of non-negative integers", mpath)
    n_subframes = carrier.n_slots // carrier.numerology.slots_per_ms
    allowed_sf = MBSFN_ALLOWED[carrier.duplex]
    for sf in sorted(set(mbsfn)):
        if sf >= n_subframes:
            raise ScenarioError(f"subframe {sf} is beyond the {n_subframes}-subframe carrier span", mpath)
        if sf % 10 not in allowed_sf:
            raise ScenarioError(
                f"subframe {sf} cannot carry MBSFN on {carrier.duplex}: "
                f"only subframes {sorted(allowed_sf)} mod 10 can (TS 36.331)",
                mpath,
            )
        kind = carrier.slot_kind(sf * carrier.numerology.slots_per_ms)
        if kind is not SlotKind.DOWNLINK:
            raise ScenarioError(
                f"subframe {sf} cannot carry MBSFN: the TDD pattern makes it {kind.name.lower()}",
                mpath,
            )
    with _wrap_config(path):
        return LteCellConfig(
            cell_id=_int(obj, "cell_id", path, default=0, minimum=0),
            crs_ports=_int(obj, "crs_ports", path, default=4, choices={1, 2, 4}),
            pdcch_symbols=_int(obj, "pdcch_symbols", path, default=2, choices={1, 2, 3}),
            mbsfn_subframes=frozenset(mbsfn),
            non_mbsfn_region_len=_int(obj, "non_mbsfn_region_len", path, default=2, choices={1, 2}),
        )


def _parse_beam(obj: dict, path: str) -> BeamSignal:
    _check_keys(obj, path, ["beams", "prbs", "symbols"], ["beams", "prbs", "symbols"])
    with _wrap_config(path):
        return BeamSignal(
            beams=_req_int(obj, "beams", path, minimum=0),
            prbs=_req_int(obj, "prbs", path, minimum=0),
            symbols=_req_int(obj, "symbols", path, minimum=0),
        )


def _parse_nr(obj: dict, path: str = "nr") -> NrOverlaySet:
    _check_keys(obj, path, ["period_ms", "ssb", "coreset0", "sib1", "coreset1",
                            "csi_rs", "trs"], ["period_ms"])
    kwargs = {"period_ms": _req_int(obj, "period_ms", path, minimum=1)}
    for key in ("ssb", "coreset0", "sib1"):
        if obj.get(key) is not None:
            kwargs[key] = _parse_beam(obj[key], f"{path}.{key}")
    if obj.get("coreset1") is not None:
        c = obj["coreset1"]
        cpath = f"{path}.coreset1"
        _check_keys(c, cpath, ["prbs", "symbols", "slots"], ["prbs", "symbols"])
        slots = None
        if c.get("slots") is not None:
            slots = _int(c, "slots", cpath, minimum=0)
        with _wrap_config(cpath):
            kwargs["coreset1"] = Coreset1Spec(
                prbs=_req_int(c, "prbs", cpath, minimum=0),
                symbols=_req_int(c, "symbols", cpath, minimum=0),
                slots=slots,
            )
    if obj.get("csi_rs") is not None:
        c = obj["csi_rs"]
        cpath = f"{path}.csi_rs"
        keys = ["ports", "density_re_per_port_per_prb", "prbs", "occasions_per_period"]
        _check_keys(c, cpath, keys, keys)
        with _wrap_config(cpath):
            kwargs["csi_rs"] = CsiRsSpec(*(_req_int(c, k, cpath, minimum=0) for k in keys))
    if obj.get("trs") is not None:
        c = obj["trs"]
        cpath = f"{path}.trs"
        keys = ["prbs", "slots_per_occasion", "re_per_prb_per_slot", "beams", "occasions_per_period"]
        _check_keys(c, cpath, keys, keys)
        with _wrap_config(cpath):
            kwargs["trs"] = TrsSpec(*(_req_int(c, k, cpath, minimum=0) for k in keys))
    with _wrap_config(path):
        return NrOverlaySet(**kwargs)


def _parse_budget(obj: dict, path: str = "budget") -> BudgetSpec:
    _check_keys(obj, path, ["lte_pdcch", "nr_pdcch", "dmrs_count", "ports"])
    ports = obj.get("ports", [1, 2, 4])
    if not isinstance(ports, list) or any(p not in (0, 1, 2, 4) for p in ports):
        raise ScenarioError("must be a list drawn from [0, 1, 2, 4]", f"{path}.ports")
    with _wrap_config(path):
        layout = DssLayout(
            lte_pdcch=_int(obj, "lte_pdcch", path, default=2, minimum=0),
            nr_pdcch=_int(obj, "nr_pdcch", path, default=1, minimum=0),
            dmrs_count=_int(obj, "dmrs_count", path, default=2, minimum=0),
        )
    return BudgetSpec(layout=layout, ports=tuple(ports))


def _parse_mrss(obj: dict, carrier: CarrierConfig, path: str = "mrss") -> MrssSpec:
    _check_keys(obj, path, ["control_mode", "shared_fraction", "iot_reservations", "sixg_ssb"])
    mode_name = obj.get("control_mode", "FullyOverlapping")
    try:
        kind = ControlModeKind(mode_name)
    except ValueError:
        raise ScenarioError(
            f"must be one of {[k.value for k in ControlModeKind]}, got {mode_name!r}",
            f"{path}.control_mode",
        )
    fraction = obj.get("shared_fraction")
    if fraction is not None and (isinstance(fraction, bool) or not isinstance(fraction, (int, float))):
        raise ScenarioError("must be a number in [0, 1]", f"{path}.shared_fraction")
    with _wrap_config(f"{path}.control_mode"):
        mode = ControlMode(kind=kind, shared_fraction=fraction)
    reservations: List[IotReservation] = []
    iot = obj.get("iot_reservations", [])
    if not isinstance(iot, list):
        raise ScenarioError("must be a list", f"{path}.iot_reservations")
    for i, r in enumerate(iot):
        rpath = f"{path}.iot_reservations[{i}]"
        _check_keys(r, rpath, ["prb_start", "prb_stop", "slots"], ["prb_start", "prb_stop"])
        slots = None
        if r.get("slots") is not None:
            s = r["slots"]
            if not isinstance(s, list) or any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in s):
                raise ScenarioError("must be a list of non-negative integers", f"{rpath}.slots")
            slots = tuple(s)
        p0, p1 = _req_int(r, "prb_start", rpath, minimum=0), _req_int(r, "prb_stop", rpath, minimum=0)
        with _wrap_config(rpath):
            check_prb_range(carrier, p0, p1)
        with _wrap_config(f"{rpath}.slots"):
            check_slots(carrier, slots or ())
        reservations.append(IotReservation(prb_start=p0, prb_stop=p1, slots=slots))
    sixg = None
    if obj.get("sixg_ssb") is not None:
        s = obj["sixg_ssb"]
        spath = f"{path}.sixg_ssb"
        _check_keys(s, spath, ["occasions", "prbs", "symbols"], ["occasions"])
        occasions = s["occasions"]
        if not isinstance(occasions, list) or any(
            not isinstance(o, list) or len(o) != 3 or any(isinstance(x, bool) or not isinstance(x, int) for x in o)
            for o in occasions
        ):
            raise ScenarioError("must be a list of [slot, symbol, prb] triples", f"{spath}.occasions")
        sixg = SixgSsbSpec(
            occasions=tuple(tuple(o) for o in occasions),
            prbs=_int(s, "prbs", spath, default=20, minimum=1, maximum=carrier.n_prb),
            symbols=_int(s, "symbols", spath, default=4, minimum=1, maximum=SYMBOLS_PER_SLOT),
        )
        for j, o in enumerate(sixg.occasions):
            with _wrap_config(f"{spath}.occasions[{j}]"):
                check_ssb_occasion(carrier, o, sixg.prbs, sixg.symbols)
    return MrssSpec(control_mode=mode, iot_reservations=tuple(reservations), sixg_ssb=sixg)


def _parse_traffic(obj: dict, path: str = "traffic") -> TrafficModel:
    _check_keys(obj, path, ["demand_5g", "demand_6g", "seed"], ["demand_5g", "demand_6g"])

    def demand(key):
        with _wrap_config(f"{path}.{key}"):
            return check_demand(obj[key])

    with _wrap_config(path):
        return TrafficModel(
            demand_5g=demand("demand_5g"),
            demand_6g=demand("demand_6g"),
            seed=_int(obj, "seed", path, default=0, minimum=0),
        )


def _parse_mitigation(obj: dict, path: str = "mitigation") -> Mitigation:
    _check_keys(obj, path, ["kind", "effectiveness"], ["kind"])
    eff = obj.get("effectiveness")
    if eff is not None and (isinstance(eff, bool) or not isinstance(eff, (int, float))):
        raise ScenarioError("must be a number in [0, 1]", f"{path}.effectiveness")
    with _wrap_config(path):
        return Mitigation(kind=obj["kind"], effectiveness=eff)


def _parse_sweep(obj: dict, path: str = "sweep") -> SweepSpec:
    _check_keys(obj, path, ["command", "parameters"], ["command", "parameters"])
    command = obj["command"]
    if command not in ("budget", "overhead", "classify", "simulate", "interference"):
        raise ScenarioError(f"unknown sweep command {command!r}", f"{path}.command")
    if not isinstance(obj["parameters"], list):
        raise ScenarioError("must be a list", f"{path}.parameters")
    params: List[SweepParameter] = []
    for i, p in enumerate(obj["parameters"]):
        ppath = f"{path}.parameters[{i}]"
        _check_keys(p, ppath, ["path", "values"], ["path", "values"])
        if not isinstance(p["path"], str) or not p["path"]:
            raise ScenarioError("must be a non-empty dotted path", f"{ppath}.path")
        if not isinstance(p["values"], list) or not p["values"]:
            raise ScenarioError("must be a non-empty list", f"{ppath}.values")
        params.append(SweepParameter(path=p["path"], values=tuple(p["values"])))
    return SweepSpec(command=command, parameters=tuple(params))


TOP_KEYS = ["carrier", "lte", "nr", "budget", "mrss", "traffic", "policy",
            "mitigation", "seed", "sweep"]


def parse_scenario(document: Union[str, dict]) -> Scenario:
    """Parse and fully validate a scenario document (JSON text or dict)."""
    if isinstance(document, str):
        try:
            raw = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    else:
        raw = document
    _check_keys(raw, "", TOP_KEYS, ["carrier"])

    carrier = _parse_carrier(raw["carrier"])

    lte = None
    neighbors: Tuple[LteCellConfig, ...] = ()
    if raw.get("lte") is not None:
        lte = _parse_lte_cell(raw["lte"], "lte", carrier, allow_neighbors=True)
        neigh_raw = raw["lte"].get("neighbors", [])
        if not isinstance(neigh_raw, list):
            raise ScenarioError("must be a list", "lte.neighbors")
        neighbors = tuple(
            _parse_lte_cell(n, f"lte.neighbors[{i}]", carrier) for i, n in enumerate(neigh_raw)
        )

    nr = _parse_nr(raw["nr"]) if raw.get("nr") is not None else None
    budget = _parse_budget(raw["budget"]) if raw.get("budget") is not None else BudgetSpec()
    mrss = _parse_mrss(raw["mrss"], carrier) if raw.get("mrss") is not None else None
    traffic = _parse_traffic(raw["traffic"]) if raw.get("traffic") is not None else None

    policy = None
    if raw.get("policy") is not None:
        try:
            policy = SchedPolicy(raw["policy"])
        except ValueError:
            raise ScenarioError(
                f"must be one of {[p.value for p in SchedPolicy]}, got {raw['policy']!r}", "policy"
            )

    mitigation = _parse_mitigation(raw["mitigation"]) if raw.get("mitigation") is not None else None
    seed = _int(raw, "seed", "", default=0)
    sweep = _parse_sweep(raw["sweep"]) if raw.get("sweep") is not None else None

    return Scenario(
        carrier=carrier,
        lte=lte,
        lte_neighbors=neighbors,
        nr=nr,
        budget=budget,
        mrss=mrss,
        traffic=traffic,
        policy=policy,
        mitigation=mitigation,
        seed=seed,
        sweep=sweep,
    )


def emit_scenario(scenario: Scenario) -> dict:
    """Canonical JSON-ready dict; parse_scenario(emit_scenario(s)) == s."""
    carrier = scenario.carrier
    doc: Dict[str, object] = {
        "carrier": {
            "scs_khz": carrier.numerology.scs_khz,
            "n_prb": carrier.n_prb,
            "duplex": carrier.duplex,
            "span_ms": carrier.span_ms,
        }
    }
    if carrier.tdd_pattern is not None:
        doc["carrier"]["tdd_pattern"] = {
            "cycle": carrier.tdd_pattern.cycle_str,
            "special_split": list(carrier.tdd_pattern.special_split),
        }
    if scenario.lte is not None:
        def cell(c: LteCellConfig) -> dict:
            return {
                "cell_id": c.cell_id,
                "crs_ports": c.crs_ports,
                "pdcch_symbols": c.pdcch_symbols,
                "mbsfn_subframes": sorted(c.mbsfn_subframes),
                "non_mbsfn_region_len": c.non_mbsfn_region_len,
            }

        doc["lte"] = cell(scenario.lte)
        if scenario.lte_neighbors:
            doc["lte"]["neighbors"] = [cell(n) for n in scenario.lte_neighbors]
    if scenario.nr is not None:
        nr = scenario.nr
        nr_doc: Dict[str, object] = {"period_ms": nr.period_ms}
        for key in ("ssb", "coreset0", "sib1"):
            sig = getattr(nr, key)
            if sig is not None:
                nr_doc[key] = {"beams": sig.beams, "prbs": sig.prbs, "symbols": sig.symbols}
        if nr.coreset1 is not None:
            nr_doc["coreset1"] = {
                "prbs": nr.coreset1.prbs,
                "symbols": nr.coreset1.symbols,
                "slots": nr.coreset1.slots,
            }
        if nr.csi_rs is not None:
            nr_doc["csi_rs"] = {
                "ports": nr.csi_rs.ports,
                "density_re_per_port_per_prb": nr.csi_rs.density_re_per_port_per_prb,
                "prbs": nr.csi_rs.prbs,
                "occasions_per_period": nr.csi_rs.occasions_per_period,
            }
        if nr.trs is not None:
            nr_doc["trs"] = {
                "prbs": nr.trs.prbs,
                "slots_per_occasion": nr.trs.slots_per_occasion,
                "re_per_prb_per_slot": nr.trs.re_per_prb_per_slot,
                "beams": nr.trs.beams,
                "occasions_per_period": nr.trs.occasions_per_period,
            }
        doc["nr"] = nr_doc
    doc["budget"] = {
        "lte_pdcch": scenario.budget.layout.lte_pdcch,
        "nr_pdcch": scenario.budget.layout.nr_pdcch,
        "dmrs_count": scenario.budget.layout.dmrs_count,
        "ports": list(scenario.budget.ports),
    }
    if scenario.mrss is not None:
        mrss_doc: Dict[str, object] = {"control_mode": scenario.mrss.control_mode.kind.value}
        if scenario.mrss.control_mode.shared_fraction is not None:
            mrss_doc["shared_fraction"] = scenario.mrss.control_mode.shared_fraction
        if scenario.mrss.iot_reservations:
            mrss_doc["iot_reservations"] = [
                {
                    "prb_start": r.prb_start,
                    "prb_stop": r.prb_stop,
                    **({"slots": list(r.slots)} if r.slots is not None else {}),
                }
                for r in scenario.mrss.iot_reservations
            ]
        if scenario.mrss.sixg_ssb is not None:
            mrss_doc["sixg_ssb"] = {
                "occasions": [list(o) for o in scenario.mrss.sixg_ssb.occasions],
                "prbs": scenario.mrss.sixg_ssb.prbs,
                "symbols": scenario.mrss.sixg_ssb.symbols,
            }
        doc["mrss"] = mrss_doc
    if scenario.traffic is not None:
        def demand(d):
            return list(d) if isinstance(d, tuple) else d

        doc["traffic"] = {
            "demand_5g": demand(scenario.traffic.demand_5g),
            "demand_6g": demand(scenario.traffic.demand_6g),
            "seed": scenario.traffic.seed,
        }
    if scenario.policy is not None:
        doc["policy"] = scenario.policy.value
    if scenario.mitigation is not None:
        mit: Dict[str, object] = {"kind": scenario.mitigation.kind}
        if scenario.mitigation.effectiveness is not None:
            mit["effectiveness"] = scenario.mitigation.effectiveness
        doc["mitigation"] = mit
    doc["seed"] = scenario.seed
    if scenario.sweep is not None:
        doc["sweep"] = {
            "command": scenario.sweep.command,
            "parameters": [
                {"path": p.path, "values": list(p.values)} for p in scenario.sweep.parameters
            ],
        }
    return doc
