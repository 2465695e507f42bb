"""Output checks for every benchmark request.

Each check parses one CLI report (md, csv or json) and raises `CheckFailed`
when the report breaks the paper's tables or an invariant of the model.
Known defects are not frozen as golden values: apart from the two paper
tables, only invariants and closed forms computed here are compared.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

SYMBOLS_PER_SLOT = 14
SC_PER_PRB = 12

# Paper Table 1: per-PRB DSS budget by CRS port count.
PAPER_TABLE1 = {
    1: (102, 132, 138, "22.73", "26.09"),
    2: (96, 132, 132, "27.27", "27.27"),
    4: (92, 132, 128, "30.30", "28.13"),
}
# Paper Table 3: NR overhead over one 20 ms period of table3.json.
PAPER_TABLE3 = {
    "SSB": (3840, "0.21", "0.31"),
    "CORESET 0": (4608, "0.25", "0.37"),
    "SIB1": (4608, "0.25", "0.37"),
    "CORESET 1": (207_360, "11.30", "16.48"),
    "CSI-RS": (8704, "0.47", "0.69"),
    "TRS": (4992, "0.27", "0.40"),
    "Total": (234_112, "12.76", "18.61"),
}


class CheckFailed(Exception):
    """A report that is malformed or breaks an expected value."""


@dataclass(frozen=True)
class Expect:
    """What a scenario's reports must show, worked out before timing."""

    total_cells: int
    dl_cells: int
    pool_per_slot: Optional[Sequence[int]] = None
    points: int = 1


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def dl_symbols_per_slot(carrier: dict) -> List[int]:
    """Closed-form downlink symbols of every slot of a carrier document."""
    n_slots = carrier["span_ms"] * carrier["scs_khz"] // 15
    if carrier["duplex"] == "FDD":
        return [SYMBOLS_PER_SLOT] * n_slots
    cycle = carrier["tdd_pattern"]["cycle"]
    dl_special = carrier["tdd_pattern"].get("special_split", [6, 4, 4])[0]
    per_kind = {"D": SYMBOLS_PER_SLOT, "S": dl_special, "U": 0}
    return [per_kind[cycle[s % len(cycle)]] for s in range(n_slots)]


def crs_closed_form(doc: dict) -> Dict[int, int]:
    """CRS cells per antenna port over a whole LTE carrier document.

    Per PRB and normal subframe, ports 0/1 hold 8 cells (4 symbols x 2) and
    ports 2/3 hold 4 (2 symbols x 2). An MBSFN subframe keeps CRS only in its
    non-MBSFN region: symbol 0 (ports 0/1) and, for a 2-symbol region,
    symbol 1 (ports 2/3).
    """
    lte = doc["lte"]
    n_prb = doc["carrier"]["n_prb"]
    n_sub = doc["carrier"]["span_ms"]
    n_mbsfn = len(set(lte.get("mbsfn_subframes", [])))
    region = lte.get("non_mbsfn_region_len", 2)
    normal = n_sub - n_mbsfn
    per_port = {
        0: 8 * normal + 2 * n_mbsfn,
        1: 8 * normal + 2 * n_mbsfn,
        2: 4 * normal + (2 * n_mbsfn if region == 2 else 0),
        3: 4 * normal + (2 * n_mbsfn if region == 2 else 0),
    }
    return {p: n_prb * per_port[p] for p in range(lte["crs_ports"])}


def _md_rows(text: str) -> List[List[str]]:
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    _require(len(lines) >= 2, "markdown report has no table")
    return [[c.strip() for c in ln.strip().strip("|").split("|")] for ln in lines[2:]]


def _csv_rows(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _num(text: str) -> str:
    """Normalise a rendered number: drop thousands separators and '%'."""
    return str(text).replace(",", "").rstrip("%")


def _pct(value) -> str:
    return f"{float(_num(value)):.2f}"


def _key_values(text: str, fmt: str) -> Dict[str, str]:
    """The two-column reports (classify, interference, simulate md)."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        return {row[0]: row[1] for row in list(csv.reader(io.StringIO(text)))[1:]}
    return {row[0]: row[1] for row in _md_rows(text)}


def check_budget(text: str, fmt: str) -> None:
    if fmt == "json":
        rows = [(r["crs_ports"], r["dss_re"], r["nr_re"], r["lte_re"],
                 r["loss_vs_nr_pct"], r["loss_vs_lte_pct"]) for r in json.loads(text)]
    elif fmt == "csv":
        rows = [(r["crs_ports"], r["dss_re"], r["nr_re"], r["lte_re"],
                 r["loss_vs_nr_pct"], r["loss_vs_lte_pct"]) for r in _csv_rows(text)]
    else:
        rows = [tuple(r) for r in _md_rows(text)]
    got = {
        int(p): (int(_num(d)), int(_num(n)), int(_num(l)), _pct(a), _pct(b))
        for p, d, n, l, a, b in rows
    }
    _require(got == PAPER_TABLE1, f"budget table differs from paper Table 1: {got}")


def check_overhead(text: str, fmt: str) -> None:
    if fmt == "json":
        doc = json.loads(text)
        rows = [(r["signal_name"], r["re_count"], r["pct_of_total"], r["pct_of_downlink"])
                for r in doc["rows"] + [doc["total"]]]
    elif fmt == "csv":
        rows = [(r["signal"], r["re_count"], r["pct_of_total"], r["pct_of_downlink"])
                for r in _csv_rows(text)]
    else:
        rows = [(r[0], r[2], r[3], r[4]) for r in _md_rows(text)]
    got = {name: (int(_num(c)), _pct(a), _pct(b)) for name, c, a, b in rows}
    _require(got == PAPER_TABLE3, f"overhead table differs from paper Table 3: {got}")


def check_classify(text: str, fmt: str, expect: Expect) -> None:
    kv = {k: int(_num(v)) for k, v in _key_values(text, fmt).items()}
    parts = kv["shared_pool"] + kv["reserved"] + kv["control_region"]
    _require(parts == kv["downlink_cells"],
             f"shared + reserved + control = {parts} != downlink {kv['downlink_cells']}")
    _require(kv["downlink_cells"] == expect.dl_cells,
             f"downlink cells {kv['downlink_cells']} != closed form {expect.dl_cells}")
    _require(kv["total_cells"] == expect.total_cells,
             f"total cells {kv['total_cells']} != closed form {expect.total_cells}")
    _require(min(kv.values()) >= 0, "negative category size")


def _check_slots(g5: Sequence[int], g6: Sequence[int], unused: Sequence[int],
                 expect: Expect, where: str) -> None:
    pool = expect.pool_per_slot
    _require(len(g5) == len(g6) == len(unused) == len(pool),
             f"{where}: {len(g5)} slots reported, {len(pool)} expected")
    for slot, (a, b, u, p) in enumerate(zip(g5, g6, unused, pool)):
        _require(min(a, b, u) >= 0, f"{where}: negative grant in slot {slot}")
        _require(a + b + u == p,
                 f"{where}: slot {slot} grant_5g + grant_6g + unused = {a + b + u} != pool {p}")


def _check_summary(summary: Dict[str, object], expect: Expect, where: str) -> None:
    total = sum(expect.pool_per_slot)
    s = {k: int(_num(summary[k])) for k in
         ("shared_pool_size", "total_5g", "total_6g", "unused_shared", "n_slots")}
    _require(s["shared_pool_size"] == total,
             f"{where}: shared pool {s['shared_pool_size']} != expected {total}")
    _require(s["total_5g"] + s["total_6g"] + s["unused_shared"] == total,
             f"{where}: totals do not add up to the shared pool")
    _require(s["n_slots"] == len(expect.pool_per_slot), f"{where}: wrong slot count")


def check_simulate(text: str, fmt: str, expect: Expect) -> None:
    if fmt == "json":
        doc = json.loads(text)
        slots = doc["per_slot"]
        _check_slots(slots["grants_5g"], slots["grants_6g"], slots["unused"], expect, "simulate")
        _check_summary(doc["summary"], expect, "simulate")
    elif fmt == "csv":
        rows = [{k: int(v) for k, v in r.items()} for r in _csv_rows(text)]
        _require([r["slot"] for r in rows] == list(range(len(rows))), "slots out of order")
        _require([r["pool"] for r in rows] == list(expect.pool_per_slot),
                 "per-slot pool differs from the shared cells of each slot")
        for r in rows:
            _require(r["grant_5g"] <= r["demand_5g"] and r["grant_6g"] <= r["demand_6g"],
                     f"grant above demand in slot {r['slot']}")
        _check_slots([r["grant_5g"] for r in rows], [r["grant_6g"] for r in rows],
                     [r["unused"] for r in rows], expect, "simulate")
    else:
        _check_summary(_key_values(text, fmt), expect, "simulate")


def check_interference(text: str, fmt: str) -> None:
    kv = _key_values(text, fmt)
    pool, clean, sac, dirty = (int(_num(kv[k])) for k in (
        "pool_re_per_prb", "clean_re_per_prb", "sacrificed_re_per_prb", "dirty_re_per_prb"))
    _require(pool > 0 and min(clean, sac, dirty) >= 0, "empty pool or negative count")
    _require(clean + sac + dirty == pool,
             f"clean + sacrificed + dirty = {clean + sac + dirty} != pool {pool}")


def check_sweep(text: str, fmt: str, expect: Expect) -> None:
    """Every point of a simulate sweep conserves the pool in every slot."""
    _require(fmt == "csv", "sweep checks read the CSV report")
    records = _csv_rows(text)
    _require(len(records) == expect.points, f"{len(records)} sweep points, {expect.points} expected")
    n = len(expect.pool_per_slot)
    for i, r in enumerate(records):
        where = f"sweep point {i}"
        _require(int(r["point"]) == i, f"{where}: out of order")
        _require(r["summary.policy"] == r["policy"], f"{where}: policy not applied")
        _require(r["summary.seed"] == r["traffic.seed"], f"{where}: traffic seed not applied")
        cols = [[int(r[f"per_slot.{k}[{s}]"]) for s in range(n)]
                for k in ("grants_5g", "grants_6g", "unused")]
        _check_slots(*cols, expect, where)
        _check_summary({k.split(".", 1)[1]: v for k, v in r.items() if k.startswith("summary.")},
                       expect, where)


def check_report(command: str, text: str, fmt: str, expect: Expect) -> None:
    if command == "budget":
        check_budget(text, fmt)
    elif command == "overhead":
        check_overhead(text, fmt)
    elif command == "classify":
        check_classify(text, fmt, expect)
    elif command == "simulate":
        check_simulate(text, fmt, expect)
    elif command == "interference":
        check_interference(text, fmt)
    elif command == "sweep":
        check_sweep(text, fmt, expect)
    else:
        raise CheckFailed(f"no check for command {command!r}")
