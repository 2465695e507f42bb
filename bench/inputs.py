"""Seeded inputs for the three benchmark workloads.

Every document here is plain scenario JSON. The same seed always gives the
same documents, and the program under test only ever sees the files that
`write_inputs` produces (or, for `paper_cli`, the shipped scenarios).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import List, Tuple

# FDD subframes that may carry MBSFN (TS 36.331 MBSFN-SubframeConfig):
# 0, 4, 5 and 9 of every radio frame carry sync/paging and never may.
MBSFN_ALLOWED = (1, 2, 3, 6, 7, 8)

PAPER_COMMANDS = (
    ("budget", "table1.json"),
    ("overhead", "table3.json"),
    ("classify", "mrss_sweep.json"),
    ("simulate", "mrss_sweep.json"),
    ("interference", "neighbor_interference.json"),
)
FORMATS = ("md", "csv", "json")

# sweep_mrss: 273 PRB x 40 slots of 30 kHz DDDSU, 6 x 3 x 3 = 54 points.
SWEEP_PRB = 273
SWEEP_SPAN_MS = 20
SWEEP_DEMAND_6G_VALUES = 6
SWEEP_POLICIES = ("Priority5G", "ProportionalShare", "Priority6G")
SWEEP_SEEDS = 3
SWEEP_POINTS = SWEEP_DEMAND_6G_VALUES * len(SWEEP_POLICIES) * SWEEP_SEEDS
# Downlink slots that carry no NR unit except CORESET1 or a block unit on
# PRBs < 48 (slots 36/37 are left free by apply_nr's one-unit-per-slot
# placement of the 29 units below). A 20 PRB x 4 symbol 6G SSB anywhere in
# symbols 2..13 and PRBs 48..271 of these slots is hidden from 5G.
SWEEP_HIDDEN_SLOTS = (0, 1, 2, 5, 6, 7, 10, 11, 12, 36, 37)
SWEEP_IOT_PRB = 272

# lte_stress: FDD 15 kHz, 100 PRB x 1000 subframes, 4-port CRS.
LTE_PRB = 100
LTE_SUBFRAMES = 1000


@dataclass(frozen=True)
class Request:
    """One CLI invocation: the command, its scenario file and output format."""

    command: str
    scenario: str
    fmt: str
    points: int = 1

    def argv(self) -> List[str]:
        return [self.command, "-s", self.scenario, "-f", self.fmt]


def sweep_document(seed: int) -> dict:
    rng = random.Random(f"sweep_mrss/{seed}")
    slots = rng.sample(SWEEP_HIDDEN_SLOTS, 3)
    occasions = [[s, rng.randint(2, 10), rng.randint(48, SWEEP_IOT_PRB - 20)] for s in slots]
    demand_6g = sorted(rng.sample(range(0, 45001, 1000), SWEEP_DEMAND_6G_VALUES))
    seeds = rng.sample(range(1, 10_000), SWEEP_SEEDS)
    lo = rng.randint(10_000, 25_000)
    return {
        "carrier": {
            "scs_khz": 30,
            "n_prb": SWEEP_PRB,
            "duplex": "TDD",
            "span_ms": SWEEP_SPAN_MS,
            "tdd_pattern": {"cycle": "DDDSU", "special_split": [6, 4, 4]},
        },
        "nr": {
            "period_ms": SWEEP_SPAN_MS,
            "ssb": {"beams": 4, "prbs": 20, "symbols": 4},
            "coreset0": {"beams": 4, "prbs": 48, "symbols": 2},
            "sib1": {"beams": 4, "prbs": 24, "symbols": 4},
            "coreset1": {"prbs": 270, "symbols": 2, "slots": None},
            "csi_rs": {"ports": 32, "density_re_per_port_per_prb": 1, "prbs": 272,
                       "occasions_per_period": 1},
            "trs": {"prbs": 52, "slots_per_occasion": 2, "re_per_prb_per_slot": 6,
                    "beams": 4, "occasions_per_period": 2},
        },
        "mrss": {
            "control_mode": "FullyOverlapping",
            "iot_reservations": [{"prb_start": SWEEP_IOT_PRB, "prb_stop": SWEEP_IOT_PRB + 1}],
            "sixg_ssb": {"occasions": occasions, "prbs": 20, "symbols": 4},
        },
        "traffic": {"demand_5g": [lo, lo + 15_000], "demand_6g": 0, "seed": seeds[0]},
        "policy": "ProportionalShare",
        "seed": seed,
        "sweep": {
            "command": "simulate",
            "parameters": [
                {"path": "traffic.demand_6g", "values": demand_6g},
                {"path": "policy", "values": list(SWEEP_POLICIES)},
                {"path": "traffic.seed", "values": seeds},
            ],
        },
    }


def lte_document(seed: int) -> dict:
    rng = random.Random(f"lte_stress/{seed}")
    pattern = rng.sample(MBSFN_ALLOWED, 2)
    mbsfn = sorted(frame * 10 + sf for frame in range(LTE_SUBFRAMES // 10) for sf in pattern)
    lo5 = rng.randint(2_000, 8_000)
    lo6 = rng.randint(2_000, 8_000)
    return {
        "carrier": {"scs_khz": 15, "n_prb": LTE_PRB, "duplex": "FDD", "span_ms": LTE_SUBFRAMES},
        "lte": {
            "cell_id": rng.randint(0, 503),
            "crs_ports": 4,
            "pdcch_symbols": rng.randint(1, 3),
            "mbsfn_subframes": mbsfn,
            "non_mbsfn_region_len": rng.randint(1, 2),
        },
        "traffic": {"demand_5g": [lo5, lo5 + 10_000], "demand_6g": [lo6, lo6 + 10_000],
                    "seed": rng.randint(1, 10_000)},
        "policy": rng.choice(SWEEP_POLICIES),
        "seed": seed,
    }


def paper_rotation(seed: int, scenarios_dir: str) -> List[Request]:
    """All 15 (command, format) pairs on the shipped scenarios, seeded order."""
    pairs = [(c, s, f) for c, s in PAPER_COMMANDS for f in FORMATS]
    random.Random(f"paper_cli/{seed}").shuffle(pairs)
    return [Request(c, os.path.join(scenarios_dir, s), f) for c, s, f in pairs]


def write_inputs(workload: str, seed: int, work_dir: str, scenarios_dir: str
                 ) -> Tuple[List[Request], dict]:
    """Write the workload's documents and return one rotation of requests.

    The second value maps each scenario path the rotation uses to its
    document, so the caller can validate it before timing starts.
    """
    if workload == "paper_cli":
        rotation = paper_rotation(seed, scenarios_dir)
        docs = {}
        for r in rotation:
            with open(r.scenario, "r", encoding="utf-8") as fh:
                docs[r.scenario] = json.load(fh)
        return rotation, docs
    if workload == "sweep_mrss":
        doc, request = sweep_document(seed), ("sweep", "csv", SWEEP_POINTS)
    elif workload == "lte_stress":
        doc, request = lte_document(seed), ("simulate", "csv", 1)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = os.path.join(work_dir, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    command, fmt, points = request
    return [Request(command, path, fmt, points)], {path: doc}
