"""Reported ratios are exact rationals rounded half up, never binary floats."""

import ast
import json
import math
import pathlib
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gridshare
from gridshare import cli
from gridshare.grid import CarrierConfig, ReLabel, ResourceGrid, make_grid
from gridshare.mrss import MrssCategoryMap, SchedPolicy, TrafficModel
from gridshare.rounding import round_half_up
from gridshare.scenario import Scenario

import dense_reference as ref

SRC = pathlib.Path(gridshare.__file__).resolve().parent

# 2188 of 3200 pure-5G cells: 0.68375 exactly, which a float rounds to 0.6837.
TIE_DOC = {
    "carrier": {"scs_khz": 15, "n_prb": 4, "duplex": "FDD", "span_ms": 10},
    "traffic": {"demand_5g": [0, 700], "demand_6g": [0, 700], "seed": 199},
    "policy": "Priority6G",
}


def test_efficiency_tie_rounds_half_up(tmp_path, capsys):
    path = tmp_path / "tie.json"
    path.write_text(json.dumps(TIE_DOC))
    assert cli.main(["simulate", "-s", str(path), "-f", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert (summary["total_5g"], summary["efficiency_vs_pure_5g"]) == (2188, 0.6838)
    assert cli.main(["simulate", "-s", str(path)]) == 0
    assert "| efficiency_vs_pure_5g | 0.6838 |" in capsys.readouterr().out


def _half_up_4(total: int, pure: int) -> float:
    """total / pure rounded half up to 4 decimals, in integer arithmetic."""
    if pure == 0:
        return 1.0
    return (2 * total * 10**4 + pure) // (2 * pure) / 10**4


@st.composite
def small_runs(draw):
    """(scenario, map): a small FDD map with chosen shared cells per slot and
    seeded uniform traffic around the pool size."""
    n_prb, n_slots = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    carrier = CarrierConfig(15, n_prb=n_prb, duplex="FDD", span_ms=n_slots)
    grid = make_grid(carrier)
    cap = 12 * 14 * n_prb
    labels = np.full(grid.lattice.shape, ReLabel.NR_SSB, dtype=np.uint8)
    flat = labels.reshape(n_slots, -1)
    for slot in range(n_slots):
        flat[slot, :draw(st.integers(0, cap))] = ReLabel.UNLABELED
    cmap = MrssCategoryMap(ResourceGrid(grid.config, ref.lattice_of(labels)))

    def demand():
        lo = draw(st.integers(0, 2 * cap))
        return (lo, lo + draw(st.integers(0, 2 * cap))) if draw(st.booleans()) else lo

    traffic = TrafficModel(demand(), demand(), seed=draw(st.integers(0, 2**16)))
    return Scenario(carrier=carrier, traffic=traffic), cmap


@settings(max_examples=200, deadline=None)
@given(small_runs())
def test_reported_efficiency_is_the_exact_ratio_rounded_half_up(case):
    scenario, cmap = case
    for policy in SchedPolicy:
        point = Scenario(carrier=scenario.carrier, traffic=scenario.traffic, policy=policy)
        record = cli.simulate_record(point, maps=lambda _: cmap)
        per_slot = record["per_slot"]
        pool = [a + b + c for a, b, c in
                zip(per_slot["grants_5g"], per_slot["grants_6g"], per_slot["unused"])]
        d5, d6 = scenario.traffic.demands(len(pool))
        for rat, demands in (("5g", d5), ("6g", d6)):
            total = sum(per_slot[f"grants_{rat}"])
            pure = sum(min(int(d), p) for d, p in zip(demands, pool))
            reported = record["summary"][f"efficiency_vs_pure_{rat}"]
            assert reported == _half_up_4(total, pure), (policy, rat)
            assert reported == (round_half_up(total, pure, 4) if pure else 1.0)


def test_no_builtin_round_outside_the_rounding_module():
    """The builtin `round` rounds a binary double with ties to even; every
    reported ratio goes through `rounding` instead."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "rounding.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "round":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_round_half_up_rounds_once():
    # Just below 0.125: a 50-digit quotient lands on the tie and then rounds up.
    assert round_half_up(125 * 10**60 - 1, 10**63, 2) == 0.12
    assert round_half_up(125, 1000, 2) == 0.13
    assert round_half_up(-125, 1000, 2) == -0.13
    zero = round_half_up(-1, 1000, 2)
    assert zero == 0 and math.copysign(1, zero) == -1


@settings(max_examples=500, deadline=None)
@given(st.fractions(), st.integers(0, 8))
def test_round_half_up_is_the_nearest_decimal_ties_away_from_zero(value, decimals):
    step = Fraction(1, 10**decimals)
    below = math.floor(value / step) * step
    # Of the two multiples of `step` around the value, the nearer; at a tie,
    # the one of larger magnitude.
    nearest = min((below, below + step), key=lambda c: (abs(c - value), -abs(c)))
    got = round_half_up(value.numerator, value.denominator, decimals)
    assert got == float(nearest)
    assert math.copysign(1, got) == (-1 if value < 0 else 1)


def _decimal_round_half_up(value: Fraction, decimals: int) -> float:
    """The former route: a 50-digit decimal quotient, quantized half up."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return float(d.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_UP))


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(1, 10**12), st.integers(0, 6))
def test_round_half_up_keeps_the_decimal_results_on_count_ratios(numerator, denominator, decimals):
    """Where 50 digits hold the quotient's distance from a tie, as for every
    ratio of counts a report rounds, both routes agree, sign of zero included."""
    got = round_half_up(numerator, denominator, decimals)
    old = _decimal_round_half_up(Fraction(numerator, denominator), decimals)
    assert (got, math.copysign(1, got)) == (old, math.copysign(1, old))


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(1, 10**12), st.integers(1, 10**6),
       st.integers(0, 6))
def test_round_half_up_is_the_same_on_a_scaled_pair(numerator, denominator, factor, decimals):
    """A ratio rounds the same whether or not its pair is in lowest terms:
    `pct` passes 100 * n and d as they are."""
    got = round_half_up(numerator * factor, denominator * factor, decimals)
    want = round_half_up(numerator, denominator, decimals)
    assert (got, math.copysign(1, got)) == (want, math.copysign(1, want))
