"""gridshare's own traffic stream, pinned to numpy's draws, and a
gridshare without numpy.

`TrafficModel.demands` draws from `gridshare.pcg64.Pcg64`, not from
`numpy.random`. The property below holds it to
`numpy.random.default_rng(seed).integers` (which only the tests import),
and the guards keep numpy out of `src/`: no module there imports it, and
every command runs, output for output, in a process that cannot import it.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gridshare
from gridshare.mrss import MAX_DEMAND, TrafficModel

SRC = Path(gridshare.__file__).resolve().parent

# Range widths hi - lo: none, small, rejection-heavy Lemire on 32-bit
# halves, raw halves, and Lemire on whole 64-bit words.
WIDTHS = st.one_of(
    st.just(0),
    st.integers(1, 1000),
    st.integers(2**31, 2**32 - 2),
    st.just(2**32 - 1),
    st.integers(2**32, MAX_DEMAND),
)


@st.composite
def demands(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.integers(0, MAX_DEMAND))
    width = draw(WIDTHS)
    lo = draw(st.integers(0, MAX_DEMAND - width))
    return (lo, lo + width)


def numpy_demands(traffic: TrafficModel, n_slots: int):
    """The draws as numpy's Generator makes them: 5G first, then 6G."""
    rng = np.random.default_rng(traffic.seed)

    def draw(d):
        if isinstance(d, tuple):
            return rng.integers(d[0], d[1] + 1, size=n_slots, dtype=np.int64)
        return np.full(n_slots, d, dtype=np.int64)

    return draw(traffic.demand_5g), draw(traffic.demand_6g)


@settings(max_examples=500, deadline=None)
@given(demands(), demands(), st.integers(0, 2**128), st.integers(0, 41))
def test_demands_equal_numpy_default_rng(d5, d6, seed, n_slots):
    # An odd n_slots leaves a 32-bit half buffered for the 6G draw.
    traffic = TrafficModel(d5, d6, seed)
    ours = traffic.demands(n_slots)
    for got, want in zip(ours, numpy_demands(traffic, n_slots)):
        assert got.typecode == "q"  # int64
        assert got.tolist() == want.tolist()


def test_demands_are_pinned_whatever_numpy_does():
    # numpy 2.4.6's default_rng draws, written out: a numpy release that
    # changes its Generator streams (NEP 19) leaves these unchanged.
    d5, d6 = TrafficModel((0, 1000), (5, 9), seed=7).demands(5)
    assert d5.tolist() == [945, 625, 684, 898, 578]
    assert d6.tolist()[:3] == [8, 9, 6]
    d5, d6 = TrafficModel((2**40, 2**47), (0, 2**32 - 1), seed=2**100).demands(2)
    assert d5.tolist() == [1689604235123, 30282343782653]
    assert d6.tolist() == [4094020051, 3052876940]


def numpy_random_references(tree: ast.AST):
    """The places a module imports numpy (or any of its modules), or names
    numpy.random, np.random or default_rng."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] if module.split(".")[0] == "numpy" else [
                a.name for a in node.names if a.name == "default_rng"]
        elif isinstance(node, ast.Attribute):
            numpy_attr = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            names = [node.attr] if (numpy_attr and node.attr == "random") or (
                node.attr == "default_rng") else []
        elif isinstance(node, ast.Name):
            names = [node.id] if node.id == "default_rng" else []
        else:
            names = []
        for name in names:
            yield node.lineno, name


def test_no_numpy_in_src():
    found = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
             for line, name in numpy_random_references(ast.parse(path.read_text()))]
    assert found == []


def test_reference_finder_sees_each_form():
    code = ("import numpy.random\nfrom numpy import random\nfrom numpy.random import PCG64\n"
            "np.random.default_rng(1)\nnumpy.random\ndefault_rng(2)\n")
    assert sorted(line for line, _ in numpy_random_references(ast.parse(code))) == [
        1, 2, 3, 4, 4, 5, 6]


def test_reference_finder_sees_each_numpy_import():
    code = ("import numpy\nimport numpy as np\nimport os, numpy.linalg\nfrom numpy import uint8\n"
            "from numpy.lib import stride_tricks\nimport numpyish\nfrom . import numpy_like\n"
            "def f():\n    import numpy\n")
    assert sorted(line for line, _ in numpy_random_references(ast.parse(code))) == [
        1, 2, 3, 4, 5, 9]


def test_simulate_and_sweep_leave_numpy_random_unimported(tmp_path):
    doc = {
        "carrier": {"scs_khz": 15, "n_prb": 6, "duplex": "FDD", "span_ms": 10},
        "traffic": {"demand_5g": [0, 900], "demand_6g": [100, 2**40], "seed": 11},
        "policy": "ProportionalShare",
        "sweep": {"command": "simulate",
                  "parameters": [{"path": "traffic.seed", "values": [1, 2**100]}]},
    }
    path = tmp_path / "ranged.json"
    path.write_text(json.dumps(doc))
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from gridshare import cli
        for command in ("simulate", "sweep"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([command, "-s", {str(path)!r}, "-f", "csv"]) == 0, command
        print(sorted(m for m in sys.modules if m.startswith("numpy.random")
                     or m.split(".")[0] in ("secrets", "hmac", "_hashlib")))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
