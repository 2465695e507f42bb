"""The benchmark tracer (bench/spans.py) wraps gridshare functions by their
module-level names; a renamed or merged function would silently read 0 in
the per-layer metrics. The tracer runs in a subprocess, so its wrappers
never reach the modules the other tests import, and with bytecode writing
off, so bench/ is only read."""

import json
import os
import pathlib
import subprocess
import sys

import gridshare
from gridshare import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

SCRIPT = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spans
from gridshare import cli

unresolved = [f"{layer}.{name}" for layer, names in spans.WRAPPED.items() for name in names
              if not callable(getattr(importlib.import_module(f"gridshare.{layer}"), name, None))]
recorder = spans.Recorder("test")
recorder.install()
codes = {}
for command, path in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[command] = cli.main([command, "-s", path, "-f", "md"])
names = [span["name"] for span in recorder.spans]
print(json.dumps({"unresolved": unresolved, "codes": codes, "names": names}))
"""


def test_every_wrapped_name_resolves_and_every_command_is_recorded():
    requests = [(command, str(SCENARIOS / ("neighbor_interference.json"
                                           if command == "interference" else "mrss_sweep.json")))
                for command in cli.commands()]
    src = pathlib.Path(gridshare.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "bench"), json.dumps(requests)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["unresolved"] == []
    assert result["codes"] == {command: 0 for command in cli.commands()}
    for command in cli.commands():
        assert result["names"].count(f"cli.run_{command}") == 1, command
    assert result["names"].count("cli.main") == len(requests)
    assert "cli.build_grid" in result["names"]


def test_a_staged_classify_records_the_grid_and_every_map_stage():
    """`cli.STAGES` calls each stage writer by its module-level name, so the
    tracer's wrappers see the grid build and every map stage."""
    requests = [("classify", str(SCENARIOS / "mrss_staged.json"))]
    src = pathlib.Path(gridshare.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "bench"), json.dumps(requests)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == {"classify": 0}
    for name in ("cli.build_grid", "mrss.classify_mrss", "mrss.reserve_iot", "mrss.place_6g_ssb"):
        assert name in result["names"], name
