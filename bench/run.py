"""End-to-end benchmark of the `gridshare` CLI.

    python3 bench/run.py --workload paper_cli|sweep_mrss|lte_stress
                         --seed N --seconds S --trace 0|1

One client runs a closed loop: it starts the next request only when the last
one has ended, and every request is a fresh `python -m gridshare.cli`
process on the `src/` tree of this checkout, as a user runs it. Inputs come
from `--seed` (see inputs.py); every report is checked (see checks.py).

With `--trace 0` the run prints the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it alternates untraced requests with traced ones (see
traced_cli.py), runs the workload's grid-side check in-process under the
same spans, and prints the per-layer metrics. The last line of standard
output is the JSON result; a fuller record, with the spans of a traced run,
is written under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
RESULTS = ROOT / ".bench_work" / "results"
TRACED_CLI = BENCH / "traced_cli.py"

SETUP_SAMPLES = 7
# Every run must end within 180 s; a request still running here is killed.
RUN_DEADLINE_S = 165
TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import inputs  # noqa: E402
from spans import SPAN_NAMES, LayerTotals, Recorder  # noqa: E402


@dataclass
class Outcome:
    """One finished request: what it cost and whether its report passed."""

    request: inputs.Request
    wall_s: float
    rss_kb: int
    error: Optional[str]
    traced: bool = False
    trace: Optional[dict] = None


def spawn(argv: List[str], env: Dict[str, str], out: Path, err: Path,
          timeout: float) -> Tuple[float, int, int]:
    """Run `python argv...` to completion: (wall seconds, peak RSS KiB, exit code)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    killer = threading.Timer(max(timeout, 1.0), os.kill, (pid, signal.SIGKILL))
    killer.start()
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        killer.cancel()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


class Runner:
    """Runs and checks the requests of one benchmark run."""

    def __init__(self, work: Path, expects: Dict[str, checks.Expect], deadline: float):
        self.work = work
        self.expects = expects
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def setup_sample(self) -> float:
        out, err = self.work / "setup.out", self.work / "setup.err"
        wall, _, code = spawn(["-c", "import gridshare.cli"], self.env, out, err,
                              self.remaining())
        if code != 0:
            raise RuntimeError(f"import gridshare.cli failed: {err.read_text()[-2000:]}")
        return wall

    def request(self, req: inputs.Request, traced: bool) -> Outcome:
        self.count += 1
        out = self.work / f"{self.count}.out"
        err = self.work / f"{self.count}.err"
        spans_path = self.work / f"{self.count}.spans.json"
        if traced:
            argv = [str(TRACED_CLI), str(spans_path), f"r{self.count}", *req.argv()]
        else:
            argv = ["-m", "gridshare.cli", *req.argv()]
        wall, rss, code = spawn(argv, self.env, out, err, self.remaining())
        error = None
        if code != 0:
            error = f"exit {code}: {err.read_text()[-500:]}"
        else:
            try:
                checks.check_report(req.command, out.read_text(), req.fmt,
                                    self.expects[req.scenario])
            except (checks.CheckFailed, KeyError, ValueError, IndexError, TypeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        trace = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
        for path in (out, err, spans_path):
            path.unlink(missing_ok=True)
        return Outcome(req, wall, rss, error, traced, trace)


def closed_loop(runner: Runner, rotation: List[inputs.Request], seconds: float,
                traced: bool) -> List[Outcome]:
    """Whole rotations until `seconds` have passed; a traced run pairs each
    request with an untraced one, alternating which of the two goes first."""
    outcomes: List[Outcome] = []
    start = time.monotonic()
    while True:
        for req in rotation:
            if traced:
                first = len(outcomes) // 2 % 2 == 0
                outcomes.append(runner.request(req, traced=first))
                outcomes.append(runner.request(req, traced=not first))
            else:
                outcomes.append(runner.request(req, traced=False))
            if runner.remaining() <= 0:
                return outcomes
        if time.monotonic() - start >= seconds:
            return outcomes


def expectations(docs: Dict[str, dict], rotation: List[inputs.Request]) -> Dict[str, checks.Expect]:
    """Validate each document with parse_scenario and derive what its reports
    must show. The per-slot shared pool is a closed form when the document
    has no NR or MRSS section (every cell of a downlink symbol is shared);
    otherwise it comes from an untimed in-process build_map."""
    from gridshare import parse_scenario
    from gridshare.cli import build_map

    points = {r.scenario: r.points for r in rotation}
    out = {}
    for path, doc in docs.items():
        scenario = parse_scenario(doc)
        dl = checks.dl_symbols_per_slot(doc["carrier"])
        n_sc = checks.SC_PER_PRB * doc["carrier"]["n_prb"]
        pool = None
        if any(r.scenario == path and r.command in ("simulate", "sweep") for r in rotation):
            if "nr" in doc or "mrss" in doc:
                pool = build_map(scenario).shared_cells_per_slot().tolist()
            else:
                pool = [n_sc * d for d in dl]
        out[path] = checks.Expect(
            total_cells=len(dl) * checks.SYMBOLS_PER_SLOT * n_sc,
            dl_cells=sum(dl) * n_sc,
            pool_per_slot=pool,
            points=points[path],
        )
    return out


def grid_check(workload: str, docs: Dict[str, dict], recorder: Recorder) -> Optional[str]:
    """The grid side of the workload's closed forms, run once in-process.

    paper_cli and sweep_mrss: nr_overhead's closed-form counts equal the
    counts of the placed grid (verify_overhead_by_grid); for table3.json
    both equal the paper's Table 3. lte_stress: the CRS cells counted on
    the grid equal checks.crs_closed_form, port by port.
    """
    import gridshare

    recorder.install()
    if workload == "lte_stress":
        (doc,) = docs.values()
        s = gridshare.parse_scenario(doc)
        counts = gridshare.count_labels(gridshare.apply_lte(gridshare.make_grid(s.carrier), s.lte))
        got = {p: counts.get(gridshare.ReLabel.lte_crs(p), 0) for p in range(s.lte.crs_ports)}
        want = checks.crs_closed_form(doc)
        return None if got == want else f"CRS cells on the grid {got} != closed form {want}"
    path = str(SCENARIOS / "table3.json") if workload == "paper_cli" else next(iter(docs))
    s = gridshare.parse_scenario(docs[path])
    closed = {r.signal_name: r.re_count for r in gridshare.nr_overhead(s.carrier, s.nr).rows}
    grid = gridshare.verify_overhead_by_grid(s.carrier, s.nr)
    if closed != grid:
        return f"overhead closed form {closed} != grid counts {grid}"
    if workload == "paper_cli":
        paper = {k: v[0] for k, v in checks.PAPER_TABLE3.items() if k != "Total"}
        if grid != paper:
            return f"overhead grid counts {grid} != paper Table 3 {paper}"
    return None


def tail(walls: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it. With too few samples for that, the maximum (percentile 100)."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup: List[float], outcomes: List[Outcome]) -> Tuple[dict, dict]:
    walls = [o.wall_s for o in outcomes]
    tail_s, tail_pct = tail(walls)
    points = sum(o.request.points for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup),
        "request_p50_s": statistics.median(walls),
        "sweep_points_per_s": points / sum(walls),
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
    }
    # Reported, not bounded: with a handful of multi-second requests per run
    # (sweep_mrss, lte_stress) the tail is their maximum and does not repeat.
    detail = {"requests": len(walls), "request_tail_s": tail_s, "tail_percentile": tail_pct,
              "points": points, "setup_samples": setup}
    return metrics, detail


def per_layer(outcomes: List[Outcome], check_spans: List[dict]) -> Tuple[dict, dict]:
    traced = [o for o in outcomes if o.traced and o.trace is not None]
    pairs = zip(outcomes[0::2], outcomes[1::2])
    ratios = [(a.wall_s / b.wall_s) if a.traced else (b.wall_s / a.wall_s) for a, b in pairs]
    n = len(traced)
    t = LayerTotals([o.trace["spans"] for o in traced])
    check = LayerTotals([check_spans])
    points = sum(o.request.points for o in traced)
    builds = t.calls["cli.build_grid"]
    lte_cells = t.total("lte.apply_lte", "cells")
    slots = t.total("mrss.simulate", "slots")
    metrics = {
        "lte.apply_lte_ms": t.ms("lte.apply_lte") / n,
        "lte.apply_lte_ns_per_cell": t.self_ns["lte.apply_lte"] / lte_cells if lte_cells else 0.0,
        "nr.apply_nr_ms": t.ms("nr.apply_nr") / n,
        "mrss.classify_ms": t.ms("mrss.classify_mrss") / n,
        "mrss.simulate_ms": t.ms("mrss.simulate") / n,
        "mrss.simulate_us_per_slot": t.self_ns["mrss.simulate"] / 1e3 / slots if slots else 0.0,
        "mrss.reserve_iot_ms": t.ms("mrss.reserve_iot") / n,
        "mrss.place_6g_ssb_ms": t.ms("mrss.place_6g_ssb") / n,
        "mrss.interference_ms": t.ms("mrss.neighbor_interference") / n,
        "budget.dss_table_ms": t.ms("budget.dss_table") / n,
        "budget.nr_overhead_ms": t.ms("budget.nr_overhead") / n,
        "scenario.parse_ms": t.ms("scenario.parse_scenario") / n,
        "scenario.parse_calls": t.calls["scenario.parse_scenario"] / n,
        "scenario.emit_ms": t.ms("scenario.emit_scenario") / n,
        "grid.make_grid_ms": t.ms("grid.make_grid") / n,
        "grid.cells_per_request": t.total("grid.make_grid", "cells") / n,
        "grid.count_labels_ms": check.ms("grid.count_labels"),
        "cli.import_numpy_s": statistics.median(o.trace["import_numpy_ns"] for o in traced) / 1e9,
        "cli.import_gridshare_s":
            statistics.median(o.trace["import_gridshare_ns"] for o in traced) / 1e9,
        "cli.render_ms": t.ms("cli.run_budget", "cli.run_overhead", "cli.run_classify",
                              "cli.run_simulate", "cli.run_interference") / n,
        "cli.sweep_driver_ms": t.ms("cli.run_sweep") / n,
        "cli.main_ms": t.ms("cli.main") / n,
        "cli.grid_builds_per_point": builds / points,
        "cli.distinct_grid_ratio": t.distinct_keys / builds if builds else 1.0,
        "trace.overhead_pct": 100.0 * (statistics.median(ratios) - 1.0),
    }
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = t.calls[name] / n
        metrics[f"{name}.errors"] = t.errors[name] + check.errors[name]
    return metrics, {"traced_requests": n, "pairs": len(ratios), "points": points}


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridshare").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "note": f"Runs come from a shared {os.cpu_count()}-core sandbox whose other tenants' "
                "load varies; compare only runs taken on one machine at about the same time.",
    }


def parse_args(names: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    args = parse_args(list(workloads))
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "gridshare" / "cli.py").is_file() or not SCENARIOS.is_dir():
        print(f"error: no gridshare source tree at {SRC} or no {SCENARIOS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridshare

    if Path(gridshare.__file__).resolve().parent != SRC / "gridshare":
        print(f"error: imported gridshare from {gridshare.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env_info = environment()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        rotation, docs = inputs.write_inputs(args.workload, args.seed, str(work), str(SCENARIOS))
        runner = Runner(work, expectations(docs, rotation), deadline)
        runner.setup_sample()  # warm the bytecode and file caches
        setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
        check_error, check_spans = None, []
        if args.trace:
            recorder = Recorder("check")
            try:
                check_error = grid_check(args.workload, docs, recorder)
            except gridshare.GridShareError as exc:
                check_error = f"{type(exc).__name__}: {exc}"
            check_spans = recorder.spans
        outcomes = closed_loop(runner, rotation, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f"{o.request.command} {Path(o.request.scenario).name} -f {o.request.fmt}: "
                f"{o.error}" for o in outcomes if o.error]
    attempted = len(outcomes)
    if args.trace:
        attempted += 1
        if check_error:
            failures.append(f"grid check: {check_error}")
        metrics, detail = per_layer(outcomes, check_spans)
        names = spec["per_layer"]
    else:
        metrics, detail = end_to_end(setup, outcomes)
        names = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    metrics = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}

    size = {p: {"carrier": f"{d['carrier']['n_prb']} PRB x "
                           f"{len(checks.dl_symbols_per_slot(d['carrier']))} slots"}
            for p, d in docs.items()}
    record = {
        "environment": env_info,
        "workload": {"name": args.workload, "why": workloads[args.workload], "seed": args.seed,
                     "loop": "closed", "clients": 1, "inputs": size,
                     "rotation": [r.argv() for r in rotation],
                     "points_per_request": [r.points for r in rotation]},
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "detail": detail,
        "metrics": metrics,
        "requests": [{"argv": o.request.argv(), "wall_s": o.wall_s, "rss_kb": o.rss_kb,
                      "traced": o.traced, "error": o.error} for o in outcomes],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in check_spans + [s for o in outcomes if o.trace for s in o.trace["spans"]]:
                fh.write(json.dumps(span) + "\n")

    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} request_tail_s {detail['request_tail_s']:.6g} s "
              f"(p{detail['tail_percentile']:.1f} of {detail['requests']} requests)")
    print(f"{args.workload} fail_ratio {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
