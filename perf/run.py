#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perf/run.py [--workload NAME]... [--seed 42] [--seconds S]
                        [--trace [0|1]] [--out FILE]

Each workload runs in fresh processes, one after another: four launches
that only set up (imports, model, pool) and exit, then one that sets
up, runs an untimed warm-up iteration, times iterations for
``--seconds`` (by default the ``run_seconds`` of ``BENCHMARK.json``),
checks the outputs and, with ``--trace``, runs one more
iteration with every probe installed.  ``setup_s`` is the median time
from spawning a launch to its fixture being ready.

Every end-to-end metric is printed by name with its unit.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics, or with
``--trace 1`` the per-layer metrics.  With several workloads it holds
``workloads`` (name -> metrics) instead of ``metrics``.  The exit code
is 1 when an output check fails, 2 when the program's sources are not
next to the benchmark.

``--out FILE`` writes raw timings, host facts, reference outputs and
per-layer metrics to FILE, and with ``--trace`` the traced spans to
``FILE`` with ``.trace.json`` in place of ``.json`` (Chrome trace
events).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

RUN_PY = pathlib.Path(__file__).resolve()
ROOT = RUN_PY.parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("connect_paper", "tenant_drill", "ffn", "connect_pipelined")
#: Fresh launches per workload; the last one also runs the iterations.
SETUP_LAUNCHES = 5
#: A launch that has not finished by then is killed.
LAUNCH_TIMEOUT_S = 170.0
#: Timings of the calibration loop before each workload.
CALIBRATION_REPEATS = 5
MESSAGE = "@perf "


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perf/run.py: no program sources at {SRC / 'repro'}; "
            "run the benchmark from a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(SRC)]


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced iteration")
    parser.add_argument("--out", type=pathlib.Path, help="result file")
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--events", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOAD_NAMES)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])
    return args


# ----------------------------------------------------------------- child


def _emit(message: dict) -> None:
    print(MESSAGE + json.dumps(message), flush=True)


def _child(args: argparse.Namespace) -> int:
    from perf import harness
    from perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload[0]]()
    fixture = workload.setup(args.seed)
    _emit({"ready": True})
    try:
        if args.child == "run":
            result = harness.measure(
                workload, fixture, args.seconds, bool(args.trace), args.events
            )
            _emit({"result": result})
    finally:
        workload.close(fixture)
        harness.stop_resource_tracker()
    return 0


# ---------------------------------------------------------------- parent


class LaunchError(RuntimeError):
    pass


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _launch(mode: str, name: str, args: argparse.Namespace) -> tuple[float, dict | None]:
    """Spawn one launch; returns (seconds to ready, result or None)."""
    cmd = [
        sys.executable, str(RUN_PY), "--child", mode, "--workload", name,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ] + (["--events"] if args.out is not None else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    timer = threading.Timer(LAUNCH_TIMEOUT_S, _kill_group, (proc,))
    timer.start()
    ready_s, result = None, None
    try:
        for line in proc.stdout:
            if not line.startswith(MESSAGE):
                sys.stderr.write(line)
                continue
            message = json.loads(line[len(MESSAGE):])
            if message.get("ready"):
                ready_s = time.perf_counter() - start
            else:
                result = message["result"]
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
    if code != 0:
        _kill_group(proc)  # leftovers of a crashed launch
        raise LaunchError(f"{name} {mode} launch exited with code {code}")
    if ready_s is None or (mode == "run" and result is None):
        raise LaunchError(f"{name} {mode} launch ended without reporting")
    return ready_s, result


def calibrate() -> list[float]:
    """Seconds of a fixed interpreter-plus-BLAS loop (about 0.15 s),
    ``CALIBRATION_REPEATS`` times: recorded before each workload so a
    slow or noisy host shows; ``compare.py`` reports its drift."""
    import numpy as np

    matrix = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) / 65536.0
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i % 7
        for _ in range(128):
            matrix @ matrix
        times.append(time.perf_counter() - start)
    return times


def host_facts() -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def run_workload(name: str, args: argparse.Namespace) -> dict:
    from perf.harness import E2E

    calibration = calibrate()
    setups = []
    result = None
    for launch in range(SETUP_LAUNCHES):
        mode = "run" if launch == SETUP_LAUNCHES - 1 else "setup"
        ready_s, result = _launch(mode, name, args)
        setups.append(ready_s)
    values = {
        "run_s": result["run_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {
        "calibration_s": calibration,
        "setup_launches_s": setups,
        **result,
        "metrics": {n: {"value": values[n], "unit": u} for n, u, _b in E2E},
        "correct": not result["problems"],
    }


def _finite(value):
    """JSON-safe copy: non-finite floats become None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def _print_record(name: str, record: dict, args: argparse.Namespace) -> None:
    from perf.layers import PER_LAYER

    state = "correct" if record["correct"] else "OUTPUT CHECKS FAILED"
    print(f"== {name} (seed {args.seed}): {len(record['iterations_s'])} timed "
          f"iterations, {record['attempted']} ops, {record['failed']} failed, {state}")
    for problem in record["problems"]:
        print(f"   check failed: {problem}")
    for metric, entry in record["metrics"].items():
        print(f"   {metric:<28} {entry['value']:.6g} {entry['unit']}")
    for key, value in record["reference"].items():
        print(f"   {'ref.' + key:<28} {value:.6g}")
    if "per_layer" in record:
        units = {n: u for n, u, _b in PER_LAYER}
        for metric, value in record["per_layer"].items():
            if value:
                print(f"   {metric:<28} {value:.6g} {units[metric]}")
        if record["missing_probes"]:
            print(f"   probes not found: {', '.join(record['missing_probes'])}")


def _parent(args: argparse.Namespace) -> int:
    from perf.layers import PER_LAYER

    records: dict[str, dict] = {}
    events: list[dict] = []
    for index, name in enumerate(args.workload):
        try:
            record = run_workload(name, args)
        except LaunchError as exc:
            print(f"perf/run.py: {exc}", file=sys.stderr)
            return 1
        for event in record.pop("events", []):
            event["pid"] = index
            events.append(event)
        records[name] = record
        _print_record(name, record, args)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format": 1,
            "host": host_facts(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workloads": records,
        }
        args.out.write_text(json.dumps(_finite(document), indent=1) + "\n")
        if events:
            trace_path = args.out.with_name(
                args.out.name.removesuffix(".json") + ".trace.json"
            )
            trace_path.write_text(json.dumps({"traceEvents": events}) + "\n")

    def metrics(record: dict) -> dict:
        if args.trace:
            units = {n: u for n, u, _b in PER_LAYER}
            return {n: {"value": v, "unit": units[n]}
                    for n, v in record["per_layer"].items()}
        return record["metrics"]

    correct = all(r["correct"] for r in records.values())
    summary: dict = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
    }
    if len(records) == 1:
        summary["metrics"] = metrics(next(iter(records.values())))
    else:
        summary["workloads"] = {n: metrics(r) for n, r in records.items()}
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _bootstrap()
    if args.child:
        return _child(args)
    return _parent(args)


if __name__ == "__main__":
    sys.exit(main())
