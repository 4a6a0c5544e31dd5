#!/usr/bin/env python3
"""Compare benchmark result files against the bounds in BENCHMARK.json.

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

``A`` is the parent, ``B`` the change; both are ``perf/run.py --out``
files.  One row is printed per (workload, metric):

- ``worse``: B's median is worse than A's by more than the metric's
  bound;
- ``better``: better by more than the bound;
- ``unchanged``: within the bound;
- ``unresolved``: the run-to-run spread (quartile distance over median)
  is wider than the bound, unless every sample of B beats every sample
  of A.

Host-time rows also show the host's drift from A to B: the change of the
calibration loop ``run.py`` times before each workload.  A drift wider
than a row's bound is printed as a warning, because the host alone could
then produce that row's verdict; it does not change the verdict.

For one pair of files the spread comes from the samples inside each
file (timed iterations, set-up launches).  With ``--base``/``--new``
each file is one run, files pair up in order, and the rows also give
each side's median and quartiles and B's win fraction; ``better`` then
also needs B to win at least 90% of at least 10 pairs and the medians
to differ by more than A's quartile distance.

A rise of the failed-operation fraction is a ``worse`` row.  When both
sides used the same seed, the deterministic reference outputs (simulated
times, quality) must match within their tolerances; a move beyond it is
a behaviour change and is reported in its direction.  The exit code is
1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Samples behind an end-to-end metric inside one result file.
SAMPLES = {"run_s": "iterations_s", "setup_s": "setup_launches_s"}

#: End-to-end metrics measured in host time, which a host drift moves.
HOST_TIME = ("run_s", "setup_s")

#: Reference outputs: (better, relative tolerance, absolute tolerance).
REFERENCE = {
    "paper_step_err": ("lower", 1e-6, 0.0),
    "sim_makespan_s": ("lower", 1e-6, 0.0),
    "wf_latency_p50_s": ("lower", 1e-6, 0.0),
    "wf_latency_p95_s": ("lower", 1e-6, 0.0),
    "bind_p99_batch_s": ("lower", 1e-6, 0.0),
    "bind_p90_high_s": ("lower", 1e-6, 1e-6),
    "failed_frac": ("lower", 0.0, 0.0),
    "seg_f1": ("higher", 0.0, 0.01),
}

#: Host-time throughputs of the ffn phases -> the phase they time.  They
#: are judged with the bound of ``run_s``.
THROUGHPUTS = {
    "train_patches_per_s": "train",
    "dp_train_patches_per_s": "dp_train",
    "seg_voxels_per_s": "segment",
    "fanout_voxels_per_s": "fanout",
}

MIN_PAIRS = 10
MIN_WIN = 0.9


def load_bounds() -> dict[str, tuple[str, float]]:
    """``name -> (better, bound)`` of every end-to-end metric."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def quartiles(samples: list[float]) -> list[float]:
    """Interpolated quartiles; with the few samples of one run the
    default exclusive method would return the extremes."""
    return statistics.quantiles(samples, n=4, method="inclusive")


def spread(samples: list[float]) -> float:
    """Quartile distance over median (0 with fewer than two samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _q2, q3 = quartiles(samples)
    median = statistics.median(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def judge(
    a: list[float],
    b: list[float],
    better: str,
    bound: float,
    paired: bool = False,
) -> tuple[str, float]:
    """Verdict and signed change (positive = worse) of B against A."""
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not b_beats_all:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if paired and change < 0:
        wins = sum(sign * (y - x) < 0 for x, y in zip(a, b)) / len(a)
        q1, _q2, q3 = quartiles(a)
        if len(a) >= MIN_PAIRS and wins >= MIN_WIN and abs(mb - ma) > q3 - q1:
            return "better", change
        return "unchanged", change
    if change < -bound:
        return "better", change
    return "unchanged", change


def _samples(record: dict, metric: str) -> list[float]:
    key = SAMPLES.get(metric)
    if key is not None:
        return list(record[key])
    return [record["metrics"][metric]["value"]]


def _throughput_samples(record: dict, name: str) -> list[float]:
    """Per-iteration throughputs, rebuilt from the phase timings."""
    phase_s = record["phases_s"][THROUGHPUTS[name]]
    work = record["reference"][name] * statistics.median(phase_s)
    return [work / s for s in phase_s]


def _failed_frac(record: dict) -> float:
    return record["failed"] / record["attempted"] if record["attempted"] else 0.0


def host_drift(recs_a: list[dict], recs_b: list[dict]) -> float | None:
    """Relative slow-down of the host from A to B (positive = slower),
    from the calibration loop; None when a file has no calibration."""
    if not all(r.get("calibration_s") for r in recs_a + recs_b):
        return None
    a = statistics.median(statistics.median(r["calibration_s"]) for r in recs_a)
    b = statistics.median(statistics.median(r["calibration_s"]) for r in recs_b)
    return b / a - 1.0


def compare(
    base: list[dict], new: list[dict], bounds: dict[str, tuple[str, float]]
) -> list[dict]:
    """Rows for every (workload, metric) both sides measured."""
    paired = len(base) > 1
    rows = []

    def add(workload, metric, a, b, better, bound, drift=None):
        verdict, change = judge(a, b, better, bound, paired)
        row = {
            "workload": workload, "metric": metric, "verdict": verdict,
            "a": statistics.median(a), "b": statistics.median(b),
            "change": change, "spread": max(spread(a), spread(b)),
            "bound": bound,
        }
        if drift is not None:
            row["host_drift"] = drift
        if paired:
            sign = 1.0 if better == "lower" else -1.0
            row["a_quartiles"] = quartiles(a)
            row["b_quartiles"] = quartiles(b)
            row["wins"] = sum(sign * (y - x) < 0 for x, y in zip(a, b)) / len(a)
        rows.append(row)

    names = [n for n in base[0]["workloads"] if all(n in r["workloads"] for r in base + new)]
    for workload in names:
        recs_a = [r["workloads"][workload] for r in base]
        recs_b = [r["workloads"][workload] for r in new]

        def series(get):
            if paired:
                return [statistics.median(get(r)) for r in recs_a], [
                    statistics.median(get(r)) for r in recs_b
                ]
            return get(recs_a[0]), get(recs_b[0])

        drift = host_drift(recs_a, recs_b)
        for metric, (better, bound) in bounds.items():
            a, b = series(lambda r, m=metric: _samples(r, m))
            add(workload, metric, a, b, better, bound,
                drift if metric in HOST_TIME else None)
        for name in THROUGHPUTS:
            if name in recs_a[0]["reference"] and name in recs_b[0]["reference"]:
                a, b = series(lambda r, n=name: _throughput_samples(r, n))
                add(workload, name, a, b, "higher", bounds["run_s"][1], drift)
        fa = max(_failed_frac(r) for r in recs_a)
        fb = max(_failed_frac(r) for r in recs_b)
        rows.append({
            "workload": workload, "metric": "ops_failed_frac", "a": fa, "b": fb,
            "verdict": "worse" if fb > fa else "unchanged",
        })
        if all(r["seed"] == base[0]["seed"] for r in base + new):
            for name, (better, rel, abs_tol) in REFERENCE.items():
                if name not in recs_a[0]["reference"]:
                    continue
                values = [r["reference"].get(name) for r in recs_a + recs_b]
                rows.append(_reference_row(workload, name, values, len(recs_a),
                                           better, rel, abs_tol))
    return rows


def _reference_row(workload, name, values, n_base, better, rel, abs_tol) -> dict:
    """Deterministic outputs: every run must equal the first base run.

    A result file stores an infinite value (a workflow that never
    finished) as null.
    """
    values = [math.inf if v is None else v for v in values]
    first = values[0]
    verdict, other = "unchanged", values[-1]
    for i, value in enumerate(values[1:], start=1):
        if value == first or abs(value - first) <= max(rel * abs(first), abs_tol):
            continue
        other = value
        if i < n_base:
            verdict = "unresolved"  # the base runs disagree with each other
        else:
            improved = value < first if better == "lower" else value > first
            verdict = "better" if improved else "worse"
        break
    return {"workload": workload, "metric": f"ref.{name}", "a": first,
            "b": other, "verdict": verdict}


def host_warnings(rows: list[dict]) -> list[dict]:
    """Host-time rows whose host drift alone exceeds their bound."""
    return [r for r in rows if abs(r.get("host_drift", 0.0)) > r.get("bound", math.inf)]


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<24} {'A':>12} {'B':>12} "
        f"{'change':>8} {'spread':>7} {'bound':>6} {'host':>7}  verdict"
    ]
    for row in rows:
        def num(value):
            return f"{value:>12.6g}" if isinstance(value, (int, float)) else f"{str(value):>12}"

        change = f"{row['change']:+8.1%}" if "change" in row else f"{'':>8}"
        spread_ = f"{row['spread']:7.1%}" if "spread" in row else f"{'':>7}"
        bound = f"{row['bound']:6.0%}" if "bound" in row else f"{'':>6}"
        host = f"{row['host_drift']:+7.1%}" if "host_drift" in row else f"{'':>7}"
        line = (f"{row['workload']:<18} {row['metric']:<24} {num(row['a'])} "
                f"{num(row['b'])} {change} {spread_} {bound} {host}  {row['verdict']}")
        if "wins" in row:
            qa, qb = row["a_quartiles"], row["b_quartiles"]
            line += (f"  (A q1-q3 {qa[0]:.4g}-{qa[2]:.4g}, B q1-q3 "
                     f"{qb[0]:.4g}-{qb[2]:.4g}, B wins {row['wins']:.0%})")
        lines.append(line)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=pathlib.Path,
                        help="A.json B.json (one pair)")
    parser.add_argument("--base", nargs="+", type=pathlib.Path, default=[])
    parser.add_argument("--new", nargs="+", type=pathlib.Path, default=[])
    args = parser.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.base or args.new:
            parser.error("give exactly two files, or --base and --new")
        base_paths, new_paths = [args.files[0]], [args.files[1]]
    else:
        base_paths, new_paths = args.base, args.new
        if not base_paths or len(base_paths) != len(new_paths):
            parser.error("--base and --new need the same, nonzero number of files")
    base = [json.loads(p.read_text()) for p in base_paths]
    new = [json.loads(p.read_text()) for p in new_paths]
    rows = compare(base, new, load_bounds())
    print(render(rows))
    if 1 < len(base) < MIN_PAIRS:
        print(f"note: {len(base)} pairs; at least {MIN_PAIRS} are needed to claim a gain")
    for row in host_warnings(rows):
        print(f"warning: {row['workload']}: the host moved {row['host_drift']:+.1%} "
              f"between A and B, beyond the {row['bound']:.0%} bound of {row['metric']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"{len(rows)} rows: " + ", ".join(
        f"{sum(r['verdict'] == v for r in rows)} {v}"
        for v in ("better", "worse", "unchanged", "unresolved")
    ))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
