"""``perf/compare.py`` verdicts on synthetic result files."""

from __future__ import annotations

import json

from perf import compare

BOUNDS = {
    "run_s": ("lower", 0.15),
    "setup_s": ("lower", 0.25),
    "peak_rss_mb": ("lower", 0.1),
}


def result(run_s, setup_s=(0.5, 0.5, 0.5), rss=100.0, failed=0, seed=42,
           reference=None, calibration=None):
    record = {
        "iterations_s": list(run_s),
        "setup_launches_s": list(setup_s),
        "calibration_s": list(calibration or [0.1, 0.1, 0.1]),
        "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}},
        "attempted": 100,
        "failed": failed,
        "reference": reference or {"sim_makespan_s": 100.0},
    }
    return {"seed": seed, "workloads": {"w": record}}


def verdicts(base, new):
    rows = compare.compare(base, new, BOUNDS)
    return {row["metric"]: row["verdict"] for row in rows}


def test_single_pair_verdicts():
    a = result([1.00, 1.01, 0.99])
    assert verdicts([a], [result([1.02, 1.00, 1.01])])["run_s"] == "unchanged"
    assert verdicts([a], [result([1.30, 1.31, 1.29])])["run_s"] == "worse"
    assert verdicts([a], [result([0.70, 0.71, 0.69])])["run_s"] == "better"
    wide = result([0.7, 1.0, 1.4, 1.0])
    assert verdicts([a], [wide])["run_s"] == "unresolved"
    # A wide spread still resolves when every B sample beats every A one.
    assert verdicts([a], [result([0.5, 0.6, 0.8])])["run_s"] == "better"
    assert verdicts([a], [result([1.0], rss=120.0)])["peak_rss_mb"] == "worse"


def test_host_drift_is_shown_and_warned_but_keeps_the_verdict():
    a = result([1.00, 1.01, 0.99])
    slow_host = [0.13, 0.13, 0.13]  # the calibration loop is 30% slower
    rows = compare.compare([a], [result([1.30, 1.31, 1.29], calibration=slow_host)],
                           BOUNDS)
    run = next(r for r in rows if r["metric"] == "run_s")
    assert run["verdict"] == "worse"
    assert abs(run["host_drift"] - 0.3) < 1e-9
    rss = next(r for r in rows if r["metric"] == "peak_rss_mb")
    assert "host_drift" not in rss  # not a host-time metric
    assert [r["metric"] for r in compare.host_warnings(rows)] == ["run_s", "setup_s"]


def test_failed_fraction_increase_is_worse():
    rows = verdicts([result([1.0])], [result([1.0], failed=3)])
    assert rows["ops_failed_frac"] == "worse"
    assert verdicts([result([1.0])], [result([1.0])])["ops_failed_frac"] == "unchanged"


def test_reference_outputs_compare_exactly_on_one_seed():
    a = result([1.0], reference={"sim_makespan_s": 100.0, "seg_f1": 0.70})
    slower = result([1.0], reference={"sim_makespan_s": 100.1, "seg_f1": 0.705})
    rows = verdicts([a], [slower])
    assert rows["ref.sim_makespan_s"] == "worse"
    assert rows["ref.seg_f1"] == "unchanged"  # within 0.01 absolute
    other_seed = result([1.0], seed=7, reference={"sim_makespan_s": 50.0})
    assert "ref.sim_makespan_s" not in verdicts([a], [other_seed])


def test_paired_runs_need_nine_in_ten_wins():
    base = [result([1.0 + 0.01 * (i % 3)]) for i in range(10)]
    faster = [result([0.80 + 0.01 * (i % 3)]) for i in range(10)]
    rows = compare.compare(base, faster, BOUNDS)
    run = next(r for r in rows if r["metric"] == "run_s")
    assert run["verdict"] == "better" and run["wins"] == 1.0
    mixed = [result([0.80 if i % 2 else 1.2]) for i in range(10)]
    assert verdicts(base, mixed)["run_s"] != "better"


def test_main_reads_bounds_from_benchmark_json_and_exits_nonzero_on_worse(
    tmp_path, capsys
):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result([1.0, 1.0, 1.0])))
    b.write_text(json.dumps(result([2.0, 2.0, 2.0])))
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(a), str(a)]) == 0
