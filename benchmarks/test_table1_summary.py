"""Table I — Nautilus resource summary for all four workflow steps.

This is the headline reproduction: the whole 4-step workflow at the
paper's full scale (the session ``paper_run``), with every Table-I cell
checked against the paper.
"""

import pytest

from repro.viz import render_table1

#: Table I of the paper, verbatim.
PAPER_TABLE = {
    "download": dict(pods=14, cpus=42, gpus=0, data_gb=246.0, mem_gb=225.0,
                     minutes=37.0),
    "training": dict(pods=1, cpus=1, gpus=1, data_gb=0.381, mem_gb=14.8,
                     minutes=306.0),
    "inference": dict(pods=50, cpus=50, gpus=50, data_gb=246.0, mem_gb=600.0,
                      minutes=1133.0),
    "visualization": dict(pods=1, cpus=1, gpus=1, data_gb=5.8, mem_gb=12.0,
                          minutes=None),  # paper: NA
}

#: Relative error allowed on every timed step's minutes.
TIME_BOUND = 0.10


def test_table1_summary(paper_run):
    _testbed, _workflow, report = paper_run
    print()
    print(render_table1(report))

    table = report.table()
    for step_name, paper in PAPER_TABLE.items():
        measured = table[step_name]
        # Exact structural cells.
        assert measured["pods"] == paper["pods"], step_name
        assert round(measured["cpus"]) == paper["cpus"], step_name
        assert measured["gpus"] == paper["gpus"], step_name
        # Data within 3%, memory within 2%.
        assert measured["data_processed_gb"] == pytest.approx(
            paper["data_gb"], rel=0.03
        ), step_name
        assert measured["memory_gb"] == pytest.approx(
            paper["mem_gb"], rel=0.02
        ), step_name
        # Durations: NA stays NA; timed steps within 10%.
        if paper["minutes"] is None:
            assert measured["total_time"] == "NA", step_name
        else:
            minutes = measured["total_minutes"]
            error = abs(minutes - paper["minutes"]) / paper["minutes"]
            print(
                f"{step_name:>13}: {minutes:7.1f} min vs paper "
                f"{paper['minutes']:6.0f} min, error {error:6.2%} "
                f"(bound {TIME_BOUND:.0%})"
            )
            assert minutes == pytest.approx(
                paper["minutes"], rel=TIME_BOUND
            ), step_name
