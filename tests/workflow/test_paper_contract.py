"""The ``connect_paper`` outputs that every host-time optimisation keeps.

One barrier run of CONNECT at the paper's full archive scale, no real
ML, seed 42 -- the configuration of the ``connect_paper`` benchmark
workload.  A speed-up must leave its report, artifacts, simulated
makespan and THREDDS request count bit-identical.
"""

import warnings

from perf.workloads import digest
from repro.testbed import build_nautilus_testbed
from repro.workflow import WorkflowDriver, build_connect_workflow


def test_connect_paper_outputs_pinned():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        testbed = build_nautilus_testbed(seed=42, scale=1.0)
        report = WorkflowDriver(testbed).run(build_connect_workflow(real_ml=False))
    artifacts = {step.name: step.artifacts for step in report.steps}
    assert report.succeeded, [s.error for s in report.steps]
    assert digest((report.to_dict(), artifacts)) == "6965c40ef3e71ead"
    assert report.total_duration_s == 93459.2050363148
    assert testbed.thredds.requests_served == 112273
