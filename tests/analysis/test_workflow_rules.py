"""DAG pack (DAG001–DAG007) over views and live workflows."""

from __future__ import annotations

from repro.analysis import (
    Severity,
    StepView,
    WorkflowView,
    lint_workflow,
    registry,
    workflow_view,
)
from repro.analysis.graph import concurrent_pairs, find_cycle, format_cycle
from repro.analysis.workflow_rules import run_dag_rules


def codes_of(findings):
    return {f.code for f in findings}


def view_of(*steps: StepView, total_gpus=None, name="w") -> WorkflowView:
    return WorkflowView(name=name, steps=tuple(steps), total_gpus=total_gpus)


# ------------------------------------------------------------------ graph


def test_find_cycle_deterministic_and_normalized():
    deps = {"a": ("c",), "b": ("a",), "c": ("b",)}
    for _ in range(5):
        assert find_cycle(deps) == ["a", "c", "b"]
    assert format_cycle(["a", "c", "b"]) == "a -> c -> b -> a"


def test_find_cycle_none_on_dag():
    assert find_cycle({"a": (), "b": ("a",), "c": ("a", "b")}) is None


def test_find_cycle_ignores_unknown_deps():
    assert find_cycle({"a": ("ghost",)}) is None


def test_concurrent_pairs_diamond():
    deps = {"a": (), "b": ("a",), "c": ("a",), "d": ("b", "c")}
    pairs = concurrent_pairs(deps)
    assert frozenset(("b", "c")) in pairs
    assert frozenset(("a", "b")) not in pairs
    assert frozenset(("a", "d")) not in pairs


# ---------------------------------------------------------------- DAG001


def test_dag001_cycle_with_path():
    findings = run_dag_rules(
        view_of(
            StepView("a", depends_on=("c",)),
            StepView("b", depends_on=("a",)),
            StepView("c", depends_on=("b",)),
        )
    )
    assert codes_of(findings) == {"DAG001"}
    (f,) = findings
    assert f.severity is Severity.ERROR
    assert f.message == "dependency cycle: a -> c -> b -> a"


def test_dag001_does_not_double_report_self_dependency():
    findings = run_dag_rules(view_of(StepView("a", depends_on=("a",))))
    assert codes_of(findings) == {"DAG002"}


# ---------------------------------------------------------------- DAG002/3


def test_dag002_self_dependency():
    (f,) = run_dag_rules(view_of(StepView("a", depends_on=("a",))))
    assert f.code == "DAG002"
    assert "depends on itself" in f.message


def test_dag003_unknown_dependency():
    findings = run_dag_rules(
        view_of(StepView("a", depends_on=("ghost",)))
    )
    assert codes_of(findings) == {"DAG003"}
    assert "unknown step 'ghost'" in findings[0].message


# ---------------------------------------------------------------- DAG004


def test_dag004_orphan_in_wired_workflow():
    findings = run_dag_rules(
        view_of(
            StepView("a"),
            StepView("b", depends_on=("a",)),
            StepView("stray"),
        )
    )
    assert codes_of(findings) == {"DAG004"}
    assert "'stray'" in findings[0].message


def test_dag004_all_parallel_batch_is_fine():
    findings = run_dag_rules(view_of(StepView("a"), StepView("b")))
    assert "DAG004" not in codes_of(findings)


# ---------------------------------------------------------------- DAG005


def test_dag005_network_step_without_budget():
    findings = run_dag_rules(
        view_of(StepView("fetch", network_bound=True))
    )
    assert codes_of(findings) == {"DAG005"}


def test_dag005_satisfied_by_timeout_or_retries():
    assert "DAG005" not in codes_of(
        run_dag_rules(view_of(StepView("f", network_bound=True, timeout_s=60.0)))
    )
    assert "DAG005" not in codes_of(
        run_dag_rules(view_of(StepView("f", network_bound=True, max_retries=2)))
    )


# ---------------------------------------------------------------- DAG006


def test_dag006_checkpoint_gap():
    findings = run_dag_rules(
        view_of(
            StepView("volatile", checkpointable=False),
            StepView("after", depends_on=("volatile",)),
        )
    )
    assert "DAG006" in codes_of(findings)
    (f,) = [f for f in findings if f.code == "DAG006"]
    assert "'volatile'" in f.message and "after" in f.message


def test_dag006_leaf_step_needs_no_checkpoint():
    findings = run_dag_rules(
        view_of(
            StepView("a"),
            StepView("sink", depends_on=("a",), checkpointable=False),
        )
    )
    assert "DAG006" not in codes_of(findings)


# ---------------------------------------------------------------- DAG007


def test_dag007_concurrent_branches_oversubscribe():
    findings = run_dag_rules(
        view_of(
            StepView("a"),
            StepView("b", depends_on=("a",), gpus=40),
            StepView("c", depends_on=("a",), gpus=40),
            StepView("d", depends_on=("b", "c")),
            total_gpus=64,
        )
    )
    dag007 = [f for f in findings if f.code == "DAG007"]
    assert dag007 and dag007[0].severity is Severity.ERROR
    assert "80 GPUs" in dag007[0].message
    assert "64" in dag007[0].message


def test_dag007_serialized_chain_is_fine():
    findings = run_dag_rules(
        view_of(
            StepView("b", gpus=40),
            StepView("c", depends_on=("b",), gpus=40),
            total_gpus=64,
        )
    )
    assert "DAG007" not in codes_of(findings)


def test_dag007_single_step_over_capacity():
    findings = run_dag_rules(
        view_of(StepView("big", gpus=100), total_gpus=64)
    )
    dag007 = [f for f in findings if f.code == "DAG007"]
    assert dag007 and "100" in dag007[0].message


def test_dag007_skipped_without_capacity_info():
    findings = run_dag_rules(
        view_of(StepView("big", gpus=100), total_gpus=None)
    )
    assert "DAG007" not in codes_of(findings)


# -------------------------------------------------------------- adapters


def test_workflow_view_adapter_over_connect():
    from repro.workflow import build_connect_workflow

    wf = build_connect_workflow()
    view = workflow_view(wf, total_gpus=64)
    by_name = {s.name: s for s in view.steps}
    assert by_name["download"].network_bound  # image hint + class attr
    assert by_name["download"].max_retries == 1
    assert by_name["training"].gpus == 1
    assert by_name["inference"].gpus == 50
    assert by_name["visualization"].gpus == 1
    # The shipped workflow lints clean against the default testbed.
    assert lint_workflow(wf, total_gpus=64) == []


def test_cyclic_fixture_produces_dag001():
    # The CONNECT chain with its first step wired back to its last.
    view = view_of(
        StepView("download", depends_on=("visualization",)),
        StepView("training", depends_on=("download",)),
        StepView("inference", depends_on=("training",)),
        StepView("visualization", depends_on=("inference",)),
        name="tangled",
    )
    findings = run_dag_rules(view)
    assert codes_of(findings) == {"DAG001"}
    assert "->" in findings[0].message


def test_good_fixture_is_clean():
    # A CONNECT-shaped chain: the network step has a retry budget and
    # the widest step fits the 16 GPUs of two FIONA8s.
    view = view_of(
        StepView("download", network_bound=True, max_retries=1,
                 image="chase-ci/thredds-downloader:1.2"),
        StepView("training", depends_on=("download",), gpus=1),
        StepView("inference", depends_on=("training",), gpus=8),
        StepView("visualization", depends_on=("inference",), gpus=1),
        total_gpus=16,
        name="connect",
    )
    assert run_dag_rules(view) == []


def test_dag_pack_registers_dag001_to_dag007():
    assert registry.codes(pack="dag") == [f"DAG00{i}" for i in range(1, 8)]
