"""The benchmark under ``perf/``: declarations, probes and tracing."""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from perf import harness, layers
from perf.probes import Profiler, TimedGenerator, layer_of_file
from perf.workloads import WORKLOADS, ConnectPaper, TenantDrill

REPO = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _declared(section: str) -> list[tuple[str, str, str]]:
    return [(m["name"], m["unit"], m["better"]) for m in SPEC[section]]


def test_declared_names_equal_emitted_names():
    assert _declared("end_to_end") == list(harness.E2E)
    assert _declared("per_layer") == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m[0] for m in harness.E2E + layers.PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name, unit, better in harness.E2E + layers.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
        assert better in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_layer_of_file():
    assert layer_of_file("/x/src/repro/netsim/flows.py") == "netsim"
    assert layer_of_file("/x/src/repro/loadgen.py") == "loadgen"
    assert layer_of_file("/usr/lib/python3/heapq.py") == "other"


def test_timed_generator_keeps_name_return_value_throw_and_close():
    prof = Profiler()

    def body():
        try:
            got = yield 1
        except KeyError:
            got = "thrown"
        yield got
        return "done"

    gen = TimedGenerator(body(), ("ml", "body"), prof)
    assert gen.__name__ == "body"
    assert next(gen) == 1
    assert gen.throw(KeyError("k")) == "thrown"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done"

    def outer():
        result = yield from TimedGenerator(body(), ("ml", "inner"), prof)
        return result

    delegating = outer()
    next(delegating)
    delegating.send("x")
    with pytest.raises(StopIteration) as stop:
        delegating.send(None)
    assert stop.value.value == "done"
    closing = TimedGenerator(body(), ("ml", "closing"), prof)
    next(closing)
    closing.close()
    assert prof.calls(name="inner") == 3


@pytest.mark.parametrize(
    "workload",
    [ConnectPaper(scale=0.002), TenantDrill(n_tenants=4, workflows_per_tenant=1)],
    ids=["connect_small", "drill_4x1"],
)
def test_traced_iteration_matches_untraced_and_restores_probes(workload):
    probe = Profiler()
    layers.install(probe)
    originals = probe.patched
    probe.restore()
    assert not probe.missing

    fixture = workload.setup(7)
    untraced = workload.summarize(fixture, workload.iterate(fixture), full=True)
    raw, wall_s, prof = harness.trace_iteration(workload, fixture)
    traced = workload.summarize(fixture, raw, full=True)

    for owner, attr, raw_attr in originals:
        assert vars(owner)[attr] is raw_attr, f"{owner}.{attr} not restored"
    assert untraced.problems == [] and traced.problems == []
    assert traced.checksum == untraced.checksum

    metrics = layers.layer_metrics(prof, wall_s, wall_s, traced.observed)
    assert list(metrics) == [name for name, _u, _b in layers.PER_LAYER]
    # Self times partition the root span; the probes must leave less
    # than 5% of it to the benchmark itself.
    attributed = sum(metrics[f"{layer}.share"] for layer in layers.LAYERS)
    assert attributed + metrics["perf.unattributed_share"] == pytest.approx(1.0, abs=1e-6)
    assert attributed >= 0.95
    assert metrics["sim.events"] > 0 and metrics["cluster.binds"] > 0


def test_run_refuses_a_checkout_without_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(REPO / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "*.trace.json"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "ffn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
