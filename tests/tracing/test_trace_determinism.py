"""Trace determinism: same inputs → same trace, across compute engines.

The batched wavefront engine is a performance path; it must be
observationally identical to the serial reference — including in the
trace it emits (engine shows up only as a span attribute).
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.ml.ffn import FFNConfig, FFNModel
from repro.ml.inference import segment_volume
from repro.tracing import Tracer, validate_spans


def _make_model():
    return FFNModel(FFNConfig(fov=(5, 5, 5), filters=6, modules=1, seed=3))


def _make_volume():
    rng = np.random.default_rng(11)
    volume = rng.random((12, 16, 16)).astype(np.float32)
    volume[4:8, 4:10, 4:10] += 2.0
    return volume


def _traced_segment(engine: str):
    tracer = Tracer.counting(step=1.0)
    root = tracer.start_root("seg", "workflow")
    labels = segment_volume(
        _make_model(), _make_volume(), engine=engine,
        tracer=tracer, span_parent=root,
    )
    tracer.finish_root(root)
    return labels, tracer.finished_spans()


def _signature(spans):
    """Everything about a trace except ids/times and the engine attr."""
    return [
        (
            s.name,
            s.category,
            s.status,
            tuple(sorted(
                (k, repr(v)) for k, v in s.attributes.items()
                if k != "engine"
            )),
        )
        for s in spans
    ]


def test_serial_and_batched_traces_identical():
    labels_serial, spans_serial = _traced_segment("serial")
    labels_batched, spans_batched = _traced_segment("batched")
    np.testing.assert_array_equal(labels_serial, labels_batched)
    assert validate_spans(spans_serial) == []
    assert validate_spans(spans_batched) == []
    assert _signature(spans_serial) == _signature(spans_batched)
    # The only allowed difference: the engine attribute itself.
    engines = {
        s.attributes["engine"]
        for spans in (spans_serial, spans_batched)
        for s in spans
        if "engine" in s.attributes
    }
    assert engines == {"serial", "batched"}


def test_same_engine_trace_is_reproducible():
    _, first = _traced_segment("batched")
    _, second = _traced_segment("batched")
    assert [s.to_dict() for s in first] == [s.to_dict() for s in second]


@pytest.mark.parametrize("seed_batch", [1, 3])
def test_one_flood_span_schema(seed_batch):
    """Every flood, one seed or several, is a ``flood_fill`` span over
    ``wave:*`` children."""
    tracer = Tracer.counting(step=1.0)
    root = tracer.start_root("seg", "workflow")
    segment_volume(
        _make_model(), _make_volume(), seed_batch=seed_batch,
        tracer=tracer, span_parent=root,
    )
    tracer.finish_root(root)
    spans = tracer.finished_spans()
    by_id = {s.span_id: s for s in spans}
    floods = [s for s in spans if s.name == "flood_fill"]
    waves = [s for s in spans if s.name.startswith("wave:")]
    assert floods and waves
    assert all(set(s.attributes) == {"seeds", "engine", "steps"} for s in floods)
    assert all(set(w.attributes) == {"patches", "floods"} for w in waves)
    assert all(by_id[w.parent_id].name == "flood_fill" for w in waves)
    assert not [s for s in spans if s.name.startswith("frontier:")]


def test_counting_clock_orders_spans():
    _, spans = _traced_segment("serial")
    starts = [s.start for s in spans]
    assert starts == sorted(starts)  # creation order == time order
    segment = [s for s in spans if s.name == "segment_volume"]
    assert len(segment) == 1
    assert segment[0].attributes["objects"] >= 1


REPO = pathlib.Path(__file__).resolve().parents[2]


def _export_connect_trace(out: pathlib.Path, allocator: str | None) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env.pop("PYTHONMALLOC", None)
    if allocator is not None:
        env["PYTHONMALLOC"] = allocator
    result = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--scale", "0.002",
         "--workers", "4", "--gpus", "8", "--no-real-ml", "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=str(REPO), env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return out.read_bytes()


def test_connect_trace_export_independent_of_allocator(tmp_path):
    """Memory addresses must not order anything the trace records:
    flows that finish at one instant complete in start order."""
    default = _export_connect_trace(tmp_path / "default.json", None)
    system = _export_connect_trace(tmp_path / "malloc.json", "malloc")
    assert default == system
