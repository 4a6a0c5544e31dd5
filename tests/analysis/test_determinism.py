"""Det pack: DET000/DET001 per file, and the analyzer's taint sources as
reported by the call-graph pass (DET010/DET011)."""

from __future__ import annotations

import pathlib
import textwrap

import pytest

from repro.analysis import (
    LintEngine,
    Severity,
    lint_python_paths,
    lint_source,
    registry,
    run_taint_analysis,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SIM = "src/repro/sim/engine.py"
PLAIN = "src/repro/viz/plots.py"


def lint(source: str, path: str = SIM):
    return lint_source(textwrap.dedent(source), path=path)


def taint(source: str, tmp_path: pathlib.Path):
    """Taint findings for one loose module; nothing in it is an entry
    point, so only module-level (import-time) sources can fire."""
    mod = tmp_path / "mod.py"
    mod.write_text(textwrap.dedent(source))
    return run_taint_analysis([mod], entry_modules=[])


def codes_of(findings):
    return {f.code for f in findings}


# ----------------------------------------------------------------- DET001


def test_det001_unseeded_default_rng():
    findings = lint("""
        import numpy as np
        rng = np.random.default_rng()
        a = np.random.default_rng(None)
        b = np.random.default_rng(seed=None)
        c = np.random.RandomState(None)
    """)
    assert codes_of(findings) == {"DET001"}
    assert len(findings) == 4  # a literal None seed is no seed
    assert all(f.severity is Severity.ERROR for f in findings)


def test_det001_seeded_rng_is_clean():
    assert lint("""
        import numpy as np
        rng = np.random.default_rng(42)
        rng2 = np.random.default_rng(seed=7)
    """) == []


def test_det001_from_import_and_alias():
    findings = lint("""
        from numpy.random import default_rng
        r = default_rng()
    """)
    assert codes_of(findings) == {"DET001"}
    findings = lint("""
        import numpy.random as npr
        r = npr.RandomState()
    """)
    assert codes_of(findings) == {"DET001"}


def test_det001_fires_outside_sim_paths_too():
    findings = lint("import numpy as np\nr = np.random.default_rng()\n",
                    path=PLAIN)
    assert codes_of(findings) == {"DET001"}
    assert findings[0].severity is Severity.ERROR


def test_unrelated_default_rng_name_not_flagged():
    # A local helper that happens to be called default_rng, no numpy link.
    assert lint("""
        def default_rng():
            return 4
        r = default_rng()
    """) == []


# ------------------------------------------- DET011: process-global RNG


def test_det011_aliased_import(tmp_path):
    findings = taint("""
        import random as rnd
        from random import randint
        a = rnd.random()
        b = randint(0, 5)
        c = rnd.Random()
        d = rnd.Random(None)
    """, tmp_path)
    assert [f.code for f in findings] == ["DET011"] * 4
    assert all(f.severity is Severity.ERROR for f in findings)
    assert all(f.qualname == "" for f in findings)
    assert all("<module> (import time)" in f.message for f in findings)
    messages = " ".join(f.message for f in findings)
    assert "random.random()" in messages and "random.randint()" in messages


def test_global_rng_seeding_helpers_exempt(tmp_path):
    assert taint("""
        import random
        random.seed(3)
        state = random.getstate()
        random.setstate(state)
        stream = random.Random(7)
        other = random.Random(x=7)
    """, tmp_path) == []


# --------------------------------------------------- DET010: host clocks


def test_det010_wall_clock_reads(tmp_path):
    findings = taint("""
        import time
        from datetime import datetime
        a = time.time()
        b = time.time_ns()
        c = datetime.now()
        d = datetime.utcnow()
    """, tmp_path)
    assert codes_of(findings) == {"DET010"}
    assert len(findings) == 4
    assert all(f.severity is Severity.ERROR for f in findings)
    assert "datetime.datetime.utcnow()" in findings[-1].message


def write_clock_modules(tmp_path, attr):
    (tmp_path / "clockmod.py").write_text(textwrap.dedent(f"""
        import time


        def tick():
            return time.{attr}()


        def report_elapsed():
            return time.{attr}()
    """))
    (tmp_path / "driver.py").write_text(textwrap.dedent("""
        import clockmod


        def run():
            return clockmod.tick()
    """))


@pytest.mark.parametrize("attr", [
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time",
])
def test_host_clock_sim_reachable_fires_det010(tmp_path, attr):
    write_clock_modules(tmp_path, attr)
    findings = run_taint_analysis([tmp_path], entry_modules=["driver"])
    (f,) = [f for f in findings if f.qualname == "tick"]
    assert f.code == "DET010"
    assert f"time.{attr}()" in f.message
    assert "driver.run -> clockmod.tick" in f.message


def test_host_clock_unreachable_is_quiet(tmp_path):
    write_clock_modules(tmp_path, "perf_counter")
    findings = run_taint_analysis([tmp_path], entry_modules=["driver"])
    assert "report_elapsed" not in {f.qualname for f in findings}


def test_module_level_wall_clock_in_fixture_is_import_time():
    findings = run_taint_analysis([FIXTURES / "unseeded_rng.py"])
    (f,) = findings  # jitter() is reachable from no entry point
    assert f.code == "DET010"
    assert f.qualname == ""
    assert "<module> (import time)" in f.message


# ----------------------------------------------------------------- DET000


def test_det000_syntax_error():
    (f,) = lint_source("def broken(:\n", path=SIM)
    assert f.code == "DET000"
    assert f.severity is Severity.ERROR


# ------------------------------------------------------------ path walking


def test_lint_python_paths_fixture_file():
    findings = lint_python_paths([FIXTURES / "unseeded_rng.py"])
    assert "DET001" in codes_of(findings)
    errors = [f for f in findings if f.severity is Severity.ERROR]
    assert errors  # the acceptance fixture must fail the lint


def test_lint_python_paths_directory_recurses():
    findings = lint_python_paths([FIXTURES])
    assert "DET001" in codes_of(findings)


# ------------------------------------------------ every rule has a fixture


def test_every_det_and_conc_rule_fires_on_a_committed_fixture():
    engine = LintEngine(entry_modules=["driver", "scheduler_conc"])
    report = engine.lint_paths(
        [FIXTURES / "deep_corpus", FIXTURES / "unseeded_rng.py"]
    )
    fired = codes_of(report.findings)
    for pack in ("det", "conc"):
        for rule in registry.rules(pack=pack):
            assert rule.code in fired, f"{rule.code} has no committed fixture"
