"""Determinism taint (DET010-DET013): interprocedural propagation."""

from __future__ import annotations

import pathlib

from repro.analysis import Severity, build_call_graph, run_taint_analysis
from repro.analysis.engine import LintEngine

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "deep_corpus"

ENTRIES = ["driver", "scheduler_conc"]


def corpus_taint():
    graph = build_call_graph([CORPUS], entry_modules=ENTRIES)
    return run_taint_analysis([CORPUS], graph=graph)


def by_code(findings):
    out = {}
    for f in findings:
        out.setdefault(f.code, []).append(f)
    return out


# ------------------------------------------------- the four taint rules


def test_corpus_fires_each_deep_det_rule():
    codes = by_code(corpus_taint())
    assert set(codes) == {"DET010", "DET011", "DET012", "DET013"}
    assert len(codes["DET013"]) == 2  # listdir + set literal


def test_det010_wall_clock_quotes_call_path():
    (f,) = by_code(corpus_taint())["DET010"]
    assert f.severity is Severity.ERROR
    assert f.qualname == "stamp"
    assert "driver.run -> clock.stamp" in f.message
    assert "time.time()" in f.message


def test_det011_taint_crosses_two_hops():
    (f,) = by_code(corpus_taint())["DET011"]
    assert f.location.path.endswith("rngpool.py")
    assert "driver.run -> rngpool.draw -> rngpool._jitter" in f.message


def test_det012_env_read_detected():
    (f,) = by_code(corpus_taint())["DET012"]
    assert "os.environ.get" in f.message
    assert f.qualname == "limit"


def test_det013_unordered_iteration_sources():
    findings = by_code(corpus_taint())["DET013"]
    details = " ".join(f.message for f in findings)
    assert "os.listdir" in details
    assert "set literal" in details


def test_unreachable_functions_stay_quiet():
    findings = corpus_taint()
    paths = {f.location.path for f in findings}
    assert all("driver.py" not in p for p in paths)
    quals = {f.qualname for f in findings}
    assert "make_gen_unreached" not in quals
    assert "dead_code_draw" not in quals


def test_taint_findings_are_deterministic():
    first = [(f.code, f.location.path, f.location.line, f.message)
             for f in corpus_taint()]
    second = [(f.code, f.location.path, f.location.line, f.message)
              for f in corpus_taint()]
    assert first == second


# ------------------------------------------- the engine's one source pass


def test_deep_mode_drops_shallow_det002_in_functions():
    # dead_code_draw's random.random() is a global-RNG source, but the
    # call graph proves it unreachable: the engine reports no DET011.
    report = LintEngine(entry_modules=ENTRIES).lint_paths([CORPUS])
    codes_for_envcfg = {
        f.code for f in report.findings if f.location.path.endswith("envcfg.py")
    }
    assert codes_for_envcfg == {"DET012"}


def test_deep_mode_keeps_shallow_det001():
    # DET001 (unseeded generator construction) is a defect regardless of
    # reachability: the engine reports it in an unreached function too.
    report = LintEngine(entry_modules=ENTRIES).lint_paths([CORPUS])
    det001 = [f for f in report.findings if f.code == "DET001"]
    assert len(det001) == 1
    assert det001[0].location.path.endswith("rngpool.py")


# ------------------------------------------------------ fingerprint drift


def test_fingerprints_survive_file_moves_and_line_drift(tmp_path):
    original = {(f.code, f.fingerprint) for f in corpus_taint()}

    # Copy the corpus elsewhere and pad every file with leading comments
    # so all line numbers shift.
    moved = tmp_path / "relocated"
    moved.mkdir()
    for src in CORPUS.glob("*.py"):
        body = src.read_text()
        (moved / src.name).write_text("# moved\n# padding\n\n" + body)

    graph = build_call_graph([moved], entry_modules=ENTRIES)
    relocated = {(f.code, f.fingerprint)
                 for f in run_taint_analysis([moved], graph=graph)}
    assert relocated == original
