"""``repro lint`` CLI: the acceptance-criteria exit codes and options."""

from __future__ import annotations

import json
import pathlib

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO = pathlib.Path(__file__).resolve().parents[2]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def copy_corpus(tmp_path):
    # Copied out of tests/ so entry-module auto-detection kicks in
    # (driver/scheduler markers), exactly as it would in a real tree.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for src in (FIXTURES / "deep_corpus").glob("*.py"):
        (corpus / src.name).write_text(src.read_text())
    return corpus


# ------------------------------------------------------- acceptance gates


def test_lint_exits_nonzero_on_unseeded_rng_fixture(capsys):
    code, out, _err = run(
        ["lint", str(FIXTURES / "unseeded_rng.py")], capsys
    )
    assert code == 1
    assert "DET001" in out


def test_lint_exits_zero_on_clean_fixture(tmp_path, capsys):
    clean = tmp_path / "seeded.py"
    clean.write_text(
        "import numpy as np\n\n\n"
        "def draw(seed):\n"
        "    return np.random.default_rng(seed).random()\n"
    )
    code, out, _err = run(["lint", "--strict", str(clean)], capsys)
    assert code == 0
    assert "0 error(s), 0 warning(s)" in out


def test_lint_exits_zero_on_shipped_examples(capsys):
    code, _out, _err = run(
        ["lint", "--strict", str(REPO / "examples")], capsys
    )
    assert code == 0


def test_lint_default_target_testbed_and_connect(tmp_path, capsys, monkeypatch):
    # No paths: lint the built testbed, the CONNECT workflow, the loadtest
    # deployment and the package sources. Run outside the repo so no
    # baseline is loaded: the one documented exception stays a warning.
    monkeypatch.chdir(tmp_path)
    code, out, _err = run(["lint", "--scale", "0.001"], capsys)
    assert code == 0
    assert "0 error(s), 1 warning(s)" in out
    assert "CONC002" in out


def test_lint_deep_strict_repo_root_passes_with_committed_baseline(
    capsys, monkeypatch
):
    # The CI gate and the repo-wide clean check: no-path lint from the repo
    # root passes strict with the committed baseline of documented
    # exceptions (auto-loaded from the working directory).
    monkeypatch.chdir(REPO)
    code, out, _err = run(["lint", "--strict", "--scale", "0.001"], capsys)
    assert code == 0
    assert "0 error(s), 0 warning(s)" in out
    assert "1 suppressed by baseline" in out


# ----------------------------------------------------------------- options


def test_lint_json_format(tmp_path, capsys):
    code, out, _err = run(
        ["lint", "--format", "json", str(copy_corpus(tmp_path))], capsys
    )
    assert code == 1
    data = json.loads(out)
    assert data["summary"] == {"errors": 6, "warnings": 3, "total": 9}
    assert data["findings"][0]["code"] == "DET010"
    assert data["findings"][0]["location"]["path"].endswith("clock.py")


def test_lint_select_and_disable(tmp_path, capsys):
    target = str(copy_corpus(tmp_path))
    errors = "DET001,DET010,DET011,DET012,DET013"
    code, out, _err = run(["lint", "--disable", errors, target], capsys)
    assert code == 0
    code, out, _err = run(["lint", "--select", "CONC003", target], capsys)
    assert code == 0
    code, out, _err = run(["lint", "--select", "DET001", target], capsys)
    assert code == 1
    assert "DET001" in out and "DET010" not in out


def test_lint_strict_fails_on_warnings(tmp_path, capsys):
    target = str(copy_corpus(tmp_path))
    warnings_only = ["--select", "CONC001,CONC002,CONC003", target]
    code, out, _err = run(["lint", *warnings_only], capsys)
    assert code == 0  # warnings alone pass by default
    code, out, _err = run(["lint", "--strict", *warnings_only], capsys)
    assert code == 1
    assert "0 error(s), 3 warning(s)" in out


def test_lint_unknown_rule_code_is_usage_error(capsys):
    code, _out, err = run(
        ["lint", "--select", "SPEC999", str(FIXTURES / "unseeded_rng.py")],
        capsys,
    )
    assert code == 2
    assert "SPEC999" in err


def test_lint_missing_path_is_usage_error(capsys):
    code, _out, err = run(["lint", "/no/such/thing.py"], capsys)
    assert code == 2
    assert "no such lint target" in err


def test_lint_non_python_target_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "deploy.json"
    spec.write_text('{"pods": [{"name": "p", "gpu": 16}]}')
    code, out, err = run(["lint", str(tmp_path), str(spec)], capsys)
    assert code == 2
    assert out == ""
    assert str(spec) in err and "not a Python file" in err


def test_lint_list_rules(capsys):
    code, out, _err = run(["lint", "--list-rules"], capsys)
    assert code == 0
    for prefix in ("SPEC001", "DAG001", "DET001"):
        assert prefix in out


# ---------------------------------------------------------------- baseline


def test_lint_baseline_roundtrip(tmp_path, capsys):
    target = str(copy_corpus(tmp_path))
    baseline = tmp_path / "baseline.json"

    # Without a baseline the corpus fails.
    code, _out, _err = run(["lint", target], capsys)
    assert code == 1

    # Accept the current findings into a baseline.
    code, out, _err = run(
        ["lint", "--baseline", str(baseline), "--update-baseline", target],
        capsys,
    )
    assert code == 0
    assert baseline.exists()

    # With the baseline the same findings are suppressed.
    code, out, _err = run(["lint", "--baseline", str(baseline), target], capsys)
    assert code == 0
    assert "suppressed" in out


def test_lint_update_baseline_requires_path(capsys):
    code, _out, err = run(
        ["lint", "--update-baseline", str(FIXTURES / "unseeded_rng.py")],
        capsys,
    )
    assert code == 2
    assert "--baseline" in err


# ------------------------------------------------------ call-graph corpus


def test_lint_deep_exits_nonzero_on_corpus(tmp_path, capsys):
    code, out, _err = run(["lint", str(copy_corpus(tmp_path))], capsys)
    assert code == 1
    for expected in ("DET010", "DET011", "DET012", "DET013",
                     "CONC001", "CONC002", "CONC003"):
        assert expected in out
    assert "->" in out  # call paths are quoted


def test_lint_deep_select_and_disable_new_codes(tmp_path, capsys):
    corpus = str(copy_corpus(tmp_path))
    code, out, _err = run(
        ["lint", "--select", "CONC002", corpus], capsys
    )
    assert code == 0  # CONC002 is a warning
    assert "CONC002" in out and "DET010" not in out
    code, out, _err = run(
        ["lint", "--strict", "--disable", "DET010,DET011,DET012,"
         "DET013,DET001,CONC001,CONC002,CONC003", corpus],
        capsys,
    )
    assert code == 0


def test_lint_deep_output_is_byte_identical_across_runs(tmp_path, capsys):
    corpus = str(copy_corpus(tmp_path))
    runs = []
    for _ in range(2):
        _code, out, _err = run(
            ["lint", "--format", "json", corpus], capsys
        )
        runs.append(out)
    assert runs[0] == runs[1]


def test_lint_deep_baseline_roundtrip_and_autoload(tmp_path, capsys, monkeypatch):
    corpus = str(copy_corpus(tmp_path))
    monkeypatch.chdir(tmp_path)

    code, _out, _err = run(["lint", corpus], capsys)
    assert code == 1

    # Accept everything into the default baseline file name.
    code, _out, _err = run(
        ["lint", "--baseline", "lint-baseline.json",
         "--update-baseline", corpus],
        capsys,
    )
    assert code == 0

    # Without --baseline, lint auto-loads ./lint-baseline.json.
    code, out, _err = run(["lint", "--strict", corpus], capsys)
    assert code == 0
    assert "suppressed" in out
