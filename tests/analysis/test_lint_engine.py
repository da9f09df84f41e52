"""Engine/registry/CLI behaviour of ``repro lint``.

Covers the pieces the fixture corpus does not: registry invariants,
pragma parsing edge cases, select/ignore filtering, findings that follow
line drift, the CLI surface and the pinned JSON schema (the future
run-database service ingests it).
"""

import ast
import json

import pytest

from repro.analysis.lint import (
    FileContext,
    Pragmas,
    run_lint,
    to_json_text,
)
from repro.analysis.lint.registry import (
    LintRule,
    get_rule,
    iter_rules,
    path_is_exempt,
    register,
    rule_ids,
    unregister,
)
from repro.cli import main


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

def test_rule_ids_sorted_and_complete():
    ids = rule_ids()
    assert ids == sorted(ids)
    assert ids == [f"REP{n:03d}" for n in range(1, 9)]


def test_rules_carry_docs_metadata():
    for spec in iter_rules():
        assert spec.name and spec.summary and spec.hint
        assert spec.rationale, f"{spec.id} must cite the bug class it codifies"


def test_unknown_rule_raises_with_catalogue():
    with pytest.raises(KeyError, match="REP001"):
        get_rule("REP999")


def test_register_rejects_bad_id_and_duplicates():
    spec = LintRule(
        id="REP900", name="t", summary="t", hint="t",
        check=lambda ctx: iter(()),
    )
    register(spec)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register(spec)
    finally:
        unregister("REP900")
    with pytest.raises(ValueError, match="REP"):
        register(
            LintRule(id="X1", name="t", summary="t", hint="t",
                     check=lambda ctx: iter(()))
        )


def test_path_is_exempt_matches_segment_suffix_only():
    spec = LintRule(
        id="REP901", name="t", summary="t", hint="t",
        check=lambda ctx: iter(()), exempt=("cli.py", "nn/seeding.py"),
    )
    assert path_is_exempt("src/repro/cli.py", spec)
    assert path_is_exempt("cli.py", spec)
    assert path_is_exempt("src/repro/nn/seeding.py", spec)
    assert not path_is_exempt("tools/mycli.py", spec)
    assert not path_is_exempt("src/repro/nn/other.py", spec)


# --------------------------------------------------------------------- #
# pragmas
# --------------------------------------------------------------------- #

def test_line_pragma_scopes_to_listed_rules():
    pragmas = Pragmas.scan(["x = 1  # repro: noqa[REP001, REP005]"])
    assert pragmas.suppresses(1, "REP001")
    assert pragmas.suppresses(1, "REP005")
    assert not pragmas.suppresses(1, "REP003")
    assert not pragmas.suppresses(2, "REP001")


def test_bare_pragma_waives_every_rule_on_that_line():
    pragmas = Pragmas.scan(["x = 1  # repro: noqa"])
    assert pragmas.suppresses(1, "REP001")
    assert pragmas.suppresses(1, "REP008")


def test_file_pragma_waives_rule_everywhere():
    pragmas = Pragmas.scan(["# repro: noqa-file[REP007]", "x = 1"])
    assert pragmas.suppresses(99, "REP007")
    assert not pragmas.suppresses(99, "REP001")


# --------------------------------------------------------------------- #
# name resolution
# --------------------------------------------------------------------- #

BAD_SNIPPET = (
    "import os\n"
    "\n"
    "def cache_dir():\n"
    '    return os.environ["REPRO_CACHE_DIR"]\n'
)


def test_file_context_qualname_resolves_aliases(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "x = np.random.default_rng(0)\n"
    )
    ctx = FileContext(target, "mod.py", target.read_text())
    call = next(
        node for node in ast.walk(ctx.tree) if isinstance(node, ast.Call)
    )
    assert ctx.qualname(call.func) == "numpy.random.default_rng"


# --------------------------------------------------------------------- #
# select / ignore / parse errors
# --------------------------------------------------------------------- #

def test_select_and_ignore_filter_rules(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "import os\n"
        "cache = {}\n"
        'a = os.getenv("X")\n'
    )
    everything = run_lint([target], root=tmp_path)
    assert {f.rule for f in everything.findings} == {"REP003", "REP007"}
    only_env = run_lint([target], root=tmp_path, select=["REP003"])
    assert {f.rule for f in only_env.findings} == {"REP003"}
    no_env = run_lint([target], root=tmp_path, ignore=["REP003"])
    assert {f.rule for f in no_env.findings} == {"REP007"}


def test_syntax_error_is_reported_not_raised(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def oops(:\n")
    report = run_lint([target], root=tmp_path)
    assert report.findings == []
    assert len(report.parse_errors) == 1
    assert "broken.py" in report.parse_errors[0]


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def test_cli_exit_codes_and_text_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(BAD_SNIPPET)
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    assert main(["lint", str(clean)]) == 0
    assert main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "REP003" in out
    assert "hint:" in out


def test_cli_select_and_list_rules(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(BAD_SNIPPET)
    assert main(["lint", str(dirty), "--select", "REP001"]) == 0
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "unseeded-rng" in out and "REP008" in out


@pytest.mark.parametrize("argv", [
    ["--flow"],
    ["--baseline", "lint-baseline.json"],
    ["--write-baseline"],
    ["--ratchet", "old.json"],
])
def test_cli_has_no_flow_or_baseline_options(argv):
    with pytest.raises(SystemExit) as exc:
        main(["lint", *argv])
    assert exc.value.code == 2


def test_cli_graph_is_not_a_mode(capsys):
    assert main(["lint", "graph", "repro.cli.main"]) == 2
    assert "not a python file or directory: graph" in capsys.readouterr().err


def test_cli_stats_output(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(BAD_SNIPPET)
    assert main(["lint", str(dirty), "--stats"]) == 1
    out = capsys.readouterr().out
    assert "findings per rule" in out
    assert "findings per package" in out


# --------------------------------------------------------------------- #
# JSON schema (pinned)
# --------------------------------------------------------------------- #

def test_json_schema_is_stable(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text(BAD_SNIPPET)
    assert main(["lint", str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "version", "tool", "files_checked", "findings", "stats",
        "parse_errors", "dead_suppressions",
    }
    assert payload["version"] == 3
    assert payload["tool"] == "repro-lint"
    assert payload["files_checked"] == 1
    (finding,) = payload["findings"]
    assert set(finding) == {
        "path", "line", "col", "rule", "message", "hint",
    }
    assert finding["rule"] == "REP003"
    assert finding["line"] == 4 and finding["col"] >= 1
    assert set(payload["stats"]) == {
        "total", "by_rule", "by_package", "suppressed", "files_checked",
        "dead_suppressions",
    }
    assert payload["stats"]["by_rule"] == {"REP003": 1}


def test_to_json_text_is_deterministic(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(BAD_SNIPPET)
    first = to_json_text(run_lint([target], root=tmp_path))
    second = to_json_text(run_lint([target], root=tmp_path))
    assert first == second
    assert first.endswith("\n")


def test_rules_are_pure_ast_checks(tmp_path):
    # Sanity: the engine must never import/execute the analyzed file.
    target = tmp_path / "sideeffect.py"
    marker = tmp_path / "ran.txt"
    target.write_text(
        "import pathlib\n"
        f"pathlib.Path({str(marker)!r}).write_text('ran')"
        "  # repro: noqa[REP005]\n"
    )
    run_lint([target], root=tmp_path)
    assert not marker.exists()
    assert isinstance(ast.parse(target.read_text()), ast.Module)


# --------------------------------------------------------------------- #
# findings follow line drift
# --------------------------------------------------------------------- #

DRIFT_SNIPPETS = {
    "multiline-statement": (
        "import os\n"
        "value = os.environ[\n"
        '    "REPRO_X"\n'
        "]\n"
    ),
    "decorated-def": (
        "import functools\n"
        "import os\n"
        "@functools.lru_cache\n"
        "def f():\n"
        '    return os.getenv("REPRO_X")\n'
    ),
    "walrus-body": (
        "import os\n"
        'y = (z := os.getenv("REPRO_X"))\n'
    ),
    "lambda-body": (
        "import os\n"
        'f = lambda: os.getenv("REPRO_X")\n'
    ),
    "duplicate-identical-lines": (
        "import os\n"
        'a = os.getenv("REPRO_X")\n'
        'a = os.getenv("REPRO_X")\n'
    ),
}


@pytest.mark.parametrize("shape", sorted(DRIFT_SNIPPETS))
def test_findings_follow_line_drift(shape, tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DRIFT_SNIPPETS[shape])
    before = run_lint([target], root=tmp_path, select=["REP003"])
    assert before.findings, f"snippet {shape!r} produced no findings"
    target.write_text("# drift\n# drift\n" + DRIFT_SNIPPETS[shape])
    after = run_lint([target], root=tmp_path, select=["REP003"])
    assert len(after.findings) == len(before.findings)
    for old, new in zip(before.findings, after.findings):
        assert new.line == old.line + 2
        assert (new.col, new.message) == (old.col, old.message)


# --------------------------------------------------------------------- #
# dead-suppression detection
# --------------------------------------------------------------------- #

def _dead_of_kind(report, kind):
    # Linting one tmp file legitimately reports the selected rule's
    # repo-tree exempt paths as unmatched; these tests care about the
    # pragma kinds only.
    return [d for d in report.dead_suppressions if d["kind"] == kind]


def test_dead_noqa_pragma_is_reported(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("VALUE = 1  # repro: noqa[REP003]\n")
    report = run_lint([target], root=tmp_path, select=["REP003"])
    assert report.findings == []
    assert [(d["kind"], d["line"]) for d in _dead_of_kind(report, "noqa")] == [
        ("noqa", 1)
    ]
    assert report.stats()["dead_suppressions"] == len(report.dead_suppressions)


def test_live_noqa_pragma_is_not_reported(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "import os\n"
        'a = os.getenv("X")  # repro: noqa[REP003]\n'
    )
    report = run_lint([target], root=tmp_path, select=["REP003"])
    assert report.suppressed == 1
    assert _dead_of_kind(report, "noqa") == []


def test_pragma_in_docstring_is_inert(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        '"""Example docs: suppress with ``# repro: noqa[REP003]``."""\n'
        "import os\n"
        'a = os.getenv("X")\n'
    )
    report = run_lint([target], root=tmp_path, select=["REP003"])
    # Mentioning pragma syntax in a docstring neither suppresses the
    # finding on that line nor registers as a dead suppression.
    assert len(report.findings) == 1
    assert _dead_of_kind(report, "noqa") == []


def test_dead_exempt_path_is_reported(tmp_path):
    spec = LintRule(
        id="REP902", name="t", summary="t", hint="t",
        check=lambda ctx: iter(()), exempt=("ghost/only_on_paper.py",),
    )
    register(spec)
    try:
        target = tmp_path / "mod.py"
        target.write_text("VALUE = 1\n")
        report = run_lint([target], root=tmp_path, select=["REP902"])
    finally:
        unregister("REP902")
    assert [(d["kind"], d["path"]) for d in report.dead_suppressions] == [
        ("exempt", "ghost/only_on_paper.py")
    ]


def test_cli_check_suppressions_gates(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("VALUE = 1  # repro: noqa[REP003]\n")
    assert main(["lint", str(target), "--select", "REP003"]) == 0
    assert main(
        ["lint", str(target), "--select", "REP003", "--check-suppressions"]
    ) == 1
    out = capsys.readouterr().out
    assert "dead suppressions" in out


@pytest.mark.parametrize("rule_id", ["REP101", "REP102", "REP103", "REP104"])
def test_retired_flow_rule_ids_are_unknown(rule_id, tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(f"VALUE = 1  # repro: noqa[{rule_id}]\n")
    assert main(["lint", str(target), "--select", rule_id]) == 2
    assert main(["lint", str(target), "--ignore", rule_id]) == 2
    assert f"unknown lint rule '{rule_id}'" in capsys.readouterr().err
    # A pragma still naming a retired rule waives nothing: the audit
    # reports it for deletion.
    report = run_lint([target], root=tmp_path)
    assert report.findings == []
    assert [(d["kind"], d["line"]) for d in _dead_of_kind(report, "noqa")] == [
        ("noqa", 1)
    ]


# --------------------------------------------------------------------- #
# determinism (byte-identical across runs and hash seeds)
# --------------------------------------------------------------------- #

def test_json_deterministic_across_hash_seeds(tmp_path):
    import os
    import subprocess
    import sys

    script = (
        "import json, pathlib, sys\n"
        "from repro.analysis.lint import run_lint, to_json_text\n"
        "root = pathlib.Path(sys.argv[1])\n"
        "report = run_lint([root / 'src'], root=root)\n"
        "sys.stdout.write(to_json_text(report))\n"
    )
    from repro.analysis.lint import repo_root

    outputs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(repo_root() / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(repo_root())],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["files_checked"] > 80
