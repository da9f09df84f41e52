"""The repo lints itself clean: ``repro lint --flow src/`` has no live findings.

This is the regression gate behind the CI ``lint`` job: every REP rule —
per-file *and* the whole-program REP1xx flow tier — run over every file
under ``src/repro`` must come back empty after the committed baseline
(grandfathered findings) is applied. A new violation anywhere in
``src/`` fails this test with the full diagnostic text.
"""

import pytest

from repro.analysis.lint import repo_root, run_lint


@pytest.fixture(scope="module")
def report():
    """One whole-program lint of ``src/``, shared by the module's tests."""
    root = repo_root()
    baseline = root / "lint-baseline.json"
    return run_lint(
        [root / "src"],
        root=root,
        baseline=baseline if baseline.exists() else None,
        flow=True,
    )


def test_src_tree_has_no_live_findings(report):
    assert report.parse_errors == []
    rendered = "\n".join(f.format_text() for f in report.findings)
    assert report.findings == [], f"new lint findings:\n{rendered}"


def test_src_tree_was_actually_scanned(report):
    # The analyzer must really have walked the tree — guard against a
    # silently-empty discovery making the gate vacuous.
    assert report.files_checked > 80


def test_baseline_is_not_a_dumping_ground(report):
    # The committed baseline exists to ramp new rules in, not to bury
    # violations forever; keep it empty-or-tiny and force a conscious
    # review when it grows.
    assert report.baselined <= 5


def test_flow_graph_covers_the_tree(report):
    graph = report.graph
    assert graph is not None
    # Every module parsed lands in the index, and the call graph is
    # substantial: real edges, measured dynamic blind spots, and
    # non-empty entry-point partitions for the REP1xx rules.
    assert graph["modules"] == report.files_checked
    assert graph["functions"] > 500
    assert graph["call_edges"] > 500
    assert graph["unresolved_calls"] > 0  # counted, never silently dropped
    entries = graph["entries"]
    assert entries["scenario_entries"] > 10
    assert entries["worker_entries"] > entries["scenario_entries"]
    assert entries["coordinator_entries"] >= 5
    assert entries["worker_reachable"] >= entries["worker_entries"]


def test_every_function_def_is_a_graph_node():
    from repro.analysis.lint.engine import build_index

    root = repo_root()
    index, parse_errors = build_index([root / "src"], root=root)
    assert parse_errors == []
    import ast

    for module in index.modules.values():
        want = sum(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(module.ctx.tree)
        )
        have = sum(
            1 for fn in index.functions.values()
            if fn.module == module.name and not fn.is_module_body
        )
        assert have == want, (
            f"{module.name}: {want} function defs in the AST but "
            f"{have} call-graph nodes"
        )


def test_no_dead_suppressions(report):
    # A pragma or rule exemption that suppresses nothing is stale.
    assert report.dead_suppressions == []
