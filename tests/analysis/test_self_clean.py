"""The repo lints itself clean: ``repro lint src/`` has no live findings.

This is the regression gate behind the CI ``lint`` job: every REP rule
run over every file under ``src/repro`` must come back empty, with
reviewed inline pragmas the only suppressions.  A new violation anywhere
in ``src/`` fails this test with the full diagnostic text.

It also proves REP001 reaches every RNG constructor in ``src/``: each
site, re-seeded from a constant, must draw exactly one finding on its
own line, wherever in the tree it sits.
"""

import ast

import pytest

from repro.analysis.lint import repo_root, run_lint

PACKAGE = repo_root() / "src" / "repro"

# Spelled as src/ writes them; found without the linter's own name
# resolution, so a resolution regression cannot shrink the population.
_RNG_SPELLINGS = {
    "np.random.default_rng",
    "np.random.Generator",
    "np.random.SeedSequence",
    "random.Random",
}


def _seed_sites():
    """(test id, path, call line, seed expression) per seeded RNG call.

    Skips ``nn/seeding.py`` (REP001's exempt fallback module) and lines
    that already carry a reviewed ``noqa`` pragma for a constant seed.
    """
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relpath = path.relative_to(PACKAGE).as_posix()
        if relpath == "nn/seeding.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        seen: dict[str, int] = {}
        calls = sorted(
            _calls_by_scope(ast.parse(text)),
            key=lambda item: (item[1].lineno, item[1].col_offset),
        )
        for qual, call in calls:
            if ast.unparse(call.func) not in _RNG_SPELLINGS:
                continue
            if "repro: noqa" in lines[call.lineno - 1]:
                continue
            seed = call.args[0] if call.args else next(
                (kw.value for kw in call.keywords if kw.arg == "seed"), None
            )
            if seed is None:
                continue
            seen[qual] = seen.get(qual, 0) + 1
            site_id = f"{relpath}:{qual}"
            if seen[qual] > 1:
                site_id += f"#{seen[qual]}"
            sites.append((site_id, path, call.lineno, seed))
    return sites


def _calls_by_scope(tree):
    """Every Call with the dotted name of its enclosing def/class chain."""
    stack = [("<module>", tree)]
    while stack:
        qual, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = child.name if qual == "<module>" else (
                    f"{qual}.{child.name}"
                )
                stack.append((inner, child))
                continue
            if isinstance(child, ast.Call):
                yield qual, child
            stack.append((qual, child))


def _reseed_from_constant(path, seed):
    """The file's source with ``seed``'s expression replaced by ``0``."""
    raw = path.read_bytes()
    starts = [0]
    for line in raw.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    # ast offsets are UTF-8 byte columns, so splice bytes, not chars.
    begin = starts[seed.lineno - 1] + seed.col_offset
    end = starts[seed.end_lineno - 1] + seed.end_col_offset
    return (raw[:begin] + b"0" + raw[end:]).decode()


SEED_SITES = _seed_sites()


@pytest.fixture(scope="module")
def report():
    """One lint of ``src/``, shared by the module's tests."""
    root = repo_root()
    return run_lint([root / "src"], root=root)


def test_src_tree_has_no_live_findings(report):
    assert report.parse_errors == []
    rendered = "\n".join(f.format_text() for f in report.findings)
    assert report.findings == [], f"new lint findings:\n{rendered}"


def test_src_tree_was_actually_scanned(report):
    # The analyzer must really have walked the tree — guard against a
    # silently-empty discovery making the gate vacuous.
    assert report.files_checked > 80


def test_no_dead_suppressions(report):
    # A pragma or rule exemption that suppresses nothing is stale.
    assert report.dead_suppressions == []


def test_seed_sites_were_actually_found():
    # Same vacuity guard for the mutation cases below.
    assert len(SEED_SITES) > 30
    assert len({site_id for site_id, *_ in SEED_SITES}) == len(SEED_SITES)


@pytest.mark.parametrize(
    "path,line,seed",
    [site[1:] for site in SEED_SITES],
    ids=[site[0] for site in SEED_SITES],
)
def test_constant_seed_at_each_src_site_is_flagged(path, line, seed,
                                                   tmp_path):
    mutant = tmp_path / "repro" / path.relative_to(PACKAGE)
    mutant.parent.mkdir(parents=True)
    mutant.write_text(_reseed_from_constant(path, seed))
    report = run_lint([mutant], root=tmp_path, select=["REP001"])
    assert report.parse_errors == []
    assert [f.line for f in report.findings] == [line]
    assert "seeded from a constant" in report.findings[0].message
