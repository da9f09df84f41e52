"""Per-rule fixture corpus: bad fixtures fire, good twins stay silent.

Each ``repNNN_bad.py`` fixture marks every line expected to produce a
finding with a trailing ``# expect[REPNNN]`` comment; the tests parse
the markers and compare them against the engine's actual diagnostics,
so a rule that drifts (fires elsewhere, or goes quiet) fails loudly.
"""

import ast
import pathlib
import re
import textwrap

import pytest

from repro.analysis.lint import run_lint
from repro.analysis.lint.registry import rule_ids
from repro.analysis.lint.rules import (
    expr_names,
    iter_scope,
    param_derived_names,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

RULES = [f"REP{n:03d}" for n in range(1, 9)]

_MARKER = re.compile(r"#\s*expect\[(REP\d{3})\]")


def expected_lines(path: pathlib.Path, rule_id: str) -> list[int]:
    lines = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        match = _MARKER.search(text)
        if match and match.group(1) == rule_id:
            lines.append(lineno)
    return lines


def test_corpus_covers_every_registered_rule():
    assert rule_ids() == RULES
    for rule_id in RULES:
        assert (FIXTURES / f"{rule_id.lower()}_bad.py").exists()
        assert (FIXTURES / f"{rule_id.lower()}_good.py").exists()


@pytest.mark.parametrize("rule_id", RULES)
def test_bad_fixture_fires_on_marked_lines(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_bad.py"
    report = run_lint([path], root=FIXTURES, select=[rule_id])
    assert report.parse_errors == []
    want = expected_lines(path, rule_id)
    assert want, f"{path.name} has no expect[{rule_id}] markers"
    got = sorted(finding.line for finding in report.findings)
    assert got == want
    for finding in report.findings:
        assert finding.rule == rule_id
        assert finding.hint  # every rule must ship a fix hint


@pytest.mark.parametrize("rule_id", RULES)
def test_good_fixture_is_silent(rule_id):
    path = FIXTURES / f"{rule_id.lower()}_good.py"
    report = run_lint([path], root=FIXTURES, select=[rule_id])
    assert report.parse_errors == []
    assert [f.format_text() for f in report.findings] == []


@pytest.mark.parametrize("rule_id", RULES)
def test_noqa_pragma_suppresses_each_finding(rule_id, tmp_path):
    source = FIXTURES / f"{rule_id.lower()}_bad.py"
    lines = source.read_text().splitlines()
    marked = expected_lines(source, rule_id)
    for lineno in marked:
        lines[lineno - 1] += f"  # repro: noqa[{rule_id}]"
    patched = tmp_path / source.name
    patched.write_text("\n".join(lines) + "\n")
    report = run_lint([patched], root=tmp_path, select=[rule_id])
    assert report.findings == []
    assert report.suppressed == len(marked)


@pytest.mark.parametrize("rule_id", RULES)
def test_file_pragma_suppresses_whole_file(rule_id, tmp_path):
    source = FIXTURES / f"{rule_id.lower()}_bad.py"
    patched = tmp_path / source.name
    patched.write_text(
        f"# repro: noqa-file[{rule_id}]\n" + source.read_text()
    )
    report = run_lint([patched], root=tmp_path, select=[rule_id])
    assert report.findings == []
    assert report.suppressed == len(expected_lines(source, rule_id))


# --------------------------------------------------------------------- #
# REP001's seed provenance: scopes and parameter-derived names
# --------------------------------------------------------------------- #

def test_iter_scope_stops_at_nested_defs_but_yields_them():
    tree = ast.parse(
        "def outer():\n"
        "    a = 1\n"
        "    def inner():\n"
        "        hidden = 2\n"
        "    b = (lambda: shared)\n"
    )
    outer = tree.body[0]
    names = {
        node.id for node in iter_scope(outer.body)
        if isinstance(node, ast.Name)
    }
    assert "a" in names and "b" in names
    assert "shared" in names  # lambdas share the enclosing scope
    assert "hidden" not in names  # nested def bodies are their own scope
    kinds = [type(node).__name__ for node in iter_scope(outer.body)]
    assert "FunctionDef" in kinds  # the nested def statement is yielded


def test_expr_names_walks_whole_expression():
    expr = ast.parse("f(x) + obj.attr[key]", mode="eval").body
    assert expr_names(expr) == {"f", "x", "obj", "key"}


@pytest.mark.parametrize("body,derived,ambient", [
    ("rng_seed = seed + 1", {"rng_seed"}, set()),
    ("a = 1\nb = a + seed\nc = b * 2", {"b", "c"}, {"a"}),
    ("(walrus := seed)", {"walrus"}, set()),
    ("fixed = 1234", set(), {"fixed"}),
])
def test_param_derived_names_closure(body, derived, ambient):
    src = "def fn(seed):\n" + textwrap.indent(body, "    ") + "\n"
    fn = ast.parse(src).body[0]
    got = param_derived_names(fn)
    assert "seed" in got
    assert derived <= got
    assert not (ambient & got)


# Seed shapes the fixture pair does not spell out, each linted as its own
# file: (source, [(line, message fragment)] REP001 must report).
SEED_CASES = {
    "attribute-of-param": (
        "import numpy as np\n"
        "def make(cfg):\n"
        "    return np.random.default_rng(cfg.seed)\n",
        [],
    ),
    "method-reads-self": (
        "import numpy as np\n"
        "class Defense:\n"
        "    def rng(self, stream):\n"
        "        return np.random.default_rng(self.seed + stream)\n",
        [],
    ),
    "tuple-seed-sequence": (
        "import numpy as np\n"
        "def child(base_seed, index):\n"
        "    return np.random.SeedSequence((base_seed, index))\n",
        [],
    ),
    "f-string-stdlib-seed": (
        "import random\n"
        "def jitter(chunk_id, attempt):\n"
        '    return random.Random(f"{chunk_id}:{attempt}").random()\n',
        [],
    ),
    "kwargs-seed": (
        "import numpy as np\n"
        "def build(**params):\n"
        '    return np.random.default_rng(params["seed"])\n',
        [],
    ),
    "walrus-then-use": (
        "import numpy as np\n"
        "def make(seed):\n"
        "    if (scaled := seed * 3) > 0:\n"
        "        pass\n"
        "    return np.random.default_rng(scaled)\n",
        [],
    ),
    "augmented-assign": (
        "import numpy as np\n"
        "def make(seed):\n"
        "    stream = 0\n"
        "    stream += seed\n"
        "    return np.random.default_rng(stream)\n",
        [],
    ),
    "lambda-shares-scope": (
        "import numpy as np\n"
        "def make(seed):\n"
        "    build = lambda: np.random.default_rng(seed)\n"
        "    return build()\n",
        [],
    ),
    "reassigned-after-derivation": (
        # Any-path over-approximation: once derived, a name stays derived.
        "import numpy as np\n"
        "def make(seed):\n"
        "    chosen = seed\n"
        "    chosen = 3\n"
        "    return np.random.default_rng(chosen)\n",
        [],
    ),
    "from-import-param": (
        "from numpy.random import default_rng\n"
        "def make(seed):\n"
        "    return default_rng(seed)\n",
        [],
    ),
    "keyword-constant": (
        "import numpy as np\n"
        "def make(seed):\n"
        "    return np.random.default_rng(seed=5)\n",
        [(3, "in make() is seeded from a constant")],
    ),
    "from-import-alias-constant": (
        "from numpy.random import default_rng as fresh\n"
        "def make(seed):\n"
        "    return fresh(5)\n",
        [(3, "np.random.default_rng(...) in make()")],
    ),
    "module-alias-constant": (
        "import numpy.random as npr\n"
        "def make():\n"
        "    return npr.default_rng(3)\n",
        [(3, "in make() is seeded from a constant")],
    ),
    "constant-through-locals": (
        "import numpy as np\n"
        "def make(seed):\n"
        "    base = 10\n"
        "    stream = base * 2\n"
        "    return np.random.default_rng(stream)\n",
        [(5, "in make() is seeded from a constant")],
    ),
    "nested-def-is-own-scope": (
        "import numpy as np\n"
        "def outer(seed):\n"
        "    def inner():\n"
        "        return np.random.default_rng(7)\n"
        "    return inner\n",
        [(4, "in inner() is seeded from a constant")],
    ),
    "constructor-constant": (
        "import numpy as np\n"
        "class Swap:\n"
        "    def __init__(self, rows):\n"
        "        self.rng = np.random.default_rng(0)\n",
        [(4, "in __init__() is seeded from a constant")],
    ),
}


@pytest.mark.parametrize("case", sorted(SEED_CASES))
def test_rep001_seed_provenance_per_function(case, tmp_path):
    source, want = SEED_CASES[case]
    target = tmp_path / "mod.py"
    target.write_text(source)
    report = run_lint([target], root=tmp_path, select=["REP001"])
    assert report.parse_errors == []
    assert [f.line for f in report.findings] == [line for line, _ in want]
    for finding, (_, fragment) in zip(report.findings, want):
        assert fragment in finding.message
