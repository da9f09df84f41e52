"""The REP rule set: this repo's reproducibility invariants, as AST checks.

Each rule codifies a bug class this reproduction has already paid for at
runtime (the ``rationale`` fields name the PR that fixed it) or a
contract the artifact byte-identity CI jobs depend on.  Rules are pure
functions over a parsed :class:`repro.analysis.lint.engine.FileContext`
— no imports of the code under analysis, no execution.

Rule tour:

* REP001 — RNG without a parameter-derived seed, or global-state RNG
  APIs, outside the sanctioned fallback module.
* REP002 — wall-clock / unordered iteration inside serialization paths.
* REP003 — raw ``os.environ`` reads outside the env choke point.
* REP004 — hook-attaching classes without a detach path.
* REP005 — non-atomic writes outside ``atomic_write_text``.
* REP006 — float-reassociating contractions / unordered reductions.
* REP007 — fork-unsafe module-level mutable state.
* REP008 — scenario trial functions breaking the registry contract.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.lint.registry import rule

__all__ = []  # rules are consumed via the registry, not imported directly


# ---------------------------------------------------------------------- #
# REP001 — unseeded RNG
# ---------------------------------------------------------------------- #

# numpy's legacy global-state API: every call mutates hidden module
# state, so results depend on call order across the whole process.
_NUMPY_LEGACY_SAMPLERS = {
    "seed", "random", "ranf", "sample", "random_sample", "rand", "randn",
    "randint", "random_integers", "choice", "shuffle", "permutation",
    "bytes", "normal", "uniform", "standard_normal", "binomial", "poisson",
    "exponential", "geometric",
}

_STDLIB_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed", "getrandbits", "betavariate",
    "expovariate", "normalvariate", "triangular",
}


# RNG constructors whose seed must come from the caller: a constant or
# ambient seed here silently decouples results from the trial seed.
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "random.Random",
}


def iter_scope(body: Iterable[ast.stmt]) -> Iterator[ast.AST]:
    """Preorder walk of one scope, not descending into nested defs/classes.

    The nested ``def``/``class`` *statements* themselves are yielded, but
    their bodies belong to their own scope.  Lambdas stay in the
    enclosing scope: they share its locals.
    """
    stack = list(body)[::-1]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(list(ast.iter_child_nodes(node))[::-1])


def expr_names(expr: ast.AST) -> set[str]:
    """Every bare name read anywhere inside an expression."""
    return {
        node.id for node in ast.walk(expr) if isinstance(node, ast.Name)
    }


def param_derived_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    enclosing: Iterable[str] = (),
) -> set[str]:
    """Names that (transitively) derive from the function's parameters.

    Seeded with every parameter and with ``enclosing``, the derived
    names of the function a nested ``def`` sits in (its closure reads
    them), then closed over the function scope's straight-line
    ``Assign``/``AnnAssign``/``AugAssign`` statements, walrus bindings,
    and ``for``/``async for`` and comprehension targets: a target joins
    the set when any name in its value (a loop's iterable) is already in
    it.  Control flow is ignored (any-path over-approximation): the rule
    prefers staying silent over flagging a value that *might* be
    threaded from the caller.
    """
    args = fn.args
    derived = {
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs
    }
    if args.vararg is not None:
        derived.add(args.vararg.arg)
    if args.kwarg is not None:
        derived.add(args.kwarg.arg)
    derived.update(enclosing)
    changed = True
    while changed:
        changed = False
        for node in iter_scope(fn.body):
            targets: list[ast.AST]
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            elif isinstance(node, (ast.AugAssign, ast.NamedExpr)):
                value, targets = node.value, [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                value, targets = node.iter, [node.target]
            else:
                continue
            if not (expr_names(value) & derived):
                continue
            for target in targets:
                for name_node in ast.walk(target):
                    if (
                        isinstance(name_node, ast.Name)
                        and name_node.id not in derived
                    ):
                        derived.add(name_node.id)
                        changed = True
    return derived


def _seed_arg(node: ast.Call) -> ast.AST | None:
    """The seed an RNG constructor receives: first positional or ``seed=``."""
    if node.args:
        return node.args[0]
    for kw in node.keywords:
        if kw.arg == "seed":
            return kw.value
    return None


@rule(
    "REP001",
    name="unseeded-rng",
    summary="RNG constructed without a seed or from a seed no parameter "
            "supplies, or legacy global-state numpy/stdlib random API",
    hint="thread a seeded np.random.Generator through (TrialContext.rng() "
         "in scenarios); the only sanctioned unseeded fallback is "
         "repro.nn.seeding.fallback_rng",
    rationale="PR 3 patched silent unseeded-RNG fallbacks in "
              "Conv2d/Linear/Dropout/VGG/ResNet (UnseededRngWarning); a "
              "helper that reseeds from a constant decouples every trial "
              "that calls it from the trial seed",
    exempt=("nn/seeding.py",),
)
def check_unseeded_rng(ctx):
    derived: dict[ast.AST | None, set[str]] = {None: set()}

    def derived_in(fn: ast.AST | None) -> set[str]:
        """``fn``'s derived names, a nested def's seeded with its outer
        function's."""
        if fn not in derived:
            outer = derived_in(ctx.enclosing_function(fn))
            derived[fn] = param_derived_names(fn, outer)
        return derived[fn]

    for node in ctx.walk(ast.Call):
        qual = ctx.qualname(node.func)
        if qual is None:
            continue
        if qual in _RNG_CONSTRUCTORS:
            shown = qual.replace("numpy.", "np.", 1)
            seed = _seed_arg(node)
            if seed is None:
                message = f"{shown}() without a seed draws fresh OS entropy"
                if qual != "random.Random":
                    message += " — trials stop being reproducible"
                yield node, message
                continue
            fn = ctx.enclosing_function(node)
            if not (expr_names(seed) & derived_in(fn)):
                where = f"{fn.name}()" if fn else "module scope"
                yield node, (
                    f"{shown}(...) in {where} is seeded from a constant or "
                    "ambient value, not from a parameter — every caller "
                    "gets the same stream, whatever its trial seed"
                )
        elif qual.startswith("numpy.random."):
            tail = qual.rsplit(".", 1)[1]
            if tail in _NUMPY_LEGACY_SAMPLERS:
                yield node, (
                    f"legacy global-state API np.random.{tail}() — results "
                    "depend on process-wide call order, not the trial seed"
                )
        elif qual.startswith("random."):
            tail = qual.rsplit(".", 1)[1]
            if tail in _STDLIB_RANDOM_FNS:
                yield node, (
                    f"stdlib random.{tail}() uses hidden global state — "
                    "results depend on process-wide call order, not the "
                    "trial seed"
                )


# ---------------------------------------------------------------------- #
# REP002 — wall-clock / unordered iteration in serialization paths
# ---------------------------------------------------------------------- #

_SERIAL_FN = re.compile(
    r"^(to_json|to_payload|to_dict|as_json|payload|summary|aggregates"
    r"|save|serialize\w*|write_\w+)$"
)

_WALLCLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "uuid.uuid1", "uuid.uuid4",
}


def _is_unordered_collection(node: ast.AST) -> bool:
    """Set literals / set() / frozenset() calls: iteration order varies."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


@rule(
    "REP002",
    name="wallclock-serialization",
    summary="wall-clock/uuid calls or unordered-set iteration inside a "
            "serialization function (to_json/save/write_*/summary/...)",
    hint="serialized artifacts must be byte-identical across "
         "serial/process/sharded/ssh backends — derive content from "
         "inputs only, and sorted() any set before iterating",
    rationale="PR 3 moved elapsed/jobs out of ScenarioResult.to_json so "
              "backend artifacts could be byte-compared in CI",
)
def check_wallclock_serialization(ctx):
    for node in ctx.walk(ast.Call):
        fn = ctx.enclosing_function(node)
        if fn is None or not _SERIAL_FN.match(fn.name):
            continue
        qual = ctx.qualname(node.func)
        if qual in _WALLCLOCK_CALLS:
            yield node, (
                f"{qual}() inside serialization path {fn.name}() — the "
                "output bytes change on every run"
            )
    for node in ctx.walk(ast.For):
        fn = ctx.enclosing_function(node)
        if fn is None or not _SERIAL_FN.match(fn.name):
            continue
        if _is_unordered_collection(node.iter):
            yield node.iter, (
                f"iterating an unordered set inside serialization path "
                f"{fn.name}() — element order varies across processes"
            )
    for node in ctx.walk(ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp):
        fn = ctx.enclosing_function(node)
        if fn is None or not _SERIAL_FN.match(fn.name):
            continue
        for generator in node.generators:
            if _is_unordered_collection(generator.iter):
                yield generator.iter, (
                    f"comprehension over an unordered set inside "
                    f"serialization path {fn.name}() — element order "
                    "varies across processes"
                )


# ---------------------------------------------------------------------- #
# REP003 — raw os.environ reads
# ---------------------------------------------------------------------- #

# Mutation (scoped overrides, worker-env construction, restore paths) is
# process-local and visible; only *reads* smuggle coordinator state into
# results.
_ENVIRON_MUTATORS = {"pop", "setdefault", "update", "clear"}


@rule(
    "REP003",
    name="raw-environ-read",
    summary="raw os.environ/os.getenv read outside the sanctioned "
            "accessor module",
    hint="read through repro.utils.env (env_str/env_float) so the "
         "worker-env contract stays auditable; coordinator extras are the "
         "only env workers inherit",
    rationale="PR 7's transport layer ships workers an explicit env "
              "(never a full os.environ copy) — stray reads reintroduce "
              "host-dependent behaviour",
    exempt=("cli.py", "utils/env.py", "core/config.py"),
)
def check_raw_environ_read(ctx):
    for node in ctx.walk(ast.Call):
        if ctx.qualname(node.func) == "os.getenv":
            yield node, (
                "os.getenv() bypasses the repro.utils.env choke point"
            )
    for node in ctx.walk(ast.Attribute, ast.Name):
        if ctx.qualname(node) != "os.environ":
            continue
        parent = ctx.parent(node)
        if isinstance(parent, ast.Attribute):
            if parent.attr in _ENVIRON_MUTATORS:
                continue  # process-local mutation/restore, not a read
            yield parent, (
                f"os.environ.{parent.attr} bypasses the repro.utils.env "
                "choke point"
            )
        elif isinstance(parent, ast.Subscript):
            if isinstance(parent.ctx, ast.Load):
                yield parent, (
                    "os.environ[...] read bypasses the repro.utils.env "
                    "choke point"
                )
        else:
            yield node, (
                "bare os.environ reference (copied or passed along) — "
                "worker envs must be built from explicit extras"
            )


# ---------------------------------------------------------------------- #
# REP004 — hook leaks
# ---------------------------------------------------------------------- #

_HOOK_REGISTRARS = {"register_activate_hook", "register_command_hook"}
_DETACH_METHODS = {"close", "__exit__", "detach"}


@rule(
    "REP004",
    name="hook-leak",
    summary="class attaches controller hooks but defines no "
            "close()/__exit__ detach path",
    hint="define close() that calls unregister_*_hook (and __exit__ "
         "delegating to it), as HookedDefense/CommandTrace/TimingChecker do",
    rationale="the exact leak fixed twice: HookedDefense.close() in PR 6 "
              "after the Shadow hook leak, and the CommandTrace detach in "
              "the same PR",
)
def check_hook_leak(ctx):
    for cls in ctx.walk(ast.ClassDef):
        attaches = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _HOOK_REGISTRARS
            for node in ast.walk(cls)
        )
        if not attaches:
            continue
        methods = {
            stmt.name
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not (methods & _DETACH_METHODS):
            yield cls, (
                f"class {cls.name} registers controller hooks but defines "
                "none of close()/__exit__/detach — the controller keeps a "
                "reference and replays every later command into it"
            )


# ---------------------------------------------------------------------- #
# REP005 — non-atomic writes
# ---------------------------------------------------------------------- #

_ATOMIC_WRITE_FNS = {"atomic_write_text"}


def _write_mode(node: ast.Call) -> str | None:
    """The literal file mode of an open() call, when write-ish."""
    mode_node: ast.AST | None = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    else:
        for kw in node.keywords:
            if kw.arg == "mode":
                mode_node = kw.value
    if (
        isinstance(mode_node, ast.Constant)
        and isinstance(mode_node.value, str)
        and "w" in mode_node.value
    ):
        return mode_node.value
    return None


@rule(
    "REP005",
    name="non-atomic-write",
    summary="in-place file write (open('w')/write_text/write_bytes) "
            "outside atomic_write_text",
    hint="use repro.utils.io.atomic_write_text (tmp file + os.replace); "
         "a crash mid-write must never leave a torn artifact for "
         "resume/merge/CI cmp to choke on",
    rationale="PR 4 made artifact writes atomic after torn-JSONL and "
              "half-written-artifact failures in the chaos sweeps",
)
def check_non_atomic_write(ctx):
    for node in ctx.walk(ast.Call):
        fn = ctx.enclosing_function(node)
        if fn is not None and fn.name in _ATOMIC_WRITE_FNS:
            continue  # the sanctioned implementation site
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _write_mode(node)
            if mode is not None:
                yield node, (
                    f"open(..., {mode!r}) truncates in place — a crash "
                    "mid-write leaves a torn file"
                )
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr in {"write_text", "write_bytes"}:
                yield node, (
                    f".{node.func.attr}() rewrites the file in place — a "
                    "crash mid-write leaves a torn file"
                )
            elif node.func.attr == "open":
                mode = _write_mode(node)
                if mode is not None:
                    yield node, (
                        f".open(..., {mode!r}) truncates in place — a "
                        "crash mid-write leaves a torn file"
                    )


# ---------------------------------------------------------------------- #
# REP006 — float-order hazards
# ---------------------------------------------------------------------- #

@rule(
    "REP006",
    name="float-order-hazard",
    summary="reassociating contraction (einsum optimize=/tensordot) or "
            "sum() over an unordered set in numeric code",
    hint="keep the reference contraction order (plain einsum / explicit "
         "loops), and sorted() any set before reducing over it",
    rationale="PR 5 kept einsum over the faster tensordot/optimize=True "
              "precisely to preserve byte-identical gradients",
)
def check_float_order_hazard(ctx):
    for node in ctx.walk(ast.Call):
        qual = ctx.qualname(node.func)
        if qual == "numpy.einsum":
            for kw in node.keywords:
                if kw.arg != "optimize":
                    continue
                if isinstance(kw.value, ast.Constant) and kw.value.value is False:
                    continue
                yield node, (
                    "np.einsum(optimize=...) may reassociate the "
                    "contraction — float results depend on the chosen "
                    "kernel, breaking byte-parity with the reference path"
                )
        elif qual == "numpy.tensordot":
            yield node, (
                "np.tensordot reorders the reduction relative to the "
                "einsum/matmul kernels — byte-parity with the committed "
                "artifacts is lost"
            )
        elif isinstance(node.func, ast.Name) and node.func.id == "sum":
            target = node.args[0] if node.args else None
            if target is None:
                continue
            if _is_unordered_collection(target) or (
                isinstance(target, ast.GeneratorExp)
                and any(
                    _is_unordered_collection(gen.iter)
                    for gen in target.generators
                )
            ):
                yield node, (
                    "sum() over an unordered set — float accumulation "
                    "order (and therefore rounding) varies run to run"
                )


# ---------------------------------------------------------------------- #
# REP007 — fork-unsafe module state
# ---------------------------------------------------------------------- #

# ALL_CAPS module containers (registries, constant tables) are populated
# at import time, so forked/re-imported chunk workers inherit a
# consistent snapshot; lowercase mutable globals signal runtime mutation
# that silently diverges between the coordinator and its workers.
_CONSTANT_NAME = re.compile(r"^(_?[A-Z][A-Z0-9_]*|__\w+__)$")

_MUTABLE_FACTORIES = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
}


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        return name in _MUTABLE_FACTORIES
    return False


@rule(
    "REP007",
    name="fork-unsafe-state",
    summary="lowercase module-level mutable container, or 'global' "
            "rebinding at runtime",
    hint="chunk workers start from a fresh interpreter — state mutated "
         "after import diverges silently; use ALL_CAPS import-time "
         "registries, or thread state through TrialContext/params",
    rationale="the sharded scheduler's worker contract (PR 3/4): "
              "scenarios must be importable into a fresh process and "
              "reproduce coordinator behaviour exactly",
)
def check_fork_unsafe_state(ctx):
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        else:
            continue
        if not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not _CONSTANT_NAME.match(
                target.id
            ):
                yield stmt, (
                    f"module-level mutable container {target.id!r} — "
                    "forked chunk workers will not see later mutations "
                    "(ALL_CAPS import-time registries are the sanctioned "
                    "pattern)"
                )
    for node in ctx.walk(ast.Global):
        yield node, (
            f"'global {', '.join(node.names)}' rebinds module state at "
            "runtime — coordinator and chunk workers diverge silently"
        )


# ---------------------------------------------------------------------- #
# REP008 — scenario-registration contract
# ---------------------------------------------------------------------- #

def _scenario_decorator(fn: ast.FunctionDef) -> ast.Call | None:
    for deco in fn.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        func = deco.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name == "scenario":
            return deco
    return None


def _uses_trial_seed(fn: ast.FunctionDef, ctx_arg: str) -> bool:
    """ctx.seed/ctx.rng read, or ctx delegated to a helper call."""
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == ctx_arg
            and node.attr in {"seed", "rng"}
        ):
            return True
        if isinstance(node, ast.Call):
            operands = list(node.args) + [kw.value for kw in node.keywords]
            if any(
                isinstance(arg, ast.Name) and arg.id == ctx_arg
                for arg in operands
            ):
                return True
    return False


@rule(
    "REP008",
    name="scenario-contract",
    summary="@scenario trial fn ignores its trial seed or writes "
            "artifacts directly",
    hint="non-deterministic trials must derive randomness from ctx.seed/"
         "ctx.rng() (or mark deterministic=True); artifacts go through "
         "the runner's write_artifact, never direct file writes",
    rationale="the registry contract every backend depends on: seeded "
              "trials and runner-owned artifacts are what make "
              "serial/process/sharded/ssh runs byte-identical",
)
def check_scenario_contract(ctx):
    for fn in ctx.walk(ast.FunctionDef):
        deco = _scenario_decorator(fn)
        if deco is None:
            continue
        scenario_name = (
            deco.args[0].value
            if deco.args and isinstance(deco.args[0], ast.Constant)
            else fn.name
        )
        kwargs = {kw.arg: kw.value for kw in deco.keywords}
        deterministic = (
            isinstance(kwargs.get("deterministic"), ast.Constant)
            and kwargs["deterministic"].value is True
        )
        ctx_arg = fn.args.args[0].arg if fn.args.args else None
        if not deterministic and ctx_arg is not None:
            if not _uses_trial_seed(fn, ctx_arg):
                yield fn, (
                    f"scenario {scenario_name!r} is not deterministic=True "
                    f"but never reads {ctx_arg}.seed/{ctx_arg}.rng (nor "
                    f"hands {ctx_arg} to a helper) — trials cannot be "
                    "seed-reproducible"
                )
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            direct_write = (
                isinstance(node.func, ast.Name)
                and node.func.id == "open"
                and _write_mode(node) is not None
            ) or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in {"write_text", "write_bytes"}
            )
            if direct_write:
                yield node, (
                    f"scenario {scenario_name!r} writes files directly "
                    "from its trial fn — artifacts must flow through "
                    "write_artifact so backends stay byte-identical"
                )
