"""The REP1xx flow-rule tier: whole-program reproducibility invariants.

Where the REP0xx rules (:mod:`repro.analysis.lint.rules`) police single
files, these rules run over the :class:`~repro.analysis.lint.callgraph.
ProjectIndex` built by ``repro lint --flow`` and reason along call
edges:

* REP101 — seed provenance: every RNG constructed on a path reachable
  from a ``@scenario`` trial body must derive its seed from a function
  parameter (ultimately ``ctx.seed``/``ctx.rng``).  A helper that
  reseeds from a constant or ambient state silently decouples trials
  from their seeds, however deep the call chain.
* REP102 — env flow: a value read through ``repro.utils.env`` must be
  threaded, not re-read downstream (the coordinator and a worker can
  observe different values); worker-bound ``env=`` dicts must be built
  from explicit coordinator extras, never from ``os.environ``.
* REP103 — fork-safety race: module-level mutable state *written* on a
  coordinator-side path and *read* on a worker path diverges silently,
  because chunk workers re-import modules in a fresh interpreter.
  Computed as call-graph reachability from the two entry-point sets.
* REP104 — unchecked hook flow: an object of a hook-attaching class
  (REP004's class set, here closed over project subclasses) that is
  created in a function and neither detached on every return path nor
  handed off (returned / stored / passed / ``with``-managed) keeps
  replaying controller commands forever.

Entry points are exact qualnames (the scheduler/runner contract, pinned
below) plus anything marked with the escape-hatch pragma on its ``def``
line::

    def my_dispatch():  # repro: flow-entry[coordinator]
    def my_trial_body():  # repro: flow-entry[worker]

``@scenario``-decorated functions are both scenario and worker entries
(trial bodies execute inside chunk workers).  Dynamic dispatch the call
graph cannot see (``getattr``, callables in containers) is
over-approximated to no-edge — mark the target with ``flow-entry`` if a
rule must see past such a boundary.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.lint.callgraph import (
    CLASS,
    FunctionInfo,
    ProjectIndex,
    iter_scope,
)
from repro.analysis.lint.dataflow import (
    expr_names,
    param_derived_names,
    reachable,
)
from repro.analysis.lint.registry import rule

__all__ = ["entry_summary", "function_facts"]

_FLOW_ENTRY = re.compile(
    r"#\s*repro:\s*flow-entry\[(scenario|worker|coordinator)\]"
)

# The scheduler/runner contract (PR 3/4/7): what runs on the
# coordinator, and what runs inside a chunk/pool worker process.
COORDINATOR_ENTRY_QUALNAMES = (
    "repro.experiments.runner.run_scenario",
    "repro.experiments.backends.SerialBackend.run",
    "repro.experiments.backends.ProcessPoolBackend.run",
    "repro.experiments.backends.ShardedBackend.run",
    "repro.experiments.backends.merge_shards",
)
WORKER_ENTRY_QUALNAMES = (
    "repro.experiments.backends._execute_trial",
    "repro.experiments.backends.run_shard",
    "repro.experiments.backends.run_chunk",
    "repro.experiments.backends._run_stream_worker",
)

_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "random.Random",
}

_ENV_ACCESSORS = {
    "repro.utils.env.env_str",
    "repro.utils.env.env_float",
}

_HOOK_REGISTRARS = {"register_activate_hook", "register_command_hook"}
_DETACH_CALLS = {"close", "detach", "__exit__"}

_MUTATOR_METHODS = {
    "append", "add", "update", "pop", "setdefault", "extend", "insert",
    "remove", "discard", "clear", "popitem", "appendleft", "extendleft",
}

# Module-level containers built by factory call or literal — same shape
# REP007 polices per file, here raced across the process boundary.
_MUTABLE_FACTORIES = {
    "dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
}


# ---------------------------------------------------------------------- #
# shared analyses (memoized on the index)
# ---------------------------------------------------------------------- #

def _pragma_entries(index: ProjectIndex, kind: str) -> list[str]:
    marked = []
    for qual in sorted(index.functions):
        fn = index.functions[qual]
        if fn.is_module_body:
            continue
        line = fn.ctx.line_text(fn.node)
        match = _FLOW_ENTRY.search(line)
        if match and match.group(1) == kind:
            marked.append(qual)
    return marked


def _is_scenario_entry(fn: FunctionInfo) -> bool:
    return any(
        deco == "scenario" or deco.endswith(".scenario")
        for deco in fn.decorators
    )


def _flow(index: ProjectIndex) -> dict:
    """Entry sets + reachability partitions, computed once per index."""
    cached = index.facts_cache.get("flow")
    if cached is not None:
        return cached
    scenario_entries = sorted(
        set(
            qual for qual in sorted(index.functions)
            if _is_scenario_entry(index.functions[qual])
        )
        | set(_pragma_entries(index, "scenario"))
    )
    worker_entries = sorted(
        {q for q in WORKER_ENTRY_QUALNAMES if q in index.functions}
        | set(_pragma_entries(index, "worker"))
        | set(scenario_entries)  # trial bodies execute inside workers
    )
    coordinator_entries = sorted(
        {q for q in COORDINATOR_ENTRY_QUALNAMES if q in index.functions}
        | set(_pragma_entries(index, "coordinator"))
    )
    data = {
        "scenario_entries": scenario_entries,
        "worker_entries": worker_entries,
        "coordinator_entries": coordinator_entries,
        "scenario_reachable": reachable(index.callees, scenario_entries),
        "worker_reachable": reachable(index.callees, worker_entries),
        "coordinator_reachable": reachable(
            index.callees, coordinator_entries
        ),
    }
    index.facts_cache["flow"] = data
    return data


def entry_summary(index: ProjectIndex) -> dict:
    """Deterministic entry/reachability counts for ``--stats`` and JSON."""
    flow = _flow(index)
    return {
        "scenario_entries": len(flow["scenario_entries"]),
        "worker_entries": len(flow["worker_entries"]),
        "coordinator_entries": len(flow["coordinator_entries"]),
        "scenario_reachable": len(flow["scenario_reachable"]),
        "worker_reachable": len(flow["worker_reachable"]),
        "coordinator_reachable": len(flow["coordinator_reachable"]),
    }


def _env_reads(index: ProjectIndex) -> dict[str, list[tuple[str, ast.Call]]]:
    """env var literal → [(function qualname, call node)], sorted."""
    cached = index.facts_cache.get("env_reads")
    if cached is not None:
        return cached
    reads: dict[str, list[tuple[str, ast.Call]]] = {}
    for qual in sorted(index.functions):
        fn = index.functions[qual]
        for node in fn.scope():
            if not isinstance(node, ast.Call):
                continue
            dotted = fn.ctx.qualname(node.func)
            if dotted not in _ENV_ACCESSORS:
                continue
            name_arg = node.args[0] if node.args else None
            if name_arg is None:
                for kw in node.keywords:
                    if kw.arg == "name":
                        name_arg = kw.value
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                reads.setdefault(name_arg.value, []).append((qual, node))
    index.facts_cache["env_reads"] = reads
    return reads


def _hook_classes(index: ProjectIndex) -> set[str]:
    """Classes that attach controller hooks, closed over subclasses."""
    cached = index.facts_cache.get("hook_classes")
    if cached is not None:
        return cached
    hooked: set[str] = set()
    for cqual in sorted(index.classes):
        info = index.classes[cqual]
        for method_qual in sorted(info.methods.values()):
            method = index.functions[method_qual]
            for node in method.scope():
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _HOOK_REGISTRARS
                ):
                    hooked.add(cqual)
                    break
            if cqual in hooked:
                break
    changed = True
    while changed:
        changed = False
        for cqual in sorted(index.classes):
            if cqual in hooked:
                continue
            if any(b in hooked for b in index.classes[cqual].bases):
                hooked.add(cqual)
                changed = True
    index.facts_cache["hook_classes"] = hooked
    return hooked


def _param_derived(index: ProjectIndex, fn: FunctionInfo) -> set[str]:
    cache = index.facts_cache.setdefault("param_derived", {})
    found = cache.get(fn.qualname)
    if found is None:
        found = param_derived_names(fn.node)
        cache[fn.qualname] = found
    return found


# ---------------------------------------------------------------------- #
# REP101 — seed provenance
# ---------------------------------------------------------------------- #

@rule(
    "REP101",
    name="seed-provenance",
    summary="RNG on a @scenario-reachable path constructed from a seed "
            "that does not derive from a parameter (flow)",
    hint="thread ctx.seed/ctx.rng (or a seed parameter) through the call "
         "chain; a helper must never reseed from a constant or ambient "
         "state — mark unavoidable dynamic boundaries with "
         "'# repro: flow-entry[scenario]'",
    rationale="trial results are only seed-reproducible if every RNG on "
              "the trial path flows from TrialContext; REP008 checks the "
              "trial body, this closes the transitive helpers",
    exempt=("nn/seeding.py",),
    flow=True,
)
def check_seed_provenance(index: ProjectIndex):
    flow = _flow(index)
    reach = flow["scenario_reachable"]
    for qual in sorted(reach):
        fn = index.functions.get(qual)
        if fn is None or fn.is_module_body:
            continue
        for node in fn.scope():
            if not isinstance(node, ast.Call):
                continue
            dotted = fn.ctx.qualname(node.func)
            if dotted not in _RNG_CONSTRUCTORS:
                continue
            seed_arg = node.args[0] if node.args else None
            if seed_arg is None:
                for kw in node.keywords:
                    if kw.arg == "seed":
                        seed_arg = kw.value
            short = dotted.rsplit(".", 1)[1]
            if seed_arg is None:
                yield fn.ctx, node, (
                    f"{short}() without a seed inside {fn.qualname} — the "
                    "function is reachable from @scenario trial bodies, so "
                    "fresh entropy here breaks seed-reproducibility of "
                    "every trial that calls it"
                )
                continue
            if not (expr_names(seed_arg) & _param_derived(index, fn)):
                yield fn.ctx, node, (
                    f"{short}(...) in {fn.qualname} is seeded from a "
                    "constant/ambient value, not from a parameter — "
                    "reachable from @scenario trial bodies, this reseeds "
                    "mid-trial and decouples results from ctx.seed"
                )


# ---------------------------------------------------------------------- #
# REP102 — env flow
# ---------------------------------------------------------------------- #

@rule(
    "REP102",
    name="env-flow",
    summary="env value re-read downstream of a caller that already read "
            "it, or worker-bound env= built from os.environ (flow)",
    hint="read an env variable once at the boundary and thread the value "
         "through parameters; worker envs must be explicit coordinator "
         "extras (WorkerSpec.env), never derived from os.environ",
    rationale="PR 7's worker-env contract: a worker observes only the "
              "extras the coordinator ships, so a downstream re-read can "
              "silently disagree with the value the caller acted on",
    exempt=("utils/env.py", "experiments/transport.py"),
    flow=True,
)
def check_env_flow(index: ProjectIndex):
    reads = _env_reads(index)
    reach_cache: dict[str, set[str]] = {}

    def reach_of(qual: str) -> set[str]:
        found = reach_cache.get(qual)
        if found is None:
            found = reachable(index.callees, index.callees.get(qual, ()))
            reach_cache[qual] = found
        return found

    for var in sorted(reads):
        sites = reads[var]
        if len(sites) < 2:
            continue
        readers = sorted({qual for qual, _ in sites})
        for down_qual, node in sites:
            upstream = sorted(
                up for up in readers
                if up != down_qual and down_qual in reach_of(up)
            )
            if upstream:
                fn = index.functions[down_qual]
                yield fn.ctx, node, (
                    f"env var {var!r} is re-read in {down_qual}, but "
                    f"caller-side {upstream[0]} already reads it — thread "
                    "the value through parameters so coordinator and "
                    "worker act on the same observation"
                )
    for qual in sorted(index.functions):
        fn = index.functions[qual]
        locals_map: dict[str, ast.AST] = {}
        for node in fn.scope():
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                locals_map[node.targets[0].id] = node.value
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "env":
                    continue
                value = kw.value
                if isinstance(value, ast.Name):
                    value = locals_map.get(value.id, value)
                if _mentions_os_environ(fn, value):
                    yield fn.ctx, node, (
                        "worker-bound env= is built from os.environ — the "
                        "transport contract ships workers explicit "
                        "coordinator extras only, so the full environment "
                        "must never leak across the process boundary"
                    )


def _mentions_os_environ(fn: FunctionInfo, expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, (ast.Attribute, ast.Name)):
            if fn.ctx.qualname(node) == "os.environ":
                return True
    return False


# ---------------------------------------------------------------------- #
# REP103 — fork-safety race
# ---------------------------------------------------------------------- #

@rule(
    "REP103",
    name="fork-race",
    summary="module-level mutable state written on a coordinator path "
            "and read on a chunk-worker path (flow)",
    hint="chunk workers re-import modules in a fresh interpreter and "
         "never observe coordinator-side mutations — thread the state "
         "through TrialContext/params, or make the worker path compute "
         "it itself",
    rationale="the sharded scheduler's exactly-once/byte-identity "
              "guarantees assume worker behaviour is a pure function of "
              "the shipped spec; REP007 flags the per-file shape, this "
              "proves an actual coordinator-write/worker-read race",
    flow=True,
)
def check_fork_race(index: ProjectIndex):
    flow = _flow(index)
    coordinator_only = (
        flow["coordinator_reachable"] - flow["worker_reachable"]
    )
    worker_side = flow["worker_reachable"]
    writes: dict[str, list[tuple[str, ast.AST]]] = {}
    reads: dict[str, list[str]] = {}
    for qual in sorted(index.functions):
        fn = index.functions[qual]
        if fn.is_module_body:
            continue  # import-time writes replay identically in workers
        fn_writes, fn_reads = _global_accesses(index, fn)
        for key, node in fn_writes:
            writes.setdefault(key, []).append((qual, node))
        for key in fn_reads:
            reads.setdefault(key, []).append(qual)
    for key in sorted(writes):
        worker_readers = sorted(
            q for q in reads.get(key, []) if q in worker_side
        )
        if not worker_readers:
            continue
        for qual, node in writes[key]:
            if qual in coordinator_only:
                fn = index.functions[qual]
                yield fn.ctx, node, (
                    f"coordinator-side {qual} mutates module state "
                    f"{key!r} that worker-side {worker_readers[0]} reads "
                    "— forked/spawned chunk workers never see this write, "
                    "so coordinator and workers silently diverge"
                )


def _module_mutables(index: ProjectIndex, module: str) -> dict[str, ast.stmt]:
    """Module-level names bound to mutable containers (any casing)."""
    mod = index.modules[module]
    mutables: dict[str, ast.stmt] = {}
    for name, stmt in mod.assigns.items():
        value = stmt.value if hasattr(stmt, "value") else None
        if value is not None and _is_mutable_value(value):
            mutables[name] = stmt
    return mutables


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


def _global_accesses(
    index: ProjectIndex, fn: FunctionInfo
) -> tuple[list[tuple[str, ast.AST]], set[str]]:
    """(writes, reads) of module-level mutable globals from one function.

    Keys are ``module.name``.  Same-module access by bare name plus
    cross-module access through a resolvable ``pkg.mod.NAME`` attribute
    chain; names shadowed by a local binding are skipped.
    """
    own_mutables = _module_mutables(index, fn.module)
    args = fn.node.args
    local_bound = {a.arg for a in args.posonlyargs + args.args
                   + args.kwonlyargs}
    if args.vararg is not None:
        local_bound.add(args.vararg.arg)
    if args.kwarg is not None:
        local_bound.add(args.kwarg.arg)
    global_decls: set[str] = set()
    for node in fn.scope():
        if isinstance(node, ast.Global):
            global_decls.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local_bound.add(node.id)
    local_bound -= global_decls

    def key_for_name(name: str) -> str | None:
        if name in own_mutables and name not in local_bound:
            return f"{fn.module}.{name}"
        return None

    def key_for_expr(expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Name):
            return key_for_name(expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = fn.ctx.qualname(expr)
            if dotted is None:
                return None
            head, _, name = dotted.rpartition(".")
            if head in index.modules and name in _module_mutables(
                index, head
            ):
                return f"{head}.{name}"
        return None

    writes: list[tuple[str, ast.AST]] = []
    write_bases: set[int] = set()
    reads: set[str] = set()
    for node in fn.scope():
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in global_decls:
                    key = (
                        f"{fn.module}.{target.id}"
                        if target.id in own_mutables else None
                    )
                    if key:
                        writes.append((key, node))
                elif isinstance(target, ast.Subscript):
                    key = key_for_expr(target.value)
                    if key:
                        writes.append((key, node))
                        write_bases.add(id(target.value))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    key = key_for_expr(target.value)
                    if key:
                        writes.append((key, node))
                        write_bases.add(id(target.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            key = key_for_expr(node.func.value)
            if key:
                writes.append((key, node))
                write_bases.add(id(node.func.value))
    for node in fn.scope():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if id(node) in write_bases:
                continue
            key = key_for_name(node.id)
            if key:
                reads.add(key)
        elif isinstance(node, ast.Attribute) and id(node) not in write_bases:
            key = key_for_expr(node)
            if key and isinstance(node.ctx, ast.Load):
                reads.add(key)
    return writes, reads


# ---------------------------------------------------------------------- #
# REP104 — unchecked hook flow
# ---------------------------------------------------------------------- #

@rule(
    "REP104",
    name="unchecked-hook-flow",
    summary="hook-attaching object dropped without close()/detach on "
            "every return path (flow)",
    hint="use the object as a context manager, call close() in a "
         "finally, or hand ownership off (return / store / pass it on); "
         "REP004 guarantees the class has a detach path — this checks "
         "every construction site actually reaches it",
    rationale="the PR 6 Shadow leak, interprocedurally: a leaked hook "
              "keeps receiving every later controller command, skewing "
              "defense accounting for the rest of the process",
    flow=True,
)
def check_unchecked_hook_flow(index: ProjectIndex):
    hooked = _hook_classes(index)
    if not hooked:
        return
    for qual in sorted(index.functions):
        fn = index.functions[qual]
        if fn.is_module_body:
            continue  # module-lifetime hooks are deliberate singletons
        creations: list[tuple[str, ast.Assign, str]] = []
        for node in fn.scope():
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                cqual = index.class_of_call(fn, node.value)
                if cqual in hooked:
                    creations.append((node.targets[0].id, node, cqual))
        for name, assign, cqual in creations:
            finding = _hook_disposition(fn, name, assign)
            if finding is not None:
                cls_name = cqual.rsplit(".", 1)[1]
                yield fn.ctx, assign, (
                    f"{cls_name} instance {name!r} in {fn.qualname} "
                    f"{finding} — the controller keeps replaying commands "
                    "into the leaked hook"
                )


def _hook_disposition(
    fn: FunctionInfo, name: str, assign: ast.Assign
) -> str | None:
    """None when the hook object is safely handled, else the defect."""
    close_calls: list[ast.Call] = []
    for node in fn.scope():
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if (
                    isinstance(item.context_expr, ast.Name)
                    and item.context_expr.id == name
                ):
                    return None  # with-managed: __exit__ on every path
        elif isinstance(node, ast.Return) and node.value is not None:
            if name in expr_names(node.value):
                return None  # ownership transferred to the caller
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None and name in expr_names(node.value):
                return None
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if node is assign:
                continue
            value = node.value
            if value is not None and name in expr_names(value):
                return None  # stored (self.x = h, d[k] = h, alias = h)
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                if node.func.attr in _DETACH_CALLS:
                    close_calls.append(node)
                continue
            operands = list(node.args) + [kw.value for kw in node.keywords]
            if any(name in expr_names(arg) for arg in operands):
                return None  # handed to another function
    if not close_calls:
        return "is never detached (no close()/detach on any path)"
    close = close_calls[0]
    if _inside_finally(fn, close):
        return None
    early = [
        node for node in fn.scope()
        if isinstance(node, ast.Return)
        and assign.lineno < node.lineno < close.lineno
    ]
    if early:
        return (
            f"leaks on the early return at line {early[0].lineno} "
            f"(close() only runs at line {close.lineno})"
        )
    return None


def _inside_finally(fn: FunctionInfo, node: ast.AST) -> bool:
    previous: ast.AST = node
    current = fn.ctx.parent(node)
    while current is not None:
        if isinstance(current, ast.Try) and any(
            previous is stmt for stmt in current.finalbody
        ):
            return True
        previous = current
        current = fn.ctx.parent(current)
    return False


# ---------------------------------------------------------------------- #
# graph debugging (`repro lint graph <qualname>`)
# ---------------------------------------------------------------------- #

def function_facts(index: ProjectIndex, qualname: str) -> list[str]:
    """Human-readable taint facts for one symbol, sorted."""
    fn = index.functions.get(qualname)
    if fn is None:
        return []
    flow = _flow(index)
    facts: list[str] = []
    for kind in ("scenario", "worker", "coordinator"):
        if qualname in flow[f"{kind}_entries"]:
            facts.append(f"{kind}-entry")
        if qualname in flow[f"{kind}_reachable"]:
            facts.append(f"{kind}-reachable")
    for var in sorted(_env_reads(index)):
        if any(q == qualname for q, _ in _env_reads(index)[var]):
            facts.append(f"reads-env:{var}")
    if not fn.is_module_body:
        for node in fn.scope():
            if isinstance(node, ast.Call):
                dotted = fn.ctx.qualname(node.func)
                if dotted in _RNG_CONSTRUCTORS:
                    facts.append("constructs-rng")
                    break
        writes, reads = _global_accesses(index, fn)
        for key in sorted({k for k, _ in writes}):
            facts.append(f"writes-global:{key}")
        for key in sorted(reads):
            facts.append(f"reads-global:{key}")
        hooked = _hook_classes(index)
        for node in fn.scope():
            if isinstance(node, ast.Call):
                cqual = index.class_of_call(fn, node)
                if cqual in hooked:
                    facts.append("instantiates-hook-class")
                    break
    return sorted(set(facts))
