"""Flow-contract deck (FLW): invariants of the experiment/flow API.

The experiment registry, the flow pipeline and the chaos layer each
have a contract that is easy to break silently: a runner that forgets
to thread ``seed=`` still runs (with the default seed, corrupting
sweeps); a flow stage without a ``fault_point`` is invisible to chaos
tests; a mutated ``ExperimentOptions`` defeats the frozen-dataclass
guarantee the cache key depends on; a nested function that calls
itself by name leaves a reference cycle in a run that pauses the
cyclic collector.  These rules pin each contract.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from .astutil import decorator_call, first_str_arg, keyword_arg
from .context import CodeContext
from .determinism import code_rule
from .taint import walk_local

#: config constructors that must be seeded explicitly inside runners
_SEEDED_CTORS = frozenset({"FlowConfig", "ChipConfig"})

#: flow stages that the chaos layer must be able to interrupt
_CHAOS_STAGES = frozenset({"generate", "place", "optimize",
                           "detailed_route", "power"})


def _experiment_runners(ctx: CodeContext
                        ) -> Iterator[Tuple[ast.FunctionDef, Optional[str]]]:
    """Every ``@experiment(...)``-decorated function and its id."""
    assert ctx.tree is not None and ctx.imports is not None
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        dec = decorator_call(node, "experiment", ctx.imports)
        if dec is not None:
            yield node, first_str_arg(dec)


@code_rule("FLW001", "experiment runner with a non-standard signature")
def flw001_runner_signature(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """A registered runner is called as ``fn(opts)`` by the dispatcher
    and by every worker process; extra parameters, defaults or
    ``*args`` mean some path constructs options the cache key never
    sees."""
    for fn, _ in _experiment_runners(ctx):
        a = fn.args
        bad = (len(a.args) != 1 or a.posonlyargs or a.kwonlyargs
               or a.defaults or a.kw_defaults or a.vararg or a.kwarg)
        if bad:
            yield (f"{ctx.where(fn)}: @experiment runner {fn.name}() "
                   f"must take exactly one options parameter",
                   ctx.obj_of(fn))


@code_rule("FLW002", "experiment runner builds a config without seed=")
def flw002_threading(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """Inside a runner, every ``FlowConfig``/``ChipConfig`` must be
    built with an explicit ``seed=`` -- otherwise the run silently uses
    the default seed, corrupting sweeps."""
    assert ctx.imports is not None
    for fn, _ in _experiment_runners(ctx):
        for node in walk_local(fn):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.call_target(node) or ""
            tail = target.rsplit(".", 1)[-1]
            if tail in _SEEDED_CTORS and keyword_arg(node, "seed") is None:
                yield (f"{ctx.where(node)}: {tail}(...) inside "
                       f"@experiment runner {fn.name}() has no seed= "
                       f"keyword; thread opts.seed through",
                       ctx.obj_of(node))


@code_rule("FLW003", "ExperimentOptions mutated")
def flw003_options_mutation(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """``ExperimentOptions`` is a frozen dataclass because the cache
    key and the worker task tuple are derived from it; writing through
    the freeze (``object.__setattr__`` / ``setattr``) desynchronizes
    the run from its own cache key."""
    assert ctx.tree is not None and ctx.imports is not None
    for fn in ast.walk(ctx.tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        opt_names: Set[str] = {"opts"}
        for arg in fn.args.args + fn.args.kwonlyargs:
            ann = arg.annotation
            if ann is not None and "ExperimentOptions" in ast.dump(ann):
                opt_names.add(arg.arg)
        for node in walk_local(fn):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for t in targets:
                if isinstance(t, ast.Attribute) \
                        and isinstance(t.value, ast.Name) \
                        and t.value.id in opt_names:
                    yield (f"{ctx.where(node)}: assignment to "
                           f"{t.value.id}.{t.attr} mutates frozen "
                           f"ExperimentOptions; use dataclasses."
                           f"replace()",
                           ctx.obj_of(node))
            if isinstance(node, ast.Call):
                target = ctx.imports.call_target(node) or ""
                if target in ("setattr", "object.__setattr__") \
                        and node.args \
                        and isinstance(node.args[0], ast.Name) \
                        and node.args[0].id in opt_names:
                    yield (f"{ctx.where(node)}: {target}() on "
                           f"{node.args[0].id} mutates frozen "
                           f"ExperimentOptions; use dataclasses."
                           f"replace()",
                           ctx.obj_of(node))


@code_rule("FLW004", "result id differs from registered experiment id")
def flw004_result_id(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """The ``ExperimentResult`` a runner returns must carry the id it
    was registered under -- reports, goldens and the JSON dump are all
    keyed by ``result.experiment_id``, so a mismatch orphans the run's
    output."""
    assert ctx.imports is not None
    for fn, reg_id in _experiment_runners(ctx):
        if reg_id is None:
            continue
        for node in walk_local(fn):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.call_target(node) or ""
            if target.rsplit(".", 1)[-1] != "ExperimentResult":
                continue
            built = first_str_arg(node)
            if built is None:
                eid = keyword_arg(node, "experiment_id")
                if isinstance(eid, ast.Constant) \
                        and isinstance(eid.value, str):
                    built = eid.value
            if built is not None and built != reg_id:
                yield (f"{ctx.where(node)}: ExperimentResult id "
                       f"{built!r} differs from registered id "
                       f"{reg_id!r}",
                       ctx.obj_of(node))


# ---------------------------------------------------------------------------
# FLW005: span <-> fault_point pairing at flow stage boundaries
# ---------------------------------------------------------------------------

def _span_name(item: ast.withitem, ctx: CodeContext) -> Optional[str]:
    """Literal span name of a ``with trace.span("...")`` item."""
    expr = item.context_expr
    if not isinstance(expr, ast.Call):
        return None
    target = ctx.imports.call_target(expr) or "" if ctx.imports else ""
    if target.rsplit(".", 1)[-1] != "span":
        return None
    return first_str_arg(expr)


def _fault_stage(node: ast.AST, ctx: CodeContext) -> Optional[str]:
    """Literal stage of a ``fault_point("...")`` call."""
    if not isinstance(node, ast.Call):
        return None
    target = ctx.imports.call_target(node) or "" if ctx.imports else ""
    if target.rsplit(".", 1)[-1] != "fault_point":
        return None
    return first_str_arg(node)


@code_rule("FLW005", "flow stage missing its span/fault_point pair")
def flw005_stage_boundary(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """Every flow stage boundary must carry *both* halves of the
    observability/chaos contract: a ``flow.*`` span with no
    ``fault_point`` inside is a stage chaos tests cannot interrupt; a
    stage ``fault_point`` outside any span produces injected faults
    that no trace attributes."""
    assert ctx.tree is not None
    covered: Set[int] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.With):
            continue
        names = [_span_name(item, ctx) for item in node.items]
        in_span = any(n is not None for n in names)
        has_fp = any(_fault_stage(sub, ctx) is not None
                     for stmt in node.body for sub in ast.walk(stmt))
        if in_span:
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    covered.add(id(sub))
        for n in names:
            if n is not None and n.startswith("flow.") and not has_fp:
                yield (f"{ctx.where(node)}: span {n!r} marks a flow "
                       f"stage but contains no fault_point(); the "
                       f"chaos layer cannot reach this stage",
                       ctx.obj_of(node))
    for node in ast.walk(ctx.tree):
        stage = _fault_stage(node, ctx)
        if stage in _CHAOS_STAGES and id(node) not in covered:
            yield (f"{ctx.where(node)}: fault_point({stage!r}) is not "
                   f"inside any trace span; injected faults here are "
                   f"invisible to traces",
                   ctx.obj_of(node))


# ---------------------------------------------------------------------------
# FLW006: nested functions that name themselves
# ---------------------------------------------------------------------------

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


@code_rule("FLW006", "self-recursive nested function")
def flw006_self_recursive_closure(ctx: CodeContext
                                  ) -> Iterator[Tuple[str, str]]:
    """A nested ``def`` whose body names the function itself (a
    recursive call, most often) reads its own closure cell, and the
    cell holds the function: a reference cycle that only the cyclic
    collector frees.  Experiments run with that collector paused
    (``repro.memory.collector_paused``), so everything the function
    and its enclosing scope hold -- grids, index arrays, prefix tables
    -- would stay alive until the run ends.  Walk an explicit stack or
    recurse through a module-level function instead."""
    assert ctx.tree is not None
    for outer in ast.walk(ctx.tree):
        if not isinstance(outer, _FUNCS):
            continue
        for fn in walk_local(outer):
            if not isinstance(fn, _FUNCS):
                continue
            params = {a.arg for a in ast.walk(fn.args)
                      if isinstance(a, ast.arg)}
            if fn.name in params:
                continue
            if any(isinstance(n, ast.Name) and n.id == fn.name
                   and isinstance(n.ctx, ast.Load)
                   for stmt in fn.body for n in ast.walk(stmt)):
                yield (f"{ctx.where(fn)}: nested function {fn.name}() "
                       f"refers to its own name, a closure cycle only "
                       f"the cyclic collector frees; use an explicit "
                       f"stack or a module-level function",
                       ctx.obj_of(fn))
