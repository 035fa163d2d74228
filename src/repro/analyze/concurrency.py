"""Concurrency deck (CON): fork-server safety of worker code.

The parallel engine runs every task in a fresh process forked from
multiprocessing's fork server, which has imported the engine (and with
it every module the engine imports) and nothing else: the child
unpickles ``(target, args)`` and runs.  That model makes three things
illegal that work fine serially -- non-importable callables (lambdas,
closures, bound methods), reliance on module globals mutated elsewhere,
and resources created at import time: the server creates them once and
every forked worker inherits a copy, and a thread never survives the
fork.  These rules catch all three at review time instead of as a
``PicklingError`` (or silent state divergence) at run time.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from .astutil import ImportMap, keyword_arg, qualname
from .context import CodeContext
from .determinism import code_rule

#: attribute names that hand a callable to a pool/executor
_SUBMIT_ATTRS = frozenset({"submit", "apply_async", "map_async",
                           "starmap", "starmap_async", "imap",
                           "imap_unordered"})

#: constructors that take a ``target=`` worker callable
_TARGET_CTORS = ("Process", "Thread")


def _worker_callables(ctx: CodeContext) -> Iterator[ast.expr]:
    """Every expression handed to a process/thread as its entry point."""
    assert ctx.tree is not None and ctx.imports is not None
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.imports.call_target(node) or ""
        tail = target.rsplit(".", 1)[-1]
        if tail in _TARGET_CTORS:
            kw = keyword_arg(node, "target")
            if kw is not None:
                yield kw
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr in _SUBMIT_ATTRS and node.args:
            yield node.args[0]


def _module_functions(ctx: CodeContext) -> Tuple[Set[str], Set[str]]:
    """(top-level function names, nested/class-scope function names)."""
    assert ctx.tree is not None
    top: Set[str] = set()
    nested: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a function's own scope qualname equals its bare name
            # exactly when nothing encloses it
            if ctx.scope_of(node) == node.name:
                top.add(node.name)
            else:
                nested.add(node.name)
    return top, nested


def _unwrap_partial(node: ast.expr, imports: ImportMap) -> ast.expr:
    """``functools.partial(fn, ...)`` -> ``fn`` (recursively)."""
    while isinstance(node, ast.Call):
        target = imports.resolve(qualname(node.func)) or ""
        if target.rsplit(".", 1)[-1] == "partial" and node.args:
            node = node.args[0]
        else:
            break
    return node


@code_rule("CON001", "lambda submitted as worker callable")
def con001_lambda_worker(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """Lambdas cannot be pickled, so a process pool dies with a
    ``PicklingError`` the moment the task ships.  Define a module-level
    function instead."""
    assert ctx.imports is not None
    for cb in _worker_callables(ctx):
        cb = _unwrap_partial(cb, ctx.imports)
        if isinstance(cb, ast.Lambda):
            yield (f"{ctx.where(cb)}: lambda passed as a worker "
                   f"callable; worker processes need an importable "
                   f"module-level function",
                   ctx.obj_of(cb))


@code_rule("CON002", "closure submitted as worker callable")
def con002_closure_worker(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """A function defined inside another function captures its
    enclosing frame and is not importable by a worker process.  Hoist
    the worker to module level and pass its inputs as task args."""
    assert ctx.imports is not None
    top, nested = _module_functions(ctx)
    for cb in _worker_callables(ctx):
        cb = _unwrap_partial(cb, ctx.imports)
        if isinstance(cb, ast.Name) and cb.id in nested \
                and cb.id not in top:
            yield (f"{ctx.where(cb)}: nested function {cb.id}() passed "
                   f"as a worker callable; hoist it to module level",
                   ctx.obj_of(cb))


@code_rule("CON003", "bound method submitted as worker callable")
def con003_bound_method(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """``obj.method`` drags the whole instance through pickle into
    every worker -- slow at best, unpicklable or stale at worst.  Pass
    a module-level function plus the data it needs."""
    assert ctx.imports is not None
    for cb in _worker_callables(ctx):
        cb = _unwrap_partial(cb, ctx.imports)
        if not isinstance(cb, ast.Attribute):
            continue
        base = qualname(cb.value)
        # ``module.fn`` where the base is an imported module is fine
        if base is not None and base.split(".")[0] in ctx.imports.aliases:
            continue
        yield (f"{ctx.where(cb)}: bound method "
               f"{base or '<expr>'}.{cb.attr} passed as a worker "
               f"callable; use a module-level function",
               ctx.obj_of(cb))


# ---------------------------------------------------------------------------
# CON004: module-global mutation in worker-executed code
# ---------------------------------------------------------------------------

#: method calls that mutate their receiver in place
_MUTATING_METHODS = frozenset({"append", "extend", "add", "update",
                               "insert", "pop", "remove", "clear",
                               "setdefault", "popitem"})


def _module_level_names(ctx: CodeContext) -> Set[str]:
    """Names assigned at module scope (candidate shared state)."""
    assert ctx.tree is not None
    names: Set[str] = set()
    for node in ctx.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for t in targets:
            for n in ast.walk(t):
                if isinstance(n, ast.Name):
                    names.add(n.id)
    return names


def _worker_entry_closure(ctx: CodeContext) -> Dict[str, ast.FunctionDef]:
    """Worker entry functions plus their transitive in-module callees."""
    assert ctx.tree is not None and ctx.imports is not None
    by_name: Dict[str, ast.FunctionDef] = {
        f.name: f for f in ast.walk(ctx.tree)
        if isinstance(f, ast.FunctionDef)
        and ctx.scope_of(f) == f.name}
    roots: List[str] = []
    for cb in _worker_callables(ctx):
        cb = _unwrap_partial(cb, ctx.imports)
        if isinstance(cb, ast.Name) and cb.id in by_name:
            roots.append(cb.id)
    closure: Dict[str, ast.FunctionDef] = {}
    while roots:
        name = roots.pop()
        if name in closure:
            continue
        fn = by_name[name]
        closure[name] = fn
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in by_name:
                roots.append(node.func.id)
    return closure


def _global_mutations(fn: ast.FunctionDef, shared: Set[str]
                      ) -> Iterator[Tuple[ast.AST, str]]:
    """Statements in ``fn`` that mutate a module-level name."""
    declared_global: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in ast.walk(fn):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for t in targets:
            if isinstance(t, ast.Name) and t.id in declared_global \
                    and t.id in shared:
                yield node, t.id
            elif isinstance(t, (ast.Subscript, ast.Attribute)):
                base = t.value
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in shared:
                    yield node, base.id
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATING_METHODS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in shared:
            yield node, node.func.value.id


@code_rule("CON004", "module global mutated in worker-executed code")
def con004_global_mutation(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """Code reachable from a worker entry point that writes a
    module-level name only updates the *child's* copy -- the parent
    never sees it, and two workers never see each other.  Ship state
    back through the task result instead (or waive when the global is
    deliberately worker-local)."""
    shared = _module_level_names(ctx)
    if not shared:
        return
    for name, fn in sorted(_worker_entry_closure(ctx).items()):
        # names only ever touched inside this closure are worker-local
        # by construction only if waived; report every site and let the
        # waiver carry the justification
        for node, gname in _global_mutations(fn, shared):
            yield (f"{ctx.where(node)}: worker-executed {name}() "
                   f"mutates module global {gname!r}; workers cannot "
                   f"share in-process state",
                   ctx.obj_of(node))


# ---------------------------------------------------------------------------
# CON005: fork-unsafe module-scope resources
# ---------------------------------------------------------------------------

#: call targets that produce resources unsafe to create at import time
_FORK_UNSAFE_CALLS = frozenset({
    "open",
    "threading.Lock", "threading.RLock", "threading.Event",
    "threading.Condition", "threading.Semaphore",
    "threading.Thread", "threading.Timer",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Lock", "multiprocessing.RLock",
    "multiprocessing.Queue",
    "sqlite3.connect",
    "socket.socket",
})


@code_rule("CON005", "fork-unsafe resource created at module scope")
def con005_module_resource(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """File handles, locks, sockets, DB connections, threads and
    executors created at import time are created once in the fork
    server and duplicated into every worker forked from it (a lock
    possibly held, a thread or an executor's threads gone), and
    re-created with a different identity in the supervising process;
    either way the copies silently diverge.  Create them lazily inside
    the owning function."""
    assert ctx.tree is not None and ctx.imports is not None
    for node in ctx.tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None or not isinstance(value, ast.Call):
            continue
        target = ctx.imports.call_target(value)
        if target in _FORK_UNSAFE_CALLS:
            yield (f"{ctx.where(value)}: {target}() creates a "
                   f"fork-unsafe resource at module scope; construct "
                   f"it inside the function that uses it",
                   ctx.obj_of(value))
