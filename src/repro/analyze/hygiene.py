"""Observability-hygiene deck (OBS): span/metric names by registry.

Span and counter names are load-bearing: CI smoke jobs assert on them,
trace exports group by them, and a typo ships a metric nobody reads.
The generated registry (:mod:`repro.obs.names`, maintained with
``repro analyze --write-names``) is the single source of truth; these
rules hold every call site to it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .astutil import literal_names
from .context import CodeContext
from .determinism import code_rule

#: metric-emitting attribute names -> registry kind
_METRIC_ATTRS = {"counter": "counter", "gauge": "gauge",
                 "histogram": "histogram"}


def _names_registry():
    from ..obs import names
    return names


def _registered(kind: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """(exact names, f-string prefixes) registered for a kind."""
    reg = _names_registry()
    if kind == "span":
        return reg.SPAN_NAMES, reg.SPAN_PREFIXES
    if kind == "counter":
        return reg.CTR_NAMES, reg.CTR_PREFIXES
    if kind == "gauge":
        return reg.GAUGE_NAMES, ()
    return reg.HIST_NAMES, ()


def _name_sites(ctx: CodeContext) -> Iterator[Tuple[ast.Call, str]]:
    """Every ``(call, kind)`` that emits a span or metric name.

    ``self.counter(...)`` receivers are skipped: those are the metrics
    registry's own internals re-emitting already-validated names.
    """
    assert ctx.tree is not None and ctx.imports is not None
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        recv = node.func.value
        if isinstance(recv, ast.Name) and recv.id == "self":
            continue
        if attr == "span":
            yield node, "span"
        elif attr in _METRIC_ATTRS:
            yield node, _METRIC_ATTRS[attr]


def _check_site(ctx: CodeContext, node: ast.Call, kind: str,
                want_literal: bool) -> Iterator[Tuple[str, str]]:
    literals, prefix = literal_names(node.args[0])
    exact, prefixes = _registered(kind)
    if want_literal:
        for lit in literals:
            if lit not in exact:
                yield (f"{ctx.where(node)}: {kind} name {lit!r} is not "
                       f"in the generated registry (repro.obs.names); "
                       f"run `repro analyze --write-names` after "
                       f"adding it intentionally",
                       ctx.obj_of(node))
    elif prefix is not None:
        if not prefix or not any(prefix.startswith(p) or p == prefix
                                 for p in prefixes):
            shown = prefix or "<no literal prefix>"
            yield (f"{ctx.where(node)}: dynamic {kind} name with "
                   f"prefix {shown!r} matches no registered prefix; "
                   f"dynamic names need a registered `<prefix>*` "
                   f"family",
                   ctx.obj_of(node))


@code_rule("OBS001", "span name missing from the generated registry")
def obs001_span_names(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """Every literal ``trace.span("...")`` name must appear in
    :mod:`repro.obs.names`; otherwise trace-based CI asserts and
    export groupings silently miss it."""
    for node, kind in _name_sites(ctx):
        if kind == "span":
            yield from _check_site(ctx, node, kind, want_literal=True)


@code_rule("OBS002", "metric name missing from the generated registry")
def obs002_metric_names(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """Every literal counter/gauge/histogram name must appear in
    :mod:`repro.obs.names` so dashboards and smoke asserts can import
    the constant instead of repeating the string."""
    for node, kind in _name_sites(ctx):
        if kind != "span":
            yield from _check_site(ctx, node, kind, want_literal=True)


@code_rule("OBS003", "dynamic span/metric name with unregistered prefix")
def obs003_dynamic_names(ctx: CodeContext) -> Iterator[Tuple[str, str]]:
    """An f-string name is fine only when its literal prefix matches a
    registered ``<prefix>*`` family (``faults.injected.*``); a dynamic
    name outside every family is unbounded cardinality no consumer
    knows about.  Bare-variable forwarding (``tracer.span(name)``) is
    out of scope."""
    for node, kind in _name_sites(ctx):
        yield from _check_site(ctx, node, kind, want_literal=False)
