"""Static code analyzer for the repo's own Python source.

The code-level twin of :mod:`repro.lint`: where lint audits flow
*artifacts* (netlists, placements, chips), this package audits the
*code that produces them* -- with stdlib ``ast`` only -- for the
properties the whole repro pipeline depends on:

* **determinism** (``DET``): process-global RNGs, hash/filesystem
  iteration order, wall-clock / identity / environment values leaking
  into cache keys or serialized results;
* **concurrency** (``CON``): fork-server safety of everything handed
  to the parallel engine -- importable worker callables, no
  shared-global mutation in worker code, no fork-unsafe module-scope
  resources (threads and executors included);
* **flow contracts** (``FLW``): ``@experiment`` runners thread
  ``seed=``/``cache``, results carry their registered id, frozen
  options stay frozen, every flow stage pairs its span with a
  ``fault_point``, no nested function calls itself by name (a
  reference cycle in runs that pause the cyclic collector);
* **observability hygiene** (``OBS``): span/metric names come from the
  generated registry (:mod:`repro.obs.names`).

It reuses the lint framework's severity/waiver/report machinery with
its own rule registry, so reports render and waive identically.  See
``docs/static-analysis.md`` for the catalog, and ``python -m repro
analyze`` for the CLI.  Importing this package registers the deck.
"""

from ..lint.framework import (LintConfig, LintError, LintReport,
                              Violation, Waiver)
from .astutil import ImportMap, literal_names, qualname, scope_map
from .context import (CodeContext, SourceError, context_for_file,
                      context_for_source)
from .determinism import CODE_REGISTRY, code_rule
from . import concurrency  # noqa: F401  (rule registration)
from . import contracts    # noqa: F401  (rule registration)
from . import hygiene      # noqa: F401  (rule registration)
from .namesgen import check_names, collect_inventory, write_names
from .runner import (DEFAULT_WAIVERS, WaiverSyntaxError, analyze_file,
                     analyze_paths, analyze_source, assert_self_clean,
                     default_config, load_waivers, self_report,
                     source_root)
from .taint import TaintSpec, find_leaks

__all__ = [
    "CODE_REGISTRY", "code_rule",
    "CodeContext", "SourceError", "context_for_file",
    "context_for_source",
    "ImportMap", "qualname", "scope_map", "literal_names",
    "TaintSpec", "find_leaks",
    "analyze_file", "analyze_source", "analyze_paths", "self_report",
    "assert_self_clean", "default_config", "load_waivers",
    "source_root", "DEFAULT_WAIVERS", "WaiverSyntaxError",
    "check_names", "collect_inventory", "write_names",
    "LintConfig", "LintError", "LintReport", "Violation", "Waiver",
]
