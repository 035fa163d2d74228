"""Mutation tests for the code-analysis deck: every rule must fire on
a minimal violating snippet and stay silent on the repaired twin."""

import pytest

from repro.analyze import CODE_REGISTRY, analyze_source


def findings(src, rule):
    report = analyze_source(src, name="repro/fake_mod.py", rules=[rule])
    return [v for v in report.violations if v.rule_id == rule]


def assert_fires(src, rule):
    hits = findings(src, rule)
    assert hits, f"{rule} did not fire"
    return hits


def assert_clean(src, rule):
    assert findings(src, rule) == [], f"{rule} fired on clean code"


# ---------------------------------------------------------------------------
# determinism deck
# ---------------------------------------------------------------------------

def test_det001_global_random_fires_and_seeded_is_clean():
    assert_fires("import random\n"
                 "def f(xs):\n"
                 "    random.shuffle(xs)\n", "DET001")
    # from-imports resolve through the alias map
    assert_fires("from random import shuffle\n"
                 "def f(xs):\n"
                 "    shuffle(xs)\n", "DET001")
    assert_clean("import random\n"
                 "def f(xs):\n"
                 "    rng = random.Random('seed')\n"
                 "    rng.shuffle(xs)\n", "DET001")


def test_det002_numpy_global_fires_and_default_rng_is_clean():
    assert_fires("import numpy as np\n"
                 "def f():\n"
                 "    return np.random.rand(3)\n", "DET002")
    assert_clean("import numpy as np\n"
                 "def f(seed):\n"
                 "    rng = np.random.default_rng(seed)\n"
                 "    return rng.random(3)\n", "DET002")


def test_det003_wall_clock_taint_reaches_json():
    hits = assert_fires(
        "import json\n"
        "import time\n"
        "def f():\n"
        "    t = time.time()\n"
        "    return json.dumps({'t': t})\n", "DET003")
    # obj is scope-based: stable across unrelated line edits
    assert hits[0].obj == "repro/fake_mod.py::f"
    # timing a stage and printing it never touches a sink
    assert_clean("import json\n"
                 "import time\n"
                 "def f():\n"
                 "    t = time.time()\n"
                 "    print(t)\n"
                 "    return json.dumps({'x': 1})\n", "DET003")


def test_det004_identity_taint_in_key_helper():
    assert_fires("def design_key(obj):\n"
                 "    return f'k-{id(obj)}'\n", "DET004")
    # membership tests are comparisons, not leaks (Compare prunes)
    assert_clean("def design_key(obj, seen):\n"
                 "    flag = id(obj) in seen\n"
                 "    return 'dup' if flag else 'new'\n", "DET004")


def test_det005_set_iteration_fires_and_sorted_is_clean():
    assert_fires("def f(xs):\n"
                 "    out = []\n"
                 "    for x in set(xs):\n"
                 "        out.append(x)\n"
                 "    return out\n", "DET005")
    assert_clean("def f(xs):\n"
                 "    out = []\n"
                 "    for x in sorted(set(xs)):\n"
                 "        out.append(x)\n"
                 "    return out\n", "DET005")


def test_det006_listdir_iteration_fires_and_sorted_is_clean():
    assert_fires("import os\n"
                 "def f(d):\n"
                 "    return [p for p in os.listdir(d)]\n", "DET006")
    assert_clean("import os\n"
                 "def f(d):\n"
                 "    return [p for p in sorted(os.listdir(d))]\n",
                 "DET006")


def test_det007_environment_taint_reaches_serialization():
    assert_fires("import json\n"
                 "import os\n"
                 "def f():\n"
                 "    pid = os.getpid()\n"
                 "    return json.dumps([pid])\n", "DET007")
    assert_clean("import json\n"
                 "import os\n"
                 "def f():\n"
                 "    print(os.getpid())\n"
                 "    return json.dumps([1])\n", "DET007")


# ---------------------------------------------------------------------------
# concurrency deck
# ---------------------------------------------------------------------------

def test_con001_lambda_worker_fires_and_function_is_clean():
    assert_fires("import multiprocessing as mp\n"
                 "def f():\n"
                 "    mp.Process(target=lambda: 1).start()\n", "CON001")
    assert_clean("import multiprocessing as mp\n"
                 "def work():\n"
                 "    return 1\n"
                 "def f():\n"
                 "    mp.Process(target=work).start()\n", "CON001")


def test_con002_nested_function_worker_fires():
    assert_fires("import multiprocessing as mp\n"
                 "def f():\n"
                 "    def inner():\n"
                 "        return 1\n"
                 "    mp.Process(target=inner).start()\n", "CON002")
    assert_clean("import multiprocessing as mp\n"
                 "def work():\n"
                 "    return 1\n"
                 "def f():\n"
                 "    mp.Process(target=work).start()\n", "CON002")


def test_con003_bound_method_worker_fires_module_attr_is_clean():
    assert_fires("import multiprocessing as mp\n"
                 "def f(runner):\n"
                 "    mp.Process(target=runner.run).start()\n", "CON003")
    # a function reached through an imported module is importable
    assert_clean("import multiprocessing as mp\n"
                 "import helpers\n"
                 "def f():\n"
                 "    mp.Process(target=helpers.work).start()\n",
                 "CON003")


def test_con004_worker_global_mutation_fires():
    src = ("import multiprocessing as mp\n"
           "STATE = {}\n"
           "def work():\n"
           "    STATE['x'] = 1\n"
           "def f():\n"
           "    mp.Process(target=work).start()\n")
    hits = assert_fires(src, "CON004")
    assert hits[0].obj == "repro/fake_mod.py::work"
    # the transitive call closure is covered too
    assert_fires("import multiprocessing as mp\n"
                 "STATE = {}\n"
                 "def setup():\n"
                 "    STATE['x'] = 1\n"
                 "def work():\n"
                 "    setup()\n"
                 "def f():\n"
                 "    mp.Process(target=work).start()\n", "CON004")
    assert_clean("import multiprocessing as mp\n"
                 "STATE = {}\n"
                 "def work():\n"
                 "    local = dict(STATE)\n"
                 "    local['x'] = 1\n"
                 "    return local\n"
                 "def f():\n"
                 "    mp.Process(target=work).start()\n", "CON004")


def test_con005_module_scope_lock_fires_lazy_is_clean():
    assert_fires("import threading\n"
                 "LOCK = threading.Lock()\n", "CON005")
    assert_clean("import threading\n"
                 "def f():\n"
                 "    lock = threading.Lock()\n"
                 "    return lock\n", "CON005")


@pytest.mark.parametrize("imports, call", [
    ("import threading", "threading.Thread(target=print)"),
    ("import threading", "threading.Timer(1.0, print)"),
    ("from concurrent.futures import ThreadPoolExecutor",
     "ThreadPoolExecutor(max_workers=2)"),
    ("import concurrent.futures as cf", "cf.ProcessPoolExecutor()"),
])
def test_con005_module_scope_thread_or_executor_fires_lazy_is_clean(
        imports, call):
    """A thread or executor made at import time is made once in the
    fork server, and no thread survives the fork into a worker."""
    assert_fires(f"{imports}\nPOOL = {call}\n", "CON005")
    assert_clean(f"{imports}\n"
                 f"def f():\n"
                 f"    pool = {call}\n"
                 f"    return pool\n", "CON005")


# ---------------------------------------------------------------------------
# flow-contract deck
# ---------------------------------------------------------------------------

_EXP_IMPORT = "from repro.analysis.experiments import experiment\n"


def test_flw001_runner_signature():
    assert_fires(_EXP_IMPORT +
                 "@experiment('x', 'demo')\n"
                 "def run_x(opts, extra=1):\n"
                 "    return None\n", "FLW001")
    assert_fires(_EXP_IMPORT +
                 "@experiment('x', 'demo')\n"
                 "def run_x(*args):\n"
                 "    return None\n", "FLW001")
    assert_clean(_EXP_IMPORT +
                 "@experiment('x', 'demo')\n"
                 "def run_x(opts):\n"
                 "    return None\n", "FLW001")


def test_flw002_seed_and_cache_threading():
    assert_fires(_EXP_IMPORT +
                 "@experiment('x', 'demo')\n"
                 "def run_x(opts):\n"
                 "    cfg = FlowConfig(scale=opts.scale)\n"
                 "    return cfg\n", "FLW002")
    assert_fires(_EXP_IMPORT +
                 "@experiment('x', 'demo')\n"
                 "def run_x(opts):\n"
                 "    d = build_chip(None, None)\n"
                 "    return d\n", "FLW002")
    assert_clean(_EXP_IMPORT +
                 "@experiment('x', 'demo')\n"
                 "def run_x(opts):\n"
                 "    seed, cache = opts.seed, opts.cache\n"
                 "    cfg = FlowConfig(scale=opts.scale, seed=seed)\n"
                 "    return build_chip(cfg, None, cache=cache)\n",
                 "FLW002")
    # outside a runner the helpers are free to do what they want
    assert_clean("def helper(scale):\n"
                 "    return FlowConfig(scale=scale)\n", "FLW002")


def test_flw003_frozen_options_mutation():
    assert_fires("def f(opts):\n"
                 "    opts.scale = 2.0\n", "FLW003")
    assert_fires("def f(opts):\n"
                 "    object.__setattr__(opts, 'scale', 2.0)\n",
                 "FLW003")
    assert_clean("import dataclasses\n"
                 "def f(opts):\n"
                 "    return dataclasses.replace(opts, scale=2.0)\n",
                 "FLW003")


def test_flw004_result_id_mismatch():
    assert_fires(_EXP_IMPORT +
                 "@experiment('x', 'demo')\n"
                 "def run_x(opts):\n"
                 "    return ExperimentResult('y', 'demo', '', [])\n",
                 "FLW004")
    assert_clean(_EXP_IMPORT +
                 "@experiment('x', 'demo')\n"
                 "def run_x(opts):\n"
                 "    return ExperimentResult('x', 'demo', '', [])\n",
                 "FLW004")


def test_flw005_span_fault_point_pairing():
    # a flow.* span with no fault_point is invisible to chaos tests
    assert_fires("from repro.obs import trace\n"
                 "def f():\n"
                 "    with trace.span('flow.place'):\n"
                 "        pass\n", "FLW005")
    # a stage fault_point outside any span has no trace attribution
    assert_fires("from repro.faults.inject import fault_point\n"
                 "def f():\n"
                 "    fault_point('place')\n", "FLW005")
    assert_clean("from repro.obs import trace\n"
                 "from repro.faults.inject import fault_point\n"
                 "def f():\n"
                 "    with trace.span('flow.place'):\n"
                 "        fault_point('place')\n", "FLW005")


def test_flw006_self_recursive_nested_function():
    # the nested self-call closes over its own cell: a reference cycle
    hits = assert_fires("def f(xs):\n"
                        "    def walk(lo, hi):\n"
                        "        if hi - lo > 1:\n"
                        "            walk(lo, (lo + hi) // 2)\n"
                        "    walk(0, len(xs))\n", "FLW006")
    assert hits[0].obj == "repro/fake_mod.py::f.walk"
    # the module-level recursive twin holds no closure cell
    assert_clean("def walk(lo, hi):\n"
                 "    if hi - lo > 1:\n"
                 "        walk(lo, (lo + hi) // 2)\n"
                 "def f(xs):\n"
                 "    walk(0, len(xs))\n", "FLW006")
    # a parameter that shadows the function's name is a local, not the
    # closure cell
    assert_clean("def f(xs):\n"
                 "    def apply(apply):\n"
                 "        return apply(xs)\n"
                 "    return apply(len)\n", "FLW006")


# ---------------------------------------------------------------------------
# observability-hygiene deck
# ---------------------------------------------------------------------------

def test_obs001_unregistered_span_name_fires():
    assert_fires("from repro.obs import trace\n"
                 "def f():\n"
                 "    with trace.span('totally.bogus'):\n"
                 "        pass\n", "OBS001")
    assert_clean("from repro.obs import trace\n"
                 "def f():\n"
                 "    with trace.span('flow.place'):\n"
                 "        pass\n", "OBS001")


def test_obs002_unregistered_metric_name_fires():
    assert_fires("def f(m):\n"
                 "    m.counter('totally.bogus').inc()\n", "OBS002")
    assert_clean("def f(m):\n"
                 "    m.counter('cache.misses').inc()\n", "OBS002")
    # registry internals re-emit validated names through self.counter
    assert_clean("class R:\n"
                 "    def merge(self, k):\n"
                 "        self.counter(k).inc()\n", "OBS002")
    # conditional literal names: every branch is checked
    assert_fires("def f(m, f2f):\n"
                 "    m.counter('flow.vias.f2f' if f2f\n"
                 "              else 'bogus.vias').inc()\n", "OBS002")


def test_obs003_dynamic_name_prefix():
    assert_fires("def f(m, kind):\n"
                 "    m.counter(f'bogus.{kind}').inc()\n", "OBS003")
    assert_clean("def f(m, kind):\n"
                 "    m.counter(f'faults.injected.{kind}').inc()\n",
                 "OBS003")
    # bare-variable forwarding is out of scope by design
    assert_clean("def f(t, name):\n"
                 "    return t.span(name)\n", "OBS003")


# ---------------------------------------------------------------------------
# deck integrity
# ---------------------------------------------------------------------------

def test_every_registered_rule_has_a_mutation_test():
    import sys
    module = sys.modules[__name__]
    source = open(module.__file__).read()
    for rule_id in CODE_REGISTRY:
        assert f'"{rule_id}"' in source, \
            f"{rule_id} has no mutation test"


def test_deck_is_documented_and_consistent():
    assert len(CODE_REGISTRY) == 21
    for rule_id, rule in CODE_REGISTRY.items():
        assert rule.id == rule_id
        assert rule.severity == "error"
        assert rule.requires == ("tree",)
        assert rule.doc, f"{rule_id} has no docstring"
        prefix = rule_id[:3]
        assert prefix in ("DET", "CON", "FLW", "OBS")


def test_code_registry_is_separate_from_design_deck():
    from repro.lint.framework import REGISTRY as DESIGN_REGISTRY
    assert not set(CODE_REGISTRY) & set(DESIGN_REGISTRY)


def test_syntax_error_raises_source_error():
    from repro.analyze import SourceError, context_for_source
    with pytest.raises(SourceError):
        context_for_source("def broken(:\n", name="bad.py")
