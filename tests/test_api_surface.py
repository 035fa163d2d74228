"""API-surface hygiene: exports resolve, and public items are documented."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGES = [
    "repro", "repro.tech", "repro.netlist", "repro.designgen",
    "repro.floorplan", "repro.place", "repro.route", "repro.timing",
    "repro.power", "repro.opt", "repro.cts", "repro.core",
    "repro.thermal", "repro.analysis", "repro.obs", "repro.parallel",
    "repro.service",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), package
    for name in mod.__all__:
        assert getattr(mod, name, None) is not None, \
            f"{package}.{name} in __all__ but unresolvable"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_classes_and_functions_documented(package):
    mod = importlib.import_module(package)
    undocumented = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(f"{package}.{name}")
    assert not undocumented, undocumented


@pytest.mark.parametrize("package", PACKAGES)
def test_modules_have_docstrings(package):
    mod = importlib.import_module(package)
    assert (mod.__doc__ or "").strip(), package


def test_top_level_lazy_exports():
    import repro
    assert repro.FlowConfig is not None
    assert repro.build_chip is not None
    assert callable(repro.run_experiment)
    with pytest.raises(AttributeError):
        repro.definitely_not_a_symbol


def test_service_surface_is_pinned():
    """The service package's public request surface: the frozen wire
    schema plus broker/client entry points, loaded lazily."""
    import repro.service as service

    expected = {
        "SCHEMA_VERSION", "PointSpec", "PointResult", "SchemaError",
        "SweepRequest", "decode_line", "encode_line",
        "Broker", "BrokerHandle", "ServiceConfig", "serve",
        "serve_background", "Client", "ServiceError",
    }
    assert set(service.__all__) == expected
    for name in expected:
        assert getattr(service, name, None) is not None, name


#: every option of every config object: each ``@dataclass`` in
#: ``src/repro`` named ``*Config``, plus ``FoldSpec``; a new knob is a
#: test edit
CONFIG_FIELDS = {
    "repro.core.flow:FlowConfig": (
        "scale", "seed", "fold", "bonding", "dual_vth", "io_budget_ps",
        "detailed_route", "assert_clean", "eco"),
    "repro.core.folding:FoldSpec": (
        "mode", "die1_regions", "interleave_period", "folded_regions"),
    "repro.core.fullchip:ChipConfig": (
        "style", "scale", "seed", "dual_vth", "budget_floor_ps",
        "assert_clean"),
    "repro.eco.driver:EcoConfig": ("target_wns_ps", "max_rounds"),
    "repro.floorplan.seqpair:AnnealConfig": (
        "iterations", "wl_weight", "seed"),
    "repro.lint.framework:LintConfig": ("disabled", "waivers"),
    "repro.parallel.engine:ResilienceConfig": ("timeout_s", "retries"),
    "repro.place.placer2d:PlacementConfig": ("seed", "macro_holes"),
    "repro.service.broker:ServiceConfig": (
        "host", "port", "socket_path", "parallel", "cache_dir",
        "timeout_s", "retries"),
    "repro.timing.sta:TimingConfig": (
        "clock_domain", "io_delays", "default_io_delay_ps"),
}


@pytest.mark.parametrize("spec", sorted(CONFIG_FIELDS))
def test_config_options_are_pinned(spec):
    module, _, name = spec.partition(":")
    cls = getattr(importlib.import_module(module), name)
    assert tuple(f.name for f in dataclasses.fields(cls)) == \
        CONFIG_FIELDS[spec]


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass") or \
        (isinstance(node, ast.Attribute) and node.attr == "dataclass")


def test_every_config_class_is_pinned():
    """No config object escapes :data:`CONFIG_FIELDS`: every
    ``@dataclass`` in ``src/repro`` named ``*Config``, plus
    ``FoldSpec``, has an entry."""
    import repro

    root = Path(repro.__file__).parent
    found = set()
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("")
                          .parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ClassDef)
                    and (node.name.endswith("Config")
                         or node.name == "FoldSpec")
                    and any(_is_dataclass_decorator(d)
                            for d in node.decorator_list)):
                found.add(f"{module}:{node.name}")
    assert found == set(CONFIG_FIELDS)


def test_explore_points_parameters_are_pinned():
    from repro.parallel.engine import explore_points
    assert tuple(inspect.signature(explore_points).parameters) == (
        "process", "grid", "scale", "seed", "parallel", "cache_dir")


def test_service_import_is_lazy():
    """Importing ``repro.service`` must not drag in the broker or
    client (checked in a fresh interpreter -- this process has long
    since imported them)."""
    import subprocess
    import sys

    code = ("import sys; import repro.service; "
            "assert 'repro.service.broker' not in sys.modules; "
            "assert 'repro.service.client' not in sys.modules; "
            "print('lazy ok')")
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "lazy ok" in out.stdout
