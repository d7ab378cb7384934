"""Every exported name resolves.  The per-layer tracer in
`perfbench/spans.py` looks up each name of a module's `__all__`, so a
stale entry breaks traced benchmark runs."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import netcode

MODULES = ("gf2", "design", "channel", "decoders", "harness", "cli")

# Names the benchmark calls through the package namespace.
BENCHMARK_NAMES = ("FadingModel", "SncPolicy", "simulate_rounds",
                   "decode_with_mode_batch", "sp_decode_batch",
                   "network_code", "BitMatrix", "code_for_requirements")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"netcode.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_reexports_are_public():
    """Each name the package re-exports is listed in its module's
    `__all__`, so the tracer sees it."""
    exported = {attr for name in MODULES
                for attr in importlib.import_module(f"netcode.{name}").__all__}
    public = [attr for attr, value in vars(netcode).items()
              if not attr.startswith("_") and not inspect.ismodule(value)]
    assert public
    assert sorted(set(public) - exported) == []


def test_benchmark_names_stay_exported():
    for name in BENCHMARK_NAMES:
        value = getattr(netcode, name)
        mod = importlib.import_module(value.__module__)
        assert name in mod.__all__
    assert callable(netcode.BitMatrix.from_rows)


def test_no_module_imports_a_private_name():
    """A name one module needs from another is public in the other."""
    private = []
    for path in sorted(Path(netcode.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_")]
    assert private == []
