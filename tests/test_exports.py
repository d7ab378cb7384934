"""Every exported name resolves.  The per-layer tracer in
`perfbench/spans.py` looks up each name of a module's `__all__`, so a
stale entry breaks traced benchmark runs.  The benchmark's positional
calls must also mean what their keyword forms say."""
import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import netcode
from conftest import CODE1_ROWS, CODE1_V

MODULES = ("gf2", "design", "channel", "decoders", "harness", "cli")

# Names the benchmark calls through the package namespace.
BENCHMARK_NAMES = ("FadingModel", "SncPolicy", "simulate_rounds",
                   "decode_with_mode_batch", "sp_decode_batch",
                   "network_code", "BitMatrix", "code_for_requirements")


@pytest.mark.parametrize("decoder", ["map", "sp"])
@pytest.mark.parametrize("snc", [False, True])
def test_benchmark_calls_keep_their_positions(decoder, snc):
    """The benchmark's sample checks pass these arguments by position
    (`perfbench/run.py::sample_checks`); each call must mean what its
    keyword form says.  Deleting or moving a parameter, such as the
    decoders' `noise`, needs the benchmark changed with it."""
    code = netcode.network_code(netcode.BitMatrix.from_rows(CODE1_ROWS), CODE1_V)
    snr = 10.0 ** (8.0 / 10.0)
    fading = netcode.FadingModel("block_iid", snr)
    policy = netcode.SncPolicy(snc)
    assert fading == netcode.FadingModel(mode="block_iid", mean_snr=snr)
    assert policy == netcode.SncPolicy(enabled=snc)
    batch = netcode.simulate_rounds(code, fading, policy,
                                    np.random.default_rng([5, 0, 0, 1]), 64)
    again = netcode.simulate_rounds(code=code, fading=fading, snc=policy,
                                    rng=np.random.default_rng([5, 0, 0, 1]),
                                    batch=64)
    assert np.array_equal(batch.y, again.y) and np.array_equal(batch.p_e, again.p_e)
    decisions = netcode.decode_with_mode_batch(batch, code, 1.0, "optimal", decoder, 4)
    assert np.array_equal(decisions, netcode.decode_with_mode_batch(
        batch, code, noise=1.0, mode="optimal", decoder=decoder, sp_iters=4))
    llrs, signs = netcode.sp_decode_batch(batch, code, 1.0, 4)
    by_name = netcode.sp_decode_batch(batch, code, noise=1.0, iters=4)
    assert np.array_equal(llrs, by_name[0]) and np.array_equal(signs, by_name[1])


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


# Exported names that no module calls, each kept for a result of the paper.
UNCALLED_EXPORTS = {
    "repetition_code": "the paper's repetition baseline as a code that can "
                       "be simulated",
    "rate_advantage": "criterion 3's curve of greedy over repetition rate",
    "compare_sweeps": "SNR gaps between sweeps, criteria 6 and 8",
}


def _references(tree):
    """Names a module's code refers to (Name and Attribute nodes), each
    outside the definition of the same name; strings, imports and
    `__all__` entries are not references."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_exported_function_or_class_has_a_caller():
    """A public name that only tests use must earn its place: each
    function or class in a module's `__all__` is referenced somewhere in
    the package or the benchmark, or is listed in UNCALLED_EXPORTS."""
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "netcode").glob("*.py"))
    paths += sorted((root / "perfbench").glob("*.py"))
    assert len(paths) > len(MODULES)
    refs = set().union(*(_references(ast.parse(p.read_text())) for p in paths))
    exported = set()
    for name in MODULES:
        mod = importlib.import_module(f"netcode.{name}")
        exported |= {attr for attr in mod.__all__ if callable(getattr(mod, attr))}
    assert set(UNCALLED_EXPORTS) <= exported
    assert sorted(exported - refs - set(UNCALLED_EXPORTS)) == []
    assert sorted(set(UNCALLED_EXPORTS) & refs) == []
