"""Package surface: every exported name resolves, metadata is coherent."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "circuit", "core", "eval", "flow", "modules", "opt", "signals", "stats",
]


def test_version():
    assert repro.__version__


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackages_importable(name):
    module = importlib.import_module(f"repro.{name}")
    assert module is not None


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    """Every name in a subpackage's __all__ must actually exist."""
    module = importlib.import_module(f"repro.{name}")
    exported = getattr(module, "__all__", [])
    assert exported, f"repro.{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"repro.{name}.{symbol} missing"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_is_sorted_and_unique(name):
    module = importlib.import_module(f"repro.{name}")
    exported = list(getattr(module, "__all__", []))
    assert len(exported) == len(set(exported)), f"duplicates in {name}"


def test_cli_module_importable():
    from repro import cli

    assert callable(cli.main)


def test_public_classes_have_docstrings():
    """Documentation contract: every exported class/function documented."""
    undocumented = []
    for name in SUBPACKAGES:
        module = importlib.import_module(f"repro.{name}")
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"repro.{name}.{symbol}")
    assert not undocumented, undocumented


def test_runtime_entry_points_do_not_load_scipy():
    """numpy is the only runtime dependency: the CLI, the server, the
    library API and the characterization worker's import chain must not
    pull in scipy (a test-only extra), which costs ~17 MB of resident
    memory and ~0.2 s on every process start."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = "\n".join([
        "import sys",
        "import repro.api, repro.cli, repro.eval.harness, repro.runtime.service",
        "import repro.serve",
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print('SCIPY-MODULES', loaded)",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "SCIPY-MODULES []" in proc.stdout, proc.stdout
