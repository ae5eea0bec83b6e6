"""Shrinker: minimization quality, fixpoint behavior, repro artifacts."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from repro.verify.differential import FuzzCase, check_case
from repro.verify.shrink import (
    MIN_PATTERNS,
    ShrinkResult,
    repro_name,
    shrink_case,
    write_repro,
)


def test_shrinker_end_to_end(compiled_toggle_bug, tmp_path):
    """ISSUE acceptance: an injected toggle-counting bug is caught and
    shrunk to a repro of <= 8 transitions; the artifact is a runnable,
    self-contained script."""
    case = FuzzCase(
        kind="cla_adder", width=6, n_patterns=120, seed=987654,
        chunk_size=17, stimulus="uniform_hd", glitch_weight=0.5,
    )
    mismatches = check_case(case)
    assert mismatches, "injected bug was not detected"

    result = shrink_case(
        case, failing_checks=[m.check for m in mismatches]
    )
    assert result.original == case
    assert result.mismatches, "shrunk case no longer fails"
    assert result.n_transitions <= 8
    # The minimizer should reach the floor for this always-failing bug.
    assert result.minimized.n_patterns == MIN_PATTERNS
    assert result.minimized.width <= case.width
    assert result.minimized.seed < case.seed

    path = write_repro(result.minimized, result.mismatches,
                       directory=str(tmp_path))
    assert path.exists()
    source = path.read_text()
    compile(source, str(path), "exec")  # valid standalone Python
    assert "FuzzCase" in source and "EXPECTED_CHECKS" in source

    # In THIS process the bug is still monkeypatched in: the script's
    # main() must reproduce (exit code 1).
    spec = importlib.util.spec_from_file_location("repro_artifact", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 1

    # In a clean subprocess (no bug) the same script must exit 0.  The
    # artifact self-locates src/ relative to artifacts/repros/; from a
    # pytest tmp dir we supply the path explicitly instead.
    repo_root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    proc = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True,
        cwd=str(repo_root), env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no longer fails" in proc.stdout


def test_shrink_non_reproducing_case_is_noop():
    case = FuzzCase(kind="ripple_adder", width=3, n_patterns=20, seed=0)
    result = shrink_case(case)  # healthy code: nothing fails
    assert isinstance(result, ShrinkResult)
    assert result.minimized == case
    assert result.mismatches == []


def test_shrink_respects_evaluation_budget(compiled_toggle_bug):
    case = FuzzCase(kind="ripple_adder", width=5, n_patterns=100, seed=42)
    result = shrink_case(case, max_evaluations=3)
    assert result.n_evaluations <= 4  # initial check + budget
    assert result.mismatches  # still returns a failing case


def test_repro_name_deterministic_and_distinct(compiled_toggle_bug):
    case = FuzzCase(kind="ripple_adder", width=3, n_patterns=4, seed=0)
    mismatches = check_case(case)
    assert mismatches
    assert repro_name(case, mismatches) == repro_name(case, mismatches)
    other = FuzzCase(kind="ripple_adder", width=3, n_patterns=5, seed=0)
    assert repro_name(case, mismatches) != repro_name(other, mismatches)
