"""Coverage measurement with *targeted* floors (the ``make coverage`` gate).

Runs the tier-1 suite under ``pytest-cov`` and enforces per-target
minimums only where this repo has made explicit promises:

* ``src/repro/core/accumulator.py`` — the incremental core the streaming
  sessions and property suite lean on;
* ``src/repro/serve/`` — the serving layer, sessions included;
* ``src/repro/tech/`` — the technology calibration layer and its PAE
  reports;
* ``src/repro/modules/`` — the datapath library, spec addressing and
  the parameterized variant generators;
* ``src/repro/flow/`` — dataflow budgeting, whose node models must stay
  the ones every other entry point characterizes.

There is deliberately **no hard global gate**: the global number is
printed (and appended to ``$GITHUB_STEP_SUMMARY`` when set) so the trend
is visible in every CI run without making unrelated PRs fail on
incidental coverage drift.

Degrades gracefully: when ``pytest-cov`` isn't importable (local dev
without the CI extras), it reports and exits 0 so ``make coverage`` never
blocks on a missing plugin.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (path prefix relative to repo root, minimum percent covered).
#: Floors are deliberately below current measurements — they catch
#: collapses (a test layer stops importing a module), not drift.
FLOORS = (
    ("src/repro/core/accumulator.py", 75.0),
    ("src/repro/serve/", 55.0),
    ("src/repro/tech/", 80.0),
    ("src/repro/modules/", 70.0),
    ("src/repro/flow/", 85.0),
)


def _percent(data: dict, match) -> tuple[float, int, int]:
    covered = total = 0
    for filename, entry in data.get("files", {}).items():
        normalized = filename.replace(os.sep, "/")
        if match(normalized):
            summary = entry["summary"]
            covered += summary["covered_lines"]
            total += summary["num_statements"]
    percent = 100.0 * covered / total if total else 0.0
    return percent, covered, total


def main() -> int:
    if importlib.util.find_spec("pytest_cov") is None:
        print("coverage: pytest-cov not installed (CI-only extra); "
              "skipping — `pip install -e '.[test]'` to enable")
        return 0

    report_path = ROOT / "coverage.json"
    command = [
        sys.executable, "-m", "pytest", "-x", "-q",
        "--cov=repro", "--cov-report=term:skip-covered",
        f"--cov-report=json:{report_path}",
    ]
    print("coverage:", " ".join(command))
    proc = subprocess.run(command, cwd=ROOT)
    if proc.returncode != 0:
        print("coverage: test run failed; no gate evaluated")
        return proc.returncode

    data = json.loads(report_path.read_text())
    global_pct = float(data["totals"]["percent_covered"])

    lines = [f"**Global line coverage: {global_pct:.1f}%** "
             f"(informational, no gate)"]
    failures = []
    for prefix, floor in FLOORS:
        pct, covered, total = _percent(
            data, lambda name, p=prefix: p.rstrip("/") in name
            if p.endswith("/") else name.endswith(p)
        )
        verdict = "ok" if pct >= floor else "BELOW FLOOR"
        lines.append(
            f"- `{prefix}`: {pct:.1f}% ({covered}/{total} lines, "
            f"floor {floor:.0f}%) — {verdict}"
        )
        if pct < floor:
            failures.append((prefix, pct, floor))

    body = "\n".join(lines)
    print(body)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write("## Coverage\n\n" + body + "\n")

    if failures:
        for prefix, pct, floor in failures:
            print(f"coverage gate: {prefix} at {pct:.1f}% "
                  f"< floor {floor:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
