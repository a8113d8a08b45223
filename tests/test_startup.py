"""What a command-line run imports, and the README's library example that
loads the rest of the package on first use."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports the package from `src`."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_cli_import_leaves_generator_baseline_and_oracles_unloaded():
    # dataclasses costs start-up; datagen and levelwise load where they are
    # used; production code never imports the test oracles.  Modules the
    # interpreter loaded before the import (site hooks) do not count.
    unwanted = ["dataclasses", "mdcolo.datagen", "mdcolo.levelwise", "oracles"]
    proc = run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mdcolo.cli\n"
        f"print([m for m in {unwanted!r} if m in sys.modules and m not in before])"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    # One `label dpi rows` line per maximal pattern, e.g. "A_new,B_new 0.5 3".
    lines = proc.stdout.splitlines()
    assert lines
    assert all(re.fullmatch(r"\w+_(new|dead)(,\w+_(new|dead))+ \S+ \d+", l) for l in lines), lines
