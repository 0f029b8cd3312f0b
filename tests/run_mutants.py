"""Run the mutation register, ``tests/mutants.json``.

Each entry names a file under ``src/``, a snippet that must occur in it
exactly once, its replacement, and the tests that must fail once the
replacement is made.  For each entry this script copies ``src/`` to a
temporary directory, applies the replacement there, and runs only the named
tests against the copy.  It exits 1 if a mutant survives (its tests pass), if
a snippet is missing or ambiguous, or if pytest cannot run the named tests
(a stale id), and 0 when every mutant is killed.

    python tests/run_mutants.py

pytest does not collect this file (its name does not match ``test_*.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REGISTER = Path(__file__).resolve().parent / "mutants.json"
TIMEOUT_S = 300


def run(mutant: dict) -> str:
    """'killed', or why the mutant is not: 'survived' or an error."""
    source = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    count = source.count(mutant["snippet"])
    if count != 1:
        return f"snippet occurs {count} times in {mutant['file']}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / Path(mutant["file"]).relative_to("src")
        target.write_text(source.replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8")
        # the ini's pythonpath would put the unmutated src/ first: point it at the copy
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "-o", f"pythonpath={copy}", *mutant["tests"]]
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"tests ran past {TIMEOUT_S} s"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    mutants = json.loads(REGISTER.read_text(encoding="utf-8"))
    bad = 0
    for mutant in mutants:
        start = time.perf_counter()
        outcome = run(mutant)
        bad += outcome != "killed"
        print(f"{mutant['id']}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
