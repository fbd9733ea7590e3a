"""Run the mutation catalog: each mutant applied alone to a copy of the tree.

    python3 mutants/run.py

Each entry of `catalog.json`'s "mutants" list names a file, an `old` text
that occurs in it exactly once, the `new` text that replaces it, and the
test files that should kill the mutant.  The repository this directory sits
in is copied once to a temporary directory, without `.git` and caches, and
the union of every entry's test files must pass there unmutated first, so a
failing test is one the mutant made fail.  Then each mutant in turn is
written into the copy, `pytest -x -q -p no:cacheprovider` runs on its test
files there, and the file is restored.  No bytecode is written in the copy,
so a restored file is never read from a mutant's stale cache.  The work
tree is never edited.

A mutant is killed when pytest fails (or runs past TIMEOUT), survived when
it passes, and stale when its `old` text does not occur exactly once.  A
failing baseline, or any survived or stale entry, or a pytest that could
not run the named files, makes the exit status 1.  The "equivalent" list holds mutants that no test
can kill, each with its reason; they are not run, and `tests/test_mutants.py`
keeps their text current with the rest.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG = HERE / "catalog.json"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")
TIMEOUT = 600  # seconds a mutant's test run may take
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


def run_one(tree: Path, entry: dict, env: dict) -> tuple[str, float]:
    """(status, seconds) of one mutant in the copied tree, which it leaves
    as it found it."""
    path = tree / entry["file"]
    text = path.read_text()
    if text.count(entry["old"]) != 1:
        return "stale", 0.0
    start = time.perf_counter()
    path.write_text(text.replace(entry["old"], entry["new"]))
    try:
        code = subprocess.run([*PYTEST, *entry["tests"]], cwd=tree, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    except subprocess.TimeoutExpired:  # a mutant that never finishes is caught, as a hang
        code = 1
    finally:
        path.write_text(text)
    # pytest exits 1 on a failed test and 2 on a collection error; as the same files
    # passed unmutated, either one is the mutant's doing; 0 passed every test
    status = {0: "survived", 1: "killed", 2: "killed"}.get(code, f"error {code}")
    return status, time.perf_counter() - start


def main() -> int:
    entries = json.loads(CATALOG.read_text())["mutants"]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        path = [str(tree / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import poslim; print(poslim.__file__)"],
                               cwd=tree, env=env, capture_output=True, text=True).stdout.strip()
        if not Path(where).is_relative_to(tree):
            sys.exit(f"poslim imports from {where or 'nowhere'}, not from the copied tree")
        tests = sorted({test for entry in entries for test in entry["tests"]})
        start = time.perf_counter()
        baseline = subprocess.run([*PYTEST, *tests], cwd=tree, env=env, capture_output=True, text=True)
        if baseline.returncode != 0:
            print(*baseline.stdout.splitlines()[-20:], sep="\n")
            sys.exit(f"the unmutated tree fails its named tests (pytest exit {baseline.returncode})")
        print(f"baseline: {len(tests)} test files pass unmutated in {time.perf_counter() - start:.1f} s\n",
              flush=True)
        print("| mutant | file | killed by | status | time |")
        print("| --- | --- | --- | --- | --- |")
        failed = 0
        for entry in entries:
            status, seconds = run_one(tree, entry, env)
            failed += status != "killed"
            row = [entry["id"], entry["file"], ", ".join(entry["tests"]), status, f"{seconds:.1f} s"]
            print("| " + " | ".join(row) + " |", flush=True)
    print(f"{len(entries) - failed} of {len(entries)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
