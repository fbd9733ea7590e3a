"""The `scripts/` studies run end to end at tiny sizes and write their CSVs."""

import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, tmp_path: Path, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=300,
    )


def csv_lines(path: Path) -> list[str]:
    return path.read_text().splitlines()


def test_semiorder_convergence(tmp_path):
    out = tmp_path / "convergence.csv"
    run_script("semiorder_convergence.py", tmp_path,
               "--sizes", "20", "40", "--trials", "2", "--seed", "1", "--out", str(out))
    lines = csv_lines(out)
    assert lines[0] == "kernel,n,trial,ks_minus,ks_plus"
    assert len(lines) == 1 + 3 * 2 * 2  # kernels x sizes x trials


def test_random_graph_order_limit(tmp_path):
    out = tmp_path / "rgo.csv"
    run_script("random_graph_order_limit.py", tmp_path,
               "--n", "50", "--cs", "0.1", "0.3", "--trials", "2", "--seed", "1",
               "--out", str(out))
    lines = csv_lines(out)
    assert lines[0] == "c,p_edge,n,trial,ks_minus"
    assert len(lines) == 1 + 2 * 2  # cs x trials


def test_measure_equivalence(tmp_path):
    # default output names, written into the working directory
    run_script("measure_equivalence.py", tmp_path,
               "--n", "20", "--trials", "30", "--seed", "1")
    for report in ("equal.csv", "diff.csv"):
        lines = csv_lines(tmp_path / report)
        assert lines[0] == "poset_id,label,mean_a,se_a,mean_b,se_b,flagged"
        assert len(lines) == 1 + 24  # catalog classes of size <= 4: 1 + 2 + 5 + 16
