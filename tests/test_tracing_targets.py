"""Every call the benchmark tracer wraps, and every `poslim.<module>.<name>`
the benchmark's code reads, still exists in poslim, so that deleting or
renaming one fails here and not only in a benchmark run."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for mod_name, path, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"poslim.{mod_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # `install` wraps a class attribute where the class defines it
        found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        assert found, f"{mod_name}.{path} is traced but not defined"


def poslim_chains(source: str) -> set[tuple[str, str]]:
    """(module, name) of each `poslim.<module>.<name>` attribute chain in `source`."""
    return {
        (node.value.attr, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "poslim"
    }


def test_every_benchmark_chain_resolves():
    chains = {
        (path.name, *chain)
        for path in sorted(PERFBENCH.glob("*.py"))
        for chain in poslim_chains(path.read_text())
    }
    assert ("workloads.py", "densities", "automorphism_count") in chains
    for file, mod_name, attr in chains:
        module = importlib.import_module(f"poslim.{mod_name}")
        assert hasattr(module, attr), f"{file} reads poslim.{mod_name}.{attr}, which is not defined"
