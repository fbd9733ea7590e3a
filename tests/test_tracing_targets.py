"""Every call the benchmark tracer wraps still exists in poslim, so that
deleting a traced name fails here and not only in a traced benchmark run."""

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
