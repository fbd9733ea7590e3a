"""The mutation catalog stays current: `mutants/run.py` can apply every
entry of `mutants/catalog.json`, known equivalent ones included, because
each `old` text occurs exactly once in its file and each named test file
exists.  Running the mutants themselves is `mutants/run.py`'s job."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CATALOG = json.loads((ROOT / "mutants" / "catalog.json").read_text())
ENTRIES = CATALOG["mutants"] + CATALOG["equivalent"]


def test_catalog_ids_are_distinct():
    ids = [e["id"] for e in ENTRIES]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["id"] for e in ENTRIES])
def test_catalog_entry_is_current(entry):
    assert (ROOT / entry["file"]).read_text().count(entry["old"]) == 1
    assert entry["new"] != entry["old"]
    if entry in CATALOG["equivalent"]:
        assert entry["reason"]  # not run: it says why no test can kill it
    else:
        assert entry["tests"] and all((ROOT / t).is_file() for t in entry["tests"])
