"""``docs/API.md`` is exactly what ``docs/generate_api.py`` renders.

The reference is generated from live docstrings, so a renamed, added or
deleted public name (or a whole deleted module) must come with a
regenerated file: ``python docs/generate_api.py``.
"""

import importlib.util
import pathlib

DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs"


def test_committed_api_reference_is_current():
    spec = importlib.util.spec_from_file_location(
        "generate_api", DOCS / "generate_api.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.render() == (DOCS / "API.md").read_text(), (
        "docs/API.md is stale; regenerate it with `python docs/generate_api.py`"
    )
