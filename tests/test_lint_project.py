"""Whole-program pass integration: a minimal project, JSON report, CLI.

Also pins the repo's ``[tool.repro-lint.layers]`` table exactly:
deleting any layer edge from ``pyproject.toml`` silently legalizes a
cross-layer dependency, so the table's full contents are asserted here.
"""

import pathlib
import textwrap

from repro.lint import load_config, run_whole_program
from repro.lint.__main__ import main
from repro.lint.reporters import SCHEMA_VERSION, to_json_dict

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The exact layering contract committed in pyproject.toml.  Every entry
#: is load-bearing: removing one must fail this test, not pass silently.
EXPECTED_LAYERS = {
    "repro.montecarlo": {
        "deny": ["repro.service", "repro.campaign", "repro.sim", "repro.lint"]
    },
    "repro.fleet": {
        "deny": ["repro.service", "repro.campaign", "repro.sim", "repro.lint"]
    },
    "repro.fleet.soa": {
        "deny": ["repro.service", "repro.campaign", "repro.sim", "repro.lint"]
    },
    "repro.coding": {
        "deny": ["repro.service", "repro.campaign", "repro.sim"]
    },
    "repro.cells": {
        "deny": ["repro.service", "repro.campaign", "repro.sim"]
    },
    "repro.chaos": {"deny": ["repro.service", "repro.campaign"]},
    "repro.service": {"deny": ["repro.campaign.events", "repro.lint"]},
    "repro.lint": {
        "deny": [
            "repro.service",
            "repro.campaign",
            "repro.montecarlo",
            "repro.coding",
            "repro.cells",
            "repro.core",
            "repro.sim",
        ]
    },
}


class TestRepoLayerContract:
    def test_layers_table_pinned_exactly(self):
        config = load_config(REPO_ROOT)
        assert config.layers == EXPECTED_LAYERS

    def test_repo_defaults_for_whole_program(self):
        config = load_config(REPO_ROOT)
        assert config.paths == ["src", "tests", "benchmarks"]


def make_project(tmp_path: pathlib.Path) -> pathlib.Path:
    """A minimal project whose only finding is one RPL003 wall-clock read."""
    (tmp_path / "pyproject.toml").write_text(
        textwrap.dedent(
            """\
            [tool.repro-lint]
            paths = ["src"]
            """
        )
    )
    service = tmp_path / "src" / "service"
    service.mkdir(parents=True, exist_ok=True)
    (service / "app.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    return tmp_path


class TestWholeProgramRun:
    def test_finding_surfaces_and_fails(self, tmp_path):
        make_project(tmp_path)
        config = load_config(tmp_path)
        result = run_whole_program([tmp_path / "src"], config)
        assert [v.code for v in result.violations] == ["RPL003"]
        assert result.exit_code == 1

    def test_json_document_schema_v4(self, tmp_path):
        make_project(tmp_path)
        config = load_config(tmp_path)
        doc = to_json_dict(run_whole_program([tmp_path / "src"], config))
        assert doc["schema_version"] == SCHEMA_VERSION == 4
        assert "baselined" not in doc
        assert "warnings" not in doc["summary"]
        assert all("severity" not in v for v in doc["violations"])
        assert doc["summary"]["by_code"] == {"RPL003": 1}
        assert doc["exit_code"] == 1


class TestCli:
    def test_pathless_run_lints_config_paths(self, tmp_path):
        make_project(tmp_path)
        assert main(["--config", str(tmp_path)]) == 1
        with open(tmp_path / "pyproject.toml", "a") as f:
            f.write('[tool.repro-lint.per-path]\n"src/*" = { disable = ["RPL003"] }\n')
        assert main(["--config", str(tmp_path)]) == 0
