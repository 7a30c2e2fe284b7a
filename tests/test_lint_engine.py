"""Engine-level tests: JSON schema, config overrides, parse errors.

The JSON layout asserted here is the documented schema in
``docs/LINTING.md``; CI consumes the artifact, so changes must bump
``schema_version`` and update both places.
"""

import json
import pathlib

import pytest

from repro.lint import LintConfig, all_rules, load_config, run_whole_program
from repro.lint.config import ConfigError, path_matches
from repro.lint.reporters import SCHEMA_VERSION, render_json, render_text, to_json_dict
from repro.lint.suppress import Suppressions

TREE = pathlib.Path(__file__).parent / "fixtures" / "lint" / "tree"
#: One seeded finding per single-file rule, in path order
#: (``montecarlo/…``, then the loose files).
ALL_CODES = ["RPL003", "RPL001", "RPL005"]


def tree_result():
    return run_whole_program([TREE], load_config(TREE))


class TestSeededTree:
    def test_every_rule_fires_once(self):
        result = tree_result()
        assert [v.code for v in result.violations] == ALL_CODES
        assert result.exit_code == 1
        assert result.files_checked == 3


class TestJsonSchema:
    def test_document_shape(self):
        doc = json.loads(render_json(tree_result()))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["tool"] == "repro.lint"
        assert isinstance(doc["files_checked"], int)
        assert isinstance(doc["suppressed"], int)
        assert "baselined" not in doc
        assert doc["exit_code"] == 1
        summary = doc["summary"]
        assert set(summary) == {"total", "errors", "by_code"}
        assert summary["total"] == summary["errors"] == len(doc["violations"]) == 3
        assert summary["by_code"] == {code: 1 for code in sorted(ALL_CODES)}
        for v in doc["violations"]:
            assert set(v) == {"path", "line", "col", "code", "rule", "message"}
            assert isinstance(v["line"], int) and v["line"] >= 1
            assert isinstance(v["col"], int) and v["col"] >= 0
            assert v["code"].startswith("RPL")

    def test_round_trip_is_sorted(self):
        doc = to_json_dict(tree_result())
        keys = [(v["path"], v["line"], v["col"]) for v in doc["violations"]]
        assert keys == sorted(keys)

    def test_text_report_summary_line(self):
        text = render_text(tree_result())
        assert text.splitlines()[-1] == "3 files checked: 3 errors"


class TestConfigOverrides:
    def test_per_path_disable(self):
        cfg = load_config(TREE)
        cfg.per_path["*float_eq*"] = ["RPL005"]
        result = run_whole_program([TREE], cfg)
        assert "RPL005" not in [v.code for v in result.violations]
        assert len(result.violations) == 2

    def test_select_narrows(self):
        # Rules are chosen by passing instances, not by config.
        rules = [r for r in all_rules() if r.code == "RPL005"]
        result = run_whole_program([TREE], load_config(TREE), rules=rules)
        assert [v.code for v in result.violations] == ["RPL005"]

    def test_exclude_glob(self):
        cfg = load_config(TREE)
        cfg.exclude = ["*float_eq*"]
        result = run_whole_program([TREE], cfg)
        assert result.files_checked == 2
        assert "RPL005" not in [v.code for v in result.violations]

    def test_unknown_top_level_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\ntypo-key = true\n"
        )
        with pytest.raises(ConfigError):
            load_config(tmp_path)

    def test_bad_severity_rejected(self, tmp_path):
        # Every violation is an error: there is no severity to set.
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.severity]\nRPL005 = 'warning'\n"
        )
        with pytest.raises(ConfigError):
            load_config(tmp_path)

    @pytest.mark.parametrize(
        "block",
        [
            "[tool.repro-lint]\nselect = ['RPL001']\n",
            "[tool.repro-lint]\ndisable = ['RPL005']\n",
            "[tool.repro-lint.rules.RPL003]\npaths = ['*']\n",
            "[tool.repro-lint.per-path]\n'tests/*' = { select = ['RPL001'] }\n",
        ],
    )
    def test_rule_knobs_rejected(self, tmp_path, block):
        # Rules read no options and run unless a per-path entry disables them.
        (tmp_path / "pyproject.toml").write_text(block)
        with pytest.raises(ConfigError):
            load_config(tmp_path)

    def test_missing_pyproject_gives_defaults(self, tmp_path):
        cfg = load_config(tmp_path / "sub")
        assert cfg.per_path == {} and cfg.exclude == []


class TestPathMatching:
    def test_double_star_and_basename(self):
        assert path_matches("tests/fixtures/lint/tree/x.py", ["tests/fixtures/*"])
        assert path_matches("a/b/conftest.py", ["conftest.py"])
        assert not path_matches("src/repro/cli.py", ["tests/*"])


class TestSuppressions:
    def test_standalone_comment_covers_next_line(self):
        sup = Suppressions.from_source(
            "# repro-lint: disable=RPL003 -- reason\nx = 1\n"
        )
        assert sup.is_suppressed("RPL003", 1)
        assert sup.is_suppressed("RPL003", 2)
        assert not sup.is_suppressed("RPL003", 3)
        assert not sup.is_suppressed("RPL001", 2)

    def test_trailing_comment_is_line_scoped(self):
        sup = Suppressions.from_source(
            "x = 1  # repro-lint: disable=RPL005 -- reason\ny = 2\n"
        )
        assert sup.is_suppressed("RPL005", 1)
        assert not sup.is_suppressed("RPL005", 2)

    def test_disable_file_scope(self):
        sup = Suppressions.from_source(
            "x = 1\n# repro-lint: disable-file=RPL001,RPL011 -- reason\n"
        )
        assert sup.is_suppressed("RPL001", 999)
        assert sup.is_suppressed("RPL011", 1)
        assert not sup.is_suppressed("RPL003", 1)


class TestParseErrors:
    def test_syntax_error_reported_as_rpl000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        result = run_whole_program([bad], LintConfig(root=str(tmp_path)))
        assert result.exit_code == 1
        assert [v.code for v in result.violations] == ["RPL000"]
