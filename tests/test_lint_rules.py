"""Per-rule fixture tests: positive, negative, and suppressed cases.

Each rule RPLnnn has three fixtures under ``tests/fixtures/lint/rules``:
``rplnnn_bad.py`` (must flag), ``rplnnn_good.py`` (near-misses, must not
flag), ``rplnnn_suppressed.py`` (same hazard with a justified inline
waiver — zero violations, nonzero suppressed count).

Every fixture runs through :func:`repro.lint.run_whole_program`:
per-file rules (RPL001-007) with the per-file pack only, whole-program
rules (RPL010-015) on self-contained single-file projects with that one
rule enabled.
"""

import pathlib

import pytest

from repro.lint import LintConfig, all_project_rules, run_whole_program

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint" / "rules"

#: code -> number of violations its bad fixture must produce.
EXPECTED_BAD = {
    "RPL001": 3,
    "RPL003": 2,
    "RPL004": 3,
    "RPL005": 2,
    "RPL006": 2,
    "RPL007": 2,
}

#: project fixture stem -> (rule code, violations its bad fixture must
#: produce).  RPL014 also runs on the fixtures of RPL002, the per-file
#: rule it absorbed: a key builder with no version constant in scope
#: still owes ENGINE_VERSION.
PROJECT_FIXTURES = {
    "rpl002": ("RPL014", 1),
    "rpl010": ("RPL010", 3),
    "rpl011": ("RPL011", 2),
    "rpl012": ("RPL012", 2),
    "rpl013": ("RPL013", 2),
    "rpl014": ("RPL014", 1),
    "rpl015": ("RPL015", 2),
}


def _project_case_id(stem: str) -> str:
    code = PROJECT_FIXTURES[stem][0]
    return code if code.lower() == stem else f"{code}-{stem}"


def fixture_config() -> LintConfig:
    """Widen the path-scoped rules so fixture files are always in scope."""
    return LintConfig(
        root=str(FIXTURES),
        rule_options={
            "RPL001": {"restricted": ["*"], "allow": []},
            "RPL003": {"paths": ["*"]},
            "RPL004": {"files": ["*"]},
        },
    )


def project_fixture_config() -> LintConfig:
    """Widen path scopes so single-file fixture projects are in scope."""
    return LintConfig(
        root=str(FIXTURES),
        rule_options={
            "RPL010": {"paths": ["*"]},
            "RPL011": {"paths": ["*"]},
            "RPL012": {"paths": ["*"]},
            "RPL013": {"paths": ["*"], "entry_paths": ["*"]},
            "RPL014": {"paths": ["*"]},
        },
        layers={
            "rpl015_bad": {"deny": ["forbidden"]},
            "rpl015_good": {"deny": ["forbidden"]},
            "rpl015_suppressed": {"deny": ["forbidden"]},
        },
    )


def lint_fixture(path: pathlib.Path, config: LintConfig | None = None):
    """(violations, suppressed) for the per-file rules on one fixture."""
    result = run_whole_program(
        [path], config or fixture_config(), project_rules=[]
    )
    return result.violations, result.suppressed


def lint_project_fixture(path: pathlib.Path, code: str):
    """(violations, suppressed) for one project rule on one fixture."""
    rules = [r for r in all_project_rules() if r.code == code]
    assert rules, f"unknown project rule {code}"
    result = run_whole_program(
        [path], project_fixture_config(), file_rules=[], project_rules=rules
    )
    return result.violations, result.suppressed


@pytest.mark.parametrize("stem", sorted(PROJECT_FIXTURES), ids=_project_case_id)
class TestProjectRuleFixtures:
    def test_bad_fixture_flags(self, stem):
        code, expected = PROJECT_FIXTURES[stem]
        violations, _ = lint_project_fixture(FIXTURES / f"{stem}_bad.py", code)
        assert [v.code for v in violations] == [code] * expected

    def test_good_fixture_clean(self, stem):
        code, _ = PROJECT_FIXTURES[stem]
        path = FIXTURES / f"{stem}_good.py"
        violations, suppressed = lint_project_fixture(path, code)
        assert violations == [] and suppressed == 0

    def test_suppressed_fixture(self, stem):
        code, _ = PROJECT_FIXTURES[stem]
        path = FIXTURES / f"{stem}_suppressed.py"
        violations, suppressed = lint_project_fixture(path, code)
        assert violations == []
        assert suppressed >= 1


class TestProjectRuleDetails:
    def test_rpl010_names_the_transitive_chain(self):
        violations, _ = lint_project_fixture(FIXTURES / "rpl010_bad.py", "RPL010")
        chained = [v for v in violations if "via" in v.message]
        assert chained, "transitive finding must name its call chain"
        assert "_helper -> _run_kernel" in chained[0].message

    def test_rpl013_message_points_at_fanout(self):
        violations, _ = lint_project_fixture(FIXTURES / "rpl013_bad.py", "RPL013")
        assert all("repro.montecarlo.rng" in v.message for v in violations)

    def test_rpl014_names_missing_constant(self):
        violations, _ = lint_project_fixture(FIXTURES / "rpl014_bad.py", "RPL014")
        assert "DATAPATH_VERSION" in violations[0].message

    def test_rpl015_clean_without_layer_table(self):
        config = project_fixture_config()
        config.layers = {}
        rules = [r for r in all_project_rules() if r.code == "RPL015"]
        result = run_whole_program(
            [FIXTURES / "rpl015_bad.py"], config,
            file_rules=[], project_rules=rules,
        )
        assert result.violations == []


@pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
class TestPerRuleFixtures:
    def test_bad_fixture_flags(self, code):
        violations, _ = lint_fixture(FIXTURES / f"{code.lower()}_bad.py")
        assert [v.code for v in violations] == [code] * EXPECTED_BAD[code]

    def test_good_fixture_clean(self, code):
        path = FIXTURES / f"{code.lower()}_good.py"
        violations, suppressed = lint_fixture(path)
        assert violations == [] and suppressed == 0

    def test_suppressed_fixture(self, code):
        path = FIXTURES / f"{code.lower()}_suppressed.py"
        violations, suppressed = lint_fixture(path)
        assert violations == []
        assert suppressed >= 1


class TestRuleDetails:
    def test_rpl001_aliased_import_still_caught(self, tmp_path):
        f = tmp_path / "aliased.py"
        f.write_text(
            "import numpy.random as npr\n"
            "from numpy.random import default_rng\n"
            "npr.shuffle([1])\n"
            "g = default_rng()\n"
        )
        cfg = fixture_config()
        cfg.root = str(tmp_path)
        violations, _ = lint_fixture(f, cfg)
        assert [v.code for v in violations] == ["RPL001", "RPL001"]

    def test_rpl001_allowlisted_module_exempt(self, tmp_path):
        f = tmp_path / "rng.py"
        f.write_text("import numpy as np\ng = np.random.default_rng(0)\n")
        cfg = LintConfig(
            root=str(tmp_path),
            rule_options={"RPL001": {"restricted": ["*"], "allow": ["rng.py"]}},
        )
        violations, _ = lint_fixture(f, cfg)
        assert violations == []

    def test_rpl004_violation_names_the_attribute(self):
        violations, _ = lint_fixture(FIXTURES / "rpl004_bad.py")
        messages = " ".join(v.message for v in violations)
        assert "self.results" in messages and "self.states" in messages

    def test_rpl005_zero_literal_configurable(self, tmp_path):
        f = tmp_path / "zero.py"
        f.write_text("def f(x: float) -> bool:\n    return x == 0.0\n")
        lax = LintConfig(root=str(tmp_path))
        strict = LintConfig(
            root=str(tmp_path),
            rule_options={"RPL005": {"allow_zero_literal": False}},
        )
        assert lint_fixture(f, lax)[0] == []
        assert [v.code for v in lint_fixture(f, strict)[0]] == ["RPL005"]
