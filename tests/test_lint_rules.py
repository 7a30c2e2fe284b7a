"""Per-rule fixture tests: positive, negative, and suppressed cases.

Each rule RPLnnn has three fixtures under ``tests/fixtures/lint/rules``:
``rplnnn_bad.py`` (must flag), ``rplnnn_good.py`` (near-misses, must not
flag), ``rplnnn_suppressed.py`` (same hazard with a justified inline
waiver — zero violations, nonzero suppressed count).

Every fixture runs through :func:`repro.lint.run_whole_program` with the
one rule under test, whose path scope is widened on that instance so
the loose fixture file is in scope.  The two classes split the rules
whose fixtures count violations per rule code (RPL001-005) from those
keyed by fixture stem (RPL010-015), where one rule may run on another
rule's fixtures; both use the same protocol.
"""

import pathlib

import pytest

from repro.lint import LintConfig, all_rules, run_whole_program

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint" / "rules"

#: code -> number of violations its bad fixture must produce.
EXPECTED_BAD = {
    "RPL001": 3,
    "RPL003": 2,
    "RPL005": 2,
}

#: fixture stem -> (rule code, violations its bad fixture must produce).
#: RPL001 also runs on the fixtures of RPL013, the provenance rule it
#: absorbed: an ad-hoc generator built in engine code is flagged where
#: it is constructed.
PROJECT_FIXTURES = {
    "rpl010": ("RPL010", 2),
    "rpl011": ("RPL011", 3),
    "rpl013": ("RPL001", 2),
    "rpl015": ("RPL015", 2),
}

#: Layer contracts for the RPL015 fixtures (single-file projects).
FIXTURE_LAYERS = {
    f"rpl015_{kind}": {"deny": ["forbidden"]}
    for kind in ("bad", "good", "suppressed")
}


def _project_case_id(stem: str) -> str:
    code = PROJECT_FIXTURES[stem][0]
    return code if code.lower() == stem else f"{code}-{stem}"


def widened(code: str):
    """A fresh instance of rule ``code`` whose scope covers every file."""
    (rule,) = [r for r in all_rules() if r.code == code]
    rule.scope = ("*",)
    return rule


def lint_fixture(path: pathlib.Path, code: str, root: pathlib.Path = FIXTURES):
    """(violations, suppressed) for one widened rule on one file."""
    config = LintConfig(root=str(root), layers=FIXTURE_LAYERS)
    result = run_whole_program([path], config, rules=[widened(code)])
    return result.violations, result.suppressed


@pytest.mark.parametrize("stem", sorted(PROJECT_FIXTURES), ids=_project_case_id)
class TestProjectRuleFixtures:
    def test_bad_fixture_flags(self, stem):
        code, expected = PROJECT_FIXTURES[stem]
        violations, _ = lint_fixture(FIXTURES / f"{stem}_bad.py", code)
        assert [v.code for v in violations] == [code] * expected

    def test_good_fixture_clean(self, stem):
        code, _ = PROJECT_FIXTURES[stem]
        path = FIXTURES / f"{stem}_good.py"
        violations, suppressed = lint_fixture(path, code)
        assert violations == [] and suppressed == 0

    def test_suppressed_fixture(self, stem):
        code, _ = PROJECT_FIXTURES[stem]
        path = FIXTURES / f"{stem}_suppressed.py"
        violations, suppressed = lint_fixture(path, code)
        assert violations == []
        assert suppressed >= 1


class TestProjectRuleDetails:
    def test_rpl013_message_points_at_fanout(self):
        # The provenance cases RPL013 used to trace now fire as RPL001 at
        # the construction site, pointing at the sanctioned fan-out.
        violations, _ = lint_fixture(FIXTURES / "rpl013_bad.py", "RPL001")
        assert violations
        assert all("repro.montecarlo.rng" in v.message for v in violations)

    def test_rpl015_clean_without_layer_table(self):
        config = LintConfig(root=str(FIXTURES))
        result = run_whole_program(
            [FIXTURES / "rpl015_bad.py"], config, rules=[widened("RPL015")]
        )
        assert result.violations == []


@pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
class TestPerRuleFixtures:
    def test_bad_fixture_flags(self, code):
        violations, _ = lint_fixture(FIXTURES / f"{code.lower()}_bad.py", code)
        assert [v.code for v in violations] == [code] * EXPECTED_BAD[code]

    def test_good_fixture_clean(self, code):
        path = FIXTURES / f"{code.lower()}_good.py"
        violations, suppressed = lint_fixture(path, code)
        assert violations == [] and suppressed == 0

    def test_suppressed_fixture(self, code):
        path = FIXTURES / f"{code.lower()}_suppressed.py"
        violations, suppressed = lint_fixture(path, code)
        assert violations == []
        assert suppressed >= 1


def write_module(root: pathlib.Path, rel: str, source: str) -> pathlib.Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def lint_as_shipped(path: pathlib.Path, code: str, root: pathlib.Path):
    """Violations of rule ``code`` at its shipped (unwidened) scope."""
    rules = [r for r in all_rules() if r.code == code]
    return run_whole_program([path], LintConfig(root=str(root)), rules=rules).violations


class TestRuleDetails:
    def test_rpl001_aliased_import_still_caught(self, tmp_path):
        f = write_module(
            tmp_path,
            "aliased.py",
            "import numpy.random as npr\n"
            "from numpy.random import default_rng\n"
            "npr.shuffle([1])\n"
            "g = default_rng()\n",
        )
        violations, _ = lint_fixture(f, "RPL001", root=tmp_path)
        assert [v.code for v in violations] == ["RPL001", "RPL001"]

    def test_rpl001_allowlisted_module_exempt(self, tmp_path):
        source = "import numpy as np\ng = np.random.default_rng(0)\n"
        fanout = write_module(tmp_path, "src/repro/montecarlo/rng.py", source)
        engine = write_module(tmp_path, "src/repro/montecarlo/cer.py", source)
        assert lint_as_shipped(fanout, "RPL001", tmp_path) == []
        assert [v.code for v in lint_as_shipped(engine, "RPL001", tmp_path)] == [
            "RPL001"
        ]

    def test_rpl001_random_random_in_src(self, tmp_path):
        source = "import random\n\nr = random.Random(3)\n"
        engine = write_module(tmp_path, "src/repro/fleet/draw.py", source)
        test = write_module(tmp_path, "tests/test_draw.py", source)
        (v,) = lint_as_shipped(engine, "RPL001", tmp_path)
        assert v.code == "RPL001" and "random.Random" in v.message
        assert lint_as_shipped(test, "RPL001", tmp_path) == []

    def test_rpl010_direct_kernel_calls_only(self, tmp_path):
        # A coroutine's own call into a kernel is flagged; the rng
        # fan-out, a nested def (it runs later, off this body) and a
        # callable handed to the executor seam are not.  Stalls reached
        # through helpers are tests/service/test_loop_stall.py's job.
        f = write_module(
            tmp_path,
            "direct.py",
            "import asyncio\n"
            "from repro.montecarlo import cer, rng\n\n"
            "async def handle(state, n):\n"
            "    rng.block_rng(0, (1,))\n"
            "    def later():\n"
            "        return cer.state_cer(state, n)\n"
            "    await asyncio.to_thread(cer.state_cer, state, n)\n"
            "    return cer.state_cer(state, n)\n",
        )
        violations, _ = lint_fixture(f, "RPL010", root=tmp_path)
        assert [(v.line, v.col) for v in violations] == [(9, 11)]
        assert "compute kernel repro.montecarlo.cer.state_cer()" in violations[0].message

    def test_rpl005_zero_literal_exempt(self, tmp_path):
        f = write_module(
            tmp_path,
            "zero.py",
            "def f(x: float) -> bool:\n    return x == 0.0 or x == 0.5\n",
        )
        violations, _ = lint_fixture(f, "RPL005", root=tmp_path)
        assert [(v.code, v.col) for v in violations] == [("RPL005", 23)]
