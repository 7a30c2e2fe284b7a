"""Self-hosting and CLI contract tests.

The acceptance bar for the linter: the repository's own ``src``,
``tests`` and ``benchmarks`` trees lint clean under the committed
``[tool.repro-lint]`` config (every waiver inline and justified), while
a seeded fixture tree still fails — the rules are green because the
code is clean, not because they are toothless.

The repo is parsed and linted once per module (the ``repo`` fixture);
every repo-wide test reads that one run.
"""

import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

from repro.lint import (
    LintResult,
    ProjectModel,
    all_project_rules,
    all_rules,
    build_model,
    load_config,
    run_whole_program,
)
from repro.lint.__main__ import main
from repro.lint.engine import discover_files
from repro.lint.suppress import _PATTERN

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREE = ROOT / "tests" / "fixtures" / "lint" / "tree"
REPO_PATHS = [ROOT / "src", ROOT / "tests", ROOT / "benchmarks"]

#: The seeded tree's one finding per rule (RPL014 via rpl002_cache_key.py).
TREE_CODES = ["RPL001", "RPL003", "RPL004", "RPL005", "RPL006", "RPL007", "RPL014"]


@dataclasses.dataclass
class RepoRun:
    model: ProjectModel
    result: LintResult


@pytest.fixture(scope="module")
def repo() -> RepoRun:
    config = load_config(ROOT)
    model = build_model(discover_files(REPO_PATHS, config), config)
    return RepoRun(model, run_whole_program(REPO_PATHS, config, model=model))


class TestSelfHost:
    def test_repo_lints_clean(self, repo):
        report = "\n".join(
            f"{v.path}:{v.line}: {v.code} {v.message}" for v in repo.result.violations
        )
        assert repo.result.exit_code == 0, f"repo must lint clean:\n{report}"

    def test_repo_run_actually_checked_files(self, repo):
        assert repo.result.files_checked > 100
        # The justified telemetry waivers in campaign/events.py.
        assert repo.result.suppressed >= 3

    def test_fixture_violations_are_excluded_not_silenced(self):
        config = load_config(ROOT)
        rel = TREE.relative_to(ROOT).as_posix() + "/rpl001_rng.py"
        assert config.is_excluded(rel)

    def test_every_waiver_has_a_reason(self, repo):
        # docs/LINTING.md policy: a waiver without a `-- reason` does not
        # survive review.  Fixtures are excluded from the model.
        waivers, unjustified = 0, []
        for mod in repo.model.modules.values():
            if "repro-lint:" not in mod.source:
                continue
            tokens = tokenize.generate_tokens(io.StringIO(mod.source).readline)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                match = _PATTERN.search(tok.string)
                if match is None:
                    continue
                waivers += 1
                if not (match.group("reason") or "").strip():
                    unjustified.append(f"{mod.rel_posix}:{tok.start[0]}")
        assert waivers >= 3
        assert unjustified == []


@pytest.fixture(scope="module")
def project_only(repo) -> LintResult:
    """The repo under the whole-program (project) rules alone."""
    config = load_config(ROOT)
    return run_whole_program(REPO_PATHS, config, file_rules=[], model=repo.model)


class TestWholeProgramSelfHost:
    def test_repo_clean_under_whole_program_pass(self, project_only):
        report = "\n".join(
            f"{v.path}:{v.line}: {v.code} {v.message}"
            for v in project_only.violations
        )
        assert project_only.exit_code == 0, (
            f"whole-program pass must be clean:\n{report}"
        )

    def test_new_rules_need_zero_waivers(self, project_only):
        # The asyncio/determinism/layering packs self-host with NO
        # inline waivers: the service routes every kernel call through
        # the executor seam and retains its flush task, so nothing to
        # excuse.  If a future change needs one, this count is the
        # place it gets accounted for.
        assert project_only.suppressed == 0

    def test_analysis_actually_sees_the_service(self, repo):
        # Guard against a silently-empty model making "clean" vacuous:
        # the async surface under analysis must be substantial.
        src = [
            f
            for m in repo.model.modules.values()
            if m.rel_posix.startswith("src/")
            for f in m.functions.values()
        ]
        assert len([f for f in src if f.is_coroutine]) >= 20
        spawns = [s for f in src for s in f.task_spawns]
        # The batcher's flush task is spawned — and retained.
        assert spawns and all(s.retained for s in spawns)


class TestMainEntry:
    def test_main_on_seeded_tree(self, capsys, monkeypatch):
        monkeypatch.chdir(TREE)
        code = main([".", "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["by_code"] == dict.fromkeys(TREE_CODES, 1)

    def test_main_quiet_suppresses_body(self, capsys, monkeypatch):
        monkeypatch.chdir(TREE)
        code = main([".", "--quiet"])
        assert code == 1
        assert capsys.readouterr().out == ""

    def test_main_disable_flag(self, capsys, monkeypatch):
        monkeypatch.chdir(TREE)
        assert main([".", "--disable", ",".join(TREE_CODES)]) == 0

    def test_list_rules_covers_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in [*all_rules(), *all_project_rules()]:
            assert rule.code in out
        assert "RPL002" not in out and "RPL008" not in out

    def test_main_all_on_repo_exits_zero(self):
        # The acceptance bar: a pathless `python -m repro.lint` on the
        # repo, with the committed config, is clean.
        assert main(["--quiet", "--config", str(ROOT)]) == 0


class TestModuleInvocation:
    def test_python_dash_m_exit_codes(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", ".", "--format", "json"],
            cwd=TREE,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["exit_code"] == 1
