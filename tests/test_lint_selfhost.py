"""Self-hosting and CLI contract tests.

The acceptance bar for the linter: the repository's own ``src``,
``tests`` and ``benchmarks`` trees lint clean under the committed
``[tool.repro-lint]`` config (every waiver inline, justified, and
actually suppressing something), while a seeded fixture tree still
fails — the rules are green because the code is clean, not because they
are toothless.

The repo is linted once per module (the ``repo`` fixture): a pathless
``python -m repro.lint`` through :func:`main`, with the project model it
builds captured on the way, so every repo-wide test reads that one run.
"""

import ast
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import tokenize

import pytest

from repro.lint import ProjectModel, all_rules, build_model, engine, load_config
from repro.lint.__main__ import main
from repro.lint.rules.rpl011_await_lock import _thread_locks
from repro.lint.suppress import _PATTERN

ROOT = pathlib.Path(__file__).resolve().parents[1]
TREE = ROOT / "tests" / "fixtures" / "lint" / "tree"

#: The seeded tree's one finding per single-file rule.
TREE_CODES = ["RPL001", "RPL003", "RPL005"]


@dataclasses.dataclass
class RepoRun:
    exit_code: int
    report: dict  # the JSON document the CLI printed
    model: ProjectModel


@pytest.fixture(scope="module")
def repo() -> RepoRun:
    built: list[ProjectModel] = []

    def recording_build_model(*args, **kwargs):
        built.append(build_model(*args, **kwargs))
        return built[-1]

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(engine, "build_model", recording_build_model)
        exit_code = main(["--format", "json", "--config", str(ROOT)])
    (model,) = built
    return RepoRun(exit_code, json.loads(out.getvalue()), model)


def waivers(model: ProjectModel) -> list[tuple[str, int, str, str]]:
    """Every ``# repro-lint:`` comment: (path, line, codes, reason)."""
    found = []
    for mod in model.modules.values():
        if "repro-lint:" not in mod.source:
            continue
        for tok in tokenize.generate_tokens(io.StringIO(mod.source).readline):
            match = _PATTERN.search(tok.string) if tok.type == tokenize.COMMENT else None
            if match is not None:
                found.append(
                    (mod.rel_posix, tok.start[0], match.group("codes"),
                     (match.group("reason") or "").strip())
                )
    return found


class TestSelfHost:
    def test_repo_lints_clean(self, repo):
        report = "\n".join(
            f"{v['path']}:{v['line']}: {v['code']} {v['message']}"
            for v in repo.report["violations"]
        )
        assert repo.report["exit_code"] == 0, f"repo must lint clean:\n{report}"

    def test_repo_run_actually_checked_files(self, repo):
        assert repo.report["files_checked"] == len(repo.model.modules) > 100
        # The one justified waiver: EventLog.emit's audit-trail timestamp.
        assert repo.report["suppressed"] == 1

    def test_fixture_violations_are_excluded_not_silenced(self):
        config = load_config(ROOT)
        rel = TREE.relative_to(ROOT).as_posix() + "/src/repro/rpl001_rng.py"
        assert config.is_excluded(rel)

    def test_every_waiver_has_a_reason(self, repo):
        # docs/LINTING.md policy: a waiver without a `-- reason` does not
        # survive review.  Fixtures are excluded from the model.
        found = waivers(repo.model)
        assert [(path, codes) for path, _, codes, _ in found] == [
            ("src/repro/campaign/events.py", "RPL003")
        ]
        assert [f"{path}:{line}" for path, line, _, reason in found if not reason] == []

    def test_every_waiver_suppresses_a_finding(self, repo):
        # A waiver whose finding is gone (or whose rule never flagged the
        # line) is stale: it must be deleted, not carried along.
        assert len(waivers(repo.model)) == repo.report["suppressed"]


class TestWholeProgramSelfHost:
    def test_repo_clean_under_whole_program_pass(self, repo):
        # The pathless run covers every config root in one model, so
        # the layering rule sees imports across all of them.
        assert repo.report["violations"] == []
        roots = {m.rel_posix.split("/", 1)[0] for m in repo.model.modules.values()}
        assert roots == {"src", "tests", "benchmarks"}

    def test_new_rules_need_zero_waivers(self, repo):
        # The asyncio and layering rules (RPL010, RPL011, RPL015)
        # self-host with NO inline waivers: no coroutine calls a
        # blocking function or a compute kernel directly (the batcher's
        # flush task runs a batch through ``execute_batch``, and the
        # loop-stall test bounds how long that takes), and every await
        # sits outside the thread locks, so nothing to excuse.  If a
        # future change needs one, this is the place it gets accounted
        # for.
        codes = {c.strip() for _, _, group, _ in waivers(repo.model) for c in group.split(",")}
        assert not {c for c in codes if c.startswith("RPL01")}

    def test_analysis_actually_sees_the_service(self, repo):
        # Guard against a silently-empty model making "clean" vacuous:
        # the async surface under analysis must be substantial.
        coroutines = [
            fn
            for m in repo.model.modules.values()
            if m.rel_posix.startswith("src/")
            for fn in m.nodes[ast.AsyncFunctionDef]
        ]
        assert len(coroutines) >= 20

        # RPL011's lock matcher sees the service's thread-locked
        # regions, so a clean RPL011 is not vacuous.
        locked = {
            m.rel_posix
            for m in repo.model.modules.values()
            if m.rel_posix.startswith("src/repro/service/")
            for node in m.nodes[ast.With]
            if _thread_locks(m.import_map, node)
        }
        assert len(locked) >= 3


class TestMainEntry:
    def test_main_on_seeded_tree(self, capsys, monkeypatch):
        monkeypatch.chdir(TREE)
        code = main([".", "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["by_code"] == dict.fromkeys(TREE_CODES, 1)

    def test_main_disable_flag(self, capsys):
        # Rules are not selected or tuned from the command line: the old
        # knobs are usage errors, and a per-path disable is the only
        # opt-out besides a justified waiver.
        for flag in ("--disable=RPL001", "--select=RPL001", "--no-config", "--quiet"):
            with pytest.raises(SystemExit) as exc:
                main([flag])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_list_rules_covers_catalog(self, capsys):
        # The catalog lives in docs/LINTING.md (there is no --list-rules):
        # every shipped rule is documented there, and no deleted one is.
        catalog = (ROOT / "docs" / "LINTING.md").read_text()
        for rule in all_rules():
            assert f"{rule.code} " in catalog and rule.name in catalog
        for gone in (
            "RPL002", "RPL004", "RPL006", "RPL007", "RPL008", "RPL012", "RPL013", "RPL014"
        ):
            assert f"| {gone} |" not in catalog and f"### {gone}" not in catalog
        with pytest.raises(SystemExit):
            main(["--list-rules"])
        capsys.readouterr()

    def test_main_all_on_repo_exits_zero(self, repo):
        # The acceptance bar: a pathless `python -m repro.lint` on the
        # repo, with the committed config, is clean.  The shared run is
        # that invocation.
        assert repo.exit_code == 0


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
