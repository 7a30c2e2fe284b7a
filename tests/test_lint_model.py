"""Pass-1 project model tests on a synthetic package tree.

The tree exercises the resolution corners the rules rely on: relative
imports (``from . import x`` and ``from .mod import name``), import
aliasing, a two-module import cycle, and a loose top-level file outside
any package.
"""

import ast
import pathlib
import textwrap

from repro.lint import LintConfig, build_model
from repro.lint.engine import discover_files
from repro.lint.model import (
    ImportMap,
    build_module_info,
    module_name_for,
    resolve_relative,
)


def make_tree(tmp_path: pathlib.Path) -> list[pathlib.Path]:
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from pkg.alpha import run\n")
    (pkg / "alpha.py").write_text(
        textwrap.dedent(
            """\
            from . import beta
            from .beta import helper as h


            def run(spec, rng):
                return h(spec) + beta.helper(spec)
            """
        )
    )
    (pkg / "beta.py").write_text(
        textwrap.dedent(
            """\
            import pkg.alpha


            def helper(spec):
                return spec
            """
        )
    )
    (tmp_path / "loose.py").write_text("def standalone():\n    return 1\n")
    return sorted(tmp_path.rglob("*.py"))


def model_for(tmp_path):
    files = make_tree(tmp_path)
    return build_model(files, LintConfig(root=str(tmp_path)))


def edges_of(tmp_path) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
    """Module name -> its resolved import edges, as (target, names)."""
    return {
        m.module: [(e.target, e.names) for e in m.import_map.edges]
        for m in model_for(tmp_path).modules.values()
    }


def name(source: str) -> ast.expr:
    return ast.parse(source).body[0].value


class TestModuleNaming:
    def test_package_module(self, tmp_path):
        make_tree(tmp_path)
        assert module_name_for(tmp_path / "pkg" / "alpha.py") == "pkg.alpha"

    def test_package_init(self, tmp_path):
        make_tree(tmp_path)
        assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"

    def test_loose_file_is_its_stem(self, tmp_path):
        make_tree(tmp_path)
        assert module_name_for(tmp_path / "loose.py") == "loose"


class TestRelativeResolution:
    def test_absolute_passthrough(self):
        assert resolve_relative("a.b", 0, "numpy") == "numpy"

    def test_single_level(self):
        assert resolve_relative("pkg.alpha", 1, "beta") == "pkg.beta"
        assert resolve_relative("pkg.alpha", 1, None) == "pkg"

    def test_two_levels(self):
        assert resolve_relative("pkg.sub.mod", 2, "other") == "pkg.other"

    def test_too_deep_is_none(self):
        assert resolve_relative("pkg", 3, "x") is None
        assert resolve_relative(None, 1, "x") is None


class TestAliasing:
    def test_from_import_as_resolves(self, tmp_path):
        model = model_for(tmp_path)
        alpha = model.modules["pkg/alpha.py"]
        (run,) = [f for f in alpha.nodes[ast.FunctionDef] if f.name == "run"]
        targets = {
            alpha.import_map.canonical(node.func)
            for node in ast.walk(run)
            if isinstance(node, ast.Call)
        }
        # Both h(...) (aliased) and beta.helper(...) (via `from . import`)
        # canonicalize to the same absolute target.
        assert targets == {"pkg.beta.helper"}

    def test_import_map_relative(self, tmp_path):
        make_tree(tmp_path)
        info = build_module_info(
            tmp_path / "pkg" / "alpha.py", LintConfig(root=str(tmp_path))
        )
        assert isinstance(info.import_map, ImportMap)
        assert info.import_map.canonical(name("h")) == "pkg.beta.helper"
        assert info.import_map.canonical(name("beta.helper")) == "pkg.beta.helper"
        # The same walk records the edges: one per import statement.
        assert [(e.target, e.names) for e in info.import_map.edges] == [
            ("pkg", ("beta",)),
            ("pkg.beta", ("helper",)),
        ]


class TestGraph:
    def test_import_graph_edges(self, tmp_path):
        # ``from . import beta`` is an edge to the parent package naming
        # ``beta`` — real Python semantics: pkg/__init__ executes before
        # beta binds.
        assert edges_of(tmp_path) == {
            "pkg": [("pkg.alpha", ("run",))],
            "pkg.alpha": [("pkg", ("beta",)), ("pkg.beta", ("helper",))],
            "pkg.beta": [("pkg.alpha", ())],
            "loose": [],
        }

    def test_cycle_detection(self, tmp_path):
        # alpha <-> beta import each other: both edges are kept.
        edges = edges_of(tmp_path)
        assert ("pkg.beta", ("helper",)) in edges["pkg.alpha"]
        assert ("pkg.alpha", ()) in edges["pkg.beta"]

    def test_unknown_name_is_none(self, tmp_path):
        imports = model_for(tmp_path).modules["pkg/beta.py"].import_map
        # A name no import binds stays as written: never guessed.
        assert imports.canonical(name("missing")) == "missing"
        assert imports.canonical(name("os.path.join(a, b)").func) == "os.path.join"
        assert imports.canonical(name("pkg.alpha.run")) == "pkg.alpha.run"
        assert imports.canonical(name("f()(x)").func) is None


class TestRobustness:
    def test_parse_error_recorded_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        info = build_module_info(bad, LintConfig(root=str(tmp_path)))
        assert info.tree is None and info.parse_error is not None

    def test_pycache_never_discovered(self, tmp_path):
        make_tree(tmp_path)
        cache = tmp_path / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("x = 1\n")
        files = discover_files([tmp_path], LintConfig(root=str(tmp_path)))
        assert all("__pycache__" not in f.parts for f in files)
