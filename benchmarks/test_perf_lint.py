"""Linter engine benchmark: whole-program pass cost and parse-once proof.

The analyzer's perf contract is structural, not a constant: building
the project model parses every file exactly once, and every rule runs
over that one model, so the number of ``ast.parse`` calls equals the
file count no matter how many rules run.  This benchmark proves that by
counting ``ast.parse`` invocations during a real repo-wide run, times
the two stages (model build, rules), and lands the numbers in
``results/BENCH_lint.json``.
"""

import ast
import os
import pathlib
import platform
import time

import numpy as np
from _report import emit_json
from repro.lint import build_model, load_config, run_whole_program
from repro.lint.engine import discover_files

ROOT = pathlib.Path(__file__).resolve().parent.parent
PATHS = [ROOT / "src", ROOT / "tests", ROOT / "benchmarks"]

#: Generous ceiling so only a pathological slowdown (e.g. re-parsing
#: per rule) fails on a noisy shared runner.
WALL_CEILING_S = 120.0


def test_whole_program_parses_each_file_once():
    config = load_config(ROOT)

    real_parse = ast.parse
    calls = {"n": 0}

    def counting_parse(*args, **kwargs):
        calls["n"] += 1
        return real_parse(*args, **kwargs)

    ast.parse = counting_parse
    try:
        t0 = time.perf_counter()
        model = build_model(discover_files(PATHS, config), config)
        t1 = time.perf_counter()
        result = run_whole_program(PATHS, model=model)
        t2 = time.perf_counter()
        parse_calls = calls["n"]
    finally:
        ast.parse = real_parse
    model_s, rules_s = t1 - t0, t2 - t1

    assert result.exit_code == 0, "repo must stay clean"
    assert result.files_checked > 100
    # The structural contract: one parse per file, however many rules.
    assert parse_calls == result.files_checked, (
        f"expected parse-once, got {parse_calls} parses "
        f"for {result.files_checked} files"
    )
    assert model_s + rules_s < WALL_CEILING_S

    emit_json(
        "BENCH_lint",
        {
            "files_checked": result.files_checked,
            "ast_parse_calls": parse_calls,
            "parse_per_file": round(parse_calls / result.files_checked, 3),
            "whole_program_wall_s": round(round(model_s, 3) + round(rules_s, 3), 3),
            "stages_s": {
                "model_build": round(model_s, 3),
                "rules": round(rules_s, 3),
            },
            "suppressed": result.suppressed,
            "violations": len(result.violations),
            "env": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        },
    )
