"""Self-test of the benchmark at a tiny input size.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

For every workload it checks that a run prints every metric named in
``BENCHMARK.json`` with its unit and no failed op, in both modes; that
the traced run calls every layer target the workload is known to
exercise (targets a later change deleted show as ``absent`` and are
skipped), that no traced callable shows up as its own caller (a call
counted twice through two wrapped sites), that span self times add up to
the traced wall time within 5%, and, for ``service_rw``, that the
server's add up to its engine thread's job time within 5%.  It then
plants one wrong answer per output check and shows each is counted as a
failed op, and checks that the benchmark exits nonzero without a result
line in a directory that holds only the benchmark.
Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _BENCH_DIR)

from layers import EXPECTED_CALLS  # noqa: E402

#: One planted wrong answer per output check, by workload.
PLANTS = {
    "fleet_fresh": ("fleet_deaths", "fleet_uncorrectable", "fleet_silent",
                    "fleet_no_writes", "cache_used", "op_raises"),
    "fleet_wearout": ("wearout_no_deaths", "wearout_no_marks"),
    "service_rw": ("read_bitflip", "bad_status", "digest_mismatch"),
    "mc_paper": ("mapping_worse", "analytic_nan", "cer_shift", "bler_shift"),
}
#: Plants of checks that only the traced run makes.
TRACE_PLANTS = {"fleet_fresh": ("trace_digest",)}


def _run(args: list[str], cwd: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(_BENCH_DIR, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _bench(root: str, workload: str, trace: int, plant: str | None = None):
    args = ["--workload", workload, "--seed", "7", "--seconds", "2",
            "--trace", str(trace), "--tiny"]
    if plant:
        args += ["--plant", plant]
    code, lines = _run(args, root)
    if code != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} plant={plant}: exit {code}")
    return json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]


def _check_metrics(result: dict, spec: list[dict], what: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: result keys {sorted(result)}")
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            errors.append(f"{what}: metric {m['name']} [{m['unit']}] printed as {got}")
    extra = set(result["metrics"]) - {m["name"] for m in spec}
    if extra:
        errors.append(f"{what}: unlisted metrics {sorted(extra)}")
    return errors


def _check_trace(workload: str, result: dict, diag: dict) -> list[str]:
    errors = []
    trace = diag["trace"]
    status = dict(trace["status"])
    status.update((trace.get("server") or {}).get("status", {}))
    metrics = result["metrics"]
    for name in EXPECTED_CALLS[workload]:
        if status.get(name) == "absent":
            continue
        calls = metrics.get(f"{name}.calls", {}).get("value", 0)
        waits = metrics.get(f"{name}.items", {}).get("value", 0)
        if calls <= 0 and waits <= 0:
            errors.append(f"{workload}: {name} was never called")
    edges = list(trace["edges"]) + list((trace.get("server") or {}).get("edges", {}))
    for edge in edges:
        parent, _, child = edge.partition(">")
        if parent == child:
            errors.append(f"{workload}: {child} nests in itself")
    coverage = metrics["trace.self_coverage"]["value"]
    if abs(coverage - 1.0) > 0.05:
        errors.append(f"{workload}: span self times cover {coverage:.3f} of wall")
    if workload == "service_rw" and status.get("service.engine_clock") != "absent":
        coverage = metrics["trace.server_self_coverage"]["value"]
        if abs(coverage - 1.0) > 0.05:
            errors.append(f"{workload}: server span self times cover {coverage:.3f} "
                          "of the engine thread's job time")
    return errors


def _check_bare_directory() -> list[str]:
    root = os.path.dirname(_BENCH_DIR)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(_BENCH_DIR, os.path.join(bare, os.path.basename(_BENCH_DIR)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(["--workload", "fleet_fresh", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], bare)
    with contextlib.suppress(OSError):
        os.rmdir(scratch)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exit {code}, output {lines[-1:]}"]
    return []


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors: list[str] = []
    for workload in EXPECTED_CALLS:
        for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, diag = _bench(root, workload, trace)
            what = f"{workload} trace={trace}"
            errors += _check_metrics(result, spec, what)
            if result["failed"] or not result["correct"]:
                errors.append(f"{what}: failed ops {diag['failures']}")
            if trace:
                errors += _check_trace(workload, result, diag)
            print(f"ok? {not errors}: {what}", flush=True)
        plants = [(p, 0) for p in PLANTS[workload]]
        plants += [(p, 1) for p in TRACE_PLANTS.get(workload, ())]
        for plant, trace in plants:
            result, _ = _bench(root, workload, trace, plant)
            if result["failed"] < 1 or result["correct"]:
                errors.append(f"{workload}: planted {plant} was not counted as failed")
            print(f"planted {plant}: failed={result['failed']}", flush=True)
    errors += _check_bare_directory()
    for e in errors:
        print("FAIL", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
