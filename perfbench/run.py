"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``fleet_fresh``, ``fleet_wearout``, ``service_rw``,
``mc_paper`` (see ``perfbench/README.md``).  Each run spawns fresh
processes with ``REPRO_*`` variables cleared, BLAS pinned to one thread,
and ``TMPDIR`` and the results-cache directory pointed at a scratch
directory inside the checkout, which is removed at exit.

With ``--trace 0`` the last stdout line is one JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics.
A diagnostics line (environment, results digest, p99, set-up samples,
trace details) precedes it.  The exit code is nonzero, with no result
line, when the checkout has no ``src/repro`` or any process fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _BENCH_DIR)

from common import END_TO_END, SETUP_ELASTICITY, WORKLOADS, host_scale  # noqa: E402

#: Extra fresh-process set-ups per run; ``setup_s`` is the median of
#: these and the measured run's own set-up.
SETUP_PROBES = 4
#: Wall-clock cap on all of a run's worker processes together:
#: ``RUN_TIMEOUT_BASE_S`` for the set-ups plus ``RUN_TIMEOUT_PER_SECOND``
#: times ``--seconds`` (170 s at the configured 18 s).
RUN_TIMEOUT_BASE_S = 44.0
RUN_TIMEOUT_PER_SECOND = 7.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs: a tiny input size and one planted wrong answer.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--plant", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _clean_env(root: str, scratch: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=scratch,
        REPRO_MC_CACHE_DIR=os.path.join(scratch, "mc-cache"),
    )
    return env


class Worker:
    """One ``worker.py`` process; ``ready_s`` is spawn to ``READY``.

    The worker runs in its own session, so a timeout kills it together
    with any server it started.
    """

    def __init__(self, args: argparse.Namespace, env: dict, scratch: str, *,
                 setup_only: bool, tag: str) -> None:
        self.result_path = os.path.join(scratch, f"result-{tag}.json")
        cmd = [
            sys.executable, os.path.join(_BENCH_DIR, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", self.result_path, "--scratch", scratch,
        ]
        if setup_only:
            cmd.append("--setup-only")
        if args.tiny:
            cmd.append("--tiny")
        if args.plant:
            cmd += ["--plant", args.plant]
        self.ready_s: float | None = None
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()

    def _read_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.strip() == "READY" and self.ready_s is None:
                self.ready_s = time.perf_counter() - self.t0

    def finish(self, deadline: float) -> dict:
        try:
            code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            self._reader.join(timeout=10)
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        if code is None:
            raise RuntimeError("worker timed out")
        if code != 0 or self.ready_s is None:
            raise RuntimeError(f"worker exited with code {code}")
        with open(self.result_path) as f:
            return json.load(f)


def _setup_sample(workload: str, worker: Worker, result: dict) -> tuple[float, float]:
    """``(raw, host-normalized)`` set-up time of one fresh process.

    The service's set-up is the server's spawn-to-healthy time; the
    others' is the worker's own spawn-to-READY time.
    """
    raw = float(result["setup_s"] if workload == "service_rw" else worker.ready_s)
    return raw, raw * host_scale(float(result["setup_probe_s"]), SETUP_ELASTICITY)


def _e2e_metrics(result: dict, setup_samples: list[tuple[float, float]]) -> dict:
    s = result["summary"]
    values = {
        "throughput_per_s": s["throughput_per_s"],
        "op_p50_ms": s["op_p50_ms"],
        "op_p90_ms": s["op_p90_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(norm for _, norm in setup_samples),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_metrics(result: dict) -> dict:
    from layers import per_layer_catalogue

    trace = result["trace"]
    stats = dict(trace["stats"])
    server = trace.get("server") or {}
    for name, st in (server.get("stats") or {}).items():
        if name in stats:
            for key in ("calls", "total_s", "self_s", "items"):
                stats[name][key] += st[key]
        else:
            stats[name] = st
    values: dict[str, float] = {}
    for name, st in stats.items():
        values[name] = st["items"]  # bare names are plain counters
        values[f"{name}.calls"] = st["calls"]
        values[f"{name}.self_s"] = st["self_s"]
        values[f"{name}.items"] = st["items"]
    values.update(result["counters"])
    bench_self = sum(st["self_s"] for st in trace["stats"].values())
    root = trace["stats"].get("bench.workload", {})
    values["trace.wall_s"] = trace["timed_wall_s"]
    values["trace.root_self_s"] = root.get("self_s", 0.0)
    values["trace.self_coverage"] = bench_self / trace["timed_wall_s"]
    engine = server.get("engine") or {}
    if engine.get("wall_s"):
        values["trace.server_self_coverage"] = engine["self_s"] / engine["wall_s"]
    values["trace.overhead"] = result["overhead"]
    values["fleet.seeder_fast"] = int(bool(result["env"]["fastseeder_fast"]))
    return {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in per_layer_catalogue()
    }


def _terminate(signum, frame) -> None:
    # Unwind through the ``finally`` blocks that kill the workers.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro in the current directory", file=sys.stderr)
        return 2
    scratch_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    env = _clean_env(root, scratch)
    deadline = time.monotonic() + RUN_TIMEOUT_BASE_S + RUN_TIMEOUT_PER_SECOND * args.seconds
    try:
        setup_samples: list[tuple[float, float]] = []

        def probe(i: int) -> None:
            w = Worker(args, env, scratch, setup_only=True, tag=f"probe{i}")
            setup_samples.append(_setup_sample(args.workload, w, w.finish(deadline)))

        # Probes before and after the measured run, so the set-up median
        # spans the run rather than one moment of host speed.
        n_probes = 0 if args.trace else 1 if args.tiny else SETUP_PROBES
        for i in range(n_probes // 2):
            probe(i)
        worker = Worker(args, env, scratch, setup_only=False, tag="main")
        result = worker.finish(deadline)
        setup_samples.append(_setup_sample(args.workload, worker, result))
        for i in range(n_probes // 2, n_probes):
            probe(i)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch_root)  # only when no other run is using it

    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "results_digest": result["results_digest"],
        "summary": result["summary"],
        "setup_samples_s": setup_samples,
        "failures": result["failures"],
        "env": result["env"],
        "extra": result["extra"],
    }
    if args.trace:
        metrics = _layer_metrics(result)
        diagnostics["trace"] = result["trace"]
    else:
        metrics = _e2e_metrics(result, setup_samples)
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
