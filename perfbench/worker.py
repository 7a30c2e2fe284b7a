"""One workload run in a fresh process (spawned by ``run.py``).

Sets up (imports, lazily built tables, one tiny warm-up call per path),
prints ``READY`` on stdout, then runs the workload and writes its result
as JSON to ``--result``.  With ``--trace 1`` the workload runs twice at
half size, untraced and then traced, and the result carries per-layer
stats and the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

from common import WORKLOADS, Context, PassResult, setup_probe_s


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--plant", default=None)
    return p.parse_args(argv)


def _source_digest(root: str) -> str:
    """SHA-256 over ``src/`` (the code under test), path-ordered."""
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _git_sha(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _fast_seeder() -> bool | None:
    """``FastSeeder.fast``, or ``None`` where the batched seeder is gone."""
    try:
        from repro.fleet.fastrng import FastSeeder
    except ImportError:
        return None
    return bool(FastSeeder.shared().fast)


def environment(root: str) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "fastseeder_fast": _fast_seeder(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def _summary(res: PassResult) -> dict:
    import numpy as np

    def op_ms(q: float) -> float:
        return 1e3 * statistics.median(
            float(np.percentile(w, q)) for w in res.latency_windows_s
        )

    return {
        "work": res.work,
        "wall_s": res.wall_s,
        "throughput_per_s": res.work / res.wall_s,
        "op_p50_ms": op_ms(50),
        "op_p90_ms": op_ms(90),
        "op_p99_ms": op_ms(99),
        "op_samples": sum(len(w) for w in res.latency_windows_s),
        "op_windows": len(res.latency_windows_s),
    }


def _cache_entries(path: str) -> int:
    return sum(len(files) for _, _, files in os.walk(path)) if os.path.isdir(path) else 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not this checkout")
    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        tiny=args.tiny,
        plant=args.plant,
        scratch=args.scratch,
    )
    out: dict = {}
    if args.setup_only:
        if args.workload == "service_rw":
            out["setup_s"], out["setup_probe_s"] = module.setup_probe(ctx)
            print("READY", flush=True)
        else:
            module.setup(args.workload)
            print("READY", flush=True)
            out["setup_probe_s"] = setup_probe_s()
        _write(args.result, out)
        return 0

    module.setup(args.workload)
    print("READY", flush=True)
    if args.workload != "service_rw":  # the server's set-up is probed in run()
        out["setup_probe_s"] = setup_probe_s()

    if args.trace:
        ctx.seconds = args.seconds / 2
        plain = module.run(args.workload, ctx)
        res = _traced_pass(module, args.workload, ctx, out)
        out["overhead"] = (plain.work / plain.wall_s) / (res.work / res.wall_s) - 1.0
        if ctx.planted("trace_digest"):
            plain.digest_parts.append("planted")
        res.op(plain.digest() == res.digest(), "tracing changed the simulated results")
        res.attempted += plain.attempted
        res.failed += plain.failed
        res.failures.extend(plain.failures)
    else:
        res = module.run(args.workload, ctx)
        peak = res.peak_rss_mb
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["peak_rss_mb"] = peak
    if args.workload == "service_rw":
        out["setup_s"] = res.extra.pop("server_setup_s")
        out["setup_probe_s"] = res.extra.pop("server_setup_probe_s")

    cache_dir = os.environ.get("REPRO_MC_CACHE_DIR", "")
    if ctx.planted("cache_used"):
        os.makedirs(cache_dir, exist_ok=True)
        open(os.path.join(cache_dir, "planted"), "w").close()
    res.op(_cache_entries(cache_dir) == 0, f"results cache used: {cache_dir}")
    out.update(
        attempted=res.attempted,
        failed=res.failed,
        failures=res.failures,
        summary=_summary(res),
        counters=res.counters,
        results_digest=res.digest(),
        extra=res.extra,
        env=environment(root),
    )
    _write(args.result, out)
    return 0


def _traced_pass(module, workload: str, ctx: Context, out: dict) -> PassResult:
    from layers import TARGETS
    from tracer import Tracer

    # The service's layers run in the server, traced by serve_traced.py;
    # wrapping them here would also trace the twin replay.
    tracer = Tracer([] if workload == "service_rw" else TARGETS)
    tracer.install()
    ctx.tracer = tracer
    try:
        res = module.run(workload, ctx)
    finally:
        tracer.uninstall()
    stats, edges = tracer.snapshot()
    out["trace"] = {
        "status": tracer.status,
        "stats": {k: dataclasses.asdict(v) for k, v in stats.items()},
        "edges": {k: dataclasses.asdict(v) for k, v in edges.items()},
        "timed_wall_s": ctx.section_wall_s,
        "server": res.extra.pop("server_trace", None),
    }
    return res


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f)


if __name__ == "__main__":
    sys.exit(main())
