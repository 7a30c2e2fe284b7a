"""Traced service launcher: wrap the server-side layers, then run the CLI.

Usage: ``python3 perfbench/serve_traced.py TRACE_OUT.json``

Installs the span wrappers for the layers the service runs (see
``layers.SERVER_TARGETS``), the queue-wait probe and the engine-thread
clock, then starts the same ``repro serve --port 0`` path the CLI
starts.  When the server has drained after SIGTERM, the merged span
stats are written to ``TRACE_OUT.json``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from layers import SERVER_TARGETS
from tracer import Tracer, resolve


def _install_queue_wait(tracer: Tracer) -> str:
    """Time each op from ``BatchQueue.submit`` to the ``take`` that pops it."""
    submit_site = resolve("repro.service.batching:BatchQueue.submit")
    take_site = resolve("repro.service.batching:BatchQueue.take")
    if submit_site is None or take_site is None:
        return "absent"
    queue_cls, _, submit = submit_site
    _, _, take = take_site
    submitted: dict[int, float] = {}  # both run on the event-loop thread

    def traced_submit(self, op):
        submit(self, op)
        submitted[id(op)] = time.perf_counter()

    def traced_take(self, *args, **kwargs):
        batch = take(self, *args, **kwargs)
        now = time.perf_counter()
        for op in batch:
            t0 = submitted.pop(id(op), None)
            if t0 is not None:
                tracer.add_wait("service.queue_wait", now - t0)
        return batch

    queue_cls.submit = traced_submit
    queue_cls.take = traced_take
    return "present"


def _install_engine_clock(tracer: Tracer, engine: dict[str, float]) -> str:
    """Time every job the batcher's engine thread runs, outside any span.

    ``engine["wall_s"]`` sums the jobs' wall times and ``engine["self_s"]``
    the span self time recorded on that thread during them, so their
    ratio says how much of the engine thread's work the traced layers
    cover.
    """
    site = resolve("repro.service.batching:ThreadPoolExecutor")
    if site is None:
        return "absent"
    module, attr, pool_cls = site

    class TimedPool(pool_cls):
        def submit(self, fn, /, *args, **kwargs):
            def timed():
                before = tracer.thread_self_s()
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    engine["wall_s"] += time.perf_counter() - t0
                    engine["self_s"] += tracer.thread_self_s() - before

            return super().submit(timed)

    setattr(module, attr, TimedPool)
    return "present"


def main(out_path: str) -> int:
    tracer = Tracer(list(SERVER_TARGETS))
    tracer.install()
    tracer.status["service.queue_wait"] = _install_queue_wait(tracer)
    engine = {"wall_s": 0.0, "self_s": 0.0}
    tracer.status["service.engine_clock"] = _install_engine_clock(tracer, engine)

    from repro.cli import main as cli_main

    code = cli_main(["serve", "--port", "0"])
    stats, edges = tracer.snapshot()
    with open(out_path, "w") as f:
        json.dump(
            {
                "status": tracer.status,
                "stats": {k: dataclasses.asdict(v) for k, v in stats.items()},
                "edges": {k: dataclasses.asdict(v) for k, v in edges.items()},
                "engine": engine,
            },
            f,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
