"""RPL010 — blocking call inside a coroutine (direct or transitive).

The service's "bit-identical to unbatched" guarantee rests on its event
loop staying responsive: the flush loop must start the next batch the
moment the engine thread is free, requests must keep queueing while a
batch runs, and request futures must resolve in submission order.  A
coroutine that calls ``time.sleep``, sync file/subprocess I/O, or —
worse — drops straight into the numpy-heavy Monte Carlo / coding
kernels stalls every other request on the loop.  The sanctioned seam is the executor
(``run_in_executor`` / ``run_serialized`` / ``asyncio.to_thread``):
callables passed there produce no call edge, so routing work through
the seam is exactly what makes this rule pass.

Whole-program part: the rule follows resolved call edges from each
coroutine through *synchronous* project functions (awaited coroutine
calls yield the loop and are fine), so a blocking call hidden two sync
helpers deep is still attributed to the coroutine's call site, with the
chain named in the message.
"""

from __future__ import annotations

import fnmatch

from repro.lint.config import path_matches
from repro.lint.model import FunctionInfo, ProjectModel
from repro.lint.rules.base import ProjectRule, Severity, Violation

__all__ = ["BlockingInCoroutineRule"]

#: Call targets that block the calling thread outright.
_BLOCKING = [
    "time.sleep",
    "open",
    "io.open",
    "os.system",
    "os.popen",
    "os.waitpid",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
]


class BlockingInCoroutineRule(ProjectRule):
    code = "RPL010"
    name = "blocking-call-in-coroutine"
    severity = Severity.ERROR
    rationale = (
        "a blocking call on the event loop stalls the batching queue's "
        "next flush and every concurrent request; route work through "
        "the executor seam instead"
    )
    default_options = {
        # Files whose coroutines are held to the rule.
        "paths": ["src/*"],
        # Directly blocking call targets (canonical dotted names).
        "blocking": list(_BLOCKING),
        # Project modules that are numpy-heavy compute kernels: calling
        # into them from a coroutine without the executor seam blocks.
        "heavy": ["repro.montecarlo.*", "repro.coding.*"],
        # Kernel-adjacent modules cheap enough to call inline.
        "heavy_allow": ["repro.montecarlo.rng", "repro.montecarlo.rng.*"],
        # Transitive search depth through sync project functions.
        "max_depth": 6,
    }

    def _classify(
        self, name: str, opts, model: ProjectModel
    ) -> str | None:
        """Why a call target blocks, or None if it does not."""
        if name in set(opts["blocking"]):
            return f"blocking call {name}()"
        if any(fnmatch.fnmatch(name, p) for p in opts["heavy_allow"]):
            return None
        if any(fnmatch.fnmatch(name, p) for p in opts["heavy"]):
            return f"call into the compute kernel {name}()"
        return None

    def check_project(self, model: ProjectModel) -> list[Violation]:
        opts = self.project_options(model.config)
        out: list[Violation] = []
        for module in model.modules.values():
            if module.tree is None:
                continue
            if not path_matches(module.rel_posix, list(opts["paths"])):
                continue
            for fn in module.functions.values():
                if not fn.is_coroutine:
                    continue
                out.extend(self._check_coroutine(fn, module, opts, model))
        return out

    def _check_coroutine(self, fn, module, opts, model) -> list[Violation]:
        out = []
        for call in fn.calls:
            reason = self._classify(call.name, opts, model)
            chain: list[str] = []
            if reason is None:
                target = model.resolve(call.name)
                if target is not None and not target.is_coroutine:
                    reason, chain = self._search_sync(
                        target, opts, model, int(opts["max_depth"])
                    )
            if reason is not None:
                via = f" (via {' -> '.join(chain)})" if chain else ""
                out.append(
                    self.project_violation(
                        model,
                        module,
                        call.lineno,
                        call.col,
                        f"coroutine {fn.name}() makes {reason}{via}; the "
                        "event loop stalls — route it through the executor "
                        "seam (run_in_executor / run_serialized / to_thread)",
                    )
                )
        return out

    def _search_sync(
        self, start: FunctionInfo, opts, model: ProjectModel, max_depth: int
    ) -> tuple[str | None, list[str]]:
        """BFS through sync project calls for the first blocking target."""
        seen = {start.qualname}
        frontier: list[tuple[FunctionInfo, list[str]]] = [(start, [start.name])]
        for _ in range(max_depth):
            next_frontier: list[tuple[FunctionInfo, list[str]]] = []
            for fn, chain in frontier:
                for call in fn.calls:
                    reason = self._classify(call.name, opts, model)
                    if reason is not None:
                        return reason, chain
                    target = model.resolve(call.name)
                    if (
                        target is not None
                        and not target.is_coroutine
                        and target.qualname not in seen
                    ):
                        seen.add(target.qualname)
                        next_frontier.append((target, chain + [target.name]))
            frontier = next_frontier
            if not frontier:
                break
        return None, []
