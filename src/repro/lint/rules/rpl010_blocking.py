"""RPL010 — blocking call inside a coroutine (direct or transitive).

The service's batcher runs its engine work on the event loop by
design: its flush task is the one place a batch executes, its stall
bounded by the batch cap, and requests that arrive meanwhile form the
next batch.  Any *other* coroutine that calls ``time.sleep``, sync
file/subprocess I/O, or — worse — drops straight into the numpy-heavy
Monte Carlo / coding kernels stalls every batch and every request on
the loop.  The sanctioned seam for such work is the executor
(``run_in_executor`` / ``asyncio.to_thread``): callables passed there
produce no call edge, so routing work through the seam is exactly what
makes this rule pass.

Whole-program part: the rule follows resolved call edges from each
coroutine through *synchronous* project functions (a call to a
coroutine function yields the loop and is fine), so a blocking call hidden two sync
helpers deep is still attributed to the coroutine's call site, with the
chain named in the message.
"""

from __future__ import annotations

import fnmatch

from repro.lint.model import FunctionInfo, ModuleInfo, ProjectModel
from repro.lint.rules.base import Rule, Violation

__all__ = ["BlockingInCoroutineRule"]

#: Files whose coroutines are held to the rule.
PRODUCTION_CODE = ("src/*",)

#: Call targets that block the calling thread outright.
_BLOCKING = {
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
}
#: Project modules that are numpy-heavy compute kernels: calling into
#: them from a coroutine without the executor seam blocks.
_HEAVY = ("repro.montecarlo.*", "repro.coding.*")
#: Kernel-adjacent modules cheap enough to call inline.
_HEAVY_ALLOW = ("repro.montecarlo.rng", "repro.montecarlo.rng.*")
#: Transitive search depth through sync project functions.
_MAX_DEPTH = 6


def _classify(name: str) -> str | None:
    """Why a call target blocks, or None if it does not."""
    if name in _BLOCKING:
        return f"blocking call {name}()"
    if any(fnmatch.fnmatch(name, p) for p in _HEAVY_ALLOW):
        return None
    if any(fnmatch.fnmatch(name, p) for p in _HEAVY):
        return f"call into the compute kernel {name}()"
    return None


class BlockingInCoroutineRule(Rule):
    code = "RPL010"
    name = "blocking-call-in-coroutine"
    scope = PRODUCTION_CODE

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            for fn in module.functions.values():
                if fn.is_coroutine:
                    out.extend(self._check_coroutine(fn, module, model))
        return out

    def _check_coroutine(
        self, fn: FunctionInfo, module: ModuleInfo, model: ProjectModel
    ) -> list[Violation]:
        out = []
        for call in fn.calls:
            reason = _classify(call.name)
            chain: list[str] = []
            if reason is None:
                target = model.resolve(call.name)
                if target is not None and not target.is_coroutine:
                    reason, chain = _search_sync(target, model)
            if reason is not None:
                via = f" (via {' -> '.join(chain)})" if chain else ""
                out.append(
                    self.violation(
                        module,
                        call.lineno,
                        call.col,
                        f"coroutine {fn.name}() makes {reason}{via}; the "
                        "event loop stalls — route it through the executor "
                        "seam (run_in_executor / to_thread)",
                    )
                )
        return out


def _search_sync(
    start: FunctionInfo, model: ProjectModel
) -> tuple[str | None, list[str]]:
    """BFS through sync project calls for the first blocking target."""
    seen = {start.qualname}
    frontier: list[tuple[FunctionInfo, list[str]]] = [(start, [start.name])]
    for _ in range(_MAX_DEPTH):
        next_frontier: list[tuple[FunctionInfo, list[str]]] = []
        for fn, chain in frontier:
            for call in fn.calls:
                reason = _classify(call.name)
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
