"""RPL010 — direct blocking call inside a coroutine.

The service's batcher runs its engine work on the event loop by
design: its flush task is the one place a batch executes, its stall
bounded by the batch cap, and requests that arrive meanwhile form the
next batch.  Any *other* coroutine that calls ``time.sleep``, sync
file/subprocess I/O, or — worse — drops straight into the numpy-heavy
Monte Carlo / coding kernels stalls every batch and every request on
the loop.  The sanctioned seam for such work is the executor
(``run_in_executor`` / ``asyncio.to_thread``): a callable passed there
is an argument, not a call, so routing work through the seam is
exactly what makes this rule pass.

The rule is per file and sees only *direct* calls in a coroutine's own
body (nested defs and lambdas run later and are not part of it).  A
stall reached through helpers, constructors or methods is a runtime
property, and ``tests/service/test_loop_stall.py`` checks it: it runs
the service under asyncio debug mode and fails on any callback slower
than its bound.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterator

from repro.lint.model import ProjectModel
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

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _classify(name: str) -> str | None:
    """Why a call target blocks, or None if it does not."""
    if name in _BLOCKING:
        return f"blocking call {name}()"
    if any(fnmatch.fnmatch(name, p) for p in _HEAVY_ALLOW):
        return None
    if any(fnmatch.fnmatch(name, p) for p in _HEAVY):
        return f"call into the compute kernel {name}()"
    return None


def _own_calls(fn: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Calls in a coroutine's body, not in the defs and lambdas it nests."""
    stack: list[ast.AST] = [stmt for stmt in fn.body if not isinstance(stmt, _DEFS)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, _DEFS))


class BlockingInCoroutineRule(Rule):
    code = "RPL010"
    name = "blocking-call-in-coroutine"
    scope = PRODUCTION_CODE

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            for fn in module.nodes[ast.AsyncFunctionDef]:
                for call in _own_calls(fn):
                    name = module.import_map.canonical(call.func)
                    reason = _classify(name) if name is not None else None
                    if reason is not None:
                        out.append(
                            self.violation(
                                module,
                                call.lineno,
                                call.col_offset,
                                f"coroutine {fn.name}() makes {reason}; the "
                                "event loop stalls — route it through the "
                                "executor seam (run_in_executor / to_thread)",
                            )
                        )
        return out
