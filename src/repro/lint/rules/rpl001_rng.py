"""RPL001 — banned nondeterministic / unrouted RNG construction.

Bit-identical Monte Carlo results (any worker count, any chunk size)
hold only because every generator descends from the ``SeedSequence``
spawn tree in :mod:`repro.montecarlo.rng`.  Three hazards break that:

1. legacy global-state API (``np.random.seed``, ``np.random.normal``,
   ``np.random.RandomState`` …) — hidden shared state, order-dependent;
2. unseeded construction (``default_rng()`` / ``default_rng(None)`` /
   ``SeedSequence()``) — fresh OS entropy every run;
3. ad-hoc ``default_rng(...)`` / ``Generator(...)`` /
   ``random.Random(...)`` construction in engine code — even seeded, it
   forks the stream outside the spawn tree, so results stop being a
   pure function of the campaign seed.  A generator built this way and
   handed to an MC entry point is exactly the provenance break a
   dataflow trace would find, so flagging the construction site covers
   it.

(1) and (2) are flagged everywhere.  (3) is flagged only under
``RESTRICTED`` (``src/``); nothing is flagged in the ``ALLOW``-listed
fan-out modules.  Tests and benchmarks may build seeded generators
directly.
"""

from __future__ import annotations

import ast

from repro.lint.config import path_matches
from repro.lint.model import ModuleInfo, ProjectModel
from repro.lint.rules.base import Rule, Violation

__all__ = ["BannedRandomRule"]

#: Where ad-hoc (even seeded) construction is an error.
RESTRICTED = ("src/*",)
#: The spawn-tree home modules, exempt from every clause.
ALLOW = ("*/montecarlo/rng.py", "*/montecarlo/executor.py")

_NS = "numpy.random"

#: Legacy global-state functions plus the legacy RandomState class.
_LEGACY = {
    "seed", "random", "rand", "randn", "random_sample", "ranf", "sample",
    "randint", "random_integers", "choice", "shuffle", "permutation",
    "bytes", "normal", "standard_normal", "uniform", "binomial", "poisson",
    "exponential", "gamma", "beta", "lognormal", "laplace", "logistic",
    "multinomial", "multivariate_normal", "pareto", "rayleigh",
    "triangular", "vonmises", "wald", "weibull", "zipf", "geometric",
    "gumbel", "hypergeometric", "chisquare", "dirichlet", "logseries",
    "negative_binomial", "power", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_t",
    "get_state", "set_state", "RandomState",
}

_NP_CONSTRUCTORS = {f"{_NS}.default_rng", f"{_NS}.Generator"}
_SEEDED_CONSTRUCTORS = _NP_CONSTRUCTORS | {f"{_NS}.SeedSequence"}
_CONSTRUCTORS = _NP_CONSTRUCTORS | {"random.Random"}


def _is_unseeded(call: ast.Call) -> bool:
    """True for ``f()`` / ``f(None)`` / ``f(entropy=None)`` / ``f(seed=None)``."""
    if call.args and not (
        isinstance(call.args[0], ast.Constant) and call.args[0].value is None
    ):
        return False
    seedish = [
        kw
        for kw in call.keywords
        if kw.arg in ("seed", "entropy") or kw.arg is None
    ]
    if call.args:
        return not seedish  # positional None seed, nothing else seeding it
    if not seedish:
        return not call.keywords  # no args at all; other kwargs may seed
    return all(
        isinstance(kw.value, ast.Constant) and kw.value.value is None
        for kw in seedish
        if kw.arg is not None
    )


class BannedRandomRule(Rule):
    code = "RPL001"
    name = "banned-nondeterministic-rng"
    scope = RESTRICTED

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in model.modules.values():
            if module.tree is None or path_matches(module.rel_posix, ALLOW):
                continue
            restricted = path_matches(module.rel_posix, self.scope)
            out.extend(self._check_module(module, restricted))
        return out

    def _check_module(self, module: ModuleInfo, restricted: bool) -> list[Violation]:
        out: list[Violation] = []
        for node in module.nodes[ast.Call]:
            name = module.import_map.canonical(node.func)
            if name is None:
                continue
            if name.startswith(_NS + ".") and name[len(_NS) + 1 :] in _LEGACY:
                message = (
                    f"legacy global-state RNG call {name}(); draw from a "
                    "Generator built by repro.montecarlo.rng instead"
                )
            elif name in _SEEDED_CONSTRUCTORS and _is_unseeded(node):
                message = (
                    f"unseeded {name}() draws fresh OS entropy; pass an "
                    "explicit seed (or derive via repro.montecarlo.rng)"
                )
            elif name in _CONSTRUCTORS and restricted:
                message = (
                    f"direct {name}(...) construction outside the "
                    "SeedSequence fan-out modules; use "
                    "repro.montecarlo.rng.make_rng/spawn_rngs/block_rng"
                )
            else:
                continue
            out.append(
                self.violation(module, node.lineno, node.col_offset, message)
            )
        return out
