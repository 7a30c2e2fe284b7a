"""RPL015 — architecture layering contracts.

The repo's layering is a load-bearing invariant, not a style choice:
``montecarlo`` must stay importable without the service stack (it runs
inside ``ProcessPoolExecutor`` workers), and the service must not grow
a dependency on campaign persistence that would couple request latency
to disk layout.  Those contracts live as a declarative table in
``pyproject.toml``::

    [tool.repro-lint.layers]
    "repro.montecarlo" = { deny = ["repro.service", "repro.campaign"] }
    "repro.service"    = { deny = ["repro.campaign.events"] }

Every resolved import edge in the project model is checked against the
table: if the importing module falls under a layer key (dotted-segment
prefix match) and the import target falls under one of that layer's
``deny`` prefixes, the import line is flagged.  Deleting an edge from
the table silently legalizes the dependency — which is why the test
suite pins the table's exact contents.
"""

from __future__ import annotations

from repro.lint.model import ProjectModel
from repro.lint.rules.base import Rule, Violation

__all__ = ["LayeringContractRule", "dotted_prefix"]


def dotted_prefix(module: str, prefix: str) -> bool:
    """True if ``module`` equals ``prefix`` or sits under it."""
    return module == prefix or module.startswith(prefix + ".")


class LayeringContractRule(Rule):
    code = "RPL015"
    name = "layering-contract-violation"

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            denied = [
                (layer, deny)
                for layer, contract in model.config.layers.items()
                if dotted_prefix(module.module, layer)
                for deny in contract.get("deny", ())
            ]
            for edge in module.import_map.edges:
                for layer, deny in denied:
                    if dotted_prefix(edge.target, deny):
                        out.append(
                            self.violation(
                                module,
                                edge.lineno,
                                edge.col,
                                f"layer '{layer}' must not import "
                                f"'{deny}' (imports {edge.target}); "
                                "declared in [tool.repro-lint.layers] — "
                                "invert the dependency or move the shared "
                                "code below both layers",
                            )
                        )
                        break
        return out
