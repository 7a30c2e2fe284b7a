"""RPL005 — exact equality against computed floats.

``0.1 + 0.2 == 0.3`` is False; a threshold comparison written with
``==`` against a float literal silently never (or always) fires as soon
as either side is computed.  The rule flags ``==`` / ``!=`` comparisons
where an operand is a non-integral float literal or an arithmetic
expression containing a float literal, and points at
``math.isclose`` / ``np.isclose``.

Comparisons against the literal ``0.0`` are allowed: this codebase uses
exact zero as a sentinel for "parameter disabled" (``sigma == 0.0``)
and for detecting genuine underflow-to-zero, both of which are
exact-representation checks, not tolerance checks.
"""

from __future__ import annotations

import ast

from repro.lint.model import ProjectModel
from repro.lint.rules.base import Rule, Violation

__all__ = ["FloatEqualityRule"]

_ARITH = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.FloorDiv)


def _floatish(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.value != 0.0
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ARITH):
        # Arithmetic over any float literal produces a computed float;
        # the zero allowance does not apply inside an expression.
        return any(
            isinstance(sub, ast.Constant) and isinstance(sub.value, float)
            for sub in ast.walk(node)
        )
    return False


class FloatEqualityRule(Rule):
    code = "RPL005"
    name = "float-equality-comparison"

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            for node in module.nodes[ast.Compare]:
                operands = [node.left, *node.comparators]
                if any(
                    isinstance(op, (ast.Eq, ast.NotEq))
                    and (_floatish(left) or _floatish(right))
                    for op, left, right in zip(node.ops, operands, operands[1:])
                ):
                    # One report per comparison expression.
                    out.append(
                        self.violation(
                            module,
                            node.lineno,
                            node.col_offset,
                            "exact ==/!= against a float; use "
                            "math.isclose/np.isclose with an explicit "
                            "tolerance",
                        )
                    )
        return out
