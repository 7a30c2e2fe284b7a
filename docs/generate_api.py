#!/usr/bin/env python3
"""Generate docs/API.md from the package's live docstrings.

Walks every module under ``repro``, collects public classes and
functions (honouring ``__all__``), and renders one markdown section per
module with signatures and first-paragraph summaries.

Run:  python docs/generate_api.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import re

import repro

OUT = pathlib.Path(__file__).resolve().parent / "API.md"

#: The per-process address in a default repr (``<function f at 0x7f…>``),
#: which would make every regeneration differ.
_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+>")


def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    text = inspect.cleandoc(doc)
    return text.split("\n\n")[0].replace("\n", " ")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def _module_members(mod) -> list[tuple[str, object]]:
    names = getattr(mod, "__all__", None)
    out = []
    for name in names if names is not None else sorted(vars(mod)):
        if name.startswith("_"):
            continue
        obj = inspect.unwrap(getattr(mod, name, None))  # e.g. lru_cache wrappers
        if obj is None:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                out.append((name, obj))
        elif not inspect.ismodule(obj) and names is not None:
            out.append((name, obj))  # documented constants
    return out


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `python docs/generate_api.py` — do not edit by hand.",
        "",
    ]
    pkg_path = pathlib.Path(repro.__file__).parent
    modules = ["repro"]
    for info in pkgutil.walk_packages([str(pkg_path)], prefix="repro."):
        if "__main__" in info.name:
            continue
        modules.append(info.name)

    for modname in sorted(set(modules)):
        mod = importlib.import_module(modname)
        members = _module_members(mod)
        lines.append(f"## `{modname}`")
        lines.append("")
        lines.append(_first_paragraph(mod.__doc__))
        lines.append("")
        if modname == "repro":
            lines.append(
                f"Top-level re-exports: {len(getattr(mod, '__all__', []))} names "
                "(see the module sections below for their definitions)."
            )
            lines.append("")
            continue
        for name, obj in members:
            if inspect.isclass(obj):
                lines.append(f"### class `{name}{_signature(obj)}`")
                lines.append("")
                lines.append(_first_paragraph(obj.__doc__))
                lines.append("")
                for mname, meth in sorted(vars(obj).items()):
                    if mname.startswith("_") or not callable(meth):
                        continue
                    if isinstance(meth, (staticmethod, classmethod)):
                        meth = meth.__func__
                    lines.append(
                        f"- `{mname}{_signature(meth)}` — "
                        f"{_first_paragraph(meth.__doc__)}"
                    )
                lines.append("")
            elif inspect.isfunction(obj):
                lines.append(f"### `{name}{_signature(obj)}`")
                lines.append("")
                lines.append(_first_paragraph(obj.__doc__))
                lines.append("")
            else:
                shown = _ADDRESS.sub(">", repr(obj))
                lines.append(f"- constant `{name}` = `{shown}`"[:200])
                lines.append("")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    OUT.write_text(render())
    print(f"wrote {OUT} ({len(OUT.read_text().splitlines())} lines)")
