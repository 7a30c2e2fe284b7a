"""The top-level ``repro`` package re-exports its public names lazily.

``import repro`` must not pay for the heavy subsystems (scipy's
optimizer, campaigns, the fleet, the memory-system simulator): each
re-export resolves on first access.  A fresh interpreter is the only
place where ``sys.modules`` shows what the import itself loaded.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import repro
loaded = sorted(m for m in ("scipy.optimize", "repro.campaign", "repro.fleet", "repro.sim")
                if m in sys.modules)
missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]
print(json.dumps({"loaded_by_import": loaded, "unresolved": missing}))
"""


def test_import_is_lazy_and_every_export_resolves():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout)
    assert result == {"loaded_by_import": [], "unresolved": []}


def test_exports_are_the_defining_objects():
    from repro import fleet_mc as top_level
    from repro.fleet import fleet_mc

    assert top_level is fleet_mc
    assert set(repro.__all__) <= set(dir(repro))
    assert len(repro.__all__) == len(set(repro.__all__))
    with pytest.raises(AttributeError, match="not_an_export"):
        repro.not_an_export  # noqa: B018
