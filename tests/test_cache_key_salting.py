"""Every cache key changes when any version of the engine it addresses is bumped.

The result cache promises that bumping a version constant orphans every
stale entry.  That holds only if each key builder folds in every
version its engine depends on, so this matrix bumps each one and checks
that the key moves:

- each builder is paired with the engine module whose outputs it keys;
- the versions an engine owes are found at runtime: ``ENGINE_VERSION``
  (the floor of every key), every public ``*_VERSION`` in the engine
  module's globals, and every public ``*_VERSION`` defined by a
  ``repro`` module it imports;
- each case sets the constant to ``v + 1`` in the builder's own module
  (``raising=False``, so a builder that never imported it is patched
  all the same) and asserts that the key changes.

A builder that never reads a version it owes keeps its key and fails.
The completeness case keeps the matrix whole: every public ``*_key``
function under ``repro.montecarlo`` and ``repro.fleet`` must be in it.
"""

import fnmatch
import importlib
import inspect
import pkgutil
import sys

import pytest

import repro.fleet
import repro.montecarlo
from repro.cells.drift import PAPER_ESCALATION
from repro.cells.params import TABLE1
from repro.fleet import mc as fleet_mc
from repro.fleet.config import FleetConfig
from repro.montecarlo import bler_mc, cer, executor, results_cache
from repro.montecarlo.executor import StateRun

#: builder name -> (its engine module, the builder, sample arguments).
BUILDERS = {
    "state_counts_key": (
        cer,
        results_cache.state_counts_key,
        (StateRun(TABLE1["S2"], 4.5, 10_000, 7), (2.0, 1024.0), PAPER_ESCALATION),
    ),
    "bler_counts_key": (
        bler_mc,
        results_cache.bler_counts_key,
        (1e-3, 512, 6, 4096, 5, (0,)),
    ),
    "fleet_counts_key": (
        fleet_mc,
        fleet_mc.fleet_counts_key,
        (FleetConfig(n_devices=10, n_epochs=3), 0, 0, 4),
    ),
}

#: The version every key owes, whichever engine it addresses.
FLOOR_VERSION = "ENGINE_VERSION"


def _is_version(name: str) -> bool:
    return not name.startswith("_") and fnmatch.fnmatch(name, "*_VERSION")


def _defined_versions(module) -> dict[str, int]:
    """Public ``*_VERSION`` constants a module defines (its ``__all__``)."""
    names = getattr(module, "__all__", vars(module))
    return {n: getattr(module, n) for n in names if _is_version(n)}


def _imported_repro_modules(module) -> set:
    """``repro`` modules an engine's globals reach: modules and callables' homes."""
    found = set()
    for value in vars(module).values():
        if inspect.ismodule(value):
            found.add(value)
        elif callable(value) and isinstance(getattr(value, "__module__", None), str):
            found.add(sys.modules.get(value.__module__))
    return {m for m in found if m is not None and m.__name__.startswith("repro.")}


def required_versions(engine) -> dict[str, int]:
    """Every version an engine's cache key owes, with its current value."""
    required = {n: v for n, v in vars(engine).items() if _is_version(n)}
    for module in sorted(_imported_repro_modules(engine), key=lambda m: m.__name__):
        for name, value in _defined_versions(module).items():
            required.setdefault(name, value)
    required.setdefault(FLOOR_VERSION, executor.ENGINE_VERSION)
    return required


CASES = [
    (builder, version)
    for builder, (engine, _, _) in BUILDERS.items()
    for version in sorted(required_versions(engine))
]


@pytest.mark.parametrize("builder, version", CASES, ids=[f"{b}-{v}" for b, v in CASES])
def test_version_bump_changes_key(builder, version, monkeypatch):
    engine, fn, args = BUILDERS[builder]
    base = fn(*args)
    assert fn(*args) == base
    value = required_versions(engine)[version]
    monkeypatch.setattr(sys.modules[fn.__module__], version, value + 1, raising=False)
    assert fn(*args) != base, f"{builder} ignores {version}"


def test_matrix_covers_the_versions_each_engine_imports():
    # The discovery itself must see the known constants, or the matrix
    # would pass vacuously.
    assert set(required_versions(cer)) >= {"ENGINE_VERSION"}
    assert set(required_versions(bler_mc)) >= {"ENGINE_VERSION", "DATAPATH_VERSION"}
    assert set(required_versions(fleet_mc)) >= {
        "ENGINE_VERSION",
        "DATAPATH_VERSION",
        "FLEET_VERSION",
    }


def test_every_key_builder_is_in_the_matrix():
    builders = set()
    for package in (repro.montecarlo, repro.fleet):
        for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
            module = importlib.import_module(info.name)
            builders.update(
                name
                for name, fn in vars(module).items()
                if inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and name.endswith("_key")
            )
    assert builders == set(BUILDERS)
