"""Span tracer for the benchmark's traced run.

A :class:`Target` names one layer callable and the places its callers
look it up (``"package.module:attr"`` or ``"package.module:Class.attr"``).
:meth:`Tracer.install` replaces each resolvable site with a wrapper that
records a span around the call; a site that no longer exists is reported
as ``absent`` rather than raising, so the benchmark keeps running when a
later change deletes the code behind a target.

Spans nest through a per-thread stack.  When a span ends, its duration is
charged to its parent's child time, and its *self time* is its duration
minus the time its child spans covered.  Every span also records the edge
``parent -> name``, so the output says which layer called which.  Stats
are kept per thread and merged at the end, so no lock sits on the hot
path.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import threading
import time
from typing import Any, Callable

ItemsFn = Callable[[tuple, dict, Any], int]


@dataclasses.dataclass(frozen=True)
class Site:
    """One lookup place of a target, plus how to count a call's items.

    ``counter`` names a second per-call count (e.g. rows that failed),
    accumulated as the items of that name.
    """

    path: str
    items: ItemsFn | None = None
    counter: tuple[str, ItemsFn] | None = None


@dataclasses.dataclass(frozen=True)
class Target:
    """One traced layer callable, possibly reachable through several sites."""

    name: str
    sites: tuple[Site, ...]
    has_items: bool = False


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.items += other.items


def resolve(path: str) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, current value)`` of a dotted site, or ``None``."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if parts[-1] not in vars(owner):
        return None
    return owner, parts[-1], inspect.getattr_static(owner, parts[-1])


class _ThreadState(threading.local):
    def __init__(self) -> None:
        # Stack frames are [name, child_time]; "<root>" marks no parent.
        self.stack: list[list] = []
        self.stats: dict[str, Stat] | None = None
        self.edges: dict[tuple[str, str], Stat] | None = None


class Tracer:
    """Installs span wrappers and aggregates their per-thread stats."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.status: dict[str, str] = {}
        self._local = _ThreadState()
        self._lock = threading.Lock()
        self._thread_stats: list[tuple[dict[str, Stat], dict]] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every resolvable site; record each target as present/absent."""
        for target in self.targets:
            found = 0
            for site in target.sites:
                hit = resolve(site.path)
                if hit is None:
                    continue
                owner, attr, raw = hit
                setattr(owner, attr, self._wrap(raw, target.name, site))
                self._restore.append((owner, attr, raw))
                found += 1
            self.status[target.name] = "present" if found else "absent"

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, raw: Any, name: str, site: Site) -> Any:
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(self._wrap(raw.__func__, name, site))
        fn = raw
        items, counter = site.items, site.counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            stats = self._thread()[1]
            if items is not None:
                stats[name].items += int(items(args, kwargs, result))
            if counter is not None:
                stats[counter[0]].items += int(counter[1](args, kwargs, result))
            return result

        return traced

    def span(self, name: str) -> "_Span":
        """Context manager recording one span named ``name``."""
        return _Span(self, name)

    def add_wait(self, name: str, seconds: float, n: int = 1) -> None:
        """Record time work spent waiting (not a span: no self-time sum)."""
        st = self._thread()[1][name]
        st.self_s += seconds
        st.items += n

    def thread_self_s(self) -> float:
        """Summed span self time recorded so far on the calling thread."""
        return sum(st.self_s for st in self._thread()[1].values())

    # -- aggregation -------------------------------------------------------
    def _thread(self) -> tuple[list, dict, dict]:
        local = self._local
        if local.stats is None:
            local.stats = _StatDict()
            local.edges = {}
            with self._lock:
                self._thread_stats.append((local.stats, local.edges))
        return local.stack, local.stats, local.edges

    def snapshot(self) -> tuple[dict[str, Stat], dict[str, Stat]]:
        """Merged ``(per-name stats, per-edge stats)`` over all threads."""
        merged: dict[str, Stat] = {}
        edges: dict[str, Stat] = {}
        with self._lock:
            parts = list(self._thread_stats)
        for stats, thread_edges in parts:
            for name, st in list(stats.items()):
                merged.setdefault(name, Stat()).add(st)
            for (parent, child), st in list(thread_edges.items()):
                edges.setdefault(f"{parent}>{child}", Stat()).add(st)
        return merged, edges


class _StatDict(dict):
    def __missing__(self, key: str) -> Stat:
        st = self[key] = Stat()
        return st


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._name = name
        self._stack, self._stats, self._edges = tracer._thread()

    def __enter__(self) -> "_Span":
        stack = self._stack
        self._parent = stack[-1][0] if stack else "<root>"
        self._frame = [self._name, 0.0]
        stack.append(self._frame)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        dur = time.perf_counter() - self._t0
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += dur
        st = self._stats[self._name]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - self._frame[1]
        edge = self._edges.get((self._parent, self._name))
        if edge is None:
            edge = self._edges[(self._parent, self._name)] = Stat()
        edge.calls += 1
        edge.total_s += dur
