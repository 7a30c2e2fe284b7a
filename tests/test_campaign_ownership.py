"""Scheduler state ownership: only the thread that calls ``run()`` touches
the scheduler's ``states``, ``results`` and ``errors`` maps.

Workers receive their dependencies' results at submit, so the maps need
no lock.  These tests hold the scheduler to that at runtime: a subclass
wraps each map in a dict that records the thread of every read and
write, runs a parallel fan-out/fan-in DAG (with and without a transient
fault on a dependent job), and asserts that every access came from the
calling thread and that each job saw its dependencies' persisted
results.
"""

import threading

import pytest

from repro.campaign import scheduler as scheduler_mod
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import RunStore
from repro.chaos import FaultPlan, FaultSpec, activate

#: job -> the jobs it needs: two roots fan out, ``join`` fans in, and
#: ``left``/``right``/``tail`` fan out again from it.
DAG = {
    "a": [],
    "b": [],
    "c": ["a"],
    "join": ["a", "b", "c"],
    "left": ["join"],
    "right": ["join", "b"],
    "tail": ["left", "right"],
}

_MAPS = ("states", "results", "errors")

_METHODS = (
    "__getitem__", "__setitem__", "__delitem__", "__contains__", "__iter__",
    "__len__", "get", "keys", "values", "items", "pop", "popitem",
    "setdefault", "update", "clear", "copy",
)


class RecordingDict(dict):
    """A dict that logs ``(thread id, map name, method)`` on every access."""

    def __init__(self, data, name, log):
        super().__init__(data)
        self.name = name
        self.log = log


def _recorded(method):
    base = getattr(dict, method)

    def wrapper(self, *args, **kwargs):
        self.log.append((threading.get_ident(), self.name, method))
        return base(self, *args, **kwargs)

    return wrapper


for _method in _METHODS:
    setattr(RecordingDict, _method, _recorded(_method))

#: The job the current worker thread is executing.
CURRENT = threading.local()


class OwnershipScheduler(CampaignScheduler):
    """Wraps the three maps, and records which job each worker runs."""

    def __init__(self, *args, **kwargs):
        self.accesses = []
        self.executed = []  # (job id, thread id) per _execute call
        super().__init__(*args, **kwargs)

    def __setattr__(self, name, value):
        if name in _MAPS:
            value = RecordingDict(value, name, self.accesses)
        super().__setattr__(name, value)

    def _execute(self, job, *args):
        self.executed.append((job.id, threading.get_ident()))
        CURRENT.job = job.id
        return super()._execute(job, *args)


def dag_spec():
    return campaign_from_dict(
        {
            "name": "ownership",
            "max_parallel_jobs": 3,
            "retries": 2,
            "job": [
                {"id": job, "kind": "capacity", "needs": needs}
                for job, needs in DAG.items()
            ],
        }
    )


@pytest.fixture
def seen_deps(monkeypatch):
    """job id -> the ``ctx.dep_results`` its runner received."""
    seen = {}

    def recording_run_job(kind, params, ctx):
        seen[CURRENT.job] = ctx.dep_results
        return run_job(kind, params, ctx)

    run_job = scheduler_mod.run_job
    monkeypatch.setattr(scheduler_mod, "run_job", recording_run_job)
    return seen


def run_dag(tmp_path, seen_deps):
    store = RunStore(tmp_path / "run")
    sched = OwnershipScheduler(dag_spec(), store, sleep=lambda _: None)
    return sched, store, sched.run(), seen_deps


def assert_owned(sched, store, result, seen, caller):
    assert result.ok, result.errors
    assert set(result.states) == set(DAG)
    # The test is not vacuous: jobs ran on pool threads, and the maps
    # were used.
    workers = {tid for _, tid in sched.executed}
    assert workers and caller not in workers
    assert {name for _, name, _ in sched.accesses} >= {"states", "results"}
    strays = sorted({(name, method) for tid, name, method in sched.accesses if tid != caller})
    assert strays == [], f"worker threads touched scheduler maps: {strays}"
    for job, needs in DAG.items():
        assert seen[job] == {dep: store.read_result(dep) for dep in needs}


def test_only_the_calling_thread_touches_the_maps(tmp_path, seen_deps):
    sched, store, result, seen = run_dag(tmp_path, seen_deps)
    assert_owned(sched, store, result, seen, threading.get_ident())
    assert sorted(job for job, _ in sched.executed) == sorted(DAG)


def test_retry_path_keeps_the_maps_on_the_calling_thread(tmp_path, seen_deps):
    fault = FaultSpec.make("scheduler.job", 0, "raise_transient", match={"job": "join"})
    with activate(FaultPlan(faults=(fault,), seed=1)) as fired:
        sched, store, result, seen = run_dag(tmp_path, seen_deps)
    assert len(fired) == 1
    assert result.metrics["retries"] == 1
    assert_owned(sched, store, result, seen, threading.get_ident())
