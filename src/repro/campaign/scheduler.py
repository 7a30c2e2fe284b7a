"""Campaign execution: bounded concurrency, retry, isolation, resume.

The scheduler walks the :class:`~repro.campaign.plan.Plan` with a thread
pool of at most ``max_parallel`` campaign jobs (each job may itself fan
Monte Carlo blocks over ``mc_jobs`` worker *processes* — the thread here
only orchestrates).  Robustness properties, each covered by tests:

- **Retry with backoff** — a failing job is re-attempted up to its
  configured ``retries`` with exponentially growing delays
  (``backoff_s * backoff_factor**k``, capped at ``backoff_max_s``).
- **Failure isolation** — a job that exhausts its retries marks its
  transitive dependents ``blocked``; every independent job still runs,
  and the campaign exit status reports the partial failure.
- **Crash-safe resume** — results are persisted per job the moment they
  complete, so re-running a killed campaign restores them (``cached``
  state, ``job_cached`` event) and executes only unfinished jobs; JSON
  float round-tripping makes the final numbers bit-identical to an
  uninterrupted run.

Workers share no scheduler state.  Only the thread that calls
:meth:`CampaignScheduler.run` reads or writes ``states``, ``results``
and ``errors``; a job receives its dependencies' results at submit,
when they are already final, so no lock guards the maps.  Workers only
emit events, and :class:`~repro.campaign.events.EventLog` serializes
those itself.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any, Callable

from repro.campaign.events import EventLog, Metrics, ProgressLine
from repro.campaign.jobs import JobContext, run_job
from repro.campaign.plan import Plan, build_plan
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.campaign.store import RunStore
from repro.chaos.registry import fault_point

__all__ = [
    "CampaignResult",
    "CampaignScheduler",
    "DONE_STATES",
    "JOB_STATES",
]

#: Every state a job can be in (``pending`` and ``running`` are transient).
JOB_STATES = ("pending", "running", "done", "cached", "failed", "blocked")

#: States that satisfy a dependency.
DONE_STATES = ("done", "cached")


@dataclasses.dataclass
class CampaignResult:
    """Final outcome of one scheduler run; ``errors`` maps each failed
    job to the ``repr`` of its last error."""

    states: dict[str, str]
    results: dict[str, dict]
    metrics: dict[str, Any]
    errors: dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s in DONE_STATES for s in self.states.values())

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


class CampaignScheduler:
    """Executes one campaign spec against a run directory.

    ``sleep`` and ``after_job`` are test seams: ``sleep`` receives the
    backoff delays (inject a recorder to assert on them without waiting),
    and ``after_job(job_id, state)`` runs in the scheduler thread after
    each job settles (raise from it to simulate a mid-campaign crash).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: RunStore,
        *,
        mc_jobs: int | None = 1,
        cache=None,
        max_parallel: int | None = None,
        progress: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        after_job: Callable[[str, str], None] | None = None,
    ):
        self.spec = spec
        self.plan: Plan = build_plan(spec)
        self.store = store
        self.mc_jobs = mc_jobs
        self.cache = cache
        self.max_parallel = max_parallel or spec.max_parallel_jobs
        self.progress = progress
        self._sleep = sleep
        self._after_job = after_job
        self.events = EventLog(store.events_path)
        self.results: dict[str, dict] = {}
        self.states: dict[str, str] = {}
        self.errors: dict[str, str] = {}

    # -- helpers --------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        raw = self.spec.backoff_s * self.spec.backoff_factor ** (attempt - 1)
        return min(raw, self.spec.backoff_max_s)

    def _retries_for(self, job: JobSpec) -> int:
        return self.spec.retries if job.retries is None else job.retries

    def _execute(self, job: JobSpec, dep_results: dict[str, dict]) -> tuple[dict, int, float]:
        """Worker-thread body: attempt the job with retry + backoff.

        ``dep_results`` is built at submit; every attempt reuses it.
        """
        retries = self._retries_for(job)
        attempt = 0
        while True:
            attempt += 1
            self.events.emit("job_start", job=job.id, attempt=attempt)
            t0 = time.perf_counter()
            try:
                fault_point("scheduler.job", job=job.id, attempt=attempt)
                ctx = JobContext(
                    seed=self.spec.seed,
                    defaults=self.spec.defaults,
                    mc_jobs=self.mc_jobs,
                    cache=self.cache,
                    dep_results=dep_results,
                )
                result = run_job(job.kind, job.params, ctx)
                return result, attempt, time.perf_counter() - t0
            except Exception as exc:
                if attempt > retries:
                    raise
                delay = self._backoff(attempt)
                self.events.emit(
                    "job_retry",
                    job=job.id,
                    attempt=attempt,
                    delay_s=delay,
                    error=repr(exc),
                )
                self._sleep(delay)

    def _write_status(self, metrics: Metrics, finished: bool) -> None:
        ok = all(s in DONE_STATES for s in self.states.values()) if finished else None
        self.store.write_status(
            {
                "campaign": self.spec.name,
                "states": dict(self.states),
                "metrics": metrics.snapshot(self.cache),
                "finished": finished,
                "ok": ok,
            }
        )

    def _block_dependents(self, job_id: str, metrics: Metrics) -> None:
        for dep in self.plan.transitive_dependents(job_id):
            if self.states[dep] == "pending":
                self.states[dep] = "blocked"
                metrics.blocked += 1
                self.events.emit("job_blocked", job=dep, cause=job_id)

    # -- main loop ------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        """Execute (or finish) the campaign; returns the final outcome.

        ``resume=True`` requires an existing run directory; either way,
        persisted per-job results are honored and never re-executed.
        """
        if resume and not self.store.exists():
            raise FileNotFoundError(
                f"no campaign manifest under {self.store.run_dir}; "
                "start it with 'campaign run' first"
            )
        self.store.init(self.spec.to_dict(), list(self.plan.order))

        metrics = Metrics(total=len(self.plan.order))
        self.states = {job_id: "pending" for job_id in self.plan.order}
        restored = self.store.completed_jobs()
        for job_id in self.plan.order:
            if job_id in restored:
                self.states[job_id] = "cached"
                self.results[job_id] = restored[job_id]
                metrics.cached += 1
                self.events.emit("job_cached", job=job_id)
        self.events.emit(
            "campaign_start",
            campaign=self.spec.name,
            jobs=len(self.plan.order),
            resumed=bool(restored),
            restored=len(restored),
        )

        progress = ProgressLine(self.spec.name, enabled=self.progress)
        futures: dict[Future, str] = {}

        def submit_ready(pool: ThreadPoolExecutor) -> None:
            for job_id in self.plan.order:
                if self.states[job_id] != "pending":
                    continue
                needs = self.plan.needs[job_id]
                if all(self.states[d] in DONE_STATES for d in needs):
                    self.states[job_id] = "running"
                    metrics.running += 1
                    deps = {d: self.results[d] for d in needs}
                    futures[pool.submit(self._execute, self.plan.job(job_id), deps)] = job_id

        pool = ThreadPoolExecutor(
            max_workers=self.max_parallel, thread_name_prefix="campaign"
        )
        try:
            submit_ready(pool)
            self._write_status(metrics, finished=False)
            progress.update(metrics, self.cache)
            while futures:
                settled, _ = wait(futures, return_when=FIRST_COMPLETED)
                for fut in settled:
                    job_id = futures.pop(fut)
                    metrics.running -= 1
                    try:
                        result, attempts, elapsed = fut.result()
                    except Exception as exc:
                        attempts = self._retries_for(self.plan.job(job_id)) + 1
                        self.states[job_id] = "failed"
                        self.errors[job_id] = repr(exc)
                        metrics.failed += 1
                        metrics.retries += attempts - 1
                        self.events.emit(
                            "job_failed",
                            job=job_id,
                            attempts=attempts,
                            error=repr(exc),
                        )
                        self._block_dependents(job_id, metrics)
                    else:
                        self.store.write_result(job_id, result)
                        self.results[job_id] = result
                        self.states[job_id] = "done"
                        metrics.done += 1
                        metrics.retries += attempts - 1
                        n_samples = int(result.get("n_samples", 0) or 0)
                        metrics.samples += n_samples
                        self.events.emit(
                            "job_done",
                            job=job_id,
                            attempts=attempts,
                            elapsed_s=round(elapsed, 4),
                            n_samples=n_samples,
                        )
                    self._write_status(metrics, finished=False)
                    progress.update(metrics, self.cache)
                    if self._after_job is not None:
                        self._after_job(job_id, self.states[job_id])
                submit_ready(pool)
                progress.update(metrics, self.cache)
        finally:
            # On a crash (an exception out of after_job, or Ctrl-C) drop
            # queued work; in-flight jobs finish but are not persisted, so
            # resume re-executes only what never completed.
            pool.shutdown(wait=True, cancel_futures=True)
            progress.close()

        self._write_status(metrics, finished=True)
        snapshot = metrics.snapshot(self.cache)
        result = CampaignResult(
            states=dict(self.states),
            results=dict(self.results),
            metrics=snapshot,
            errors=dict(self.errors),
        )
        self.events.emit("campaign_end", ok=result.ok, **snapshot)
        return result
