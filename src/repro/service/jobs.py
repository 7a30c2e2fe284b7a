"""Async job manager: submit/poll long-running simulation work over HTTP.

Sweeps, fleet runs and campaigns outlast any sane HTTP timeout, so jobs
run on a small worker pool and the client polls ``GET /v1/jobs/<id>``
(``queued -> running -> done | failed``).  ``POST /v1/jobs`` takes any
kind of :data:`repro.campaign.jobs.KINDS` with that kind's params plus
``seed`` and builds it into a one-job campaign spec at submit; its result
is the job's result dict.  ``kind="campaign"`` names a built-in spec
(``name``, optional ``n_samples``/``seed``) and returns its states and
metrics.  A spec that fails validation is a 400 ``E_JOB_KIND``.  Both
forms run on :class:`~repro.campaign.scheduler.CampaignScheduler` over a
:class:`~repro.campaign.store.RunStore` at ``work_dir/<job_id>``, so
every job writes the campaign ``events.jsonl`` and can be resumed with
the offline CLI.  Each job carries its own seed and never touches device
state, so jobs and block I/O cannot perturb each other's streams.
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

from repro.campaign.jobs import KINDS
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import SpecError, builtin_campaign, campaign_from_dict
from repro.campaign.store import RunStore
from repro.service.codes import ServiceError

__all__ = ["JobManager"]


def _spec_for(kind: str, params: dict):
    """The campaign spec a ``POST /v1/jobs`` body runs; raises SpecError."""
    if kind == "campaign":
        unknown = set(params) - {"name", "n_samples", "seed"}
        if unknown:
            raise SpecError(f"unknown campaign param(s) {sorted(unknown)}")
        return builtin_campaign(
            params.get("name"), params.get("n_samples"), params.get("seed")
        )
    if not isinstance(kind, str) or kind not in KINDS:
        raise SpecError(f"unknown job kind {kind!r}")
    job = {"id": kind, "kind": kind, "params": {k: v for k, v in params.items() if k != "seed"}}
    return campaign_from_dict({"name": kind, "seed": params.get("seed", 0), "job": [job]})


@dataclasses.dataclass
class _Job:
    job_id: str
    kind: str
    params: dict
    scheduler: CampaignScheduler
    state: str = "queued"
    result: dict | None = None
    error: dict | None = None

    def describe(self) -> dict:
        out = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "params": self.params,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


class JobManager:
    """Runs one-job and built-in campaigns on a bounded pool; thread-safe registry."""

    def __init__(self, work_dir: str | pathlib.Path, *, max_workers: int = 2,
                 mc_jobs: int | None = 1):
        self.work_dir = pathlib.Path(work_dir)
        self.mc_jobs = mc_jobs
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-jobs"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._next_id = 1
        self._closed = False

    # -- public API ----------------------------------------------------
    def submit(self, kind: str, params: dict) -> dict:
        """Validate and enqueue a job; returns its ACCEPTED descriptor."""
        if self._closed:
            raise ServiceError("E_SHUTTING_DOWN", "job manager is draining")
        with self._lock:
            # Skip ids whose run dir exists: a server restarted on the
            # same work dir must not collide with its earlier jobs.
            n = self._next_id
            while (self.work_dir / f"job-{n:04d}").exists():
                n += 1
            job_id = f"job-{n:04d}"
            try:
                scheduler = CampaignScheduler(
                    _spec_for(kind, params),
                    RunStore(self.work_dir / job_id),
                    mc_jobs=self.mc_jobs,
                )
            except SpecError as exc:
                raise ServiceError(
                    "E_JOB_KIND", str(exc), {"kinds": ["campaign", *sorted(KINDS)]}
                ) from None
            job = _Job(job_id, kind, params, scheduler)
            self._jobs[job_id] = job
            self._next_id = n + 1
            # Describe before the pool sees the job: a fast job could
            # otherwise already be running or done in its own reply.
            accepted = {"code": "ACCEPTED", **job.describe()}
            self._pool.submit(self._run, job)
        return accepted

    def get(self, job_id: str) -> dict:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("E_JOB_NOT_FOUND", f"no job {job_id!r}")
        return {"code": "OK", **job.describe()}

    def list(self) -> list[dict]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [j.describe() for j in jobs]

    def close(self) -> None:
        """Stop accepting jobs and wait for in-flight ones to settle."""
        self._closed = True
        self._pool.shutdown(wait=True)

    # -- execution -----------------------------------------------------
    def _run(self, job: _Job) -> None:
        job.state = "running"
        try:
            outcome = job.scheduler.run()
        except Exception as exc:
            job.error = {
                "code": "E_INTERNAL",
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8),
            }
            job.state = "failed"
            return
        if job.kind == "campaign":
            job.result = {
                "campaign": job.scheduler.spec.name,
                "run_dir": str(job.scheduler.store.run_dir),
                "ok": outcome.ok,
                "states": outcome.states,
                "metrics": outcome.metrics,
            }
        elif outcome.ok:
            job.result = outcome.results[job.kind]
        else:
            job.error = {"code": "E_INTERNAL", "message": outcome.errors[job.kind]}
        job.state = "done" if job.error is None else "failed"
