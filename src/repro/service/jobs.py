"""Async job manager: submit/poll long-running simulation work over HTTP.

BLER sweeps and campaigns take seconds to minutes — far past any sane
HTTP timeout — so the service runs them on a small worker pool and the
client polls ``GET /v1/jobs/<id>``.  Job state is the usual lattice
(``queued -> running -> done | failed``) with structured event codes on
every transition; campaign jobs additionally persist their run directory
through the existing :class:`~repro.campaign.store.RunStore`, so a
service-launched campaign is resumable with the offline CLI.

Job randomness is self-contained: each job carries its own ``seed`` and
never touches device state, so jobs and block I/O cannot perturb each
other's streams no matter how they interleave.
"""

from __future__ import annotations

import itertools
import pathlib
import threading
import traceback
from concurrent.futures import Future, ThreadPoolExecutor

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import SpecError, builtin_campaign
from repro.campaign.store import RunStore
from repro.fleet.config import config_from_params
from repro.fleet.mc import fleet_mc
from repro.montecarlo.bler_mc import bler_mc
from repro.service.codes import ServiceError

__all__ = ["JobManager"]

#: Job kinds accepted by ``POST /v1/jobs``.
KINDS = ("bler", "campaign", "fleet")

#: Hard cap on CER points per BLER job — keeps one request from pinning
#: a worker for hours; split larger sweeps across jobs.
_MAX_CER_POINTS = 64


def _parse_bler_params(params: dict) -> dict:
    cers = params.get("cers")
    if not isinstance(cers, (list, tuple)) or not cers:
        raise ServiceError("E_JOB_KIND", "bler job needs a non-empty 'cers' list")
    if len(cers) > _MAX_CER_POINTS:
        raise ServiceError(
            "E_JOB_KIND",
            f"bler job limited to {_MAX_CER_POINTS} CER points, got {len(cers)}",
        )
    try:
        cers = [float(c) for c in cers]
    except (TypeError, ValueError):
        raise ServiceError("E_JOB_KIND", "'cers' entries must be numbers")
    if any(not 0.0 <= c <= 1.0 for c in cers):
        raise ServiceError("E_JOB_KIND", "'cers' entries must be in [0, 1]")
    n_blocks = params.get("n_blocks", 1000)
    if not isinstance(n_blocks, int) or n_blocks < 1 or n_blocks > 10_000_000:
        raise ServiceError("E_JOB_KIND", "'n_blocks' must be an int in [1, 1e7]")
    seed = params.get("seed", 0)
    if not isinstance(seed, int):
        raise ServiceError("E_JOB_KIND", "'seed' must be an int")
    return {"cers": cers, "n_blocks": n_blocks, "seed": seed}


def _parse_campaign_params(params: dict) -> dict:
    name = params.get("name")
    if not isinstance(name, str) or not name:
        raise ServiceError("E_JOB_KIND", "campaign job needs a 'name' string")
    n_samples = params.get("n_samples")
    if n_samples is not None and (not isinstance(n_samples, int) or n_samples < 1):
        raise ServiceError("E_JOB_KIND", "'n_samples' must be a positive int")
    seed = params.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ServiceError("E_JOB_KIND", "'seed' must be an int")
    try:  # reject unknown campaign names at submit time (400, not a failed job)
        builtin_campaign(name, n_samples=n_samples, seed=seed)
    except SpecError as exc:
        raise ServiceError("E_JOB_KIND", str(exc))
    return {"name": name, "n_samples": n_samples, "seed": seed}


def _parse_fleet_params(params: dict) -> dict:
    n_devices = params.get("n_devices", 1000)
    if not isinstance(n_devices, int) or not 1 <= n_devices <= 200_000:
        raise ServiceError("E_JOB_KIND", "'n_devices' must be an int in [1, 2e5]")
    n_epochs = params.get("n_epochs", 3)
    if not isinstance(n_epochs, int) or not 1 <= n_epochs <= 100:
        raise ServiceError("E_JOB_KIND", "'n_epochs' must be an int in [1, 100]")
    preset = params.get("preset", "stress")
    if preset not in ("default", "stress"):
        raise ServiceError("E_JOB_KIND", "'preset' must be 'default' or 'stress'")
    seed = params.get("seed", 0)
    if not isinstance(seed, int):
        raise ServiceError("E_JOB_KIND", "'seed' must be an int")
    return {
        "n_devices": n_devices,
        "n_epochs": n_epochs,
        "preset": preset,
        "seed": seed,
    }


class _Job:
    def __init__(self, job_id: str, kind: str, params: dict):
        self.job_id = job_id
        self.kind = kind
        self.params = params
        self.state = "queued"
        self.result: dict | None = None
        self.error: dict | None = None
        self.future: Future | None = None

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
    """Runs bler/fleet/campaign jobs on a bounded pool; thread-safe registry."""

    def __init__(self, work_dir: str | pathlib.Path, *, max_workers: int = 2,
                 mc_jobs: int | None = 1):
        self.work_dir = pathlib.Path(work_dir)
        self.mc_jobs = mc_jobs
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-jobs"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._ids = itertools.count(1)
        self._closed = False

    # -- public API ----------------------------------------------------
    def submit(self, kind: str, params: dict) -> dict:
        """Validate and enqueue a job; returns its ACCEPTED descriptor."""
        if self._closed:
            raise ServiceError("E_SHUTTING_DOWN", "job manager is draining")
        if kind == "bler":
            clean = _parse_bler_params(params)
        elif kind == "campaign":
            clean = _parse_campaign_params(params)
        elif kind == "fleet":
            clean = _parse_fleet_params(params)
        else:
            raise ServiceError(
                "E_JOB_KIND",
                f"unknown job kind {kind!r}",
                {"kinds": list(KINDS)},
            )
        with self._lock:
            job = _Job(f"job-{next(self._ids):04d}", kind, clean)
            self._jobs[job.job_id] = job
            # Describe before the pool sees the job: a fast job could
            # otherwise already be running or done in its own reply.
            accepted = {"code": "ACCEPTED", **job.describe()}
            job.future = self._pool.submit(self._run, job)
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
            if job.kind == "bler":
                job.result = self._run_bler(job.params)
            elif job.kind == "fleet":
                job.result = self._run_fleet(job.params)
            else:
                job.result = self._run_campaign(job.job_id, job.params)
            job.state = "done"
        except ServiceError as exc:
            job.state = "failed"
            job.error = exc.payload()
        except Exception as exc:
            job.state = "failed"
            job.error = {
                "code": "E_INTERNAL",
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8),
            }

    def _run_bler(self, params: dict) -> dict:
        results = bler_mc(
            params["cers"],
            params["n_blocks"],
            params["seed"],
            jobs=self.mc_jobs,
        )
        return {
            "points": [
                {
                    "cer": r.cer,
                    "n_blocks": r.n_blocks,
                    "n_errors": r.n_errors,
                    "n_silent": r.n_silent,
                    "bler": r.bler,
                }
                for r in results
            ]
        }

    def _run_fleet(self, params: dict) -> dict:
        config = config_from_params(
            {"preset": params["preset"]}, params["n_devices"], params["n_epochs"]
        )
        summary = fleet_mc(config, seed=params["seed"], jobs=self.mc_jobs)
        return summary.to_dict()

    def _run_campaign(self, job_id: str, params: dict) -> dict:
        try:
            spec = builtin_campaign(
                params["name"], n_samples=params["n_samples"], seed=params["seed"]
            )
        except SpecError as exc:
            raise ServiceError("E_JOB_KIND", str(exc))
        run_dir = self.work_dir / job_id
        store = RunStore(run_dir)
        scheduler = CampaignScheduler(
            spec, store, mc_jobs=self.mc_jobs, progress=False
        )
        outcome = scheduler.run()
        return {
            "campaign": params["name"],
            "run_dir": str(run_dir),
            "ok": outcome.ok,
            "states": outcome.states,
            "metrics": outcome.metrics,
        }
