"""Declarative campaign specs: what to run, not how to run it.

A spec is a plain dict (TOML-compatible) naming the campaign, the RNG
seed, campaign-wide defaults, the retry policy, and a list of jobs.  Each
job has a unique ``id``, a ``kind`` from :data:`repro.campaign.jobs.KINDS`,
``params`` that kind declares, and explicit dependencies via ``needs``
(plus the implicit dependency created by a ``design_from`` param — see
:mod:`repro.campaign.plan`).  Loading checks every job's params against
its kind's declaration, so a bad spec raises :class:`SpecError` before
anything runs; the spec itself keeps the params as written.

TOML form::

    name = "fig3_fig8"
    seed = 0

    [defaults]
    n_samples = 1000000

    [[job]]
    id = "fig8"
    kind = "fig8_sweep"

    [[job]]
    id = "retention-3LCo"
    kind = "retention"
    needs = ["fig8"]
    [job.params]
    design = "3LCo"
    ecc_t = 1
    n_cells = 354

The built-in campaigns (:data:`BUILTIN_CAMPAIGNS`) cover the paper's
Figure 3 and Figure 8 sweeps, the mapping-optimization -> design-CER ->
retention chain, the empirical end-to-end ``bler`` cross-validation of
the Figure 5 curves, a wear-accelerated ``fleet`` population run
(docs/FLEET.md), and a seconds-scale ``smoke`` spec for CI.
"""

from __future__ import annotations

import dataclasses
import tomllib
from typing import Any, Mapping, Sequence

from repro.campaign.jobs import DEFAULT_KEYS, resolve_params

__all__ = [
    "BUILTIN_CAMPAIGNS",
    "CampaignSpec",
    "JobSpec",
    "builtin_campaign",
    "campaign_from_dict",
    "campaign_from_toml",
]


class SpecError(ValueError):
    """A campaign spec failed validation."""


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One node of the campaign DAG."""

    id: str
    kind: str
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    needs: tuple[str, ...] = ()
    retries: int | None = None  #: overrides the campaign-wide retry count

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"id": self.id, "kind": self.kind}
        if self.params:
            d["params"] = dict(self.params)
        if self.needs:
            d["needs"] = list(self.needs)
        if self.retries is not None:
            d["retries"] = self.retries
        return d


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """A whole campaign: jobs plus seeds, defaults, and retry policy.

    ``defaults`` supplies fall-back job params (its keys are
    :data:`~repro.campaign.jobs.DEFAULT_KEYS`); a job's own ``params``
    win.  ``retries`` is the number of *re-attempts* after a failure
    (0 = run once); the delay before re-attempt ``k`` is
    ``backoff_s * backoff_factor**(k-1)`` capped at ``backoff_max_s``.
    """

    name: str
    jobs: tuple[JobSpec, ...]
    seed: int = 0
    defaults: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    retries: int = 0
    backoff_s: float = 0.5
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    max_parallel_jobs: int = 1

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form that :func:`campaign_from_dict` round-trips."""
        return {
            "name": self.name,
            "seed": self.seed,
            "defaults": dict(self.defaults),
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "backoff_factor": self.backoff_factor,
            "backoff_max_s": self.backoff_max_s,
            "max_parallel_jobs": self.max_parallel_jobs,
            "job": [j.to_dict() for j in self.jobs],
        }

    def job(self, job_id: str) -> JobSpec:
        for j in self.jobs:
            if j.id == job_id:
                return j
        raise KeyError(job_id)


_SPEC_KEYS = {
    "name", "seed", "defaults", "retries", "backoff_s", "backoff_factor",
    "backoff_max_s", "max_parallel_jobs", "job",
}
_JOB_KEYS = {"id", "kind", "params", "needs", "retries"}


def _job_from_dict(d: Mapping[str, Any], index: int, defaults: Mapping[str, Any]) -> JobSpec:
    if not isinstance(d, Mapping):
        raise SpecError(f"job #{index} must be a table/dict, got {type(d).__name__}")
    unknown = set(d) - _JOB_KEYS
    if unknown:
        raise SpecError(f"job #{index}: unknown key(s) {sorted(unknown)}")
    job_id = d.get("id")
    if not isinstance(job_id, str) or not job_id:
        raise SpecError(f"job #{index} needs a non-empty string 'id'")
    kind = d.get("kind")
    needs = d.get("needs", ())
    if isinstance(needs, str) or not all(isinstance(n, str) for n in needs):
        raise SpecError(f"job {job_id!r}: 'needs' must be a list of job ids")
    params = d.get("params", {})
    if not isinstance(params, Mapping):
        raise SpecError(f"job {job_id!r}: 'params' must be a table/dict")
    retries = d.get("retries")
    if retries is not None and (not isinstance(retries, int) or retries < 0):
        raise SpecError(f"job {job_id!r}: 'retries' must be a non-negative integer")
    try:
        resolve_params(kind, params, defaults)
    except ValueError as exc:
        raise SpecError(f"job {job_id!r}: {exc}") from None
    return JobSpec(
        id=job_id, kind=kind, params=dict(params), needs=tuple(needs), retries=retries
    )


def campaign_from_dict(d: Mapping[str, Any]) -> CampaignSpec:
    """Validate a plain dict (parsed TOML) into a :class:`CampaignSpec`."""
    unknown = set(d) - _SPEC_KEYS
    if unknown:
        raise SpecError(f"unknown campaign key(s) {sorted(unknown)}")
    name = d.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError("campaign needs a non-empty string 'name'")
    seed = d.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SpecError(f"'seed' must be an integer, got {seed!r}")
    defaults = d.get("defaults", {})
    if not isinstance(defaults, Mapping):
        raise SpecError("'defaults' must be a table/dict")
    unknown = set(defaults).difference(DEFAULT_KEYS)
    if unknown:
        raise SpecError(
            f"unknown defaults key(s) {sorted(unknown)} "
            f"(known: {', '.join(DEFAULT_KEYS)})"
        )
    raw_jobs = d.get("job", [])
    if not isinstance(raw_jobs, Sequence) or isinstance(raw_jobs, (str, bytes)):
        raise SpecError("'job' must be an array of tables")
    if not raw_jobs:
        raise SpecError("campaign has no jobs")
    jobs = tuple(_job_from_dict(j, i, defaults) for i, j in enumerate(raw_jobs))
    seen: set[str] = set()
    for j in jobs:
        if j.id in seen:
            raise SpecError(f"duplicate job id {j.id!r}")
        seen.add(j.id)
    retries = int(d.get("retries", 0))
    if retries < 0:
        raise SpecError("'retries' must be >= 0")
    max_parallel = int(d.get("max_parallel_jobs", 1))
    if max_parallel < 1:
        raise SpecError("'max_parallel_jobs' must be >= 1")
    return CampaignSpec(
        name=name,
        jobs=jobs,
        seed=seed,
        defaults=dict(defaults),
        retries=retries,
        backoff_s=float(d.get("backoff_s", 0.5)),
        backoff_factor=float(d.get("backoff_factor", 2.0)),
        backoff_max_s=float(d.get("backoff_max_s", 30.0)),
        max_parallel_jobs=max_parallel,
    )


def campaign_from_toml(path: str) -> CampaignSpec:
    """Load and validate a campaign spec from a TOML file."""
    with open(path, "rb") as f:
        return campaign_from_dict(tomllib.load(f))


# ----------------------------------------------------------------------
# Built-in campaigns
# ----------------------------------------------------------------------

def _fig3_fig8_jobs() -> list[dict[str, Any]]:
    return [
        {"id": "fig3", "kind": "fig3_sweep"},
        {"id": "fig8", "kind": "fig8_sweep"},
        {
            "id": "retention-4LCo",
            "kind": "retention",
            "needs": ["fig8"],
            "params": {"design": "4LCo", "ecc_t": 1, "n_cells": 306},
        },
        {
            "id": "retention-3LCo",
            "kind": "retention",
            "needs": ["fig8"],
            "params": {"design": "3LCo", "ecc_t": 1, "n_cells": 354},
        },
        {
            "id": "capacity",
            "kind": "capacity",
            "needs": ["retention-4LCo", "retention-3LCo"],
        },
    ]


def _retention_chain_jobs() -> list[dict[str, Any]]:
    # The full measurement-campaign shape: optimize the mapping, confirm
    # its CER by Monte Carlo, then solve retention for the winner.
    return [
        {
            "id": "mapping-4lc",
            "kind": "mapping_opt",
            "params": {
                "n_levels": 4,
                "occupancy": [0.35, 0.15, 0.15, 0.35],
                "name": "4LCo",
            },
        },
        {
            "id": "mapping-3lc",
            "kind": "mapping_opt",
            "params": {
                "n_levels": 3,
                "eval_times_s": [2.0**15, 2.0**25, 2.0**30],
                "name": "3LCo",
            },
        },
        {"id": "cer-4lc", "kind": "design_cer", "params": {"design_from": "mapping-4lc"}},
        {"id": "cer-3lc", "kind": "design_cer", "params": {"design_from": "mapping-3lc"}},
        {
            "id": "retention-4lc",
            "kind": "retention",
            "needs": ["cer-4lc"],
            "params": {"design_from": "mapping-4lc", "ecc_t": 1, "n_cells": 306},
        },
        {
            "id": "retention-3lc",
            "kind": "retention",
            "needs": ["cer-3lc"],
            "params": {"design_from": "mapping-3lc", "ecc_t": 1, "n_cells": 354},
        },
    ]


def _smoke_jobs() -> list[dict[str, Any]]:
    return [
        {"id": "fig3", "kind": "fig3_sweep"},
        {"id": "fig8", "kind": "fig8_sweep", "params": {"designs": ["4LCn", "3LCo"]}},
        {"id": "mapping-3lc", "kind": "mapping_opt", "params": {"n_levels": 3}},
        {
            "id": "cer-opt",
            "kind": "design_cer",
            "params": {"design_from": "mapping-3lc", "times_s": [2.0**15, 2.0**30]},
        },
        {
            "id": "retention-opt",
            "kind": "retention",
            "needs": ["cer-opt"],
            "params": {"design_from": "mapping-3lc", "ecc_t": 1, "n_cells": 354},
        },
    ]


#: Built-in campaign templates, keyed by the name ``--spec`` accepts.
BUILTIN_CAMPAIGNS: dict[str, dict[str, Any]] = {
    "fig3": {
        "name": "fig3",
        "defaults": {"n_samples": 1_000_000},
        "job": [{"id": "fig3", "kind": "fig3_sweep"}],
    },
    "fig8": {
        "name": "fig8",
        "defaults": {"n_samples": 1_000_000},
        "job": [{"id": "fig8", "kind": "fig8_sweep"}],
    },
    "fig3_fig8": {
        "name": "fig3_fig8",
        "defaults": {"n_samples": 1_000_000},
        "job": _fig3_fig8_jobs(),
    },
    "retention": {
        "name": "retention",
        "defaults": {"n_samples": 1_000_000},
        "job": _retention_chain_jobs(),
    },
    "bler": {
        "name": "bler",
        # n_samples doubles as the block count here, so --samples scales
        # the empirical run like every other built-in.
        "defaults": {"n_samples": 1_000_000},
        "job": [
            {
                "id": "bler-empirical",
                "kind": "bler_mc",
                "params": {"cers": [1e-3, 3e-3, 1e-2]},
            }
        ],
    },
    "fleet": {
        "name": "fleet",
        # n_samples doubles as the device count, so --samples scales the
        # population like every other built-in.  The stress preset
        # compresses wear so spare-exhaustion shows within a few epochs.
        "defaults": {"n_samples": 10_000},
        "job": [
            {
                "id": "fleet-population",
                "kind": "fleet",
                "params": {"n_epochs": 3, "preset": "stress"},
            }
        ],
    },
    "smoke": {
        "name": "smoke",
        "defaults": {"n_samples": 20_000},
        "max_parallel_jobs": 2,
        "job": _smoke_jobs(),
    },
}


def builtin_campaign(
    name: str, n_samples: int | None = None, seed: int | None = None
) -> CampaignSpec:
    """Instantiate a built-in campaign, optionally scaling its samples.

    ``n_samples``/``seed`` override the template's defaults — the hook the
    CLI uses for ``--samples``/``--seed`` without editing specs.
    """
    template = BUILTIN_CAMPAIGNS.get(name) if isinstance(name, str) else None
    if template is None:
        raise SpecError(
            f"unknown built-in campaign {name!r} "
            f"(known: {', '.join(sorted(BUILTIN_CAMPAIGNS))})"
        )
    d = {**template, "defaults": dict(template.get("defaults", {}))}
    if n_samples is not None:
        d["defaults"]["n_samples"] = n_samples
    if seed is not None:
        d["seed"] = seed
    return campaign_from_dict(d)
