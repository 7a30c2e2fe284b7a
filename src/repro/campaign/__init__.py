"""Declarative, resumable experiment-campaign orchestration.

A *campaign* is the unit of a full paper reproduction: hundreds of
(design x time-grid x sample-count) Monte Carlo jobs plus the analytic
steps that consume them, expressed once as a declarative spec instead of
thirty ad-hoc scripts.  The package splits the problem into:

- :mod:`repro.campaign.spec` — the declarative spec (dict / TOML) and the
  built-in campaigns (``fig3``, ``fig8``, ``fig3_fig8``, ``retention``,
  ``bler``, ``fleet``, ``smoke``);
- :mod:`repro.campaign.plan` — expansion of a spec into a validated DAG
  of jobs with a deterministic topological order;
- :mod:`repro.campaign.jobs` — the job kinds, each declaring its params
  once and mapping them onto the existing engines; specs, ``POST
  /v1/jobs`` and the CLI's compute subcommands all go through it;
- :mod:`repro.campaign.scheduler` — bounded-concurrency execution with
  per-job retry + exponential backoff, failure isolation (failed jobs
  block their dependents, everything else completes), and crash-safe
  resume;
- :mod:`repro.campaign.store` — the run directory: atomic JSON manifest,
  per-job result files, status snapshot;
- :mod:`repro.campaign.events` — the append-only JSONL event log and the
  live progress line / throughput metrics;
- :mod:`repro.campaign.report` — rendering a completed run into
  ``results/`` tables.

Campaign jobs call straight into :func:`repro.montecarlo.cer.state_cer` /
:func:`~repro.montecarlo.cer.design_cer` with the spec's seeds, so their
numbers — and their persistent cache keys — are bit-identical to the
direct ``sweep`` code paths.
"""

from repro.campaign.plan import Plan, build_plan
from repro.campaign.scheduler import CampaignResult, CampaignScheduler
from repro.campaign.spec import (
    BUILTIN_CAMPAIGNS,
    CampaignSpec,
    JobSpec,
    builtin_campaign,
    campaign_from_dict,
    campaign_from_toml,
)
from repro.campaign.store import RunStore

__all__ = [
    "BUILTIN_CAMPAIGNS",
    "CampaignResult",
    "CampaignScheduler",
    "CampaignSpec",
    "JobSpec",
    "Plan",
    "RunStore",
    "build_plan",
    "builtin_campaign",
    "campaign_from_dict",
    "campaign_from_toml",
]
