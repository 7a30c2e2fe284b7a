"""Campaign planning: spec -> validated job DAG.

Dependencies come from each job's explicit ``needs`` plus the implicit
edge a ``design_from`` param creates (a job consuming another job's
optimized design must run after it).  Planning validates that every
referenced job exists and that the graph is acyclic, and fixes a
deterministic topological order (Kahn's algorithm with lexicographic
tie-breaking) so scheduling, event logs, and reports are reproducible
run to run.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.campaign.spec import CampaignSpec, JobSpec, SpecError

__all__ = ["Plan", "build_plan"]


@dataclasses.dataclass(frozen=True)
class Plan:
    """Validated DAG of a campaign's jobs.

    ``needs`` / ``dependents`` are the closed edge maps (explicit plus
    implicit edges); ``order`` is the deterministic topological order.
    """

    spec: CampaignSpec
    needs: dict[str, tuple[str, ...]]
    dependents: dict[str, tuple[str, ...]]
    order: tuple[str, ...]

    def job(self, job_id: str) -> JobSpec:
        return self.spec.job(job_id)

    def transitive_dependents(self, job_id: str) -> tuple[str, ...]:
        """Every job downstream of ``job_id``, in topological order."""
        hit: set[str] = set()
        frontier = deque(self.dependents[job_id])
        while frontier:
            j = frontier.popleft()
            if j in hit:
                continue
            hit.add(j)
            frontier.extend(self.dependents[j])
        return tuple(j for j in self.order if j in hit)


def _edges(spec: CampaignSpec) -> dict[str, set[str]]:
    ids = {j.id for j in spec.jobs}
    needs: dict[str, set[str]] = {}
    for job in spec.jobs:
        deps = set(job.needs)
        src = job.params.get("design_from")
        if src is not None:
            deps.add(src)
        unknown = deps - ids
        if unknown:
            raise SpecError(
                f"job {job.id!r} depends on unknown job(s) {sorted(unknown)}"
            )
        if job.id in deps:
            raise SpecError(f"job {job.id!r} depends on itself")
        needs[job.id] = deps
    return needs


def build_plan(spec: CampaignSpec) -> Plan:
    """Expand and validate ``spec`` into an executable :class:`Plan`."""
    needs = _edges(spec)
    dependents: dict[str, set[str]] = {j.id: set() for j in spec.jobs}
    for job_id, deps in needs.items():
        for dep in deps:
            dependents[dep].add(job_id)

    # Kahn's algorithm; the ready set is kept sorted so the order is a
    # pure function of the spec.
    in_deg = {job_id: len(deps) for job_id, deps in needs.items()}
    ready = sorted(job_id for job_id, d in in_deg.items() if d == 0)
    order: list[str] = []
    while ready:
        job_id = ready.pop(0)
        order.append(job_id)
        newly = []
        for dep in dependents[job_id]:
            in_deg[dep] -= 1
            if in_deg[dep] == 0:
                newly.append(dep)
        if newly:
            ready = sorted(ready + newly)
    if len(order) != len(spec.jobs):
        stuck = sorted(job_id for job_id, d in in_deg.items() if d > 0)
        raise SpecError(f"dependency cycle among job(s) {stuck}")

    return Plan(
        spec=spec,
        needs={job_id: tuple(sorted(deps)) for job_id, deps in needs.items()},
        dependents={job_id: tuple(sorted(d)) for job_id, d in dependents.items()},
        order=tuple(order),
    )
