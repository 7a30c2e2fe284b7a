"""Render a completed campaign run into ``results/`` tables.

Reads the run directory (manifest + persisted job results + event log)
and writes one plain-text file per job plus a campaign ``SUMMARY.txt``
under ``<out_dir>/campaign_<name>/``.  :func:`render_result` holds the
one text form of each kind's result; the CLI's compute subcommands
print it too, so a report shows a result exactly as ``repro sweep``,
``retention``, ``bler --empirical``, ``fleet`` or ``capacity`` does.
Also used by ``repro campaign report`` / ``status`` for terminal output.
"""

from __future__ import annotations

import pathlib
from typing import Any, Mapping, Sequence

from repro.campaign.events import read_events
from repro.campaign.store import RunStore

__all__ = ["render_job", "render_result", "render_summary", "write_report"]


def _table(
    title: str, header: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    rows = [[str(c) for c in row] for row in rows]
    header = [str(h) for h in header]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _time_labels(times_s: Sequence[float]) -> list[str]:
    from repro.montecarlo.sweep import PAPER_TIME_GRID_S, PAPER_TIME_LABELS

    if list(times_s) == list(PAPER_TIME_GRID_S):
        return list(PAPER_TIME_LABELS)
    return [f"{t:.3G}s" for t in times_s]


def _render_sweep(result: Mapping[str, Any]) -> str:
    series = result["series"]
    lines = ["  ".join(["time".rjust(9)] + [n.rjust(9) for n in series])]
    for i, label in enumerate(_time_labels(result["times_s"])):
        row = [f"{series[n][i]:.2E}".rjust(9) for n in series]
        lines.append("  ".join([label.rjust(9)] + row))
    n = result["n_samples"] // len(series)
    lines.append(f"({n:,} cells/curve, MC floor {1.0 / n:.1E})")
    return "\n".join(lines) + "\n"


def _render_cer(result: Mapping[str, Any]) -> str:
    name = result["design"]["name"] + (f"/{result['state']}" if "state" in result else "")
    return f"{name} CER\n" + _render_sweep({**result, "series": {name: result["cer"]}})


def _render_mapping(result: Mapping[str, Any]) -> str:
    d = result["design"]
    lines = [
        f"optimized mapping {d['name']}",
        f"  levels:     {' '.join(f'{m:.4f}' for m in d['mu_lrs'])}",
        f"  thresholds: {' '.join(f'{t:.4f}' for t in d['thresholds'])}",
        f"  occupancy:  {' '.join(f'{p:.2f}' for p in d['occupancy'])}",
        f"  CER at eval times: {result['cer_at_eval']:.2E} "
        f"(naive start {result['start_cer']:.2E}, "
        f"improvement x{result['improvement']:.3G})",
    ]
    if result.get("mc_cer_at_eval") is not None:
        lines.append(f"  MC confirmation: {result['mc_cer_at_eval']:.2E}")
    return "\n".join(lines) + "\n"


def _render_retention(r: Mapping[str, Any]) -> str:
    if r["retention_years"] >= 1:
        horizon = f"{r['retention_years']:.1f} years"
    elif r["retention_s"] >= 86400:
        horizon = f"{r['retention_s'] / 86400:.1f} days"
    else:
        horizon = f"{r['retention_s'] / 60:.1f} minutes"
    lines = [
        f"{r['design']['name']} + BCH-{r['ecc_t']} ({r['n_cells']} cells): refresh "
        f"every {horizon} (CER {r['cer_at_retention']:.2E}, "
        f"BLER {r['bler_at_retention']:.2E} vs target {r['target_bler']:.2E})",
        f"nonvolatile (>10 years): {'yes' if r['nonvolatile'] else 'no'}",
    ]
    if "mc_cer_at_retention" in r:
        n = r["n_samples"]
        lines.append(
            f"MC check at retention: CER {r['mc_cer_at_retention']:.2E} "
            f"({n:,} cells, floor {1.0 / n:.1E}) "
            f"vs analytic {r['cer_at_retention']:.2E}"
        )
    return "\n".join(lines) + "\n"


def _render_bler(res: Mapping[str, Any]) -> str:
    lines = [f"{'CER':>10} {'empirical':>11} {'95% CI':>26} {'analytic':>11} {'in CI':>5}"]
    for pt in res["points"]:
        lo, hi = pt["ci95"]
        lines.append(
            f"{pt['cer']:>10.3E} {pt['bler']:>11.4E} "
            f"[{lo:.4E}, {hi:.4E}] {pt['analytic']:>11.4E} "
            f"{'yes' if pt['analytic_in_ci'] else 'NO':>5}"
        )
    lines.append(
        f"({res['n_blocks']:,} blocks/point through the batched 3-ON-2 "
        f"datapath, {res['n_mlc_cells']} MLC cells/block; "
        f"{sum(pt['n_silent'] for pt in res['points']):,} silent escapes total)"
    )
    return "\n".join(lines) + "\n"


def _render_fleet(d: Mapping[str, Any]) -> str:
    t = d["totals"]
    life = "  ".join(
        f"{k}={'>' + str(d['n_epochs'] - 1) if v is None else v}"
        for k, v in d["lifetime_epochs"].items()
    )
    lines = [
        f"  demand writes {t['writes']:,}  refreshes {t['refreshes']:,}  "
        f"maintenance reads {t['reads']:,}",
        f"  wearout marks {t['wearout_marks']:,}  retries {t['write_retries']:,}  "
        f"deaths {d['n_dead']:,} ({d['n_dead'] / d['n_devices']:.1%})",
        f"  uncorrectable {t['uncorrectable']:,}  silent {t['silent']:,} "
        f"(rate {d['silent_error_rate']:.2E}/read)",
        f"  lifetime epochs: {life}",
        "  hazard/epoch:    " + "  ".join(f"{h:.3f}" for h in d["hazard"]),
        f"  energy: writes {d['write_energy_nj'] / 1e3:.1f} uJ, "
        f"maintenance {d['refresh_energy_nj'] / 1e3:.1f} uJ",
    ]
    return "\n".join(lines) + "\n"


def _render_capacity(result: Mapping[str, Any]) -> str:
    return "".join(
        f"{name:>12}: {c['data_cells']} data + {c['overhead_cells']} overhead "
        f"= {c['total_cells']} cells -> {c['bits_per_cell']:.3f} bits/cell\n"
        for name, c in result["capacities"].items()
    )


_RENDERERS = {
    "fig3_sweep": _render_sweep,
    "fig8_sweep": _render_sweep,
    "state_cer": _render_cer,
    "design_cer": _render_cer,
    "mapping_opt": _render_mapping,
    "retention": _render_retention,
    "bler_mc": _render_bler,
    "fleet": _render_fleet,
    "capacity": _render_capacity,
}


def render_result(kind: str, result: Mapping[str, Any]) -> str:
    """One ``kind`` job's result as text (JSON for a kind without a table).

    The CLI's compute subcommands print these, so a campaign report and
    the CLI show a result the same way.
    """
    render = _RENDERERS.get(kind)
    if render is None:
        import json

        return json.dumps(dict(result), indent=2, sort_keys=True) + "\n"
    return render(result)


def render_job(job_id: str, kind: str, result: Mapping[str, Any]) -> str:
    """Human-readable rendering of one completed job's result."""
    return f"{job_id} ({kind})\n\n{render_result(kind, result)}"


def render_summary(store: RunStore) -> str:
    """Campaign-level summary: job states, counters, throughput."""
    manifest = store.read_manifest()
    status = store.read_status() or {}
    states: Mapping[str, str] = status.get("states", {})
    kinds = {j["id"]: j["kind"] for j in manifest["spec"]["job"]}
    rows = [
        [job_id, kinds.get(job_id, "?"), states.get(job_id, "pending")]
        for job_id in manifest["order"]
    ]
    text = _table(
        f"campaign {manifest['spec']['name']} — {store.run_dir}",
        ["job", "kind", "state"],
        rows,
    )
    metrics = status.get("metrics")
    if metrics:
        text += (
            f"\njobs: {metrics.get('done', 0)} done, "
            f"{metrics.get('cached', 0)} cached, "
            f"{metrics.get('failed', 0)} failed, "
            f"{metrics.get('blocked', 0)} blocked of {metrics.get('total', 0)}"
            f" | {metrics.get('samples', 0):,} MC samples"
            f" ({metrics.get('samples_per_s', 0):,.0f}/s)"
        )
        if metrics.get("cache_hit_rate") is not None:
            text += f" | cache hit rate {100 * metrics['cache_hit_rate']:.0f}%"
        text += "\n"
    n_events = sum(1 for _ in read_events(store.events_path))
    text += f"event log: {n_events} events in {store.events_path}\n"
    return text


def write_report(
    store: RunStore, out_dir: str | pathlib.Path = "results"
) -> list[pathlib.Path]:
    """Write per-job tables + SUMMARY.txt; returns the written paths."""
    manifest = store.read_manifest()
    name = manifest["spec"]["name"]
    kinds = {j["id"]: j["kind"] for j in manifest["spec"]["job"]}
    target = pathlib.Path(out_dir) / f"campaign_{name}"
    target.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for job_id, result in store.completed_jobs().items():
        path = target / f"{job_id}.txt"
        path.write_text(render_job(job_id, kinds.get(job_id, "?"), result))
        written.append(path)
    summary = target / "SUMMARY.txt"
    summary.write_text(render_summary(store))
    written.append(summary)
    return written
