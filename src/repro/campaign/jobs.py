"""Job kinds: the one place a kind is declared, checked and run.

:data:`KINDS` maps each kind to its runner and its declared params.
Campaign specs (checked at load), ``POST /v1/jobs`` (a one-job campaign)
and the CLI's compute subcommands (:func:`run_job`, no run directory)
all go through it.  :func:`resolve_params` checks a job's params and
fills the missing ones from the campaign ``defaults``, then the declared
default; semantic checks reuse the code that already makes them
(``design_by_name``, ``DesignSpace``, ``config_from_params``).

Runners call the existing analysis code with the context's seed, worker
count and shared :class:`ResultsCache`, exactly as the direct code paths
do, so results and persistent cache keys are bit-identical to running
the figures by hand.  Results are JSON-ready dicts, persisted per job
and fed to dependents (``design_from`` consumes the design a
``mapping_opt`` job produced); ``n_samples`` feeds the samples/sec
metric.  The ``fail`` kind always raises, for retry/failure drills.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.designs import design_by_name
from repro.fleet.config import CONFIG_PARAMS
from repro.mapping.constraints import DesignSpace
from repro.mapping.optimizer import DEFAULT_EVAL_TIME_S
from repro.montecarlo.sweep import PAPER_TIME_GRID_S

__all__ = [
    "KINDS",
    "REQUIRED",
    "JobContext",
    "JobKind",
    "Param",
    "DEFAULT_KEYS",
    "design_from_dict",
    "design_to_dict",
    "resolve_params",
    "run_job",
]

#: The default of a param every job must give.
REQUIRED = ...


@dataclasses.dataclass(frozen=True)
class Param:
    """One declared job param.

    ``type`` is ``int``, ``float``, ``bool``, ``str``, ``list[float]`` or
    ``list[str]`` (ints pass as floats, bools never as numbers).  A param
    the job omits takes the first campaign ``defaults`` key of
    ``fallback`` that is set, else ``default``; a ``None`` default also
    admits ``None``.  ``lo``/``hi`` bound a number or each list entry;
    ``max_len`` bounds a list, which is never empty.
    """

    name: str
    type: Any
    default: Any = REQUIRED
    fallback: tuple[str, ...] = ()
    lo: float | None = None
    hi: float | None = None
    max_len: int | None = None

    def check(self, value: Any) -> Any:
        """``value`` if it fits (floats as ``float``), else ``ValueError``."""
        if value is None and self.default is None:
            return None
        if getattr(self.type, "__origin__", None) is not list:
            return self._scalar(self.type, value)
        if not isinstance(value, (list, tuple)) or not value:
            raise ValueError(f"param {self.name!r} must be a non-empty {self.type}")
        if self.max_len is not None and len(value) > self.max_len:
            raise ValueError(f"param {self.name!r} takes at most {self.max_len} entries")
        return [self._scalar(self.type.__args__[0], v) for v in value]

    def _scalar(self, kind: type, v: Any) -> Any:
        accepted = (int, float) if kind is float else kind
        if not isinstance(v, accepted) or (isinstance(v, bool) and kind is not bool):
            raise ValueError(f"param {self.name!r} must be {kind.__name__}, got {v!r}")
        v = float(v) if kind is float else v
        if self.lo is not None and v < self.lo:
            raise ValueError(f"param {self.name!r} must be >= {self.lo}, got {v!r}")
        if self.hi is not None and v > self.hi:
            raise ValueError(f"param {self.name!r} must be <= {self.hi}, got {v!r}")
        return v


@dataclasses.dataclass(frozen=True)
class JobKind:
    """A kind's runner ``(params, ctx) -> dict``, its params, and its
    semantic check ``(params) -> Any``, which raises ``ValueError``."""

    run: Callable[[dict, "JobContext"], dict]
    params: tuple[Param, ...]
    check: Callable[[dict], Any] | None = None


@dataclasses.dataclass
class JobContext:
    """Execution-time context handed to every job runner.

    ``dep_results`` maps each dependency's job id to its (already
    completed) result dict.  ``mc_jobs`` is the Monte Carlo worker count
    forwarded to the executor; ``cache`` the shared results cache (or
    ``None``).
    """

    seed: int = 0
    defaults: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    mc_jobs: int | None = 1
    cache: Any = None
    dep_results: Mapping[str, Mapping[str, Any]] = dataclasses.field(
        default_factory=dict
    )


def resolve_params(
    kind: str, params: Mapping[str, Any], defaults: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """Every declared param of ``kind``, checked, from ``params`` and the
    campaign ``defaults``; raises ``ValueError`` naming the first fault."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r} (known: {', '.join(sorted(KINDS))})")
    declared = KINDS[kind].params
    unknown = set(params) - {p.name for p in declared}
    if unknown:
        raise ValueError(
            f"unknown param(s) {sorted(unknown)} for kind {kind!r} "
            f"(declared: {', '.join(p.name for p in declared) or 'none'})"
        )
    defaults = defaults or {}
    out: dict[str, Any] = {}
    for param in declared:
        keys = [k for k in param.fallback if k in defaults]
        value = params.get(param.name, defaults[keys[0]] if keys else param.default)
        if value is REQUIRED:
            raise ValueError(f"kind {kind!r} needs param {param.name!r}")
        out[param.name] = param.check(value)
    if KINDS[kind].check is not None:
        try:
            KINDS[kind].check(out)
        except KeyError as exc:  # design_by_name's unknown-name error
            raise ValueError(exc.args[0]) from None
    return out


def run_job(kind: str, params: Mapping[str, Any], ctx: JobContext) -> dict:
    """Resolve ``params`` against ``ctx.defaults``, run one ``kind`` job,
    and return its result as plain JSON-ready Python."""
    return _jsonable(KINDS[kind].run(resolve_params(kind, params, ctx.defaults), ctx))


def _jsonable(x):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, Mapping):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _mc(p: dict, ctx: JobContext) -> dict[str, Any]:
    """The seed/worker/cache keywords of every Monte Carlo engine."""
    return {"seed": ctx.seed + p["seed_offset"], "jobs": ctx.mc_jobs, "cache": ctx.cache}


def design_to_dict(design) -> dict:
    """JSON form of a :class:`~repro.core.levels.LevelDesign`."""
    return {
        "name": design.name,
        "state_names": list(design.state_names),
        "mu_lrs": [float(s.mu_lr) for s in design.states],
        "thresholds": [float(t) for t in design.thresholds],
        "occupancy": [float(p) for p in design.occupancy],
    }


def design_from_dict(d: Mapping[str, Any]):
    """Rebuild a :class:`LevelDesign` from :func:`design_to_dict` output."""
    from repro.core.levels import LevelDesign

    return LevelDesign.from_levels(
        d["name"],
        list(d["state_names"]),
        [float(m) for m in d["mu_lrs"]],
        thresholds=[float(t) for t in d["thresholds"]],
        occupancy=[float(p) for p in d["occupancy"]],
    )


def _check_design(p: dict) -> None:
    if (p["design"] is None) == (p["design_from"] is None):
        raise ValueError("give exactly one of 'design' and 'design_from'")
    if p["design"] is not None:
        design_by_name(p["design"])


def _check_state(p: dict) -> None:
    _check_design(p)
    if p["design"] is not None:
        n_levels = design_by_name(p["design"]).n_levels
        if p["state_index"] >= n_levels - 1:
            raise ValueError(
                f"state_index must name a drifting state of {p['design']} "
                f"(< {n_levels - 1}), got {p['state_index']}"
            )


def _design_for(p: dict, ctx: JobContext):
    """The job's target design: a canonical name or an upstream job's output."""
    src = p["design_from"]
    if src is None:
        return design_by_name(p["design"])
    result = ctx.dep_results.get(src)
    if result is None or "design" not in result:
        raise ValueError(f"dependency {src!r} produced no design")
    return design_from_dict(result["design"])


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------

def _sweep_result(sweep, n: int) -> dict:
    series = dict(sweep.series)
    return {"times_s": sweep.times_s, "series": series, "n_samples": n * len(series)}


def _run_fig3_sweep(p: dict, ctx: JobContext) -> dict:
    from repro.montecarlo.sweep import fig3_state_sweep

    n = p["n_samples"]
    sweep = fig3_state_sweep(n_samples=n, times_s=p["times_s"], **_mc(p, ctx))
    return _sweep_result(sweep, n)


def _run_fig8_sweep(p: dict, ctx: JobContext) -> dict:
    from repro.montecarlo.sweep import fig8_design_sweep

    designs = None
    if p["designs"] is not None:
        designs = {name: design_by_name(name) for name in p["designs"]}
    n = p["n_samples"]
    sweep = fig8_design_sweep(
        n_samples=n,
        times_s=p["times_s"],
        designs=designs,
        analytic_floor=p["analytic_floor"],
        **_mc(p, ctx),
    )
    return _sweep_result(sweep, n)


def _run_state_cer(p: dict, ctx: JobContext) -> dict:
    from repro.montecarlo.cer import state_cer

    design = _design_for(p, ctx)
    idx = p["state_index"]
    tau = design.upper_threshold(idx)
    if not np.isfinite(tau):
        raise ValueError(f"top state {idx} never drift-errs")
    res = state_cer(design.states[idx], tau, p["times_s"], p["n_samples"], **_mc(p, ctx))
    return {
        "design": design_to_dict(design),
        "state": design.states[idx].name,
        "times_s": res.times_s,
        "cer": res.cer,
        "n_samples": res.n_samples,
    }


def _run_design_cer(p: dict, ctx: JobContext) -> dict:
    from repro.montecarlo.cer import design_cer

    design = _design_for(p, ctx)
    res = design_cer(design, p["times_s"], p["n_samples"], **_mc(p, ctx))
    return {
        "design": design_to_dict(design),
        "times_s": res.times_s,
        "cer": res.cer,
        "n_samples": res.n_samples,
    }


def _run_mapping_opt(p: dict, ctx: JobContext) -> dict:
    from repro.mapping.optimizer import optimize_mapping

    mc_confirm = p["mc_confirm_samples"]
    mc = _mc(p, ctx)
    result = optimize_mapping(
        p["n_levels"],
        eval_time_s=p["eval_times_s"],
        occupancy=p["occupancy"],
        name=p["name"],
        mc_confirm_samples=mc_confirm,
        mc_seed=mc["seed"],
        mc_jobs=mc["jobs"],
        mc_cache=mc["cache"],
    )
    out = {
        "design": design_to_dict(result.design),
        "cer_at_eval": result.cer_at_eval,
        "eval_times_s": result.eval_times_s,
        "start_cer": result.start_cer,
        "improvement": result.improvement,
        "n_evaluations": result.n_evaluations,
        "mc_cer_at_eval": result.mc_cer_at_eval,
    }
    if mc_confirm:
        out["n_samples"] = mc_confirm
    return out


def _run_retention(p: dict, ctx: JobContext) -> dict:
    from repro.analysis.retention import retention_time_s
    from repro.cells.params import T0_SECONDS

    design = _design_for(p, ctx)
    r = retention_time_s(design, p["n_cells"], p["ecc_t"])
    out: dict[str, Any] = {
        "design": design_to_dict(design),
        "n_cells": p["n_cells"],
        "ecc_t": p["ecc_t"],
        "retention_s": r.retention_s,
        "retention_years": r.retention_years,
        "cer_at_retention": r.cer_at_retention,
        "bler_at_retention": r.bler_at_retention,
        "target_bler": r.target_bler,
        "nonvolatile": r.retention_years >= 10.0,
    }
    n = p["mc_verify"]
    if n and r.retention_s >= T0_SECONDS:
        from repro.montecarlo.cer import design_cer

        mc = design_cer(design, [min(r.retention_s, 1e12)], n, **_mc(p, ctx))
        out["mc_cer_at_retention"] = mc.cer[0]
        out["n_samples"] = n
    return out


def _bler_codec(p: dict):
    """The block geometry's codec; its BCH raises on a geometry too big."""
    from repro.coding.blockcodec import ThreeOnTwoBlockCodec

    return ThreeOnTwoBlockCodec(data_bits=p["data_bits"], n_spare_pairs=p["n_spare_pairs"])


def _run_bler_mc(p: dict, ctx: JobContext) -> dict:
    from repro.analysis.bler import block_error_rate
    from repro.montecarlo.bler_mc import bler_mc

    geometry = {"data_bits": p["data_bits"], "n_spare_pairs": p["n_spare_pairs"]}
    results = bler_mc(p["cers"], p["n_blocks"], **geometry, **_mc(p, ctx))
    n_cells = _bler_codec(p).n_mlc_cells
    points = []
    for r in results:
        lo, hi = r.confidence()
        analytic = block_error_rate(r.cer, n_cells, 1)
        points.append(
            {
                "cer": r.cer,
                "bler": r.bler,
                "n_errors": r.n_errors,
                "n_silent": r.n_silent,
                "ci95": [lo, hi],
                "analytic": analytic,
                "analytic_in_ci": bool(lo <= analytic <= hi),
            }
        )
    return {
        "n_blocks": p["n_blocks"],
        "n_mlc_cells": n_cells,
        "points": points,
        "n_samples": p["n_blocks"] * len(p["cers"]),
    }


def _fleet_config(p: dict):
    from repro.fleet.config import config_from_params

    return config_from_params(
        {k: p[k] for k in ("preset", *CONFIG_PARAMS)}, p["n_devices"], p["n_epochs"]
    )


def _run_fleet(p: dict, ctx: JobContext) -> dict:
    from repro.fleet.mc import fleet_mc

    summary = fleet_mc(_fleet_config(p), **_mc(p, ctx))
    # n_samples counts the device-epochs simulated.
    return {**summary.to_dict(), "n_samples": p["n_devices"] * p["n_epochs"]}


def _run_capacity(p: dict, ctx: JobContext) -> dict:
    from repro.analysis.capacity import TABLE3_CAPACITIES

    rows = {
        name: {
            "data_cells": c.data_cells,
            "overhead_cells": c.overhead_cells,
            "total_cells": c.total_cells,
            "bits_per_cell": c.bits_per_cell,
        }
        for name, c in TABLE3_CAPACITIES.items()
    }
    return {"capacities": rows}


def _run_fail(p: dict, ctx: JobContext) -> dict:
    """Always fails — the built-in failure-injection / retry drill kind."""
    raise RuntimeError(p["message"])


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

_SEED_OFFSET = Param("seed_offset", int, 0)
_MC = (
    Param("n_samples", int, 1_000_000, ("n_samples",), lo=1),
    Param("times_s", list[float], list(PAPER_TIME_GRID_S), ("times_s",)),
    _SEED_OFFSET,
)
_DESIGN = (Param("design", str, None), Param("design_from", str, None))

#: Caps on the fleet's size params, which ``FleetConfig`` bounds only
#: from below: a device shard's state grows with ``n_blocks``.
_FLEET_HI = {"n_blocks": 16, "ops_per_epoch": 64}

#: Every job kind, by name.  The size caps keep one request from pinning
#: a worker or exhausting memory: at most 64 CER points, 1e7 blocks per
#: point, 2e5 devices, 100 epochs, 16 blocks and 64 ops per epoch per
#: device, and a BLER block geometry its codec's BCH-1 can protect.
KINDS: dict[str, JobKind] = {
    "fig3_sweep": JobKind(_run_fig3_sweep, _MC),
    "fig8_sweep": JobKind(
        _run_fig8_sweep,
        (*_MC, Param("designs", list[str], None), Param("analytic_floor", bool, True)),
        lambda p: [design_by_name(name) for name in p["designs"] or ()],
    ),
    "state_cer": JobKind(
        _run_state_cer, (*_DESIGN, Param("state_index", int, lo=0), *_MC), _check_state
    ),
    "design_cer": JobKind(_run_design_cer, (*_DESIGN, *_MC), _check_design),
    "mapping_opt": JobKind(
        _run_mapping_opt,
        (Param("n_levels", int), Param("eval_times_s", list[float], [DEFAULT_EVAL_TIME_S]),
         Param("occupancy", list[float], None), Param("name", str, None),
         Param("mc_confirm_samples", int, 0, lo=0), _SEED_OFFSET),
        lambda p: DesignSpace(n_levels=p["n_levels"]),
    ),
    "retention": JobKind(
        _run_retention,
        (*_DESIGN, Param("n_cells", int, lo=1), Param("ecc_t", int, 1, lo=0),
         Param("mc_verify", int, 0, lo=0), _SEED_OFFSET),
        _check_design,
    ),
    "bler_mc": JobKind(
        _run_bler_mc,
        (
            Param("cers", list[float], [1e-3, 3e-3, 1e-2], lo=0.0, hi=1.0, max_len=64),
            Param("n_blocks", int, 1_000_000, ("n_blocks", "n_samples"), lo=1, hi=10**7),
            Param("data_bits", int, 512, lo=8),
            Param("n_spare_pairs", int, 6, lo=0),
            _SEED_OFFSET,
        ),
        _bler_codec,
    ),
    "fleet": JobKind(
        _run_fleet,
        (
            Param("n_devices", int, 10_000, ("n_devices", "n_samples"), hi=200_000),
            Param("n_epochs", int, 4, ("n_epochs",), hi=100),
            Param("preset", str, "default"),
            *(Param(name, t, None, hi=_FLEET_HI.get(name)) for name, t in CONFIG_PARAMS.items()),
            _SEED_OFFSET,
        ),
        _fleet_config,
    ),
    "capacity": JobKind(_run_capacity, ()),
    "fail": JobKind(_run_fail, (Param("message", str, "injected failure"),)),
}

#: The campaign ``defaults`` keys some param falls back to.
DEFAULT_KEYS = tuple(sorted({k for j in KINDS.values() for p in j.params for k in p.fallback}))
