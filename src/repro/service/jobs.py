"""Job preparation and execution for the experiment service.

These functions run in the service's worker threads, not on the event
loop: :func:`prepare` does the (cached) calibration work needed to
fingerprint a job, and :func:`compute` evaluates a cache miss with the
record-plus-batch engine ``REPRO_BATCH=1`` selects on the CLI (one
commit-log walk for the whole trace x invocation grid, demoting
individual samples to the interpreter). Results are therefore
bit-identical to a serial CLI run of the same configuration, which is
what lets the store serve them to everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock
from typing import Callable, Dict, Optional, Tuple

from ..experiments.common import (
    BenchmarkResult,
    Environment,
    ExperimentSetup,
    _finish_result,
    _run_config_group,
    _run_sample,
    _sample_specs,
    _store_payload,
    calibrate_environment,
    measure_precise_cycles,
)
from ..store.cas import config_fingerprint
from ..workloads import make_workload
from ..workloads.base import Workload
from .protocol import JobSpec

#: Per-process cache of each workload's continuous-power precise cycle
#: count — the expensive half of calibration, independent of the grid
#: shape, so one measurement serves every job on that workload.
_precise_cycles: Dict[Tuple[str, str], int] = {}
_workloads: Dict[Tuple[str, str], Workload] = {}
_cache_lock = Lock()


@dataclass
class JobContext:
    """Everything :func:`compute` needs, resolved once per submission."""

    spec: JobSpec
    fingerprint: str
    workload: Workload
    setup: ExperimentSetup
    environment: Environment


def prepare(spec: JobSpec) -> JobContext:
    """Validate a spec and resolve its fingerprint + calibrated setup.

    Runs the workload's precise build once (cached per process) to size
    the storage capacitor — the same calibration every experiment
    module performs — so the fingerprint matches what a direct
    :func:`~repro.experiments.common.run_benchmark` of the same
    configuration would use."""
    spec.validate()
    wkey = (spec.workload, spec.scale)
    with _cache_lock:
        workload = _workloads.get(wkey)
        if workload is None:
            workload = _workloads[wkey] = make_workload(spec.workload, spec.scale)
        cycles = _precise_cycles.get(wkey)
    if cycles is None:
        cycles = measure_precise_cycles(workload)
        with _cache_lock:
            _precise_cycles[wkey] = cycles
    setup = spec.setup()
    environment = calibrate_environment(cycles, setup)
    fingerprint = config_fingerprint(
        spec.workload, spec.scale, spec.mode, spec.bits, spec.runtime,
        setup, environment,
    )
    return JobContext(
        spec=spec, fingerprint=fingerprint, workload=workload,
        setup=setup, environment=environment,
    )


def _sample_summary(run) -> dict:
    """The small dict a progressive event carries for one sample."""
    summary = {
        "wall_ms": run.wall_ms,
        "on_ms": run.on_ms,
        "outages": run.outages,
        "skim_taken": run.skim_taken,
        "error": run.error,
    }
    if run.accuracy is not None:
        summary["accuracy"] = run.accuracy
    return summary


def compute(
    ctx: JobContext,
    progress: Optional[Callable[[str, dict], None]] = None,
) -> dict:
    """Evaluate one cache miss; returns the store payload.

    When ``progress`` is given, the grid's **first sample** is executed
    eagerly on the interpreter and reported as a ``level-k`` event
    before the batched full-grid pass starts — that sample *is* the
    paper's anytime answer (output accepted at a skim point when one is
    armed), so a client holds a usable approximation while the other
    ``trace_count x invocations - 1`` samples refine it. The batch pass
    recomputes that lane bit-identically (enforced by the engine
    differential suite), so the preview costs one scalar sample and
    changes nothing in the final result."""
    spec = ctx.spec
    specs = _sample_specs(
        ctx.workload, spec.mode, spec.bits, spec.runtime,
        ctx.setup, ctx.environment, None,
    )
    if progress is not None and specs:
        first = _run_sample(specs[0])
        progress(
            "level-k",
            {
                "samples_done": 1,
                "samples_total": len(specs),
                "sample": _sample_summary(first),
            },
        )
    result = BenchmarkResult(spec.workload, spec.mode, spec.bits, spec.runtime)
    result.runs.extend(_run_config_group(specs))
    payload = _store_payload(result, ctx.fingerprint, spec.scale, ctx.setup)
    _finish_result(result, ctx.setup)
    return payload
