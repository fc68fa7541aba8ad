"""Shared infrastructure for the paper-reproduction experiments.

Key calibration decision (documented in DESIGN.md): the paper's kernels
run for hundreds of milliseconds and span many capacitor charges; our
scaled-down kernels are shorter, so we scale the storage capacitor with
them to preserve the paper's regime of *multiple power outages per
input*. ``calibrate_environment`` sizes the capacitor so one full
charge funds ``1/charges_per_run`` of the precise kernel, and sets the
Clank watchdog safely below one charge (preventing re-execution
livelock).

The paper invokes each application 3 times on 9 voltage traces and
reports medians; :func:`run_benchmark` mirrors that.

Parallelism: the trace x invocation grid is embarrassingly parallel and
every sample is deterministic given (workload name, scale, mode, bits,
runtime, environment, trace index, invocation). Setting ``REPRO_JOBS=N``
(N > 1) fans the grid over N worker processes via
:class:`concurrent.futures.ProcessPoolExecutor`; results are merged in
grid order, so the output is identical to the serial run. With
``REPRO_JOBS`` unset (or 1) the original in-process loop runs —
bit-identical to the pre-parallel harness.

Engines: the live interpreter runs every sample by default and is the
oracle the other engine is tested against. ``REPRO_BATCH=1`` selects
record-plus-batch instead: each configuration's commit log is recorded
once and all its samples are walked as lanes of one batch
(:mod:`repro.runtime.batch_executor`), with bit-identical results.

Caching: with ``REPRO_STORE=<dir>`` every finished configuration is
persisted to (and served from) the global content-addressed result
store (:mod:`repro.store`), keyed by the sha256 of its canonical config
description — shared across runs, figure experiments, ``bench --grid``
and the experiment service. The key embeds the package/schema version,
so stale entries self-invalidate, and an interrupted grid resumes from
the configurations it already stored. ``REPRO_FAULTS`` disables the
store by design.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.anytime import AnytimeConfig, AnytimeKernel
from ..core.quality import nrmse
from ..errors import IncompleteRun, ProgressStall
from ..observability.ledger import LEDGER_ENV, merge_bucket_dicts
from ..observability.manifest import record_result
from ..observability.metrics import METRICS_ENV, Metrics
from ..observability.profiler import PROFILER
from ..observability.tracer import TRACER
from ..power.capacitor import Capacitor
from ..power.energy import EnergyModel
from ..power.harvester import paper_traces
from ..power.trace import PowerTrace
from ..runtime.batch_executor import run_batch_group
from ..runtime.executor import set_sample_deadline
from ..runtime.replay_executor import replay_intermittent
from ..sim.replay import ReplayDiverged, ReplayRecord, record_run
from ..store.cas import (
    STORE_ENV,
    ResultStore,
    config_fingerprint,
    result_payload,
)
from ..workloads.base import Workload

#: NVP per-cycle backup energy overhead (fraction).
NVP_BACKUP_OVERHEAD = 0.2


@dataclass
class ExperimentSetup:
    """Knobs shared by all experiments."""

    scale: str = "default"
    trace_count: int = 9
    invocations: int = 3
    trace_duration_ms: int = 3000
    trace_seed: int = 100
    charges_per_run: float = 12.0
    min_swing_cycles: int = 1000
    max_wall_ms: int = 2_000_000

    def traces(self) -> List[PowerTrace]:
        return paper_traces(
            count=self.trace_count,
            duration_ms=self.trace_duration_ms,
            base_seed=self.trace_seed,
        )


@dataclass
class Environment:
    """Calibrated power environment for one benchmark."""

    capacitor_f: float
    watchdog_cycles: int
    swing_cycles: int

    def capacitor(self) -> Capacitor:
        # v_max clamped at 3.3 V: harvester front ends limit the storage
        # voltage, which keeps charge sizes uniform (one swing each).
        return Capacitor(capacitance_f=self.capacitor_f, v_initial=3.0, v_max=3.3)


def calibrate_environment(
    precise_cycles: int,
    setup: ExperimentSetup,
    energy: Optional[EnergyModel] = None,
) -> Environment:
    """Size the capacitor so the precise run spans ~charges_per_run charges."""
    energy = energy or EnergyModel()
    swing_cycles = max(
        int(precise_cycles / setup.charges_per_run), setup.min_swing_cycles
    )
    swing_energy = energy.energy_for_cycles(swing_cycles)
    cap = Capacitor()  # for the voltage thresholds
    capacitance = 2.0 * swing_energy / (cap.v_on**2 - cap.v_off**2)
    watchdog = max(500, swing_cycles // 2)
    return Environment(
        capacitor_f=capacitance,
        watchdog_cycles=watchdog,
        swing_cycles=swing_cycles,
    )


@dataclass
class SampleRun:
    """One intermittent execution of one input sample.

    ``metrics`` carries the per-sample :class:`Metrics` rollup and
    ``ledger`` the forward-progress bucket split
    (:meth:`~repro.observability.ledger.ProgressLedger.bucket_dict`),
    both as plain dicts (pickle-friendly across the ``REPRO_JOBS``
    pool). They are excluded from equality/repr so differential
    comparisons — replay vs interpreter, serial vs parallel — keep
    comparing the six result fields only."""

    wall_ms: int
    on_ms: int
    active_cycles: int
    outages: int
    skim_taken: bool
    error: float
    #: Top-1 classification accuracy in [0, 1] for workloads with an
    #: accuracy hook (the NN inference family); None elsewhere. Part of
    #: equality: accuracy is a pure function of the outputs, so engines
    #: that agree on outputs must agree here too.
    accuracy: Optional[float] = None
    metrics: Optional[dict] = field(default=None, compare=False, repr=False)
    ledger: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass
class BenchmarkResult:
    """Median statistics over traces x invocations (one configuration)."""

    name: str
    mode: str  # "precise" | "swp" | "swv"
    bits: Optional[int]
    runtime: str  # "clank" | "nvp"
    runs: List[SampleRun] = field(default_factory=list)

    @property
    def median_wall_ms(self) -> float:
        return statistics.median(r.wall_ms for r in self.runs)

    @property
    def median_error(self) -> float:
        return statistics.median(r.error for r in self.runs)

    @property
    def median_accuracy(self) -> Optional[float]:
        """Median top-1 accuracy, or None for NRMSE-only workloads."""
        scores = [r.accuracy for r in self.runs if r.accuracy is not None]
        return statistics.median(scores) if scores else None

    @property
    def skim_rate(self) -> float:
        return sum(r.skim_taken for r in self.runs) / len(self.runs)

    def merged_metrics(self) -> Metrics:
        """Merge every sample's metrics into one configuration rollup.

        The merge is associative and order-independent for counters and
        histograms, so serial and ``REPRO_JOBS`` runs produce identical
        rollups (asserted in ``tests/test_observability.py``)."""
        merged = Metrics()
        for run in self.runs:
            if run.metrics:
                merged.merge(Metrics.from_dict(run.metrics))
        return merged

    def merged_ledger(self) -> Optional[dict]:
        """Merge every sample's progress-ledger buckets into one rollup.

        Bucket sums are associative integers/floats merged in grid
        order, so — like :meth:`merged_metrics` — serial and
        ``REPRO_JOBS`` runs produce identical rollups (asserted in
        ``tests/test_profiler_ledger.py``). ``None`` when no sample
        carried a ledger (ad-hoc pre-ledger SampleRuns)."""
        merged: Optional[dict] = None
        for run in self.runs:
            if run.ledger:
                merged = merge_bucket_dicts(merged, run.ledger)
        return merged


def build_anytime(workload: Workload, mode: str, bits: Optional[int] = None,
                  **config_kwargs) -> AnytimeKernel:
    """AnytimeKernel for a workload in the given mode."""
    config = AnytimeConfig(mode=mode, bits=bits, **config_kwargs)
    return AnytimeKernel(workload.kernel, config)


def measure_precise_cycles(workload: Workload) -> int:
    """Continuous-power runtime of the precise build (the baseline)."""
    return build_anytime(workload, "precise").run(workload.inputs).cycles


#: Set after the first invalid-``REPRO_JOBS`` warning so a run that
#: consults :func:`experiment_jobs` many times (once per benchmark in a
#: figure grid) warns exactly once. Worker processes inherit the
#: environment but never print: the parent validated first and each
#: worker's flag starts False only in a process that re-parses — which
#: is fine, because workers are only spawned when the value parsed.
_jobs_warning_emitted = False


def experiment_jobs() -> int:
    """Worker-process count from ``REPRO_JOBS`` (default 1 = serial).

    An unparseable value — and a parseable but meaningless one like
    ``0`` or a negative count — falls back to serial with a single
    stderr warning per process (not one per benchmark)."""
    global _jobs_warning_emitted
    raw = os.environ.get("REPRO_JOBS", "").strip()
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0  # flows into the same warn-once fallback below
    if jobs < 1:
        if not _jobs_warning_emitted:
            _jobs_warning_emitted = True
            print(
                f"repro: ignoring invalid REPRO_JOBS={raw!r} "
                "(want a positive integer); running serially",
                file=sys.stderr,
            )
        return 1
    return jobs


def experiment_batch() -> bool:
    """True when ``REPRO_BATCH=1``: run each configuration's whole
    trace x invocation grid as one lane-parallel batch over its commit
    log (:mod:`repro.runtime.batch_executor`), demoting individual
    samples to the interpreter whenever the batch cannot reproduce
    them exactly."""
    return os.environ.get("REPRO_BATCH", "").strip() == "1"


#: Warn-once latches for the robustness knobs, mirroring
#: ``_jobs_warning_emitted``: an invalid value degrades to "knob off"
#: with a single stderr line per process, never a crash.
_timeout_warning_emitted = False
_faults_warning_emitted = False


def experiment_sample_timeout() -> Optional[float]:
    """Per-sample wall-clock budget in seconds from
    ``REPRO_SAMPLE_TIMEOUT`` (``None`` = no timeout).

    The budget is enforced *cooperatively*: :func:`_sample_bracket` arms
    the executor deadline (:func:`~repro.runtime.executor.set_sample_deadline`)
    so a pathological sample raises a typed
    :class:`~repro.errors.SampleTimeout` inside its own process instead
    of hanging a ``REPRO_JOBS`` worker forever."""
    global _timeout_warning_emitted
    raw = os.environ.get("REPRO_SAMPLE_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        timeout = 0.0
    if timeout <= 0:
        if not _timeout_warning_emitted:
            _timeout_warning_emitted = True
            print(
                f"repro: ignoring invalid REPRO_SAMPLE_TIMEOUT={raw!r} "
                "(want a positive number of seconds); no sample timeout",
                file=sys.stderr,
            )
        return None
    return timeout


def experiment_faults() -> Optional[int]:
    """Chaos seed from ``REPRO_FAULTS`` (``None`` = faults off).

    When set, every grid sample swaps its paper power trace for a
    seeded adversarial trace from the fault engine's fuzzer
    (burst-outage or knife-edge, alternating per sample), so any
    experiment — including a full figure grid — can be re-run under
    hostile power without touching its code. The swap is a pure
    function of (seed, trace index, invocation): deterministic and
    identical across serial and ``REPRO_JOBS`` runs."""
    global _faults_warning_emitted
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        if not _faults_warning_emitted:
            _faults_warning_emitted = True
            print(
                f"repro: ignoring invalid REPRO_FAULTS={raw!r} "
                "(want an integer seed); faults disabled",
                file=sys.stderr,
            )
        return None


def experiment_store() -> Optional[ResultStore]:
    """The content-addressed result store from ``REPRO_STORE``.

    ``None`` when the variable is unset — or when ``REPRO_FAULTS`` is
    armed: chaos runs exist to stress recompute paths with adversarial
    power, so they bypass the cache by design (their results must never
    be served to a normal run, nor vice versa)."""
    raw = os.environ.get(STORE_ENV, "").strip()
    if not raw or experiment_faults() is not None:
        return None
    return ResultStore(raw)


def _fault_trace(seed: int, spec: "SampleSpec") -> PowerTrace:
    """The adversarial replacement trace for one sample under
    ``REPRO_FAULTS`` — seeded per (trace index, invocation) so the grid
    keeps its per-sample diversity."""
    from ..fault.fuzz import burst_outage_trace, knife_edge_trace

    sample_seed = (
        seed * 1_000_003 + spec.trace_index * 131 + spec.invocation
    ) & 0x7FFFFFFF
    if sample_seed % 2:
        return knife_edge_trace(sample_seed, duration_ms=spec.trace_duration_ms)
    return burst_outage_trace(sample_seed, duration_ms=spec.trace_duration_ms)


@dataclass(frozen=True)
class SampleSpec:
    """Everything a worker process needs to reproduce one grid sample.

    Only primitives: specs cross the pickle boundary. Traces and
    workloads are regenerated in the worker from their seeds/names
    (both are deterministic) and cached per process.
    """

    workload_name: str
    scale: str
    mode: str
    bits: Optional[int]
    runtime: str
    trace_index: int
    invocation: int
    capacitor_f: float
    watchdog_cycles: int
    trace_count: int
    trace_duration_ms: int
    trace_seed: int
    max_wall_ms: int
    reference: Optional[Tuple[float, ...]] = None


# Per-process caches: workers in a pool handle many samples of the same
# configuration, so the expensive rebuilds happen once per process.
_worker_workloads: Dict[Tuple[str, str], Tuple[Workload, Tuple[float, ...]]] = {}
_worker_kernels: Dict[Tuple[str, str, str, Optional[int]], AnytimeKernel] = {}
_worker_traces: Dict[Tuple[int, int, int], List[PowerTrace]] = {}
#: Commit logs for the batch engine, one per kernel configuration (the
#: instruction stream is input-deterministic, so every trace x
#: invocation sample of a configuration shares the same log).
_worker_records: Dict[Tuple[str, str, str, Optional[int]], ReplayRecord] = {}
#: One lock per kernel configuration, so threads sharing this process
#: (the experiment service's workers) record each log once.
_record_locks: Dict[Tuple[str, str, str, Optional[int]], threading.Lock] = {}


#: Bytes one register-file backup writes (16 regs + PSR + PC, one NVM
#: word each) — mirrors ``Checkpoint.size_words``.
_CHECKPOINT_BYTES = (16 + 1 + 1) * 4


def _sample_metrics(
    run, engine: str, fallback: bool, error: float,
    accuracy: Optional[float] = None, recorder: Optional[str] = None,
) -> dict:
    """The per-sample :class:`Metrics` rollup, as a picklable dict.

    Built once per finished sample (cold path), so it is collected
    unconditionally — ``REPRO_METRICS`` only gates whether the parent
    *writes* the merged rollups anywhere. ``recorder`` names the
    recorder that wrote the commit log a replayed sample consumed.
    """
    result = run.result
    stats = result.runtime_stats
    metrics = Metrics()
    metrics.count("samples")
    metrics.count(f"engine.{engine}")
    if recorder is not None:
        metrics.count(f"engine.record.{recorder}")
    if fallback:
        metrics.count("replay_fallbacks")
    metrics.count("outages", result.outages)
    metrics.count("checkpoints", stats.checkpoints)
    metrics.count("checkpoint_bytes", stats.checkpoints * _CHECKPOINT_BYTES)
    metrics.count("restores", stats.restores)
    metrics.count("war_violations", stats.war_violations)
    metrics.count("watchdog_checkpoints", stats.watchdog_checkpoints)
    if result.skim_taken:
        metrics.count("skims_taken")
    metrics.observe("wall_ms", result.wall_ms)
    metrics.observe("on_ms", result.on_ms)
    metrics.observe("active_cycles", result.active_cycles)
    # One "on period" per power cycle: outages + the final completing one.
    metrics.observe(
        "cycles_per_on_period", result.active_cycles / (result.outages + 1)
    )
    metrics.observe("checkpoint_cycles", stats.checkpoint_cycles)
    metrics.observe("restore_cycles", stats.restore_cycles)
    metrics.observe("error", error)
    if accuracy is not None:
        metrics.observe("accuracy", accuracy)
    return metrics.to_dict()


@dataclass
class _Config:
    """What every sample of one configuration shares, rebuilt from a spec."""

    workload: Workload
    reference: Tuple[float, ...]
    kernel: AnytimeKernel
    traces: List[PowerTrace]


def _config_context(spec: SampleSpec) -> _Config:
    """Rebuild the workload, kernel and paper traces of ``spec``'s
    configuration, cached per process."""
    from ..workloads import make_workload

    wkey = (spec.workload_name, spec.scale)
    built = _worker_workloads.get(wkey)
    if built is None:
        workload = make_workload(spec.workload_name, spec.scale)
        built = _worker_workloads.setdefault(
            wkey, (workload, tuple(workload.decoded_reference()))
        )
    workload, default_reference = built
    kkey = (spec.workload_name, spec.scale, spec.mode, spec.bits)
    kernel = _worker_kernels.get(kkey)
    if kernel is None:
        kernel = _worker_kernels.setdefault(
            kkey, build_anytime(workload, spec.mode, spec.bits)
        )
    tkey = (spec.trace_count, spec.trace_duration_ms, spec.trace_seed)
    traces = _worker_traces.get(tkey)
    if traces is None:
        traces = _worker_traces.setdefault(
            tkey,
            paper_traces(
                count=spec.trace_count,
                duration_ms=spec.trace_duration_ms,
                base_seed=spec.trace_seed,
            ),
        )
    reference = spec.reference if spec.reference is not None else default_reference
    return _Config(workload, reference, kernel, traces)


def _config_record(spec: SampleSpec, config: _Config) -> ReplayRecord:
    """The configuration's commit log, recorded once per process."""
    kkey = (spec.workload_name, spec.scale, spec.mode, spec.bits)
    record = _worker_records.get(kkey)
    if record is not None:
        return record
    with _record_locks.setdefault(kkey, threading.Lock()):
        record = _worker_records.get(kkey)
        if record is None:
            record = record_run(config.kernel, config.workload.inputs)
            if TRACER.enabled:
                TRACER.emit(
                    "record_run", workload=spec.workload_name,
                    mode=spec.mode, bits=spec.bits,
                    replayable=record.replayable,
                    reason=record.reason or None, length=record.length,
                    recorder=record.recorder,
                )
            if PROFILER.enabled and record.replayable:
                # One folded profile per configuration (the replayed
                # samples all consume this same recorded stream).
                program = config.kernel.compiled.program
                PROFILER.collect_record(
                    record, program, f"{program.name}/{spec.runtime}"
                )
            _worker_records[kkey] = record
    return record


def _sample_args(spec: SampleSpec, config: _Config) -> dict:
    """Keyword arguments of one sample's intermittent run, shared by
    ``AnytimeKernel.run_intermittent`` and a batch lane. Under
    ``REPRO_FAULTS`` the paper trace is swapped for an adversarial one."""
    trace = config.traces[spec.trace_index]
    faults_seed = experiment_faults()
    if faults_seed is not None:
        trace = _fault_trace(faults_seed, spec)
    return dict(
        trace=trace,
        runtime=spec.runtime,
        capacitor=Capacitor(capacitance_f=spec.capacitor_f, v_initial=3.0, v_max=3.3),
        energy_model=EnergyModel(
            backup_overhead=NVP_BACKUP_OVERHEAD if spec.runtime == "nvp" else 0.0
        ),
        start_tick=spec.invocation * 313,
        max_wall_ms=spec.max_wall_ms,
        watchdog_cycles=(
            spec.watchdog_cycles if spec.runtime in ("clank", "progress") else None
        ),
    )


@contextmanager
def _sample_bracket(spec: SampleSpec, timeout: Optional[float]):
    """Open one sample: its ``sample_start`` trace event and, when
    ``REPRO_SAMPLE_TIMEOUT`` is armed, its cooperative wall-clock
    deadline — a pathological sample then raises a typed
    :class:`~repro.errors.SampleTimeout` instead of hanging its worker.
    :func:`_grade` emits the matching ``sample_end``."""
    if TRACER.enabled:
        TRACER.emit(
            "sample_start", workload=spec.workload_name, scale=spec.scale,
            mode=spec.mode, bits=spec.bits, runtime=spec.runtime,
            trace=spec.trace_index, invocation=spec.invocation,
        )
    if timeout is None:
        yield
        return
    set_sample_deadline(time.monotonic() + timeout)
    try:
        yield
    finally:
        set_sample_deadline(None)


def _grade(
    spec: SampleSpec,
    config: _Config,
    args: dict,
    run,
    engine: str,
    fallback: bool = False,
    recorder: Optional[str] = None,
) -> SampleRun:
    """Grade one finished intermittent run into a :class:`SampleRun`.

    Shared by both engines, so they produce identical completion
    errors, metrics and ledger rollups. The ledger is priced at the
    sample's energy model (NVP's backup tax included), so energy
    buckets sum to the sample's total energy exactly."""
    if not run.result.completed:
        raise IncompleteRun(
            f"{spec.workload_name} [{spec.mode}/{spec.runtime}] did not "
            f"complete on trace {args['trace'].name!r} within "
            f"{spec.max_wall_ms} ms",
            outages=run.result.outages,
            active_cycles=run.result.active_cycles,
        )
    workload = config.workload
    decoded = workload.decode(run.outputs)
    error = nrmse(config.reference, decoded)
    accuracy = workload.accuracy(decoded) if workload.accuracy else None
    if TRACER.enabled:
        TRACER.emit(
            "sample_end", engine=engine, completed=run.result.completed,
            skim_taken=run.result.skim_taken, wall_ms=run.result.wall_ms,
        )
    return SampleRun(
        wall_ms=run.result.wall_ms,
        on_ms=run.result.on_ms,
        active_cycles=run.result.active_cycles,
        outages=run.result.outages,
        skim_taken=run.result.skim_taken,
        error=error,
        accuracy=accuracy,
        metrics=_sample_metrics(
            run, engine, fallback, error, accuracy, recorder
        ),
        ledger=run.result.ledger.bucket_dict(
            args["energy_model"].energy_per_cycle
        ),
    )


def _interpret(
    spec: SampleSpec, config: _Config, args: dict, fallback: bool = False
) -> SampleRun:
    """Run one sample on the live interpreter and grade it."""
    run = config.kernel.run_intermittent(config.workload.inputs, **args)
    return _grade(spec, config, args, run, "interp", fallback)


def _run_sample(spec: SampleSpec) -> SampleRun:
    """One grid sample on the live interpreter, the default engine."""
    with _sample_bracket(spec, experiment_sample_timeout()):
        config = _config_context(spec)
        return _interpret(spec, config, _sample_args(spec, config))


def _settle(
    spec: SampleSpec,
    config: _Config,
    args: dict,
    record: ReplayRecord,
    run,
    error: Optional[Exception] = None,
) -> SampleRun:
    """Grade one batch lane; a demoted lane's sample (or any sample of
    a non-replayable record) runs on the interpreter instead. Lanes are
    independent, so retrying one alone would only demote it again."""
    if run is not None:
        return _grade(spec, config, args, run, "batch", False, record.recorder)
    if TRACER.enabled:
        if not record.replayable:
            reason = f"not-replayable: {record.reason}"
        elif isinstance(error, ReplayDiverged):
            reason = f"diverged: {error}"
        else:
            reason = f"stalled: {error}"
        TRACER.emit("replay_fallback", reason=reason)
    return _interpret(spec, config, args, fallback=True)


def _run_config_group(specs: List[SampleSpec]) -> List[SampleRun]:
    """One configuration's grid on the record-plus-batch engine.

    All specs share (workload, scale, mode, bits, runtime) — they are
    one configuration's trace x invocation grid in grid order. The
    group records once and walks every sample as a lane of one batch.
    When event tracing or ``REPRO_SAMPLE_TIMEOUT`` is armed it walks
    them one lane at a time instead, so each sample keeps its own
    trace bracket and deadline. Returns samples in grid order."""
    if not specs:
        return []
    config = _config_context(specs[0])
    inputs = config.workload.inputs
    timeout = experiment_sample_timeout()
    if TRACER.enabled or timeout is not None:
        runs = []
        for spec in specs:
            with _sample_bracket(spec, timeout):
                args = _sample_args(spec, config)
                record = _config_record(spec, config)
                try:
                    run = replay_intermittent(config.kernel, record, inputs, **args)
                    error = None
                except (ReplayDiverged, ProgressStall) as exc:
                    run, error = None, exc
                runs.append(_settle(spec, config, args, record, run, error))
        return runs
    record = _config_record(specs[0], config)
    lane_args = [_sample_args(spec, config) for spec in specs]
    lanes = run_batch_group(config.kernel, record, inputs, lane_args)
    return [
        _settle(spec, config, args, record, run)
        for spec, args, run in zip(specs, lane_args, lanes)
    ]


def _run_group(specs: List[SampleSpec]) -> List[SampleRun]:
    """The pool's unit of work: one configuration's samples on the
    batch engine under ``REPRO_BATCH=1``, else each on the interpreter."""
    if experiment_batch():
        return _run_config_group(specs)
    return [_run_sample(spec) for spec in specs]


def _sample_run_to_dict(run: SampleRun) -> dict:
    """JSON encoding of one sample; floats survive the round trip
    bit-exactly (``json`` uses ``repr``-shortest encoding)."""
    return {
        "wall_ms": run.wall_ms,
        "on_ms": run.on_ms,
        "active_cycles": run.active_cycles,
        "outages": run.outages,
        "skim_taken": run.skim_taken,
        "error": run.error,
        "accuracy": run.accuracy,
        "metrics": run.metrics,
        "ledger": run.ledger,
    }


def _sample_run_from_dict(data: dict) -> SampleRun:
    """Inverse of :func:`_sample_run_to_dict`."""
    return SampleRun(
        wall_ms=data["wall_ms"],
        on_ms=data["on_ms"],
        active_cycles=data["active_cycles"],
        outages=data["outages"],
        skim_taken=data["skim_taken"],
        error=data["error"],
        accuracy=data.get("accuracy"),
        metrics=data.get("metrics"),
        ledger=data.get("ledger"),
    )


def _store_payload(
    result: "BenchmarkResult",
    fingerprint: str,
    scale: Optional[str],
    setup: ExperimentSetup,
) -> dict:
    """The store value for one finished configuration.

    Full sample list plus the merged metrics/ledger rollups and a small
    human-facing summary, so ``repro report --live`` and the service's
    cached responses never re-derive anything."""
    ledger = result.merged_ledger()
    config = {
        "workload": result.name,
        "scale": scale,
        "mode": result.mode,
        "bits": result.bits,
        "runtime": result.runtime,
        "trace_count": setup.trace_count,
        "invocations": setup.invocations,
        "samples": len(result.runs),
        "summary": {
            "median_wall_ms": result.median_wall_ms,
            "median_error": result.median_error,
            "median_accuracy": result.median_accuracy,
            "skim_rate": result.skim_rate,
        },
    }
    return result_payload(
        fingerprint,
        config,
        [_sample_run_to_dict(run) for run in result.runs],
        metrics=result.merged_metrics().to_dict(),
        ledger=ledger,
    )


def _store_lookup(
    store: Optional[ResultStore], fingerprint: Optional[str]
) -> Optional[List[SampleRun]]:
    """Cached samples for a fingerprint, or ``None`` (store off / miss).

    A torn or foreign entry is a miss, never an error: the
    configuration simply recomputes."""
    if store is None or fingerprint is None:
        return None
    payload = store.load(fingerprint)
    if payload is None:
        return None
    try:
        return [_sample_run_from_dict(entry) for entry in payload["runs"]]
    except (KeyError, TypeError):
        return None


def _sample_specs(
    workload: Workload,
    mode: str,
    bits: Optional[int],
    runtime: str,
    setup: ExperimentSetup,
    environment: Environment,
    reference: Optional[Sequence[float]],
) -> List[SampleSpec]:
    """The trace x invocation grid for one configuration, in grid order."""
    return [
        SampleSpec(
            workload_name=workload.name,
            scale=workload.scale,
            mode=mode,
            bits=bits,
            runtime=runtime,
            trace_index=trace_index,
            invocation=invocation,
            capacitor_f=environment.capacitor_f,
            watchdog_cycles=environment.watchdog_cycles,
            trace_count=setup.trace_count,
            trace_duration_ms=setup.trace_duration_ms,
            trace_seed=setup.trace_seed,
            max_wall_ms=setup.max_wall_ms,
            reference=None if reference is None else tuple(reference),
        )
        for trace_index in range(setup.trace_count)
        for invocation in range(setup.invocations)
    ]


def _map_groups(
    groups: List[List[SampleSpec]], jobs: int
) -> List[List[SampleRun]]:
    """Ordered, self-healing map of :func:`_run_group` over sample groups.

    The interpreter's groups are single samples; the batch engine's are
    whole configurations (their samples share one commit-log walk), so
    ``REPRO_JOBS`` shards by sample or by configuration respectively.
    Serial when ``jobs <= 1``. Otherwise each group is submitted as its
    own future and collected in submission order, so the merged result
    is independent of worker scheduling — and a failure is scoped to
    its group: a group whose worker dies (OOM killer, segfaulting
    interpreter, ``BrokenProcessPool``) or errors in flight is retried
    *serially in the parent* after the pool drains. One aggregated
    stderr warning reports everything that was retried. Only a group
    that also fails its serial retry propagates — a deterministic
    failure (e.g. :class:`~repro.errors.IncompleteRun`) still surfaces
    as the typed error it is; an unlucky worker crash never kills an
    hours-long grid."""
    if jobs <= 1 or len(groups) <= 1:
        return [_run_group(group) for group in groups]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    # Hard per-future backstop: the in-worker deadline is cooperative,
    # so give each sample several budgets of slack before declaring the
    # worker wedged and falling back to the serial retry.
    timeout = experiment_sample_timeout()

    results: List[Optional[List[SampleRun]]] = [None] * len(groups)
    failures: List[Tuple[int, str]] = []
    wedged = False
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(groups)))
    try:
        futures = [pool.submit(_run_group, group) for group in groups]
        for index, future in enumerate(futures):
            hard_cap = (
                None if timeout is None
                else (4.0 * timeout + 30.0) * max(1, len(groups[index]))
            )
            try:
                results[index] = future.result(timeout=hard_cap)
            except BrokenProcessPool:
                future.cancel()
                failures.append((index, "worker process died"))
            except FutureTimeout:
                future.cancel()
                wedged = True
                failures.append((index, "worker exceeded the hard timeout"))
            except Exception as exc:  # noqa: BLE001 — every group retries
                failures.append((index, f"{type(exc).__name__}: {exc}"))
    finally:
        # A wedged worker would block a waiting shutdown forever; leave
        # it to finish (or die) on its own and reclaim the grid now.
        pool.shutdown(wait=not wedged, cancel_futures=True)
    if failures:
        preview = "; ".join(
            f"group {index}: {reason}" for index, reason in failures[:3]
        )
        more = "" if len(failures) <= 3 else f" (+{len(failures) - 3} more)"
        print(
            f"repro: retrying {len(failures)}/{len(groups)} sample groups "
            f"serially after worker failures [{preview}{more}]",
            file=sys.stderr,
        )
        for index, _reason in failures:
            results[index] = _run_group(groups[index])
    return results


def _engine_label(metrics: Metrics) -> str:
    """The engine(s) that computed a configuration's samples, read from
    its merged ``engine.*`` counters: ``"interp"``, ``"batch"``, or
    ``"batch+interp"`` when some lanes fell back to the interpreter."""
    engines = sorted(
        name[len("engine."):]
        for name, count in metrics.counters.items()
        if name.startswith("engine.") and name.count(".") == 1 and count
    )
    return "+".join(engines) or "none"


def _finish_result(
    result: BenchmarkResult, setup: ExperimentSetup
) -> BenchmarkResult:
    """Observability hooks every finished configuration passes through.

    Feeds the active run manifest (no-op when none is open) and, when
    ``REPRO_METRICS=<path>`` is set, appends one JSONL rollup line for
    the configuration. Runs in the parent process only: worker metrics
    arrived inside the :class:`SampleRun` objects.
    """
    metrics = result.merged_metrics()
    engine = _engine_label(metrics)
    setup_info = {
        "scale": setup.scale,
        "trace_count": setup.trace_count,
        "invocations": setup.invocations,
        "trace_seed": setup.trace_seed,
    }
    record_result(
        result.name, result.mode, result.bits, result.runtime, engine,
        setup=setup_info, samples=len(result.runs),
        metrics=metrics.to_dict(),
    )
    path = os.environ.get(METRICS_ENV, "").strip()
    if path:
        line = {
            "workload": result.name,
            "mode": result.mode,
            "bits": result.bits,
            "runtime": result.runtime,
            "engine": engine,
            "samples": len(result.runs),
            "metrics": metrics.to_dict(),
        }
        with open(path, "a", encoding="utf-8") as file:
            file.write(json.dumps(line, separators=(",", ":")) + "\n")
    ledger_path = os.environ.get(LEDGER_ENV, "").strip()
    if ledger_path:
        ledger = result.merged_ledger()
        if ledger is not None:
            line = {
                "workload": result.name,
                "mode": result.mode,
                "bits": result.bits,
                "runtime": result.runtime,
                "engine": engine,
                "samples": len(result.runs),
                "ledger": ledger,
            }
            with open(ledger_path, "a", encoding="utf-8") as file:
                file.write(json.dumps(line, separators=(",", ":")) + "\n")
    return result


def _fingerprint_reference(
    workload: Workload, reference: Optional[Sequence[float]]
) -> Optional[Sequence[float]]:
    """``None`` when ``reference`` is the workload's own decoded output.

    Callers that spell out the default reference explicitly (the grid
    bench does) must share store fingerprints with callers that pass
    nothing (the service does) — only a genuine override changes the
    samples, so only a genuine override feeds the digest."""
    if reference is None:
        return None
    if list(reference) == list(workload.decoded_reference()):
        return None
    return reference


def _run_configs(
    workload: Workload,
    configs: Sequence[Tuple[str, Optional[int]]],
    runtime: str,
    setup: ExperimentSetup,
    environment: Optional[Environment],
    reference: Optional[Sequence[float]],
    jobs: int,
) -> List[BenchmarkResult]:
    """The body of :func:`run_benchmark` and :func:`run_benchmark_suite`.

    Configurations the content-addressed store already holds are served
    from it; the rest run through :func:`_map_groups`. Serially, one
    configuration at a time, so an interrupted grid leaves every
    finished configuration in the store; with ``jobs > 1`` all of them
    feed one pool, so small per-config grids still fill every worker."""
    if workload.scale is None:
        raise ValueError(
            f"workload {workload.name!r} has no scale: build it with "
            "repro.workloads.make_workload(name, scale) so every sample "
            "can be rebuilt from its name"
        )
    if environment is None:
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
    if reference is None:
        reference = workload.decoded_reference()
    store = experiment_store()
    fp_reference = _fingerprint_reference(workload, reference)
    batch = experiment_batch()
    waves = [list(configs)] if jobs > 1 else [[config] for config in configs]
    results: List[BenchmarkResult] = []
    for wave in waves:
        wave_results = []
        pending = []
        for mode, bits in wave:
            result = BenchmarkResult(workload.name, mode, bits, runtime)
            wave_results.append(result)
            fingerprint = None
            if store is not None:
                fingerprint = config_fingerprint(
                    workload.name, workload.scale, mode, bits, runtime,
                    setup, environment, fp_reference,
                )
            hit = _store_lookup(store, fingerprint)
            if hit is not None:
                result.runs.extend(hit)
                continue
            specs = _sample_specs(
                workload, mode, bits, runtime, setup, environment, reference
            )
            pending.append((result, fingerprint, specs))
        if pending:
            if batch:
                groups = [specs for _, _, specs in pending]
            else:
                groups = [[spec] for _, _, specs in pending for spec in specs]
            runs = iter(
                run for group in _map_groups(groups, jobs) for run in group
            )
            for result, fingerprint, specs in pending:
                result.runs.extend(next(runs) for _ in specs)
                if store is not None:
                    store.put(
                        fingerprint,
                        _store_payload(result, fingerprint, workload.scale, setup),
                    )
        results.extend(_finish_result(result, setup) for result in wave_results)
    return results


def run_benchmark(
    workload: Workload,
    mode: str,
    bits: Optional[int],
    runtime: str,
    setup: ExperimentSetup,
    environment: Optional[Environment] = None,
    reference: Optional[Sequence[float]] = None,
    jobs: Optional[int] = None,
) -> BenchmarkResult:
    """Run one configuration over all traces x invocations.

    ``jobs`` defaults to :func:`experiment_jobs` (the ``REPRO_JOBS``
    environment variable). The workload must be one worker processes
    can rebuild (built by ``make_workload``, so ``workload.scale`` is
    set); anything else raises :class:`ValueError`.
    """
    jobs = experiment_jobs() if jobs is None else max(1, jobs)
    (result,) = _run_configs(
        workload, [(mode, bits)], runtime, setup, environment, reference, jobs
    )
    return result


def run_benchmark_suite(
    workload: Workload,
    configs: Sequence[Tuple[str, Optional[int]]],
    runtime: str,
    setup: ExperimentSetup,
    environment: Optional[Environment] = None,
    reference: Optional[Sequence[float]] = None,
) -> List[BenchmarkResult]:
    """Run several (mode, bits) configurations of one workload.

    This is the fan-out point the figure experiments share: with
    ``REPRO_JOBS`` > 1 the *combined* configs x traces x invocations
    grid feeds one process pool, so small per-config grids still fill
    every worker. Results come back per config, samples in grid order —
    identical to calling :func:`run_benchmark` per config serially.
    """
    return _run_configs(
        workload, configs, runtime, setup, environment, reference,
        experiment_jobs(),
    )


def median_speedup(baseline: BenchmarkResult, wn: BenchmarkResult) -> float:
    """Median per-run speedup in wall-clock time to finish one input."""
    pairs = zip(baseline.runs, wn.runs)
    return statistics.median(b.wall_ms / max(w.wall_ms, 1) for b, w in pairs)


def first_skim_cycles(kernel: AnytimeKernel, inputs: Dict[str, List[int]]) -> Tuple[int, int]:
    """Cycles until the first skim point is armed, and total cycles.

    This is the 'earliest available output' moment in the design-space
    studies (Figures 13 and 15)."""
    cpu = kernel.make_cpu(inputs)
    first: List[int] = []

    def hook(target: int) -> None:
        if not first:
            first.append(cpu.stats.cycles + 1)

    cpu.skim_hook = hook
    total = cpu.run()
    return (first[0] if first else total), total
