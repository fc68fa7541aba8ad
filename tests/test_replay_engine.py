"""Replaying one sample against its commit log must be bit-exact.

:func:`~repro.runtime.replay_executor.replay_intermittent` runs a single
sample as a one-lane batch. The harness takes that path under
``REPRO_BATCH=1`` whenever event tracing or ``REPRO_SAMPLE_TIMEOUT`` is
armed. Every test here compares it against the interpreter and asserts
that the results are identical — every ``SampleRun`` field, and every
``RunResult`` field down to the ledger buckets. Replay is a performance
path only; any observable divergence is a bug.
"""

import pytest

from repro.experiments.common import (
    ExperimentSetup,
    _worker_records,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
    run_benchmark_suite,
)
from repro.observability import TRACER
from repro.power.capacitor import Capacitor
from repro.runtime.replay_executor import replay_intermittent
from repro.sim.replay import ReplayDiverged, record_run
from repro.workloads import make_workload


def _setup():
    return ExperimentSetup(scale="tiny")


def _environment(workload, setup):
    return calibrate_environment(measure_precise_cycles(workload), setup)


def _serial_env(monkeypatch):
    for key in ("REPRO_JOBS", "REPRO_BATCH", "REPRO_SAMPLE_TIMEOUT"):
        monkeypatch.delenv(key, raising=False)


def _grid_runs(workload, configs, runtime, setup, environment, reference):
    results = run_benchmark_suite(
        workload, configs, runtime, setup, environment, reference
    )
    return [run for result in results for run in result.runs]


def _engine_count(runs, engine):
    return sum(
        (run.metrics or {}).get("counters", {}).get(f"engine.{engine}", 0)
        for run in runs
    )


def test_fig10_grid_replay_identical(monkeypatch, tmp_path):
    """The full Figure-10 MatMul grid, traced: 3 configs x 9 traces x 3
    invocations, each sample replayed on its own lane."""
    _serial_env(monkeypatch)
    setup = _setup()
    workload = make_workload("MatMul", setup.scale)
    environment = _environment(workload, setup)
    reference = workload.decoded_reference()
    configs = [("precise", None), (workload.technique, 8), (workload.technique, 4)]

    interp = _grid_runs(workload, configs, "clank", setup, environment, reference)
    monkeypatch.setenv("REPRO_BATCH", "1")
    _worker_records.clear()
    TRACER.enable(str(tmp_path / "trace.jsonl"))
    try:
        replay = _grid_runs(workload, configs, "clank", setup, environment, reference)
    finally:
        TRACER.disable()

    assert len(interp) == 3 * setup.trace_count * setup.invocations
    assert replay == interp  # SampleRun dataclass: field-by-field equality
    assert [r.ledger for r in replay] == [r.ledger for r in interp]
    assert _engine_count(replay, "batch") == len(replay)


@pytest.mark.parametrize("workload_name", ["MatMul", "Var"])
@pytest.mark.parametrize("runtime", ["clank", "nvp", "hibernus", "progress"])
def test_runtime_grid_replay_identical(monkeypatch, workload_name, runtime):
    """``replay_intermittent`` equals ``run_intermittent`` sample for
    sample, for every runtime policy on two different workloads."""
    _serial_env(monkeypatch)
    setup = _setup()
    workload = make_workload(workload_name, setup.scale)
    environment = _environment(workload, setup)
    kernel = build_anytime(workload, workload.technique, 8)
    record = record_run(kernel, workload.inputs)
    assert record.replayable

    for index, trace in enumerate(setup.traces()):
        for invocation in range(setup.invocations):
            kwargs = dict(
                runtime=runtime,
                capacitor=environment.capacitor(),
                start_tick=invocation * 313,
                max_wall_ms=setup.max_wall_ms,
                watchdog_cycles=(
                    environment.watchdog_cycles
                    if runtime in ("clank", "progress") else None
                ),
            )
            live = kernel.run_intermittent(workload.inputs, trace, **kwargs)
            kwargs["capacitor"] = environment.capacitor()
            replay = replay_intermittent(
                kernel, record, workload.inputs, trace, **kwargs
            )
            where = (index, invocation)
            assert replay.outputs == live.outputs, where
            got, want = replay.result, live.result
            for name in (
                "completed", "skim_taken", "timed_out", "wall_ms", "on_ms",
                "off_ms", "active_cycles", "outages",
            ):
                assert getattr(got, name) == getattr(want, name), (where, name)
            assert got.runtime_stats.checkpoints == want.runtime_stats.checkpoints
            assert got.ledger.bucket_dict(1.0) == want.ledger.bucket_dict(1.0), where


def test_hibernus_grid_end_to_end(monkeypatch):
    """Grid-level hibernus check including the precise (no-skim) build,
    walked one lane at a time under an armed sample timeout."""
    _serial_env(monkeypatch)
    setup = _setup()
    workload = make_workload("Home", setup.scale)
    environment = _environment(workload, setup)
    reference = workload.decoded_reference()
    configs = [("precise", None), (workload.technique, 8)]

    interp = _grid_runs(workload, configs, "hibernus", setup, environment, reference)
    monkeypatch.setenv("REPRO_BATCH", "1")
    monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "600")
    _worker_records.clear()
    replay = _grid_runs(workload, configs, "hibernus", setup, environment, reference)

    assert replay == interp
    assert any(run.outages > 0 for run in interp), "grid exercised no outages"


def test_replay_gate_off_records_nothing(monkeypatch):
    """Without REPRO_BATCH=1 the harness never builds a commit log."""
    _serial_env(monkeypatch)
    setup = _setup()
    workload = make_workload("Var", setup.scale)
    environment = _environment(workload, setup)
    _worker_records.clear()
    run_benchmark(
        workload, "precise", None, "clank", setup, environment,
        workload.decoded_reference(),
    )
    assert not _worker_records


def test_replay_reraises_the_demotion():
    """A one-lane batch re-raises what demoted its lane: a record that
    cannot replay surfaces as ReplayDiverged, never as a result."""
    workload = make_workload("MatMul", "tiny")
    kernel = build_anytime(workload, "swp", 8, memoization=True)
    record = record_run(kernel, workload.inputs)
    trace = _setup().traces()[0]
    with pytest.raises(ReplayDiverged, match="not-replayable"):
        replay_intermittent(
            kernel, record, workload.inputs, trace, capacitor=Capacitor()
        )


def test_memoized_kernel_not_replayable():
    """Memoization makes cycle costs input-history-dependent; the
    recorder must refuse to mark such a run replayable."""
    workload = make_workload("MatMul", "tiny")
    kernel = build_anytime(workload, "swp", 8, memoization=True)
    record = record_run(kernel, workload.inputs)
    assert not record.replayable
    assert record.reason


def test_record_marks_completed_run_replayable():
    workload = make_workload("MatMul", "tiny")
    kernel = build_anytime(workload, "swp", 8)
    record = record_run(kernel, workload.inputs)
    assert record.replayable
    assert record.final_outputs  # run ran to completion under recording
    assert record.length > 0
    assert len(record.cum_cost) == record.length + 1
