"""The lane-parallel batched replay backend must be bit-exact.

``REPRO_BATCH=1`` walks each configuration's commit log once for all
its (trace, invocation) samples. Everything observable must match:
SampleRun fields vs the interpreter (the repo's differential bar),
metrics and ledger buckets *exactly* between a whole-grid batch and
the one-lane-at-a-time walk the harness takes under a sample timeout,
byte-identical results between serial and ``REPRO_JOBS`` runs, and
identical output with and without numpy. The vector kernels (WAR
oracle, lane advance, charge fast-forward) are additionally checked
one-to-one against the scalar code they replace. Service worker threads
that share one commit log must get the serial answers.
"""

import threading
import time

import pytest

import repro.experiments.common as common
from repro.experiments.common import (
    ExperimentSetup,
    _run_config_group,
    _sample_run_to_dict,
    _sample_specs,
    _worker_records,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
    run_benchmark_suite,
)
from repro.power.capacitor import Capacitor
from repro.power.energy import EnergyModel
from repro.power.supply import PowerSupply, SupplyExhausted
from repro.power.trace import PowerTrace
from repro.sim.batch_replay import (
    advance_lanes,
    build_batch_index,
    charge_until_on_fast,
    numpy_or_none,
    trace_energy_array,
)
from repro.sim.replay import ReplayRecord, record_run
from repro.workloads import make_workload

needs_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="numpy not available"
)


def _setup():
    return ExperimentSetup(scale="tiny")


def _environment(workload, setup):
    return calibrate_environment(measure_precise_cycles(workload), setup)


def _serial_env(monkeypatch):
    for key in ("REPRO_JOBS", "REPRO_BATCH", "REPRO_BATCH_NUMPY",
                "REPRO_SAMPLE_TIMEOUT"):
        monkeypatch.delenv(key, raising=False)


def _grid_runs(workload, configs, runtime, setup, environment, reference):
    results = run_benchmark_suite(
        workload, configs, runtime, setup, environment, reference
    )
    return [run for result in results for run in result.runs]


def _rollups(runs):
    """(counters-sans-engine, observations, ledger) per sample — the
    strict comparison every batch walk must share."""
    out = []
    for run in runs:
        counters = {
            k: v
            for k, v in (run.metrics or {}).get("counters", {}).items()
            if not k.startswith("engine.")
        }
        out.append(
            (counters, (run.metrics or {}).get("observations"), run.ledger)
        )
    return out


class TestGridDifferential:
    def test_fig10_grid_batch_identical(self, monkeypatch):
        """Full Figure-10 MatMul grid: batch == interpreter, and every
        sample actually ran on the batch engine (no silent demotion)."""
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()
        configs = [
            ("precise", None), (workload.technique, 8), (workload.technique, 4)
        ]

        interp = _grid_runs(workload, configs, "clank", setup, environment, reference)
        monkeypatch.setenv("REPRO_BATCH", "1")
        _worker_records.clear()
        batch = _grid_runs(workload, configs, "clank", setup, environment, reference)

        assert len(interp) == 3 * setup.trace_count * setup.invocations
        assert batch == interp  # SampleRun dataclass: field-by-field equality
        batched = sum(
            (run.metrics or {}).get("counters", {}).get("engine.batch", 0)
            for run in batch
        )
        assert batched == len(batch), "some samples demoted off the batch path"

    @pytest.mark.parametrize("workload_name", ["MatMul", "Var"])
    @pytest.mark.parametrize("runtime", ["clank", "nvp", "hibernus", "progress"])
    def test_runtime_grid_batch_identical(
        self, monkeypatch, workload_name, runtime
    ):
        """Every runtime policy batches exactly, on two workloads."""
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload(workload_name, setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()

        interp = run_benchmark(
            workload, workload.technique, 8, runtime, setup, environment, reference
        )
        monkeypatch.setenv("REPRO_BATCH", "1")
        _worker_records.clear()
        batch = run_benchmark(
            workload, workload.technique, 8, runtime, setup, environment, reference
        )

        assert batch.runs == interp.runs

    def test_batch_matches_replay_rollups_exactly(self, monkeypatch):
        """Metrics and ledger buckets — excluded from SampleRun equality
        — must match between the whole-grid batch and one-lane replay
        (the walk an armed sample timeout selects) to the last integer
        and float, engine counters included."""
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()
        configs = [
            ("precise", None), (workload.technique, 8), (workload.technique, 4)
        ]

        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "600")
        _worker_records.clear()
        replay = _grid_runs(workload, configs, "clank", setup, environment, reference)
        monkeypatch.delenv("REPRO_SAMPLE_TIMEOUT")
        _worker_records.clear()
        batch = _grid_runs(workload, configs, "clank", setup, environment, reference)

        assert batch == replay
        assert _rollups(batch) == _rollups(replay)
        assert [r.metrics for r in batch] == [r.metrics for r in replay]

    def test_batch_numpy_fallback_identical(self, monkeypatch):
        """REPRO_BATCH_NUMPY=0 (the no-numpy code path) changes nothing
        observable, rollups included."""
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()
        configs = [(workload.technique, 8), (workload.technique, 4)]

        monkeypatch.setenv("REPRO_BATCH", "1")
        _worker_records.clear()
        vectored = _grid_runs(workload, configs, "clank", setup, environment, reference)
        monkeypatch.setenv("REPRO_BATCH_NUMPY", "0")
        _worker_records.clear()
        scalar = _grid_runs(workload, configs, "clank", setup, environment, reference)

        assert scalar == vectored
        assert _rollups(scalar) == _rollups(vectored)

    def test_batch_serial_equals_parallel_jobs(self, monkeypatch):
        """REPRO_JOBS shards by config under the batch engine; results
        must be byte-identical to the serial run, rollups included."""
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()
        configs = [
            ("precise", None), (workload.technique, 8), (workload.technique, 4)
        ]

        monkeypatch.setenv("REPRO_BATCH", "1")
        _worker_records.clear()
        serial = _grid_runs(workload, configs, "clank", setup, environment, reference)
        monkeypatch.setenv("REPRO_JOBS", "4")
        _worker_records.clear()
        parallel = _grid_runs(workload, configs, "clank", setup, environment, reference)

        assert parallel == serial
        assert _rollups(parallel) == _rollups(serial)

    def test_nonreplayable_record_demotes_every_lane(self, monkeypatch):
        """Memoization makes cycle costs history-dependent, so its
        record is non-replayable; run_batch_group must hand every lane
        back to the caller instead of walking the log."""
        from repro.runtime.batch_executor import run_batch_group
        from repro.experiments.common import paper_traces

        _serial_env(monkeypatch)
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(
            workload, workload.technique, 8, memoization=True,
            zero_skipping=True,
        )
        record = record_run(kernel, workload.inputs)
        assert not record.replayable
        lane_args = [
            {
                "trace": trace,
                "runtime": "clank",
                "capacitor": Capacitor(),
                "energy_model": EnergyModel(),
                "start_tick": 0,
                "max_wall_ms": 10_000,
                "watchdog_cycles": 500,
            }
            for trace in paper_traces(count=3, duration_ms=200, base_seed=7)
        ]
        results = run_batch_group(kernel, record, workload.inputs, lane_args)
        assert results == [None] * len(lane_args)
        assert run_batch_group(kernel, record, workload.inputs, []) == []


class TestLedgerAgreement:
    def test_three_engines_book_identical_ledgers(self, monkeypatch):
        """MatMul swp 8-bit on Clank at the paper's 9 x 3 grid: sample 14
        (trace 4, invocation 2) takes a skim handoff while re-execution
        debt is outstanding. The live suffix must keep repaying that
        debt, so one-lane replay and the whole-grid batch book every
        bucket exactly as the interpreter does."""
        _serial_env(monkeypatch)
        setup = ExperimentSetup(trace_count=9, invocations=3)
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        reference = workload.decoded_reference()

        def ledgers(**env):
            for key in ("REPRO_BATCH", "REPRO_SAMPLE_TIMEOUT"):
                monkeypatch.delenv(key, raising=False)
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            _worker_records.clear()
            result = run_benchmark(
                workload, workload.technique, 8, "clank", setup,
                environment, reference,
            )
            return [run.ledger["cycles"] for run in result.runs]

        interp = ledgers()
        assert ledgers(REPRO_BATCH="1", REPRO_SAMPLE_TIMEOUT="600") == interp
        assert ledgers(REPRO_BATCH="1") == interp
        assert interp[14]["reexec"] == 16


class TestServiceThreads:
    """The experiment service computes configurations on a thread pool,
    and jobs that differ only in runtime share one commit log."""

    RUNTIMES = ("clank", "nvp", "hibernus")

    @staticmethod
    def _in_threads(groups):
        results = {}
        errors = []

        def work(runtime):
            try:
                results[runtime] = _run_config_group(groups[runtime])
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(runtime,)) for runtime in groups
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive(), "a worker thread never finished"
        assert not errors, errors
        return results

    def test_shared_record_gives_serial_results(self, monkeypatch):
        """MatMul swp 8-bit at the paper's 9 x 3 grid: lanes under
        different runtimes materialize the shared record's CPU for skim
        handoffs. Two threads are made to materialize back to back; the
        second must not reset the CPU the first is still running on."""
        _serial_env(monkeypatch)
        setup = ExperimentSetup(trace_count=9, invocations=3)
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        groups = {
            runtime: _sample_specs(
                workload, "swp", 8, runtime, setup, environment, None
            )
            for runtime in self.RUNTIMES
        }
        _worker_records.clear()
        serial = {
            runtime: [_sample_run_to_dict(run) for run in _run_config_group(specs)]
            for runtime, specs in groups.items()
        }

        barrier = threading.Barrier(2, timeout=1.0)
        real = ReplayRecord.materialize_cpu

        def rendezvous(self, *args):
            cpu = real(self, *args)
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass  # the other thread waits for the record lock
            return cpu

        monkeypatch.setattr(ReplayRecord, "materialize_cpu", rendezvous)
        threaded = self._in_threads(groups)
        assert {
            runtime: [_sample_run_to_dict(run) for run in runs]
            for runtime, runs in threaded.items()
        } == serial

    def test_threads_record_each_kernel_once(self, monkeypatch):
        _serial_env(monkeypatch)
        setup = _setup()
        workload = make_workload("MatMul", setup.scale)
        environment = _environment(workload, setup)
        groups = {
            runtime: _sample_specs(
                workload, "swp", 8, runtime, setup, environment, None
            )
            for runtime in self.RUNTIMES
        }
        calls = []
        real = common.record_run

        def slow_record(kernel, inputs):
            calls.append(kernel)
            time.sleep(0.2)  # every thread arrives while the first records
            return real(kernel, inputs)

        monkeypatch.setattr(common, "record_run", slow_record)
        _worker_records.clear()
        self._in_threads(groups)
        assert len(calls) == 1


class TestVectorKernels:
    @needs_numpy
    def test_war_oracle_matches_scalar_scan(self):
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(workload, workload.technique, 8)
        record = record_run(kernel, workload.inputs)
        assert record.replayable
        index = build_batch_index(record)
        scalar = record_run(kernel, workload.inputs)  # memo-free twin
        starts = sorted(
            set(range(0, record.length + 1, 37))
            | set(scalar.store_pos[:50])
        )
        for start in starts:
            assert index.war_from(start) == scalar.next_war_before(
                start, scalar.length
            ), f"WAR divergence at start={start}"

    @needs_numpy
    def test_advance_lanes_matches_scalar_advance(self):
        import random

        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(workload, workload.technique, 8)
        record = record_run(kernel, workload.inputs)
        index = build_batch_index(record)
        rng = random.Random(13)
        requests = []
        for _ in range(200):
            cursor = rng.randrange(0, record.length)
            stop = rng.randrange(cursor, record.length + 1)
            budget = rng.randrange(0, 400)
            requests.append((cursor, stop, budget))
        batched = advance_lanes(record, index, requests)
        for req, got in zip(requests, batched):
            assert got == record.advance(*req), req

    @needs_numpy
    def test_charge_fast_forward_matches_scalar(self):
        from repro.experiments.common import paper_traces

        for trace in paper_traces(count=4, duration_ms=200, base_seed=11):
            energies = trace_energy_array(trace)
            for start_tick in (0, 57, 313):
                fast = PowerSupply(
                    trace, Capacitor(), EnergyModel(), start_tick=start_tick
                )
                slow = PowerSupply(
                    trace, Capacitor(), EnergyModel(), start_tick=start_tick
                )
                for _ in range(3):
                    fast.capacitor.energy *= 0.01
                    slow.capacitor.energy *= 0.01
                    waited_fast = charge_until_on_fast(fast, energies)
                    waited_slow = slow.charge_until_on()
                    assert waited_fast == waited_slow
                    assert fast.tick == slow.tick
                    assert fast.total_off_ms == slow.total_off_ms
                    assert fast.capacitor.energy == slow.capacitor.energy
                    fast.on = slow.on = False

    @needs_numpy
    def test_charge_fast_forward_dead_trace_raises(self):
        trace = PowerTrace([0.0] * 64, name="dead")
        energies = trace_energy_array(trace)
        supply = PowerSupply(
            trace, Capacitor(v_initial=1.0), EnergyModel()
        )
        with pytest.raises(SupplyExhausted):
            charge_until_on_fast(supply, energies, max_ms=500)
        # Same boundary as the scalar loop, including for a budget
        # shorter than the scalar head.
        supply = PowerSupply(trace, Capacitor(v_initial=1.0), EnergyModel())
        with pytest.raises(SupplyExhausted):
            charge_until_on_fast(supply, energies, max_ms=3)


class TestChaosSmoke:
    def test_hundred_scenarios_zero_violations_with_batch(self, monkeypatch):
        """The chaos campaign's consistency oracle stays silent with the
        batch flag set (covering the fused run_cycles live path the
        campaign's executors take)."""
        from repro.fault.campaign import run_campaign

        monkeypatch.setenv("REPRO_BATCH", "1")
        report = run_campaign(seed=1234, count=100)
        assert report["violation_count"] == 0, report["violations"][:3]
