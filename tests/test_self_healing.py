"""The self-healing experiment harness:

* a worker process dying mid-grid never kills the run — its specs are
  retried serially with one aggregated stderr warning and the results
  are identical to an undisturbed run;
* the result store (``REPRO_STORE=<dir>``) persists per-config results
  atomically, so an interrupted ``REPRO_JOBS=4`` grid resumes
  bit-identically;
* ``REPRO_SAMPLE_TIMEOUT`` converts a pathological sample into a typed
  :class:`~repro.errors.SampleTimeout` instead of a hang, on both
  engines;
* ``REPRO_FAULTS=<seed>`` swaps in deterministic adversarial traces,
  which the batch engine reproduces exactly.
"""

import os
import time

import pytest

import repro.experiments.common as common
from repro.errors import IncompleteRun, SampleTimeout
from repro.experiments.common import (
    ExperimentSetup,
    _sample_run_to_dict,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
    run_benchmark_suite,
)
from repro.runtime.executor import set_sample_deadline
from repro.store.cas import config_fingerprint
from repro.workloads import make_workload

SETUP = ExperimentSetup(
    scale="tiny", trace_count=3, invocations=2, trace_duration_ms=800
)
CONFIGS = [("precise", None), ("swv", 8)]


@pytest.fixture(scope="module")
def home():
    workload = make_workload("Home", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), SETUP)
    return workload, environment


@pytest.fixture(scope="module")
def reference(home):
    workload, environment = home
    return run_benchmark(workload, "precise", None, "clank", SETUP, environment)


def full_dicts(results):
    """Every field of every sample, metrics and ledger included."""
    return [[_sample_run_to_dict(run) for run in result.runs] for result in results]


class TestWorkerCrashRecovery:
    def test_killed_worker_heals_to_identical_results(
        self, home, reference, monkeypatch, capfd
    ):
        workload, environment = home
        parent = os.getpid()
        real = common._run_sample

        def killer(spec):
            # Simulate the OOM killer taking one worker mid-sample; the
            # parent (serial retry) is never killed.
            if os.getpid() != parent and spec.trace_index == 1 and spec.invocation == 0:
                os._exit(1)
            return real(spec)

        monkeypatch.setattr(common, "_run_sample", killer)
        monkeypatch.setenv("REPRO_JOBS", "4")
        healed = run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        assert healed.runs == reference.runs
        err = capfd.readouterr().err
        assert err.count("retrying") == 1  # one aggregated warning
        assert "worker" in err

    def test_deterministic_failure_still_surfaces_typed(
        self, home, monkeypatch, capfd
    ):
        workload, environment = home

        def always_incomplete(spec):
            raise IncompleteRun("sample can never finish", outages=9)

        monkeypatch.setattr(common, "_run_sample", always_incomplete)
        monkeypatch.setenv("REPRO_JOBS", "4")
        # The pool's failures are retried serially; the retry fails the
        # same way, so the typed error propagates instead of being eaten.
        with pytest.raises(IncompleteRun):
            run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        capfd.readouterr()  # swallow the expected retry warning


class TestResume:
    """Resuming an interrupted grid is the result store's job."""

    def test_interrupted_parallel_grid_resumes_bit_identical(
        self, home, monkeypatch, tmp_path
    ):
        workload, environment = home
        monkeypatch.setenv("REPRO_JOBS", "4")
        uninterrupted = run_benchmark_suite(
            workload, CONFIGS, "clank", SETUP, environment
        )

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        # "Interrupt": only the first config finished before the crash.
        run_benchmark_suite(workload, CONFIGS[:1], "clank", SETUP, environment)
        assert len(list(tmp_path.glob("*/*.json"))) == 1

        resumed = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        assert full_dicts(resumed) == full_dicts(uninterrupted)
        assert len(list(tmp_path.glob("*/*.json"))) == len(CONFIGS)

        # Everything stored now: a third run must not execute any sample.
        monkeypatch.setattr(
            common, "_map_groups",
            lambda *a: pytest.fail("resume should skip execution"),
        )
        cached = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        assert full_dicts(cached) == full_dicts(uninterrupted)

    def test_torn_resume_file_is_recomputed(self, home, monkeypatch, tmp_path):
        workload, environment = home
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        result = run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        (path,) = tmp_path.glob("*/*.json")
        path.write_text('{"runs": [{"torn')  # a torn write from a crash
        again = run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        assert again.runs == result.runs
        assert full_dicts([again]) == full_dicts([result])

    def test_key_depends_on_environment(self, home):
        workload, environment = home
        key_a = config_fingerprint(
            workload.name, workload.scale, "precise", None, "clank",
            SETUP, environment,
        )
        other = common.Environment(
            capacitor_f=environment.capacitor_f * 2,
            watchdog_cycles=environment.watchdog_cycles,
            swing_cycles=environment.swing_cycles,
        )
        key_b = config_fingerprint(
            workload.name, workload.scale, "precise", None, "clank",
            SETUP, other,
        )
        assert key_a != key_b  # stale results can never be served


class TestSampleTimeout:
    def test_expired_deadline_raises_typed_timeout(self, home):
        workload, environment = home
        kernel = common.build_anytime(workload, "precise")
        set_sample_deadline(time.monotonic() - 1.0)
        try:
            with pytest.raises(SampleTimeout):
                kernel.run_intermittent(
                    workload.inputs,
                    SETUP.traces()[0],
                    runtime="clank",
                    capacitor=environment.capacitor(),
                    watchdog_cycles=environment.watchdog_cycles,
                )
        finally:
            set_sample_deadline(None)

    def test_env_knob_arms_and_clears_the_deadline(self, home, monkeypatch):
        workload, environment = home
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "0.0000001")
        with pytest.raises(SampleTimeout):
            run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        # The deadline must not leak into later (untimed) samples.
        monkeypatch.delenv("REPRO_SAMPLE_TIMEOUT")
        from repro.runtime import executor

        assert executor._SAMPLE_DEADLINE is None

    def test_batch_expired_deadline_raises_typed_timeout(
        self, home, monkeypatch
    ):
        """An armed timeout walks the batch one lane at a time, each
        under its own deadline; an expired one surfaces typed."""
        workload, environment = home
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "0.0000001")
        common._worker_records.clear()
        with pytest.raises(SampleTimeout):
            run_benchmark(workload, "swv", 8, "clank", SETUP, environment)
        from repro.runtime import executor

        assert executor._SAMPLE_DEADLINE is None

    def test_batch_equals_interp_under_timeout(self, home, monkeypatch):
        """A generous timeout changes nothing observable on either
        engine, rollups included."""
        workload, environment = home
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "600")
        interp = run_benchmark(workload, "swv", 8, "clank", SETUP, environment)
        monkeypatch.setenv("REPRO_BATCH", "1")
        common._worker_records.clear()
        batch = run_benchmark(workload, "swv", 8, "clank", SETUP, environment)
        assert batch.runs == interp.runs
        assert [r.ledger for r in batch.runs] == [r.ledger for r in interp.runs]
        assert batch.merged_metrics().counters["engine.batch"] == len(batch.runs)

    def test_invalid_value_warns_once_and_disables(self, monkeypatch, capfd):
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "soon")
        monkeypatch.setattr(common, "_timeout_warning_emitted", False)
        assert common.experiment_sample_timeout() is None
        assert common.experiment_sample_timeout() is None
        err = capfd.readouterr().err
        assert err.count("REPRO_SAMPLE_TIMEOUT") == 1


class TestFaultsKnob:
    def test_adversarial_traces_are_deterministic(self, home, reference, monkeypatch):
        workload, environment = home
        monkeypatch.setenv("REPRO_FAULTS", "42")
        first = run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        second = run_benchmark(workload, "precise", None, "clank", SETUP, environment)
        assert first.runs == second.runs
        assert first.runs != reference.runs  # the power really changed

    @pytest.mark.parametrize("runtime", ["clank", "hibernus"])
    def test_batch_equals_interp_under_faults(self, home, monkeypatch, runtime):
        """Adversarial traces are a per-lane trace swap: the batch engine
        runs them and books the interpreter's results and ledgers."""
        workload, environment = home
        monkeypatch.setenv("REPRO_FAULTS", "42")
        interp = run_benchmark(workload, "swv", 8, runtime, SETUP, environment)
        monkeypatch.setenv("REPRO_BATCH", "1")
        common._worker_records.clear()
        batch = run_benchmark(workload, "swv", 8, runtime, SETUP, environment)
        assert batch.runs == interp.runs
        assert [r.ledger for r in batch.runs] == [r.ledger for r in interp.runs]
        assert batch.merged_metrics().counters["engine.batch"] == len(batch.runs)

    def test_invalid_seed_warns_once_and_disables(self, monkeypatch, capfd):
        monkeypatch.setenv("REPRO_FAULTS", "lots")
        monkeypatch.setattr(common, "_faults_warning_emitted", False)
        assert common.experiment_faults() is None
        assert common.experiment_faults() is None
        assert capfd.readouterr().err.count("REPRO_FAULTS") == 1
