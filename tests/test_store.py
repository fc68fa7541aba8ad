"""The content-addressed result store (``REPRO_STORE``):

* a warm store serves byte-identical results without executing a single
  sample, across both the serial and the ``REPRO_JOBS`` suite paths;
* bumping the result schema (or the package version) changes every
  fingerprint, so stale entries recompute instead of being served;
* torn, truncated and foreign files load as misses and are overwritten;
* concurrent writers (process pools and threads) never corrupt an
  entry, and hit == miss byte for byte;
* ``REPRO_FAULTS`` disables the store entirely (chaos runs must stress
  recompute paths, not the cache);
* ``bench --grid`` records each config's commit log exactly once — the
  batch and store passes reuse it, never re-record.
"""

import json
import threading

import pytest

import repro.experiments.common as common
import repro.store.cas as cas
from repro.experiments.common import (
    ExperimentSetup,
    _sample_run_to_dict,
    calibrate_environment,
    experiment_store,
    measure_precise_cycles,
    run_benchmark,
    run_benchmark_suite,
)
from repro.observability.dashboard import load_report_data, render_report
from repro.store.cas import ResultStore, code_schema_tag, config_fingerprint
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


def full_dicts(results):
    """Every field of every sample, metrics and ledger included."""
    return [[_sample_run_to_dict(run) for run in result.runs] for result in results]


def run_once(home):
    workload, environment = home
    return run_benchmark(workload, "swv", 8, "clank", SETUP, environment)


def forbid_execution(monkeypatch):
    """Any sample execution from here on fails the test."""
    monkeypatch.setattr(
        common, "_map_groups",
        lambda *a, **k: pytest.fail("sample executed despite a warm store"),
    )


class TestStoreHits:
    def test_hit_is_byte_identical_and_skips_execution(
        self, home, tmp_path, monkeypatch
    ):
        baseline = run_once(home)  # no store: the ground truth
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        miss = run_once(home)
        forbid_execution(monkeypatch)
        hit = run_once(home)
        assert full_dicts([hit]) == full_dicts([miss]) == full_dicts([baseline])

    def test_suite_path_uses_store_under_jobs(self, home, tmp_path, monkeypatch):
        workload, environment = home
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_JOBS", "4")
        first = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        forbid_execution(monkeypatch)
        second = run_benchmark_suite(workload, CONFIGS, "clank", SETUP, environment)
        assert full_dicts(second) == full_dicts(first)

    def test_chaos_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert experiment_store() is not None
        monkeypatch.setenv("REPRO_FAULTS", "7")
        assert experiment_store() is None


class TestSelfInvalidation:
    def test_schema_bump_changes_fingerprint(self, home, monkeypatch):
        workload, environment = home
        args = ("Home", "tiny", "swv", 8, "clank", SETUP, environment)
        before_fp = config_fingerprint(*args)
        monkeypatch.setattr(cas, "RESULT_SCHEMA_VERSION", 999)
        assert code_schema_tag().endswith("/999")
        assert config_fingerprint(*args) != before_fp

    def test_schema_bump_forces_recompute(self, home, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        warm = run_once(home)
        monkeypatch.setattr(cas, "RESULT_SCHEMA_VERSION", 999)
        executed = []
        real = common._map_groups

        def counting(groups, jobs):
            executed.append(sum(len(group) for group in groups))
            return real(groups, jobs)

        monkeypatch.setattr(common, "_map_groups", counting)
        recomputed = run_once(home)
        # The old entry is unreachable under the bumped schema: the grid
        # really re-executed, and (determinism) matched the warm result.
        assert executed == [SETUP.trace_count * SETUP.invocations]
        assert full_dicts([recomputed]) == full_dicts([warm])


class TestRobustness:
    def entry_path(self, home, root):
        workload, environment = home
        fingerprint = config_fingerprint(
            "Home", "tiny", "swv", 8, "clank", SETUP, environment
        )
        return ResultStore(str(root)).path_for(fingerprint)

    @pytest.mark.parametrize(
        "corrupt",
        [
            b"",  # truncated to nothing
            b'{"schema": 1, "fingerprint": "wrong", "runs"',  # torn write
            b'{"schema": 0, "runs": []}',  # foreign/stale schema
            b"not json at all",
        ],
    )
    def test_torn_entry_recomputes_and_heals(
        self, home, tmp_path, monkeypatch, corrupt
    ):
        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE", str(root))
        pristine = run_once(home)
        path = self.entry_path(home, root)
        path.write_bytes(corrupt)
        healed = run_once(home)  # defect = miss: recompute + overwrite
        assert full_dicts([healed]) == full_dicts([pristine])
        assert json.loads(path.read_text())["runs"]  # entry is whole again

    def test_concurrent_same_key_writers_never_corrupt(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        fingerprint = "ab" * 32
        payload = cas.result_payload(fingerprint, {"workload": "X"}, [{"n": 1}])
        errors = []

        def writer():
            try:
                for _ in range(20):
                    store.put(fingerprint, payload)
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.load(fingerprint) == payload
        # No temp litter: every writer's file was renamed or is its own.
        assert not list((tmp_path / "store").glob("*/.*.tmp"))


class TestGridRecordsOnce:
    def test_engine_passes_never_re_record(self, monkeypatch):
        import repro.benchmarking as benchmarking
        import repro.sim.replay as replay

        record_calls = []
        engine_calls = []
        real = replay.record_run

        def counted(kernel, inputs):
            record_calls.append(1)
            return real(kernel, inputs)

        def forbidden(kernel, inputs):  # pragma: no cover - the failure case
            engine_calls.append(1)
            return real(kernel, inputs)

        monkeypatch.setattr(replay, "record_run", counted)
        monkeypatch.setattr(common, "record_run", forbidden)
        payload = benchmarking.run_grid_bench(reps=1, scale="tiny")
        # One cold rebuild per rep per config (the timed record phase);
        # the batch and store passes reuse those warm logs.
        assert len(record_calls) == 1 * 3
        assert not engine_calls
        assert payload["grid"]["identical"]
        assert payload["grid"]["store_speedup"] > 1.0


class TestLiveReport:
    def test_dashboard_renders_store_section(self, home, tmp_path, monkeypatch):
        root = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE", str(root))
        run_once(home)
        data = load_report_data(store=str(root))
        assert len(data.store_rows) == 1
        assert data.store_stats["entries"] == 1
        text = render_report(data)
        assert "Result store" in text
        assert "Home/swv8/clank" in text
