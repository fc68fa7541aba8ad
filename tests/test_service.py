"""The async experiment service:

* one submission streams ``ack`` -> ``progressive`` (a usable level-k
  answer) -> ``result``, and the final runs match a direct
  :func:`~repro.experiments.common.run_benchmark` field for field;
* concurrent clients submitting overlapping grids pay for each distinct
  configuration exactly once (in-flight dedup + store);
* a resubmitted configuration is a pure store hit;
* bad jobs come back as typed errors, not dead connections;
* the ``serve``/``submit``/``report --live`` CLI round-trips.
"""

import asyncio
import json
import threading

import pytest

from repro.__main__ import main
from repro.experiments.common import (
    ExperimentSetup,
    _sample_run_to_dict,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
)
from repro.service import ExperimentService, JobSpec, ServiceClient, ServiceError
from repro.workloads import make_workload

GRID = {"scale": "tiny", "trace_count": 3, "invocations": 2,
        "trace_duration_ms": 800}


def job(workload="Home", mode="swv", bits=8, runtime="clank"):
    return {"workload": workload, "mode": mode, "bits": bits,
            "runtime": runtime, **GRID}


class running_service:
    """Context manager: one service on a fresh unix socket, own thread."""

    def __init__(self, tmp_path, store=True):
        self.socket_path = str(tmp_path / "svc.sock")
        self.service = ExperimentService(
            store_dir=str(tmp_path / "store") if store else None
        )
        self.ready = threading.Event()

    def __enter__(self):
        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                self.service.serve(
                    socket_path=self.socket_path,
                    on_ready=lambda _: self.ready.set(),
                )
            ),
            daemon=True,
        )
        self.thread.start()
        assert self.ready.wait(10), "service never came up"
        return self

    def __exit__(self, *exc_info):
        try:
            with ServiceClient.connect(self.socket_path, timeout=5) as client:
                client.shutdown()
        except OSError:
            pass
        self.thread.join(10)

    def client(self):
        return ServiceClient.connect(self.socket_path, timeout=10)


@pytest.fixture()
def direct_runs(monkeypatch):
    """Ground truth: the same grid run directly, full sample dicts.

    On the batch engine, like the service computes — sample fields are
    engine-identical by contract, but the metrics rollups *record*
    which engine ran, so a field-for-field comparison must match it."""
    monkeypatch.setenv("REPRO_BATCH", "1")
    setup = ExperimentSetup(**GRID)
    workload = make_workload("Home", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), setup)
    result = run_benchmark(workload, "swv", 8, "clank", setup, environment)
    return [_sample_run_to_dict(run) for run in result.runs]


class TestSingleSubmission:
    def test_progressive_before_final_and_matches_direct(
        self, tmp_path, direct_runs
    ):
        events = []
        with running_service(tmp_path) as svc, svc.client() as client:
            result = client.submit(job(), full=True, on_event=events.append)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "ack"
        assert "progressive" in kinds
        assert kinds.index("progressive") < kinds.index("result")
        level_k = events[kinds.index("progressive")]
        assert level_k["stage"] == "level-k"
        assert level_k["samples_done"] == 1
        assert level_k["samples_total"] == 6
        # The anytime preview is the grid's real first sample.
        assert level_k["sample"]["wall_ms"] == direct_runs[0]["wall_ms"]
        assert level_k["sample"]["error"] == direct_runs[0]["error"]
        assert result["source"] == "computed"
        assert result["runs"] == direct_runs

    def test_resubmission_is_pure_store_hit(self, tmp_path):
        with running_service(tmp_path) as svc:
            with svc.client() as client:
                first = client.submit(job(), full=True)
            events = []
            with svc.client() as client:
                second = client.submit(job(), full=True,
                                       on_event=events.append)
                stats = client.stats()
            assert events[0]["cached"] is True
            assert second["source"] == "store"
            assert second["runs"] == first["runs"]
            assert stats["computed"] == 1
            assert stats["store_hits"] == 1

    def test_bad_jobs_are_typed_errors(self, tmp_path):
        with running_service(tmp_path) as svc, svc.client() as client:
            with pytest.raises(ServiceError, match="unknown workload"):
                client.submit(job(workload="NoSuch"))
            with pytest.raises(ServiceError, match="invalid bits"):
                client.submit(job(bits=7))
            # The connection survives errors: a good job still works.
            assert client.ping()["protocol"] == 1
            assert client.submit(job())["source"] in ("computed", "store")


class TestConcurrentClients:
    def test_overlapping_grids_compute_each_config_once(self, tmp_path):
        # 4 clients x 3 configs, all overlapping: 3 distinct fingerprints.
        configs = [job(mode="precise", bits=None), job(bits=8), job(bits=4)]
        results = {}
        errors = []

        def one_client(n, svc):
            try:
                with svc.client() as client:
                    results[n] = [
                        client.submit(spec, full=True) for spec in configs
                    ]
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        with running_service(tmp_path) as svc:
            threads = [
                threading.Thread(target=one_client, args=(n, svc))
                for n in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
            with svc.client() as client:
                stats = client.stats()
        assert not errors
        assert len(results) == 4
        # Every client got every config, and they all agree exactly.
        for n in range(1, 4):
            assert [r["runs"] for r in results[n]] == \
                [r["runs"] for r in results[0]]
        # Dedup did its job: 12 submissions, 3 computations.
        assert stats["submissions"] == 12
        assert stats["computed"] == len(configs)
        assert stats["store_hits"] + stats["inflight_dedups"] == 12 - len(configs)
        assert stats["errors"] == 0
        assert stats["store"]["entries"] == len(configs)


class TestJobSpec:
    def test_round_trip_ignores_unknown_keys(self):
        spec = JobSpec.from_dict({**job(), "future_knob": True})
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_needs_workload_and_mode(self):
        with pytest.raises(ValueError, match="workload"):
            JobSpec.from_dict({"mode": "swv"})
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict(["not", "a", "dict"])


class TestCLI:
    def test_submit_and_live_report(self, tmp_path, capsys, monkeypatch):
        with running_service(tmp_path) as svc:
            code = main([
                "submit", "Home", "--mode", "swv", "--scale", "tiny",
                "--traces", "3", "--invocations", "2",
                "--socket", svc.socket_path,
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert "level-k: first answer after 1/6 samples" in out
            assert "result [computed] Home/swv8/clank: 6 samples" in out

            code = main([
                "submit", "Home", "--mode", "swv", "--scale", "tiny",
                "--traces", "3", "--invocations", "2",
                "--socket", svc.socket_path, "--json",
            ])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["source"] == "store"

        code = main([
            "report", "--store", str(tmp_path / "store"),
            "--history", str(tmp_path / "none.jsonl"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Result store" in out
        assert "Home/swv" in out

    def test_live_without_store_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["report", "--live"]) == 2
        assert "REPRO_STORE" in capsys.readouterr().err


def test_compute_labels_the_engine_that_ran(tmp_path, monkeypatch):
    """A service computes misses on the batch engine whatever its own
    environment says, and its manifest and metrics lines say so."""
    from repro.observability import active_manifest, begin_manifest, finish_manifest
    from repro.service.jobs import compute, prepare

    monkeypatch.delenv("REPRO_BATCH", raising=False)
    metrics_path = tmp_path / "metrics.jsonl"
    monkeypatch.setenv("REPRO_METRICS", str(metrics_path))
    begin_manifest(command="service compute")
    try:
        compute(prepare(JobSpec(**job())))
        (entry,) = active_manifest().results
    finally:
        finish_manifest()
    assert entry["engine"] == "batch"
    (line,) = [json.loads(text) for text in metrics_path.read_text().splitlines()]
    assert line["engine"] == "batch"
