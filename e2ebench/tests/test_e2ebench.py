"""Tests of the benchmark's own logic (no ``repro`` process is started).

Run from the root of the repository: ``python -m pytest e2ebench/tests -q``
"""

import json
from collections import Counter
from pathlib import Path

import pytest

import run
import session
from spans import layer_metrics, root_ns_within, self_times, unattributed_ns
from stream import (
    WARM_SUBMISSIONS, job_key, job_set, make_stream, percentile, result_digest,
    warm_multiset,
)

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


class TestPercentile:
    def test_tail_needs_ten_samples_beyond(self):
        assert percentile(list(range(100)), 0.9) == 89
        assert percentile(list(range(99)), 0.9) is None

    def test_median_of_thirty(self):
        values = list(range(30, 0, -1))
        assert percentile(values, 0.5) == 15

    def test_too_few_for_a_median(self):
        assert percentile(list(range(19)), 0.5) is None


def _span(span_id, parent, start, end, name="x", thread=1, counts=None):
    return [span_id, parent, thread, name, start, end, counts]


class TestSpans:
    def test_self_time_is_duration_minus_children(self):
        spans = [
            _span(0, -1, 0, 100),
            _span(1, 0, 10, 30),
            _span(2, 0, 50, 60),
            _span(3, 2, 52, 58),
        ]
        own = self_times(spans)
        assert own == {0: 70, 1: 20, 2: 4, 3: 6}
        assert sum(own.values()) == 100

    def test_unattributed_is_wall_outside_root_spans(self):
        dump = {"wall": [0, 200], "spans": [_span(0, -1, 10, 60), _span(1, 0, 20, 30)]}
        assert unattributed_ns(dump) == 150
        assert root_ns_within(dump, 0, 15) == 50
        assert root_ns_within(dump, 15, 200) == 0

    def test_windows_leave_idle_time_out(self):
        dump = {"wall": [0, 1000], "spans": [
            _span(0, -1, 10, 60, "store.load"), _span(1, -1, 700, 750, "store.load")]}
        assert unattributed_ns(dump, [(0, 100), (650, 800)]) == 150
        metrics = layer_metrics([(dump, [(0, 100), (650, 800)])])
        assert metrics["trace.wall_s"] == pytest.approx(250e-9)
        assert metrics["trace.unattributed_ratio"] == pytest.approx(0.6)
        assert metrics["trace.attribution_error_ratio"] == 0.0

    def test_partition_of_wall_has_no_attribution_error(self):
        dump = {"wall": [0, 1000], "spans": [
            _span(0, -1, 0, 400, "service.compute", thread=1),
            _span(1, 0, 100, 300, "sim.record", thread=1,
                  counts={"positions": 50, "replayable": 1}),
            _span(2, -1, 500, 600, "store.load", thread=2, counts={"hit": 1}),
        ]}
        metrics = layer_metrics([(dump, None)])
        assert metrics["service.compute_s"] == pytest.approx(200e-9)
        assert metrics["sim.record_ns_per_position"] == pytest.approx(4.0)
        assert metrics["store.hit_ratio"] == 1.0
        assert metrics["trace.unattributed_ratio"] == pytest.approx(0.5)
        assert metrics["trace.attribution_error_ratio"] == 0.0

    def test_overlapping_threads_show_as_attribution_error(self):
        dump = {"wall": [0, 1000], "spans": [
            _span(0, -1, 0, 500, "service.compute", thread=1),
            _span(1, -1, 0, 500, "service.prepare", thread=2),
        ]}
        assert layer_metrics([(dump, None)])["trace.attribution_error_ratio"] == pytest.approx(0.5)

    def test_simulated_statistics_sum_over_engines(self):
        dump = {"wall": [0, 10], "spans": [
            _span(0, -1, 0, 2, "runtime.interp",
                  counts={"active_cycles": 5, "outages": 1, "skims": 1}),
            _span(1, -1, 3, 5, "runtime.batch", counts={
                "lanes": 4, "kept": 3, "active_cycles": 7, "outages": 2, "skims": 0}),
        ]}
        metrics = layer_metrics([(dump, None)])
        assert metrics["sim.active_cycles"] == 12
        assert metrics["sim.outages"] == 3
        assert metrics["runtime.batch_kept_ratio"] == 0.75


def _sub(sent, done, levelk=None, ok=True):
    result = {"event": "result"} if ok else None
    return session.Submission({}, sent, done, levelk, result, None if ok else "lost")


class TestStreamMetrics:
    def test_cold_jobs_without_level_k_give_no_level_k_metric(self):
        cold = [_sub(0.0, 0.5), _sub(1.0, 1.3)]
        metrics = session.stream_metrics(cold, [])
        assert metrics["levelk_mean_ms"] is None
        assert metrics["miss_mean_ms"] == pytest.approx(400.0)
        assert metrics["hit_mean_ms"] is None
        assert metrics["hit_p90_ms"] is None

    def test_unanswered_submissions_are_left_out(self):
        cold = [_sub(0.0, 0.2, levelk=0.1), _sub(1.0, 9.0, ok=False)]
        warm = [_sub(0.0, 0.001 * (i % 2 + 1)) for i in range(200)] + [_sub(0.0, 5.0, ok=False)]
        metrics = session.stream_metrics(cold, [warm])
        assert metrics["miss_mean_ms"] == pytest.approx(200.0)
        assert metrics["levelk_mean_ms"] == pytest.approx(100.0)
        assert metrics["hit_mean_ms"] == pytest.approx(1.5)
        assert metrics["hit_p90_ms"] == pytest.approx(2.0)

    def test_hit_statistics_are_medians_over_rounds(self):
        fast = [_sub(0.0, 0.001) for _ in range(200)]
        stalled = [_sub(0.0, 0.050) for _ in range(200)]
        metrics = session.stream_metrics([], [fast, stalled, fast])
        assert metrics["hit_mean_ms"] == pytest.approx(1.0)
        assert metrics["hit_p90_ms"] == pytest.approx(1.0)

    def test_failed_submissions_are_counted(self):
        tally = session.Tally()
        job = job_set(3, 1)[0]
        lost = session.Submission(job, 0.0, 1.0, None, None, "lost")
        session.check_submissions([lost], "computed", tally, {})
        assert (tally.attempted, tally.failed) == (1, 1)

    def test_missing_span_dump_is_a_failed_operation(self, tmp_path):
        tally = session.Tally()
        assert session.load_spans(tmp_path / "absent.json", tally) is None
        assert (tally.attempted, tally.failed) == (1, 1)

    def test_rounds_split_the_cold_phase_evenly(self):
        chunks = session._chunks(list(range(30)), session.COLD_ROUNDS)
        assert sorted(len(c) for c in chunks) == [7, 7, 8, 8]
        assert sum(chunks, []) == list(range(30))


class TestHostScaling:
    def test_named_timings_scale_by_host_speed(self):
        slow = [2 * session.PROBE_REFERENCE_S] * 3
        raw = {"wall_s": 3.0, "hit_p90_ms": None, "peak_rss_mb": 60.0}
        assert session.host_scaled(raw, ("wall_s", "hit_p90_ms"), slow) == {
            "wall_s": 1.5, "hit_p90_ms": None}

    def test_factor_is_the_median_probe(self):
        probes = [session.PROBE_REFERENCE_S * f for f in (1.0, 2.0, 9.0)]
        assert session.host_scaled({"setup_s": 1.0}, ("setup_s",), probes) == {
            "setup_s": 0.5}

    def test_every_scaled_timing_is_an_end_to_end_metric(self):
        assert set(session.SCALED) <= set(run.END_TO_END)


class TestStream:
    def test_same_seed_same_stream(self):
        jobs = job_set(9, 3)
        assert make_stream(jobs, 7) == make_stream(jobs, 7)
        assert make_stream(jobs, 7) != make_stream(jobs, 8)

    def test_every_seed_submits_the_same_job_multiset(self):
        jobs = job_set(3, 1)
        cold_jobs = Counter(job_key(job) for job in jobs)
        warm_jobs = Counter(job_key(job) for job in warm_multiset(jobs))
        assert sum(warm_jobs.values()) == WARM_SUBMISSIONS
        assert set(warm_jobs) <= set(cold_jobs)
        for seed in range(20):
            cold, warm = make_stream(jobs, seed)
            assert Counter(job_key(job) for job in cold) == cold_jobs
            assert Counter(job_key(job) for job in warm) == warm_jobs

    def test_precise_job_opens_each_workload(self):
        for seed in range(20):
            cold, _warm = make_stream(job_set(9, 3), seed)
            seen = set()
            for job in cold:
                if job["workload"] not in seen:
                    assert job["mode"] == "precise"
                    seen.add(job["workload"])
        orders = {tuple(job_key(job) for job in make_stream(job_set(9, 3), seed)[0])
                  for seed in range(20)}
        assert len(orders) == 20

    def test_job_set_is_thirty_distinct_configurations(self):
        keys = [job_key(job) for job in job_set(9, 3)]
        assert len(keys) == len(set(keys)) == 30

    def test_warm_phase_is_skewed(self):
        _cold, warm = make_stream(job_set(9, 3), 1)
        top = Counter(job_key(job) for job in warm).most_common(1)[0][1]
        assert top > 3 * WARM_SUBMISSIONS / 30


class TestDigest:
    EVENT = {
        "config": {"workload": "MatMul", "summary": {"median_wall_ms": 40}},
        "metrics": {
            "counters": {"samples": 27, "engine.batch": 27, "outages": 229},
            "histograms": {"wall_ms": {"count": 27, "sum": 2318.0}},
        },
        "ledger": {"cycles": {"useful": 10, "reexec": 2}, "total_cycles": 12},
    }

    def _with(self, **changes):
        event = json.loads(json.dumps(self.EVENT))
        for path, value in changes.items():
            target = event
            *parents, leaf = path.split("__")
            for key in parents:
                target = target[key]
            target[leaf] = value
        return event

    def test_ignores_engine_counters(self):
        other = self._with(metrics__counters={
            "samples": 27, "engine.interp": 27, "outages": 229, "replay_fallbacks": 1})
        assert result_digest(other) == result_digest(self.EVENT)

    def test_ignores_ledger_split_but_not_total(self):
        split = self._with(ledger__cycles={"useful": 11, "reexec": 1})
        assert result_digest(split) == result_digest(self.EVENT)
        total = self._with(ledger__total_cycles=13)
        assert result_digest(total) != result_digest(self.EVENT)

    def test_sees_simulated_results(self):
        assert result_digest(self._with(
            metrics__counters={"samples": 27, "engine.batch": 27, "outages": 230},
        )) != result_digest(self.EVENT)
        assert result_digest(self._with(
            config={"workload": "MatMul", "summary": {"median_wall_ms": 41}},
        )) != result_digest(self.EVENT)


class TestContract:
    def test_benchmark_json_matches_the_runner(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(session.WORKLOADS)
        assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER

    def test_child_environment_is_hermetic(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        env = session.child_env(tmp_path)
        assert not [name for name in env if name.startswith("REPRO_")]
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert env["PYTHONHASHSEED"] == "0"
        assert env["PYTHONUNBUFFERED"] == "1"
        assert env["PYTHONPATH"] == str(tmp_path / "src")

    def test_goldens_cover_every_job(self):
        for spec in session.WORKLOADS.values():
            goldens = session.golden_json("service-{}x{}.json".format(*spec.grid))
            assert set(goldens) == {job_key(job) for job in job_set(*spec.grid)}
