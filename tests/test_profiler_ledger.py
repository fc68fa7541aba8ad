"""Tests for the cycle profiler, progress ledger, dashboard and history.

Covers the PR's acceptance criteria: ledger buckets sum exactly to the
supply-consumed active cycles for every engine (interpreter and replay,
all runtimes), serial and ``REPRO_JOBS`` rollups merge identically, the
folded-stack profiler attributes every cycle it reads, the JSON trace
summary keeps a stable schema, ``experiment_jobs`` warns once on junk,
and the bench history gate passes/fails around its rolling median.
"""

import json
import os

import pytest

from repro import benchmarking
from repro.experiments import (
    ExperimentSetup,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark,
)
from repro.experiments import common
from repro.observability import (
    BUCKETS,
    PROFILER,
    TRACER,
    ProgressLedger,
    fold_cpu,
    fold_record,
    format_folded,
    ledger_path_from_env,
    merge_bucket_dicts,
    profile_path_from_env,
    region_rows,
    summary_to_dict,
)
from repro.observability.dashboard import (
    ReportData,
    load_report_data,
    render_html_report,
    render_report,
)
from repro.observability.profiler import region_of, region_table
from repro.observability.summarize import summarize_trace
from repro.workloads import make_workload

TINY = ExperimentSetup(scale="tiny", trace_count=2, invocations=1)


@pytest.fixture(autouse=True)
def _quiet_observability(monkeypatch):
    """Every test starts with all REPRO_* observability knobs off."""
    for key in ("REPRO_TRACE", "REPRO_BATCH", "REPRO_METRICS",
                "REPRO_MANIFEST", "REPRO_JOBS", "REPRO_PROFILE",
                "REPRO_LEDGER"):
        monkeypatch.delenv(key, raising=False)
    TRACER.disable()
    PROFILER.disable()
    yield
    TRACER.disable()
    PROFILER.disable()


def _matmul_env():
    workload = make_workload("MatMul", "tiny")
    env = calibrate_environment(measure_precise_cycles(workload), TINY)
    return workload, env


class TestProgressLedger:
    def test_buckets_sum_and_verbs(self):
        ledger = ProgressLedger()
        ledger.execute(100)
        ledger.commit()                      # 100 useful
        ledger.execute(50)
        ledger.discard()                     # 50 dead, 50 cycles of debt
        ledger.execute(80)
        ledger.commit()                      # 50 reexec + 30 useful
        ledger.overhead("checkpoint", 7)
        ledger.overhead("restore", 9)
        ledger.close()
        assert ledger.cycles_dict() == {
            "useful": 130, "reexec": 50, "checkpoint": 7,
            "restore": 9, "dead": 50,
        }
        assert ledger.total_cycles == 246

    def test_close_commits_pending_work(self):
        ledger = ProgressLedger()
        ledger.execute(42)
        ledger.close()
        assert ledger.cycles_dict()["useful"] == 42

    def test_merge_is_bucket_sum(self):
        a, b = ProgressLedger(), ProgressLedger()
        a.execute(10)
        a.commit()
        b.overhead("restore", 5)
        a.merge(b)
        assert a.cycles_dict() == {
            "useful": 10, "reexec": 0, "checkpoint": 0,
            "restore": 5, "dead": 0,
        }

    def test_bucket_dict_energy_scales_cycles(self):
        ledger = ProgressLedger()
        ledger.execute(100)
        ledger.close()
        out = ledger.bucket_dict(2e-12)
        assert out["cycles"]["useful"] == 100
        assert out["energy_j"]["useful"] == pytest.approx(200e-12)
        assert out["total_energy_j"] == pytest.approx(200e-12)

    def test_merge_bucket_dicts_associative(self):
        dicts = []
        for seed in (3, 5, 7):
            ledger = ProgressLedger()
            ledger.execute(seed * 10)
            ledger.discard()
            ledger.execute(seed * 20)
            ledger.close()
            dicts.append(ledger.bucket_dict(1e-12))
        left = None
        for d in dicts:
            left = merge_bucket_dicts(left, d)
        right = None
        for d in reversed(dicts):
            right = merge_bucket_dicts(right, d)
        assert left == right
        assert left["total_cycles"] == sum(d["total_cycles"] for d in dicts)


class TestLedgerExactness:
    @pytest.mark.parametrize("runtime", ["clank", "nvp", "hibernus"])
    def test_interp_buckets_sum_to_active_cycles(self, runtime):
        """Every supply-consumed active cycle lands in exactly one bucket."""
        workload, env = _matmul_env()
        result = run_benchmark(workload, "swp", 8, runtime, TINY, env, jobs=1)
        for run in result.runs:
            cycles = run.ledger["cycles"]
            assert set(cycles) == set(BUCKETS)
            assert sum(cycles.values()) == run.ledger["total_cycles"]
            assert run.ledger["total_cycles"] == run.active_cycles
            energy = run.ledger["energy_j"]
            assert sum(energy.values()) == pytest.approx(
                run.ledger["total_energy_j"]
            )

    @pytest.mark.parametrize("runtime", ["clank", "nvp"])
    def test_replay_engine_ledger_matches_interp(self, runtime, monkeypatch):
        """One-lane replay (the batch engine under an armed sample
        timeout) books the same buckets as the interpreter."""
        workload, env = _matmul_env()
        interp = run_benchmark(workload, "swp", 8, runtime, TINY, env, jobs=1)
        monkeypatch.setenv("REPRO_BATCH", "1")
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "600")
        replay = run_benchmark(workload, "swp", 8, runtime, TINY, env, jobs=1)
        assert interp.runs == replay.runs  # results identical first
        for a, b in zip(interp.runs, replay.runs):
            assert a.ledger == b.ledger
            assert b.ledger["total_cycles"] == b.active_cycles

    def test_serial_and_parallel_rollups_identical(self, monkeypatch):
        """REPRO_JOBS=4 workers must merge to the serial ledger rollup."""
        workload, env = _matmul_env()
        serial = run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=1)
        parallel = run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=4)
        assert serial.runs == parallel.runs
        assert serial.merged_ledger() == parallel.merged_ledger()
        merged = serial.merged_ledger()
        assert merged["total_cycles"] == sum(
            r.active_cycles for r in serial.runs
        )

    def test_ledger_rollup_file(self, monkeypatch, tmp_path):
        """REPRO_LEDGER appends one JSONL rollup line per configuration."""
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(path))
        workload, env = _matmul_env()
        result = run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=1)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == 1
        entry = lines[0]
        assert entry["workload"] == "MatMul"
        assert entry["runtime"] == "clank"
        assert entry["samples"] == len(result.runs)
        assert entry["ledger"] == result.merged_ledger()


class TestProfiler:
    def test_env_parse(self, monkeypatch):
        assert profile_path_from_env() is None
        assert ledger_path_from_env() is None
        monkeypatch.setenv("REPRO_PROFILE", "   ")
        monkeypatch.setenv("REPRO_LEDGER", "")
        assert profile_path_from_env() is None
        assert ledger_path_from_env() is None
        monkeypatch.setenv("REPRO_PROFILE", " p.folded ")
        monkeypatch.setenv("REPRO_LEDGER", "l.jsonl")
        assert profile_path_from_env() == "p.folded"
        assert ledger_path_from_env() == "l.jsonl"

    def _halted_cpu(self):
        workload = make_workload("MatMul", "tiny")
        kernel = common.build_anytime(workload, "swp", 8)
        cpu = kernel.make_cpu(workload.inputs)
        while not cpu.halted:
            if cpu.run_cycles(100_000) == 0:
                break
        return cpu

    def test_fold_cpu_accounts_every_cycle(self):
        """Folded stacks reproduce the CPU's cycle total exactly."""
        cpu = self._halted_cpu()
        stacks = fold_cpu(cpu, "mm/clank")
        folded_total = sum(stacks.values())
        assert cpu.stats.cycles == folded_total  # .stats AFTER folding
        assert all(s.startswith("mm/clank;") for s in stacks)

    def test_fold_record_matches_fold_cpu(self):
        """Replay prefix sums attribute identically to live counters."""
        from repro.sim.replay import record_run

        workload = make_workload("MatMul", "tiny")
        kernel = common.build_anytime(workload, "swp", 8)
        cpu = self._halted_cpu()
        live = fold_cpu(cpu, "x")
        live.pop("x;<variable-cost>", None)
        record = record_run(kernel, workload.inputs)
        assert record.replayable
        replayed = fold_record(record, kernel.compiled.program, "x")
        # Live counters park variable costs in a synthetic frame; the
        # replay log knows true per-PC costs, so it only ever shows
        # *more* cycles at a PC, never different PCs.
        assert set(live) <= set(replayed)
        assert sum(replayed.values()) == record.cum_cost[record.length]

    def test_region_attribution(self):
        workload = make_workload("MatMul", "tiny")
        program = common.build_anytime(workload, "swp", 8).compiled.program
        indices, names = region_table(program)
        assert indices == sorted(indices)
        assert region_of(0, indices, names) == "_entry" or indices[0] == 0
        last = indices[-1]
        assert region_of(last, indices, names) == names[-1]
        assert region_of(last + 5, indices, names) == names[-1]

    def test_format_folded_and_region_rows(self):
        stacks = {"run;L_k;MUL@7": 600, "run;L_k;LDR@6": 100,
                  "run;L_i;MOV@1": 300}
        text = format_folded(stacks)
        assert text.splitlines() == sorted(text.splitlines())
        assert "run;L_k;MUL@7 600" in text
        rows = region_rows(stacks, top=1)
        assert rows == [["L_k", "700", "70.0%", "MUL@7"]]

    def test_grid_collection_appends_folded_file(self, monkeypatch, tmp_path):
        path = tmp_path / "grid.folded"
        monkeypatch.setenv("REPRO_PROFILE", str(path))
        PROFILER.enable(str(path))
        try:
            workload, env = _matmul_env()
            run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=1)
        finally:
            PROFILER.disable()
        lines = path.read_text().splitlines()
        assert lines, "armed grid run must append folded stacks"
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0
            assert stack.count(";") >= 1

    def test_disarmed_grid_collects_nothing(self):
        assert not PROFILER.enabled
        before = PROFILER.collections
        workload, env = _matmul_env()
        run_benchmark(workload, "swp", 8, "clank", TINY, env, jobs=1)
        assert PROFILER.collections == before


class TestExperimentJobs:
    @pytest.mark.parametrize("raw", ["0", "-2", "junk"])
    def test_invalid_values_fall_back_serial_with_one_warning(
        self, raw, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_JOBS", raw)
        monkeypatch.setattr(common, "_jobs_warning_emitted", False)
        assert common.experiment_jobs() == 1
        assert common.experiment_jobs() == 1  # second call: no new warning
        err = capsys.readouterr().err
        assert err.count("ignoring invalid REPRO_JOBS") == 1

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 3 ")
        assert common.experiment_jobs() == 3


class TestSummaryJson:
    SCHEMA_KEYS = {
        "schema", "path", "total_events", "parse_errors", "pids",
        "event_counts", "samples", "skim", "outages", "fallback_reasons",
        "orphan_events", "sample_list",
    }

    def _write_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [
            {"t": "sample_start", "pid": 1, "workload": "MatMul",
             "mode": "swp", "bits": 8, "runtime": "clank", "trace": 0,
             "invocation": 0},
            {"t": "outage", "pid": 1, "tick": 40},
            {"t": "replay_fallback", "pid": 1, "reason": "divergence"},
            {"t": "sample_end", "pid": 1, "engine": "interp",
             "completed": True, "skim_taken": False, "wall_ms": 3},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        return path

    def test_schema_is_stable(self, tmp_path):
        out = summary_to_dict(summarize_trace(str(self._write_trace(tmp_path))))
        assert set(out) == self.SCHEMA_KEYS
        assert out["schema"] == 1
        assert out["samples"] == {
            "total": 1, "completed": 1, "skimmed": 0,
            "engines": {"interp": 1},
        }
        assert out["fallback_reasons"] == {"divergence": 1}
        sample = out["sample_list"][0]
        assert sample["config"] == "MatMul/swp8/clank"
        assert sample["outages"] == 1
        json.dumps(out)  # fully serializable

    def test_garbage_lines_tolerated(self, tmp_path):
        path = self._write_trace(tmp_path)
        with open(path, "a", encoding="utf-8") as file:
            file.write("{truncated\n\nnot json at all\n")
        out = summary_to_dict(summarize_trace(str(path)))
        assert out["parse_errors"] == 2
        assert out["samples"]["total"] == 1

    def test_limit_caps_sample_list(self, tmp_path):
        summary = summarize_trace(str(self._write_trace(tmp_path)))
        assert summary_to_dict(summary, limit=0)["sample_list"] == []
        assert len(summary_to_dict(summary)["sample_list"]) == 1


class TestDashboard:
    def _data(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "schema": 1, "command": "run fig10", "git_sha": "a" * 40,
            "python": "3.11", "platform": "test",
            "results": [
                {"workload": "MatMul", "mode": "precise", "bits": None,
                 "runtime": "clank", "engine": "interp", "samples": 2,
                 "metrics": {"counters": {"outages": 4},
                             "histograms": {"wall_ms": {
                                 "count": 2, "sum": 20, "min": 8, "max": 12}}}},
                {"workload": "MatMul", "mode": "swp", "bits": 8,
                 "runtime": "clank", "engine": "interp", "samples": 2,
                 "metrics": {"counters": {"outages": 4, "skims_taken": 2},
                             "histograms": {
                                 "wall_ms": {"count": 2, "sum": 10,
                                             "min": 4, "max": 6},
                                 "error": {"count": 2, "sum": 3.0,
                                           "min": 1.0, "max": 2.0}}}},
            ],
        }))
        ledger = tmp_path / "l.jsonl"
        ledger.write_text(json.dumps({
            "workload": "MatMul", "mode": "swp", "bits": 8,
            "runtime": "clank", "engine": "interp", "samples": 2,
            "ledger": {
                "cycles": {"useful": 70, "reexec": 10, "checkpoint": 10,
                           "restore": 5, "dead": 5},
                "energy_j": {"useful": 7e-9, "reexec": 1e-9,
                             "checkpoint": 1e-9, "restore": 5e-10,
                             "dead": 5e-10},
                "total_cycles": 100, "total_energy_j": 1e-8,
            },
        }) + "\n")
        history = tmp_path / "h.jsonl"
        history.write_text("".join(
            json.dumps({"kind": "interp", "configs": [
                {"workload": "MatMul", "mode": "precise", "bits": None,
                 "normalized_fast": 0.2 + 0.01 * i}]}) + "\n"
            for i in range(3)
        ))
        return load_report_data(manifest=str(manifest), ledger=str(ledger),
                                history=str(history))

    def test_text_report_sections(self, tmp_path):
        text = render_report(self._data(tmp_path))
        assert "Configurations" in text
        assert "Forward progress" in text
        assert "2.00x" in text  # 20/2 over 10/2 wall means
        assert "bench history: 3 record(s)" in text

    def test_html_report_is_self_contained(self, tmp_path):
        page = render_html_report(self._data(tmp_path), title="t<&>t")
        assert page.startswith("<!DOCTYPE html>")
        assert "t&lt;&amp;&gt;t" in page  # title escaped
        lowered = page.lower()
        assert "<script" not in lowered
        assert 'src="http' not in lowered and "@import" not in lowered
        for needle in ("--series-1", "prefers-color-scheme: dark",
                       '[data-theme="dark"]', "tabular-nums", "<table",
                       'class="legend"', "polyline", "useful progress"):
            assert needle in page, needle

    def test_empty_data_renders_placeholder(self):
        assert "nothing to report" in render_report(ReportData())
        assert "nothing to report" in render_html_report(ReportData())

    def test_missing_history_is_empty_not_error(self, tmp_path):
        data = load_report_data(history=str(tmp_path / "nope.jsonl"))
        assert data.history == []

    def test_unreadable_manifest_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_report_data(manifest=str(tmp_path / "nope.json"))


class TestBenchHistory:
    def _record(self, value):
        return {"kind": "interp", "configs": [
            {"workload": "MatMul", "mode": "precise", "bits": None,
             "normalized_fast": value}]}

    def _current(self, value):
        return {"configs": [{"workload": "MatMul", "mode": "precise",
                             "bits": None, "normalized_fast": value}]}

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        benchmarking.append_history(self._record(0.2), path)
        benchmarking.append_history(self._record(0.3), path)
        with open(path, "a") as file:
            file.write("garbage line\n")
        records = benchmarking.load_history(path)
        assert len(records) == 2
        assert records[0]["configs"][0]["normalized_fast"] == 0.2

    def test_missing_history_passes(self, tmp_path):
        failures = benchmarking.check_history(
            self._current(0.001), tmp_path / "none.jsonl"
        )
        assert failures == []

    def test_rolling_median_gate(self, tmp_path):
        path = tmp_path / "h.jsonl"
        for value in (0.20, 0.22, 0.24):
            benchmarking.append_history(self._record(value), path)
        assert benchmarking.check_history(self._current(0.20), path) == []
        failures = benchmarking.check_history(self._current(0.10), path)
        assert len(failures) == 1
        assert "rolling median" in failures[0]

    def test_window_ignores_ancient_records(self, tmp_path):
        path = tmp_path / "h.jsonl"
        benchmarking.append_history(self._record(10.0), path)  # ancient
        for value in (0.20, 0.21, 0.22):
            benchmarking.append_history(self._record(value), path)
        assert benchmarking.check_history(
            self._current(0.19), path, window=3
        ) == []

    def test_committed_history_is_seeded(self):
        records = benchmarking.load_history()
        assert len(records) >= 3
        assert any(r.get("kind") == "interp" for r in records)

    def test_history_record_shape(self):
        payload = {"machine_ops_per_s": 1e7, "configs": [
            {"workload": "W", "mode": "m", "bits": 8,
             "normalized_fast": 0.5, "fast_instr_per_s": 123.0,
             "reference_instr_per_s": 45.0, "speedup": 2.7,
             "instructions": 10, "scale": "default"}]}
        record = benchmarking.history_record(payload)
        assert record["kind"] == "interp"
        assert record["configs"] == [
            {"workload": "W", "mode": "m", "bits": 8, "normalized_fast": 0.5}
        ]
        assert "fast_instr_per_s" not in json.dumps(record)
