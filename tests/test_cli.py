"""Tests for the `python -m repro` command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1" in out and "ablation-memo" in out

    def test_list_leaves_numpy_unimported(self):
        """numpy is imported by the functions that use it, so commands
        that never compute (and every server boot) skip its import."""
        code = (
            "import contextlib, io, sys\n"
            "from repro.__main__ import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['list'])\n"
            "print('numpy' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": str(src), "PATH": ""}, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_run_areapower(self, capsys):
        assert main(["run", "areapower"]) == 0
        out = capsys.readouterr().out
        assert "Fmax" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_tiny_table1(self, capsys):
        assert main(["run", "table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Conv2d" in out

    def test_bench_tiny(self, capsys):
        assert main(["bench", "MatAdd", "--scale", "tiny", "--traces", "2"]) == 0
        out = capsys.readouterr().out
        assert "8-bit" in out and "speedup" in out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "Quux"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestProfileCli:
    def test_profile_table_and_folded_output(self, capsys, tmp_path):
        out_path = tmp_path / "mm.folded"
        assert main(["profile", "MatMul", "--scale", "tiny",
                     "--top", "3", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Hot regions" in out
        assert "region" in out and "share" in out
        lines = out_path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0 and ";" in stack

    def test_profile_unknown_benchmark(self, capsys):
        assert main(["profile", "Quux"]) == 2


class TestReportCli:
    def test_trace_summarize_json(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps({"t": "sample_start", "pid": 1, "workload": "W",
                        "mode": "swp", "bits": 8, "runtime": "clank",
                        "trace": 0, "invocation": 0}) + "\n"
            + json.dumps({"t": "sample_end", "pid": 1, "engine": "interp",
                          "completed": True, "skim_taken": False,
                          "wall_ms": 1}) + "\n"
        )
        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["samples"]["total"] == 1

    def test_report_text_and_html(self, capsys, tmp_path):
        import json

        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "schema": 1, "command": "run x", "git_sha": "f" * 40,
            "python": "3", "platform": "p",
            "results": [{"workload": "W", "mode": "precise", "bits": None,
                         "runtime": "clank", "engine": "interp",
                         "samples": 1,
                         "metrics": {"counters": {},
                                     "histograms": {"wall_ms": {
                                         "count": 1, "sum": 5,
                                         "min": 5, "max": 5}}}}],
        }))
        assert main(["report", "--manifest", str(manifest)]) == 0
        assert "Configurations" in capsys.readouterr().out

        html_path = tmp_path / "dash.html"
        assert main(["report", "--manifest", str(manifest), "--html",
                     "--output", str(html_path)]) == 0
        page = html_path.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page.lower()

    def test_report_unreadable_input(self, capsys, tmp_path):
        assert main(["report", "--manifest", str(tmp_path / "no.json")]) == 2
