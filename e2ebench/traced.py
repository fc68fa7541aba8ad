"""Run ``python -m repro`` with host-time spans around each layer's entry points.

Usage: ``python e2ebench/traced.py SPANS.json REPRO_ARGS...``

The wrapper imports every ``repro`` module, replaces each entry point
below wherever a module or class binds it, then dispatches to
``repro.__main__.main``. Spans open at configuration granularity (no
per-tick call is wrapped), stay in memory and are written to
``SPANS.json`` when the command returns; for ``serve`` that is after
its ``shutdown``. The format is described in ``spans.py``.
"""

from __future__ import annotations

import time

WALL_START = time.monotonic_ns()

import functools  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def _engine_counts(_args, run) -> dict:
    result = run.result
    return {
        "active_cycles": result.active_cycles,
        "outages": result.outages,
        "skims": int(result.skim_taken),
    }


def _batch_counts(args, runs) -> dict:
    kept = [run for run in runs if run is not None]
    return {
        "lanes": len(args[3]),
        "kept": len(kept),
        "active_cycles": sum(run.result.active_cycles for run in kept),
        "outages": sum(run.result.outages for run in kept),
        "skims": sum(int(run.result.skim_taken) for run in kept),
    }


def _record_counts(_args, record) -> dict:
    return {"positions": record.length, "replayable": int(record.replayable)}


def _load_counts(_args, payload) -> dict:
    return {"hit": int(payload is not None)}


#: (module, function, span, counts) for module-level entry points.
FUNCTIONS = (
    ("repro.workloads", "make_workload", "workloads.build", None),
    ("repro.compiler.codegen", "compile_kernel", "compiler.compile", None),
    ("repro.experiments.common", "measure_precise_cycles", "experiments.calibrate", None),
    ("repro.experiments.common", "calibrate_environment", "experiments.calibrate", None),
    ("repro.sim.replay", "record_run", "sim.record", _record_counts),
    ("repro.runtime.batch_executor", "run_batch_group", "runtime.batch", _batch_counts),
    ("repro.runtime.replay_executor", "replay_intermittent", "runtime.replay", _engine_counts),
    ("repro.core.quality", "nrmse", "core.grade", None),
    ("repro.power.harvester", "paper_traces", "power.traces", None),
    ("repro.store.cas", "config_fingerprint", "store.fingerprint", None),
    ("repro.service.jobs", "prepare", "service.prepare", None),
    ("repro.service.jobs", "compute", "service.compute", None),
)
#: (module, class, method, span, counts) for methods.
METHODS = (
    ("repro.workloads.base", "Workload", "decoded_reference", "workloads.reference", None),
    ("repro.sim.cpu", "CPU", "run", "sim.cpu_run", None),
    ("repro.core.anytime", "AnytimeKernel", "run", "sim.cpu_run", None),
    ("repro.core.anytime", "AnytimeKernel", "run_intermittent", "runtime.interp", _engine_counts),
    ("repro.core.anytime", "AnytimeKernel", "quality_curve", "core.quality_curve", None),
    ("repro.store.cas", "ResultStore", "load", "store.load", _load_counts),
    ("repro.store.cas", "ResultStore", "put", "store.put", None),
    ("repro.service.journal", "JobJournal", "accept", "service.journal", None),
    ("repro.service.journal", "JobJournal", "done", "service.journal", None),
)


class Recorder:
    """In-memory span log with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, span: str, fn, counts=None):
        """``fn`` timed as one ``span`` per call, its parent being the
        span open on the calling thread."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else -1
            span_id = next(self._ids)
            stack.append(span_id)
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                extra = counts(args, result) if counts and result is not None else None
                self.spans.append(
                    (span_id, parent, threading.get_ident(), span, start, end, extra)
                )

        return traced

    def dump(self, path: str) -> None:
        """Write the wall interval and every closed span as JSON."""
        with open(path, "w", encoding="utf-8") as file:
            json.dump(
                {"wall": [WALL_START, time.monotonic_ns()], "spans": self.spans},
                file,
            )


def _traced_make_workload(recorder: Recorder, span: str, make):
    """``make_workload`` whose workloads time ``decode`` as grading."""

    def make_workload(*args, **kwargs):
        workload = make(*args, **kwargs)
        workload.decode = recorder.wrap("core.grade", workload.decode)
        return workload

    return recorder.wrap(span, make_workload)


def install(recorder: Recorder) -> None:
    """Import every ``repro`` module, then rebind each entry point in
    every module namespace that holds it and on its class."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "repro"]

    for module_name, attr, span, counts in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        if attr == "make_workload":
            replacement = _traced_make_workload(recorder, span, original)
        else:
            replacement = recorder.wrap(span, original, counts)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
    for module_name, cls_name, method, span, counts in METHODS:
        cls = getattr(sys.modules[module_name], cls_name)
        setattr(cls, method, recorder.wrap(span, getattr(cls, method), counts))


def main(argv) -> int:
    """Trace one ``repro`` command; spans go to ``argv[0]``."""
    spans_path, repro_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.__main__ import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
