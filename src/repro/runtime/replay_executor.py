"""Replay one intermittent sample against a recorded commit log.

:func:`replay_intermittent` is the replay twin of
:meth:`repro.core.anytime.AnytimeKernel.run_intermittent`: the same
sample, the same ``RunResult`` timing fields, outage count and outputs,
computed from a :class:`~repro.sim.replay.ReplayRecord` instead of a
live CPU. It runs the sample as a one-lane batch of
:class:`~repro.runtime.batch_executor.BatchReplayExecutor` (the only
replay tick loop) and re-raises the exception a demoted lane carries:
:class:`~repro.sim.replay.ReplayDiverged` when the log cannot reproduce
the sample exactly (the caller interprets it live), and
:class:`~repro.errors.ProgressStall` when the sample makes no progress.
"""

from __future__ import annotations

from typing import Optional

from ..core.anytime import IntermittentRun
from ..power.capacitor import Capacitor
from ..power.energy import EnergyModel
from ..power.trace import PowerTrace
from ..sim.replay import ReplayRecord
from .batch_executor import run_lanes


def replay_intermittent(
    kernel,
    record: ReplayRecord,
    inputs,
    trace: PowerTrace,
    runtime: str = "clank",
    capacitor: Optional[Capacitor] = None,
    energy_model: Optional[EnergyModel] = None,
    start_tick: int = 0,
    max_wall_ms: int = 10_000_000,
    watchdog_cycles: Optional[int] = None,
) -> IntermittentRun:
    """Run one intermittent sample against the commit log.

    Drop-in for :meth:`AnytimeKernel.run_intermittent` with identical
    results; raises :class:`~repro.sim.replay.ReplayDiverged` when the
    log cannot reproduce this sample exactly (caller replays live).
    """
    lane_args = {
        "trace": trace,
        "runtime": runtime,
        "capacitor": capacitor or Capacitor(),
        "energy_model": energy_model or EnergyModel(),
        "start_tick": start_tick,
        "max_wall_ms": max_wall_ms,
        "watchdog_cycles": watchdog_cycles,
    }
    ((run, error),) = run_lanes(kernel, record, inputs, [lane_args])
    if error is not None:
        raise error
    return run
