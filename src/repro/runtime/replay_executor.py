"""The replay executor: commit log x power supply x replay policy.

The replay twin of :class:`repro.runtime.executor.IntermittentExecutor`.
It drives the *same* control flow — charge, restore, tick budgeting,
pending-overhead carry, watchdog chunking, the Hibernus snapshot
reserve, outage bookkeeping — but against a recorded commit log
(:class:`~repro.sim.replay.ReplayRecord`) instead of a live CPU:
executing a chunk is a bisect over cost prefix sums, restoring a
checkpoint is rewinding a stream position. Because the per-tick cycle
consumption is reproduced exactly, the supply sees the identical
energy trajectory and the run produces the identical ``RunResult``
timing fields, outage count and outputs as the interpreter path.

Two situations leave the log:

* **Skim handoff** — a restore consumes an armed skim register. The
  post-skim suffix (checkpoint registers + skim-target PC) was never
  recorded, so the executor reconstructs the concrete CPU + memory
  state at the cut from the nearest keyframe and store log, and hands
  the *same* supply and skim register to a live
  :class:`IntermittentExecutor` for the remainder.
* **Divergence** — a policy detects the log cannot stay truthful
  (Hibernus rewinding into a non-idempotent segment) and raises
  :class:`~repro.sim.replay.ReplayDiverged`; the caller falls back to
  the interpreter path for the whole sample.
"""

from __future__ import annotations

from typing import Optional

from ..core.anytime import IntermittentRun
from ..errors import ProgressStall
from ..observability.ledger import ProgressLedger
from ..observability.tracer import TRACER
from ..power.capacitor import Capacitor
from ..power.energy import EnergyModel
from ..power.supply import PowerSupply
from ..power.trace import PowerTrace
from ..sim.replay import ReplayRecord
from .checkpoint import Checkpoint
from .clank import ClankRuntime, ClankReplayPolicy
from .executor import (
    IDLE_TICK_LIMIT,
    STALLED_RESTORE_LIMIT,
    IntermittentExecutor,
    RunResult,
    check_sample_deadline,
)
from .hibernus import HibernusRuntime, HibernusReplayPolicy
from .nvp import NVPRuntime, NVPReplayPolicy
from .base import ReplayPolicy
from .progress import (
    ProgressReplayPolicy,
    ProgressRuntime,
    output_ranges_of,
    output_store_positions,
)
from .skim import SkimRegister

#: Replay handles exactly the runtimes the live path knows.
REPLAYABLE_RUNTIMES = ("clank", "progress", "nvp", "hibernus")

_LIVELOCK_MESSAGE = (
    "forward-progress livelock: 64 consecutive "
    "restores resumed from the same state; no "
    "progress survives the power cycles. Enlarge "
    "the storage capacitor or shorten the "
    "runtime's watchdog/checkpoint period."
)


class ReplayExecutor:
    """Runs one commit log under a power supply with a replay policy."""

    def __init__(
        self,
        record: ReplayRecord,
        supply: PowerSupply,
        policy: ReplayPolicy,
        skim: SkimRegister,
    ):
        self.record = record
        self.supply = supply
        self.policy = policy
        self.skim = skim
        #: Set when a restore consumed an armed skim register:
        #: (cut position, skim target, pending restore overhead).
        self.skim_cut: Optional[tuple] = None
        self.timed_out = False
        #: Forward-progress attribution, mirroring the live executor's.
        self.ledger = ProgressLedger()

    def run(self, max_wall_ms: int = 10_000_000) -> None:
        """Consume the log until halt, timeout or skim cut.

        Mirrors ``IntermittentExecutor.run`` statement for statement;
        every divergence from that loop is a correctness bug (the
        differential suite in ``tests/test_replay_engine.py`` checks
        the full experiment grid)."""
        supply = self.supply
        policy = self.policy
        skim = self.skim

        start_tick = supply.tick
        pending_overhead = 0
        pending_kind = "restore"
        ledger = self.ledger
        volatile = policy.name != "nvp"
        stalled_restores = 0
        idle_ticks = 0
        last_restore_signature = None
        jit_snapshot = getattr(policy, "on_low_voltage", None)
        interval = policy.watchdog_cycles

        while not policy.halted:
            if supply.tick - start_tick > max_wall_ms:
                self.timed_out = True
                break
            check_sample_deadline(supply.tick)

            if not supply.on:
                supply.charge_until_on()
                armed_before = skim.armed
                pending_overhead = policy.on_restore()
                pending_kind = "restore"
                took_skim = armed_before and not skim.armed
                if TRACER.enabled:
                    TRACER.emit(
                        "restore", tick=supply.tick, cost=pending_overhead,
                        runtime=policy.name, skim=took_skim, engine="replay",
                    )
                if took_skim:
                    self.skim_cut = (
                        policy.resume_position,
                        policy.skim_redirect,
                        pending_overhead,
                    )
                    return
                # Forward-progress guard, keyed on the resume position:
                # the stream is deterministic, so equal positions mean
                # the identical architectural state the live executor
                # fingerprints with (pc, registers).
                signature = policy.resume_position
                if signature == last_restore_signature:
                    stalled_restores += 1
                    if stalled_restores >= STALLED_RESTORE_LIMIT:
                        raise ProgressStall(
                            _LIVELOCK_MESSAGE,
                            position=policy.resume_position,
                            tick=supply.tick, runtime=policy.name,
                        )
                else:
                    stalled_restores = 0
                    last_restore_signature = signature

            budget = supply.begin_tick()
            used = 0
            if pending_overhead:
                paid = min(pending_overhead, budget)
                pending_overhead -= paid
                used = paid
                ledger.overhead(pending_kind, paid)

            reserved = 0
            if jit_snapshot is not None and supply.tick_energy_limited:
                reserved = min(policy.snapshot_cycles, budget - used)
                budget -= reserved
            while pending_overhead == 0 and not policy.halted and used < budget:
                chunk = budget - used
                if interval:
                    chunk = min(chunk, interval)
                # Clank's replay policy charges WAR checkpoints inside
                # run_chunk (the twin of the live store hook); the stats
                # delta separates them from program progress.
                ckpt_before = policy.stats.checkpoint_cycles
                ran = policy.run_chunk(chunk)
                ckpt_in_chunk = policy.stats.checkpoint_cycles - ckpt_before
                used += ran
                ledger.execute(ran - ckpt_in_chunk)
                if ckpt_in_chunk:
                    ledger.overhead("checkpoint", ckpt_in_chunk)
                    ledger.commit()
                overhead = policy.on_tick(ran)
                if overhead:
                    paid = min(overhead, budget - used)
                    used += paid
                    pending_overhead = overhead - paid
                    pending_kind = "checkpoint"
                    ledger.overhead("checkpoint", paid)
                    ledger.commit()
                if ran == 0:
                    break
            if reserved and not policy.halted:
                snap = min(jit_snapshot(), reserved)
                used += snap
                if snap:
                    ledger.overhead("checkpoint", snap)
                    ledger.commit()
            supply.consume_cycles(used)

            if supply.finish_tick():
                # Forward-progress watchdog — the replay twin of the
                # live executor's idle-tick guard.
                if used == 0:
                    idle_ticks += 1
                    if idle_ticks >= IDLE_TICK_LIMIT:
                        raise ProgressStall(
                            f"forward-progress stall: {IDLE_TICK_LIMIT} "
                            "consecutive powered ticks executed zero "
                            "cycles; the stored energy cannot cover the "
                            "next instruction. Enlarge the storage "
                            "capacitor or weaken the workload.",
                            position=policy.cursor, tick=supply.tick,
                            runtime=policy.name,
                        )
                else:
                    idle_ticks = 0
            else:
                idle_ticks = 0
                pending_overhead = 0
                if volatile and not policy.halted:
                    ledger.discard()
                else:
                    ledger.commit()
                policy.on_outage()
                if TRACER.enabled:
                    TRACER.emit(
                        "outage", tick=supply.tick, runtime=policy.name,
                        engine="replay",
                    )
                if policy.halted:
                    break


def _make_policy(
    runtime: str,
    record: ReplayRecord,
    skim: SkimRegister,
    watchdog_cycles: Optional[int],
    kernel=None,
) -> ReplayPolicy:
    if runtime == "clank":
        kwargs = {}
        if watchdog_cycles is not None:
            kwargs["watchdog_cycles"] = watchdog_cycles
        return ClankReplayPolicy(record, skim, **kwargs)
    if runtime == "progress":
        kwargs = {}
        if watchdog_cycles is not None:
            kwargs["watchdog_cycles"] = watchdog_cycles
        positions = output_store_positions(record, output_ranges_of(kernel))
        return ProgressReplayPolicy(record, skim, positions, **kwargs)
    if runtime == "nvp":
        return NVPReplayPolicy(record, skim)
    if runtime == "hibernus":
        return HibernusReplayPolicy(record, skim)
    raise ValueError(
        f"unknown runtime {runtime!r} "
        "(want 'clank', 'progress', 'nvp' or 'hibernus')"
    )


def _make_handoff_runtime(
    runtime: str, skim: SkimRegister, watchdog_cycles: Optional[int], kernel=None
):
    if runtime == "clank":
        kwargs = {"skim": skim}
        if watchdog_cycles is not None:
            kwargs["watchdog_cycles"] = watchdog_cycles
        return ClankRuntime(**kwargs)
    if runtime == "progress":
        kwargs = {"skim": skim}
        if watchdog_cycles is not None:
            kwargs["watchdog_cycles"] = watchdog_cycles
        return ProgressRuntime(output_ranges_of(kernel), **kwargs)
    if runtime == "nvp":
        return NVPRuntime(skim=skim)
    return HibernusRuntime(skim=skim)


def _merge_stats(into, other) -> None:
    into.checkpoints += other.checkpoints
    into.checkpoint_cycles += other.checkpoint_cycles
    into.restores += other.restores
    into.restore_cycles += other.restore_cycles
    into.war_violations += other.war_violations
    into.watchdog_checkpoints += other.watchdog_checkpoints
    into.extra.update(other.extra)


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
    skim = SkimRegister()
    policy = _make_policy(runtime, record, skim, watchdog_cycles, kernel)
    supply = PowerSupply(
        trace,
        capacitor or Capacitor(),
        energy_model or EnergyModel(),
        start_tick=start_tick,
    )
    executor = ReplayExecutor(record, supply, policy, skim)
    executor.run(max_wall_ms=max_wall_ms)
    return finish_replay_run(
        kernel, record, inputs, runtime, watchdog_cycles,
        supply, policy, skim, executor.ledger, executor.skim_cut,
        executor.timed_out, start_tick, max_wall_ms,
    )


def finish_replay_run(
    kernel,
    record: ReplayRecord,
    inputs,
    runtime: str,
    watchdog_cycles: Optional[int],
    supply: PowerSupply,
    policy: ReplayPolicy,
    skim: SkimRegister,
    ledger: ProgressLedger,
    skim_cut: Optional[tuple],
    timed_out: bool,
    start_tick: int,
    max_wall_ms: int,
) -> IntermittentRun:
    """Turn one finished replay walk into an :class:`IntermittentRun`.

    Shared epilogue of :func:`replay_intermittent` and the batch
    executor's per-lane finalization: output materialization, the skim
    handoff to live interpretation, stats/ledger merging and result
    assembly. Must run one lane at a time — ``materialize_cpu`` resets
    the record's cached CPU in place."""
    if skim_cut is None:
        completed = policy.halted
        if completed:
            outputs = {k: list(v) for k, v in record.final_outputs.items()}
        else:
            watermark = policy.max_position
            cpu = record.materialize_cpu(kernel, inputs, watermark, watermark)
            outputs = kernel.read_outputs(cpu)
        ledger.close()
        result = RunResult(
            completed=completed,
            skim_taken=False,
            timed_out=timed_out,
            wall_ms=supply.tick - start_tick,
            on_ms=supply.total_on_ms,
            off_ms=supply.total_off_ms,
            active_cycles=supply.total_cycles,
            outages=supply.outages,
            runtime_stats=policy.stats,
            ledger=ledger,
        )
        return IntermittentRun(outputs=outputs, result=result)

    # Skim handoff: rebuild the concrete state at the cut and run the
    # rest live. Memory reflects the furthest position ever executed
    # (re-executed stores rewrite identical values); the registers are
    # the checkpoint's, and the PC jumps to the consumed skim target.
    cut, target, pending = skim_cut
    cpu = record.materialize_cpu(kernel, inputs, cut, policy.max_position)
    checkpoint = Checkpoint.from_cpu(cpu)
    cpu.pc = target
    cpu.halted = False
    live_runtime = _make_handoff_runtime(runtime, skim, watchdog_cycles, kernel)
    live = IntermittentExecutor(cpu, supply, live_runtime)
    if hasattr(live_runtime, "checkpoint"):
        # The live runtime's entry checkpoint must be the *pre-skim*
        # checkpoint: a skim jump does not move the backup location, so
        # an outage before the next checkpoint rewinds behind the skim
        # target (exactly what the live path does).
        live_runtime.checkpoint = checkpoint
    elapsed = supply.tick - start_tick
    # The live suffix continues the replay-side ledger: its
    # re-execution debt is still owed, and the suffix repays it first.
    handoff = live.run(
        max_wall_ms=max_wall_ms - elapsed, carry_overhead=pending,
        ledger=ledger,
    )
    _merge_stats(policy.stats, handoff.runtime_stats)
    result = RunResult(
        completed=handoff.completed,
        skim_taken=True,
        timed_out=handoff.timed_out,
        wall_ms=supply.tick - start_tick,
        on_ms=supply.total_on_ms,
        off_ms=supply.total_off_ms,
        active_cycles=supply.total_cycles,
        outages=supply.outages,
        runtime_stats=policy.stats,
        ledger=ledger,
    )
    return IntermittentRun(outputs=kernel.read_outputs(cpu), result=result)
