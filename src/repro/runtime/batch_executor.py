"""Lane-parallel replay: one commit-log walk, N samples.

One (workload, mode, bits) configuration shares a single commit log
(:class:`~repro.sim.replay.ReplayRecord`) across its whole trace x
invocation grid. The batch executor walks that log once per
*configuration*: every sample becomes a **lane** — its own real
:class:`~repro.power.supply.PowerSupply`, replay policy, skim register
and progress ledger — and the executor advances all lane cursors
together, tick by tick. A single sample is a one-lane batch
(:func:`repro.runtime.replay_executor.replay_intermittent`), so this is
the only replay tick loop.

Bit-exactness strategy: each lane drives the *same* control flow as
:meth:`repro.runtime.executor.IntermittentExecutor.run` — charge,
restore, tick budgeting, pending-overhead carry, watchdog chunking, the
Hibernus snapshot reserve, outage bookkeeping — against the log instead
of a live CPU: executing a chunk is a bisect over cost prefix sums,
restoring a checkpoint is rewinding a stream position. Lanes operate on
their own scalar objects, so each performs the identical sequence of
operations it would perform alone. What the batch adds is *shared,
vectorized answers* to the three data-independent questions every lane
asks — budget bisects (:func:`advance_lanes`), WAR horizons
(:class:`~repro.sim.batch_replay.BatchIndex`, memoized on the record)
and off-phase charge fast-forwarding — each proven identical to its
scalar counterpart in :mod:`repro.sim.batch_replay`. Without numpy the
same lane-cursor loop runs on the scalar kernels.

Two situations leave the log:

* **Skim handoff** — a restore consumes an armed skim register. The
  post-skim suffix (checkpoint registers + skim-target PC) was never
  recorded, so the lane's finish reconstructs the concrete CPU + memory
  state at the cut from the nearest keyframe and store log, and hands
  the *same* supply and skim register to a live
  :class:`~repro.runtime.executor.IntermittentExecutor` for the rest.
* **Demotion** — a policy divergence
  (:class:`~repro.sim.replay.ReplayDiverged`), a forward-progress stall
  or a dead trace (:class:`~repro.errors.ProgressStall` /
  :class:`~repro.power.supply.SupplyExhausted`) drops the lane from the
  batch; it keeps the exception, which :func:`run_lanes` hands back.
  Every lane is demoted when the record is not replayable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.anytime import IntermittentRun
from ..errors import ProgressStall
from ..observability.ledger import ProgressLedger
from ..observability.tracer import TRACER
from ..power.supply import PowerSupply
from ..sim.batch_replay import (
    advance_lanes,
    build_batch_index,
    charge_until_on_fast,
    trace_energy_array,
)
from ..sim.replay import ReplayDiverged, ReplayRecord
from .base import ReplayPolicy
from .checkpoint import Checkpoint
from .clank import ClankReplayPolicy, ClankRuntime
from .executor import (
    IDLE_TICK_LIMIT,
    STALLED_RESTORE_LIMIT,
    IntermittentExecutor,
    RunResult,
    check_sample_deadline,
)
from .hibernus import HibernusReplayPolicy, HibernusRuntime
from .nvp import NVPReplayPolicy, NVPRuntime
from .progress import (
    ProgressReplayPolicy,
    ProgressRuntime,
    output_ranges_of,
    output_store_positions,
)
from .skim import SkimRegister

#: Exceptions that demote one lane out of the batch.
_DEMOTE = (ReplayDiverged, ProgressStall)

_RUN = 0
_FINISHED = 1  # halted, timed out, or cut at a skim point
_DEMOTED = 2

_LIVELOCK_MESSAGE = (
    "forward-progress livelock: 64 consecutive "
    "restores resumed from the same state; no "
    "progress survives the power cycles. Enlarge "
    "the storage capacitor or shorten the "
    "runtime's watchdog/checkpoint period."
)


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


class _Lane:
    """One intermittent sample's scalar state inside the batch."""

    __slots__ = (
        "runtime", "watchdog_cycles", "start_tick", "max_wall_ms",
        "supply", "policy", "skim", "ledger", "energies",
        "pending", "pending_kind", "stalled", "last_signature", "idle",
        "state", "skim_cut", "timed_out", "volatile", "jit", "interval",
        "budget", "used", "reserved", "chunk", "ckpt_before", "ran",
        "error",
        "_cur", "_consumed", "_war", "_stop", "_adv",
    )

    def __init__(self, record: ReplayRecord, args: Dict, kernel=None) -> None:
        self.runtime = args["runtime"]
        self.watchdog_cycles = args.get("watchdog_cycles")
        self.start_tick = args.get("start_tick", 0)
        self.max_wall_ms = args.get("max_wall_ms", 10_000_000)
        self.skim = SkimRegister()
        self.policy = _make_policy(
            self.runtime, record, self.skim, self.watchdog_cycles, kernel
        )
        self.supply = PowerSupply(
            args["trace"],
            args["capacitor"],
            args["energy_model"],
            start_tick=self.start_tick,
        )
        self.ledger = ProgressLedger()
        self.energies = trace_energy_array(args["trace"])
        self.pending = 0
        self.pending_kind = "restore"
        self.stalled = 0
        self.last_signature = None
        self.idle = 0
        self.state = _RUN
        #: Set when a restore consumed an armed skim register:
        #: (cut position, skim target, pending restore overhead).
        self.skim_cut: Optional[tuple] = None
        self.timed_out = False
        self.volatile = self.policy.name != "nvp"
        self.jit = getattr(self.policy, "on_low_voltage", None)
        self.interval = self.policy.watchdog_cycles
        #: The exception that demoted this lane, if any.
        self.error: Optional[Exception] = None

    def demote(self, error: Exception) -> None:
        self.state = _DEMOTED
        self.error = error


class BatchReplayExecutor:
    """Advances N lanes over one record; see module docstring."""

    def __init__(self, record: ReplayRecord, lanes: List[_Lane]) -> None:
        self.record = record
        self.index = record.batch or None
        self.lanes = lanes

    # -- master loop ---------------------------------------------------------

    def run(self) -> None:
        """Charge/restore/tick every live lane until all are resolved.

        Rounds preserve each lane's own operation order exactly (lanes
        never read each other's state; the only sharing is the record's
        memoized WAR verdicts, which are order-independent integers)."""
        active = [lane for lane in self.lanes if lane.state == _RUN]
        while active:
            ticking: List[_Lane] = []
            for lane in active:
                policy = lane.policy
                supply = lane.supply
                try:
                    # The loop head: halt check, timeout check, the
                    # cooperative wall-clock deadline, then the charge +
                    # restore block.
                    if policy.halted:
                        lane.state = _FINISHED
                        continue
                    if supply.tick - lane.start_tick > lane.max_wall_ms:
                        lane.timed_out = True
                        lane.state = _FINISHED
                        continue
                    check_sample_deadline(supply.tick)
                    if not supply.on:
                        if lane.energies is not None and len(lane.energies):
                            charge_until_on_fast(supply, lane.energies)
                        else:
                            supply.charge_until_on()
                        armed_before = lane.skim.armed
                        lane.pending = policy.on_restore()
                        lane.pending_kind = "restore"
                        took_skim = armed_before and not lane.skim.armed
                        if TRACER.enabled:
                            TRACER.emit(
                                "restore", tick=supply.tick,
                                cost=lane.pending, runtime=policy.name,
                                skim=took_skim, engine="batch",
                            )
                        if took_skim:
                            lane.skim_cut = (
                                policy.resume_position,
                                policy.skim_redirect,
                                lane.pending,
                            )
                            lane.state = _FINISHED
                            continue
                        # Forward-progress guard, keyed on the resume
                        # position: the stream is deterministic, so
                        # equal positions mean the identical
                        # architectural state the live executor
                        # fingerprints with (pc, registers).
                        signature = policy.resume_position
                        if signature == lane.last_signature:
                            lane.stalled += 1
                            if lane.stalled >= STALLED_RESTORE_LIMIT:
                                raise ProgressStall(
                                    _LIVELOCK_MESSAGE,
                                    position=policy.resume_position,
                                    tick=supply.tick, runtime=policy.name,
                                )
                        else:
                            lane.stalled = 0
                            lane.last_signature = signature
                    ticking.append(lane)
                except _DEMOTE as exc:
                    lane.demote(exc)
            if ticking:
                self._tick(ticking)
            active = [lane for lane in ticking if lane.state == _RUN]

    # -- one ON millisecond, all lanes ---------------------------------------

    def _tick(self, lanes: List[_Lane]) -> None:
        """The body of one supply tick, lane-parallel per phase."""
        # Phase 1: begin the tick, pay pending overhead, reserve the
        # Hibernus snapshot allowance.
        for lane in lanes:
            budget = lane.supply.begin_tick()
            used = 0
            if lane.pending:
                paid = min(lane.pending, budget)
                lane.pending -= paid
                used = paid
                lane.ledger.overhead(lane.pending_kind, paid)
            reserved = 0
            if lane.jit is not None and lane.supply.tick_energy_limited:
                reserved = min(lane.policy.snapshot_cycles, budget - used)
                budget -= reserved
            lane.budget = budget
            lane.used = used
            lane.reserved = reserved

        # Phase 2: the executor's inner chunk loop, with the chunk
        # advances themselves batched across lanes.
        work = [
            lane for lane in lanes
            if lane.pending == 0 and not lane.policy.halted
            and lane.used < lane.budget
        ]
        while work:
            for lane in work:
                chunk = lane.budget - lane.used
                if lane.interval:
                    chunk = min(chunk, lane.interval)
                lane.chunk = chunk
                lane.ckpt_before = lane.policy.stats.checkpoint_cycles
            scalar = [
                lane for lane in work
                if getattr(lane.policy, "scalar_chunks", False)
            ]
            grouped = [
                lane for lane in work
                if not getattr(lane.policy, "scalar_chunks", False)
            ]
            plain = [lane for lane in grouped if lane.interval is None]
            clank = [lane for lane in grouped if lane.interval is not None]
            if plain:
                self._run_plain_chunks(plain)
            if clank:
                self._run_clank_chunks(clank)
            for lane in scalar:
                # Policies with a second event horizon (progress) run
                # their own scalar chunk loop per lane; they still share
                # the record's memoized WAR verdicts and batch index.
                lane.ran = lane.policy.run_chunk(lane.chunk)
            nxt: List[_Lane] = []
            for lane in work:
                ran = lane.ran
                # WAR checkpoints are charged inside the chunk (the twin
                # of the live store hook); the stats delta separates
                # them from program progress.
                ckpt_in_chunk = (
                    lane.policy.stats.checkpoint_cycles - lane.ckpt_before
                )
                lane.used += ran
                lane.ledger.execute(ran - ckpt_in_chunk)
                if ckpt_in_chunk:
                    lane.ledger.overhead("checkpoint", ckpt_in_chunk)
                    lane.ledger.commit()
                overhead = lane.policy.on_tick(ran)
                if overhead:
                    paid = min(overhead, lane.budget - lane.used)
                    lane.used += paid
                    lane.pending = overhead - paid
                    lane.pending_kind = "checkpoint"
                    lane.ledger.overhead("checkpoint", paid)
                    lane.ledger.commit()
                if ran == 0:
                    continue
                if (
                    lane.pending == 0 and not lane.policy.halted
                    and lane.used < lane.budget
                ):
                    nxt.append(lane)
            work = nxt

        # Phase 3: the Hibernus snapshot, energy draw, end-of-tick
        # bookkeeping and outage handling. Forward-progress stalls
        # demote their lane only.
        for lane in lanes:
            try:
                if lane.reserved and not lane.policy.halted:
                    snap = min(lane.jit(), lane.reserved)
                    lane.used += snap
                    if snap:
                        lane.ledger.overhead("checkpoint", snap)
                        lane.ledger.commit()
                lane.supply.consume_cycles(lane.used)
                if lane.supply.finish_tick():
                    if lane.used == 0:
                        lane.idle += 1
                        if lane.idle >= IDLE_TICK_LIMIT:
                            raise ProgressStall(
                                f"forward-progress stall: {IDLE_TICK_LIMIT} "
                                "consecutive powered ticks executed zero "
                                "cycles; the stored energy cannot cover the "
                                "next instruction. Enlarge the storage "
                                "capacitor or weaken the workload.",
                                position=lane.policy.cursor,
                                tick=lane.supply.tick,
                                runtime=lane.policy.name,
                            )
                    else:
                        lane.idle = 0
                else:
                    lane.idle = 0
                    lane.pending = 0
                    if lane.volatile and not lane.policy.halted:
                        lane.ledger.discard()
                    else:
                        lane.ledger.commit()
                    lane.policy.on_outage()
                    if TRACER.enabled:
                        TRACER.emit(
                            "outage", tick=lane.supply.tick,
                            runtime=lane.policy.name, engine="batch",
                        )
                    # A halted lane resolves at the next round's head,
                    # exactly like the live loop's post-outage break.
            except _DEMOTE as exc:
                lane.demote(exc)

    # -- chunk advancement ----------------------------------------------------

    def _run_plain_chunks(self, lanes: List[_Lane]) -> None:
        """Default ``ReplayPolicy.run_chunk`` for all lanes at once."""
        record = self.record
        requests = [
            (lane.policy.cursor, record.length, lane.chunk) for lane in lanes
        ]
        for lane, (j, cost) in zip(
            lanes, advance_lanes(record, self.index, requests)
        ):
            policy = lane.policy
            cursor = policy.cursor
            if j != cursor:
                policy._cross(cursor, j)
                policy.cursor = j
                if j > policy.max_position:
                    policy.max_position = j
            lane.ran = cost

    def _run_clank_chunks(self, lanes: List[_Lane]) -> None:
        """``ClankReplayPolicy.run_chunk`` transcribed over lane groups.

        Each round answers every lane's WAR horizon (memoized on the
        record, one-shot via the batch index) and performs one batched
        segment advance; lanes drop out of the round loop exactly where
        the scalar loop would ``break``."""
        record = self.record
        index = self.index
        cum = record.cum_cost
        pcs = record.pcs
        peek = record.peek_costs
        n = record.length
        for lane in lanes:
            lane._cur = lane.policy.cursor
            lane._consumed = 0
        segment = list(lanes)
        while segment:
            keep: List[_Lane] = []
            advancing: List[_Lane] = []
            requests = []
            for lane in segment:
                cursor = lane._cur
                remaining = lane.chunk - lane._consumed
                if cursor >= n or remaining <= 0:
                    continue  # the scalar while/remaining exits
                limit = cursor + remaining + 1
                if limit > n:
                    limit = n
                war = record.next_war_before(
                    lane.policy.checkpoint_pos, limit
                )
                lane._war = war
                lane._stop = war if war < limit else limit
                lane._adv = None
                keep.append(lane)
                if cursor < lane._stop:
                    advancing.append(lane)
                    requests.append((cursor, lane._stop, remaining))
            if requests:
                for lane, result in zip(
                    advancing, advance_lanes(record, index, requests)
                ):
                    lane._adv = result
            segment = []
            for lane in keep:
                policy = lane.policy
                if lane._adv is not None:
                    j, cost = lane._adv
                    lane._consumed += cost
                    if j != lane._cur:
                        policy._cross(lane._cur, j)
                        lane._cur = j
                    if j < lane._stop:
                        continue  # budget exhausted inside the segment
                if lane._cur >= n or lane._cur != lane._war:
                    continue  # halted, or only the horizon stopped us
                if lane._consumed + peek[pcs[lane._cur]] > lane.chunk:
                    continue  # the WAR store itself no longer fits
                lane._consumed += (
                    cum[lane._cur + 1] - cum[lane._cur]
                ) + policy.checkpoint_cycles
                policy.stats.war_violations += 1
                policy.stats.checkpoints += 1
                policy.stats.checkpoint_cycles += policy.checkpoint_cycles
                policy.checkpoint_pos = lane._cur
                policy._war_in_chunk = True
                if TRACER.enabled:
                    TRACER.emit(
                        "checkpoint", cause="war",
                        cost=policy.checkpoint_cycles, position=lane._cur,
                        runtime=policy.name, engine="batch",
                    )
                lane._cur += 1
                segment.append(lane)
        for lane in lanes:
            policy = lane.policy
            policy.cursor = lane._cur
            if lane._cur > policy.max_position:
                policy.max_position = lane._cur
            lane.ran = lane._consumed


def _finish_lane(kernel, record: ReplayRecord, inputs, lane: _Lane) -> IntermittentRun:
    """Turn one finished lane walk into an :class:`IntermittentRun`:
    output materialization, the skim handoff to live interpretation,
    stats/ledger merging and result assembly. The caller holds
    ``record.lock`` (``materialize_cpu`` resets the record's cached CPU
    in place, and the live suffix runs on that CPU)."""
    supply = lane.supply
    policy = lane.policy
    ledger = lane.ledger
    if lane.skim_cut is None:
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
            timed_out=lane.timed_out,
            wall_ms=supply.tick - lane.start_tick,
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
    cut, target, pending = lane.skim_cut
    cpu = record.materialize_cpu(kernel, inputs, cut, policy.max_position)
    checkpoint = Checkpoint.from_cpu(cpu)
    cpu.pc = target
    cpu.halted = False
    live_runtime = _make_handoff_runtime(
        lane.runtime, lane.skim, lane.watchdog_cycles, kernel
    )
    live = IntermittentExecutor(cpu, supply, live_runtime)
    if hasattr(live_runtime, "checkpoint"):
        # The live runtime's entry checkpoint must be the *pre-skim*
        # checkpoint: a skim jump does not move the backup location, so
        # an outage before the next checkpoint rewinds behind the skim
        # target (exactly what the live path does).
        live_runtime.checkpoint = checkpoint
    elapsed = supply.tick - lane.start_tick
    # The live suffix continues the replay-side ledger: its
    # re-execution debt is still owed, and the suffix repays it first.
    handoff = live.run(
        max_wall_ms=lane.max_wall_ms - elapsed, carry_overhead=pending,
        ledger=ledger,
    )
    _merge_stats(policy.stats, handoff.runtime_stats)
    result = RunResult(
        completed=handoff.completed,
        skim_taken=True,
        timed_out=handoff.timed_out,
        wall_ms=supply.tick - lane.start_tick,
        on_ms=supply.total_on_ms,
        off_ms=supply.total_off_ms,
        active_cycles=supply.total_cycles,
        outages=supply.outages,
        runtime_stats=policy.stats,
        ledger=ledger,
    )
    return IntermittentRun(outputs=kernel.read_outputs(cpu), result=result)


def run_lanes(
    kernel, record: ReplayRecord, inputs, lane_args: List[Dict]
) -> List[Tuple[Optional[IntermittentRun], Optional[Exception]]]:
    """Walk ``record`` once for every sample in ``lane_args``.

    Returns one ``(run, error)`` pair per sample in order: the finished
    run, or ``None`` and the exception its lane was demoted with. The
    whole walk holds ``record.lock``, so threads sharing a record (the
    experiment service's workers) take turns on its scan state and its
    cached materialization CPU."""
    if not record.replayable:
        error = ReplayDiverged(f"not-replayable: {record.reason}")
        return [(None, error)] * len(lane_args)
    with record.lock:
        if record.batch is None:
            index = build_batch_index(record)
            record.batch = index if index is not None else False
        lanes = [_Lane(record, args, kernel) for args in lane_args]
        BatchReplayExecutor(record, lanes).run()
        outcomes = []
        for lane in lanes:
            if lane.state != _DEMOTED:
                try:
                    outcomes.append((_finish_lane(kernel, record, inputs, lane), None))
                    continue
                except ReplayDiverged as exc:
                    lane.error = exc
            outcomes.append((None, lane.error))
    return outcomes


def run_batch_group(
    kernel,
    record: ReplayRecord,
    inputs,
    lane_args: List[Dict],
) -> List[Optional[IntermittentRun]]:
    """Run one configuration's samples as a lane batch.

    ``lane_args`` is one dict per sample with keys ``trace``,
    ``runtime``, ``capacitor``, ``energy_model``, ``start_tick``,
    ``max_wall_ms`` and (for clank) ``watchdog_cycles``. Returns one
    :class:`IntermittentRun` per sample in order, with ``None`` for
    demoted lanes (the caller interprets those samples live).
    """
    return [run for run, _error in run_lanes(kernel, record, inputs, lane_args)]
