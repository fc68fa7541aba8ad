"""Hibernus-style just-in-time checkpointing runtime.

Hibernus (Balsamo et al., ESL'15/TCAD'16) takes a different approach
from Clank: instead of tracking idempotency during execution, the
hardware monitors the supply voltage and *hibernates* — saves the
volatile state to NVM — exactly once, when the voltage falls to a
snapshot threshold just above brown-out. The paper lists it among the
prominent volatile-processor schemes; we provide it as an additional
baseline runtime for ablations.

Model: the executor notifies the runtime at every tick; when the
remaining usable energy first dips below the hibernate reserve (enough
to fund the snapshot), the runtime checkpoints. Restores resume from
that snapshot, so re-execution is limited to the few cycles between the
snapshot and the actual outage. The costs are higher than Clank's
per-checkpoint cost (a full SRAM-resident state save), but there is
exactly one save per power cycle.

Skim points behave identically: an armed skim register redirects the
first restore after an outage.
"""

from __future__ import annotations

from typing import Optional

from ..observability.tracer import TRACER
from ..sim.cpu import CPU
from ..sim.replay import ReplayDiverged, ReplayRecord
from .base import IntermittentRuntime, ReplayPolicy
from .checkpoint import Checkpoint
from .skim import SkimRegister

#: Cycles to save / restore the full volatile state to FRAM. Hibernus
#: saves registers plus the live SRAM working set, so this is larger
#: than Clank's register-file checkpoint.
DEFAULT_SNAPSHOT_CYCLES = 400
DEFAULT_RESTORE_CYCLES = 400


class HibernusRuntime(IntermittentRuntime):
    """Voltage-triggered single snapshot per power cycle."""

    name = "hibernus"

    def __init__(
        self,
        snapshot_cycles: int = DEFAULT_SNAPSHOT_CYCLES,
        restore_cycles: int = DEFAULT_RESTORE_CYCLES,
        skim: Optional[SkimRegister] = None,
    ):
        super().__init__(skim)
        self.snapshot_cycles = snapshot_cycles
        self.restore_cycles = restore_cycles
        self.checkpoint: Optional[Checkpoint] = None
        self._armed_this_cycle = False  # snapshot already taken this power cycle

    def _entry_checkpoint(self) -> None:
        self.checkpoint = Checkpoint.from_cpu(self.cpu)

    # -- executor callbacks ---------------------------------------------------

    def on_low_voltage(self) -> int:
        """The supply crossed the snapshot threshold: hibernate now.

        Returns the snapshot cost in cycles (charged by the executor).
        Only the first crossing per power cycle snapshots."""
        if self._armed_this_cycle:
            return 0
        self._armed_this_cycle = True
        self.checkpoint = Checkpoint.from_cpu(self.cpu)
        self.stats.checkpoints += 1
        self.stats.checkpoint_cycles += self.snapshot_cycles
        if TRACER.enabled:
            TRACER.emit(
                "checkpoint", cause="low_voltage", cost=self.snapshot_cycles,
                bytes=self.checkpoint.size_words * 4, runtime=self.name,
                engine="interp",
            )
        return self.snapshot_cycles

    def on_tick(self, cycles_executed: int) -> int:
        """No per-tick work: snapshots are voltage-triggered only."""
        return 0

    def on_outage(self) -> None:
        """Re-arm the voltage monitor for the next power cycle."""
        self._armed_this_cycle = False

    def on_restore(self) -> int:
        """Resume from the hibernation snapshot (or take the skim jump)."""
        self.stats.restores += 1
        self.stats.restore_cycles += self.restore_cycles
        self.checkpoint.apply_to(self.cpu)
        if self.skim.armed:
            self.cpu.pc = self.skim.consume()
        return self.restore_cycles


class HibernusReplayPolicy(ReplayPolicy):
    """Hibernus replayed over the log: one snapshot position per cycle.

    The just-in-time snapshot normally lands exactly at the outage cut
    (an energy-limited tick always ends in a brown-out), so restores
    rewind zero or few positions. When an outage arrives *without* a
    snapshot that power cycle (a brown-out the voltage monitor never
    flagged), the live runtime rewinds into a segment it re-executes
    against already-updated memory — Hibernus has no WAR protection —
    and the recorded stream only stays truthful if that segment is
    idempotent. The restore checks exactly that and raises
    :class:`~repro.sim.replay.ReplayDiverged` otherwise, sending the
    sample to live interpretation."""

    name = "hibernus"

    def __init__(
        self,
        record: ReplayRecord,
        skim: SkimRegister,
        snapshot_cycles: int = DEFAULT_SNAPSHOT_CYCLES,
        restore_cycles: int = DEFAULT_RESTORE_CYCLES,
    ):
        super().__init__(record, skim)
        self.snapshot_cycles = snapshot_cycles
        self.restore_cycles = restore_cycles
        self.checkpoint_pos = 0
        self._armed_this_cycle = False

    def on_low_voltage(self) -> int:
        """Record the snapshot position (the replay twin of hibernating)."""
        if self._armed_this_cycle:
            return 0
        self._armed_this_cycle = True
        self.checkpoint_pos = self.cursor
        self.stats.checkpoints += 1
        self.stats.checkpoint_cycles += self.snapshot_cycles
        if TRACER.enabled:
            TRACER.emit(
                "checkpoint", cause="low_voltage", cost=self.snapshot_cycles,
                position=self.cursor, runtime=self.name, engine="batch",
            )
        return self.snapshot_cycles

    def on_outage(self) -> None:
        """Re-arm the voltage monitor for the next power cycle."""
        self._armed_this_cycle = False

    def on_restore(self) -> int:
        """Rewind to the snapshot position; diverge if non-idempotent."""
        self.stats.restores += 1
        self.stats.restore_cycles += self.restore_cycles
        cp = self.checkpoint_pos
        if self.max_position > cp and not self.record.segment_idempotent(
            cp, self.max_position
        ):
            raise ReplayDiverged(
                f"hibernus rewind into non-idempotent segment "
                f"[{cp}, {self.max_position})"
            )
        self.cursor = cp
        self.resume_position = cp
        if self.skim.armed:
            self.skim_redirect = self.skim.consume()
        return self.restore_cycles
