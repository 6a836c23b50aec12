"""The checkpoint cadence policy shared by CLI replays and the serving layer.

Both the ``replay`` command (``--checkpoint-every/--checkpoint-mode``) and
the asyncio serving layer persist the engine on the same policy: every
N-th published ranking triggers a write; in ``full`` mode each write
re-serializes the whole window, in ``delta`` mode the chain starts from an
eagerly written base (compacting any inherited journal on resume) and
every write until the ``full_every``-th appends a journal segment sized by
the new documents.  Keeping the policy in one class means the serving
layer's checkpoint-while-serving behaviour cannot drift from what
``--resume`` was tested against.

The cadence itself is synchronous — callers decide where it runs (the CLI
calls it inline from the harness hook; the serving layer schedules it on
the engine executor so the event loop never blocks on an fsync).
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Mapping, Optional


class CheckpointCadence:
    """Every N-th ranking persists the engine, full or base+journal.

    With ``directory`` unset the cadence is inert (counts rankings,
    writes nothing) so callers need no conditional wiring.  ``extras``
    lands in the checkpoint manifest at base/re-base time (the CLI stores
    its dataset parameters there, the serving layer its ingest counters).
    """

    def __init__(
        self,
        engine,
        directory=None,
        every: Optional[int] = None,
        mode: str = "full",
        full_every: int = 16,
        extras: Optional[Mapping] = None,
        extras_provider: Optional[Callable[[], Mapping]] = None,
    ):
        if mode not in ("full", "delta"):
            raise ValueError(f"mode must be 'full' or 'delta', got {mode!r}")
        if every is not None and every < 1:
            raise ValueError("every must be a positive ranking count")
        if full_every < 1:
            raise ValueError("full_every must be at least 1")
        if every is not None and directory is None:
            raise ValueError("a checkpoint cadence needs a directory")
        if mode == "delta" and every is None:
            raise ValueError(
                "mode='delta' requires a cadence (every=N): a delta journal "
                "only exists on a cadence (a one-off save is a full "
                "checkpoint already)"
            )
        self.engine = engine
        self.directory = directory
        self.every = every
        self.mode = mode
        self.full_every = int(full_every)
        self.extras = dict(extras or {})
        # Live metadata merged into the manifest extras at every write
        # (the serving CLI rides its metrics snapshot along here so a
        # resumed server's counters continue instead of resetting).
        self.extras_provider = extras_provider
        self.rankings_seen = 0
        self.checkpoints_written = 0

    # -- lifecycle -------------------------------------------------------------

    def begin(self) -> None:
        """Arm the cadence; delta mode writes the chain's base eagerly.

        The base is the cadence-start state (for a resume: the
        just-restored state, which compacts any inherited journal), so
        every tick until the next re-base appends a segment.
        """
        if self.directory is not None and self.every and self.mode == "delta":
            self.engine.save_checkpoint(
                self.directory, extras=self._extras(), track_deltas=True
            )
            self.checkpoints_written += 1

    def note_ranking(self) -> bool:
        """Count one published ranking; write if the cadence is due.

        Call only between documents (the harness ``after_ranking`` hook,
        or the serving layer between micro-batches) — the engine state is
        then boundary-consistent and the written checkpoint resumable.
        Returns whether a checkpoint was written.
        """
        due = self.due(1)
        self.rankings_seen += 1
        if due:
            self._write_tick()
        return due

    def note_rankings(self, count: int) -> int:
        """Count ``count`` rankings at once; returns checkpoints written."""
        return sum(self.note_ranking() for _ in range(count))

    def due(self, count: int) -> bool:
        """Whether counting ``count`` more rankings writes a checkpoint."""
        return bool(
            self.directory is not None and self.every
            and self.rankings_seen % self.every + count >= self.every
        )

    def finalize(self) -> bool:
        """The bare ``--checkpoint-dir`` save: end state, no cadence.

        Used by the replay CLI, which deliberately does *not* persist the
        end of a cadenced replay — mid-stream cadence ticks are resumable
        stream states, the forced final evaluation is not.
        """
        if self.directory is not None and not self.every:
            self.engine.save_checkpoint(self.directory, extras=self._extras())
            self.checkpoints_written += 1
            return True
        return False

    def shutdown(self) -> bool:
        """Persist the end state at service shutdown, cadence or not.

        The serving layer's closing bracket: a served stream is live
        (documents cannot be re-fed from a dataset), so the documents
        accepted after the last cadence tick must reach disk before the
        process exits — as one more cadence tick (a journal segment in
        delta mode), or as the one-off end-state save when no cadence was
        configured.  Call only when the engine is quiescent (the service
        drains its queue first).
        """
        if self.directory is None:
            return False
        if not self.every:
            return self.finalize()
        self._write_tick()
        return True

    def hook(self) -> Optional[Callable[[Any], None]]:
        """An ``after_ranking`` harness hook, or None when no cadence."""
        if not self.every:
            return None
        return lambda ranking: self.note_ranking()

    # -- internals -------------------------------------------------------------

    def _extras(self) -> Mapping:
        """Static extras merged with the provider's live ones, if any."""
        extras = dict(self.extras)
        if self.extras_provider is not None:
            try:
                extras.update(self.extras_provider() or {})
            except Exception:
                # Extras are metadata; a broken provider must not fail a
                # checkpoint whose state half is perfectly writable.
                pass
        return extras

    def _write_tick(self) -> None:
        # A delta cadence appends — except that every ``full_every``-th
        # write, and any write while the engine holds no armed chain (a
        # failed append disarms it for good), re-bases with a full one.
        append = (
            self.mode == "delta"
            and self.checkpoints_written % self.full_every != 0
            and self.engine.delta_chain_armed
        )
        observability = getattr(self.engine, "observability", None)
        if observability is None or not observability.enabled:
            self._write_tick_inner(append)
            return
        mode = "delta" if append else "full"
        clock = observability.clock
        with observability.tracer.span(f"checkpoint_{mode}"):
            started = clock()
            self._write_tick_inner(append)
            elapsed = clock() - started
            # Emitted inside the span so the record carries the
            # checkpoint trace id, pairing /logs with /trace.
            observability.log.emit(
                "checkpoint",
                mode=mode,
                seconds=round(elapsed, 6),
                checkpoints_written=self.checkpoints_written,
            )
        registry = observability.registry
        registry.histogram("repro_persistence_checkpoint_seconds") \
            .labels(mode=mode).observe(elapsed)
        registry.counter("repro_persistence_checkpoints_total") \
            .labels(mode=mode).inc()

    def _write_tick_inner(self, append: bool) -> None:
        # A tick builds, encodes and drops one burst of acyclic containers;
        # the cyclic collector would promote them mid-burst and then walk
        # the whole engine state to free nothing, so it pauses for the tick.
        collecting = gc.isenabled()
        gc.disable()
        try:
            if append:
                # Manifest extras were recorded at the base/re-base tick.
                self.engine.save_delta_checkpoint(self.directory)
            else:
                self.engine.save_checkpoint(
                    self.directory, extras=self._extras(),
                    track_deltas=self.mode == "delta",
                )
        finally:
            if collecting:
                gc.enable()
        self.checkpoints_written += 1
