"""Scripted, counted fault injection for the shard backends.

The harness is deliberately dumb: a :class:`FaultPlan` holds an ordered
list of :class:`Fault` records, each keyed to a hook *site* (``dispatch``
or ``gather``), an optional shard filter, and an occurrence window — the
fault fires on matching events number ``after + 1`` through
``after + times``, counted per fault. The shard protocol has one send
site and one receive site (``ShardBackend._send`` / ``_recv``), so every
message on every backend — ``serial`` included — passes both hooks; they
are called only when a plan is bound (``if self._fault_plan is not
None:``), so the absent-plan cost is one attribute test.

Actions:

* ``raise`` — the hook raises the configured exception before the real
  I/O happens (e.g. a dispatch that fails with ``BrokenPipeError``),
* ``kill`` — the hook returns ``"kill"`` and the backend murders the
  shard worker *after* delivering the message, so "kill worker k after
  batch N" leaves the worker dead with batch N applied (a process may
  lose the race with its SIGTERM; recovery is exact either way),
* ``delay`` — the hook invokes the plan's ``sleep`` for the configured
  seconds before the gather; with an injected fake sleep this advances a
  fake clock past a supervision deadline without any real waiting.

Plans round-trip through JSON (:meth:`FaultPlan.to_spec` /
:meth:`FaultPlan.from_spec`) so the CLI can load one from the
``REPRO_FAULT_PLAN`` environment variable (inline JSON or a file path)
inside a serve subprocess — that is how the CI chaos job scripts a
worker kill mid-stream.
"""

from __future__ import annotations

import builtins
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

__all__ = ["Fault", "FaultPlan", "tear_journal_tail"]

_SITES = ("dispatch", "gather")
_ACTIONS = ("raise", "kill", "delay")


@dataclass
class Fault:
    """One scripted failure: where, what, and on which occurrences."""

    site: str
    action: str
    shard: Optional[int] = None
    after: int = 0
    times: int = 1
    operation: Optional[str] = None
    exception: type = BrokenPipeError
    seconds: float = 0.0
    seen: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in _SITES:
            raise ValueError(f"unknown fault site {self.site!r}; expected one of {_SITES}")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; expected one of {_ACTIONS}")
        if self.after < 0 or self.times < 1:
            raise ValueError("fault occurrence window must have after >= 0 and times >= 1")
        if not (isinstance(self.exception, type) and issubclass(self.exception, BaseException)):
            raise ValueError(f"fault exception must be an exception type, got {self.exception!r}")
        if self.seconds < 0:
            raise ValueError("fault delay seconds must be >= 0")

    def matches(self, shard: int, operation: Optional[str]) -> bool:
        if self.shard is not None and self.shard != shard:
            return False
        if self.operation is not None and self.operation != operation:
            return False
        return True

    def fires(self) -> bool:
        """Count one matching event; True when it falls in the window."""
        self.seen += 1
        return self.after < self.seen <= self.after + self.times

    def to_spec(self) -> dict:
        spec = {
            "site": self.site,
            "action": self.action,
            "after": self.after,
            "times": self.times,
        }
        if self.shard is not None:
            spec["shard"] = self.shard
        if self.operation is not None:
            spec["operation"] = self.operation
        if self.action == "raise":
            spec["exception"] = self.exception.__name__
        if self.action == "delay":
            spec["seconds"] = self.seconds
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "Fault":
        exception = spec.get("exception", "BrokenPipeError")
        if isinstance(exception, str):
            resolved = getattr(builtins, exception, None)
            if not (isinstance(resolved, type) and issubclass(resolved, BaseException)):
                raise ValueError(f"fault spec names unknown exception {exception!r}")
            exception = resolved
        return cls(
            site=spec["site"],
            action=spec["action"],
            shard=spec.get("shard"),
            after=int(spec.get("after", 0)),
            times=int(spec.get("times", 1)),
            operation=spec.get("operation"),
            exception=exception,
            seconds=float(spec.get("seconds", 0.0)),
        )


class FaultPlan:
    """An ordered script of :class:`Fault` records plus the hook API.

    The two hook methods are the whole backend-facing surface:

    * :meth:`on_dispatch` — called once per shard message send; raises
      the scripted exception for ``raise`` faults, returns ``"kill"``
      when the worker should be murdered after the send.
    * :meth:`on_gather` — called once per shard reply wait; applies
      ``delay`` faults via the plan's ``sleep`` and raises ``raise``
      faults scripted at the gather site.
    """

    def __init__(
        self,
        faults: Optional[List[Fault]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.faults: List[Fault] = list(faults or ())
        self.sleep = sleep
        self._log = None

    def bind_log(self, log) -> None:
        """Attach an event log; fired drills then document themselves
        (site, action, shard, operation, occurrence) so chaos runs can
        assert the injection → recovery trail on ``GET /logs``."""
        self._log = log

    def _log_fired(self, fault: Fault, shard: int,
                   operation: Optional[str]) -> None:
        if self._log is None:
            return
        self._log.emit(
            "fault_injected",
            level="warning",
            site=fault.site,
            action=fault.action,
            shard=shard,
            operation=operation,
            occurrence=fault.seen,
        )

    # -- chainable constructors -------------------------------------------

    def kill_worker(self, shard: int, after_batches: int = 1) -> "FaultPlan":
        """Kill ``shard``'s worker right after its ``after_batches``-th
        ingest dispatch is delivered (the batch is applied, then death)."""
        if after_batches < 1:
            raise ValueError("after_batches must be >= 1")
        self.faults.append(
            Fault(
                site="dispatch",
                action="kill",
                shard=shard,
                after=after_batches - 1,
                operation="ingest",
            )
        )
        return self

    def fail_dispatch(
        self,
        shard: Optional[int] = None,
        exception: type = BrokenPipeError,
        after: int = 0,
        times: int = 1,
        operation: Optional[str] = None,
    ) -> "FaultPlan":
        """Raise ``exception`` on matching dispatches ``after+1 ..
        after+times`` instead of sending."""
        self.faults.append(
            Fault(
                site="dispatch",
                action="raise",
                shard=shard,
                after=after,
                times=times,
                operation=operation,
                exception=exception,
            )
        )
        return self

    def fail_gather(
        self,
        shard: Optional[int] = None,
        exception: type = EOFError,
        after: int = 0,
        times: int = 1,
    ) -> "FaultPlan":
        """Raise ``exception`` while waiting on matching shard replies."""
        self.faults.append(
            Fault(site="gather", action="raise", shard=shard, after=after, times=times, exception=exception)
        )
        return self

    def delay_gather(
        self,
        shard: Optional[int] = None,
        seconds: float = 0.0,
        after: int = 0,
        times: int = 1,
    ) -> "FaultPlan":
        """Sleep ``seconds`` (via the plan's injected ``sleep``) before
        matching gathers — the deterministic way to breach a deadline."""
        self.faults.append(
            Fault(site="gather", action="delay", shard=shard, after=after, times=times, seconds=seconds)
        )
        return self

    # -- backend hooks ----------------------------------------------------

    def on_dispatch(self, shard: int, operation: str) -> Optional[str]:
        verdict = None
        for fault in self.faults:
            if fault.site != "dispatch" or not fault.matches(shard, operation):
                continue
            if not fault.fires():
                continue
            self._log_fired(fault, shard, operation)
            if fault.action == "raise":
                raise fault.exception(
                    f"injected {fault.exception.__name__} on {operation!r} dispatch to shard {shard}"
                )
            if fault.action == "kill":
                verdict = "kill"
        return verdict

    def on_gather(self, shard: int, operation: Optional[str] = None) -> None:
        for fault in self.faults:
            if fault.site != "gather" or not fault.matches(shard, operation):
                continue
            if not fault.fires():
                continue
            self._log_fired(fault, shard, operation)
            if fault.action == "delay":
                self.sleep(fault.seconds)
            elif fault.action == "raise":
                raise fault.exception(
                    f"injected {fault.exception.__name__} gathering from shard {shard}"
                )

    # -- bookkeeping ------------------------------------------------------

    def reset(self) -> None:
        """Rewind every fault's occurrence counter (new run, same script)."""
        for fault in self.faults:
            fault.seen = 0

    def fired(self) -> int:
        """Total matching events consumed by fault windows so far."""
        return sum(min(max(f.seen - f.after, 0), f.times) for f in self.faults)

    # -- (de)serialization ------------------------------------------------

    def to_spec(self) -> List[dict]:
        return [fault.to_spec() for fault in self.faults]

    @classmethod
    def from_spec(cls, spec, sleep: Callable[[float], None] = time.sleep) -> "FaultPlan":
        if not isinstance(spec, list):
            raise ValueError("a fault plan spec must be a JSON list of fault objects")
        return cls([Fault.from_spec(item) for item in spec], sleep=sleep)

    @classmethod
    def from_env(
        cls,
        variable: str = "REPRO_FAULT_PLAN",
        environ=os.environ,
    ) -> Optional["FaultPlan"]:
        """Load a plan from ``variable``: inline JSON (starts with ``[``)
        or a path to a JSON file. Returns None when unset/empty."""
        raw = environ.get(variable, "").strip()
        if not raw:
            return None
        if raw.startswith("["):
            return cls.from_spec(json.loads(raw))
        return cls.from_spec(json.loads(Path(raw).read_text("utf-8")))


def tear_journal_tail(directory, cut: int = 16) -> Tuple[Path, int]:
    """Truncate the newest ``engine-*.delta`` journal segment by ``cut``
    bytes, simulating a torn write (crash mid-append).

    The CRC framing in :mod:`repro.persistence.store` detects the damage
    and falls back to the longest verified prefix of the journal; the
    supervisor in turn replays the missing suffix from its operation log.
    Returns ``(path, new_size)``.
    """
    directory = Path(directory)
    segments = sorted(directory.glob("engine-*.delta"))
    if not segments:
        raise FileNotFoundError(f"no delta journal segments under {directory}")
    tail = segments[-1]
    size = tail.stat().st_size
    keep = max(size - int(cut), 1)
    with tail.open("rb+") as handle:
        handle.truncate(keep)
    return tail, keep
