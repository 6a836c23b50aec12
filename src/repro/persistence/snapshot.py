"""The uniform snapshot protocol and its error taxonomy.

Every stateful component of the detection pipeline externalizes its state
the same way: ``snapshot()`` returns a plain, JSON-serialisable dict that
starts with a ``kind`` tag and an integer ``version``, and ``restore(state)``
puts an identically-configured instance back into exactly that state.  The
helpers here are the shared validation surface: :func:`require_state`
rejects foreign or future-format snapshots, :func:`require_compatible`
rejects snapshots taken under different structural parameters (a tracker
with another window horizon, a detector with another decay), so a bad
restore fails loudly at the door instead of silently corrupting a stream.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, Tuple, Union, runtime_checkable


class SnapshotError(RuntimeError):
    """Base class of every checkpoint/restore failure."""


class SnapshotVersionError(SnapshotError):
    """The snapshot was written by an unsupported format version."""


class SnapshotCorruptionError(SnapshotError):
    """The snapshot's bytes or structure are damaged (bad JSON, bad CRC)."""


class SnapshotMismatchError(SnapshotError):
    """The snapshot is valid but does not fit the restoring instance."""


@runtime_checkable
class Snapshotable(Protocol):
    """State that can round-trip through a versioned, JSON-safe dict."""

    def snapshot(self) -> dict:
        """The component's complete state as a versioned dict."""
        ...

    def restore(self, state: Mapping[str, Any]) -> None:
        """Replace this instance's state with a snapshot's."""
        ...


def require_state(
    state: Any, kind: str, version: Union[int, Tuple[int, ...]]
) -> Mapping[str, Any]:
    """Validate a snapshot's envelope; returns ``state`` for chaining.

    ``version`` is the one version this build reads, or a tuple of them.

    Raises :class:`SnapshotCorruptionError` when ``state`` is not a mapping,
    :class:`SnapshotMismatchError` when it describes a different component,
    and :class:`SnapshotVersionError` when its version is unsupported.
    """
    if not isinstance(state, Mapping):
        raise SnapshotCorruptionError(
            f"a {kind!r} snapshot must be a mapping, got {type(state).__name__}"
        )
    found_kind = state.get("kind")
    if found_kind != kind:
        raise SnapshotMismatchError(
            f"expected a {kind!r} snapshot, got {found_kind!r}"
        )
    found_version = state.get("version")
    if found_version not in (
        version if isinstance(version, tuple) else (version,)
    ):
        raise SnapshotVersionError(
            f"{kind!r} snapshot version {found_version!r} is not supported "
            f"(this build reads version {version})"
        )
    return state


def require_compatible(
    kind: str, expected: Mapping[str, Any], state: Mapping[str, Any]
) -> None:
    """Reject a snapshot whose structural parameters differ from ours.

    ``expected`` maps parameter names to the restoring instance's values;
    every one must appear in ``state`` with an equal value.  The error
    message names each differing key with both values, so a mismatched
    restore is actionable without reading the checkpoint by hand.
    """
    differing = [
        f"{key}: snapshot has {state.get(key)!r}, instance has {value!r}"
        for key, value in expected.items()
        if state.get(key) != value
    ]
    if differing:
        raise SnapshotMismatchError(
            f"cannot restore this {kind!r} snapshot into an instance with "
            f"different parameters — " + "; ".join(differing)
        )
