"""The on-disk checkpoint format: manifest + base state files + journal.

A checkpoint directory holds::

    MANIFEST.json               format version, generations, engine
                                kind/config, file table with CRC-32s
    engine-00000003.json        the engine-level *base* snapshot (gen 3)
    shard-0000-00000003.json    one file per shard worker (sharded engines)
    shard-0001-00000003.json    ...
    engine-00000004.delta       journal segment: the engine's input since
    engine-00000005.delta       the previous tick (CRC-framed)
    ...

State files carry a monotonically increasing *generation* suffix and are
never overwritten: a new checkpoint writes a fresh generation's files
(each through a ``.tmp`` sibling, fsynced, atomically renamed), then
commits by atomically replacing the manifest, and only then prunes the
previous generations.  A crash at *any* point therefore leaves the last
committed checkpoint fully restorable — before the manifest rename the
old manifest still references the old, untouched files; after it the new
ones.  This matters most for cadence checkpointing into one directory
(``--checkpoint-every``), whose entire purpose is surviving exactly such
crashes.

The journal (:func:`append_delta`) is a command log: a cadence tick
appends one CRC-framed segment holding the documents the engine ingested
since the previous tick and its forced evaluations
(:mod:`repro.persistence.journal`) — bytes proportional to the new
documents, not to the window, and one segment whatever the shard count.
The manifest pins the chain's base generation; the segments commit
through their self-verifying frames at strictly consecutive
generations, with one directory-fsync durability barrier per tick.  A
power cut can therefore tear a trailing run of ticks — the frames detect
exactly that and the reader falls back to the longest verified prefix.
Damage *inside* the chain — a bad CRC with an intact segment after it,
or a generation gap, which no interrupted append can produce — raises
:class:`~repro.persistence.snapshot.SnapshotCorruptionError`: a chain
prefix is restored whole or not at all, never partially.  The next full
checkpoint (:func:`write_checkpoint`) starts a fresh base and prunes the
journal.

:func:`read_checkpoint` verifies the format version and every CRC before
any state reaches a ``restore`` call, brings an older base to the
current layout, then replays the journal through an engine restored from
the base (:func:`repro.persistence.resume.replay_journal`), so callers
always receive one complete engine state regardless of how it was
written.
"""

from __future__ import annotations

import json
import os
import re
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.persistence.journal import KIND as SEGMENT_KIND
from repro.persistence.snapshot import (
    SnapshotCorruptionError,
    SnapshotMismatchError,
    SnapshotVersionError,
)

#: Version of the directory layout + manifest schema (component snapshots
#: and journal segments carry their own ``kind`` and ``version`` on top
#: of this).  Version 2 added the journal; version-1 checkpoints (no
#: journal) remain readable.
FORMAT_VERSION = 2

SUPPORTED_FORMAT_VERSIONS = (1, FORMAT_VERSION)

MANIFEST_NAME = "MANIFEST.json"

#: State files end in ``-<generation>.json``, journal segments in
#: ``-<generation>.delta``; the suffix is how stale generations are
#: recognised for pruning and collision avoidance.
_GENERATION_SUFFIX = re.compile(r"-(\d{8})\.(?:json|delta)$")

#: Header of a journal segment: magic, payload length, payload CRC-32.
#: The frame makes every segment self-verifying even without its manifest
#: entry (the manifest CRC covers the whole framed file on top).
_FRAME_MAGIC = b"ENBDELTA1"


def _engine_file_name(generation: int) -> str:
    return f"engine-{generation:08d}.json"


def _shard_file_name(shard_id: int, generation: int) -> str:
    return f"shard-{shard_id:04d}-{generation:08d}.json"


def _engine_delta_name(generation: int) -> str:
    return f"engine-{generation:08d}.delta"


def _next_generation(
    directory: Path, manifest: Optional[Mapping[str, Any]] = None
) -> int:
    """One past the newest generation any file in ``directory`` belongs to.

    The committed manifest's ``generation`` is the authority (pass the
    ``manifest`` when it is already parsed), but the scan over file names
    guards the case of a corrupt manifest plus orphaned state files from
    an interrupted write: new files must never collide with (and thereby
    destroy) anything already on disk.
    """
    newest = 0
    try:
        if manifest is None:
            manifest = json.loads((directory / MANIFEST_NAME).read_bytes())
        newest = int(manifest.get("generation", 0))
    except (OSError, ValueError, TypeError, AttributeError):
        pass
    for name in os.listdir(directory):
        match = _GENERATION_SUFFIX.search(name)
        if match:
            newest = max(newest, int(match.group(1)))
    return newest + 1


def _prune_stale(directory: Path, generation: int) -> None:
    """Best-effort removal of state files older than ``generation``.

    Runs only after the new manifest has committed, so everything removed
    is unreferenced; failures are ignored (a leftover file costs disk, a
    raised error would fail a checkpoint that already succeeded).
    """
    for pattern in ("*.json.tmp", "*.delta.tmp"):
        for path in directory.glob(pattern):
            try:
                path.unlink()
            except OSError:
                pass
    for pattern in ("*.json", "*.delta"):
        for path in directory.glob(pattern):
            match = _GENERATION_SUFFIX.search(path.name)
            if match and int(match.group(1)) < generation:
                try:
                    path.unlink()
                except OSError:
                    pass


def _atomic_write(path: Path, payload: bytes, durable: bool = True) -> None:
    """Write ``payload`` via a temporary sibling and an atomic rename.

    ``durable=False`` skips the data fsync: journal segments use it
    because their CRC frame makes a power-cut-torn tail *detectable* and
    the reader falls back to the committed prefix — one durability
    barrier per cadence tick (the manifest's) instead of three is most of
    the difference between journaling and re-serialising the window.
    """
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "wb") as handle:
        handle.write(payload)
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def _fsync_directory(directory: Path) -> None:
    """Persist the directory's entries (renames/unlinks) to stable storage.

    File fsyncs alone do not order the *renames* with respect to a power
    cut; without this, the manifest rename could be lost while the prune
    of the previous generation survives — no restorable checkpoint left.
    Best-effort on filesystems that reject directory fsync.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


try:  # pragma: no cover - exercised implicitly by every store test
    import orjson as _orjson
except ImportError:  # pragma: no cover
    _orjson = None


def _encode(state: Mapping[str, Any]) -> bytes:
    # Compact separators: checkpoints are written on a cadence from a hot
    # loop, and the indented form costs 3x the encode time and twice the
    # bytes for state nobody reads by eye (the manifest stays small anyway).
    # orjson emits the same shortest-round-trip floats as json several
    # times faster — on a cadence tick the encode *is* most of the CPU —
    # so it is used when the interpreter ships it, with the stdlib as the
    # drop-in fallback (both outputs parse with json.loads identically).
    if _orjson is not None:
        return _orjson.dumps(state)
    return json.dumps(state, separators=(",", ":")).encode("utf-8")


def write_checkpoint(
    directory,
    state: Mapping[str, Any],
    extras: Optional[Mapping[str, Any]] = None,
    observer=None,
) -> int:
    """Persist an engine snapshot into ``directory``; returns its generation.

    ``state`` is an engine ``snapshot()`` dict; when it carries a
    ``"shards"`` list (the sharded engine), each shard's state goes into
    its own ``shard-NNNN-<generation>.json`` so a restore — or a future
    per-shard migration — can read shards independently.  ``extras`` is
    free-form metadata recorded in the manifest (the CLI stores the
    dataset parameters there so ``--resume`` can rebuild the stream).
    Writing into a directory that already holds a checkpoint never touches
    the committed generation's files: the previous checkpoint stays
    restorable until the new manifest lands, and is pruned afterwards.

    ``observer`` (optional) is called twice — ``("serialize", seconds)``
    after the encode half and ``("fsync", seconds)`` after the
    write+commit half — splitting the tick's cost into its CPU and its
    durability component; ``None`` (the default) keeps the path untimed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    generation = _next_generation(directory)

    engine_state = dict(state)
    shard_states = engine_state.pop("shards", None)

    started = time.perf_counter() if observer is not None else 0.0

    files: Dict[str, Dict[str, Any]] = {}
    payloads: List[Tuple[Path, bytes]] = []

    engine_name = _engine_file_name(generation)
    engine_payload = _encode(engine_state)
    files["engine"] = {
        "path": engine_name,
        "crc32": zlib.crc32(engine_payload),
    }
    payloads.append((directory / engine_name, engine_payload))

    if shard_states is not None:
        for shard_id, shard_state in enumerate(shard_states):
            name = _shard_file_name(shard_id, generation)
            payload = _encode(shard_state)
            files[f"shard-{shard_id}"] = {
                "path": name,
                "crc32": zlib.crc32(payload),
            }
            payloads.append((directory / name, payload))

    manifest = {
        "format_version": FORMAT_VERSION,
        "generation": generation,
        "base_generation": generation,
        "kind": state.get("kind"),
        "config": state.get("config"),
        "num_shards": None if shard_states is None else len(shard_states),
        "documents_processed": state.get("documents_processed"),
        "files": files,
        "extras": dict(extras or {}),
    }
    manifest_payload = _encode(manifest)

    if observer is not None:
        now = time.perf_counter()
        observer("serialize", now - started)
        started = now

    for path, payload in payloads:
        _atomic_write(path, payload)
    # The manifest commits the checkpoint: readers start from it, so until
    # this rename lands they keep seeing the previous complete checkpoint.
    _atomic_write(directory / MANIFEST_NAME, manifest_payload)
    # One directory fsync persists every rename above; it must land before
    # the prune may remove the previous generation.
    _fsync_directory(directory)

    if observer is not None:
        observer("fsync", time.perf_counter() - started)

    _prune_stale(directory, generation)
    return generation


def _read_json(path: Path, description: str) -> Any:
    try:
        payload = path.read_bytes()
    except FileNotFoundError:
        raise SnapshotCorruptionError(
            f"checkpoint is missing its {description}: {path}"
        ) from None
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptionError(
            f"checkpoint {description} {path} is not valid JSON: {exc}"
        ) from exc


def read_manifest(directory) -> Dict[str, Any]:
    """Read and validate a checkpoint's manifest (format version only)."""
    directory = Path(directory)
    manifest = _read_json(directory / MANIFEST_NAME, "manifest")
    if not isinstance(manifest, dict) or "files" not in manifest:
        raise SnapshotCorruptionError(
            f"checkpoint manifest {directory / MANIFEST_NAME} has no file table"
        )
    version = manifest.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise SnapshotVersionError(
            f"checkpoint format version {version!r} is not supported "
            f"(this build reads versions {list(SUPPORTED_FORMAT_VERSIONS)})"
        )
    return manifest


def _read_verified_bytes(
    directory: Path, entry: Mapping[str, Any], name: str
) -> Tuple[Path, bytes]:
    path = directory / entry["path"]
    try:
        payload = path.read_bytes()
    except FileNotFoundError:
        raise SnapshotCorruptionError(
            f"checkpoint is missing state file {path} (listed as {name!r})"
        ) from None
    crc = zlib.crc32(payload)
    expected = entry.get("crc32")
    if crc != expected:
        # ``expected`` may be absent/None in a damaged manifest — still a
        # corruption, and the message must not crash formatting it.
        raise SnapshotCorruptionError(
            f"checkpoint state file {path} is corrupt: CRC-32 {crc:#010x} "
            f"does not match the manifest's {expected!r}"
        )
    return path, payload


def _read_verified(directory: Path, entry: Mapping[str, Any], name: str) -> Any:
    path, payload = _read_verified_bytes(directory, entry, name)
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptionError(
            f"checkpoint state file {path} is not valid JSON: {exc}"
        ) from exc


def _frame(payload: bytes) -> bytes:
    """Wrap a journal payload in its self-verifying header line."""
    header = b"%s %08d %08x\n" % (_FRAME_MAGIC, len(payload), zlib.crc32(payload))
    return header + payload


def _unframe(path: Path, data: bytes) -> bytes:
    """Verify and strip a journal segment's frame; returns the payload.

    Raises :class:`SnapshotCorruptionError` for a missing/foreign magic, a
    truncated or overlong payload, or a payload CRC mismatch — the frame
    catches torn writes even when a damaged manifest no longer can.
    """
    header, separator, payload = data.partition(b"\n")
    parts = header.split(b" ")
    if not separator or len(parts) != 3 or parts[0] != _FRAME_MAGIC:
        raise SnapshotCorruptionError(
            f"journal segment {path} has no {_FRAME_MAGIC.decode()} frame header"
        )
    try:
        length = int(parts[1])
        crc = int(parts[2], 16)
    except ValueError:
        raise SnapshotCorruptionError(
            f"journal segment {path} has a malformed frame header"
        ) from None
    if len(payload) != length:
        raise SnapshotCorruptionError(
            f"journal segment {path} is torn: frame announces {length} "
            f"payload bytes, file carries {len(payload)}"
        )
    actual = zlib.crc32(payload)
    if actual != crc:
        raise SnapshotCorruptionError(
            f"journal segment {path} is corrupt: payload CRC-32 "
            f"{actual:#010x} does not match the frame's {crc:#010x}"
        )
    return payload


def _read_framed_file(path: Path, description: str) -> Any:
    """Read a CRC-framed journal segment; the frame is its sole checksum."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise SnapshotCorruptionError(
            f"checkpoint is missing its {description}: {path}"
        ) from None
    payload = _unframe(path, data)
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptionError(
            f"journal segment {path} is not valid JSON: {exc}"
        ) from exc


def append_delta(
    directory,
    segment: Mapping[str, Any],
    expected_base: Optional[int] = None,
    expected_generation: Optional[int] = None,
    observer=None,
    extras: Optional[Mapping[str, Any]] = None,
) -> int:
    """Append one journal segment to the checkpoint in ``directory``.

    ``segment`` is an engine ``delta_since()`` dict: the input since the
    previous tick, written as one CRC-framed ``engine-<gen>.delta``.
    ``extras`` (optional) ride in the segment and supersede the
    manifest's extras of the same keys once it is read back, so live
    metadata (the serving metrics snapshot) is as fresh as the engine
    state it was taken with.  The manifest pins the chain's base; each
    segment *commits itself* through its CRC frame — generations are
    strictly consecutive from the base, so the committed chain is the
    longest verifiable prefix and no per-tick manifest rewrite is needed.
    Nothing is pruned: the journal accumulates until the next full
    :func:`write_checkpoint` re-bases the directory.

    One durability barrier per tick: the segment is written and
    atomically renamed without its own fsync, then a single directory
    fsync persists the rename (ordered-journal filesystems flush the
    renamed file's data first; elsewhere the data may lag by a few
    ticks).  A power cut can therefore tear a trailing run of ticks —
    the frames detect it and the reader falls back to the verified
    prefix.  The tear can never end up mid-chain (before an intact
    segment): losing unsynced writes implies the writing process died,
    and a new writer must re-base with a full checkpoint before
    appending again.

    ``expected_base``/``expected_generation`` guard chain continuity:
    when given, the manifest's base generation and the directory's next
    free generation must match the caller's record (i.e. nobody re-based
    or extended the chain since), otherwise
    :class:`SnapshotMismatchError`.  Returns the new generation.

    ``observer`` splits the tick into its encode and its write+barrier
    half exactly as in :func:`write_checkpoint`.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    base_generation = manifest.get("base_generation",
                                   manifest.get("generation"))
    if expected_base is not None and base_generation != expected_base:
        raise SnapshotMismatchError(
            f"checkpoint in {directory} was re-based at generation "
            f"{base_generation!r}, not the expected {expected_base} — "
            f"another writer owns the directory; write a fresh full "
            f"checkpoint first"
        )
    generation = _next_generation(directory, manifest)
    if expected_generation is not None \
            and generation != expected_generation + 1:
        raise SnapshotMismatchError(
            f"checkpoint in {directory} continues at generation "
            f"{generation}, not the expected {expected_generation + 1} — "
            f"another writer extended the chain (or an append was "
            f"interrupted); write a fresh full checkpoint first"
        )

    started = time.perf_counter() if observer is not None else 0.0
    if extras:
        segment = {**segment, "extras": dict(extras)}
    payload = _frame(_encode(segment))
    if observer is not None:
        now = time.perf_counter()
        observer("serialize", now - started)
        started = now

    _atomic_write(directory / _engine_delta_name(generation), payload,
                  durable=False)
    # The tick's one durability barrier (see the docstring).
    _fsync_directory(directory)

    if observer is not None:
        observer("fsync", time.perf_counter() - started)

    return generation


def read_checkpoint(directory) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load a checkpoint; returns ``(manifest, state)``.

    The returned ``state`` is the engine snapshot with the per-shard files
    reassembled under ``"shards"`` (in shard order), an older base
    brought to the current layout, and the committed journal segments
    replayed onto it, ready for an engine's ``restore``; the manifest's
    ``extras`` are updated with those of the newest segment that carries
    any.  Validation order: manifest format version first, then the
    CRC-32 of every state file and the CRC frame of every journal
    segment — corrupted bytes never reach a restore, and a corrupt
    committed segment fails the whole load rather than silently
    restoring a partial chain.  A segment in the per-component format
    older builds wrote is refused with
    :class:`~repro.persistence.snapshot.SnapshotMismatchError`.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    files = manifest["files"]
    if "engine" not in files:
        raise SnapshotCorruptionError(
            f"checkpoint manifest in {directory} lists no engine state file"
        )
    state = _read_verified(directory, files["engine"], "engine")
    if not isinstance(state, dict):
        raise SnapshotCorruptionError(
            f"engine state in {directory} is not a mapping"
        )
    num_shards = manifest.get("num_shards")
    if num_shards is not None:
        shards = []
        for shard_id in range(num_shards):
            name = f"shard-{shard_id}"
            if name not in files:
                raise SnapshotCorruptionError(
                    f"checkpoint manifest in {directory} is missing the "
                    f"entry for shard {shard_id}"
                )
            shards.append(_read_verified(directory, files[name], name))
        state["shards"] = shards

    # Imported lazily: both build on repro.core, which itself imports
    # this package.
    from repro.persistence.resume import replay_journal
    from repro.persistence.upgrade import upgrade_engine_state

    state = upgrade_engine_state(state)
    base_generation = manifest.get("base_generation",
                                   manifest.get("generation", 0))
    segments = _read_journal(directory, int(base_generation))
    extras = None
    for segment in segments:
        extras = segment.pop("extras", None) or extras
    if extras:
        manifest["extras"] = {**manifest.get("extras", {}), **extras}
    return manifest, replay_journal(state, segments)


def _read_journal(directory: Path, base_generation: int) -> List[dict]:
    """The committed journal segments after the base, in order.

    A power cut tears a contiguous *suffix*: segment data is not fsynced
    per tick, so on filesystems without ordered data flushing several
    trailing ticks may be torn at once.  If everything after a segment
    that fails its frame is torn too, the chain is the verified prefix
    before it; an *intact* later segment rules the crash explanation out
    — that is damage mid-chain, and restoring around it would be a lie.
    """
    chain = _journal_chain(directory, base_generation)
    segments: List[dict] = []
    for index, generation in enumerate(chain):
        try:
            segment = _read_framed_file(
                directory / _engine_delta_name(generation), "journal segment"
            )
        except SnapshotCorruptionError as exc:
            for later in chain[index + 1:]:
                try:
                    _read_framed_file(
                        directory / _engine_delta_name(later),
                        "journal segment",
                    )
                except SnapshotCorruptionError:
                    continue
                raise SnapshotCorruptionError(
                    f"journal segment {generation} in {directory} is "
                    f"damaged mid-chain (segment {later} after it is "
                    f"intact, so this is not an interrupted append): "
                    f"{exc}"
                ) from exc
            break
        kind = segment.get("kind") if isinstance(segment, dict) else None
        if kind != SEGMENT_KIND:
            raise SnapshotMismatchError(
                f"journal segment {generation} in {directory} is a {kind!r} "
                f"segment, which this build no longer reads (it replays "
                f"{SEGMENT_KIND!r} segments): take a fresh base — restore "
                f"the checkpoint with the build that wrote it and save a "
                f"full checkpoint"
            )
        segments.append(segment)
    return segments


def _journal_chain(directory: Path, base_generation: int) -> List[int]:
    """The journal generations following ``base_generation``, validated.

    Appends are strictly sequential, so the chain is the consecutive run
    of ``engine-<gen>.delta`` generations starting right after the base.
    A *gap* — segment files beyond a missing generation — cannot result
    from any crash (a crashed writer's successor re-bases first) and is
    reported as corruption rather than silently skipped.
    """
    generations = set()
    for path in directory.glob("engine-*.delta"):
        match = _GENERATION_SUFFIX.search(path.name)
        if match:
            generations.add(int(match.group(1)))
    chain: List[int] = []
    generation = base_generation + 1
    while generation in generations:
        chain.append(generation)
        generation += 1
    orphans = [g for g in generations if g > generation]
    if orphans:
        raise SnapshotCorruptionError(
            f"journal in {directory} has a gap: segment generation(s) "
            f"{sorted(orphans)} exist beyond the consecutive chain ending "
            f"at {generation - 1} — refusing to guess which prefix is real"
        )
    return chain
