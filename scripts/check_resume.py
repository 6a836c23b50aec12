#!/usr/bin/env python3
"""Check that a resumed replay published the tail of the full replay.

    python scripts/check_resume.py FULL.json RESUMED.json [--journal DIR]

Both files are ``repro.cli replay --export`` outputs: ``FULL`` from an
uninterrupted run, ``RESUMED`` from ``replay --resume`` of a checkpoint
taken part-way through the same stream.  The resumed rankings must equal
the last rankings of the full run exactly.  With ``--journal`` the
checkpoint directory must also hold journal segments, so a cadence that
silently wrote full checkpoints only does not pass for a journal test.
Every segment must be the engine's input (a ``command-log`` segment), and
no shard may have written one of its own (``shard-*.delta``).  Its base
files must hold no table restore derives: a tracker state
carries neither ``pair_events`` nor ``candidates``.  And they must spell
no tag name in place: a tag window's events and a tracker's histories
refer to their component's ``tags`` table by position.
"""

import argparse
import json
from pathlib import Path


def holds_text(node) -> bool:
    """Whether a decoded JSON value holds a string anywhere."""
    if isinstance(node, str):
        return True
    if isinstance(node, list):
        return any(map(holds_text, node))
    return False


def check_bases(directory: Path) -> None:
    """Fail on a base file whose tracker holds a derived table, or whose
    tag window or histories spell a tag name in place."""
    bases = {path: json.loads(path.read_text())
             for path in sorted(directory.glob("*.json"))
             if path.name != "MANIFEST.json"}
    for path, state in bases.items():
        derived = sorted({"pair_events", "candidates"}
                         & set(state.get("tracker", {})))
        if derived:
            raise SystemExit(
                f"{path} is a base that still holds the "
                f"derived table(s) {', '.join(derived)}"
            )
    for path, state in bases.items():
        tracker = state.get("tracker", {})
        spelled = sorted({
            name for name, rows in (
                ("tag window", state.get("tag_window", {}).get("events")),
                ("tag window", tracker.get("tag_window", {}).get("events")),
                ("histories", tracker.get("histories")),
            ) if holds_text(rows)
        })
        if spelled:
            raise SystemExit(
                f"{path} is a base that spells tag names in place in its "
                f"{' and '.join(spelled)}"
            )
    print(f"{len(bases)} base file(s) hold no derived table and spell no "
          f"tag in place")


def check_segments(directory: Path) -> None:
    """Fail unless ``directory`` holds journal segments, each one a
    command log of the engine's input and none a shard's."""
    segments = sorted(directory.glob("*.delta"))
    if not segments:
        raise SystemExit(f"{directory} holds no journal segments")
    for path in segments:
        if path.name.startswith("shard-"):
            raise SystemExit(
                f"{path} is a shard's segment: the journal is the "
                f"coordinator's input, one segment per tick"
            )
        # A segment is one header line of framing, then the JSON body.
        kind = json.loads(path.read_bytes().split(b"\n", 1)[1]).get("kind")
        if kind != "command-log":
            raise SystemExit(
                f"{path} is a {kind!r} segment, not a command log"
            )
    print(f"journal holds {len(segments)} command-log segment(s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("full", type=Path)
    parser.add_argument("resumed", type=Path)
    parser.add_argument("--journal", type=Path, metavar="DIR")
    args = parser.parse_args()
    if args.journal is not None:
        check_segments(args.journal)
        check_bases(args.journal)
    full = json.loads(args.full.read_text())
    resumed = json.loads(args.resumed.read_text())
    if len(resumed) < 2:
        raise SystemExit(f"resume replayed too little: {len(resumed)} ranking(s)")
    if resumed != full[-len(resumed):]:
        raise SystemExit(
            f"{args.resumed} differs from the tail of {args.full}"
        )
    print(f"resumed {len(resumed)} rankings bit-identical to the full replay")


if __name__ == "__main__":
    main()
