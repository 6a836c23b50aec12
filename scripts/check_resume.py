#!/usr/bin/env python3
"""Check that a resumed replay published the tail of the full replay.

    python scripts/check_resume.py FULL.json RESUMED.json [--journal DIR]

Both files are ``repro.cli replay --export`` outputs: ``FULL`` from an
uninterrupted run, ``RESUMED`` from ``replay --resume`` of a checkpoint
taken part-way through the same stream.  The resumed rankings must equal
the last rankings of the full run exactly.  With ``--journal`` the
checkpoint directory must also hold delta segments, so a cadence that
silently wrote full checkpoints only does not pass for a journal test.
"""

import argparse
import json
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("full", type=Path)
    parser.add_argument("resumed", type=Path)
    parser.add_argument("--journal", type=Path, metavar="DIR")
    args = parser.parse_args()
    if args.journal is not None:
        segments = list(args.journal.glob("*.delta"))
        if not segments:
            raise SystemExit(f"{args.journal} holds no journal segments")
        print(f"journal holds {len(segments)} segment file(s)")
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
