"""The wire format of rankings.

Section 4.2 pushes rankings to web browsers through APE; the push itself
is :class:`~repro.serving.broadcast.AsyncFanout`, served over SSE by
:mod:`repro.serving`.  What is left here is the JSON shape a ranking
travels in — the SSE frames and ``GET /rankings``, the CLI's
``--export`` and the benchmarks' frame checks all read
:func:`~repro.portal.serialization.ranking_to_dict`.
"""

from repro.portal.serialization import (
    ranking_from_dict,
    ranking_from_json,
    ranking_to_dict,
    ranking_to_json,
    rankings_from_json,
    rankings_to_json,
)

__all__ = [
    "ranking_to_dict",
    "ranking_from_dict",
    "ranking_to_json",
    "ranking_from_json",
    "rankings_to_json",
    "rankings_from_json",
]
