"""JSON serialization of rankings for the web front end.

The back-end "sends topic rankings to an installation of APE which
dispatches the messages to the registered clients" — over the wire those
messages are JSON.  This module converts rankings and topics to and from
plain JSON-compatible dictionaries so the serving layer (or any external
consumer) can ship them across process boundaries, and so a stream can be
replayed from stored frames.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.core.types import EmergentTopic, Ranking, TagPair


def topic_to_dict(topic: EmergentTopic) -> Dict[str, Any]:
    """JSON-compatible representation of one emergent topic."""
    return {
        "tags": list(topic.pair.as_tuple()),
        "score": topic.score,
        "correlation": topic.correlation,
        "predicted_correlation": topic.predicted_correlation,
        "prediction_error": topic.prediction_error,
        "seed_tag": topic.seed_tag,
        "timestamp": topic.timestamp,
    }


def topic_from_dict(payload: Dict[str, Any]) -> EmergentTopic:
    """Inverse of :func:`topic_to_dict`."""
    tags = payload.get("tags")
    if not isinstance(tags, (list, tuple)) or len(tags) != 2:
        raise ValueError("topic payload must carry exactly two tags")
    return EmergentTopic(
        pair=TagPair(str(tags[0]), str(tags[1])),
        score=float(payload["score"]),
        correlation=float(payload.get("correlation", 0.0)),
        predicted_correlation=float(payload.get("predicted_correlation", 0.0)),
        prediction_error=float(payload.get("prediction_error", 0.0)),
        seed_tag=payload.get("seed_tag"),
        timestamp=float(payload.get("timestamp", 0.0)),
    )


def ranking_to_dict(ranking: Ranking) -> Dict[str, Any]:
    """JSON-compatible representation of a whole ranking."""
    return {
        "timestamp": ranking.timestamp,
        "label": ranking.label,
        "topics": [topic_to_dict(topic) for topic in ranking],
    }


def ranking_from_dict(payload: Dict[str, Any]) -> Ranking:
    """Inverse of :func:`ranking_to_dict`."""
    topics = [topic_from_dict(entry) for entry in payload.get("topics", [])]
    return Ranking(
        timestamp=float(payload["timestamp"]),
        topics=topics,
        label=str(payload.get("label", "")),
    )


def ranking_to_json(ranking: Ranking, indent: int = None) -> str:
    """Serialise a ranking to a JSON string."""
    return json.dumps(ranking_to_dict(ranking), indent=indent, sort_keys=True)


def ranking_from_json(text: str) -> Ranking:
    """Parse a ranking from a JSON string."""
    return ranking_from_dict(json.loads(text))


def rankings_to_json(rankings: List[Ranking], indent: int = None) -> str:
    """Serialise a sequence of rankings (e.g. a whole replay) to JSON."""
    return json.dumps([ranking_to_dict(r) for r in rankings],
                      indent=indent, sort_keys=True)


def rankings_from_json(text: str) -> List[Ranking]:
    """Parse a sequence of rankings from JSON."""
    return [ranking_from_dict(entry) for entry in json.loads(text)]
