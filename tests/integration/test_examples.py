"""The examples run as scripts: each exits cleanly and prints its story.

They drive the Section 4.1 surface end to end — shared operators, the
executor's ``describe()``, ``MergedSource`` and the service's push — so a
change that breaks what a reader is told to run fails here.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Text each example prints on a complete run.
EXPECTED = {
    "live_monitoring.py": ("[shared] ->", "laptop session received"),
    "nyt_replay.py": ("ranking restricted to days",),
    "personalized_alerts.py": ("Personalized views compared to the global ranking",),
    "quickstart.py": ("(athens, sigmod) is ranked #1 in the final top-10",),
}


def test_every_example_is_covered():
    assert sorted(path.name for path in EXAMPLES.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_example_runs_as_main(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    printed = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in printed
