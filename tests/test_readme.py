"""The documents name only what exists.

Four checks over ``README.md`` and the verify skill
(``.claude/skills/verify/SKILL.md``): every backticked ``repro.…`` dotted
name imports, every ``repro_*`` metric family is declared in ``src/``,
every repository path it names exists, and every ``--flag`` of a
``repro.cli`` command (in a code block or an inline code span) is an
option of that subcommand.
"""

import argparse
import importlib
import itertools
import re
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

from repro import cli

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = {
    name: (ROOT / name).read_text(encoding="utf-8")
    for name in ("README.md", ".claude/skills/verify/SKILL.md")
}

FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)


def prose(text):
    return FENCE.sub("", text)


def dotted_names(text):
    names = set()
    for span in re.findall(r"`([^`\n]+)`", prose(text)):
        names.update(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", span))
    return sorted(names)


def resolve(dotted):
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(dotted)


def family_patterns(text):
    """Each named family, brace lists expanded; ``*`` stays a wildcard."""
    patterns = set()
    for token in re.findall(r"repro_(?:[a-z0-9_*]|\{[a-z0-9_,]+\})+", text):
        pieces = re.split(r"\{([a-z0-9_,]+)\}", token)
        choices = [piece.split(",") if index % 2 else [piece]
                   for index, piece in enumerate(pieces)]
        patterns.update("".join(parts) for parts in itertools.product(*choices))
    return sorted(patterns)


def declared_families():
    declared = set()
    for path in (ROOT / "src").rglob("*.py"):
        declared.update(re.findall(r"[\"'](repro_[a-z0-9_]+)[\"']",
                                   path.read_text(encoding="utf-8")))
    return declared


def repository_paths(text):
    found = re.findall(
        r"(?<![\w./-])((?:src|tests|scripts|benchmarks|examples)/[\w./*-]*)",
        text)
    return sorted({path.rstrip(".") for path in found})


def cli_invocations(text):
    """``(subcommand, flags)`` of every ``repro.cli`` command line.

    Code blocks are read line by line; an inline code span (which may wrap
    across lines) is one command.
    """
    lines = []
    for block in FENCE.findall(text):
        lines.extend(block.replace("\\\n", " ").splitlines())
    lines.extend(" ".join(span.split())
                 for span in re.findall(r"`([^`]+)`", prose(text)))
    invocations = []
    for line in lines:
        if "repro.cli" not in line:
            continue
        words = line.split("repro.cli", 1)[1].split("#", 1)[0].split()
        if not words:
            continue
        flags = [word.split("=", 1)[0] for word in words
                 if re.fullmatch(r"--[a-z][a-z0-9-]*(=.*)?", word)]
        invocations.append((words[0], tuple(flags)))
    return invocations


def options_of(parser):
    return {option for action in parser._actions
            for option in action.option_strings}


def cli_flags(text):
    """Each distinct ``(subcommand, flag)`` pair of :func:`cli_invocations`."""
    return sorted({(command, flag) for command, flags in cli_invocations(text)
                   for flag in flags})


def cases(extract):
    """One test case per (document, extracted item)."""
    params = []
    for name, text in DOCUMENTS.items():
        for item in extract(text):
            label = item if isinstance(item, str) else " ".join(item)
            params.append(pytest.param(item, id=f"{name}:{label}"))
    return params


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_check_has_something_to_check(name):
    text = DOCUMENTS[name]
    assert dotted_names(text)
    assert family_patterns(text)
    assert repository_paths(text)
    assert cli_flags(text)


@pytest.mark.parametrize("dotted", cases(dotted_names))
def test_dotted_name_resolves(dotted):
    resolve(dotted)


@pytest.fixture(scope="module")
def declared():
    return declared_families()


@pytest.mark.parametrize("pattern", cases(family_patterns))
def test_named_family_is_declared(pattern, declared):
    assert any(fnmatchcase(name, pattern) for name in declared)


@pytest.mark.parametrize("path", cases(repository_paths))
def test_named_path_exists(path):
    assert list(ROOT.glob(path.rstrip("/")))


@pytest.fixture(scope="module")
def commands():
    parser = cli.build_parser()
    subcommands = next(action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    return parser, subcommands.choices


@pytest.mark.parametrize("command_flag", cases(cli_flags))
def test_cli_flag_parses(command_flag, commands):
    command, flag = command_flag
    parser, subcommands = commands
    assert command in subcommands
    assert flag in options_of(subcommands[command]) | options_of(parser)
