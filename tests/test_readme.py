"""README names only what exists.

Four checks over ``README.md``: every backticked ``repro.…`` dotted name
imports, every ``repro_*`` metric family is declared in ``src/``, every
repository path it names exists, and every ``--flag`` of a ``repro.cli``
command in a code block is an option of that subcommand.
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
README = (ROOT / "README.md").read_text(encoding="utf-8")

FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
PROSE = FENCE.sub("", README)
CODE_BLOCKS = FENCE.findall(README)


def dotted_names():
    names = set()
    for span in re.findall(r"`([^`\n]+)`", PROSE):
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


def family_patterns():
    """Each named family, brace lists expanded; ``*`` stays a wildcard."""
    patterns = set()
    for token in re.findall(r"repro_(?:[a-z0-9_*]|\{[a-z0-9_,]+\})+", README):
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


def repository_paths():
    found = re.findall(
        r"(?<![\w./-])((?:src|tests|scripts|benchmarks|examples)/[\w./*-]*)",
        README)
    return sorted({path.rstrip(".") for path in found})


def cli_invocations():
    """``(subcommand, flags)`` of every ``repro.cli`` line in a code block."""
    invocations = []
    for block in CODE_BLOCKS:
        for line in block.replace("\\\n", " ").splitlines():
            if "repro.cli" not in line:
                continue
            words = line.split("repro.cli", 1)[1].split("#", 1)[0].split()
            flags = [word.split("=", 1)[0] for word in words
                     if re.fullmatch(r"--[a-z][a-z0-9-]*(=.*)?", word)]
            invocations.append((words[0], tuple(flags)))
    return invocations


def options_of(parser):
    return {option for action in parser._actions
            for option in action.option_strings}


def cli_flags():
    """Each distinct ``(subcommand, flag)`` pair of :func:`cli_invocations`."""
    return sorted({(command, flag) for command, flags in cli_invocations()
                   for flag in flags})


def test_every_check_has_something_to_check():
    assert dotted_names()
    assert family_patterns()
    assert repository_paths()
    assert cli_flags()


@pytest.mark.parametrize("dotted", dotted_names())
def test_dotted_name_resolves(dotted):
    resolve(dotted)


@pytest.fixture(scope="module")
def declared():
    return declared_families()


@pytest.mark.parametrize("pattern", family_patterns())
def test_named_family_is_declared(pattern, declared):
    assert any(fnmatchcase(name, pattern) for name in declared)


@pytest.mark.parametrize("path", repository_paths())
def test_named_path_exists(path):
    assert list(ROOT.glob(path.rstrip("/")))


@pytest.fixture(scope="module")
def commands():
    parser = cli.build_parser()
    subcommands = next(action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    return parser, subcommands.choices


@pytest.mark.parametrize("command,flag", cli_flags(),
                         ids=[" ".join(pair) for pair in cli_flags()])
def test_cli_flag_parses(command, flag, commands):
    parser, subcommands = commands
    assert command in subcommands
    assert flag in options_of(subcommands[command]) | options_of(parser)
