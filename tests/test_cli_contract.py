"""CLI contract tests: the noun-verb surface is a stable, snapshotted API.

Every subcommand's ``--help`` text is snapshotted under
``tests/snapshots/cli/``; an unintentional flag rename, default change, or
removed command shows up as a snapshot diff. Regenerate deliberately with::

    REPRO_REGEN_CLI_SNAPSHOTS=1 PYTHONPATH=src python -m pytest tests/test_cli_contract.py

Help output is normalized (pinned width, the Python 3.9 "optional
arguments:" heading rewritten to the 3.10+ "options:") so snapshots are
identical across the CI interpreter matrix.

Every ``python -m repro`` command line in the README, ``docs/``, the verify
skill notes and the CI workflow must also parse, so documentation cannot
drift onto a spelling the CLI no longer accepts.
"""

import argparse
import contextlib
import io
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import CLI_COMMANDS, build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_DIR = REPO_ROOT / "tests" / "snapshots" / "cli"
REGEN = os.environ.get("REPRO_REGEN_CLI_SNAPSHOTS") == "1"

#: One snapshot per command path; () is the root parser.
COMMAND_PATHS = ((),) + tuple(CLI_COMMANDS)


def _subparser_action(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    raise AssertionError(f"{parser.prog} has no subcommands")


def _parser_for(path):
    parser = build_parser()
    for name in path:
        parser = _subparser_action(parser).choices[name]
    return parser


def _parse(argv):
    return build_parser().parse_args(argv)


def _normalize(text: str) -> str:
    text = text.replace("optional arguments:", "options:")
    return "\n".join(line.rstrip() for line in text.splitlines()) + "\n"


def _snapshot_name(path) -> str:
    return ("root" if not path else "-".join(path)) + ".txt"


@pytest.fixture(autouse=True)
def _pinned_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


class TestHelpSnapshots:
    @pytest.mark.parametrize(
        "path", COMMAND_PATHS, ids=[_snapshot_name(p) for p in COMMAND_PATHS]
    )
    def test_help_matches_snapshot(self, path):
        rendered = _normalize(_parser_for(path).format_help())
        snapshot = SNAPSHOT_DIR / _snapshot_name(path)
        if REGEN:
            snapshot.parent.mkdir(parents=True, exist_ok=True)
            snapshot.write_text(rendered, encoding="utf-8")
        assert snapshot.exists(), (
            f"missing snapshot {snapshot}; regenerate with "
            "REPRO_REGEN_CLI_SNAPSHOTS=1"
        )
        assert rendered == _normalize(snapshot.read_text(encoding="utf-8")), (
            f"`repro {' '.join(path)} --help` drifted from its snapshot — "
            "if intentional, regenerate with REPRO_REGEN_CLI_SNAPSHOTS=1"
        )

    def test_no_orphaned_snapshots(self):
        expected = {_snapshot_name(p) for p in COMMAND_PATHS}
        on_disk = {p.name for p in SNAPSHOT_DIR.glob("*.txt")}
        assert on_disk == expected


class TestGrammar:
    def test_every_declared_command_parses_help(self):
        for path in CLI_COMMANDS:
            parser = _parser_for(path)
            assert parser.format_usage().startswith("usage: repro ")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["run", "volrend"], id="run"),
            pytest.param(["compare", "volrend"], id="compare"),
            pytest.param(["profile", "volrend"], id="profile"),
            pytest.param(["figure", "fig6"], id="figure-artifact"),
            pytest.param(["apps"], id="bare-apps"),
            pytest.param(["verify", "--campaign", "smoke"], id="bare-verify"),
            pytest.param(["trace", "info", "x.wtr"], id="trace-info"),
            pytest.param(
                ["sim", "profile", "volrend", "--output", "x"],
                id="profile-output",
            ),
            pytest.param(["campaign", "serve", "--out", "x"], id="serve"),
            pytest.param(["campaign", "worker", "--connect", "h:1"],
                         id="worker"),
            pytest.param(["campaign", "submit", "x"], id="submit"),
            pytest.param(["campaign", "status", "x", "--live"], id="live"),
        ],
    )
    def test_removed_spellings_are_rejected(self, argv, capsys):
        """The pre-1.2 spellings were removed in 1.2, and the coordinator
        verbs and live status flags in 1.3 (docs/API.md)."""
        with pytest.raises(SystemExit) as excinfo:
            _parse(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_canonical_spellings_carry_no_deprecation(self, capsys):
        assert main(["apps", "list"]) == 0
        assert capsys.readouterr().err == ""

    def test_shared_execution_flags(self):
        args = _parse(
            ["sim", "run", "fft", "--workers", "3", "--no-cache"]
        )
        assert args.workers == 3 and args.no_cache is True
        args = _parse(
            ["campaign", "run", "--apps", "fft", "--out", "x",
             "--workers", "2", "--no-cache"]
        )
        assert args.workers == 2 and args.no_cache is True

    def test_shared_machine_flags(self):
        for argv in (
            ["sim", "run", "fft", "--cores", "8", "--seed", "7"],
            ["sim", "compare", "fft", "--cores", "8", "--seed", "7"],
            ["figure", "render", "fig6", "--cores", "8", "--seed", "7"],
            ["campaign", "run", "--apps", "fft", "--out", "x",
             "--cores", "8", "--seed", "7"],
        ):
            args = _parse(argv)
            assert (args.cores, args.seed) == (8, 7), argv

    def test_profile_out_flag(self):
        args = _parse(["sim", "profile", "fft", "--out", "r.txt"])
        assert args.out == "r.txt"

    def test_unknown_noun_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _parse(["meteor"])
        assert excinfo.value.code == 2


# ------------------------------------------------- documented command lines

#: Files whose command lines must parse with the current CLI.
DOC_SOURCES = (
    ["README.md"]
    + sorted(
        str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md")
    )
    + [".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"]
)

#: ``[VAR=value ...] [timeout N] python -m repro ...`` at the start of a
#: line. Transcripts that abbreviate it to ``repro ...`` count too.
_COMMAND = re.compile(
    r"^(?:[A-Za-z_][A-Za-z0-9_]*=\S*\s+)*(?:timeout\s+\d+\s+)?"
    r"(?:python3?\s+-m\s+)?repro(?=\s|$)(?P<rest>.*)$"
)


def _shell_lines(path):
    """Yield ``(line_number, text)`` for the lines a shell would run.

    Markdown contributes only fenced code blocks, so prose mentions never
    count. In the CI workflow every line is a candidate, and a folded
    ``run: >`` block is joined into one line the way YAML folds it.
    ``\\`` continuations are joined in both, and a ``$ `` prompt is
    dropped.
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    candidates = []
    if path.suffix == ".md":
        fenced = False
        for number, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
            elif fenced:
                candidates.append((number, line.strip()))
    else:
        index = 0
        while index < len(lines):
            line = lines[index]
            folded = re.match(r"^(\s*)run:\s*>-?\s*$", line)
            index += 1
            if not folded:
                candidates.append((index, re.sub(r"^\s*run:\s*", "", line)))
                continue
            start, parts = index + 1, []
            while index < len(lines) and (
                not lines[index].strip()
                or len(lines[index]) - len(lines[index].lstrip())
                > len(folded.group(1))
            ):
                parts.append(lines[index].strip())
                index += 1
            candidates.append((start, " ".join(p for p in parts if p)))
    pending = None
    for number, text in candidates:
        text = text.strip()
        if text.startswith("$ "):
            text = text[2:]
        if pending is not None:
            number, text = pending[0], pending[1] + " " + text
        if text.endswith("\\"):
            pending = (number, text[:-1].rstrip())
            continue
        pending = None
        yield number, text


def _cut_at_shell_operator(text):
    """The command up to its first unquoted ``|``, ``>``, ``;``, ``&``
    (which covers ``&&``) or ``#``; a file-descriptor digit right before
    ``>`` (``2>``) goes with the redirect."""
    quote = None
    for index, char in enumerate(text):
        if quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char in "|>;&#":
            head = text[:index]
            if char == ">":
                head = re.sub(r"\s\d$", "", head)
            return head
    return text


def documented_commands():
    found = []
    for name in DOC_SOURCES:
        for number, text in _shell_lines(REPO_ROOT / name):
            match = _COMMAND.match(text)
            if match:
                argv = shlex.split(_cut_at_shell_operator(match.group("rest")))
                found.append((f"{name}:{number}", argv))
    return found


def test_documented_commands_parse():
    commands = documented_commands()
    assert len(commands) >= 10, "the doc scan found almost no commands"
    failures = []
    for where, argv in commands:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(
                io.StringIO()
            ):
                build_parser().parse_args(argv)
        except SystemExit as exit_:
            if exit_.code:
                error = stderr.getvalue().strip().splitlines()[-1]
                failures.append(
                    f"{where}: python -m repro {' '.join(argv)} -> {error}"
                )
    assert not failures, "documented commands no longer parse:\n" + "\n".join(
        failures
    )
