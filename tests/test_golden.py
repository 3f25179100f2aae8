"""Byte-identical output on a frozen corpus of queries.

Each line of `golden.txt` that does not start with "#" is one query: its exit
code, the sha256 of its stdout, the sha256 of its stderr and its argv,
shell-quoted, separated by single spaces.  The test runs every query through
`cli.main` in this one process and names each query whose line changed.  A
command line that argparse rejects stays out: its stderr is CPython's usage
text, which each Python version and terminal width wraps in its own way.

A change of output by design rewrites the file from the current tree, comment
lines kept in place:

    python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).with_name("golden.txt")


def _digest(stream: io.StringIO) -> str:
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


def corpus_line(argv: list[str]) -> str:
    """The corpus line of one query, run in this process."""
    from tensorwalks.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"{code} {_digest(out)} {_digest(err)} {shlex.join(argv)}"


def corpus_argv(line: str) -> list[str] | None:
    """The argv of a query line, None on a comment line."""
    return None if line.startswith("#") else shlex.split(line.split(" ", 3)[3])


def _digests(line: str) -> str:
    """The exit code and the two digests of a query line."""
    return " ".join(line.split(" ", 3)[:3])


def test_output_matches_the_golden_corpus():
    changed = []
    for line in CORPUS.read_text().splitlines():
        argv = corpus_argv(line)
        if argv is not None and (now := corpus_line(argv)) != line:
            changed.append(f"{shlex.join(argv)}\n  was {_digests(line)}\n  now {_digests(now)}")
    assert not changed, f"{len(changed)} queries changed:\n" + "\n".join(changed)


def test_no_query_is_on_two_lines():
    argvs = [shlex.join(argv) for line in CORPUS.read_text().splitlines()
             if (argv := corpus_argv(line)) is not None]
    assert sorted({a for a in argvs if argvs.count(a) > 1}) == []


def write() -> None:
    lines = CORPUS.read_text().splitlines()
    CORPUS.write_text("".join(
        f"{line if (argv := corpus_argv(line)) is None else corpus_line(argv)}\n" for line in lines))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write()
