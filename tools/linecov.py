"""Line coverage of src/spinalg under pytest, with the standard library only.

Run from the repository root, as a pytest plugin:

    python3 -m pytest -q -p tools.linecov

A sys.settrace collector records every line of src/spinalg that runs in the
pytest process, and the session ends by printing, file by file, the
executable lines that never ran.  Executable lines are the line numbers of
each module's compiled code objects.  Lines run only in a subprocess (the
CLI tests that start `python -m spinalg`) are not seen.

The collector is installed when pytest is configured, so the imports made
while collecting are traced, and installed again at each test's setup and call,
because a library that sets its own tracer (Hypothesis, when it explains a
failure) leaves none behind.  Tracing makes the tests several times slower,
so this is a separate run, not part of the plain `pytest` command.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinalg"
_PREFIX = str(PACKAGE) + "/"

_hits: defaultdict[str, set[int]] = defaultdict(set)


def _trace_lines(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    _hits[filename].add(frame.f_lineno)
    return _trace_lines


def executable_lines(path: Path) -> set[int]:
    """Line numbers of every code object compiled from the file at path."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _spans(lines: list[int]) -> str:
    """1, 2, 3, 7 -> '1-3, 7'."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def never_run() -> dict[str, list[int]]:
    """Repository-relative path -> the sorted executable lines never traced."""
    root = PACKAGE.parents[1]
    missed = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sorted(executable_lines(path) - _hits.get(str(path), set()))
        if lines:
            missed[str(path.relative_to(root))] = lines
    return missed


def pytest_configure(config):
    sys.settrace(_trace_calls)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    sys.settrace(_trace_calls)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    sys.settrace(_trace_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    missed = never_run()
    terminalreporter.section("lines of src/spinalg never run")
    for path, lines in missed.items():
        terminalreporter.write_line(f"{path}: {len(lines)}: {_spans(lines)}")
    terminalreporter.write_line(f"total: {sum(map(len, missed.values()))} executable lines never run")
