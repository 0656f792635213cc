"""The statements of `src/semistable` that no test runs.

    python tests/linetrace.py [PYTEST ARGS]

Runs pytest in this process under `sys.settrace` (the `coverage` package is
not a dependency) and prints, for each module, the lines of the statements
that never ran, then their count per module and in all.  With no arguments
it runs the whole suite, quietly; the trace makes it a few times slower.
The file is not collected as a test.

A statement is a node of a module's syntax tree, a docstring excepted.  Its
own lines are its header for a compound statement (a `def`, `if`, `for`,
...) and all its lines otherwise.  It is executable when bytecode stands on
one of its own lines, and it ran when a line event reached one of them.
Code run in a child process (a test that starts the command line tool in a
subprocess) is not seen.
"""
import ast
import os
import sys
import threading
import types

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src", "semistable")


def _bytecode_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _bytecode_lines(const)
    return lines


def _statements(source: str, path: str) -> list[tuple[int, set[int]]]:
    """(first line, own lines) of every executable statement of a module."""
    executable = _bytecode_lines(compile(source, path, "exec"))
    out = []
    for node in ast.walk(ast.parse(source, path)):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        body = getattr(node, "body", None)
        if body and isinstance(body[0], ast.stmt):
            own = set(range(node.lineno, max(node.lineno + 1, body[0].lineno)))
        else:
            own = set(range(node.lineno, node.end_lineno + 1))
        if own & executable:
            out.append((node.lineno, own))
    return sorted(out, key=lambda s: s[0])


def main(args: list[str]) -> int:
    modules = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    ran: dict[str, set[int]] = {os.path.join(SRC, f): set() for f in modules}
    owner: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            owner[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = ran.get(os.path.abspath(name))
        return None if owner[name] is None else local

    sys.path[:0] = [os.path.dirname(SRC), TESTS]
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", TESTS])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for f in modules:
        path = os.path.join(SRC, f)
        with open(path, encoding="utf-8") as fh:
            statements = _statements(fh.read(), path)
        missed = [first for first, own in statements if not own & ran[path]]
        total += len(missed)
        print(f"{f}: {len(missed)} of {len(statements)} statements never ran"
              + (f": lines {', '.join(map(str, missed))}" if missed else ""))
    print(f"total: {total} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
