"""List the statements in src/drmoo's functions that the tier-1 tests never run.

    PYTHONPATH=src python tests/uncovered.py [pytest arguments]

Runs pytest (by default on this directory) in this process under a
sys.settrace line tracer that records only frames of src/drmoo, then prints
`module.py:line  function: source` for each statement inside a function that
no test executed, and a count. Only the standard library is used, and pytest
does not collect this file.

The tracer sees this process and its threads only. A statement that runs only
in another process (a `drmoo run` pool's forked workers, or the subprocess of
a signal test) or only when a check fails is listed with that reason in
brackets: the tests reach it, or mean to, where the tracer cannot look.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "drmoo"
CO_OPTIMIZED = 0x1  # set on function code objects, not on module or class bodies

# (module, function, header of the enclosing block or None for the whole
# function) -> why the tracer cannot see it run
ELSEWHERE = {
    ("cli", "_init_worker", None): "forked worker",
    ("cli", "_run_job", None): "forked worker",
    ("cli", "_raise_terminated", None): "signal test subprocess",
    ("cli", "main", "except _Terminated:"): "signal test subprocess",
    ("cli", "main", "except KeyboardInterrupt:"): "signal test subprocess",
    ("cli", "run_experiment", "except KeyboardInterrupt:"): "signal test subprocess",
    ("cli", "cmd_check", "if res.passed:"): "only on a failed self-test",
}


def _header(lines, lineno):
    return lines[lineno - 1].split("#")[0].strip()


def statements(module, source):
    """(first line, last line of its header, function, reason or None) of
    every statement inside a function of one module's source."""
    lines = source.splitlines()
    found = []

    def walk(stmts, func, reason):
        for node in stmts:
            body = getattr(node, "body", None)
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            if func is not None:
                found.append((first, max(first, last), func, reason))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                docstring = ast.get_docstring(node, clean=False) is not None
                walk(node.body[docstring:], node.name, ELSEWHERE.get((module, node.name, None)))
                continue
            if isinstance(node, ast.ClassDef):
                walk(node.body, func, reason)
                continue
            blocks = [(node, getattr(node, "body", [])), (None, getattr(node, "orelse", [])),
                      (None, getattr(node, "finalbody", []))]
            blocks += [(h, h.body) for h in getattr(node, "handlers", [])]
            for head, block in blocks:
                key = (module, func, _header(lines, head.lineno) if head else None)
                walk(block, func, ELSEWHERE.get(key, reason) if head else reason)

    walk(ast.parse(source).body, None, None)
    return found


def executable_lines(code):
    """Lines that the bytecode of every function under code maps to."""
    out = set()
    if code.co_flags & CO_OPTIMIZED:
        out.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= executable_lines(const)
    return out


def run_traced(args):
    """pytest.main(args) under the line tracer; returns (exit status,
    {resolved path: set of executed lines})."""
    hits, files = {}, {}
    src = str(SRC)

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        lines = files.get(name, False)
        if lines is False:
            path = os.path.realpath(name)
            lines = files[name] = hits.setdefault(path, set()) if path.startswith(src) else None
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main(argv):
    status, hits = run_traced(argv or [str(HERE), "-q", "-p", "no:cacheprovider"])
    missed = elsewhere = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        runnable = executable_lines(compile(source, str(path), "exec"))
        ran = hits.get(os.path.realpath(path), set())
        for first, last, func, reason in statements(path.stem, source):
            span = set(range(first, last + 1))
            if span & runnable and not span & ran:
                missed += 1
                elsewhere += reason is not None
                note = f"  [{reason}]" if reason else ""
                print(f"{path.name}:{first}  {func}: {lines[first - 1].strip()}{note}")
    print(f"{missed} statements in functions never ran here, "
          f"{elsewhere} of them only in another process or on a failed check")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
