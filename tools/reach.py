"""Report the lines of src/quotcells that the tier-1 tests never run.

    python tools/reach.py

Runs the tests in process under a line tracer (`sys.settrace` and
`threading.settrace`, set before quotcells is imported), with a fixed
Hypothesis seed and a fresh Hypothesis database, so two runs give the
same report.  pytest's own output goes to stderr; stdout gets each unrun
function-body line as `file:line: text`, then a count.

A function-body line is a line of a code object nested in a module
(functions, methods, class bodies, comprehensions), without the code
object's first line.  Docstrings need no filter: a function's docstring
compiles to no instruction, and a class's runs when the class is built.

There is no allow-list: a line that no test runs gets a test through a
public caller, or goes.  Exit status 1 when pytest fails or any
function-body line is unrun; 0 otherwise.  The tool writes nothing into
the repository.
"""

import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quotcells"


def body_lines(path):
    """The function-body lines of one module."""
    lines = set()
    stack = [c for c in compile(path.read_text(), str(path), "exec").co_consts
             if hasattr(c, "co_lines")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        lines.update(line for _start, _end, line in code.co_lines()
                     if line is not None and line != code.co_firstlineno)
    return lines


def traced_pytest():
    """Run the tests under the tracer: (pytest exit code, {(file, line)})."""
    prefix = str(SRC) + os.sep
    hits = set()
    wanted = {}

    def on_line(frame, event, _arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, _event, _arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = os.path.realpath(name).startswith(prefix)
        return on_line if keep else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    import pytest

    with tempfile.TemporaryDirectory() as home:
        # also for the tests' own subprocesses
        os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home
        os.chdir(ROOT)
        threading.settrace(on_call)
        sys.settrace(on_call)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                # pytest-benchmark, where installed, would make .benchmarks/
                code = pytest.main(["-q", "-p", "no:cacheprovider",
                                    "-p", "no:benchmark",
                                    "--hypothesis-seed=0", "tests"])
        finally:
            sys.settrace(None)
            threading.settrace(None)
    return int(code), {(os.path.realpath(f), line) for f, line in hits}


def main():
    code, hits = traced_pytest()
    unrun = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        real = os.path.realpath(path)
        for line in sorted(body_lines(path)):
            if (real, line) not in hits:
                print("%s:%d: %s" % (path.name, line, text[line - 1].strip()))
                unrun += 1
    print("unrun lines: %d, pytest exit: %d" % (unrun, code))
    return 1 if code or unrun else 0


if __name__ == "__main__":
    sys.exit(main())
