"""Report the lines of src/quotcells that the tier-1 tests never run.

    python tools/reach.py

Runs the tests in process under a line tracer (`sys.settrace` and
`threading.settrace`, set before quotcells is imported), with a fixed
Hypothesis seed and a fresh Hypothesis database, so two runs give the
same report.  pytest's own output goes to stderr; stdout gets each unrun
function-body line as `file:line: text`, then the differences from
tools/unreached.txt.

A function-body line is a line of a code object nested in a module
(functions, methods, class bodies, comprehensions), without the code
object's first line.  Docstrings need no filter: a function's docstring
compiles to no instruction, and a class's runs when the class is built.

tools/unreached.txt lists the lines allowed to stay unrun, each keyed by
file, function qualname and stripped source text (not by line number, so
edits elsewhere leave the list alone), as `file:qualname: text`, with its
reason on the indented lines below.  Exit status 1 when pytest fails,
when an unrun line is not listed, or when a listed line runs or no longer
exists; 0 otherwise.  The tool writes nothing into the repository.
"""

import collections
import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quotcells"
LISTED = Path(__file__).resolve().parent / "unreached.txt"


def body_lines(path):
    """{line: qualname} of the function-body lines of one module; a line
    shared with a nested code object goes to the outer one."""
    lines = {}
    stack = [c for c in compile(path.read_text(), str(path), "exec").co_consts
             if hasattr(c, "co_lines")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        for _start, _end, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                lines.setdefault(line, code.co_qualname)
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


def read_listed():
    """Counter of the (file, qualname, text) keys of tools/unreached.txt;
    an entry without a reason is an error."""
    listed, key = collections.Counter(), None
    for number, raw in enumerate(LISTED.read_text().splitlines(), 1):
        if not raw.strip() or raw.startswith("#"):
            continue
        if raw[0].isspace():
            key = None
            continue
        if key is not None:
            sys.exit("%s:%d: the entry above has no reason" % (LISTED.name, number - 1))
        name, qualname, text = raw.split(":", 2)
        key = (name, qualname, text.strip())
        listed[key] += 1
    if key is not None:
        sys.exit("%s: the last entry has no reason" % LISTED.name)
    return listed


def main():
    if sys.version_info < (3, 11):
        sys.exit("tools/reach.py needs Python 3.11 or later (co_qualname)")
    code, hits = traced_pytest()
    unrun = collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        real = os.path.realpath(path)
        for line, qualname in sorted(body_lines(path).items()):
            if (real, line) not in hits:
                source = text[line - 1].strip()
                print("%s:%d: %s" % (path.name, line, source))
                unrun[path.name, qualname, source] += 1
    listed = read_listed()
    new = unrun - listed
    stale = listed - unrun
    for name, qualname, source in sorted(new.elements()):
        print("not listed in unreached.txt: %s:%s: %s" % (name, qualname, source))
    for name, qualname, source in sorted(stale.elements()):
        print("listed but run or gone: %s:%s: %s" % (name, qualname, source))
    print("unrun lines: %d, listed: %d, pytest exit: %d"
          % (sum(unrun.values()), sum(listed.values()), code))
    return 1 if code or new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
