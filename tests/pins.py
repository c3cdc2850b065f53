"""The pinned console-script calls of pins.json and the one check of a
call's result against its pin.

Each entry gives an argv and the exit code of its call, and may pin
stdout by sha256 (`sha256`), as literal text (`stdout`), or by lines that
must appear whole (`lines`); `stderr_starts`, `stderr_has` and
`stderr_lacks` name text that stderr must begin with, contain, and not
contain; `timeout` bounds a call of the installed script, in seconds;
`why` says what the entry guards.  A `--stats` twin of a call pins the
same `sha256` as the plain call, so the report on stderr cannot move
stdout.  tests/test_pins.py checks every entry in process.  Run with no
argument,

    python tests/pins.py

calls the installed `quotcells` console script once per entry, prints
each failing entry, and exits 1 if any entry fails or no `quotcells` is
on PATH.  There every call is also held to MAX_RSS_MB of peak resident
memory, read as the runner's `RUSAGE_CHILDREN` `ru_maxrss` (KiB on
Linux): the peak of the largest child so far, so the call that raises it
above the bound is the one that used the memory (a later call shows only
if it goes higher still; the run has failed by then).  In process the
memory would be the test process's own, so tier-1 does not check it.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys

MAX_RSS_MB = 64

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")) as f:
    PINS = json.load(f)


def pin_id(pin):
    return " ".join(a if len(a) <= 40 else a[:20] + "..." for a in pin["argv"])


def failures(pin, code, out, err):
    """What the call with exit code `code`, stdout `out` and stderr `err`
    breaks of `pin`, one message per broken check; empty when it holds."""
    found = []
    if code != pin["exit"]:
        found.append("exit %r, expected %r; stderr: %s" % (code, pin["exit"], err))
    if "sha256" in pin and hashlib.sha256(out.encode()).hexdigest() != pin["sha256"]:
        found.append("stdout sha256 %s, expected %s"
                     % (hashlib.sha256(out.encode()).hexdigest(), pin["sha256"]))
    if "stdout" in pin and out != pin["stdout"]:
        found.append("stdout %r, expected %r" % (out, pin["stdout"]))
    lines = out.splitlines()
    found += ["no stdout line %r" % line for line in pin.get("lines", ())
              if line not in lines]
    if not err.startswith(pin.get("stderr_starts", "")):
        found.append("stderr does not start with %r" % pin["stderr_starts"])
    found += ["stderr lacks %r" % text for text in pin.get("stderr_has", ())
              if text not in err]
    found += ["stderr holds %r" % text for text in pin.get("stderr_lacks", ())
              if text in err]
    return found


def peak_mb():
    """The peak RSS of the largest child reaped so far, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def main():
    failed = 0
    for pin in PINS:
        before = peak_mb()
        try:
            done = subprocess.run(["quotcells", *pin["argv"]], capture_output=True,
                                  timeout=pin.get("timeout"))
        except FileNotFoundError:
            print("no quotcells console script on PATH; install it with "
                  "`python -m pip install -e .`")
            return 1
        except subprocess.TimeoutExpired:
            found = ["timed out after %d s" % pin["timeout"]]
        else:
            found = failures(pin, done.returncode, done.stdout.decode(),
                             done.stderr.decode())
        after = peak_mb()
        if after > max(before, MAX_RSS_MB):
            found.append("peak RSS %.1f MB, above %d MB" % (after, MAX_RSS_MB))
        if found:
            failed += 1
            print("FAIL %s" % pin_id(pin))
            for message in found:
                print("  " + message)
    print("%d pinned calls, %d failed" % (len(PINS), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
