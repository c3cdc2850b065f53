"""The pinned console-script calls of pins.json and the one check of a
call's result against its pin.

Each entry gives an argv and the exit code of its call, and may pin
stdout by sha256 (`sha256`), as literal text (`stdout`), or by lines that
must appear whole (`lines`); `stderr_starts`, `stderr_has` and
`stderr_lacks` name text that stderr must begin with, contain, and not
contain; `timeout` bounds a call of the installed script, in seconds;
`why` says what the entry guards.  tests/test_pins.py checks every entry
in process.  Run with no argument,

    python tests/pins.py

calls the installed `quotcells` console script once per entry, prints
each failing entry, and exits 1 if any entry fails.
"""

import hashlib
import json
import os
import subprocess
import sys

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


def main():
    failed = 0
    for pin in PINS:
        try:
            done = subprocess.run(["quotcells", *pin["argv"]], capture_output=True,
                                  timeout=pin.get("timeout"))
        except subprocess.TimeoutExpired:
            found = ["timed out after %d s" % pin["timeout"]]
        else:
            found = failures(pin, done.returncode, done.stdout.decode(),
                             done.stderr.decode())
        if found:
            failed += 1
            print("FAIL %s" % pin_id(pin))
            for message in found:
                print("  " + message)
    print("%d pinned calls, %d failed" % (len(PINS), failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
