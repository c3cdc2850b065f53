"""The pinned console-script calls, run in process: each entry of
pins.json gives an argv, its exit code and what its output must hold.

An entry may pin stdout by sha256 (`sha256`), as literal text
(`stdout`), or by lines that must appear whole (`lines`); `stderr_has`
and `stderr_lacks` name text that stderr must and must not contain.
Adding a pin is one row of the table."""

import hashlib
import json
import os

import pytest

from quotcells.cli import main

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")) as f:
    PINS = json.load(f)


def _id(pin):
    return " ".join(a if len(a) <= 40 else a[:20] + "..." for a in pin["argv"])


@pytest.mark.parametrize("pin", PINS, ids=[_id(p) for p in PINS])
def test_pinned_call(capsys, pin):
    try:
        code = main(pin["argv"])
    except SystemExit as exc:  # argparse's own usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    out, err = captured.out, captured.err
    assert code == pin["exit"], err
    if "sha256" in pin:
        assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"]
    if "stdout" in pin:
        assert out == pin["stdout"]
    lines = out.splitlines()
    for line in pin.get("lines", ()):
        assert line in lines
    for text in pin.get("stderr_has", ()):
        assert text in err
    for text in pin.get("stderr_lacks", ()):
        assert text not in err
