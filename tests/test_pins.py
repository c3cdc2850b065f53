"""The pinned console-script calls, run in process: each entry of
pins.json gives an argv, its exit code and what its output must hold,
and pins.failures is the one check of a call against its entry, which
`python tests/pins.py` also runs on the installed script.  Adding a pin
is one row of the table."""

import pytest

from quotcells.cli import main

import pins
from pins import PINS, failures, pin_id


@pytest.mark.parametrize("pin", PINS, ids=[pin_id(p) for p in PINS])
def test_pinned_call(capsys, pin):
    try:
        code = main(pin["argv"])
    except SystemExit as exc:  # argparse's own usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    assert failures(pin, code, captured.out, captured.err) == []


def test_each_broken_check_is_reported():
    """One message per check that the call breaks, for every kind."""
    pin = {"argv": ["x"], "exit": 0, "sha256": "0" * 64, "stdout": "a\n",
           "lines": ["a"], "stderr_starts": "usage", "stderr_has": ["sage"],
           "stderr_lacks": ["trace"]}
    assert len(failures(pin, 2, "b\n", "a traceback")) == 7
    assert [m.split()[:2] for m in failures(pin, 0, "a\n", "usage: x")] \
        == [["stdout", "sha256"]]
    assert failures({"argv": ["x"], "exit": 2}, 2, "", "") == []


def test_runner_calls_the_script_once_per_pin(monkeypatch, capsys):
    """`python tests/pins.py` runs `quotcells ARGV` with the pin's timeout
    and reports each failing pin; here every call exits 0 with no
    output, and the one with the shortest timeout runs out of time."""
    calls, shortest = [], min(p["timeout"] for p in PINS if "timeout" in p)

    def run(argv, capture_output, timeout):
        calls.append((argv, timeout))
        if timeout == shortest:
            raise pins.subprocess.TimeoutExpired(argv, timeout)
        return pins.subprocess.CompletedProcess(argv, 0, b"", b"")

    monkeypatch.setattr(pins.subprocess, "run", run)
    assert pins.main() == 1
    assert calls == [(["quotcells", *p["argv"]], p.get("timeout")) for p in PINS]
    report = capsys.readouterr().out
    assert "timed out after %d s" % shortest in report
    failing = [p for p in PINS
               if p.get("timeout") == shortest or failures(p, 0, "", "")]
    assert report.count("FAIL ") == len(failing)
    assert report.endswith("%d pinned calls, %d failed\n" % (len(PINS), len(failing)))
