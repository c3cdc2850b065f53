"""The pinned console-script calls, run in process: each entry of
pins.json gives an argv, its exit code and what its output must hold,
and pins.failures is the one check of a call against its entry, which
`python tests/pins.py` also runs on the installed script.  Adding a pin
is one row of the table."""

import os
import re
import shlex
import subprocess
import sys

import pytest

from quotcells.cli import main

import pins
from pins import PINS, failures, pin_id

HERE = os.path.dirname(os.path.abspath(__file__))


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


def test_runner_fails_the_call_that_raises_the_peak_above_the_bound(tmp_path):
    """`python tests/pins.py` with a `quotcells` on PATH that holds ARGV
    MB: the call that raises the children's peak RSS above MAX_RSS_MB
    fails with that peak, and the calls before and after it pass."""
    script = tmp_path / "quotcells"
    script.write_text('#!/bin/sh\nexec %s -c %s "$@"\n' % (
        shlex.quote(sys.executable),
        shlex.quote('import sys; held = b"x" * (int(sys.argv[1]) << 20)')))
    script.chmod(0o755)
    rows = [{"argv": [mb], "exit": 0} for mb in ("1", "80", "1")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pins; pins.PINS[:] = %r; sys.exit(pins.main())" % rows],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=HERE,
                 PATH=str(tmp_path) + os.pathsep + os.environ["PATH"]))
    assert proc.returncode == 1, proc.stderr
    fail, message, total = proc.stdout.splitlines()
    assert fail == "FAIL 80"
    peak = re.fullmatch(r"  peak RSS (\d+\.\d) MB, above %d MB" % pins.MAX_RSS_MB, message)
    assert peak and float(peak.group(1)) > 80
    assert total == "3 pinned calls, 1 failed"


def test_runner_names_a_missing_script(tmp_path):
    """With no `quotcells` on PATH: one line that names it, exit 1, no
    traceback."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "pins.py")],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PATH=str(tmp_path)))
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 1 and "quotcells" in proc.stdout
