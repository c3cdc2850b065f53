"""Command-line interface: outputs, exit codes, JSON round trips,
deterministic reports."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotcells import cli, suites
from quotcells.cli import main
from quotcells.grammar import parse
from quotcells.ring import RingContext


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_xi_canonical_output(capsys):
    code, out, _ = run(capsys, "xi", "--v", "0,2", "--genus", "0")
    assert code == 0
    assert out.strip() == ("1 * [one|one] w^(0,2) + 1 * [pt|one] w^(1,0) "
                           "+ 1 * [one|pt] w^(1,0) + 1 * [pt|one] w^(0,1) "
                           "+ 1 * [one|pt] w^(0,1)")


def test_xi_equivariant(capsys):
    code, out, _ = run(capsys, "xi", "--v", "2", "--rank", "3",
                       "--equivariant", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ctx = RingContext(genus=0, factors=1, rank=3)
    element = parse(ctx, payload["element"])
    w, t = ctx.omega(1), ctx.t_var
    assert element == (w - t(0)) * (w - t(1))


def test_xi_rank_bound_usage_error(capsys):
    code, out, err = run(capsys, "xi", "--v", "0,2", "--rank", "1")
    assert code == 2
    assert "out of range" in err


def test_psi_both_methods(capsys):
    code, out, _ = run(capsys, "psi", "--u", "2,1,0", "--genus", "1",
                       "--method", "both")
    assert code == 0
    assert "equal: True" in out


def test_psi_both_methods_json(capsys):
    code, out, _ = run(capsys, "psi", "--u", "0,0", "--a", "[pt|one]",
                       "--method", "both", "--format", "json")
    assert code == 0
    assert out == ('{"averaged_twist": true, "combinatorial": '
                   '"1/2 * [pt|one] + 1/2 * [one|pt]", "equal": true, '
                   '"recursion": "1/2 * [pt|one] + 1/2 * [one|pt]"}\n')


def test_psi_json_round_trip(capsys):
    code, out, _ = run(capsys, "psi", "--u", "1,0", "--genus", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ctx = RingContext(genus=2, factors=2)
    from quotcells.pullback import quot_pullback
    assert parse(ctx, payload["element"]) == quot_pullback(ctx, (1, 0))


def count_calls(monkeypatch, obj, name):
    """Wrap the callable `name` of `obj` in a call counter, returned as a
    list of the argument tuples it was called with."""
    original = getattr(obj, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, counted)
    return calls


def test_psi_averages_the_twist_once(capsys, monkeypatch):
    # pullback._orbit_average averages a twist that is not invariant
    calls = count_calls(monkeypatch, cli.pullback, "_orbit_average")
    code, out, _ = run(capsys, "psi", "--u", "1,1", "--a", "1 * [a1|one]",
                       "--genus", "1", "--method", "both")
    assert code == 0
    assert "equal: True" in out
    assert "note: twist class averaged over the stabilizer" in out
    assert len(calls) == 1
    calls.clear()
    code, out, _ = run(capsys, "psi", "--u", "1,1", "--genus", "1",
                       "--method", "both")
    assert code == 0
    assert "note:" not in out
    assert calls == []


def test_psi_of_a_weight_longer_than_the_recursion_limit(capsys):
    """Both routes at sys.getrecursionlimit() + 10 factors: the row-tuple
    search keeps its own stack."""
    zeros = ",".join(["0"] * (sys.getrecursionlimit() + 10))
    code, out, err = run(capsys, "psi", "--u", zeros, "--genus", "0",
                         "--method", "both")
    assert code == 0, err
    assert "equal: True" in out


def test_psi_rejects_non_decreasing(capsys):
    code, _, err = run(capsys, "psi", "--u", "0,1")
    assert code == 2


def test_restrict(capsys):
    code, out, _ = run(capsys, "restrict", "--v", "0,1", "--w", "1,2",
                       "--rank", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["t_degree"] == 1
    ctx = RingContext(genus=0, factors=2, rank=3)
    assert parse(ctx, payload["top_term"]) == ctx.t_var(2) - ctx.t_var(0)


def test_parse_canonicalizes(capsys):
    code, out, _ = run(capsys, "parse", "--text", "[pt|one] + [one|pt]",
                       "--factors", "2")
    assert code == 0
    assert out.strip() == "1 * [pt|one] + 1 * [one|pt]"


def test_parse_syntax_error(capsys):
    code, _, err = run(capsys, "parse", "--text", "[a9|one]", "--factors", "2",
                       "--genus", "2")
    assert code == 2
    assert "position" in err


def test_poincare_quot(capsys):
    code, out, _ = run(capsys, "poincare", "quot", "--r", "2", "--length", "3",
                       "--genus", "1", "--max-t", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    from quotcells.series import quot_poincare
    assert payload["coefficients"] == quot_poincare(1, 2, 3)


def test_poincare_text(capsys):
    code, out, _ = run(capsys, "poincare", "filt", "--r", "2", "--n", "1")
    assert code == 0
    assert out.strip() == "P(t) = 1 + 2*t^2 + t^4"


def test_verify_small_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pullback", "--n", "2",
                       "--genus", "1", "--max-co", "2")
    assert code == 0
    assert "result: ok" in out


def test_verify_reports_are_deterministic(capsys):
    args = ("verify", "--suite", "recursion", "--n", "2", "--genus", "0,1",
            "--max-co", "2", "--random-cases", "4", "--seed", "11",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["suite"] == "recursion"
    assert set(report) == {"suite", "cases", "summary"}
    assert report["summary"]["failed"] == 0
    for case in report["cases"]:
        assert set(case) == {"inputs", "expected", "got", "pass"}


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "localization", "--rank", "0"),
    ("verify", "--suite", "recursion", "--n", "1", "--random-cases", "0"),
    ("verify", "--suite", "ranks", "--n", "0"),
    ("verify", "--suite", "recursion", "--n", "0"),
])
def test_verify_zero_coverage_fails(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "got:      no cases checked" in out
    assert "result: FAILED" in out


def test_verify_ranks_checks_the_asked_n(capsys):
    # n = 4 is checked, not skipped: A8 and A5 at four factors
    code, out, _ = run(capsys, "verify", "--suite", "ranks", "--n", "4",
                       "--format", "json")
    assert code == 0
    checks = {(case["inputs"]["check"], case["inputs"]["factors"])
              for case in json.loads(out)["cases"]}
    assert {("pullback-invariance", 4), ("span-equals-invariants", 4)} <= checks


@pytest.mark.parametrize("suite", ["localization", "ranks"])
def test_verify_suite_left_with_no_cases_fails(capsys, suite):
    # both suites check genus <= 1 only and fall back to no other genus
    code, out, _ = run(capsys, "verify", "--suite", suite, "--genus", "2")
    assert code == 1
    assert "result: FAILED" in out
    assert "genus=0" not in out


@pytest.mark.parametrize("suite", ["localization", "ranks"])
def test_verify_json_marks_a_suite_left_with_no_cases_failed(capsys, suite):
    # the JSON report alone says the suite failed and why
    code, out, _ = run(capsys, "verify", "--suite", suite, "--genus", "2",
                       "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["summary"] == {"total": 1, "passed": 0, "failed": 1}
    [case] = report["cases"]
    assert case["pass"] is False and case["got"] == "no cases checked"
    # and so does a report of several suites, next to a suite that passed
    result = suites.run_suites([suite, "series"], {"genus_values": (2,)})
    assert result["ok"] is False
    assert [r["summary"]["failed"] for r in result["reports"]] == [1, 0]


@pytest.mark.parametrize("argv", [
    ("poincare", "quot", "--length", "-1"),
    ("poincare", "limits"),
    ("poincare", "limits", "--max-t", "-3"),
    ("poincare", "filt", "--n", "-1"),
    ("poincare", "filt", "--genus", "-1", "--n", "2"),
    ("poincare", "limits", "--genus", "-1", "--max-t", "4"),
    ("verify", "--suite", "localization", "--rank", "inf"),
    ("verify", "--suite", "pullback", "--max-co", "-1"),
    ("verify", "--suite", "ranks", "--max-degree", "-1"),
    ("verify", "--suite", "series", "--max-t", "-1"),
    ("verify", "--suite", "recursion", "--random-cases", "-1"),
    ("parse", "--text", "1/0 * [one]", "--factors", "1"),
    ("psi", "--u", "1", "--a", "1/0 * [one]"),
    ("restrict", "--v", "0,1", "--w", "1", "--rank", "2"),
    ("psi", "--u", "1,-1"),
    ("psi", "--u", "1,0", "--rank", "1", "--method", "combinatorial"),
    # a rank-0 context carries no line-bundle degrees
    ("xi", "--v", "1", "--degrees", "1"),
    ("psi", "--u", "1", "--degrees", "1"),
    # a negative factor count or genus, refused before any suite runs
    *[("verify", "--suite", suite, flag, "-1")
      for suite in ("all", "recursion", "pullback", "localization", "series",
                    "ranks")
      for flag in ("--n", "--genus")],
])
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--n", "--genus"])
def test_verify_names_a_negative_entry_before_any_suite_runs(capsys, monkeypatch,
                                                             flag):
    ran = []
    monkeypatch.setattr(suites, "run_suites", lambda *a, **k: ran.append(a))
    code, out, err = run(capsys, "verify", "--suite", "series", flag, "2,-1")
    assert (code, out, err) == (2, "", "error: %s entries must be >= 0\n" % flag)
    assert ran == []


@pytest.mark.parametrize("argv", [("restrict", "--v", "0,1", "--w", "1,2"),
                                  ("xi", "--v", "2", "--equivariant")])
def test_rank_inf_is_unbounded(capsys, argv):
    code, out, _ = run(capsys, *argv, "--rank", "inf")
    assert code == 0
    assert out == run(capsys, *argv, "--rank", "3")[1]


def test_restrict_rank_inf_element_and_missing_rank(capsys):
    argv = ("restrict", "--v", "0,1", "--w", "1,2")
    assert run(capsys, *argv, "--rank", "inf")[1].split("\n")[0] == (
        "-1 * [one|one] t^(1) + 1 * [one|one] t^(0,0,1) + 1 * [pt|one] + 1 * [one|pt]")
    code, _, err = run(capsys, *argv)
    assert code == 2 and "--rank is required" in err


@pytest.mark.parametrize("args, message", [
    (("--v", "1,0", "--w", "1", "--rank", "2"), "weight vector must have 2 entries"),
    (("--v", "1,0", "--w", "1,5", "--rank", "2"), "entry 5 out of range for rank 2"),
    (("--v", "5,0", "--w", "1", "--rank", "2"), "entry 5 out of range for rank 2"),
    (("--v", "1,0", "--w", "1,-1", "--rank", "inf"), "weight entries must be non-negative"),
])
def test_restrict_rejects_a_bad_w_before_building_the_class(capsys, monkeypatch,
                                                            args, message):
    calls = []
    monkeypatch.setattr(cli.cells, "cell_class_equivariant",
                        lambda *a: calls.append(a))
    code, out, err = run(capsys, "restrict", *args)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert calls == []


def test_restrict_at_rank_0_is_refused_by_the_class(capsys):
    code, out, err = run(capsys, "restrict", "--v", "1,0", "--w", "1", "--rank", "0")
    assert (code, out) == (2, "")
    assert err == "error: equivariant classes need a context of rank >= 1\n"


# sha256 of the default text output of three suites, as first recorded;
# a change that moves any byte of a report fails here.
GOLDEN_VERIFY = {
    "series": "a794325c7d41744b149efa220fe19eeed3d07b5287cc7043b3c980a2f1c2b2a8",
    "localization": "b48eadaa791d60ef6a29904bdd62cc459bcf61d3c0719dd91f7d7f8e3b31a79d",
    "ranks": "d302e0d580dd9321dcc99d92302899bcb239c5e81ead81b1c7e53a32f35e8a81",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN_VERIFY))
def test_verify_golden_output(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY[suite]


def test_deep_weight_vector_runs_in_process(capsys):
    # co(v) = 1500 is deeper than the default recursion limit
    code, out, _ = run(capsys, "xi", "--v", "1500")
    assert code == 0
    assert out.strip() == "1 * [one] w^(1500)"


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    from quotcells import cli

    def boom(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_xi", boom)
    code, out, err = run(capsys, "xi", "--v", "1")
    assert code == cli.INTERNAL_ERROR == 3
    assert out == ""
    assert err == "error: internal error (RuntimeError) boom second line\n"


def test_closed_stdout_ends_the_call_quietly():
    """A stdout whose reader is gone before the first write, as when the
    CLI is piped into `head`, and block-buffered, as a pipe is unless
    PYTHONUNBUFFERED is set: exit 0, and nothing at all on stderr.  xi's
    short output is still in the buffer when main's flush fails, so the
    flush at exit would fail again, with exit 120 and an "Exception
    ignored" line, if stdout were not sent to os.devnull."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    for argv in (["psi", "--u", "2,1,0", "--genus", "1", "--method", "both"],
                 ["xi", "--v", "0,2"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "quotcells.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 0, argv
        assert proc.stderr == b"", argv


def test_closed_stdout_leaves_the_flush_at_exit_nothing_to_fail(capsys, monkeypatch):
    """The same closed, block-buffered pipe in process: exit 0, nothing on
    stderr, and the flush that the interpreter makes at exit passes."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = open(write_end, "w", closefd=False)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["xi", "--v", "0,2"]) == 0
        stdout.flush()  # as at exit
    finally:
        with contextlib.suppress(BrokenPipeError):
            stdout.close()
        os.close(write_end)
    assert capsys.readouterr().err == ""


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _modules_loaded_by_importing_the_cli():
    """sys.modules of a fresh `python -S` after `import quotcells.cli`."""
    code = ("import sys; sys.path.insert(0, %r); import quotcells.cli; "
            "print(' '.join(sorted(sys.modules)))" % SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "quotcells.cli" in loaded
    return loaded


def test_import_leaves_out_the_introspection_modules():
    """A fresh interpreter that imports the CLI loads none of the
    dataclasses -> inspect chain."""
    loaded = _modules_loaded_by_importing_the_cli()
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})


def test_import_leaves_out_the_suite_catalogue():
    """Only `verify` loads `quotcells.suites`; its import inside the
    handler also works when the CLI runs as `__main__`."""
    assert "quotcells.suites" not in _modules_loaded_by_importing_the_cli()
    proc = subprocess.run(
        [sys.executable, "-m", "quotcells.cli", "verify", "--suite", "series"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("result: ok\n")


def test_verify_help_lists_every_suite_once():
    """The `--suite` choices of `verify --help`, in `all` order, are
    exactly the `suite_*` functions of the catalogue."""
    code, out, _ = call(["verify", "--help"])
    assert code == 0
    choices = "{all,recursion,pullback,localization,series,ranks}"
    assert "--suite %s" % choices in " ".join(out.split())
    names = choices.strip("{}").split(",")[1:]
    assert all(callable(getattr(suites, "suite_" + name)) for name in names)
    assert sorted(names) == sorted(
        attr[len("suite_"):] for attr in vars(suites) if attr.startswith("suite_"))
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suites.run_suites(["nope"])


# -- random argument vectors ----------------------------------------------------

def _join(values):
    return ",".join(map(str, values))


# mostly well-formed vectors, some with a negative entry
_vector = st.one_of(st.lists(st.integers(0, 3), max_size=3),
                    st.lists(st.integers(-1, 3), max_size=3)).map(_join)
_genus = st.integers(-1, 2).map(str)
_small = st.integers(-1, 3).map(str)
_max_t = st.integers(-1, 6).map(str)
_format = st.sampled_from(["text", "json"])
_rank = st.sampled_from(["0", "1", "2", "3", "inf", "x"])
_common = {"--genus": _genus, "--format": _format, "--degrees": _vector,
           "--rank": _rank}
_twist = st.sampled_from(["[pt|one]", "[a1|one]", "1/2 * [one|one]",
                          "1/0 * [one|one]", "[one|one|pt]", "[a1", ""])

# flag -> values, or None for a switch; each flag is drawn in or out, the
# ones a command requires in 9 draws of 10
_REQUIRED = {"xi": ("--v",), "psi": ("--u",), "restrict": ("--v", "--w"),
             "parse": ("--text", "--factors")}
_OPTIONS = {
    "xi": {**_common, "--v": _vector, "--equivariant": None},
    "psi": {**_common, "--u": _vector, "--a": _twist,
            "--method": st.sampled_from(["recursion", "combinatorial", "both"])},
    "restrict": {**_common, "--v": _vector, "--w": _vector},
    "poincare": {"--genus": _genus, "--r": _small, "--length": _max_t,
                 "--n": _small, "--max-t": _max_t, "--format": _format},
    "parse": {**_common, "--factors": _small,
              "--text": st.one_of(_twist, st.text(max_size=8))},
    "verify": {"--rank": _rank, "--format": _format, "--seed": _small,
               "--stats": None},
}
# `verify` always gets every size option, so a drawn call stays small;
# its `pullback` suite, and `all`, run a fixed diagonal-product grid of
# about a second a call and are left out
_VERIFY_SIZES = {
    "--suite": st.sampled_from(["recursion", "localization", "series", "ranks"]),
    "--n": st.lists(st.integers(0, 3), min_size=1, max_size=2).map(_join),
    "--genus": st.lists(st.integers(0, 2), min_size=1, max_size=2).map(_join),
    "--max-co": st.integers(-1, 2).map(str),
    "--max-degree": _small, "--max-t": _max_t, "--random-cases": _small}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    if command == "poincare":
        argv.append(draw(st.sampled_from(["symprod", "quot", "filt", "limits",
                                          "bogus"])))
    if command == "verify":
        for flag, values in _VERIFY_SIZES.items():
            argv += [flag, draw(values)]
    for flag, values in _OPTIONS[command].items():
        odds = 9 if flag in _REQUIRED.get(command, ()) else 5
        if draw(st.integers(0, 9)) < odds:
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_random_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert code != 3, (argv, err.getvalue())  # no internal error
    assert "Traceback" not in err.getvalue(), argv


# -- the parser is built once per process ---------------------------------------

def call(argv, fresh=False):
    """(exit code, stdout, stderr) of one in-process call; with `fresh`,
    on a parser built for this call alone."""
    if fresh:
        cli._parser.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _untimed(result):
    """A call's result with the wall times of `verify --stats` masked."""
    code, out, err = result
    return code, out, re.sub(r"\d+\.\d+ s\b", "- s", err)


def assert_stateless(argv_list):
    reused = [_untimed(call(list(argv))) for argv in argv_list]
    for argv, got in zip(argv_list, reused):
        assert got == _untimed(call(list(argv), fresh=True)), argv


def test_parser_is_built_once(monkeypatch):
    cli._parser.cache_clear()
    call(["poincare", "quot"])
    parser = cli._parser()
    call(["xi", "--v", "1"])
    assert cli._parser() is parser
    assert cli.build_parser() is not parser
    # a command-first call reads its command's parser from the cached tree
    # alone, so cache_clear (a `fresh` call) rebuilds all that it reads
    old = count_calls(monkeypatch, parser.commands["xi"], "parse_known_args")
    cli._parser.cache_clear()
    rebuilt = cli._parser()
    assert rebuilt is not parser
    assert rebuilt.commands["xi"] is not parser.commands["xi"]
    new = count_calls(monkeypatch, rebuilt.commands["xi"], "parse_known_args")
    assert call(["xi", "--v", "1"])[0] == 0
    assert (len(old), len(new)) == (0, 1)


@pytest.mark.parametrize("argv, code, top_level_parses", [
    (["xi", "--v", "1"], 0, 0),
    (["xi", "--v", "1", "--bogus"], 2, 0),
    (["-h"], 0, 1),
    (["bogus"], 2, 1),
    ([], 2, 1),
])
def test_a_command_first_call_skips_the_top_level_parse(monkeypatch, argv, code,
                                                        top_level_parses):
    calls = count_calls(monkeypatch, cli._parser(), "parse_known_args")
    assert call(argv)[0] == code
    assert len(calls) == top_level_parses


def parse_outcome(parse, argv):
    """(SystemExit code or None, stdout, stderr, vars of the namespace or
    None) of one parse of `argv`."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


@settings(max_examples=200, deadline=None)
@given(argvs())
@example([])
@example(["-h"])
@example(["--help"])
@example(["bogus"])
@example(["--genus", "1", "xi", "--v", "1"])
@example(["xi", "--v", "1", "--bogus"])
@example(["xi", "--v", "1", "extra"])
@example(["xi", "--gen", "1", "--v", "1"])
@example(["xi", "--v=1"])
@example(["xi", "--", "--v", "1"])
@example(["xi", "--v", "1", "--he"])
@example(["poincare", "quot", "-h"])
@example(["psi", "--u", "1", "--method", "bad"])
@example(["xi", "--v", "1,x", "--rank", "x"])
@example(["xi", "--v", "-1,0"])
@example(["xi", "--genus", "2", "--rank", "2", "--degrees", "-1,3", "--v", "1,1,1"])
@example(["verify", "--n", "-1,2", "--genus", "-1"])
@example(["xi", "--v", "-x"])
def test_dispatch_matches_the_full_parse(argv):
    """The parse of `main` and the full `parse_args` of the cached tree
    give the same exit code, output and namespace for every argv."""
    assert (parse_outcome(cli._parse_argv, argv)
            == parse_outcome(cli._parser().parse_args, argv)), argv


@pytest.mark.parametrize("argv, flag, value, expected", [
    (["xi", "--v", "1"], "--rank", "x", "an integer or 'inf'"),
    (["xi", "--v", "1"], "--degrees", "1,x", "comma-separated integers"),
    (["xi"], "--v", "1,x", "comma-separated integers"),
    (["psi"], "--u", "1,x", "comma-separated integers"),
    (["restrict", "--v", "1", "--rank", "2"], "--w", "1,x",
     "comma-separated integers"),
    (["verify"], "--n", "1,x", "comma-separated integers"),
    (["verify"], "--genus", "1,x", "comma-separated integers"),
])
def test_a_bad_number_is_named_by_its_flag(argv, flag, value, expected):
    code, out, err = call(argv + [flag, value])
    assert (code, out) == (2, "")
    assert err.endswith(": error: argument %s: expected %s, got %r\n"
                        % (flag, expected, value))


@pytest.mark.parametrize("argv, message", [
    (["xi", "--v", "-1,0"], "weight entries must be non-negative"),
    (["psi", "--u", "-1,0"], "weight entries must be non-negative"),
    (["verify", "--suite", "series", "--n", "-1,2"], "--n entries must be >= 0"),
    (["verify", "--suite", "series", "--genus", "-1,2"],
     "--genus entries must be >= 0"),
])
def test_a_list_with_a_negative_first_entry_is_a_value(argv, message):
    # not read as an option, so the handler's own check names it
    assert call(argv) == (2, "", "error: %s\n" % message)


def test_negative_degrees_read_alike_with_a_space_or_an_equals_sign():
    argv = ["xi", "--genus", "2", "--rank", "2", "--v", "1,1,1", "--equivariant"]
    spaced = call(argv + ["--degrees", "-1,3"])
    joined = call(argv + ["--degrees=-1,3"])
    assert spaced == joined
    assert spaced[0] == 0 and spaced[1]


@pytest.mark.parametrize("argv, flag, value, entry", [
    (["psi"], "--u", "1," + "9" * 5000, 2),
    (["psi"], "--u", "-" + "9" * 5000, 1),
    (["psi", "--u", "1"], "--degrees", "9" * 5000 + ",x", 1),
], ids=["second", "negative", "before-a-non-number"])
def test_an_entry_past_the_digit_limit_is_named_not_echoed(argv, flag, value,
                                                           entry):
    code, out, err = call(argv + [flag, value])
    assert (code, out) == (2, "")
    assert err.endswith(": error: argument %s: entry %d is longer than %d digits\n"
                        % (flag, entry, sys.get_int_max_str_digits()))
    assert "9" * 100 not in err


@pytest.mark.parametrize("argv_list", [
    # a usage error, then --help, then valid calls
    [["xi"], ["psi", "--help"], ["xi", "--v", "0,2"], ["bogus"],
     ["parse", "--text", "[pt]", "--factors", "1"]],
    # --degrees, --rank and --a given, then omitted
    [["xi", "--v", "1,0", "--rank", "2", "--degrees", "1,0", "--equivariant"],
     ["xi", "--v", "1,0", "--equivariant"],
     ["psi", "--u", "1,1", "--genus", "1", "--a", "[a1|one]", "--rank", "inf"],
     ["psi", "--u", "1,1", "--genus", "1"]],
    # --format json, then the default text
    [["restrict", "--v", "0,1", "--w", "1,2", "--rank", "3", "--format", "json"],
     ["restrict", "--v", "0,1", "--w", "1,2", "--rank", "3"],
     ["verify", "--suite", "series", "--genus", "0", "--max-t", "2",
      "--format", "json"],
     ["verify", "--suite", "series", "--genus", "0", "--max-t", "2"]],
])
def test_reused_parser_keeps_no_state(argv_list):
    assert_stateless(argv_list)


@settings(max_examples=30, deadline=None)
@given(st.lists(argvs(), min_size=2, max_size=6))
def test_random_argv_sequences_keep_no_state(argv_list):
    assert_stateless(argv_list)


def test_verify_stats_go_to_stderr_only():
    argv = ["verify", "--suite", "all", "--n", "2", "--genus", "0",
            "--max-co", "1", "--max-degree", "2", "--max-t", "2",
            "--random-cases", "1"]
    for fmt in ("text", "json"):
        plain = call(argv + ["--format", fmt])
        with_stats = call(argv + ["--format", fmt, "--stats"])
        assert plain[0] == 0 and plain[2] == ""
        assert with_stats[:2] == plain[:2]
    reports = json.loads(plain[1])["reports"]
    blocks = with_stats[2].split("stats: suite ")[1:]
    assert [b.split(",")[0] for b in blocks] == [r["suite"] for r in reports]
    for block, report in zip(blocks, reports):
        lines = block.rstrip("\n").split("\n")
        assert len(lines) == 1 + len(report["cases"])
        checked = [int(line.split(", ")[1].split()[0]) for line in lines[1:]]
        assert all(checked)  # every case passed, so each checked something
        assert "%d inputs checked" % sum(checked) in lines[0]


def test_verify_help_names_the_fixed_diagonal_ground_set():
    code, out, _ = call(["verify", "--help"])
    assert code == 0
    assert "4-factor ground set" in " ".join(out.split())
