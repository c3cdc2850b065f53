"""Command-line interface: outputs, exit codes, JSON round trips,
deterministic reports."""

import hashlib
import json

import pytest

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


def test_psi_json_round_trip(capsys):
    code, out, _ = run(capsys, "psi", "--u", "1,0", "--genus", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ctx = RingContext(genus=2, factors=2)
    from quotcells.pullback import quot_pullback
    assert parse(ctx, payload["element"]) == quot_pullback(ctx, (1, 0))


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
])
def test_verify_zero_coverage_fails(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "got:      no cases checked" in out
    assert "result: FAILED" in out


@pytest.mark.parametrize("argv", [
    ("poincare", "quot", "--length", "-1"),
    ("poincare", "limits"),
    ("poincare", "limits", "--max-t", "-3"),
    ("poincare", "filt", "--n", "-1"),
    ("verify", "--suite", "localization", "--rank", "inf"),
])
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
