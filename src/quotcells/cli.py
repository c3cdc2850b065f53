"""Command-line front end.

Exit codes: 0 success (also when a pipe into `head` closes stdout early:
the call ends quietly), 1 a verified identity failed, 2 usage error, 3
an unexpected internal error (one `error:` line on stderr, no traceback).
Element-valued results are printed in the canonical grammar, so JSON
output round-trips through `parse`.

The argparse tree is built once per process. A call whose first argument
names a command is parsed by that command's parser alone; any other
argv goes through the whole tree. Both give the same namespace, output
and exit code. A number that does not convert is a usage error that
names its flag; an entry past Python's int digit limit is named by its
place in the list, not echoed. A value that starts with a minus sign and
a digit, such as `--degrees -1,3`, is read as a value, not an option.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import cells, localization, pullback, series
from .grammar import ParseError, format_element, parse
from .ring import UNBOUNDED, RingContext

USAGE_ERROR = 2
IDENTITY_ERROR = 1
INTERNAL_ERROR = 3
RANK_NOT_GIVEN = object()  # --rank absent; UNBOUNDED (None) is --rank inf
# the suites of `verify --suite all`, in their order; each name is a
# `suites.suite_<name>` function, and `suites` is imported by `verify` alone
SUITE_NAMES = ("recursion", "pullback", "localization", "series", "ranks")


def _parse_rank(text):
    if text in ("inf", "unbounded", "none"):
        return UNBOUNDED
    try:
        return int(text)
    except ValueError:  # argparse names the flag before this message
        raise argparse.ArgumentTypeError(
            "expected an integer or 'inf', got %r" % text) from None


def _int_list(text):
    if not text.strip():
        return ()
    entries = text.split(",")
    try:
        return tuple(map(int, entries))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        for i, entry in enumerate(entries, 1):
            if limit and sum(map(str.isdigit, entry)) > limit:
                # int() refuses it: name the entry rather than echo it
                raise argparse.ArgumentTypeError(
                    "entry %d is longer than %d digits" % (i, limit)) from None
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text) from None


def _context(args, factors, need_rank=False):
    rank = args.rank if args.rank is not RANK_NOT_GIVEN else (1 if need_rank else 0)
    return RingContext(genus=args.genus, factors=factors, rank=rank,
                       degrees=args.degrees or ())


def _emit_element(args, element, extra=None):
    text = format_element(element)
    if args.format == "json":
        payload = {"element": text}
        if extra:
            payload.update(extra)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
        if extra:
            for key in sorted(extra):
                print("%s: %s" % (key, extra[key]))


def _add_common(parser):
    parser.add_argument("--genus", type=int, default=0)
    parser.add_argument("--rank", type=_parse_rank, default=RANK_NOT_GIVEN,
                        help="equivariant rank, an integer or 'inf'")
    parser.add_argument("--degrees", type=_int_list, default=None,
                        help="comma-separated line-bundle degrees")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _cmd_xi(args):
    ctx = _context(args, len(args.v), need_rank=args.equivariant)
    compute = cells.cell_class_equivariant if args.equivariant else cells.cell_class
    _emit_element(args, compute(ctx, args.v))
    return 0


def _cmd_psi(args):
    u = args.u
    ctx = _context(args, len(u))
    given = parse(ctx, args.a) if args.a else ctx.one()
    a = pullback.average_twist(ctx, u, given)
    flagged = a != given
    results = {}
    if args.method in ("recursion", "both"):
        results["recursion"] = pullback.quot_pullback(ctx, u, a)
    if args.method in ("combinatorial", "both"):
        results["combinatorial"] = pullback.quot_pullback_combinatorial(ctx, u, a)
    if args.method == "both":
        equal = results["recursion"] == results["combinatorial"]
        if args.format == "json":
            print(json.dumps({
                "recursion": format_element(results["recursion"]),
                "combinatorial": format_element(results["combinatorial"]),
                "equal": equal,
                "averaged_twist": flagged,
            }, sort_keys=True))
        else:
            print("recursion: %s" % format_element(results["recursion"]))
            print("combinatorial: %s" % format_element(results["combinatorial"]))
            print("equal: %s" % equal)
            if flagged:
                print("note: twist class averaged over the stabilizer")
        return 0 if equal else IDENTITY_ERROR
    element = next(iter(results.values()))
    extra = {"averaged_twist": True} if flagged else None
    _emit_element(args, element, extra)
    return 0


def _cmd_restrict(args):
    v, w = args.v, args.w
    if args.rank is RANK_NOT_GIVEN:
        raise ValueError("--rank is required for restriction")
    ctx = _context(args, len(v))
    if ctx.rank != 0:
        # reject a bad w before the class of v is built, v's error first
        # as before (at rank 0 the class itself refuses the context)
        cells._check_entries(ctx, v)
        cells._check_entries(ctx, w)
    restricted = localization.restrict_to_fixed_point(
        cells.cell_class_equivariant(ctx, v), w)
    degree = localization.t_degree(restricted)
    _emit_element(args, restricted, {
        "t_degree": "-inf" if degree == float("-inf") else int(degree),
        "top_term": format_element(localization.top_term(restricted)),
    })
    return 0


def _poly_text(p):
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append("t^%d" % i)
        else:
            parts.append("%d*t^%d" % (c, i))
    return " + ".join(parts)


def _cmd_poincare(args):
    g = args.genus
    if args.length < 0:
        raise ValueError("--length must be >= 0")
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    if args.max_t is None and args.target == "limits":
        raise ValueError("--max-t is required for limits")
    if args.max_t is not None and args.max_t < 0:
        raise ValueError("--max-t must be >= 0")
    if args.target == "symprod":
        poly = series.symmetric_product_poincare(g, args.length)
        payload = {"target": "symprod", "genus": g, "length": args.length,
                   "coefficients": poly}
    elif args.target == "quot":
        poly = series.quot_poincare(g, args.r, args.length)
        payload = {"target": "quot", "genus": g, "rank": args.r,
                   "length": args.length, "coefficients": poly}
    elif args.target == "filt":
        poly = series.filt_poincare(g, args.r, args.n)
        payload = {"target": "filt", "genus": g, "rank": args.r,
                   "factors": args.n, "coefficients": poly}
    else:  # limits: argparse restricts the choices
        poly = series.infinite_quot_series(g, args.max_t)
        payload = {"target": "limits", "genus": g, "max_t": args.max_t,
                   "coefficients": poly}
    if args.max_t is not None and args.target != "limits":
        poly = poly[:args.max_t + 1]
        payload["coefficients"] = poly
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print("P(t) = %s" % _poly_text(poly))
    return 0


def _cmd_parse(args):
    ctx = _context(args, args.factors)
    element = parse(ctx, args.text)
    _emit_element(args, element)
    return 0


def _inputs_text(inputs):
    return " ".join("%s=%s" % (k, inputs[k]) for k in sorted(inputs))


def _write_stats(block):
    """One suite's `verify --stats` block, on stderr."""
    cases = block["cases"]
    print("stats: suite %s, %d cases, %d inputs checked, %.3f s" % (
        block["suite"], len(cases), sum(c["checked"] for c in cases),
        block["seconds"]), file=sys.stderr)
    for case in cases:
        print("  %.3f s, %d checked: %s" % (
            case["seconds"], case["checked"], _inputs_text(case["inputs"])),
            file=sys.stderr)


def _cmd_verify(args):
    from . import suites

    if args.rank is UNBOUNDED:
        raise ValueError("verify needs a finite --rank")
    for flag in ("max_co", "max_degree", "max_t", "random_cases"):
        if (getattr(args, flag) or 0) < 0:
            raise ValueError("--%s must be >= 0" % flag.replace("_", "-"))
    for flag, values in (("n", args.n), ("genus", args.genus_list)):
        if any(value < 0 for value in values or ()):
            raise ValueError("--%s entries must be >= 0" % flag)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    overrides = {
        "n_values": tuple(args.n) if args.n else None,
        "genus_values": tuple(args.genus_list) if args.genus_list else None,
        "max_co": args.max_co,
        "max_degree": args.max_degree,
        "rank": args.rank if isinstance(args.rank, int) else None,
        "series_max_t": args.max_t,
        "random_cases": args.random_cases,
        "seed": args.seed,
    }
    stats = [] if args.stats else None
    result = suites.run_suites(names, overrides, stats=stats)
    for block in stats or ():
        _write_stats(block)
    if args.format == "json":
        if len(result["reports"]) == 1:
            print(json.dumps(result["reports"][0], sort_keys=True, indent=2))
        else:
            print(json.dumps(result, sort_keys=True, indent=2))
    else:
        for report in result["reports"]:
            for case in report["cases"]:
                status = "PASS" if case["pass"] else "FAIL"
                print("[%s] %s: %s" % (status, report["suite"],
                                       _inputs_text(case["inputs"])))
                if not case["pass"]:
                    print("  expected: %s" % case["expected"])
                    print("  got:      %s" % case["got"])
            summary = report["summary"]
            print("suite %s: %d/%d passed" % (report["suite"],
                                              summary["passed"], summary["total"]))
        print("result: %s" % ("ok" if result["ok"] else "FAILED"))
    return 0 if result["ok"] else IDENTITY_ERROR


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a word of a minus and a digit, such as
    the list "-1,3", as a value rather than an option (stock argparse
    only does so for a lone number); no option here starts that way.
    add_subparsers makes each command's parser of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def build_parser():
    parser = _Parser(
        prog="quotcells",
        description="Exact cohomology computations for quot and filt schemes "
                    "of a smooth projective curve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("xi", help="cell class of a weight vector")
    _add_common(p)
    p.add_argument("--v", type=_int_list, required=True,
                   help="comma-separated weight entries")
    p.add_argument("--equivariant", action="store_true")

    p = sub.add_parser("psi", help="pullback of a quot-scheme cell class")
    _add_common(p)
    p.add_argument("--u", type=_int_list, required=True,
                   help="decreasing weight vector")
    p.add_argument("--a", default=None, help="twist class in the element grammar")
    p.add_argument("--method", choices=("recursion", "combinatorial", "both"),
                   default="recursion")

    p = sub.add_parser("restrict", help="restrict an equivariant cell class "
                                        "to a fixed point")
    _add_common(p)
    p.add_argument("--v", type=_int_list, required=True)
    p.add_argument("--w", type=_int_list, required=True)

    p = sub.add_parser("poincare", help="Poincare polynomials and series")
    p.add_argument("target", choices=("symprod", "quot", "filt", "limits"))
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--length", type=int, default=0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--max-t", dest="max_t", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("parse", help="canonicalize an element")
    _add_common(p)
    p.add_argument("--text", required=True)
    p.add_argument("--factors", type=int, required=True)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + SUITE_NAMES)
    p.add_argument("--n", type=_int_list, default=None,
                   help="comma-separated factor counts; the pullback "
                        "suite's A4 diagonal-product check always uses a "
                        "4-factor ground set, whatever --n says")
    p.add_argument("--genus", dest="genus_list", type=_int_list, default=None,
                   help="comma-separated genera")
    p.add_argument("--rank", type=_parse_rank, default=RANK_NOT_GIVEN)
    p.add_argument("--max-co", dest="max_co", type=int, default=None)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    p.add_argument("--max-t", dest="max_t", type=int, default=None)
    p.add_argument("--random-cases", dest="random_cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--stats", action="store_true",
                   help="write wall time and inputs checked per case and "
                        "per suite to stderr")
    parser.commands = sub.choices  # command name -> its parser, for main
    return parser


@functools.cache
def _parser():
    """The parser of every `main` call in this process, built on the first
    call: parse_args makes a fresh Namespace and keeps nothing."""
    return build_parser()


def _parse_argv(argv):
    """The namespace of one call, as `_parser().parse_args(argv)` gives
    it. A command-first argv is parsed by that command's parser alone:
    the top-level pass would only classify every string and hand them all
    on to it. Leftover arguments get the top-level parser's error."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no argv, -h, an option first or an unknown command
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: %s" % " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    # looked up at call time, so a rebound `_cmd_*` is the one that runs
    handler = globals()["_cmd_" + args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # stdout to devnull: the flush at exit passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # never a traceback, and never 1
        detail = " ".join(str(exc).split())  # one line
        print("error: internal error (%s) %s" % (type(exc).__name__, detail),
              file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
