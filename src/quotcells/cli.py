"""Command-line front end.

Exit codes: 0 success, 1 a verified identity failed, 2 usage error,
3 an unexpected internal error (one `error:` line on stderr, no
traceback).
Element-valued results are printed in the canonical grammar, so JSON
output round-trips through `parse`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cells, localization, pullback, series, suites
from .grammar import ParseError, format_element, parse
from .ring import UNBOUNDED, RingContext
from .weights import is_decreasing

USAGE_ERROR = 2
IDENTITY_ERROR = 1
INTERNAL_ERROR = 3
RANK_NOT_GIVEN = object()  # --rank absent; UNBOUNDED (None) is --rank inf


def _parse_rank(text):
    if text in ("inf", "unbounded", "none"):
        return UNBOUNDED
    return int(text)


def _int_list(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(x) for x in text.split(","))


def _context(args, factors, need_rank=False):
    rank = args.rank if args.rank is not RANK_NOT_GIVEN else (1 if need_rank else 0)
    degrees = args.degrees or ()
    if rank == 0:
        degrees = ()
    return RingContext(genus=args.genus, factors=factors, rank=rank, degrees=degrees)


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
    v = _int_list(args.v)
    ctx = _context(args, len(v), need_rank=args.equivariant)
    compute = cells.cell_class_equivariant if args.equivariant else cells.cell_class
    _emit_element(args, compute(ctx, v))
    return 0


def _cmd_psi(args):
    u = _int_list(args.u)
    if not is_decreasing(u):
        raise ValueError("--u must be decreasing")
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
    v = _int_list(args.v)
    w = _int_list(args.w)
    if len(v) != len(w):
        raise ValueError("--v and --w must have the same length")
    if args.rank is RANK_NOT_GIVEN:
        raise ValueError("--rank is required for restriction")
    ctx = _context(args, len(v), need_rank=True)
    restricted = localization.restrict_to_fixed_point(
        cells.cell_class_equivariant(ctx, v), w)
    degree = localization.t_degree(restricted)
    _emit_element(args, restricted, {
        "t_degree": "-inf" if degree == float("-inf") else int(degree),
        "top_term": format_element(localization.top_term(restricted)),
    })
    return 0


def _poly_text(p):
    if not p:
        return "0"
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
    elif args.target == "limits":
        poly = series.infinite_quot_series(g, args.max_t)
        payload = {"target": "limits", "genus": g, "max_t": args.max_t,
                   "coefficients": poly}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.target)
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
    if args.rank is UNBOUNDED:
        raise ValueError("verify needs a finite --rank")
    for flag in ("max_co", "max_degree", "max_t", "random_cases"):
        if (getattr(args, flag) or 0) < 0:
            raise ValueError("--%s must be >= 0" % flag.replace("_", "-"))
    names = suites.SUITE_NAMES if args.suite == "all" else (args.suite,)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quotcells",
        description="Exact cohomology computations for quot and filt schemes "
                    "of a smooth projective curve.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("xi", help="cell class of a weight vector")
    _add_common(p)
    p.add_argument("--v", required=True, help="comma-separated weight entries")
    p.add_argument("--equivariant", action="store_true")

    p = sub.add_parser("psi", help="pullback of a quot-scheme cell class")
    _add_common(p)
    p.add_argument("--u", required=True, help="decreasing weight vector")
    p.add_argument("--a", default=None, help="twist class in the element grammar")
    p.add_argument("--method", choices=("recursion", "combinatorial", "both"),
                   default="recursion")

    p = sub.add_parser("restrict", help="restrict an equivariant cell class "
                                        "to a fixed point")
    _add_common(p)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)

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
                   choices=("all",) + suites.SUITE_NAMES)
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
    return parser


@functools.cache
def _parser():
    """The parser of every `main` call in this process, built on the first
    call: parse_args makes a fresh Namespace and keeps nothing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a rebound `_cmd_*` is the one that runs
    handler = globals()["_cmd_" + args.command]
    try:
        return handler(args)
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
