"""The four benchmark workloads.

Each workload is one closed-loop client: it issues a case, waits for the
result, checks it and only then issues the next.  A pass runs every case
of the workload once, against fresh RingContext objects, in an order
drawn once from the run's seed and kept for every pass.  The cases of
one context share its caches, so the first case that needs a cell class
or a prefactor pays for filling the cache.  They therefore run in a
fixed order within their context, as a client working through one
context would, and the seed only draws how the contexts' sequences
interleave.  So each case meets the same cache state in every pass and
under every seed, and the per-case times of a pass add up to the work of
the pass.  The program only sees the generated inputs.

Calls into quotcells go through module attributes (``pullback.is_invariant``
rather than names imported into this file), so the wrappers of the traced
run see them.

Grids are kept small enough that a pass takes one to four seconds on a
2-core machine, so one run holds several passes and reports medians.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from time import perf_counter

from quotcells import cells, cli, grammar, localization, pullback, ring, weights


class Case:
    """One checked case: its id, its latency from issue to checked result,
    whether its identity held and its canonical output (None if it raised)."""

    __slots__ = ("case_id", "seconds", "ok", "output")

    def __init__(self, case_id, seconds, ok, output):
        self.case_id = case_id
        self.seconds = seconds
        self.ok = ok
        self.output = output


class Client:
    """Issues one case at a time and times it from issue to checked result.
    With a tracer, the case is one span; with a gauge, the gauge measures
    the CPU's speed after each case, outside the case's time."""

    def __init__(self, tracer=None, gauge=None):
        self.tracer = tracer
        self.gauge = gauge

    def run(self, case_id, body):
        """body returns (ok, output); any exception fails the case and the
        client keeps going."""
        tracer = self.tracer
        if tracer is not None:
            tracer.case = case_id
            span = tracer.open("case")
        start = perf_counter()
        try:
            ok, output = body()
        except Exception:  # a raising case is a failed case, never a stop
            ok, output = False, None
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        if self.gauge is not None:
            self.gauge.between_cases(elapsed)
        return Case(case_id, elapsed, ok, output)


def interleave(sequences, rng):
    """A random merge of the sequences that keeps each one's own order."""
    slots = [i for i, sequence in enumerate(sequences) for _ in sequence]
    rng.shuffle(slots)
    iterators = [iter(sequence) for sequence in sequences]
    return [next(iterators[i]) for i in slots]


def _vec(v):
    return ",".join(str(x) for x in v)


# -- pullback -----------------------------------------------------------------

# (genus, factors, max co(u)); twists of degree <= 4 as in acceptance check A1.
PULLBACK_GRID = ((2, 3, 3), (1, 4, 1))
MAX_TWIST_DEGREE = 4


class PullbackWorkload:
    """A1: symmetrization oracle == combinatorial route, and the result is
    invariant, for every decreasing u and stabilizer-invariant twist."""

    name = "pullback"
    expected_layers = ("ring.mul", "ring.add", "ring.permute",
                       "cells.cell_class", "weights.row_tuples",
                       "pullback.symmetrization", "pullback.combinatorial",
                       "pullback.is_invariant", "pullback.letter_classes",
                       "grammar.format")

    def __init__(self, seed):
        self.order = interleave(
            [[(g, n, u) for u in weights.decreasing_vectors(n, None, max_co=max_co)]
             for g, n, max_co in PULLBACK_GRID], random.Random(seed))

    def run_pass(self, client=None):
        client = client or Client()
        contexts = {(g, n): ring.RingContext(genus=g, factors=n)
                    for g, n, _ in PULLBACK_GRID}
        cases = []
        for g, n, u in self.order:
            ctx = contexts[g, n]
            stab = weights.stabilizer(u)
            for degree in range(MAX_TWIST_DEGREE + 1):
                # the first class of each (u, degree) also pays for
                # enumerating the twists, as a client would
                start = perf_counter()
                twists = pullback.invariant_letter_classes(ctx, degree, stab)
                enumerate_s = perf_counter() - start
                for index, a in enumerate(twists):
                    case_id = "g%dn%du%sd%di%d" % (g, n, _vec(u), degree, index)

                    def body(ctx=ctx, u=u, a=a):
                        lhs = pullback.quot_pullback(ctx, u, a)
                        same = lhs == pullback.quot_pullback_combinatorial(ctx, u, a)
                        invariant = not lhs or pullback.is_invariant(lhs)
                        return same and invariant, grammar.format_element(lhs)

                    case = client.run(case_id, body)
                    if index == 0:
                        case.seconds += enumerate_s
                    cases.append(case)
        return cases


# -- localization -------------------------------------------------------------

# (genus, factors, rank, max co(v)); every fixed point w of the rank.
LOCALIZATION_GRID = ((1, 3, 4, 2), (0, 3, 4, 3))


class LocalizationWorkload:
    """A6 at rank 4: equivariant cell classes restricted to every fixed
    point, with the top-term, vanishing and degree-bound lemmas."""

    name = "localization"
    expected_layers = ("ring.mul", "ring.add", "cells.cell_class",
                       "localization.restrict", "localization.lemmas",
                       "grammar.format")

    def __init__(self, seed):
        contexts = []
        for g, n, r, max_co in LOCALIZATION_GRID:
            points = list(itertools.product(range(r), repeat=n))
            contexts.append([(g, n, r, v, w) for v in points if sum(v) <= max_co
                             for w in points])
        self.order = interleave(contexts, random.Random(seed))

    def run_pass(self, client=None):
        client = client or Client()
        contexts = {(g, n, r): ring.RingContext(genus=g, factors=n, rank=r)
                    for g, n, r, _ in LOCALIZATION_GRID}
        cases = []
        for g, n, r, v, w in self.order:
            ctx = contexts[g, n, r]

            def body(ctx=ctx, v=v, w=w):
                x = cells.cell_class_equivariant(ctx, v)
                restricted = localization.restrict_to_fixed_point(x, w)
                degree = localization.t_degree(restricted)
                if all(a <= b for a, b in zip(v, w)):
                    ok = (not localization.top_term_residual(ctx, v, w)
                          and degree == sum(v))
                else:
                    ok = degree != sum(v)
                ok = ok and localization.vanishing_check(ctx, v, w)
                if sorted(v) == sorted(w):
                    ok = ok and localization.degree_bound_check(ctx, v, w)
                return ok, grammar.format_element(restricted)

            case_id = "g%dr%dv%sw%s" % (g, r, _vec(v), _vec(w))
            cases.append(client.run(case_id, body))
        return cases


# -- certificate --------------------------------------------------------------

# (genus, factors, max degree) of span_rank == invariant_dimension (A5) ...
RANK_GRID = ((0, 2, 8), (1, 2, 8), (2, 2, 8), (3, 2, 8), (0, 3, 8), (1, 3, 8),
             (2, 3, 7), (3, 3, 3), (0, 4, 6), (1, 4, 5), (2, 4, 2), (0, 5, 4),
             (1, 5, 1))
# ... and of generator_span_check on the A9 grid.
SPAN_GRID = ((0, 2, 8), (1, 2, 8), (0, 3, 6))


class CertificateWorkload:
    """A5/A9 rank certificates: the pullback classes span the invariant
    subspace degree by degree, and the single-row pullbacks generate it."""

    name = "certificate"
    expected_layers = ("ring.mul", "ring.add", "ring.permute",
                       "cells.cell_class", "pullback.symmetrization",
                       "pullback.letter_classes", "pullback.invariant_dimension",
                       "linalg.exact_rank")

    def __init__(self, seed):
        contexts = {(g, n): [("rank", g, n, d) for d in range(max_d + 1)]
                    for g, n, max_d in RANK_GRID}
        for g, n, max_d in SPAN_GRID:
            contexts[g, n].append(("span", g, n, max_d))
        self.order = interleave(list(contexts.values()), random.Random(seed))

    def run_pass(self, client=None):
        client = client or Client()
        contexts = {}
        cases = []
        for kind, g, n, d in self.order:
            ctx = contexts.get((g, n))
            if ctx is None:
                ctx = contexts[g, n] = ring.RingContext(genus=g, factors=n)

            if kind == "rank":
                def body(ctx=ctx, d=d):
                    classes = pullback.quot_pullback_spanning_classes(ctx, d)
                    rank = pullback.span_rank(classes, d)
                    dim = pullback.invariant_dimension(ctx, d)
                    return rank == dim, "%d %d" % (rank, dim)
            else:
                def body(ctx=ctx, d=d):
                    report = pullback.generator_span_check(ctx, d)
                    return report["pass"], json.dumps(report, sort_keys=True)

            case_id = "%s:g%dn%dd%d" % (kind, g, n, d)
            cases.append(client.run(case_id, body))
        return cases


# -- queries ------------------------------------------------------------------

class Query:
    __slots__ = ("kind", "argv", "expected_code", "source", "case_id")

    def __init__(self, kind, argv, expected_code=0, source=None, case_id=None):
        self.kind = kind
        self.argv = argv
        self.expected_code = expected_code
        self.source = source     # catalogue index whose output `parse` reads
        self.case_id = case_id or " ".join(argv)


def _pick(candidates, count):
    """count entries spread evenly over the candidate list."""
    if count > len(candidates):
        raise ValueError("asked for %d of %d candidates" % (count, len(candidates)))
    return [candidates[i * len(candidates) // count] for i in range(count)]


def _weights(n, r, max_co, low=0):
    return [v for v in itertools.product(range(r), repeat=n) if low <= sum(v) <= max_co]


SHARE = 95


def query_catalogue():
    """The fixed set of argument vectors the query stream draws from; the
    seed only chooses the order.  One call in 20 (30 of 600) is a
    malformed argv whose expected exit code is 2.  The other 570 are split
    equally, SHARE each, over the six kinds of call the benchmark covers:
    xi, xi --equivariant, psi --method both, restrict, poincare (split
    equally over quot, filt and symprod) and parse of an earlier output.
    Equal shares are an assumption, not a measured mix of real use."""
    out = []
    xi = [["xi", "--genus", str(g), "--v", _vec(v)]
          for n, max_co in ((1, 6), (2, 5), (3, 4), (4, 3)) for g in (0, 1, 2)
          for v in _weights(n, max_co + 1, max_co, low=1)]
    out += [Query("xi", argv) for argv in _pick(xi, SHARE)]
    xi_eq = [["xi", "--genus", str(g), "--rank", str(r), "--v", _vec(v),
              "--equivariant"]
             for n in (1, 2, 3) for r in (2, 3) for g in (0, 1, 2)
             for v in _weights(n, r, 4)]
    out += [Query("xi-eq", argv) for argv in _pick(xi_eq, SHARE)]
    psi = []
    for g in (0, 1, 2):
        twists = [None, "pt"] + (["a1"] if g else [])
        for n in (2, 3):
            for u in weights.decreasing_vectors(n, None, max_co=(4, 3)[n - 2]):
                for letter in twists:
                    argv = ["psi", "--genus", str(g), "--u", _vec(u),
                            "--method", "both"]
                    if letter:
                        argv += ["--a", "[%s]" % "|".join([letter] + ["one"] * (n - 1))]
                    psi.append(argv)
    out += [Query("psi", argv) for argv in _pick(psi, SHARE)]
    restrict = [["restrict", "--genus", str(g), "--rank", str(r),
                 "--v", _vec(v), "--w", _vec(w)]
                for n in (2, 3) for r in (2, 3) for g in (0, 1)
                for v in _weights(n, r, 3)
                for w in itertools.product(range(r), repeat=n)]
    out += [Query("restrict", argv) for argv in _pick(restrict, SHARE)]
    quot = [["poincare", "quot", "--genus", str(g), "--r", str(r),
             "--length", str(length)] + (["--format", "json"] if length % 2 else [])
            for g in range(4) for r in range(1, 5) for length in range(7)]
    filt = [["poincare", "filt", "--genus", str(g), "--r", str(r), "--n", str(n)]
            for g in range(4) for r in range(1, 5) for n in range(1, 5)]
    symprod = [["poincare", "symprod", "--genus", str(g), "--length", str(m)]
               for g in range(5) for m in range(9)]
    out += [Query("poincare-quot", argv) for argv in _pick(quot, 32)]
    out += [Query("poincare-filt", argv) for argv in _pick(filt, 32)]
    out += [Query("poincare-symprod", argv) for argv in _pick(symprod, SHARE - 64)]
    sources = [i for i, q in enumerate(out) if q.kind in ("xi", "xi-eq", "restrict")]
    for index in _pick(sources, SHARE):
        out.append(Query("parse", _parse_argv(out[index].argv, "<output>"),
                         source=index, case_id="parse< " + out[index].case_id))
    malformed = []
    for g in range(7):
        malformed += [
            ["xi", "--genus", str(g), "--v", "1,x"],
            ["psi", "--genus", str(g), "--u", "0,1"],
            ["xi", "--genus", str(g), "--v", "0,3", "--rank", "2"],
            ["parse", "--genus", str(g), "--factors", "2", "--text", "[a%d|one]" % (g + 1)],
            ["restrict", "--genus", str(g), "--rank", "2", "--v", "1,0", "--w", "1"],
            ["frobnicate", "--genus", str(g)],
            ["poincare", "quot", "--genus", str(g), "--r", "0"],
            ["restrict", "--genus", str(g), "--v", "1,0", "--w", "1,1"],
        ]
    out += [Query("malformed", argv, expected_code=2) for argv in _pick(malformed, 30)]
    ids = [q.case_id for q in out]
    if len(set(ids)) != len(ids):
        raise ValueError("query catalogue has duplicate entries")
    return out


def stream(catalogue, rng):
    """Catalogue indices in a seeded order in which every `parse` call
    comes after the call whose output it reads."""
    order = [i for i, q in enumerate(catalogue) if q.source is None]
    rng.shuffle(order)
    for i, q in enumerate(catalogue):
        if q.source is not None:
            after = order.index(q.source) + 1
            order.insert(rng.randint(after, len(order)), i)
    return order


def _parse_argv(source_argv, text):
    """`parse` of a source query's element, in the source's context."""
    opts = dict(zip(source_argv[1::2], source_argv[2::2]))
    factors = len(opts["--v"].split(","))
    argv = ["parse", "--genus", opts["--genus"]]
    if "--rank" in opts:
        argv += ["--rank", opts["--rank"]]
    return argv + ["--factors", str(factors), "--text", text]


# Defects of the CLI known at the time the benchmark was defined: in
# process, these raise instead of returning exit code 2 (or, for the last,
# the class omega^1500).  A run reports how each of them behaves, but they
# are kept out of the measured stream so that no measured operation fails.
KNOWN_DEFECTS = (["poincare", "quot", "--length", "-1"],
                 ["poincare", "limits"],
                 ["xi", "--v", "1500"])


def call_cli(argv):
    """One in-process CLI call with stdout and stderr captured:
    (exit code or None, stdout, exception name or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    except Exception as exc:
        return None, out.getvalue(), type(exc).__name__
    return code, out.getvalue(), None


class QueriesWorkload:
    """A stream of in-process `cli.main(argv)` calls, each building its
    own RingContext as the CLI does, so every cache starts cold."""

    name = "queries"
    expected_layers = ("cli.main", "grammar.format", "grammar.parse", "series",
                       "cells.cell_class", "ring.mul", "pullback.symmetrization",
                       "pullback.combinatorial", "weights.row_tuples",
                       "localization.restrict")

    def __init__(self, seed):
        self.catalogue = query_catalogue()
        self.order = stream(self.catalogue, random.Random(seed))

    def run_pass(self, client=None):
        client = client or Client()
        stdout = {}
        cases = []
        for i in self.order:
            q = self.catalogue[i]
            argv = q.argv
            if q.source is not None:
                argv = argv[:-1] + [stdout.get(q.source, "").split("\n")[0]]

            def body(q=q, argv=argv, i=i):
                code, out, _error = call_cli(argv)
                stdout[i] = out
                return code == q.expected_code, "%s\n%s" % (code, out)

            cases.append(client.run(q.case_id, body))
        return cases

    def kind_counts(self):
        counts = {}
        for q in self.catalogue:
            counts[q.kind] = counts.get(q.kind, 0) + 1
        return counts


WORKLOADS = {w.name: w for w in (PullbackWorkload, LocalizationWorkload,
                                 CertificateWorkload, QueriesWorkload)}
