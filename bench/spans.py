"""Span recording and wrapper installation for the traced benchmark run.

The traced run replaces the public entry points of each quotcells layer
by wrappers that record one span per call: name, start, end, the index
of the enclosing span and the id of the benchmark case being run.
Counters that need the call's arguments or result (term-count products,
cache growth, matrix shape) are recorded at the same boundary.

The program imports many of these functions by name (``from .ring
import permute_factors``), so installing a wrapper means rebinding every
module-level binding of the original object in every quotcells module,
not only the one in the defining module.  ``Installation`` does that and
its ``restore`` puts the originals back, so untraced passes in the same
process run the unmodified code.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, case id]
        self.stack = []        # indices of the spans still open
        self.counts = Counter()
        self.contexts = {}     # id -> RingContext seen by a wrapped call
        self.case = None

    def open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.case])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()


def self_times(spans):
    """Self time per span name: each span's duration minus the time its
    child spans cover.  Spans come from one thread, so children of one
    parent never overlap and their durations add up."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _case in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _parent, _case) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return dict(totals)


def traced_call(tracer, name, fn, before=None, after=None):
    """Wrap fn so that each call is one span; before(tracer, args) may
    return a state handed to after(tracer, args, result, state)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name + ".calls"] += 1
        state = before(tracer, args) if before else None
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after:
            after(tracer, args, result, state)
        return result

    return wrapper


def traced_generator(tracer, name, fn, yielded):
    """Wrap a generator function: one call per generator created, one span
    per resumption (the consumer's work between items is not the
    generator's), and a count of the items it yields."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name + ".calls"] += 1
        index = tracer.open(name)
        try:
            inner = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        while True:
            index = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            tracer.counts[yielded] += 1
            yield item

    return wrapper


# -- the layers ---------------------------------------------------------------

def _remember_context(tracer, args):
    ctx = args[0]
    tracer.contexts[id(ctx)] = ctx


def _cell_before(tracer, args):
    _remember_context(tracer, args)
    return len(args[0]._cell_cache)


def _cell_after(tracer, args, result, size_before):
    if len(args[0]._cell_cache) == size_before:
        tracer.counts["cells.cell_class.cache_hits"] += 1


def _mul_after(tracer, args, result, state):
    left, right = args
    right_terms = len(right.coeffs) if hasattr(right, "coeffs") else 1
    tracer.counts["ring.mul.pairs"] += len(left.coeffs) * right_terms
    tracer.counts["ring.mul.out_terms"] += len(result.coeffs)


def _rank_before(tracer, args):
    rows = [row for row in args[0] if row]
    columns = {key for row in rows for key in row}
    tracer.counts["linalg.matrix_cells"] += len(rows) * len(columns)


def _format_after(tracer, args, result, state):
    tracer.counts["grammar.format.terms"] += len(args[0].coeffs)


def _layers(qc):
    """(span name, owner, attribute, before, after) for every traced entry
    point; owner is a module or, for ring arithmetic, the element class."""
    element = qc.ring.RingElement
    rows = [
        ("ring.mul", element, "__mul__", None, _mul_after),
        ("ring.add", element, "__add__", None, None),
        ("ring.permute", qc.ring, "permute_factors", None, None),
        ("ring.permute", qc.ring, "permute_factors_omega", None, None),
        ("cells.cell_class", qc.cells, "cell_class", _cell_before, _cell_after),
        ("cells.cell_class", qc.cells, "cell_class_equivariant",
         _cell_before, _cell_after),
        ("pullback.symmetrization", qc.pullback, "quot_pullback",
         _remember_context, None),
        ("pullback.combinatorial", qc.pullback, "quot_pullback_combinatorial",
         _remember_context, None),
        ("pullback.is_invariant", qc.pullback, "is_invariant", None, None),
        ("pullback.letter_classes", qc.pullback, "invariant_letter_classes",
         _remember_context, None),
        ("pullback.invariant_dimension", qc.pullback, "invariant_dimension",
         _remember_context, None),
        ("localization.restrict", qc.localization, "restrict_to_fixed_point",
         None, None),
        ("linalg.exact_rank", qc.linalg, "exact_rank", _rank_before, None),
        ("grammar.format", qc.grammar, "format_element", None, _format_after),
        ("grammar.parse", qc.grammar, "parse", None, None),
        ("cli.main", qc.cli, "main", None, None),
    ]
    for lemma in ("top_term_residual", "vanishing_check", "degree_bound_check"):
        rows.append(("localization.lemmas", qc.localization, lemma, None, None))
    for attr in sorted(vars(qc.series)):
        value = getattr(qc.series, attr)
        if (callable(value) and not attr.startswith(("_", "poly_"))
                and getattr(value, "__module__", None) == qc.series.__name__):
            rows.append(("series", qc.series, attr, None, None))
    return rows


SPAN_NAMES = ("ring.mul", "ring.add", "ring.permute", "cells.cell_class",
              "weights.row_tuples", "pullback.symmetrization",
              "pullback.combinatorial", "pullback.is_invariant",
              "pullback.letter_classes", "pullback.invariant_dimension",
              "localization.restrict", "localization.lemmas",
              "linalg.exact_rank", "series", "grammar.format",
              "grammar.parse", "cli.main")


class Installation:
    """The wrappers installed for one tracer; ``restore`` undoes them."""

    def __init__(self, tracer, qc):
        self.qc = qc
        self.replaced = []     # (owner, attribute, original value)
        wrappers = {}          # id(original) -> wrapper
        self.originals = []    # kept alive, so their ids stay unique
        for name, owner, attr, before, after in _layers(qc):
            original = vars(owner)[attr]
            self.originals.append(original)
            wrappers[id(original)] = traced_call(tracer, name, original,
                                                 before, after)
        original = qc.weights.admissible_row_tuples
        self.originals.append(original)
        wrappers[id(original)] = traced_generator(
            tracer, "weights.row_tuples", original, "weights.row_tuples.admitted")
        for owner in self._owners():
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers:
                    self.replaced.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)])
        left = self.unwrapped()
        if left:
            self.restore()
            raise RuntimeError("bindings left unwrapped: %s" % ", ".join(left))

    def _owners(self):
        modules = [module for name, module in sorted(sys.modules.items())
                   if name == "quotcells" or name.startswith("quotcells.")]
        return modules + [self.qc.ring.RingElement]

    def unwrapped(self):
        """Names still bound to an original, which a call could bypass the
        trace through; empty after a complete installation."""
        ids = {id(orig) for orig in self.originals}
        return ["%s.%s" % (getattr(owner, "__name__", owner), attr)
                for owner in self._owners()
                for attr, value in vars(owner).items() if id(value) in ids]

    def restore(self):
        for owner, attr, value in reversed(self.replaced):
            setattr(owner, attr, value)
        self.replaced = []
