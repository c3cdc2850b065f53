"""Benchmark of quotcells: exact-verification workloads, end to end and by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Workloads (see workloads.py and BENCHMARK.json for why each
was chosen): pullback, localization, certificate, queries.

A run repeats passes over the workload until ``--seconds`` have elapsed
and checks every case: its identity, its exit code and the sha256 of its
canonical output against bench/digests.json.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are given at a reference CPU speed.  On the shared 2-core machine
the benchmark was defined on, the speed the process gets from the CPU
moves by up to a factor of two, in phases of seconds to minutes, and CPU
time tracks wall time (the slowdown is not time stolen from the
process).  So a run measures the speed as it goes: between cases, a
gauge runs a fixed pure-Python loop until the loop has taken 15 % of
the case time, and each case's time is scaled by the loop's reference
time over the mean time of the loop run just before the case and the
one run just after it, since the speed moves within tens of
milliseconds.  The
loop never touches the program, so a change to quotcells moves the
scaled times as it moves the wall times.  The human-readable lines also
print the unscaled figures and the CPU speed seen.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* setup_s: import of quotcells plus input generation in a fresh
  process, median over probes made between the passes, each scaled by
  gauge loops run in that process just before and after;
* cases_per_s: cases per pass over the median of the passes' case time
  (the sum of the cases' latencies in the pass);
* latency_p50_ms: the median over cases of each case's median latency
  over the passes;
* peak_rss_mb: ru_maxrss of the run.

The human-readable lines add the tail latency: the highest percentile
(at most p99) of the case latencies with at least ten cases beyond it,
with the sample count.  It is not one of the gated metrics, because with
tens of cases (certificate) it moved by up to half between runs of the
same code on the machine the benchmark was defined on.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: calls and self time per layer, exact counters (which
must repeat identically in every traced pass, since every pass runs the
same cases in the same order) and the tracing overhead.
It fails if a layer the workload is expected to use records no calls.

``--workload all`` runs every workload in a fresh process and prints a
summary table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_SETUP_PROBES = 5
TAIL_BEYOND = 10
DIGEST_CHARS = 16


# -- arithmetic of the report ---------------------------------------------------

def tail_rank(n):
    """(percentile, 0-based index) of the highest nearest-rank percentile,
    at most p99, that leaves at least TAIL_BEYOND of n sorted samples
    strictly beyond it."""
    if n <= TAIL_BEYOND:
        raise ValueError("need more than %d samples for a tail, got %d"
                         % (TAIL_BEYOND, n))
    index = min(math.ceil(0.99 * n), n - TAIL_BEYOND) - 1
    return 100.0 * (index + 1) / n, index


def case_digest(output):
    return hashlib.sha256(output.encode()).hexdigest()[:DIGEST_CHARS]


def check_pass(cases, expected):
    """(attempted, ids of failed cases) for one pass.  A case fails when its
    identity fails, when it raised, when its output differs from the
    recorded digest or when its id was not recorded; a recorded case that
    the pass did not produce counts as attempted and failed."""
    failed = []
    seen = set()
    for case in cases:
        seen.add(case.case_id)
        want = expected.get(case.case_id)
        if (not case.ok or case.output is None or want is None
                or case_digest(case.output) != want):
            failed.append(case.case_id)
    missing = sorted(set(expected) - seen)
    return len(cases) + len(missing), failed + missing


# -- CPU speed ------------------------------------------------------------------

# The gauge's loop: pure interpreter work on a few small ints, so its
# speed is the speed this process gets from the CPU, whatever the
# program does.
GAUGE_LOOP = 5000
# The loop's time at the reference speed.  Any fixed value serves; this
# one is near the loop's time on the 2-core Xeon (KVM guest, Python 3.11)
# the benchmark was defined on.
REFERENCE_LOOP_S = 0.000625
# Share of a pass's case time the gauge spends running the loop.
GAUGE_SHARE = 0.15
# Loops run before and again after each set-up probe.
SETUP_GAUGE_LOOPS = 16


def _gauge_loop():
    x = 0
    for i in range(GAUGE_LOOP):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


class Gauge:
    """The CPU's speed while a pass runs.  between_cases runs the loop
    until it has taken GAUGE_SHARE of the case time so far, so the loops
    are spread over the pass in step with the cases.  case_scales() gives
    each case the factor that turns its measured time into the time at
    the reference speed."""

    def __init__(self):
        self.case_seconds = 0.0
        self.loop_total = 0.0
        self.loop_seconds = []
        self.marks = []        # per case, the loops run before it ended

    def between_cases(self, seconds):
        self.marks.append(len(self.loop_seconds))
        self.case_seconds += seconds
        while self.loop_total < GAUGE_SHARE * self.case_seconds:
            self.run_loop()

    def run_loop(self):
        start = perf_counter()
        _gauge_loop()
        elapsed = perf_counter() - start
        self.loop_seconds.append(elapsed)
        self.loop_total += elapsed

    def scale(self):
        """The factor over all loops run so far."""
        if not self.loop_seconds:
            self.run_loop()
        return REFERENCE_LOOP_S * len(self.loop_seconds) / self.loop_total

    def case_scales(self):
        """Per case, the factor from the loop run just before it and the
        one run just after it (the nearest two where one is missing)."""
        while len(self.loop_seconds) < 2:
            self.run_loop()
        last = len(self.loop_seconds) - 2
        scales = []
        for mark in self.marks:
            low = min(max(0, mark - 1), last)
            scales.append(2 * REFERENCE_LOOP_S
                          / (self.loop_seconds[low] + self.loop_seconds[low + 1]))
        return scales


# -- the runs -----------------------------------------------------------------

def import_program():
    package = ROOT / "src" / "quotcells"
    if not (package / "__init__.py").is_file():
        raise SystemExit("error: %s not found; run from a quotcells checkout"
                         % package)
    sys.path.insert(0, str(ROOT / "src"))
    import quotcells
    if Path(quotcells.__file__).resolve().parent != package:
        raise SystemExit("error: imported quotcells from %s, not from %s"
                         % (quotcells.__file__, package))
    import workloads
    return workloads


def setup_probe(name, seed):
    """(time at the reference speed, measured time) to import the program
    and generate the inputs in this process; the gauge runs just before
    and just after."""
    gauge = Gauge()
    for _ in range(SETUP_GAUGE_LOOPS):
        gauge.run_loop()
    start = perf_counter()
    workloads = import_program()
    workloads.WORKLOADS[name](seed)
    elapsed = perf_counter() - start
    for _ in range(SETUP_GAUGE_LOOPS):
        gauge.run_loop()
    return elapsed * gauge.scale(), elapsed


def probe_setup(name, seed):
    """setup_probe in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return tuple(float(x) for x in done.stdout.strip().splitlines()[-1].split())


def load_digests(name):
    with open(BENCH / "digests.json") as fh:
        return json.load(fh)[name]


def _run_pass(workload, tracer=None):
    """One pass with the gauge between cases: (cases, per-case scales)."""
    from workloads import Client
    gc.collect()
    gauge = Gauge()
    cases = workload.run_pass(Client(tracer, gauge))
    return cases, gauge.case_scales()


def scaled_seconds(cases, scales):
    """The pass's case time at the reference speed."""
    return sum(case.seconds * scale for case, scale in zip(cases, scales))


class Tally:
    """Pass times, per-case latencies and set-up probes at the reference
    speed, the CPU speed seen, and failures over a run."""

    def __init__(self, expected):
        self.expected = expected
        self.pass_seconds = []
        self.scales = []
        self.latencies = {}
        self.setup_seconds = []
        self.attempted = 0
        self.failed = []

    def add(self, cases, scales=None):
        """Check a pass; with its per-case scales, also time it."""
        attempted, failed = check_pass(cases, self.expected)
        self.attempted += attempted
        self.failed += failed
        if scales is not None:
            seconds = scaled_seconds(cases, scales)
            self.pass_seconds.append(seconds)
            self.scales.append(seconds / sum(case.seconds for case in cases))
            for case, scale in zip(cases, scales):
                self.latencies.setdefault(case.case_id, []).append(
                    case.seconds * scale)


def run_untraced(workload, seconds, expected, seed):
    tally = Tally(expected)
    deadline = perf_counter() + seconds
    while not tally.pass_seconds or perf_counter() < deadline:
        tally.setup_seconds.append(probe_setup(workload.name, seed))
        tally.add(*_run_pass(workload))
    while len(tally.setup_seconds) < MIN_SETUP_PROBES:
        tally.setup_seconds.append(probe_setup(workload.name, seed))
    return tally


def run_traced(workload, seconds, expected, qc):
    """Alternate untraced and traced passes until the time is up."""
    tally = Tally(expected)
    traced_seconds = []
    layer_passes = []
    deadline = perf_counter() + seconds
    while not traced_seconds or perf_counter() < deadline:
        tally.add(*_run_pass(workload))
        tracer = spans.Tracer()
        installation = spans.Installation(tracer, qc)
        try:
            cases, scales = _run_pass(workload, tracer)
        finally:
            installation.restore()
        tally.add(cases)
        traced = scaled_seconds(cases, scales)
        traced_seconds.append(traced)
        layer_passes.append(_layer_figures(
            tracer, traced / sum(case.seconds for case in cases)))
    # Every pass does the same work in the same order, so the counts must
    # repeat exactly.
    counts = layer_passes[0]["counts"]
    for other in layer_passes[1:]:
        differ = sorted(k for k in counts if counts[k] != other["counts"][k])
        if differ:
            raise RuntimeError("exact counts differ between traced passes: %s"
                               % ", ".join(differ))
    idle = [layer for layer in workload.expected_layers
            if not counts.get(layer + ".calls")]
    if idle:
        raise RuntimeError("layers expected to work on %s recorded no calls: %s"
                           % (workload.name, ", ".join(idle)))
    metrics = dict(counts)
    for name in ("case",) + spans.SPAN_NAMES:
        metrics[name + ".self_s"] = statistics.median(
            p["self_s"].get(name, 0.0) for p in layer_passes)
    metrics["ring.mul.terms_per_pair"] = _ratio(counts["ring.mul.out_terms"],
                                                counts["ring.mul.pairs"])
    metrics["cells.cache_hit_ratio"] = _ratio(
        counts["cells.cell_class.cache_hits"], counts["cells.cell_class.calls"])
    metrics["trace.overhead_ratio"] = (statistics.median(traced_seconds)
                                       / statistics.median(tally.pass_seconds))
    return tally, metrics, len(traced_seconds)


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_figures(tracer, scale):
    counts = {name + ".calls": 0 for name in spans.SPAN_NAMES}
    counts.update({"ring.mul.pairs": 0, "ring.mul.out_terms": 0,
                   "cells.cell_class.cache_hits": 0,
                   "weights.row_tuples.admitted": 0,
                   "linalg.matrix_cells": 0, "grammar.format.terms": 0})
    counts.update(tracer.counts)
    counts.pop("case.calls", None)
    contexts = tracer.contexts.values()
    counts["cells.cache_entries"] = sum(len(c._cell_cache) for c in contexts)
    counts["pullback.prefactor_memo_entries"] = sum(len(c._memo) for c in contexts)
    self_s = {name: seconds * scale
              for name, seconds in spans.self_times(tracer.spans).items()}
    return {"counts": counts, "self_s": self_s}


def case_latencies(tally):
    """Each case's median latency over the timed passes, sorted."""
    return sorted(statistics.median(v) for v in tally.latencies.values())


def end_to_end(tally):
    latencies = case_latencies(tally)
    return {
        "setup_s": statistics.median(s for s, _raw in tally.setup_seconds),
        "cases_per_s": len(latencies) / statistics.median(tally.pass_seconds),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _result(spec, section, values, tally):
    metrics = {}
    for entry in spec[section]:
        if entry["name"] not in values:
            raise RuntimeError("metric %s was not measured" % entry["name"])
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
    return {"correct": not tally.failed, "attempted": tally.attempted,
            "failed": len(tally.failed), "metrics": metrics}


def run_workload(args, spec):
    workloads = import_program()
    import quotcells as qc
    expected = load_digests(args.workload)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("workload %s, seed %d, %d s%s" % (args.workload, args.seed, args.seconds,
                                            ", traced" if args.trace else ""))
    if args.trace:
        tally, values, traced_passes = run_traced(workload, args.seconds,
                                                  expected, qc)
        for name in sorted(values):
            print("  %-36s %s" % (name, values[name]))
        print("  (times at the reference speed; %d traced passes, each after "
              "an untraced one)" % traced_passes)
        section = "per_layer"
    else:
        tally = run_untraced(workload, args.seconds, expected, args.seed)
        values = end_to_end(tally)
        latencies = case_latencies(tally)
        cases = len(latencies)
        tail_p, tail_index = tail_rank(cases)
        passes = len(tally.pass_seconds)
        units = {e["name"]: e["unit"] for e in spec["end_to_end"]}
        speed = statistics.median(tally.scales)
        notes = {
            "setup_s": "median of %d fresh processes; %.4f s unscaled" % (
                len(tally.setup_seconds),
                statistics.median(raw for _s, raw in tally.setup_seconds)),
            "cases_per_s": "%d cases per pass, median of %d passes; "
                           "%.2f/s unscaled" % (cases, passes, values["cases_per_s"] * speed),
            "latency_p50_ms": "p50 of %d case latencies, each its median "
                              "over the passes" % cases,
            "peak_rss_mb": "ru_maxrss of the run",
        }
        print("  CPU speed seen: %.2f of the reference speed (median over "
              "passes, range %.2f-%.2f); times below are at the reference "
              "speed" % (speed, min(tally.scales), max(tally.scales)))
        for name, value in values.items():
            print("  %-16s %12.4f %-5s (%s)" % (name, value, units[name], notes[name]))
        print("  %-16s %12.4f %-5s (p%.1f of %d case latencies, %d beyond; not gated)"
              % ("latency_tail_ms", 1000 * latencies[tail_index], "ms", tail_p,
                 cases, cases - 1 - tail_index))
        if hasattr(workload, "kind_counts"):
            mix = workload.kind_counts()
            print("  calls per kind:   %s" % ", ".join(
                "%s %d" % (kind, mix[kind] * passes) for kind in sorted(mix)))
            for argv in workloads.KNOWN_DEFECTS:
                code, _out, error = workloads.call_cli(list(argv))
                print("  known defect, not in the stream: quotcells %s -> %s"
                      % (" ".join(argv), error or "exit %s" % code))
        section = "end_to_end"
    print("  failed_ratio     %d/%d (%.4f)%s" % (
        len(tally.failed), tally.attempted, _ratio(len(tally.failed), tally.attempted),
        "; first failed: %s" % tally.failed[0] if tally.failed else ""))
    print(json.dumps(_result(spec, section, values, tally)))
    return 0


def run_all(args, spec):
    """Every workload in a fresh process, then one table."""
    rows = []
    for entry in spec["workloads"]:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             entry["name"], "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        rows.append((entry["name"], json.loads(done.stdout.strip().splitlines()[-1])))
    names = [e["name"] for e in spec["end_to_end"]]
    print("%-14s %s %14s" % ("workload", " ".join(
        "%16s" % ("%s[%s]" % (e["name"], e["unit"])) for e in spec["end_to_end"]),
        "failed"))
    for name, result in rows:
        print("%-14s %s %14s" % (
            name, " ".join("%16.4f" % result["metrics"][n]["value"] for n in names),
            "%d/%d" % (result["failed"], result["attempted"])))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print("%r %r" % setup_probe(args.workload, args.seed))
        return 0
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
