"""Self-test of the benchmark's own arithmetic and tracing.

    python3 bench/selftest.py

Covers self time with nested spans, the tail-percentile rule (at least ten
samples beyond), digest comparison, and complete installation and removal
of the trace wrappers.
"""

from __future__ import annotations

import unittest

import run
import spans

Case = run.import_program().Case


class SelfTimeTest(unittest.TestCase):

    def test_nested_spans(self):
        # a [0,10] holds b [1,4] and d [5,6]; b holds c [2,3]
        records = [["a", 0.0, 10.0, -1, "k"], ["b", 1.0, 4.0, 0, "k"],
                   ["c", 2.0, 3.0, 1, "k"], ["d", 5.0, 6.0, 0, "k"]]
        self.assertEqual(spans.self_times(records),
                         {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0})

    def test_same_name_nested_is_not_counted_twice(self):
        records = [["s", 0.0, 5.0, -1, None], ["s", 1.0, 3.0, 0, None]]
        self.assertEqual(spans.self_times(records), {"s": 5.0})

    def test_tracer_records_parents_and_case(self):
        tracer = spans.Tracer()
        tracer.case = "k1"
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(inner)
        tracer.close(outer)
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0])
        self.assertEqual({s[4] for s in tracer.spans}, {"k1"})
        self.assertEqual(tracer.stack, [])
        times = spans.self_times(tracer.spans)
        self.assertGreaterEqual(times["outer"], 0.0)
        self.assertGreaterEqual(times["inner"], 0.0)

    def test_generator_spans_exclude_the_consumer(self):
        tracer = spans.Tracer()

        def numbers():
            yield from range(3)

        wrapped = spans.traced_generator(tracer, "gen", numbers, "gen.items")
        consumer = spans.traced_call(tracer, "consumer", lambda: list(wrapped()))
        self.assertEqual(consumer(), [0, 1, 2])
        self.assertEqual(tracer.counts["gen.calls"], 1)
        self.assertEqual(tracer.counts["gen.items"], 3)
        # one span to create the generator and one per resumption, four of
        # them ending in an item or the end of iteration
        self.assertEqual(sum(1 for s in tracer.spans if s[0] == "gen"), 5)
        self.assertTrue(all(s[3] == 0 for s in tracer.spans[1:]))


class TailRankTest(unittest.TestCase):

    def beyond(self, n):
        return n - 1 - run.tail_rank(n)[1]

    def test_p99_when_enough_samples(self):
        self.assertEqual(run.tail_rank(1000), (99.0, 989))
        self.assertEqual(self.beyond(1000), 10)
        p, _ = run.tail_rank(5000)
        self.assertEqual(p, 99.0)
        self.assertGreaterEqual(self.beyond(5000), 10)

    def test_lower_percentile_keeps_ten_beyond(self):
        for n in (11, 69, 500, 999):
            p, index = run.tail_rank(n)
            self.assertEqual(self.beyond(n), 10)
            self.assertLess(p, 99.0)
            self.assertAlmostEqual(p, 100.0 * (n - 10) / n)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail_rank(10)


class DigestTest(unittest.TestCase):

    def setUp(self):
        self.expected = {"a": run.case_digest("x"), "b": run.case_digest("y"),
                         "c": run.case_digest("z")}

    def test_all_match(self):
        cases = [Case("a", 0.1, True, "x"), Case("b", 0.1, True, "y"),
                 Case("c", 0.1, True, "z")]
        self.assertEqual(run.check_pass(cases, self.expected), (3, []))

    def test_each_kind_of_failure(self):
        cases = [Case("a", 0.1, True, "changed"),   # output differs
                 Case("b", 0.1, False, "y"),        # identity failed
                 Case("x", 0.1, True, "x")]         # not recorded
        attempted, failed = run.check_pass(cases, self.expected)
        self.assertEqual(attempted, 4)              # "c" missing counts too
        self.assertEqual(sorted(failed), ["a", "b", "c", "x"])

    def test_raised_case_fails(self):
        cases = [Case("a", 0.1, False, None), Case("b", 0.1, True, "y"),
                 Case("c", 0.1, True, "z")]
        self.assertEqual(run.check_pass(cases, self.expected), (3, ["a"]))


class ScaleTest(unittest.TestCase):

    def test_gauge_keeps_its_share_and_scales_to_reference(self):
        gauge = run.Gauge()
        gauge.between_cases(0.02)
        self.assertGreaterEqual(gauge.loop_total, run.GAUGE_SHARE * 0.02)
        # a CPU that runs the loop at half the reference speed halves times
        ref = run.REFERENCE_LOOP_S
        gauge.loop_seconds, gauge.loop_total = [2 * ref] * 4, 8 * ref
        self.assertAlmostEqual(gauge.scale(), 0.5)

    def test_each_case_is_scaled_by_the_loops_around_it(self):
        ref = run.REFERENCE_LOOP_S
        gauge = run.Gauge()
        gauge.loop_seconds = [ref, ref, 2 * ref, 2 * ref]
        gauge.loop_total = sum(gauge.loop_seconds)
        # loops run before each case ended: 0, 2, 3, 4
        gauge.marks = [0, 2, 3, 4]
        self.assertEqual([round(x, 6) for x in gauge.case_scales()],
                         [1.0,                 # loops 0, 1: none before
                          round(2 / 3, 6),     # loop 1 before, 2 after
                          0.5,                 # loop 2 before, 3 after
                          0.5])                # loops 2, 3: none after

    def test_pass_time_counts_every_case_once(self):
        tally = run.Tally({"a": run.case_digest("x"), "b": run.case_digest("y")})
        tally.add([Case("a", 0.3, True, "x"), Case("b", 0.1, True, "y")], [0.5, 0.5])
        tally.add([Case("a", 0.1, True, "x"), Case("b", 0.3, True, "y")], [1.0, 1.0])
        tally.add([Case("a", 0.2, True, "x"), Case("b", 0.2, True, "y")])
        self.assertEqual(tally.attempted, 6)
        self.assertEqual(len(tally.pass_seconds), 2)   # the untimed pass is only checked
        tally.setup_seconds = [(0.1, 0.2)]
        values = run.end_to_end(tally)
        self.assertAlmostEqual(values["cases_per_s"], 2 / 0.3)
        # case medians: a (0.15, 0.1) -> 0.125, b (0.05, 0.3) -> 0.175
        self.assertAlmostEqual(values["latency_p50_ms"], 150.0)


class InstallationTest(unittest.TestCase):

    def test_every_binding_wrapped_and_restored(self):
        import quotcells as qc
        element = qc.ring.RingElement
        before = (element.__mul__, qc.pullback.permute_factors,
                  qc.cells.permute_factors, qc.pullback.exact_rank)
        tracer = spans.Tracer()
        installation = spans.Installation(tracer, qc)
        try:
            self.assertEqual(installation.unwrapped(), [])
            self.assertIsNot(element.__mul__, before[0])
            self.assertIs(element.__radd__, element.__add__)
            self.assertIs(qc.pullback.permute_factors, qc.ring.permute_factors)
            ctx = qc.ring.RingContext(genus=0, factors=1)
            x = ctx.omega(1) + ctx.one()
            x * ctx.omega(1)
        finally:
            installation.restore()
        self.assertEqual(tracer.counts["ring.mul.calls"], 1)
        self.assertEqual(tracer.counts["ring.mul.pairs"], 2)
        self.assertEqual(tracer.counts["ring.mul.out_terms"], 2)
        self.assertEqual((element.__mul__, qc.pullback.permute_factors,
                          qc.cells.permute_factors, qc.pullback.exact_rank), before)


if __name__ == "__main__":
    unittest.main()
