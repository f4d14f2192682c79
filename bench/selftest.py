"""Self-tests of the benchmark's own logic: output checks, generated
inputs and the span arithmetic.

    python3 bench/selftest.py
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CheckFailed,
    check_annihilates,
    gessel_recurrence_json,
    kreweras_values,
)

# (n+6)(2n+9) k(n+3) = 54 (n+1)(n+2) k(n): the first-order recurrence of the
# Kreweras closed form in m = n/3, written in n; off the support both sides vanish
KREWERAS_RECURRENCE = {3: [54, 21, 2], 0: [-108, -162, -54]}


class KrewerasCheck(unittest.TestCase):
    def test_closed_form_values(self):
        values = kreweras_values(12)
        self.assertEqual(values[::3], [1, 2, 16, 192, 2816])
        self.assertFalse(any(v for n, v in enumerate(values) if n % 3))

    def test_accepts_true_recurrence(self):
        check_annihilates(KREWERAS_RECURRENCE, kreweras_values(500))

    def test_rejects_perturbed_recurrence(self):
        for power, coeffs in KREWERAS_RECURRENCE.items():
            for k in range(len(coeffs)):
                bad = {p: list(c) for p, c in KREWERAS_RECURRENCE.items()}
                bad[power][k] += 1
                with self.assertRaises(CheckFailed):
                    check_annihilates(bad, kreweras_values(500))

    def test_rejects_zero_recurrence(self):
        with self.assertRaises(CheckFailed):
            check_annihilates({0: [0]}, kreweras_values(30))


class GesselRecurrenceFile(unittest.TestCase):
    def test_round_trips_through_uni_from_json(self):
        from quarterwalks.eliminate import UniOperator, uni_from_json, uni_to_json
        from quarterwalks.exactmath import RatFunc, poly_from, poly_mul, poly_scale

        data = gessel_recurrence_json()
        op = uni_from_json(data)
        expected = UniOperator(
            {
                2: RatFunc(poly_mul(poly_from([10, 3]), poly_from([4, 1]))),
                0: RatFunc(poly_scale(poly_mul(poly_from([5, 3]), poly_from([1, 1])), -16)),
            }
        )
        self.assertEqual(op, expected)
        self.assertEqual(uni_to_json(op), data)


def span(id_, name, parent, start, end, **counters):
    return {"id": id_, "name": name, "parent": parent, "start": start, "end": end,
            "counters": counters}


class SpanArithmetic(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        spans = [
            span(0, "cli", None, 0.0, 10.0),
            span(1, "a", 0, 1.0, 4.0),
            span(2, "b", 1, 2.0, 3.0),
            span(3, "c", 0, 5.0, 9.0),
            span(4, "d", 3, 6.0, 7.0),
            span(5, "e", 3, 6.5, 8.0),  # overlaps d: the union is counted once
        ]
        got = tracing.self_times(spans)
        want = {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5}
        for k, v in want.items():
            self.assertAlmostEqual(got[k], v)

    def test_layer_metrics(self):
        spans = [
            span(0, "cli", None, 0.0, 10.0),
            span(1, "eliminate.takayama_pipeline", 0, 2.0, 8.0),
            span(2, "eliminate.generate_module", 1, 2.0, 3.0, vectors=25, dropped=0),
            span(3, "eliminate.eliminate_shifts", 1, 3.0, 6.0, vectors=25, positions=9),
            span(4, "eliminate.apply_to_sequence", 1, 6.0, 6.5),
            span(5, "eliminate.apply_to_sequence", 1, 6.5, 7.0),
            span(6, "eliminate.apply_to_sequence", 0, 9.0, 9.25),
        ]
        m = tracing.layer_metrics(spans, total_s=10.5)
        # takayama self time (1 s) plus its own sequence checks (1 s)
        self.assertAlmostEqual(m["eliminate.reverify.s"], 2.0)
        self.assertAlmostEqual(m["eliminate.apply_to_sequence.s"], 1.25)
        self.assertEqual(m["eliminate.apply_to_sequence.calls"], 3)
        self.assertAlmostEqual(m["eliminate.eliminate_shifts.s"], 3.0)
        self.assertEqual(m["eliminate.vectors"], 25)
        self.assertEqual(m["eliminate.rounds"], 1)
        # traced total minus the top-level spans (6 s and 0.25 s)
        self.assertAlmostEqual(m["cli.self_s"], 4.25)
        self.assertEqual(m["guess.nullspace.s"], 0)
        self.assertEqual(m["guess.kept_ratio"], 0.0)

    def test_recorder_nests_and_defers_sizes(self):
        class Layer:
            @staticmethod
            def outer(x):
                return len(Layer.inner(x)) + 1

            @staticmethod
            def inner(x):
                return [x] * x

        rec = tracing.Recorder()
        rec.wrap(Layer, "inner", "inner", lambda a, k, r: {"len": len(r)})
        rec.wrap(Layer, "outer", "outer")
        root = rec.open(tracing.ROOT_SPAN)
        Layer.outer(3)
        rec.close(root)
        self.assertEqual(rec.spans[2]["counters"], {})  # not read before finish
        rec.finish()
        names = {s["name"]: s for s in rec.spans}
        self.assertEqual(names["outer"]["parent"], root["id"])
        self.assertEqual(names["inner"]["parent"], names["outer"]["id"])
        self.assertEqual(names["inner"]["counters"], {"len": 3})


if __name__ == "__main__":
    unittest.main()
