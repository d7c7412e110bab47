"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root.  The fail-ratio tests start a few polygv
children, so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import tempfile
import threading
import unittest
from pathlib import Path
from unittest import mock

import checks
import run
import spec
import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class SelfTime(unittest.TestCase):
    def test_nested_call(self):
        clock = FakeClock()
        tr = tracer.Tracer(clock)

        def leaf():
            clock.now += 3.0

        leaf_t = tr.timed("leaf", leaf)

        def outer():
            clock.now += 1.0
            leaf_t()
            clock.now += 2.0
            leaf_t()

        tr.timed("outer", outer)()
        s = tracer.summarize(tr)
        self.assertEqual(s["calls"], {"leaf": 2, "outer": 1})
        self.assertEqual(s["incl_s"], {"leaf": 6.0, "outer": 9.0})
        self.assertEqual(s["self_s"], {"leaf": 6.0, "outer": 3.0})

    def test_overlapping_children_count_once(self):
        # [1, 4] once, [6, 7], and [9, 12] clipped to [9, 10]
        self.assertEqual(tracer.covered([(1, 3), (2, 4), (6, 7), (9, 12)], 0, 10), 5.0)

    def test_adopted_thread_spans_nest_under_the_caller(self):
        tr = tracer.Tracer()
        work = tr.timed("work", lambda: None)

        def pool():
            t = threading.Thread(target=tr.adopted(work, tr.current()))
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())

        tr.timed("pool", pool)()
        by_name = {name: (sid, parent) for sid, parent, name, _, _ in tr.spans}
        self.assertEqual(by_name["work"][1], by_name["pool"][0])

    def test_counters_are_exact(self):
        tr = tracer.Tracer()
        hit = tr.counted("hit", lambda: None)
        for _ in range(1000):
            hit()
        self.assertEqual(tracer.summarize(tr)["counts"], {"hit": 1000})


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, label = run.tail(list(range(1, 31)))
        self.assertEqual(value, 20)
        self.assertIn("n=30", label)

    def test_short_sample_reports_max(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0])[0], 3.0)


class FailRatio(unittest.TestCase):
    """Wrong answers and exceptions show up in ``failed``, never as a crash."""

    def setUp(self):
        self.work = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench-work-"))
        self.calls = run.CliCalls(run.Runner(self.work), random.Random(0))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_right_answers_pass(self):
        job = self.calls.job(None)
        self.assertEqual((job.attempted, job.failed), (7, 0), job.problems)

    def test_wrong_expected_value_fails(self):
        # q-report and ray are both checked against gc_q
        with mock.patch.object(checks, "gc_q", lambda k, d, n: [0] * (d // 2 + 1)):
            job = self.calls.job(None)
        self.assertEqual((job.attempted, job.failed), (7, 2), job.problems)

    def test_exception_in_a_check_fails_the_call(self):
        with mock.patch.object(checks, "gale_even", side_effect=RuntimeError("boom")):
            job = self.calls.job(None)
        self.assertEqual((job.attempted, job.failed), (7, 1), job.problems)


class ImportTime(unittest.TestCase):
    def test_parse(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:       120 |        120 |     networkx\n"
                "import time:        50 |        170 |   polygv.stackedness\n"
                "import time:        10 |        180 | polygv\n")
        self.assertEqual(run.parse_importtime(text),
                         {"networkx": (2, 120e-6), "polygv.stackedness": (1, 170e-6), "polygv": (0, 180e-6)})


class Contract(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_is_written_from_spec(self):
        on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(on_disk, spec.benchmark_json())

    def test_limits(self):
        b = spec.benchmark_json()
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in b["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(b["end_to_end"][0], {"name": "setup_s", "unit": "s", "better": "lower",
                                              "bound": max(m["bound"] for m in b["end_to_end"])})
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)


if __name__ == "__main__":
    unittest.main()
