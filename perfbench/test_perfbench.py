"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import cmkostka  # noqa: E402
from cmkostka import verify  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from metrics import CHECK_NAMES, END_TO_END, PER_LAYER, quantile  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


class ArithmeticTest(unittest.TestCase):
    def test_quantiles(self):
        self.assertEqual(quantile([4, 1, 3, 2], 0.5), 2.5)
        self.assertEqual(quantile(range(11), 0.9), 9)
        self.assertAlmostEqual(quantile([0, 10], 0.9), 9.0)
        self.assertEqual(quantile([7], 0.9), 7)
        with self.assertRaises(ValueError):
            quantile([], 0.5)

    def test_self_times_subtract_direct_children_only(self):
        spans = [
            ("a", 0.0, 10.0, -1),
            ("b", 1.0, 4.0, 0),
            ("c", 5.0, 9.0, 0),
            ("d", 6.0, 7.0, 2),
            ("a", 20.0, 22.0, -1),
        ]
        stats = self_times(spans)
        self.assertEqual(stats["a"], (2, 5.0))
        self.assertEqual(stats["b"], (1, 3.0))
        self.assertEqual(stats["c"], (1, 3.0))
        self.assertEqual(stats["d"], (1, 1.0))
        roots = sum(end - start for _, start, end, parent in spans if parent < 0)
        self.assertEqual(sum(s for _, s in stats.values()), roots)

    def test_end_to_end_takes_per_op_medians(self):
        reps = [
            {"scaled_latencies_s": lat, "scaled_wall_s": w, "scaled_setup_s": s, "peak_rss_mib": m}
            for lat, w, s, m in (
                ([0.5, 1.5, 0.5], 2.6, 0.1, 20.0),
                ([1.0, 3.0, 0.1], 4.2, 0.3, 22.0),
                ([2.0, 1.0, 0.2], 3.3, 0.2, 21.0),
            )
        ]
        self.assertEqual(run.median_per_op(reps), [1.0, 1.5, 0.2])
        metrics = run.end_to_end(reps, whole_call=False)
        self.assertAlmostEqual(metrics["wall_s"], 2.7)
        self.assertAlmostEqual(metrics["ops_per_s"], 3 / 2.7)
        self.assertAlmostEqual(metrics["op_p50_ms"], 1000.0)
        self.assertAlmostEqual(metrics["op_p90_ms"], 1400.0)
        self.assertEqual(metrics["setup_s"], 0.2)
        self.assertEqual(metrics["peak_rss_mib"], 21.0)
        self.assertEqual(set(metrics), {name for name, _, _ in END_TO_END})
        # verify-all: the wall of the whole call, median over reps
        whole = run.end_to_end(reps, whole_call=True)
        self.assertEqual(whole["wall_s"], 3.3)
        self.assertAlmostEqual(whole["ops_per_s"], 3 / 3.3)
        self.assertAlmostEqual(whole["op_p90_ms"], 1400.0)

    def test_item_counts_must_match_within_a_run(self):
        reps = [{"items": {"a": 3, "b": 5}}, {"items": {"a": 3, "b": 5}}]
        self.assertEqual(run.item_mismatches(reps), 0)
        reps.append({"items": {"a": 4, "b": 5}})
        reps.append({"items": {"a": 3}})
        self.assertEqual(run.item_mismatches(reps), 2)

    def test_latencies_scale_to_reference_speed(self):
        ref = speed.REFERENCE_S
        # kernel samples (start, duration): the machine runs at half speed
        # around the first op and at full speed around the others
        samples = [(0.0, 2 * ref), (1.0, 2 * ref), (2.5, 2 * ref), (3.1, 2 * ref),
                   (10.0, ref), (10.1, ref), (11.0, ref), (12.0, ref)]
        ops = [(0.5, 3.0), (10.2, 10.7), (20.0, 20.1)]
        scaled = speed.scaled_latencies(ops, samples, fallback_s=ref)
        # op 1: 2.5 s minus the two samples inside, at half speed
        self.assertAlmostEqual(scaled[0], (2.5 - 4 * ref) / 2)
        # op 2: no sample inside; the two nearest on each side say full speed
        self.assertAlmostEqual(scaled[1], 0.5)
        # op 3: only the last two samples are near
        self.assertAlmostEqual(scaled[2], 0.1)
        self.assertEqual(speed.scaled_latencies([(0.0, 1.0)], [], fallback_s=2 * ref), [0.5])

    def test_wall_scales_each_stretch_by_its_own_speed(self):
        ref = speed.REFERENCE_S
        # half speed until t = 10, full speed after
        samples = [(t, 2 * ref) for t in (0.0, 2.0, 4.0, 6.0, 8.0)]
        samples += [(t, ref) for t in (10.0, 12.0, 14.0, 16.0, 18.0)]
        wall = speed.scaled_wall_s(1.0, 19.0, samples, fallback_s=ref)
        # each sample inside the wall is taken out exactly once
        self.assertAlmostEqual(wall, (9.0 - 4 * 2 * ref) / 2 + (9.0 - 5 * ref))
        self.assertAlmostEqual(speed.scaled_wall_s(1.0, 19.0, [], fallback_s=ref), 18.0)


class TracerTest(unittest.TestCase):
    def test_traced_run_restores_every_patched_attribute(self):
        tracer = Tracer()
        tracer.install()
        patched = tracer.patched()
        self.assertTrue(patched)
        # imported-by-name bindings are wrapped too, not only the defining module
        owners = {id(owner) for owner, attribute, _ in patched if attribute == "kostka"}
        self.assertGreaterEqual(len(owners), 4)
        try:
            for owner, attribute, original in patched:
                self.assertIsNot(getattr(owner, attribute), original)
            workloads.op_loop(workloads.character_op, [cmkostka.Partition((3, 1))], tracer)
            point = cmkostka.CMPointRegular([0, 1, 3], [1, 0, Fraction(1, 2)])
            workloads.op_loop(workloads.cm_op, [point], tracer)
        finally:
            tracer.restore()
        for owner, attribute, original in patched:
            current = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self.assertIs(current, original, f"{owner!r}.{attribute}")
        self.assertEqual(tracer.patched(), [])
        stats = self_times(tracer.spans)
        self.assertEqual(stats["characters.character"][0], 1)
        self.assertEqual(stats["cm.component_line"][0], 3)
        self.assertEqual(stats["bench.op"][0], 2)

    def test_check_timer_restores_registry(self):
        original = verify._REGISTRY
        latencies = []
        sampler = speed.SpeedSampler()
        with workloads.check_timer(latencies, sampler):
            self.assertIsNot(verify._REGISTRY, original)
            results = verify.run_checks(names=["tableau-square-sum"])
        self.assertIs(verify._REGISTRY, original)
        self.assertTrue(results[0].passed)
        self.assertEqual([name for name, _, _ in latencies], ["tableau-square-sum"])
        # one kernel sample on each side of the check, none inside it
        (before, _), (after, _) = sampler.samples
        _, start, end = latencies[0]
        self.assertLess(before, start)
        self.assertLess(end, after)


class GateTest(unittest.TestCase):
    def test_character_gate_rejects_bumped_kostka_coefficient(self):
        label = cmkostka.Partition((3, 2, 1))
        report = cmkostka.character(label)
        self.assertTrue(workloads.character_ok(label, report))
        coeffs = dict(report.kostka.coeffs)
        coeffs[2] += 1
        bumped = dataclasses.replace(report, kostka=cmkostka.LaurentPoly(coeffs))
        self.assertFalse(workloads.character_ok(label, bumped))
        wrong_dimension = dataclasses.replace(report, dimension=report.dimension + 1)
        self.assertFalse(workloads.character_ok(label, wrong_dimension))

    def test_raising_op_is_a_failed_op_and_the_loop_continues(self):
        labels = [cmkostka.Partition((2,)), "not a label", cmkostka.Partition((1, 1))]
        _, latencies, outputs = workloads.op_loop(workloads.character_op, labels)
        self.assertEqual(len(latencies), 3)
        verdicts = [workloads.character_ok(lab, out) for lab, out in zip(labels, outputs)]
        self.assertEqual(verdicts, [True, False, True])

    def test_cm_gate_rejects_wrong_outputs(self):
        point = cmkostka.CMPointRegular([0, 2, Fraction(-1, 3)], [1, Fraction(1, 2), -2])
        good = workloads.cm_op(point)
        self.assertTrue(workloads.cm_ok(point, good))
        ok, m, witness, char_x, char_y, lines = good
        wrong_line = lines[:-1] + [(Fraction(1), lines[-1][1] + 1)]
        self.assertFalse(workloads.cm_ok(point, (ok, m, witness, char_x, char_y, wrong_line)))
        wrong_y = char_y[:1] + (char_y[1] + 1,) + char_y[2:]
        self.assertFalse(workloads.cm_ok(point, (ok, m, witness, char_x, wrong_y, lines)))
        wrong_x = char_x[:-2] + (char_x[-2] + 1, char_x[-1])
        self.assertFalse(workloads.cm_ok(point, (ok, m, witness, wrong_x, char_y, lines)))
        column, row = witness
        wrong_witness = ((column[0] + 1,) + column[1:], row)
        self.assertFalse(workloads.cm_ok(point, (ok, m, wrong_witness, char_x, char_y, lines)))

    def test_verify_gate_fails_only_the_falsified_check(self):
        argv = ["verify-all", "--n", "4", "--N", "2", "--inject-hook-corruption"]
        _, latencies, output = workloads.verify_run(argv, speed.SpeedSampler())
        self.assertEqual(output[0], 1)
        self.assertEqual(len(latencies), len(verify.check_names()))
        verdicts = workloads.verify_gate(verify.check_names(), output)
        failed = [name for name, ok in zip(verify.check_names(), verdicts) if not ok]
        self.assertEqual(failed, ["completion-series-consistency"])
        # a PASS battery that exits nonzero is inconsistent: every check fails
        self.assertFalse(any(workloads.verify_gate(["a"], (1, "PASS a (3 items)\n"))))
        self.assertEqual(workloads.verify_gate(["a"], (0, "PASS a (3 items)\n")), [True])


class ContractTest(unittest.TestCase):
    def test_check_names_match_the_registry(self):
        self.assertEqual(CHECK_NAMES, verify.check_names())

    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(PER_LAYER))
        self.assertEqual(len(PER_LAYER), len(set(PER_LAYER)))

    def test_without_the_program_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cm-pairs", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
