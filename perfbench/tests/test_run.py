"""Tests of perfbench/run.py: unit-cost parsing, metric names and units,
and the no-sources failure.  Run: python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(name, real_time, items_per_second=None, unit="ns"):
    b = {"name": name, "run_type": "iteration", "real_time": real_time,
         "time_unit": unit}
    if items_per_second:
        b["items_per_second"] = items_per_second
    return b


SIMCORE_DOC = {"benchmarks": [
    bench("BM_EventPost", 150.0, 1e9 / 150.0),
    bench("BM_EventDispatch", 1.0, 1e9 / 120.0, unit="ms"),
    bench("BM_FiberSwitch", 600.0, 1e9 / 300.0),
    bench("BM_FabricChunk", 2.3, unit="us"),
    bench("BM_MatcherArrivePosted/8", 100.0),
    bench("BM_MatcherArrivePosted/64", 900.0),
    bench("BM_MatcherArrivePosted/512", 8500.0),
    bench("BM_RegCacheHit", 40.0, 1e9 / 40.0),
]}


class UnitCosts(unittest.TestCase):
    def test_ns_per_item_prefers_items(self):
        self.assertAlmostEqual(run.ns_per_item(SIMCORE_DOC["benchmarks"][2]), 300.0)
        self.assertAlmostEqual(run.ns_per_item(SIMCORE_DOC["benchmarks"][3]), 2300.0)

    def test_matcher_depth_nearest_on_log_scale(self):
        depths = [8, 64, 512]
        self.assertEqual(run.nearest_depth(depths, 0), 8)
        self.assertEqual(run.nearest_depth(depths, 40), 64)
        self.assertEqual(run.nearest_depth(depths, 878), 512)

    def test_every_cost_is_named_in_ns(self):
        m = run.simcore_metrics(SIMCORE_DOC, 878)
        self.assertEqual(m["mpi.match_ns"]["value"], 8500.0)
        self.assertAlmostEqual(m["sim.dispatch_ns"]["value"], 120.0)
        for name, v in m.items():
            self.assertRegex(name, NAME)
            self.assertEqual(v["unit"], "ns")


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

    def test_names_and_units_are_well_formed(self):
        names = []
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                names.append(m["name"])
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))

    def test_unit_costs_are_per_layer_metrics(self):
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for name in list(run.SIMCORE_COSTS) + ["mpi.match_ns"]:
            self.assertEqual(per_layer.get(name), "ns", name)


class NoSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copytree(HERE.parent, Path(d) / "perfbench")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cg_latency",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
