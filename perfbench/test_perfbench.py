#!/usr/bin/env python3
"""Determinism test for the ActiveRMT benchmark.

    python3 perfbench/test_perfbench.py

For every workload it makes two short runs with one seed and one with
another seed (through run.py, so it builds first if needed), and asserts:
  - both same-seed runs exit 0 with correct results;
  - their result digests and every virtual-time metric are identical;
  - a different seed changes the digest.
"""
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "1"

# Metrics in virtual time or pure counts: they must repeat exactly.
VIRTUAL = {
    "kv_multiget": ["rtt_p50_us", "rtt_p99_us", "hit_rate", "fail_frac",
                    "grant_ms_p50", "realloc_ms_p50"],
    "kv_sharded": ["rtt_p50_us", "rtt_p99_us", "hit_rate", "fail_frac",
                   "grant_ms_p50", "realloc_ms_p50"],
    "churn": ["fail_frac", "grant_ms_p50", "grant_ms_p99", "reject_frac",
              "utilization"],
}


def run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    digest = None
    metrics = {}
    for line in proc.stdout.splitlines():
        m = re.match(r"digest \S+ ([0-9a-f]+)$", line)
        if m:
            digest = m.group(1)
        m = re.match(r"metric \S+\s+(\S+)\s+(\S+)\s+\S+\s+n=(\d+)$", line)
        if m:
            metrics[m.group(1)] = (m.group(2), m.group(3))
    return proc, digest, metrics


class Determinism(unittest.TestCase):
    def check(self, workload):
        first, digest_a, metrics_a = run(workload, 7)
        second, digest_b, metrics_b = run(workload, 7)
        other, digest_c, _ = run(workload, 8)
        for proc in (first, second, other):
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            self.assertIn('"correct": true', proc.stdout.splitlines()[-1])
        self.assertIsNotNone(digest_a)
        self.assertEqual(digest_a, digest_b)
        for name in VIRTUAL[workload]:
            self.assertIn(name, metrics_a)
            self.assertEqual(metrics_a[name], metrics_b[name], name)
        self.assertNotEqual(digest_a, digest_c)

    def test_kv_multiget(self):
        self.check("kv_multiget")

    def test_kv_sharded(self):
        self.check("kv_sharded")

    def test_churn(self):
        self.check("churn")


if __name__ == "__main__":
    unittest.main()
