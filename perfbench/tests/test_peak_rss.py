"""`peak_rss_mib` belongs to one workload, not to the benchmark run.

Runs `table1_pvfs` (which presizes a 7.4 GiB PVFS file) and then
`vo_scale` through `run.py`'s own functions in one Python process, and
checks that `vo_scale` still reports its own tens of MiB. Needs about
8 GiB of free memory and a minute; run it from the repository root:

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402  (perfbench/run.py, imported from its directory)


class PeakRssIsPerWorkload(unittest.TestCase):
    def test_vo_scale_after_table1_pvfs(self):
        binary = run.build()
        table1 = run.run_child(binary, "table1_pvfs", 1, 1, False)
        vo = run.run_child(binary, "vo_scale", 1, 1, False)
        self.assertGreater(table1["peak_rss_mib"], 4096)
        self.assertLess(vo["peak_rss_mib"], 256)
        for report in (table1, vo):
            self.assertEqual(run.totals(report)[1], 0, report["failures"])


if __name__ == "__main__":
    unittest.main()
