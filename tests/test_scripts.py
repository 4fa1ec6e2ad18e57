"""Smoke tests of the command-line scripts."""

import os
import re
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name),
                           *args], capture_output=True, text=True,
                          timeout=300)


class TestMutationSurvey:
    def test_small_survey(self):
        res = run_script("mutation_survey.py", "--samples", "2",
                         "--colors", "2", "--max-crossings", "6")
        assert res.returncode == 0, res.stderr
        assert "done: 2 samples, 0 mismatches" in res.stdout


class TestGroupSearchTiming:
    def test_small_searches(self):
        res = run_script("group_search_timing.py", "--targets", "Alt(5)",
                         "--index", "3")
        assert res.returncode == 0, res.stderr
        assert re.search(r"^cover of P\(3,3,-3,-2\): 21 generators, 85 letters "
                         r"before Tietze, 3 generators, \d+ letters after, "
                         r"\d+\.\d{3} s$", res.stdout, re.M)
        assert "epimorphisms onto Alt(5): 12 kernels" in res.stdout
        assert "low-index to 3: 5 classes" in res.stdout


class TestSkeinTiming:
    def test_one_companion(self):
        res = run_script("skein_timing.py", "--budget-seconds", "0.2",
                         "trefoil")
        assert res.returncode == 0, res.stderr
        assert re.match(r"# times .* compare only within this run; node, "
                        r"memo-entry and memo-hit counts compare across runs "
                        r"only on done lines\n", res.stdout), res.stdout
        for job, status in (("whitehead_homfly", "done"),
                            ("cable_homfly", "done"),
                            ("whitehead_kauffman", "(done|limited)")):
            assert re.search(rf"^trefoil {job}: \d+ nodes, \d+ memo entries, "
                             rf"\d+ memo hits, \d+\.\d{{3}} s, "
                             rf"\d+\.\d us/node, {status}$", res.stdout,
                             re.M), res.stdout
        assert re.search(r"^total: \d+ nodes, \d+ memo entries, \d+ memo hits, "
                         r"\d+\.\d{3} s, \d+\.\d us/node$", res.stdout, re.M)
