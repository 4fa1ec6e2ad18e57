"""Smoke tests of the command-line scripts."""

import os
import re
import subprocess
import sys

import pytest

from knotmut import skein2
from knotmut.diagram import named_knot
from knotmut.satellites import whitehead_double

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def run_script(name, *args):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name),
                           *args], capture_output=True, text=True,
                          timeout=300)


def tree_counts(tree, d, max_nodes=None):
    """(nodes, memo entries, memo hits), as strings, of `tree(d)` run in
    this process with node budget `max_nodes`, finished or stopped by it."""
    made = []

    class Counting(skein2.Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(skein2, "Budget", Counting)
        try:
            tree(d, max_nodes=max_nodes)
        except skein2.ResourceLimitExceeded:
            pass
    (budget,) = made
    memo, hits = re.fullmatch(r"(\d+) memo entries, (\d+) memo hits",
                              budget.progress()).groups()
    return str(budget.nodes), memo, hits


class TestGroupSearchTiming:
    def test_small_searches(self):
        res = run_script("group_search_timing.py", "--targets", "Alt(5)",
                         "--index", "3")
        assert res.returncode == 0, res.stderr
        assert re.search(r"^cover of P\(3,3,-3,-2\): knot group 4 generators, "
                         r"\d+ letters after Tietze, cover 3 generators, "
                         r"\d+ letters, \d+\.\d{3} s$", res.stdout, re.M)
        assert re.search(r"^epimorphisms onto Alt\(5\): 12 kernels, "
                         r"\d+\.\d{3} s first, \d+\.\d{3} s warm$",
                         res.stdout, re.M), res.stdout
        assert "low-index to 3: 5 classes" in res.stdout

    def test_kernels(self):
        res = run_script("group_search_timing.py", "--targets", "Alt(5)",
                         "--kernels", "--index", "2")
        assert res.returncode == 0, res.stderr
        # the digest pins the sorted invariants of the 12 kernels, and the
        # row entries the Schreier transversal that `_schreier_steps` takes
        assert re.search(r"^kernels onto Alt\(5\): 12 kernels, \d+\.\d{3} s, "
                         r"8791 row entries, digest b963c57e0f04ee0a$",
                         res.stdout, re.M), res.stdout

    def test_index_six_within_budget(self):
        res = run_script("group_search_timing.py", "--budget-seconds", "0.01",
                         "--targets", "Alt(5)", "--index", "2")
        assert res.returncode == 0, res.stderr
        assert re.search(r"^low-index to 6: (limited, time budget exhausted "
                         r"after \d+ tables tried, \d+ subgroups found|"
                         r"\d+ classes, \d+\.\d{2} s)$", res.stdout,
                         re.M), res.stdout


class TestSkeinTiming:
    def test_one_companion(self):
        res = run_script("skein_timing.py", "--budget-seconds", "0.2",
                         "trefoil")
        assert res.returncode == 0, res.stderr
        assert re.match(r"# times .* compare only within this run; node, "
                        r"memo-entry and memo-hit counts compare across runs "
                        r"only on done and capped lines\n", res.stdout), \
            res.stdout
        for job, status in (("whitehead_homfly", "done"),
                            ("cable_homfly", "done"),
                            ("whitehead_kauffman", "(done|limited)")):
            assert re.search(rf"^trefoil {job}: \d+ nodes, \d+ memo entries, "
                             rf"\d+ memo hits, \d+\.\d{{3}} s, "
                             rf"\d+\.\d us/node, {status}$", res.stdout,
                             re.M), res.stdout
        # the done lines count the library's own satellite trees
        d = named_knot("trefoil")
        for job, tree in (("whitehead_homfly", skein2.p_whitehead_plus),
                          ("cable_homfly", skein2.homfly_2cable)):
            got = re.search(rf"^trefoil {job}: (\d+) nodes, (\d+) memo "
                            rf"entries, (\d+) memo hits,", res.stdout, re.M)
            assert got.groups() == tree_counts(tree, d), job
        assert re.search(r"^total: \d+ nodes, \d+ memo entries, \d+ memo hits, "
                         r"\d+\.\d{3} s, \d+\.\d us/node$", res.stdout, re.M)
        # the last line is the process's peak RSS
        assert re.search(r"\npeak RSS: \d+\.\d MB\n\Z", res.stdout), res.stdout

    def test_node_cap(self):
        # a tree that does not finish within --max-nodes stops at exactly
        # that many nodes, with the counts of the library's capped tree;
        # trefoil's Whitehead and cable HOMFLY finish in 35 and 89 nodes
        res = run_script("skein_timing.py", "--max-nodes", "100", "trefoil")
        assert res.returncode == 0, res.stderr
        d = named_knot("trefoil")
        for job, tree, status in (
                ("whitehead_homfly", skein2.p_whitehead_plus, "done"),
                ("cable_homfly", skein2.homfly_2cable, "done"),
                ("whitehead_kauffman",
                 lambda d, max_nodes: skein2.kauffman_f(whitehead_double(d),
                                                        max_nodes=max_nodes),
                 "capped")):
            got = re.search(rf"^trefoil {job}: (\d+) nodes, (\d+) memo "
                            rf"entries, (\d+) memo hits, \d+\.\d{{3}} s, "
                            rf"\d+\.\d us/node, {status}$", res.stdout, re.M)
            assert got, res.stdout
            assert got.groups() == tree_counts(tree, d, 100), job
            if status == "capped":
                assert got[1] == "100"

    def test_named_trees(self):
        # --tree runs only the trees it names, in the script's order, and
        # their counts are the library's; a name it does not know is refused
        res = run_script("skein_timing.py", "--tree", "cable_homfly", "--tree",
                         "whitehead_homfly", "trefoil", "figure8")
        assert res.returncode == 0, res.stderr
        got = re.findall(r"^(\w+) (\w+): (\d+) nodes, (\d+) memo entries, "
                         r"(\d+) memo hits, \d+\.\d{3} s, \d+\.\d us/node, "
                         r"done$", res.stdout, re.M)
        trees = (("whitehead_homfly", skein2.p_whitehead_plus),
                 ("cable_homfly", skein2.homfly_2cable))
        want = [(name, job, *tree_counts(tree, named_knot(name)))
                for name in ("trefoil", "figure8") for job, tree in trees]
        assert got == want, res.stdout
        assert "whitehead_kauffman" not in res.stdout
        res = run_script("skein_timing.py", "--tree", "kauffman", "trefoil")
        assert res.returncode == 2
        assert "invalid choice: 'kauffman'" in res.stderr
