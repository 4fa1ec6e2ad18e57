"""The three benchmark workloads: seeded job lists and their output checks.

A job is one call into knotmut's public API: one pair `compare` in
`mutant-compare`, one invariant of one knot or cover elsewhere.  Each
workload's set-up function (corpus generation, gluing and orientation,
target group closure) runs before any timing starts.

Every output is checked twice: against facts that must hold (mutants
agree on every mutation invariant, |H1| of the double branched cover is
the determinant, ...) and against `expected.json`, which records the
outputs of the code at the commit that introduced the benchmark.
Expected values are group and knot invariants, never presentation
shapes, so a faster algorithm with the same answers still passes.

Every input is a constant here, or drawn by the seed from constants;
none is chosen by knotmut's own output, so a change to knotmut cannot
change the job list.  The searches that picked the constants are in
`freeze.py`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import corpus
from knotmut import (alexander, bracket, colored, diagram, permgroups, presentations,
                     quotients, report, satellites, skein2)
from knotmut.laurent import LaurentPoly

LIMITED = "limited"

# -- helpers ---------------------------------------------------------------


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _no_problems(value) -> list[str]:
    return []


@dataclass
class Job:
    """One timed call; `record` maps its output to frozen-value entries."""

    key: str
    run: Callable[[], object]
    record: Callable[[object], dict[str, str]]
    check: Callable[[object], list[str]] = _no_problems
    group: str | None = None   # jobs in one group must give equal outputs


@dataclass
class Workload:
    name: str
    jobs: list[Job]


def _single(key: str):
    return lambda value: {key: digest(value)}


# -- mutant-compare ----------------------------------------------------------

# One costly and one cheap pair at each of 11, 13 and 15 crossings.  Their
# cost differs by up to 1.7x between a pair and its mirror, so the slate
# is fixed and the seed varies the control pairs, sides and order only:
# otherwise the spread between seeds would exceed the benchmark's bounds.
MUTANT_SLATE = (
    (3, 2, 3, -3), (-3, 2, -3, 3),
    (5, 3, -2, -3), (-5, 3, -2, 3),
    (7, 3, 3, -2), (7, -3, -2, -3),
)
# Control pairs are drawn from these two mutant pairs, whose four knots
# (and their mirrors) each take 0.26-0.32 s to report on, so that any
# choice of controls costs about the same.
CONTROL_PAIRS = ((-5, 3, -2, 3), (-4, 3, -3, 3))
N_CONTROLS = 6


def _controls() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each knot against its mirror, and each knot of the first pair against
    each knot of the second and its mirror: 12 pairs, all told apart by the
    Jones polynomial (freeze.py checks this)."""
    knots = [t for p in CONTROL_PAIRS for t in (p, corpus.vertical_mutant(p))]
    controls = [(t, corpus.negate(t)) for t in knots]
    for a in knots[:2]:
        for b in knots[2:]:
            controls += [(a, b), (a, corpus.negate(b))]
    return controls


CONTROLS = _controls()


def _knot_key(p) -> str:
    return "P(" + ",".join(map(str, p)) + ")"


def _report_entries(key: str, rep: report.InvariantReport) -> dict[str, str]:
    return {f"{key}|{k}": f"{it.status}:{digest(it.value)}"
            for k, it in rep.items.items()}


def _compare_job(kind: str, left, right) -> Job:
    """Compare two pretzel knots (tuple, diagram) end to end."""
    (p, dl), (q, dr) = left, right
    opts = report.ReportOptions(colors=3)

    def run():
        r1 = report.compute_report(dl.name, dl, options=opts)
        r2 = report.compute_report(dr.name, dr, options=opts)
        return report.compare_pair(r1, r2)

    def record(res):
        out = _report_entries(_knot_key(p), res.left)
        out.update(_report_entries(_knot_key(q), res.right))
        return out

    def check(res):
        problems = []
        for t, rep in ((p, res.left), (q, res.right)):
            jones = rep.items.get("jones")
            if jones is None or jones.status != report.DONE or jones.value.is_one():
                problems.append(f"{_knot_key(t)}: Jones polynomial missing or 1")
            h1 = rep.items.get("h1_double_cover")
            if h1 is None or h1.status != report.DONE:
                problems.append(f"{_knot_key(t)}: no H1 of the double cover")
            elif corpus.h1_order(h1.value) != corpus.pretzel_det(t):
                problems.append(f"{_knot_key(t)}: |H1| {h1.value} != det")
        if kind == "mutant":
            diff = [k for k, v in res.per_item.items() if v == report.DIFFERENT]
            if diff or res.verdict != report.VERDICT_INCONCLUSIVE:
                problems.append(f"mutants differ on {diff}")
        elif res.verdict != report.VERDICT_EXCLUDED:
            problems.append("control pair not excluded")
        return problems

    return Job(f"{kind}:{_knot_key(p)}~{_knot_key(q)}", run, record, check)


def setup_mutant_compare(rng: random.Random, everything: bool = False) -> Workload:
    """Genuine pretzel mutant pairs plus control pairs, compared end to end.

    With `everything`, every control the seed could choose is included
    (used to freeze expected values).
    """
    listed = {corpus.pair_class(p) for p, _ in corpus.mutant_pairs()}
    jobs = []
    built = {}
    for p in MUTANT_SLATE:
        left, right = corpus.pretzel_pair(p)
        q = corpus.vertical_mutant(p)
        if corpus.pair_class(p) not in listed:
            raise ValueError(f"{p} is not a listed mutant pair")
        built[p], built[q] = left, right
        pair = [(p, left), (q, right)]
        rng.shuffle(pair)
        jobs.append(_compare_job("mutant", *pair))

    def glued(t):
        if t not in built:
            built[t] = corpus.pretzel_pair(t)[0]
        return built[t]

    chosen = CONTROLS if everything else rng.sample(CONTROLS, N_CONTROLS)
    for p, q in chosen:
        jobs.append(_compare_job("control", (p, glued(p)), (q, glued(q))))
    rng.shuffle(jobs)
    return Workload("mutant-compare", jobs)


# -- satellites ----------------------------------------------------------------

# Every skein job runs under a node budget.  The satellite HOMFLY jobs of
# trefoil and figure8 finish within DECIDED_MAX_NODES (they need 4,079 to
# 21,949 nodes at the commit that introduced the benchmark), so their
# values are checked; the Kauffman jobs of the two keep SKEIN_MAX_NODES.
# Every other skein job needs far more there: 160,385
# nodes (16 s) for the Whitehead HOMFLY of 5_1, and more than 300,000 nodes
# or 25 s for the rest, the Whitehead-double Kauffman jobs of trefoil and
# figure8 included.  They run under SKEIN_MAX_NODES and end limited: their
# time is that of a fixed amount of resolution work, and `decided_frac`
# counts them.
SKEIN_MAX_NODES = 2000
DECIDED_MAX_NODES = 40_000
DECIDED_COMPANIONS = ("trefoil", "figure8")
CJONES5_COMPANIONS = ("trefoil", "figure8")
# The first two 7-crossing 2-bridge knots found by freeze.py --pick, as
# (outer, inner) rational-tangle vectors.
TWO_BRIDGE = (((0, -4), (0, -3)), ((0, -4), (0, -1, -2)))


def _poly_job(key: str, fn: Callable[[], object],
              check: Callable[[object], list[str]] = _no_problems) -> Job:
    return Job(key, fn, _single(key), check)


def _bracket_from_kauffman(f, writhe: int):
    """<D> from the Dubrovnik polynomial of a knot: F(-A^3, A - A^-1) (-A^3)^w delta."""
    a_pos = LaurentPoly("A", {3: -1})
    a_neg = LaurentPoly("A", {-3: -1})
    z = LaurentPoly("A", {1: 1, -1: -1})
    total = LaurentPoly.zero("A")
    for (e1, e2), c in f.coeffs.items():
        total = total + c * (a_pos if e1 >= 0 else a_neg) ** abs(e1) * z ** e2
    return total * (a_pos if writhe >= 0 else a_neg) ** abs(writhe) * bracket.DELTA


def _satellite_jobs(name: str, d, bracket_jobs: bool) -> list[Job]:
    n = SKEIN_MAX_NODES
    n_homfly = DECIDED_MAX_NODES if name in DECIDED_COMPANIONS else SKEIN_MAX_NODES

    def untwisted_double(p):
        # the untwisted Whitehead double has Alexander polynomial 1
        if skein2.alexander_from_homfly(p).is_one():
            return []
        return [f"{name}: Alexander of the Whitehead double is not 1"]

    def cable_alexander(p):
        want = alexander.alexander_pd(satellites.cable(d, 2, -1))
        if skein2.alexander_from_homfly(p) == want:
            return []
        return [f"{name}: 2-cable HOMFLY disagrees with its Alexander polynomial"]

    def double_bracket(f):
        double = satellites.whitehead_double(d, -d.writhe(), 1)
        if _bracket_from_kauffman(f, double.writhe()) == bracket.kauffman_bracket(double):
            return []
        return [f"{name}: Kauffman of the double disagrees with its bracket"]

    jobs = []
    if bracket_jobs:
        jobs.append(_poly_job(f"{name}|cjones_4",
                              lambda: colored.colored_jones(d, 4)))
        if name in CJONES5_COMPANIONS:
            jobs.append(_poly_job(f"{name}|cjones_5",
                                  lambda: colored.colored_jones(d, 5)))
    jobs.append(_poly_job(f"{name}|whitehead_homfly",
                          lambda: skein2.p_whitehead_plus(d, max_nodes=n_homfly),
                          untwisted_double))
    jobs.append(_poly_job(f"{name}|cable_homfly",
                          lambda: skein2.homfly_2cable(d, max_nodes=n_homfly),
                          cable_alexander))
    jobs.append(_poly_job(
        f"{name}|whitehead_kauffman",
        lambda: skein2.kauffman_f(
            satellites.whitehead_double(d, -d.writhe(), 1), max_nodes=n),
        double_bracket))
    return jobs


def setup_satellites(rng: random.Random, everything: bool = False) -> Workload:
    """Colored Jones and satellite skein polynomials of small companions.

    The 2-bridge companions get skein jobs only: their glued 7-crossing
    diagrams take 12-45 s for cjones_4, which has no budget yet.
    """
    jobs = []
    for name in corpus.NAMED_COMPANIONS:
        jobs.extend(_satellite_jobs(name, diagram.named_knot(name), True))
    for a, b in TWO_BRIDGE:
        d = corpus.two_bridge_diagram(a, b)
        jobs.extend(_satellite_jobs(d.name, d, False))
    rng.shuffle(jobs)
    return Workload("satellites", jobs)


# -- cover-groups ----------------------------------------------------------

MAX_TABLES = 200_000
# Every epimorphism's kernel is abelianized for targets up to this order.
# Beyond it only the first one is (an index-168 kernel takes 0.3 s), and
# only the count is checked, since which epimorphism comes first depends
# on the search order.
ALL_KERNELS_MAX_ORDER = 120
TARGETS = ("Alt(5)", "PSL(2,7)", "Sym(5)")

# (pretzel tuple, low-index search index, epimorphism targets).  The
# covers of the first mutant pair keep 3 generators after Tietze and get
# every group job; the second pair has a 4-generator cover, so it gets
# cover and low-index jobs only, to index 3 (index 4 takes 1.3-11 s on a
# 4-generator cover, PSL(2,7) epimorphisms 474 s, and neither has a budget).
PRETZEL_COVERS = (
    ((3, 3, -2, -3), 4, TARGETS),
    ((5, 3, -2, -3), 3, ()),
)
# (braid, determinant, index, targets): the first braids of freeze.py's
# seeded search with a 3-generator cover (one) and a 4-generator cover
# (two), at the commit that introduced the benchmark.
BRAID_COVERS = (
    ("5 | 1 3 -3 3 -3 -3 1 4 4 -1 1 1 -2 4", 9, 4, ("Alt(5)",)),
    ("5 | -3 3 -2 -2 -4 1 4 -2 -4 1 -2 3 -2 -1", 7, 3, ()),
    ("5 | 4 2 -1 -1 -1 -4 -4 -2 2 -2 -1 3 -2 -2", 5, 3, ()),
)


def _targets():
    return {"Alt(5)": permgroups.alternating(5),
            "PSL(2,7)": permgroups.psl2(7),
            "Sym(5)": permgroups.symmetric(5)}


def _cover_jobs(name: str, build: Callable[[], object], det: int,
                pres, index: int, targets: dict, group: str | None) -> list[Job]:
    """Jobs on one double branched cover; `pres` is its simplified form."""
    def cover_check(p):
        got = corpus.h1_order(p.abelian_invariants())
        return [] if got == det else [f"{name}: |H1| {got} != det {det}"]

    jobs = [Job(f"{name}|cover", build,
                lambda p: {f"{name}|cover": digest(p.abelian_invariants())},
                cover_check)]

    def lowindex():
        tables = presentations.low_index_subgroups(pres, index, MAX_TABLES)
        return sorted((len(t), presentations.subgroup_abelianization(pres, t))
                      for t in tables)

    key = f"{name}|lowindex_{index}"
    jobs.append(Job(key, lowindex, _single(key),
                    group=f"{group}|lowindex" if group else None))
    for tname, target in targets.items():
        def epis(target=target):
            homs = quotients.epimorphisms(pres, target, simplify=False)
            every = target.order <= ALL_KERNELS_MAX_ORDER
            kernels = [quotients.kernel_abelianization(pres, h, target)
                       for h in (homs if every else homs[:1])]
            return {"count": len(homs), "kernels": sorted(kernels) if every else None}
        key = f"{name}|epi {tname}"
        jobs.append(Job(key, epis, _single(key),
                        group=f"{group}|epi {tname}" if group else None))
    return jobs


def setup_cover_groups(rng: random.Random, everything: bool = False) -> Workload:
    """Group jobs on double branched covers of pretzel knots and braids."""
    groups = _targets()
    for g in groups.values():
        g.elements()   # target closure belongs to set-up
    jobs = []
    for p, index, names in PRETZEL_COVERS:
        targets = {t: groups[t] for t in names}
        for t, d in zip((p, corpus.vertical_mutant(p)), corpus.pretzel_pair(p)):
            jobs.extend(_cover_jobs(
                _knot_key(t), lambda d=d: corpus.diagram_cover(d),
                corpus.pretzel_det(t), corpus.diagram_cover(d), index, targets,
                group=_knot_key(p)))
    for spec, det, index, names in BRAID_COVERS:
        b = diagram.parse_braid(spec)
        jobs.extend(_cover_jobs(
            f"braid {spec}", lambda b=b: corpus.braid_cover(b), det,
            corpus.braid_cover(b), index, {t: groups[t] for t in names},
            group=None))
    rng.shuffle(jobs)
    return Workload("cover-groups", jobs)


# Each set-up takes the seeded random.Random and `everything`, which adds
# every job any seed could choose (for freeze.py).  Only mutant-compare
# draws jobs by seed; the others take only their job order from it.
SETUPS = {
    "mutant-compare": setup_mutant_compare,
    "satellites": setup_satellites,
    "cover-groups": setup_cover_groups,
}
